"""Output gates: every job's output is checked against independent references.

No check reuses a production formula for a derived quantity.  The
references are the oracles of ``hypermap.oracle`` (``svd2``,
``sweep_min_direction``), numpy's LAPACK SVD, the map's derivative written
out from f_k itself, and stationarity of |J v| in the direction being
checked: for a unit vector v at angle a and w its rotation by pi/2, the
extremal direction of |J v| lies at a + beta with

    tan(2 beta) = 2 Jv.Jw / (|Jv|^2 - |Jw|^2),

so |beta| is the angle between v and the true most contracted (or most
expanded) direction.  The program's own PASS/FAIL lines are outputs, not
evidence: ``cones`` and ``verify`` exit 1 on valid inputs, and those exits
are counted as verdicts (``verdict_fail``), never as failures.
"""

from __future__ import annotations

import functools
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hypermap.oracle import svd2, sweep_min_direction
from hypermap.stdmap import MapParams, TorusPoint, angle_dist_mod_pi, jacobian, orbit_jacobian

from workloads import SCAN_FIXTURE, Job

TWO_PI = 2.0 * math.pi

#: Printed angles against svd2, and oracle against oracle.
SVD2_TOL = 1e-12
#: sweep_min_direction refines to ~1e-13; 2e-12 leaves a margin over the
#: largest disagreement with svd2 seen on 400 random Jacobians (8.1e-13).
SWEEP_TOL = 2e-12
#: The tangency residual contract of the program.
RESIDUAL_TOL = 1e-8
#: SVG coordinates carry 6 decimals.
SVG_ROUND = 5e-7


@dataclass
class Verdict:
    """What the gate found in one job's output."""

    problems: list[str] = field(default_factory=list)
    csv_rows: int = 0
    verdict_fail: int = 0
    output_bytes: int = 0

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def jac_entries(coord, k: float, time: str):
    """Entries (a, b, c, d) of the map derivative: forward at y, backward at ytilde.

    Written out from f_k(x, y) = (x + k sin 2 pi y, x + y + k sin 2 pi y).
    """
    p = TWO_PI * k * np.cos(TWO_PI * np.asarray(coord, dtype=float))
    one = np.ones_like(p)
    if time == "forward":
        return one, p, one, 1.0 + p
    return 1.0 + p, -p, -one, one


def extremal_offset(a, b, c, d, alpha, extreme: str = "min"):
    """|beta|: angle from direction alpha to the extremal direction of |J v|."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    vx, vy = a * ca + b * sa, c * ca + d * sa
    wx, wy = -a * sa + b * ca, -c * sa + d * ca
    big_a, big_b, big_c = vx * vx + vy * vy, vx * wx + vy * wy, wx * wx + wy * wy
    if extreme == "min":
        return np.abs(0.5 * np.arctan2(-2.0 * big_b, big_c - big_a))
    return np.abs(0.5 * np.arctan2(2.0 * big_b, big_a - big_c))


def min_direction(a, b, c, d):
    """Angle in [0, pi) of the most contracted direction, from J^T J."""
    phi_max = 0.5 * np.arctan2(2.0 * (a * b + c * d), a * a + c * c - b * b - d * d)
    return np.mod(phi_max + 0.5 * math.pi, math.pi)


def angle_dist(a, b):
    d = np.mod(np.asarray(a) - np.asarray(b), math.pi)
    return np.minimum(d, math.pi - d)


@functools.lru_cache(maxsize=64)
def _params(k: float) -> MapParams:
    return MapParams(k)


def oracle_theta(coord: float, k: float, time: str) -> float:
    """svd2's most contracted angle of the forward (y) or backward (ytilde) derivative."""
    s = svd2(jacobian(TorusPoint(0.0, coord), _params(k), time))  # y = ytilde at x = 0
    return s.dir_min.theta


def oracle_residual(ytilde: float, y: float, k: float) -> float:
    return angle_dist_mod_pi(oracle_theta(y, k, "forward"), oracle_theta(ytilde, k, "backward"))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _csv_numeric(text: str, columns: str, v: Verdict) -> np.ndarray:
    lines = text.split("\n", 2)
    v.require(lines[0].startswith("# hypermap "), "csv header comment missing")
    v.require(len(lines) > 1 and lines[1] == columns, f"csv columns differ from {columns!r}")
    body = lines[2] if len(lines) > 2 else ""
    ncols = columns.count(",") + 1
    data = np.fromstring(body.replace("\n", ","), sep=",") if body.strip() else np.empty(0)
    rows = body.count("\n")
    v.require(data.size == rows * ncols, "csv cells are not all numeric")
    v.csv_rows += rows
    return data[: rows * ncols].reshape(rows, ncols)


def _svg(text: str, v: Verdict) -> ET.Element:
    root = ET.fromstring(text)
    v.require(root.tag.endswith("svg") and root.get("viewBox") == "0 0 1 1", "svg root or viewBox")
    return root


def _polylines(root: ET.Element) -> list[tuple[str, np.ndarray]]:
    """(stroke, (n, 2) points in torus coordinates, y up) per polyline."""
    out = []
    for el in root.iter():
        if el.tag.endswith("polyline"):
            pts = np.array([[float(s) for s in p.split(",")] for p in el.get("points", "").split()])
            pts = pts.reshape(-1, 2)
            pts[:, 1] = 1.0 - pts[:, 1]
            out.append((el.get("stroke", ""), pts))
    return out


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def _check_constants(job: Job, rc: int, out: str, v: Verdict) -> None:
    v.require(rc == 0, f"exit {rc}")
    k = float(_flag(job.argv, "--k"))
    lines = out.splitlines()
    v.require(lines[1] == "name,value,defined", "constants columns")
    rows = {}
    for line in lines[2:]:
        name, value, defined = line.split(",")
        rows[name] = None if value == "" else float(value)
        v.require(defined == str(value != "").lower(), f"{name}: defined flag")
    v.csv_rows += len(lines) - 2
    # Forward most contracted angle at each constant (theta) or 2 theta target.
    sqrt3 = math.sqrt(3.0)
    theta_targets = {"delta_minus": 0.75 * math.pi, "delta_star": 0.5 * math.pi,
                     "delta_plus": 0.25 * math.pi}
    two_theta_targets = {
        "delta_hat_T_minus": math.atan(-sqrt3 / 2.0),
        "delta_hat_T_plus": math.atan(sqrt3 / 2.0),
        # phi(delta_T^-+) = phitilde(0) resp. phitilde(1/2): same 2 theta as the backward field.
        "delta_T_minus": 2.0 * oracle_theta(0.0, k, "backward"),
        "delta_T_plus": 2.0 * oracle_theta(0.5, k, "backward"),
    }
    for name in list(theta_targets) + list(two_theta_targets):
        v.require(name in rows, f"constant {name} missing")
    defined = [rows[n] for n in ("delta_minus", "delta_star", "delta_hat_T_minus",
                                 "delta_T_minus", "delta_plus", "delta_T_plus",
                                 "delta_hat_T_plus") if rows.get(n) is not None]
    v.require(all(0.0 < a < b < 0.5 for a, b in zip(defined, defined[1:])), "constants order")
    for name, want in theta_targets.items():
        if rows.get(name) is not None:
            err = angle_dist_mod_pi(oracle_theta(rows[name], k, "forward"), want)
            v.require(err < 1e-9, f"{name}: forward angle off by {err:.3g}")
    for name, want in two_theta_targets.items():
        if rows.get(name) is not None:
            got = 2.0 * oracle_theta(rows[name], k, "forward")
            err = angle_dist_mod_pi(got, want)
            v.require(err < 1e-8, f"{name}: 2 theta off by {err:.3g}")
    m = _flag(job.argv, "--m")
    if m is not None:
        for name, sign in ((f"delta_({m})", 1.0), (f"delta_(-{m})", -1.0)):
            psi = jacobian(TorusPoint(0.0, rows[name]), _params(k)).a12
            v.require(abs(psi - sign * 2.0 * int(m)) < 1e-8 * (1.0 + int(m)), f"{name}: psi {psi}")


def _check_field(job: Job, rc: int, out: str, v: Verdict, rng: np.random.Generator) -> None:
    v.require(rc == 0, f"exit {rc}")
    k = float(_flag(job.argv, "--k"))
    grid = int(_flag(job.argv, "--grid"))
    time = _flag(job.argv, "--time")
    data = _csv_numeric(out, "coord,phi,theta,e_x,e_y", v)
    if len(data) != grid:
        v.problems.append(f"{len(data)} rows for grid {grid}")
        return
    coord, phi, theta, ex, ey = data.T
    v.require(np.array_equal(coord, np.arange(grid) / grid), "coord column is not j/grid")
    v.require(bool(np.all((theta >= 0.0) & (theta < math.pi))), "theta outside [0, pi)")
    v.require(float(np.max(np.abs(ex - np.cos(theta)) + np.abs(ey - np.sin(theta)))) < 1e-15,
              "(e_x, e_y) is not (cos theta, sin theta)")
    off = extremal_offset(*jac_entries(coord, k, time), theta, "min")
    worst = float(off.max())
    v.require(worst < SVD2_TOL, f"theta off the most contracted direction by {worst:.3g}")
    finite = np.abs(phi) < 1e6
    rel = np.abs(np.tan(2.0 * theta[finite]) - phi[finite]) / np.maximum(1.0, np.abs(phi[finite]))
    v.require(rel.size == 0 or float(rel.max()) < 1e-8, "phi is not tan(2 theta)")
    for j in rng.choice(grid, 16, replace=False):
        err = angle_dist_mod_pi(oracle_theta(coord[j], k, time), theta[j])
        v.require(err < SVD2_TOL, f"row {j}: svd2 disagrees by {err:.3g}")
    for j in rng.choice(grid, 2, replace=False):
        m = jacobian(TorusPoint(0.0, coord[j]), _params(k), time)
        err = angle_dist_mod_pi(sweep_min_direction(m).angle.theta, theta[j])
        v.require(err < SWEEP_TOL, f"row {j}: sweep_min_direction disagrees by {err:.3g}")


def _unsplit(segments: list[np.ndarray]) -> np.ndarray:
    """Rejoin seam-split segments into one lifted polyline of the traced vertices.

    Consecutive segments meet at a seam point that is not a traced vertex;
    dropping both copies restores each chord that crossed the seam.
    """
    parts = []
    for i, seg in enumerate(segments):
        lo = 1 if i > 0 else 0
        hi = len(seg) - 1 if i < len(segments) - 1 else len(seg)
        parts.append(seg[lo:hi])
    pts = np.concatenate(parts)
    steps = np.diff(pts, axis=0)
    steps -= np.round(steps)
    return np.concatenate([pts[:1], pts[0] + np.cumsum(steps, axis=0)])


def _field_jacobian(field_id: str, pts: np.ndarray, k: float):
    """Entries of the derivative that defines the field at each point."""
    if field_id in ("E1", "F1"):
        return jac_entries(pts[:, 1], k, "forward")
    return jac_entries(pts[:, 1] - pts[:, 0], k, "backward")


def _chord_excess(field_id: str, pts: np.ndarray, k: float, rounding: float) -> tuple[float, float]:
    """(largest excess of a chord's angle to the field over its tolerance, total length).

    A chord's direction is the mean tangent of the leaf along it, so it lies
    within the field's turn between the chord midpoint and either end (taken
    twice for margin), plus what rounding of the coordinates allows.
    """
    d = np.diff(pts, axis=0)
    mid = 0.5 * (pts[1:] + pts[:-1])
    length = np.hypot(d[:, 0], d[:, 1])
    keep = length > 0.0  # rounding can merge two vertices
    d, mid, length = d[keep], mid[keep], length[keep]
    alpha = np.arctan2(d[:, 1], d[:, 0])
    ents = _field_jacobian(field_id, mid, k)
    off = extremal_offset(*ents, alpha, "min" if field_id[0] == "E" else "max")
    ends, middle = min_direction(*_field_jacobian(field_id, pts, k)), min_direction(*ents)
    turn = np.maximum(angle_dist(ends[:-1][keep], middle), angle_dist(ends[1:][keep], middle))
    # Rounding turns a chord by up to 2 sqrt(2) rounding / length and moves
    # its midpoint, where the field turns by at most (2 pi)^2 (k + 1) per unit.
    tol = 1e-9 + 2.0 * turn + 4.0 * rounding * (1.0 / length + 2.0 * TWO_PI ** 2 * (k + 1.0))
    excess = off - tol
    return float(excess.max(initial=-1.0)), float(length.sum())


def _check_leaf(job: Job, rc: int, out: str, v: Verdict) -> None:
    v.require(rc == 0, f"exit {rc}")
    k = float(_flag(job.argv, "--k"))
    field_id = _flag(job.argv, "--field")
    arc = float(_flag(job.argv, "--max-arc"))
    start = np.array([float(_flag(job.argv, "--x")), float(_flag(job.argv, "--y"))]) % 1.0
    if _flag(job.argv, "--format") == "svg":
        segments = [pts for _, pts in _polylines(_svg(out, v))]
        rounding = SVG_ROUND
    else:
        data = _csv_numeric(out, "seg_id,x,y", v)
        seg = data[:, 0]
        steps = np.diff(seg)
        v.require(seg[0] == 0 and bool(np.all((steps == 0) | (steps == 1))), "segment ids")
        segments = np.split(data[:, 1:], np.flatnonzero(steps) + 1)
        rounding = 1e-16
    v.require(len(segments) > 0, "no vertices")
    for pts in segments:
        v.require(bool(np.all((pts > -1e-15) & (pts < 1.0 + 1e-15))), "vertex outside the unit square")
    chain = _unsplit(segments)
    v.require(bool(np.all(np.abs(chain[0] - start) <= 2.0 * rounding + 1e-15)),
              "first vertex is not the start point")
    # A closed leaf ends on its start point after a closing step shorter than
    # half a step; that step is not a chord of the field.
    gap = (chain[-1] - start + 0.5) % 1.0 - 0.5
    closed = len(chain) > 2 and bool(np.all(np.abs(gap) <= 2.0 * rounding + 1e-12))
    worst, total = _chord_excess(field_id, chain[:-1] if closed else chain, k, rounding)
    v.require(worst <= 0.0, f"chord off the field by {worst:.3g} beyond its tolerance")
    slack = 1e-5 * arc + 4.0 * rounding * len(chain)
    v.require(total <= arc + slack and (closed or total >= arc - slack),
              f"chord length {total!r} for arc {arc}")


def _check_tangency(job: Job, rc: int, out: str, v: Verdict) -> None:
    v.require(rc == 0, f"exit {rc}")
    k = float(_flag(job.argv, "--k"))
    grid = int(_flag(job.argv, "--grid"))
    if _flag(job.argv, "--format") == "svg":
        root = _svg(out, v)
        pts = np.concatenate([p for _, p in _polylines(root)])
        v.require(len(pts) >= 2 * grid - 8, f"{len(pts)} curve points for grid {grid}")
        y, ytilde = pts[:, 1], pts[:, 1] - pts[:, 0]
        res = angle_dist(min_direction(*jac_entries(y, k, "forward")),
                         min_direction(*jac_entries(ytilde, k, "backward")))
        # Rounding moves y and ytilde by up to 1e-6; both fields turn by at
        # most (2 pi)^2 k per unit of their coordinate.
        bound = 2e-6 * 4.0 * math.pi ** 2 * (k + 1.0)
        v.require(float(res.max()) < bound, f"svg tangency residual {float(res.max()):.3g}")
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        v.require(len(circles) == 8, f"{len(circles)} landmarks")
        return
    lines = out.splitlines()
    v.require(lines[1] == "kind,name,ytilde,y,x,branch,residual", "tangency columns")
    rows = [line.split(",") for line in lines[2:]]
    v.csv_rows += len(rows)
    curve = [r for r in rows if r[0] == "curve"]
    marks = [r for r in rows if r[0] == "landmark"]
    v.require(len(curve) == 2 * grid and len(marks) == 8, f"{len(curve)} curve rows, {len(marks)} landmarks")
    worst = worst_print = 0.0
    for i, (kind, name, yt, y, x, branch, res) in enumerate(rows):
        yt, y, x, res = float(yt), float(y), float(x), float(res)
        if kind == "curve":
            v.require(yt == (i % grid) / grid, f"row {i}: ytilde is not on the grid")
            v.require(branch == ("lower" if i < grid else "upper"), f"row {i}: branch")
        v.require((y < 0.5) == (branch == "lower"), f"row {i}: {branch} branch at y = {y}")
        v.require(abs(x - (y - yt) % 1.0) < 1e-15, f"row {i}: x is not (y - ytilde) mod 1")
        r = oracle_residual(yt, y, k)
        worst = max(worst, r)
        worst_print = max(worst_print, abs(r - res))
    v.require(worst < RESIDUAL_TOL, f"svd2 residual {worst:.3g}")
    v.require(worst_print < RESIDUAL_TOL, f"printed residual off by {worst_print:.3g}")
    yts = [float(r[2]) for r in marks]
    v.require(yts[0] == 0.0 and yts[4] == 0.5 and yts == sorted(yts), "landmark ytilde order")


def _cone_lines(out: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in out.splitlines()[1:]:
        key, _, value = line.partition(" ")
        if key != "failure":
            fields[key] = value
    return fields


def _check_cones(job: Job, rc: int, out: str, v: Verdict) -> None:
    k = float(_flag(job.argv, "--k"))
    m = int(_flag(job.argv, "--m"))
    inside = "--inside-strip" in job.argv
    f = _cone_lines(out)
    failures = int(f["failures"])
    slope_f, norm_f = int(f["slope_failures"]), int(f["norm_failures"])
    v.require(float(f["k"]) == k and int(f["m"]) == m, "k or m not echoed")
    v.require(int(f["samples"]) == int(_flag(job.argv, "--samples")), "sample count")
    v.require(max(slope_f, norm_f) <= failures <= slope_f + norm_f, "failure breakdown")
    v.require(rc == (1 if failures else 0), f"exit {rc} with {failures} failures")
    v.verdict_fail += rc == 1
    records = [line for line in out.splitlines() if line.startswith("failure ")]
    v.require(len(records) == min(failures, 1000), f"{len(records)} failure records")
    params = _params(k)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    for line in records:
        y = float(line.split("y=")[1].split()[0])
        theta = float(line.split("theta=")[1])
        jm = jacobian(TorusPoint(0.0, y), params)
        ix, iy = jm.apply(math.cos(theta), math.sin(theta))
        bad = not (1.0 - 1.0 / m < iy / ix < 1.0 + 1.0 / m) or math.hypot(ix, iy) < m
        v.require(bad, f"recorded failure y={y} theta={theta} is not one")
        v.require(lo <= theta <= hi, f"theta {theta} outside the cone")
        v.require((abs(jm.a12) <= 2.0 * m * (1 + 1e-12)) == inside
                  or abs(abs(jm.a12) - 2.0 * m) < 1e-9, f"y = {y} on the wrong side of the strip")
    if inside:
        v.require(failures > 0, "negative control passed")
    else:
        v.require(slope_f == 0, f"{slope_f} slope failures outside the strip")
        slope_min, slope_max = float(f["slope_min"]), float(f["slope_max"])
        v.require(1.0 - 1.0 / m < slope_min <= slope_max < 1.0 + 1.0 / m, "image slope range")
        v.require(float(f["min_norm"]) >= 1.0 - 1e-12, f"min_norm {f['min_norm']} below 1")


_VERIFY_CHECKS = ("round_trip", "unimodular", "E1_F1_product", "theta_vs_svd",
                  "tan2theta_eq_phi", "constants_ordering", "exact_mapping_facts")


def _check_verify(job: Job, rc: int, out: str, v: Verdict) -> None:
    lines = out.splitlines()
    body = lines[1:-1]
    fails = [line for line in body if line.startswith("FAIL ")]
    v.verdict_fail += len(fails)
    v.require(lines[-1] == "result " + ("FAIL" if fails else "PASS"), "result line")
    v.require(rc == (1 if fails else 0), f"exit {rc} with {len(fails)} FAIL lines")
    v.require(all(line.startswith(("ok   k=", "FAIL k=")) for line in body), "line format")
    for ks in _flag(job.argv, "--k-list").split(","):
        k = float(ks)
        names = {line.split()[2] for line in body if line.split()[1] == f"k={k:g}"}
        want = set(_VERIFY_CHECKS) | ({"cone_slope_invariance"} if k > 2 else set())
        if all(_params(k).defined.values()):
            want |= {"tangency_residual", "phi_inverse_residual"}
        v.require(names == want, f"k={k:g}: checks {sorted(names)}")


def _check_figures(job: Job, rc: int, out: str, files: dict[str, str], v: Verdict) -> None:
    v.require(rc == 0, f"exit {rc}")
    k = float(_flag(job.argv, "--k"))
    want = {f"{kind}_{time}.svg" for kind in ("foliation", "theta", "phi")
            for time in ("forward", "backward")} | {"tangency_plane.svg", "tangency_torus.svg"}
    v.require(set(files) == want, f"figure files {sorted(files)}")
    v.require(len(out.splitlines()) == len(files), "printed paths")
    roots = {name: _svg(text, v) for name, text in files.items()}
    for time in ("forward", "backward"):
        pts = np.concatenate([p for _, p in _polylines(roots[f"theta_{time}.svg"])])
        theta = min_direction(*jac_entries(pts[:, 0], k, time))
        err = np.abs(np.mod(theta / math.pi - pts[:, 1] + 0.5, 1.0) - 0.5)
        bound = SVG_ROUND + 2.0 * SVG_ROUND * 4.0 * math.pi * (k + 1.0)
        v.require(float(err.max()) < bound, f"theta_{time}.svg off by {float(err.max()):.3g}")
        v.require(len(_polylines(roots[f"foliation_{time}.svg"])) > 10, f"foliation_{time}.svg")
    pts = np.concatenate([p for _, p in _polylines(roots["tangency_plane.svg"])])
    res = angle_dist(min_direction(*jac_entries(pts[:, 1], k, "forward")),
                     min_direction(*jac_entries(pts[:, 0], k, "backward")))
    bound = 2e-6 * 4.0 * math.pi ** 2 * (k + 1.0)
    v.require(float(res.max()) < bound, f"tangency_plane.svg residual {float(res.max()):.3g}")


# ---------------------------------------------------------------------------
# Library results
# ---------------------------------------------------------------------------


def _check_scan(job: Job, rep, v: Verdict, rng: np.random.Generator) -> None:
    k, grid = job.args
    v.require(rep.k == k and rep.grid == grid, "scan echo")
    v.require(rep.min_angle > 0.0, "scan minimum is not positive")
    again = oracle_residual(rep.at_ytilde, rep.at_y, k)
    err = abs(again - rep.min_angle)
    v.require(err < SVD2_TOL, f"scan minimum off svd2 by {err:.3g}")
    # The minimum is a minimum: no sampled cell of the scan's mesh beats it.
    # The mesh: y_j = delta^- j / (grid/2 - 1) and their mirrors 1 - y_j, x_i = i / grid,
    # with delta^- = acos((sqrt 3 - 1) / (4 pi k)) / (2 pi).
    delta_minus = math.acos((math.sqrt(3.0) - 1.0) / (4.0 * math.pi * k)) / TWO_PI
    half = grid // 2
    for _ in range(32):
        y = delta_minus * int(rng.integers(half)) / (half - 1)
        y = y if rng.random() < 0.5 else 1.0 - y
        yt = (y - int(rng.integers(grid)) / grid) % 1.0
        v.require(oracle_residual(yt, y, k) >= rep.min_angle - SVD2_TOL, "scan missed a smaller angle")
    if grid == 256 and k in SCAN_FIXTURE:
        v.require(abs(rep.min_angle - SCAN_FIXTURE[k]) < 1e-6, f"scan fixture at k={k:g}")


def _check_landmarks(job: Job, result, v: Verdict) -> None:
    for k, marks in zip(job.args, result):
        v.require(len(marks) == 8 and all(tp is not None for tp in marks), f"k={k}: landmarks")
        yts = [tp.ytilde for tp in marks]
        v.require(yts[0] == 0.0 and yts[4] == 0.5 and yts == sorted(yts), f"k={k}: ytilde order")
        for tp in marks:
            v.require(tp.y < 0.5, f"k={k}: landmark off the lower branch")
            r = oracle_residual(tp.ytilde, tp.y, k)
            v.require(r < RESIDUAL_TOL and abs(r - tp.residual) < RESIDUAL_TOL,
                      f"k={k}: landmark residual {r:.3g}")


def _check_orbits(job: Job, result, v: Verdict) -> None:
    for (k, x, y, theta, n), rep in zip(job.args, result):
        params = _params(k)
        p = TorusPoint(x, y)
        vx, vy = math.cos(theta), math.sin(theta)
        entered = None
        factors = []
        for i in range(n):
            jm = jacobian(p, params)
            if abs(jm.a12) <= 4.0:  # |psi_c| <= 2m with m = 2: inside Delta^(2)
                entered = i
                break
            wx, wy = jm.apply(vx, vy)
            g = math.hypot(wx, wy)
            factors.append(g)
            vx, vy = wx / g, wy / g
            p = TorusPoint(p.x + k * math.sin(TWO_PI * p.y), p.x + p.y + k * math.sin(TWO_PI * p.y))
        v.require(rep.entered_strip_at == entered and len(rep.factors) == len(factors),
                  f"orbit k={k}: entered {rep.entered_strip_at} vs {entered}")
        err = max((abs(a - b) / b for a, b in zip(rep.factors, factors)), default=0.0)
        v.require(err < 1e-9, f"orbit k={k}: growth factors off by {err:.3g}")


def _check_frames(job: Job, result, v: Verdict, rng: np.random.Generator) -> None:
    sweep_at = set(rng.choice(len(job.args), 2, replace=False).tolist())
    for i, ((k, x, y, n), fr) in enumerate(zip(job.args, result)):
        m = orbit_jacobian(TorusPoint(x, y), _params(k), n)
        u, s, vh = np.linalg.svd(np.array(m.entries()).reshape(2, 2))
        e_np = math.atan2(vh[1, 1], vh[1, 0]) % math.pi
        v.require(abs(fr.F - s[0]) <= 1e-12 * s[0], f"frame {i}: F")
        # Both SVDs lose up to a few ulps of sigma_max in sigma_min.
        v.require(abs(fr.E - s[1]) <= 1e-14 * s[0], f"frame {i}: E = {fr.E!r}, LAPACK {s[1]!r}")
        v.require(fr.H == fr.E / fr.F, f"frame {i}: H is not E / F")
        v.require(angle_dist_mod_pi(e_np, fr.e_dir.theta) < 1e-9, f"frame {i}: e_dir vs LAPACK")
        v.require(abs(angle_dist_mod_pi(fr.e_dir.theta, fr.f_dir.theta) - 0.5 * math.pi) < 1e-12,
                  f"frame {i}: e_dir not orthogonal to f_dir")
        if i in sweep_at:
            err = angle_dist_mod_pi(sweep_min_direction(m).angle.theta, fr.e_dir.theta)
            v.require(err < SWEEP_TOL, f"frame {i}: sweep_min_direction disagrees by {err:.3g}")


# ---------------------------------------------------------------------------


def check(job: Job, rc: int | None, out: str, files: dict[str, str], result: object) -> Verdict:
    """Gate one job's output.  A parse error is reported as a problem."""
    v = Verdict(output_bytes=len(out.encode()) + sum(len(t.encode()) for t in files.values()))
    rng = np.random.default_rng([job.index, 7])
    checks: dict[str, Callable[[], None]] = {
        "constants": lambda: _check_constants(job, rc, out, v),
        "field": lambda: _check_field(job, rc, out, v, rng),
        "leaf": lambda: _check_leaf(job, rc, out, v),
        "tangency": lambda: _check_tangency(job, rc, out, v),
        "cones": lambda: _check_cones(job, rc, out, v),
        "verify": lambda: _check_verify(job, rc, out, v),
        "figures": lambda: _check_figures(job, rc, out, files, v),
        "no_tangency_scan": lambda: _check_scan(job, result, v, rng),
        "tangency_landmarks": lambda: _check_landmarks(job, result, v),
        "orbit_expansion": lambda: _check_orbits(job, result, v),
        "hyperbolic_frame": lambda: _check_frames(job, result, v, rng),
    }
    try:
        checks[job.kind]()
    except (ValueError, IndexError, KeyError, TypeError, AttributeError, ET.ParseError) as exc:
        v.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return v
