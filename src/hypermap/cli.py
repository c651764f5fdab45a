"""Command-line front end: CSV tables and SVG figures.

Subcommands: constants | field | leaf | tangency | cones | verify | figures.
Every CSV starts with a comment line echoing the tool version and all
effective parameters, so identical invocations produce byte-identical
output (there are no timestamps).  Exit codes: 0 on success, 1 when a
check command found failures, 2 on argument errors, 141 when the reader
closed standard output early.  Exit 2 after parsing comes only from a
``ParameterError``, raised where the library checks the parameter and
reported under the flag that set it; any other exception propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__, svgrender
from .coordinates import (backward_angle, critical_constants, forward_angle, mod_pi, phi, phi_inverse_branch,
                          phi_prime, phi_tilde)
from .foliations import LEAF_FIELDS, MAX_VERTICES, Leaf, _split, closed_leaves, trace_leaf
from .hyperbolicity import delta_strip, push_vector, verify_cones
from .oracle import svd2_entries
from .stdmap import (TWO_PI, MapParams, ParameterError, TorusPoint, angle_dist_mod_pi, canonical_angle,
                     jacobian_entries, map_step, mod1, psi)
from .tangency import TangencySelectionError, tangency_curve, tangency_landmarks, torus_x

# Unused here: perfbench/tracing.py wraps these by name in this module, as it
# does push_vector and angle_dist_mod_pi, which the verify battery calls on arrays.
from .coordinates import phi_inverse, theta_field
from .oracle import svd2
from .stdmap import jacobian, map_forward, map_inverse

#: Options that several subcommands take, as (type, default, help).  Each
#: subcommand registers only those it reads; the header echoes the default
#: of the others, except verify's, which echoes only its --k-list.
_OPTIONS = {
    "--k": (float, 1.0, "family parameter k > 0"),
    "--grid": (int, 1024, None),
    "--samples": (int, 100_000, None),
    "--step": (float, 1e-3, "largest spacing of leaf vertices"),
    "--max-arc": (float, 10.0, "arc length of the leaf"),
    "--seed": (int, 42, None),
}

#: Largest --grid of field and figures.  On a 2-vCPU x86-64 machine 2^22 rows
#: of field CSV took 4-6 s at 1.0-1.3 GB of peak memory, the figures 4.3 s at 0.7 GB.
MAX_GRID = 1 << 22

#: Arc lengths of the E and F leaves in the foliation figures.
_FIGURE_ARCS = (2.5, 6.0)

#: The flag of each ParameterError name that is not ``--`` + the name with
#: ``_`` written ``-``, by subcommand.
_FLAGS = {
    ("tangency", "n_samples"): "--grid",
    ("figures", "n_samples"): "--grid",
    ("cones", "n_samples"): "--samples",
    ("verify", "k"): "--k-list entry",
}


def _header(args: argparse.Namespace) -> str:
    params = [f"k_list={args.k_list}"] if args.subcommand == "verify" else [  # all that verify reads
        f"k={args.k:.17g}", f"m={args.m if args.m is not None else '-'}", f"grid={args.grid}",
        f"samples={args.samples}", f"step={args.step:.17g}", f"max_arc={args.max_arc:.17g}", f"seed={args.seed}"]
    return " ".join(["# hypermap", __version__, f"subcommand={args.subcommand}", *params, f"format={args.format}"])


#: Rows of a CSV table written per ``numfmt.table`` call: large enough that
#: the call's fixed cost is small, small enough that its work arrays stay
#: within a few hundred kB, which the allocator reuses from block to block
#: instead of mapping fresh pages.
_CSV_BLOCK = 1 << 11


def _g(v: float) -> str:
    return f"{v:.17g}"


@contextlib.contextmanager
def _writing(out: str) -> Iterator[None]:
    """An OSError from making or writing the --out path out, as ParameterError("out", ...): exit 2.
    Standard output is written outside it, so that a closed pipe still reaches ``main`` (exit 141)."""
    try:
        yield
    except OSError as exc:
        raise ParameterError("out", f"{out}: {exc.strerror}") from None


def _emit(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out not in (None, "-"):
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    out = sys.stdout
    if not hasattr(out, "buffer"):  # a text stream such as io.StringIO
        out.write(text)
        return
    # Unbuffered (PYTHONUNBUFFERED), the text layer writes to the raw file
    # and drops what a short write leaves over, so a reader that closes the
    # pipe would cut the output short without an error.  Resending the rest
    # makes that close fail with EPIPE.
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[out.buffer.write(data) :]


def _csv(args: argparse.Namespace, names: Sequence[str], columns: Sequence[Sequence[object]]) -> str:
    """CSV text of a table given as whole, equally long columns.

    ``numfmt.table`` writes a float ndarray column as ``%.17g`` exactly and
    a bytes ndarray column as it is; any other column is made bytes cell
    by cell first, floats with ``_g`` and everything else with ``str``.
    An integer column that repeats few values, such as a leaf's segment
    numbers, is cheapest passed as bytes made from its distinct values.
    Each row ends its cells with a ``,`` but the last with a newline, and
    the rows go through ``numfmt.table`` in blocks of ``_CSV_BLOCK``.
    """
    from . import numfmt  # only CSV tables need the kernel; other subcommands skip its set-up

    cells = []
    for col in columns:
        if not (isinstance(col, np.ndarray) and col.dtype.kind in ("f", "S")):
            col = np.array([_g(v) if isinstance(v, float) else str(v) for v in col], dtype="S")
        cells.append(col)
    ends = b"," * (len(cells) - 1) + b"\n"
    blocks = [numfmt.table([col[start : start + _CSV_BLOCK] for col in cells], ends)
              for start in range(0, len(cells[0]), _CSV_BLOCK)]
    return "".join([f"{_header(args)}\n{','.join(names)}\n", *blocks])


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="hypermap", description=__doc__)
    top.add_argument("--version", action="version", version=f"hypermap {__version__}")
    # What the header echoes where the subcommand does not take the flag.
    top.set_defaults(m=None, k_list=None, **{flag[2:].replace("-", "_"): default
                                             for flag, (_, default, _) in _OPTIONS.items()})
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name: str, command: Callable[[argparse.Namespace, Optional[MapParams]], int], summary: str,
            options: Sequence[str], formats: Sequence[str] = ("csv",),
            out: Optional[str] = None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(command=command)
        # A flag value such as -2.5e-3 or -inf is read as --flag=-2.5e-3 is: argparse's own
        # pattern for a negative number, not a flag, knows only -1 and -.5.  No flag here starts so.
        p._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)
        for flag in options:
            kind, default, text = _OPTIONS[flag]
            p.add_argument(flag, type=kind, default=default, help=text)
        p.add_argument("--out", default=out, help=f"output path (default: {out or 'stdout'})")
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, default=formats[0])
        else:
            p.set_defaults(format=formats[0])  # the one format written, echoed in the header
        return p

    p = add("constants", _cmd_constants, "strip constants as CSV", ["--k"])
    p.add_argument("--m", type=int, default=None, help="also emit delta^(+-m)")

    p = add("field", _cmd_field, "grid dump of a direction field", ["--k", "--grid"])
    p.add_argument("--time", choices=["forward", "backward"], default="forward")

    p = add("leaf", _cmd_leaf, "trace one foliation leaf", ["--k", "--step", "--max-arc"],
            formats=("csv", "svg"))
    p.add_argument("--field", choices=list(LEAF_FIELDS), default="E1")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.6)

    add("tangency", _cmd_tangency, "tangency curve, landmarks and residuals", ["--k", "--grid"],
        formats=("csv", "svg"))

    p = add("cones", _cmd_cones, "cone invariance sweep; exit 0 iff zero failures",
            ["--k", "--samples", "--seed"], formats=("txt", "csv"))
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--inside-strip", action="store_true", help="negative control")

    p = add("verify", _cmd_verify, "invariant battery over a k-list", [], formats=("txt",))
    p.add_argument("--k-list", default="1,2,5,10", help="comma-separated k values")

    add("figures", _cmd_figures, "regenerate the SVG figure set", ["--k", "--grid", "--step"],
        formats=("svg",), out="figures")
    return top


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(args: argparse.Namespace, params: MapParams) -> int:
    c = critical_constants(params)
    rows: list[tuple[str, object, str]] = []
    for name, value in c.as_dict().items():
        rows.append((name, "" if value is None else value, str(value is not None).lower()))
    if args.m is not None:
        strip = delta_strip(args.m, params)
        rows.append((f"delta_({args.m})", strip.delta_m, "true"))
        rows.append((f"delta_(-{args.m})", strip.delta_neg_m, "true"))
    _emit(args, _csv(args, ["name", "value", "defined"], list(zip(*rows))))
    return 0


def _field_columns(coord: np.ndarray, params: MapParams, time: str) -> tuple[np.ndarray, np.ndarray]:
    """phi (phitilde backward) and the contracted angle in [0, pi) at each coordinate."""
    if time == "forward":
        return phi(coord, params), mod_pi(forward_angle(coord, params))
    return phi_tilde(coord, params), mod_pi(backward_angle(coord, params))


def _check_grid(grid: int) -> None:
    """The --grid of field and figures: 1 to ``MAX_GRID``."""
    if grid < 1:
        raise ParameterError("grid", f"must be >= 1, got {grid}")
    if grid > MAX_GRID:
        raise ParameterError("grid", f"must be at most {MAX_GRID}, got {grid}")


def _cmd_field(args: argparse.Namespace, params: MapParams) -> int:
    _check_grid(args.grid)
    coord = np.arange(args.grid) / args.grid
    ratio, theta = _field_columns(coord, params, args.time)
    columns = [coord, ratio, theta, np.cos(theta), np.sin(theta)]
    _emit(args, _csv(args, ["coord", "phi", "theta", "e_x", "e_y"], columns))
    return 0


def _strip_elements(params: MapParams) -> list[str]:
    c = critical_constants(params)
    if c.delta_minus is None or c.delta_plus is None:
        return []
    return [
        svgrender.hband(c.delta_minus, c.delta_plus, "#d0d0f8"),
        svgrender.hband(1.0 - c.delta_plus, 1.0 - c.delta_minus, "#d0d0f8"),
    ]


#: Stroke colours of the lower and the upper tangency curve.
_BRANCH_COLORS = ("#c03030", "#3030c0")


def _torus_curves(params: MapParams, ytilde: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> list[str]:
    """Strip shading and both tangency curves, heights y over ytilde, on the torus cut at the x seam."""
    elements = _strip_elements(params)
    for y, color in zip((lower, upper), _BRANCH_COLORS):
        pieces = svgrender.split_at_jumps(np.column_stack([torus_x(ytilde, y), y]), axis=0)
        elements += [svgrender.polyline(piece, color) for piece in pieces]
    return elements


def _leaf_elements(leaves: Iterable[Leaf], color: str, width: float = 0.002) -> list[str]:
    out = []
    for leaf in leaves:
        for seg in leaf.segments():
            if len(seg) >= 2:
                out.append(svgrender.polyline(seg, color, width))
    return out


def _cmd_leaf(args: argparse.Namespace, params: MapParams) -> int:
    leaf = trace_leaf(args.field, TorusPoint(args.x, args.y), params, step=args.step, max_arc=args.max_arc)
    if args.format == "svg":
        elements = _strip_elements(params) + _leaf_elements([leaf], "#c03030")
        _emit(args, svgrender.document(elements))
        return 0
    points, starts = _split(leaf.lifted)
    seg_id = np.repeat(np.array([b"%d" % i for i in range(len(starts))]), np.diff(starts, append=len(points)))
    _emit(args, _csv(args, ["seg_id", "x", "y"], [seg_id, points[:, 0], points[:, 1]]))
    return 0


def _cmd_tangency(args: argparse.Namespace, params: MapParams) -> int:
    landmarks = tangency_landmarks(params)
    curve_ytilde, (y_lower, res_lower), (y_upper, res_upper) = tangency_curve(params, args.grid)
    if args.format == "svg":
        elements = _torus_curves(params, curve_ytilde, y_lower, y_upper)
        for tp in landmarks:
            if tp is not None:
                elements.append(svgrender.circle((tp.x, tp.y), 0.006, "#108010"))
        _emit(args, svgrender.document(elements))
        return 0
    marks = [(f"P{i}", tp) for i, tp in enumerate(landmarks, start=1) if tp is not None]
    n, n_marks = len(curve_ytilde), len(marks)
    mark_cols = np.array([(tp.ytilde, tp.y, tp.residual) for _, tp in marks]).reshape(n_marks, 3).T
    ytilde = np.concatenate([curve_ytilde, curve_ytilde, mark_cols[0]])
    y = np.concatenate([y_lower, y_upper, mark_cols[1]])
    residual = np.concatenate([res_lower, res_upper, mark_cols[2]])
    kind = np.repeat(np.array([b"curve", b"landmark"]), [2 * n, n_marks])
    name = np.concatenate([np.zeros(2 * n, dtype="S1"), np.array([name for name, _ in marks], dtype="S")])
    # The landmarks lie on the lower curve.
    branch = np.repeat(np.array([b"lower", b"upper", b"lower"]), [n, n, n_marks])
    columns = [kind, name, ytilde, y, torus_x(ytilde, y), branch, residual]
    _emit(args, _csv(args, ["kind", "name", "ytilde", "y", "x", "branch", "residual"], columns))
    return 0


def _cmd_cones(args: argparse.Namespace, params: MapParams) -> int:
    report = verify_cones(params, args.m, args.samples, args.seed, inside_strip=args.inside_strip)
    if args.format == "csv":
        _emit(args, _csv(args, ["metric", "value"], list(zip(*report.rows()))))
    else:
        _emit(args, _header(args) + "\n" + report.to_text())
    return 0 if report.failures == 0 else 1


def _worst(values: np.ndarray) -> float:
    """max(0.0, *values) as a running max() takes it: a NaN never replaces the maximum."""
    return float(np.fmax.reduce(values, initial=0.0))


@np.errstate(over="ignore", invalid="ignore")  # as float arithmetic, which rounds to inf or NaN silently
def _verify_battery(params: MapParams) -> list[tuple[str, bool, str]]:
    """Fast invariant battery for one k; returns (name, ok, detail) rows, a per-sample loop's from array passes."""
    import random

    k = params.k
    c = critical_constants(params)  # raises before the battery overflows at huge k
    rng = random.Random(1234)
    results: list[tuple[str, bool, str]] = []

    # Three sets of 128 points, each point drawing its x and y in that order,
    # reduced with mod1 as a TorusPoint does, also where a check reads only y.
    points = mod1(np.array([rng.random() for _ in range(768)])).reshape(3, 128, 2)
    x, y = points[0].T
    fx, fy = map_step(x, y, params, True)
    qx, qy = map_step(mod1(fx), mod1(fy), params, False)
    d = np.maximum(abs(mod1(qx) - x) % 1.0, abs(mod1(qy) - y) % 1.0)
    worst = _worst(np.minimum(d, 1.0 - d))
    # Rounding at the scale of k, amplified by up to 2 pi k in the inverse.  A
    # bound of 1/2, the largest torus distance, would pass any round trip.
    bound = 16.0 * math.ulp(1.0) * (1.0 + k) * (1.0 + TWO_PI * k)
    results.append(("round_trip", worst <= bound < 0.5, f"max {worst:.3g}, bound {bound:.3g}"))

    x, y = points[1].T
    worst = 0.0
    for coord, forward in ((y, True), (mod1(y - x), False)):  # y forward, ytilde backward
        a11, a12, a21, a22 = jacobian_entries(psi(coord, params), forward)
        worst = max(worst, _worst(abs(a11 * a22 - a12 * a21 - 1.0)))
    results.append(("unimodular", worst < 1e-12, f"max |det-1| {worst:.3g}"))

    # sigma_min = |h1 - h2|/2 cancels, costing about eps sigma_max^2 per sample.
    # A bound of 1 would pass an E1 that is all rounding noise.
    sigma_max, sigma_min, _, _ = svd2_entries(*jacobian_entries(psi(points[2, :, 1], params), True))
    err = abs(sigma_max * sigma_min - 1.0)
    bound = 16.0 * math.ulp(1.0) * sigma_max * sigma_max
    worst, worst_share, widest = _worst(err), _worst(err / bound), _worst(bound)
    results.append(("E1_F1_product", worst_share <= 1.0 and widest < 1.0,
                    f"max |E1*F1-1| {worst:.3g}, {worst_share:.3g} of 16 eps F1^2"))

    # The points (0, j/256) have y = ytilde = j/256, where mod1 is the identity.
    coord = np.arange(256) / 256
    level = psi(coord, params)
    worst = 0.0
    for forward, angle in ((True, forward_angle), (False, backward_angle)):
        _, _, _, t_min = svd2_entries(*jacobian_entries(level, forward))  # NaN where degenerate
        theta = np.array([angle(v, params) for v in coord.tolist()])  # one float at a time: see forward_angle
        worst = max(worst, _worst(angle_dist_mod_pi(canonical_angle(theta), canonical_angle(t_min))))
    results.append(("theta_vs_svd", worst < 1e-9, f"max angle err {worst:.3g}"))

    v, t = _field_columns(np.arange(1, 256) / 256, params, "forward")
    v, t = v[np.abs(v) <= 1e6], t[np.abs(v) <= 1e6]
    worst = float(np.max(np.abs(np.tan(2.0 * t) - v) / np.maximum(1.0, np.abs(v)), initial=0.0))
    results.append(("tan2theta_eq_phi", worst < 1e-9, f"max rel err {worst:.3g}"))

    if c.all_defined:
        chain = list(c.as_dict().items())
        chain.insert(1, ("1/4", 0.25))
        # From k ~ 1e7 on float64 ties neighbours, which a strict chain must report.
        bad = [f"{a} >= {b}" for (a, u), (b, w) in zip(chain, chain[1:])
               if not u < w]  # type: ignore[operator]
        detail = "not strict: " + ", ".join(bad) if bad else "strict chain"
        results.append(("constants_ordering", not bad, detail))
    else:
        results.append(("constants_ordering", True, "skipped: constants undefined at this k"))

    out, _ = push_vector(np.arange(64) / 64, 0.0, params)
    worst = _worst(angle_dist_mod_pi(out, math.pi / 4.0))
    out, _ = push_vector(0.25, 3.0 * math.pi / 4.0, params)
    worst2 = angle_dist_mod_pi(out, 0.0)
    # psi(1/4) = 2 pi k cos(pi/2) is 2 pi k * 6.1e-17 in floats, not 0, which
    # turns the image by ~0.28 eps 2 pi k.
    bound = 4.0 * math.ulp(1.0) * (1.0 + TWO_PI * k)
    results.append(("exact_mapping_facts", max(worst, worst2) < bound < 0.5,
                    f"horiz->diag {worst:.3g}, negdiag->horiz {worst2:.3g}"))

    if k > 2:
        rep = verify_cones(params, 2, 5000, seed=7)
        results.append(("cone_slope_invariance", rep.slope_failures == 0 and rep.min_norm > 1.0,
                        f"slope failures {rep.slope_failures}, min_norm {rep.min_norm:.4f}"))

    with contextlib.suppress(TangencySelectionError):  # no tangency curves at this k
        _, (_, res_lower), (_, res_upper) = tangency_curve(params, 128)
        worst = float(max(res_lower.max(), res_upper.max()))
        results.append(("tangency_residual", worst < 1e-8, f"max {worst:.3g}"))

    if c.all_defined:
        y = 0.05 + 0.9 * np.arange(128) / 128
        v = phi(y, params)
        kept = np.isfinite(v) & (abs(v) <= 1e5) & (v != 0.0)
        y, v = y[kept], v[kept]
        branches = phi_inverse_branch(v, np.array([[1.0], [-1.0]]), params)
        roots = np.concatenate([branches, 1.0 - branches])  # phi_inverse's roots, NaN where a branch has none
        # The root r nearest y (the least of a tie, as min() over sorted roots; inf if none).  contract
        # metric: phi(r) matches z to within phi's slope times r's rounding plus phi's own rounding
        dist = abs(roots - y)
        r = np.where(dist == np.fmin.reduce(dist), roots, math.inf).min(axis=0)
        scale = np.maximum(1.0, abs(v))
        err = abs(phi(r, params) - v) / scale
        bound = 16.0 * (abs(phi_prime(r, params)) * np.spacing(abs(r)) + math.ulp(1.0) * scale) / scale
        worst, worst_share = (_worst(err), _worst(err / bound)) if np.isfinite(r).all() else (math.inf, math.inf)
        results.append(("phi_inverse_residual", worst_share <= 1.0, f"max rel {worst:.3g}"))

    return results


def _k_list(text: str) -> list[MapParams]:
    """Parse --k-list, naming the entry that is no valid k."""
    out = []
    for entry in text.split(","):
        try:
            out.append(MapParams(float(entry.strip())))
        except ValueError as exc:  # not a number, or not a k
            raise ParameterError("k", f"{entry!r}: {exc}") from None
    return out


def _cmd_verify(args: argparse.Namespace, _params: None) -> int:
    lines = [_header(args)]
    all_ok = True
    for params in _k_list(args.k_list):
        for name, ok, detail in _verify_battery(params):
            all_ok &= ok
            lines.append(f"{'ok  ' if ok else 'FAIL'} k={params.k:g} {name} ({detail})")
    lines.append("result " + ("PASS" if all_ok else "FAIL"))
    _emit(args, "\n".join(lines))
    return 0 if all_ok else 1


def _figure_foliation(args: argparse.Namespace, params: MapParams, time: str) -> str:
    elements = _strip_elements(params)
    e_arc, f_arc = _FIGURE_ARCS
    if time == "forward":
        e_field = "E1"
        e_starts = [TorusPoint(0.0, y) for y in (0.05, 0.15, 0.35, 0.45, 0.55, 0.65, 0.85, 0.95)]
        # F1 depends on y alone, so its leaves from (x, 0.5) are the one from
        # (0, 0.5) shifted by x: trace_leaf forms x + X from the same X.
        f = trace_leaf("F1", TorusPoint(0.0, 0.5), params, step=args.step, max_arc=f_arc)
        lifted = [np.column_stack([x + f.lifted[:, 0], f.lifted[:, 1]]) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
        f_leaves = [Leaf(f.field_id, p, f.arc_length, f.closed) for p in lifted]
    else:
        e_field = "E-1"
        e_starts = [TorusPoint(0.0, y) for y in (0.05, 0.35, 0.65, 0.95)]
        f_leaves = [trace_leaf("F-1", TorusPoint(x, 0.0), params, step=args.step, max_arc=f_arc)
                    for x in (0.125, 0.375, 0.625, 0.875)]
    e_leaves = [trace_leaf(e_field, p, params, step=args.step, max_arc=e_arc) for p in e_starts]
    elements += _leaf_elements(e_leaves, "#c03030")
    elements += _leaf_elements(f_leaves, "#3030c0")
    closed_field = "F1" if time == "forward" else "E-1"
    elements += _leaf_elements(closed_leaves(closed_field, params), "#108010", width=0.004)
    return svgrender.document(elements)


def _figure_graph(args: argparse.Namespace, params: MapParams, kind: str, time: str) -> str:
    """Unit-square graph of theta/pi or the arctan-compressed phi."""
    coord = np.arange(args.grid + 1) / args.grid
    ratio, theta = _field_columns(coord, params, time)
    v = theta / math.pi if kind == "theta" else 0.5 + np.arctan(ratio) / math.pi
    pieces = svgrender.split_at_jumps(np.column_stack([coord, v]), axis=1)
    return svgrender.document([svgrender.polyline(piece, "#202020") for piece in pieces])


def _cmd_figures(args: argparse.Namespace, params: MapParams) -> int:
    _check_grid(args.grid)
    # trace_leaf would name max_arc, which figures fixes; a step <= 0 it names itself.
    if args.step > 0.0 and max(_FIGURE_ARCS) / args.step > MAX_VERTICES:
        raise ParameterError("step", f"must be at least {max(_FIGURE_ARCS) / MAX_VERTICES:g}, "
                                     f"got {args.step!r}")
    files = {
        "foliation_forward.svg": _figure_foliation(args, params, "forward"),
        "foliation_backward.svg": _figure_foliation(args, params, "backward"),
        "theta_forward.svg": _figure_graph(args, params, "theta", "forward"),
        "theta_backward.svg": _figure_graph(args, params, "theta", "backward"),
        "phi_forward.svg": _figure_graph(args, params, "phi", "forward"),
        "phi_backward.svg": _figure_graph(args, params, "phi", "backward"),
    }
    with contextlib.suppress(TangencySelectionError):  # no tangency curves at this k
        ytilde, (lower, _), (upper, _) = tangency_curve(params, min(args.grid, 1024))
        plane = [svgrender.polyline(np.column_stack([ytilde, y]), color)
                 for y, color in zip((lower, upper), _BRANCH_COLORS)]
        for i, tp in enumerate(tangency_landmarks(params), start=1):
            if tp is not None:
                plane.append(svgrender.circle((tp.ytilde, tp.y), 0.006, "#108010"))
        files["tangency_plane.svg"] = svgrender.document(plane)
        files["tangency_torus.svg"] = svgrender.document(_torus_curves(params, ytilde, lower, upper))
    outdir = args.out or "figures"
    with _writing(outdir):
        os.makedirs(outdir, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
                fh.write(content)
    print("\n".join(os.path.join(outdir, name) for name in files))
    return 0


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = None if args.subcommand == "verify" else MapParams(args.k)
        if params is not None and args.subcommand != "cones":
            critical_constants(params)  # its overflow bounds the k of every field formula
        return args.command(args, params)
    except ParameterError as exc:
        flag = _FLAGS.get((args.subcommand, exc.name), "--" + exc.name.replace("_", "-"))
        print(f"error: {flag} {exc.detail}", file=sys.stderr)
        return 2


#: Exit code when the reader of standard output closes it early: 128 plus
#: SIGPIPE's number, as a shell reports a command that signal ended.
_EXIT_BROKEN_PIPE = 141


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # inside the try: a closed pipe fails here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; writing into os.devnull from
        # now on keeps that flush from failing as well.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(_EXIT_BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    main()
