"""Tests for the command-line front end: formats, determinism, exit codes."""

import argparse
import io
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hypermap import __version__, cli
from hypermap.cli import run
from hypermap.coordinates import critical_constants, phi, phi_inverse, phi_prime, theta_field
from hypermap.foliations import trace_leaf
from hypermap.hyperbolicity import MAX_SAMPLES, push_vector, verify_cones
from hypermap.oracle import svd2
from hypermap.stdmap import TWO_PI, MapParams, TorusPoint, angle_dist_mod_pi, jacobian, map_forward, map_inverse
from hypermap.tangency import MAX_CURVE_SAMPLES, TangencySelectionError, tangency_curve


def run_capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# hypermap")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConstants:
    def test_k1_delta_star(self):
        code, out = run_capture(["constants", "--k", "1"])
        assert code == 0
        header, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        # the closed form evaluates to 0.2626786 (a linearized evaluation
        # would give 0.262665, 1.4e-5 lower)
        assert float(values["delta_star"]) == pytest.approx(0.262665, abs=5e-5)
        assert float(values["delta_star"]) == pytest.approx(
            math.acos(-1 / (4 * math.pi)) / (2 * math.pi), rel=1e-15
        )

    def test_strip_rows_with_m(self):
        code, out = run_capture(["constants", "--k", "10", "--m", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        names = [r[0] for r in rows]
        assert "delta_(3)" in names and "delta_(-3)" in names

    def test_undefined_flagged(self):
        code, out = run_capture(["constants", "--k", "0.3"])
        assert code == 0
        _, rows = parse_csv(out)
        flags = {r[0]: r[2] for r in rows}
        assert flags["delta_hat_T_plus"] == "false"
        assert flags["delta_plus"] == "true"


class TestField:
    def test_grid8_symmetry(self):
        code, out = run_capture(["field", "--k", "3", "--time", "forward", "--grid", "8"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8
        theta = [float(r[2]) for r in rows]
        for j in (1, 2, 3):
            assert theta[j] == pytest.approx(theta[8 - j], abs=1e-12)

    def test_header_records_parameters(self):
        _, out = run_capture(["field", "--k", "3", "--grid", "4"])
        head = out.splitlines()[0]
        assert f"hypermap {__version__}" in head
        assert "k=3" in head and "grid=4" in head
        _, out = run_capture(["cones", "--k", "25", "--samples", "100", "--seed", "99"])
        assert "seed=99" in out.splitlines()[0]

    def test_huge_k_below_the_overflow(self):
        # phi(0) = -(8 pi k + 2) / (8 pi^2 k^2 + 4 pi k - 1) ~ -1/(pi k) until the
        # denominator overflows at k ~ 1.509e153, from where field exits 2.
        code, out = run_capture(["field", "--k", "1.5e153", "--grid", "4"])
        assert code == 0
        assert float(parse_csv(out)[1][0][1]) == pytest.approx(-1.0 / (math.pi * 1.5e153), rel=1e-12)
        code, out = run_capture(["field", "--k", "1.5e153", "--grid", "4", "--time", "backward"])
        assert code == 0 and math.isfinite(float(parse_csv(out)[1][0][1]))


class TestDeterminism:
    def test_byte_identical_reruns(self):
        argv = ["cones", "--k", "25", "--m", "2", "--samples", "30000", "--seed", "42", "--format", "csv"]
        _, a = run_capture(argv)
        _, b = run_capture(argv)
        assert a == b

    def test_tangency_deterministic(self):
        argv = ["tangency", "--k", "2", "--grid", "64"]
        _, a = run_capture(argv)
        _, b = run_capture(argv)
        assert a == b


class TestCones:
    def test_exit_code_matches_failures(self):
        code, out = run_capture(
            ["cones", "--k", "25", "--m", "2", "--samples", "20000", "--format", "csv"]
        )
        _, rows = parse_csv(out)
        failures = int(float({r[0]: r[1] for r in rows}["failures"]))
        assert code == (0 if failures == 0 else 1)

    def test_negative_control_fails(self):
        code, out = run_capture(
            ["cones", "--k", "25", "--m", "2", "--samples", "5000", "--inside-strip", "--format", "csv"]
        )
        assert code == 1
        _, rows = parse_csv(out)
        assert int(float({r[0]: r[1] for r in rows}["failures"])) > 0

    def test_slope_failures_zero(self):
        _, out = run_capture(
            ["cones", "--k", "25", "--m", "5", "--samples", "50000", "--format", "csv"]
        )
        _, rows = parse_csv(out)
        values = {r[0]: r[1] for r in rows}
        assert int(float(values["slope_failures"])) == 0
        assert 0.8 < float(values["slope_min"]) <= float(values["slope_max"]) < 1.2

    def test_k_past_the_float32_filter(self):
        # At K = 2 pi k >= 2^60 the float32 image could overflow, so every
        # sample is evaluated in float64.
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_capture(["cones", "--k", "1e18", "--m", "3", "--samples", "20000", "--seed", "5"])
        assert code == 0 and "failures 0" in out.splitlines() and err.getvalue() == ""


class TestLeaf:
    def test_csv_columns(self):
        code, out = run_capture(
            ["leaf", "--k", "10", "--field", "F1", "--x", "0.3", "--y", "0.2513",
             "--max-arc", "1.5", "--step", "0.001"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["seg_id", "x", "y"]
        assert len(rows) > 100
        for r in rows[:50]:
            assert 0.0 <= float(r[1]) <= 1.0 and 0.0 <= float(r[2]) <= 1.0

    def test_svg_parses(self):
        code, out = run_capture(
            ["leaf", "--k", "10", "--field", "E1", "--y", "0.6", "--max-arc", "1.0",
             "--format", "svg"]
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 1 1"


class TestTangencyCommand:
    def test_rows_and_landmarks(self):
        code, out = run_capture(["tangency", "--k", "2", "--grid", "64"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "name", "ytilde", "y", "x", "branch", "residual"]
        curve_rows = [r for r in rows if r[0] == "curve"]
        landmark_rows = [r for r in rows if r[0] == "landmark"]
        assert len(curve_rows) == 128  # both branches
        assert [r[1] for r in landmark_rows] == [f"P{i}" for i in range(1, 9)]
        assert all(float(r[6]) < 1e-8 for r in rows)

    def test_large_k(self):
        code, out = run_capture(["tangency", "--k", "1e5", "--grid", "64"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 136 and all(float(r[6]) < 1e-8 for r in rows)

    def test_partly_defined_k_range(self):
        # delta_hat_T^+ is undefined at k = 0.4, but both curves and the landmarks are drawn.
        code, out = run_capture(["tangency", "--k", "0.4", "--grid", "64"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) > 128 and all(float(r[6]) < 1e-8 for r in rows)


# The battery's checks on objects, as cli._verify_battery made them before it
# walked plain floats.  Its rows must equal the battery's.


def reference_verify_battery(params: MapParams) -> list[tuple[str, bool, str]]:
    """cli._verify_battery with a TorusPoint, a Mat2 and svd2's result objects per sample."""
    k = params.k
    c = critical_constants(params)  # raises before the battery overflows at huge k
    rng = random.Random(1234)
    results: list[tuple[str, bool, str]] = []

    worst = 0.0
    for _ in range(128):
        p = TorusPoint(rng.random(), rng.random())
        q = map_inverse(map_forward(p, params), params)
        d = max(abs(q.x - p.x) % 1.0, abs(q.y - p.y) % 1.0)
        worst = max(worst, min(d, 1.0 - d))
    # Rounding at the scale of k, amplified by up to 2 pi k in the inverse.  A
    # bound of 1/2, the largest torus distance, would pass any round trip.
    bound = 16.0 * math.ulp(1.0) * (1.0 + k) * (1.0 + TWO_PI * k)
    results.append(("round_trip", worst <= bound < 0.5, f"max {worst:.3g}, bound {bound:.3g}"))

    worst = 0.0
    for _ in range(128):
        p = TorusPoint(rng.random(), rng.random())
        for time in ("forward", "backward"):
            worst = max(worst, abs(jacobian(p, params, time).det - 1.0))  # type: ignore[arg-type]
    results.append(("unimodular", worst < 1e-12, f"max |det-1| {worst:.3g}"))

    # sigma_min = |h1 - h2|/2 cancels, costing about eps sigma_max^2 per sample.
    # A bound of 1 would pass an E1 that is all rounding noise.
    worst = worst_share = widest = 0.0
    for _ in range(128):
        p = TorusPoint(rng.random(), rng.random())
        s = svd2(jacobian(p, params, "forward"))
        err = abs(s.sigma_max * s.sigma_min - 1.0)
        bound = 16.0 * math.ulp(1.0) * s.sigma_max * s.sigma_max
        worst = max(worst, err)
        worst_share = max(worst_share, err / bound)
        widest = max(widest, bound)
    results.append(("E1_F1_product", worst_share <= 1.0 and widest < 1.0,
                    f"max |E1*F1-1| {worst:.3g}, {worst_share:.3g} of 16 eps F1^2"))

    worst = 0.0
    for j in range(256):
        coord = j / 256
        for time in ("forward", "backward"):
            # TorusPoint(0, coord) has y = ytilde = coord, serving both times.
            s = svd2(jacobian(TorusPoint(0.0, coord), params, time))  # type: ignore[arg-type]
            if s.dir_min is None:
                continue
            worst = max(worst, theta_field(coord, params, time).dist(s.dir_min))  # type: ignore[arg-type]
    results.append(("theta_vs_svd", worst < 1e-9, f"max angle err {worst:.3g}"))

    v, t = cli._field_columns(np.arange(1, 256) / 256, params, "forward")
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

    worst = 0.0
    for j in range(64):
        out, _ = push_vector(j / 64, 0.0, params)
        worst = max(worst, angle_dist_mod_pi(out, math.pi / 4.0))
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

    try:
        _, (_, res_lower), (_, res_upper) = tangency_curve(params, 128)
        worst = float(max(res_lower.max(), res_upper.max()))
        results.append(("tangency_residual", worst < 1e-8, f"max {worst:.3g}"))
    except TangencySelectionError:
        pass

    if c.all_defined:
        worst = worst_share = 0.0
        for j in range(128):
            y = 0.05 + 0.9 * j / 128
            v = phi(y, params)
            if not math.isfinite(v) or abs(v) > 1e5 or v == 0.0:
                continue
            roots = phi_inverse(v, params)
            if not roots:
                worst = worst_share = math.inf
                continue
            # contract metric: phi at the recovered root matches z, to within phi's
            # slope times the rounding of a float root plus phi's own rounding
            r = min(roots, key=lambda r: abs(r - y))
            scale = max(1.0, abs(v))
            err = abs(phi(r, params) - v) / scale
            bound = 16.0 * (abs(phi_prime(r, params)) * math.ulp(r) + math.ulp(1.0) * scale) / scale
            worst = max(worst, err)
            worst_share = max(worst_share, err / bound)
        results.append(("phi_inverse_residual", worst_share <= 1.0, f"max rel {worst:.3g}"))

    return results


class TestVerify:
    def test_battery_equals_object_level_reference(self):
        seeded = (10.0 ** np.random.default_rng(27).uniform(math.log10(0.05), 8.0, 64)).tolist()
        # The seeded k reach every branch of the battery: constants undefined
        # (k < 0.4931), no cone row (k <= 2), the benchmark's last k in
        # [50, 200], and float64 ties in the constants (k >= 1e7).
        for lo, hi in ((0.05, 0.4931), (0.4931, 2.0), (50.0, 200.0), (1e7, 1e8)):
            assert any(lo <= k <= hi for k in seeded), (lo, hi)
        for k in [0.05, 0.3, 0.49, 0.5, 1, 2.5, 5, 21, 100, 3000, 3e4, 1e6, 5e6, 2e7, 1e8] + seeded:
            params = MapParams(k)
            assert cli._verify_battery(params) == reference_verify_battery(params), k

    def test_phi_inverse_roots_equal_the_scalar_roots(self, monkeypatch):
        # The battery's array roots are scalar phi_inverse's, bit for bit.
        calls = []
        branch = cli.phi_inverse_branch

        def spy(z, sign, params):
            y = branch(z, sign, params)
            calls.append((z, y))
            return y

        monkeypatch.setattr(cli, "phi_inverse_branch", spy)
        compared = 0
        for k in 10.0 ** np.random.default_rng(28).uniform(math.log10(0.5), 6.0, 40):
            params = MapParams(float(k))
            calls.clear()
            cli._verify_battery(params)
            [(z, y)] = calls
            for v, pair in zip(z.tolist(), y.T.tolist()):
                got = sorted(r for b in pair if not math.isnan(b) for r in (b, 1.0 - b))
                assert got == phi_inverse(v, params), (k, v)
                compared += len(got)
        assert compared > 10_000

    def test_header_echoes_the_k_list_only(self):
        for argv, k_list in ((["verify"], "1,2,5,10"), (["verify", "--k-list", "2, 0.5"], "2, 0.5")):
            code, out = run_capture(argv)
            assert code == 0
            assert out.splitlines()[0] == f"# hypermap {__version__} subcommand=verify k_list={k_list} format=txt"

    def test_default_klist_passes(self):
        code, out = run_capture(["verify", "--k-list", "1,5"])
        assert code == 0
        assert "result PASS" in out
        assert "FAIL" not in out.replace("result PASS", "")


    def test_tangency_residual_wherever_the_curves_exist(self):
        # The curves exist from k ~ 0.337119 on, below the strip constants'
        # k ~ 0.4931; at k = 0.3 some ytilde have no tangency.
        code, out = run_capture(["verify", "--k-list", "0.35,0.3"])
        assert code == 0 and "result PASS" in out
        assert "k=0.35 tangency_residual" in out
        assert "k=0.3 tangency_residual" not in out

    def test_large_k_passes(self):
        # The round-trip and E1*F1 tolerances scale with the rounding bounds.
        code, out = run_capture(["verify", "--k-list", "50,200,1000"])
        assert code == 0, out
        assert "result PASS" in out

    def test_mapping_facts_bound_scales_with_k(self):
        # psi(1/4) rounds to 2 pi k * 6.1e-17, turning negdiag->horiz by
        # 1.15e-12 at k = 3000 and 1.15e-11 at k = 3e4.
        code, out = run_capture(["verify", "--k-list", "3000,3e4"])
        assert code == 0, out
        assert "ok   k=3000 exact_mapping_facts" in out and "ok   k=30000 exact_mapping_facts" in out

    def test_a_bound_of_half_a_turn_fails(self):
        # From k ~ 4.7e6 on 16 eps (1 + k)(1 + 2 pi k) exceeds 1/2, the
        # largest torus distance, so the round trip checks nothing.
        code, out = run_capture(["verify", "--k-list", "5e6"])
        assert code == 1
        assert re.search(r"^FAIL k=5e\+06 round_trip \(max [^,]*, bound 0\.558\)$", out, re.M), out
        assert "tangency_residual" not in out  # no tangency curves above MAX_CURVE_K

    def test_an_e1_f1_bound_of_one_fails(self):
        # 16 eps F1^2 reaches 1 from k ~ 1.9e6 on, where a relative error of 1
        # would pass an E1 that is all rounding noise.
        code, out = run_capture(["verify", "--k-list", "1e6,1e8"])
        assert code == 1
        assert "ok   k=1e+06 E1_F1_product" in out
        assert "FAIL k=1e+08 E1_F1_product (max |E1*F1-1| 45.5, 0.0272 of 16 eps F1^2)" in out

    def test_phi_inverse_bound_scales_with_the_slope(self):
        # phi moves by phi' ulp(r) between neighbouring floats r, up to 3.01e-10
        # relative at k = 1e6 and 2.03e-8 at 5e6.
        code, out = run_capture(["verify", "--k-list", "1e6,5e6"])
        assert "ok   k=1e+06 phi_inverse_residual (max rel 3.01e-10)" in out
        assert "ok   k=5e+06 phi_inverse_residual (max rel 2.03e-08)" in out

    def test_constants_ordering_names_float64_ties(self):
        # At k = 2e7 delta_T^-, delta^+ and delta_T^+ round to one float64.
        code, out = run_capture(["verify", "--k-list", "2e7"])
        assert code == 1
        assert ("FAIL k=2e+07 constants_ordering (not strict: delta_T_minus >= delta_plus, "
                "delta_plus >= delta_T_plus)") in out
        assert "k=2e+07 phi_inverse_residual" in out


class TestFigures:
    def test_writes_svg_set(self, tmp_path):
        outdir = tmp_path / "figs"
        code, _ = run_capture(
            ["figures", "--k", "1", "--grid", "256", "--step", "0.005", "--out", str(outdir)]
        )
        assert code == 0
        names = sorted(p.name for p in outdir.glob("*.svg"))
        assert names == [
            "foliation_backward.svg",
            "foliation_forward.svg",
            "phi_backward.svg",
            "phi_forward.svg",
            "tangency_plane.svg",
            "tangency_torus.svg",
            "theta_backward.svg",
            "theta_forward.svg",
        ]
        for p in outdir.glob("*.svg"):
            ET.parse(p)  # well-formed XML

    @pytest.mark.parametrize("k, curves", [("0.35", True), ("0.3", False)])
    def test_tangency_figures_wherever_the_curves_exist(self, tmp_path, k, curves):
        outdir = tmp_path / "figs"
        code, _ = run_capture(["figures", "--k", k, "--grid", "64", "--step", "0.05", "--out", str(outdir)])
        assert code == 0
        names = {p.name for p in outdir.glob("*.svg")}
        assert len(names) == (8 if curves else 6)
        assert ("tangency_plane.svg" in names) == curves

    @pytest.mark.parametrize("k", ["1", "10"])
    def test_polylines_inside_unit_square(self, tmp_path, k):
        outdir = tmp_path / "figs"
        code, _ = run_capture(["figures", "--k", k, "--grid", "256", "--out", str(outdir)])
        assert code == 0
        for path in outdir.glob("*.svg"):
            for el in ET.parse(path).iter():
                if el.tag.endswith("polyline"):
                    coords = [float(v) for pair in el.get("points").split() for v in pair.split(",")]
                    assert 0.0 <= min(coords) and max(coords) <= 1.0, path.name

    def test_forward_foliation_shows_closed_leaves(self, tmp_path):
        # The bold closed leaves sit at render height 1 - delta^* and
        # delta^* (the y axis is flipped into screen coordinates).
        outdir = tmp_path / "figs"
        run(["figures", "--k", "1", "--grid", "128", "--step", "0.01", "--out", str(outdir)])
        text = (outdir / "foliation_forward.svg").read_text()
        delta_star = math.acos(-1 / (4 * math.pi)) / (2 * math.pi)
        assert f"{1 - delta_star:.6f}" in text
        assert 'stroke="#108010"' in text

    @pytest.mark.parametrize("k", [0.08, 0.6, 0.93, 1.0, 10.0, 100.0])
    def test_forward_f1_leaves_equal_their_own_traces(self, tmp_path, monkeypatch, k):
        # The F1 leaves are one trace from (0, 0.5), shifted by each start's x.
        # k = 0.08 lies just above 1/(4 pi), where the closed leaves appear.
        drawn = []
        leaf_elements = cli._leaf_elements

        def spy(leaves, color, width=0.002):
            leaves = list(leaves)
            drawn.append((color, leaves))
            return leaf_elements(leaves, color, width)

        monkeypatch.setattr(cli, "_leaf_elements", spy)
        code, _ = run_capture(["figures", "--k", repr(k), "--grid", "16", "--out", str(tmp_path)])
        assert code == 0
        # Forward figure: E1, F1, closed leaves; then the backward one.
        f1 = drawn[1][1]
        assert [leaf.field_id for leaf in f1] == ["F1"] * 5
        for x, leaf in zip((0.1, 0.3, 0.5, 0.7, 0.9), f1):
            own = trace_leaf("F1", TorusPoint(x, 0.5), MapParams(k), max_arc=cli._FIGURE_ARCS[1])
            assert np.array_equal(leaf.lifted, own.lifted) and np.array_equal(leaf.points, own.points)
            assert (leaf.arc_length, leaf.closed) == (own.arc_length, own.closed)


class TestArgumentErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_parser_built_once_without_leaking_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = run_capture(["figures", "--k", "1", "--grid", "64", "--step", "0.05"])
        assert code == 0 and (tmp_path / "figures" / "theta_forward.svg").is_file()
        # figures defaults --out to "figures"; leaf must still write to stdout.
        code, out = run_capture(["leaf", "--max-arc", "0.05"])
        assert code == 0 and out.startswith("# hypermap") and "seg_id,x,y" in out
        assert cli._build_parser() is cli._build_parser()

    def test_parse_error_message_unchanged_by_reuse(self):
        argv = ["leaf", "--field", "X9"]
        fresh = io.StringIO()
        with redirect_stderr(fresh), pytest.raises(SystemExit) as exc:
            cli._build_parser.__wrapped__().parse_args(argv)
        assert exc.value.code == 2 and "invalid choice: 'X9'" in fresh.getvalue()
        for _ in range(2):
            code, err = self.run_error(argv)
            assert code == 2 and err == fresh.getvalue()

    @staticmethod
    def run_error(argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(argv)
        return code, err.getvalue()

    def test_figures_name_a_short_grid_only_where_curves_are_drawn(self, tmp_path):
        code, _ = self.run_error(["figures", "--k", "0.3", "--grid", "8", "--out", str(tmp_path / "a")])
        assert code == 0
        code, err = self.run_error(["figures", "--k", "0.35", "--grid", "8", "--out", str(tmp_path / "b")])
        assert code == 2 and "--grid" in err

    def test_tangency_below_validity_names_k(self):
        code, err = self.run_error(["tangency", "--k", "0.3"])
        assert code == 2
        assert err.startswith("error: --k 0.3: ") and "Traceback" not in err

    def test_tangency_below_delta_plus_names_its_threshold(self):
        # 0.2174 lies just below (1 + sqrt(3))/(4 pi) = 0.2174097; a rounded
        # threshold in the message would contradict the k it rejects.
        want = "error: --k 0.2174: delta^+ is undefined below k = (1 + sqrt(3))/(4 pi) ~ 0.217410\n"
        assert self.run_error(["tangency", "--k", "0.2174"]) == (2, want)

    def test_cones_samples_beyond_a_c_long_name_samples(self):
        # numpy's binomial takes a C long: 2^63 samples once ended in an OverflowError
        # traceback, and inside the strips, which draw no binomial count, ran on.
        for region in ([], ["--inside-strip"]):
            argv = ["cones", "--k", "10", "--m", "2", "--samples", "9223372036854775808", *region]
            want = "error: --samples must be at most 1000000000, got 9223372036854775808\n"
            assert self.run_error(argv) == (2, want)

    @pytest.mark.parametrize("argv, flag, bound", [
        (["field", "--k", "1", "--grid", "10000000000"], "--grid", cli.MAX_GRID),
        (["field", "--k", "1", "--grid", str(cli.MAX_GRID + 1), "--time", "backward"], "--grid", cli.MAX_GRID),
        (["figures", "--k", "1", "--grid", "100000000"], "--grid", cli.MAX_GRID),
        (["tangency", "--k", "3", "--grid", "10000000000"], "--grid", MAX_CURVE_SAMPLES),
        (["tangency", "--k", "0.3", "--grid", str(MAX_CURVE_SAMPLES + 1), "--format", "svg"], "--grid",
         MAX_CURVE_SAMPLES),
        (["cones", "--k", "10", "--m", "2", "--samples", "1000000000000000"], "--samples", MAX_SAMPLES),
        (["cones", "--k", "10", "--m", "2", "--samples", str(MAX_SAMPLES + 1), "--inside-strip"], "--samples",
         MAX_SAMPLES),
    ])
    def test_oversized_work_names_its_flag_at_once(self, argv, flag, bound, tmp_path):
        # These once ended in a MemoryError traceback or ran on for hours.
        start = time.perf_counter()
        code, err = self.run_error([*argv, "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (2, f"error: {flag} must be at most {bound}, got {argv[argv.index(flag) + 1]}\n")
        assert not (tmp_path / "out").exists()

    def test_the_largest_grid_is_accepted(self):
        cli._check_grid(cli.MAX_GRID)

    def test_a_ytilde_without_tangency_names_k1(self):
        want = ("error: --k 0.3: ytilde = 0.375 has no tangency at this k; every ytilde has one from "
                "k1 = (2 + sqrt(3) + sqrt(13))/(4 sqrt(3) pi) ~ 0.337119 on\n")
        assert self.run_error(["tangency", "--k", "0.3", "--grid", "8"]) == (2, want)

    def test_empty_grid_rejected(self):
        for grid in ("0", "-3"):
            code, err = self.run_error(["field", "--k", "3", "--grid", grid])
            assert code == 2
            assert "grid" in err

    def test_leaf_and_figures_name_bad_step_or_arc(self, tmp_path):
        for sub, flags in ((["leaf"], ("--max-arc", "--step")),
                           (["figures", "--out", str(tmp_path / "figs")], ("--step",))):
            for flag, value in (("--max-arc", "inf"), ("--step", "nan"), ("--step", "0"),
                                ("--max-arc", "-1")):
                if flag not in flags:
                    continue
                code, err = self.run_error(sub + [flag, value])
                assert code == 2, (sub, flag, value)
                assert f"{flag} must be positive and finite" in err
        assert not (tmp_path / "figs").exists()

    def test_leaf_names_non_finite_start(self):
        for flag in ("--x", "--y"):
            for value in ("inf", "-inf", "nan"):
                code, err = self.run_error(["leaf", f"{flag}={value}"])
                assert code == 2, (flag, value)
                assert f"{flag} must be finite" in err

    def test_verify_huge_k_ends_without_traceback(self):
        # sigma_max**2 once overflowed; beyond k ~ 1e154 phi itself
        # overflows and the entry is named.
        for k in ("1e100", "1e300"):
            code, err = self.run_error(["verify", "--k-list", f"1,{k}"])
            assert code in (1, 2) and "Traceback" not in err
            assert code == 1 or f"--k-list entry {float(k):g}" in err

    def test_bad_k_list_entry_named(self):
        for k_list, entry in (("abc", "'abc'"), ("1,,2", "''"), ("2,-1", "'-1'")):
            code, err = self.run_error(["verify", "--k-list", k_list])
            assert code == 2
            assert f"--k-list entry {entry}" in err

    def test_bad_k(self):
        assert run(["constants", "--k", "-1"]) == 2

    def test_no_args(self):
        assert run([]) == 2


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def accepted_flags(sub: argparse.ArgumentParser) -> set[str]:
    return {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}


class TestEveryFlagChangesTheResult:
    """A flag a subcommand accepts must change what it does: its output
    after the header line, the files it writes, or its exit code."""

    #: A quick invocation of each subcommand, as flag -> value.
    BASE = {
        "constants": {"--k": "10"},
        "field": {"--k": "3", "--grid": "16"},
        "leaf": {"--k": "10", "--max-arc": "0.5"},
        "tangency": {"--k": "2", "--grid": "32"},
        "cones": {"--k": "25", "--samples": "3000"},
        "verify": {"--k-list": "1,5"},
        "figures": {"--k": "1", "--grid": "64", "--step": "0.02", "--out": "{tmp}/figs"},
    }
    #: Two values of each flag; True and False put a switch in or leave it
    #: out.  ``--format`` takes the first two of the subcommand's choices.
    VALUES = {
        "--k": ("10", "11"), "--m": ("2", "3"), "--grid": ("32", "33"), "--samples": ("3000", "3001"),
        "--seed": ("1", "2"), "--step": ("0.02", "0.03"), "--max-arc": ("0.5", "0.6"),
        "--time": ("forward", "backward"), "--field": ("E1", "F1"), "--x": ("0", "0.1"),
        "--y": ("0.6", "0.7"), "--inside-strip": (False, True), "--k-list": ("1,5", "1,2"),
        "--out": ("{tmp}/a", "{tmp}/b"),
    }

    @staticmethod
    def outcome(sub: str, options: dict, tmp: Path) -> tuple[int, str, dict]:
        argv = [sub]
        for flag, value in options.items():
            if value is True:
                argv.append(flag)
            elif value is not False:
                argv += [flag, value.replace("{tmp}", str(tmp))]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run(argv)
        text = out.getvalue().replace(str(tmp), "{tmp}")
        body = text.split("\n", 1)[-1] if text.startswith("# hypermap") else text
        files = {p.relative_to(tmp).as_posix(): p.read_bytes() for p in tmp.rglob("*") if p.is_file()}
        return code, body, files

    @pytest.mark.parametrize("sub, flag", [(name, flag) for name, parser in subparsers().items()
                                           for flag in sorted(accepted_flags(parser))])
    def test_flag_changes_the_result(self, tmp_path, sub, flag):
        if flag == "--format":
            action = next(a for a in subparsers()[sub]._actions if flag in a.option_strings)
            values = action.choices[:2]
        else:
            values = self.VALUES[flag]
        results = []
        for i, value in enumerate(values):
            tmp = tmp_path / str(i)
            tmp.mkdir()
            results.append(self.outcome(sub, {**self.BASE[sub], flag: value}, tmp))
        assert all(code in (0, 1) for code, _, _ in results), results
        assert results[0] != results[1]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("hypermap ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    # Every file a command writes lands in a scratch directory.
    monkeypatch.chdir(tmp_path)
    code, _ = run_capture(argv)
    assert code in (0, 1)


def test_readme_python_blocks_run():
    # The blocks run in order in one namespace, as in one session.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert blocks and namespace["lower"][0].shape == (1024,)


def test_readme_lists_commands():
    assert {argv[0] for argv in readme_commands()} == set(subparsers())


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_without_a_traceback(unbuffered):
    # The reader takes one line of a ~10 MB table and closes the pipe, as
    # `| head -1` does; the next write fails with EPIPE.  Unbuffered, a
    # write into the closing pipe can end short instead, and the output
    # must not stop there without an error.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "hypermap", "field", "--k", "10", "--grid", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# hypermap")
    proc.stdout.close()
    code = proc.wait(timeout=60)  # a traceback fits in the stderr pipe's buffer
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert code == cli._EXIT_BROKEN_PIPE
    assert b"Traceback" not in stderr and b"Error" not in stderr, stderr
