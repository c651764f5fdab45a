"""Tests for the strips, the exact image formula, and the cone sweeps.

The direction half of the cone statement holds everywhere outside the
strips; the per-step norm bound >= m genuinely fails in thin layers where
psi_c sits just past -+2m with entry slope near 1/m (the image-norm infimum
over the hypothesis set is g(m) of the module docstring, 1 at m = 2).  The tests here pin the true
behavior of both halves; the acceptance module asserts the stated criterion
verbatim and documents the red outcome.
"""

import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.hyperbolicity import (
    delta_strip,
    orbit_expansion,
    push_vector,
    verify_cones,
)
from hypermap.stdmap import MapParams, TorusPoint, angle_dist_mod_pi
from test_cone_reference import assert_same_report, drawn_samples, reference_report


class TestDeltaStrip:
    def test_boundary_psi_values(self):
        strip = delta_strip(3, MapParams(10.0))
        p = MapParams(10.0)
        two_pi = 2 * math.pi
        assert two_pi * 10 * math.cos(two_pi * strip.delta_m) == pytest.approx(6.0, rel=1e-12)
        assert two_pi * 10 * math.cos(two_pi * strip.delta_neg_m) == pytest.approx(-6.0, rel=1e-12)
        assert strip.delta_m < 0.25 < strip.delta_neg_m < 0.5
        del p

    def test_edges_bit_for_bit(self):
        # The acos expressions delta^(+-m) were written as before psi_inverse.
        for m in (2, 3, 5, 10):
            for k in np.geomspace(1.0001 * m, 1e12, 1000).tolist():
                strip = delta_strip(m, MapParams(k))
                arg = m / (math.pi * k)
                assert strip.delta_m == math.acos(arg) / (2 * math.pi), (m, k)
                assert strip.delta_neg_m == math.acos(-arg) / (2 * math.pi), (m, k)

    def test_membership(self):
        strip = delta_strip(3, MapParams(10.0))
        assert strip.contains(0.25)
        assert strip.contains(0.75)
        assert not strip.contains(0.0)
        assert not strip.contains(0.5)
        # boundaries belong to the strip (closed), complement is open
        assert strip.contains(strip.delta_m)
        assert strip.contains(1.0 - strip.delta_neg_m)

    def test_membership_is_psi_condition(self):
        params = MapParams(7.0)
        strip = delta_strip(2, params)
        rng = random.Random(5)
        for _ in range(2000):
            y = rng.random()
            inside = abs(2 * math.pi * 7 * math.cos(2 * math.pi * y)) < 4.0
            if abs(y - strip.delta_m) < 1e-9 or abs(y - strip.delta_neg_m) < 1e-9:
                continue  # skip rounding-ambiguous boundary hits
            assert strip.contains(y) == inside

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            delta_strip(1, MapParams(10.0))
        with pytest.raises(ValueError):
            delta_strip(10, MapParams(10.0))
        with pytest.raises(ValueError):
            delta_strip(11, MapParams(10.0))


class TestPushVector:
    def test_horizontal_always_to_positive_diagonal(self):
        # sin(0) = 0 kills the psi term, so the image is exactly (1, 1).
        for k in (1.0, 9.0, 77.0):
            params = MapParams(k)
            for j in range(1024):
                out, _ = push_vector(j / 1024, 0.0, params)
                assert angle_dist_mod_pi(out, math.pi / 4) < 1e-12

    def test_negative_diagonal_to_horizontal_at_quarter(self):
        for k in (1.0, 9.0, 77.0):
            out, _ = push_vector(0.25, 3 * math.pi / 4, MapParams(k))
            assert angle_dist_mod_pi(out, 0.0) < 1e-12

    def test_norm_sqrt2_at_zero(self):
        _, norm = push_vector(0.0, 0.0, MapParams(1.0))
        assert norm == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_matches_jacobian_action(self):
        from hypermap.stdmap import jacobian

        rng = random.Random(8)
        params = MapParams(6.0)
        for _ in range(500):
            y, theta = rng.random(), rng.uniform(-math.pi, math.pi)
            out, norm = push_vector(y, theta, params)
            ix, iy = jacobian(TorusPoint(0.0, y), params).apply(
                math.cos(theta), math.sin(theta)
            )
            assert norm == pytest.approx(math.hypot(ix, iy), rel=1e-14)
            assert angle_dist_mod_pi(out, math.atan2(iy, ix)) < 1e-14


class TestConeNesting:
    def test_image_cone_inside_entry_cone(self):
        # (1 - 1/m, 1 + 1/m) inside (1/m, m): 1 - 1/m >= 1/m and
        # 1 + 1/m <= m for every m >= 2 (equality only at m = 2).
        for m in range(2, 1001):
            assert 1 - 1 / m >= 1 / m
            assert 1 + 1 / m <= m


class TestVerifyCones:
    def test_slope_claim_clean_across_grid(self):
        for m in (2, 3, 5):
            for k in (float(2 * m + 1), float(10 * m)):
                rep = verify_cones(MapParams(k), m, 20_000, seed=42)
                assert rep.slope_failures == 0
                lo, hi = rep.slope_range
                assert 1 - 1 / m < lo <= hi < 1 + 1 / m

    def test_slope_range_example(self):
        rep = verify_cones(MapParams(25.0), 5, 100_000, seed=42)
        assert rep.slope_failures == 0
        assert 0.8 < rep.slope_range[0] and rep.slope_range[1] < 1.2

    def test_norm_claim_fails_in_boundary_layer(self):
        # Exact counterexample: psi = -21/5, tan(theta) = 11/20 satisfies
        # every hypothesis at m = 2 and lands below norm 2.
        m, k = 2, 10.0
        params = MapParams(k)
        y = math.acos(-4.2 / (2 * math.pi * k)) / (2 * math.pi)
        strip = delta_strip(m, params)
        assert not strip.contains(y)
        theta = math.atan(0.55)
        out, norm = push_vector(y, theta, params)
        assert 1 - 1 / m < math.tan(out) < 1 + 1 / m  # direction half holds
        assert norm < m  # norm half does not
        rep = verify_cones(params, m, 100_000, seed=42)
        assert rep.norm_failures > 0
        assert rep.min_norm > 1.0  # the true infimum over the region is 1

    @pytest.mark.parametrize("m, g_rounded", [(2, 1.0), (3, 1.1402), (5, 1.2558), (10, 1.3387)])
    def test_min_norm_is_above_the_boundary_layer_infimum(self, m, g_rounded):
        # g(m): the norm ratio of Df (1, 1/m) at psi = -2m, in 50 digits.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            psi_edge, v = -2 * m, mpmath.matrix([1, mpmath.mpf(1) / m])
            image = mpmath.matrix([[1, psi_edge], [1, 1 + psi_edge]]) * v
            g = mpmath.norm(image) / mpmath.norm(v)
        assert abs(g - g_rounded) < 5e-5
        rep = verify_cones(MapParams(100.0), m, 200_000, seed=m)
        assert rep.norm_failures > 0
        assert rep.min_norm >= g

    def test_failure_records_replay(self):
        rep = verify_cones(MapParams(5.0), 2, 50_000, seed=42)
        assert rep.failures == rep.norm_failures + rep.slope_failures
        assert len(rep.failure_records) == min(rep.failures, 1000)
        for y, theta in rep.failure_records[:50]:
            out, norm = push_vector(y, theta, MapParams(5.0))
            ok = (1 - 0.5 < math.tan(out) < 1 + 0.5) and norm >= 2
            assert not ok

    def test_negative_control_inside_strip(self):
        rep = verify_cones(MapParams(25.0), 2, 10_000, seed=42, inside_strip=True)
        assert rep.failures > 0

    def test_deterministic_and_worker_independent(self):
        # Library callers may sweep from several threads at once; each
        # thread has its own work arrays, so the reports stay the same.
        params = MapParams(25.0)
        a = verify_cones(params, 2, 70_000, seed=9)
        b = verify_cones(params, 2, 70_000, seed=9)
        assert a == b
        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(lambda _: verify_cones(params, 2, 70_000, seed=9), range(4)))
        assert reports == [a] * 4

    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    def test_filter_refines_few_samples_outside_the_strips(self, m):
        # A loosened filter bound shows up here, not as a silent slowdown.
        n = 200_000
        for k in (max(5.0, 1.01 * m), 17.0, 60.0, 200.0):
            rep = verify_cones(MapParams(k), m, n, seed=m)
            assert 0 < rep.refined < 0.005 * n, (k, rep.refined)

    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    def test_filter_sees_little_more_than_the_band(self, monkeypatch, m):
        # Outside the strips only the band next to Delta^(m) reaches the
        # filter.  A sweep that silently draws its completion or goes chunk
        # by chunk fails here instead of only running slow.
        seen = []
        evaluate = hyperbolicity._filter

        def counted(r, *args):
            seen.append(len(r))
            return evaluate(r, *args)

        monkeypatch.setattr(hyperbolicity, "_filter", counted)
        n = 200_000
        t = m + 1 + m * math.sqrt((1 + m * m) / 2)
        for k in (17.0, 60.0, 200.0):
            big_k = 2 * math.pi * k
            edge = math.asin(2 * m / big_k)
            measure = (math.asin(t / big_k) - edge) / (math.pi / 2 - edge)
            seen.clear()
            verify_cones(MapParams(k), m, n, seed=m)
            assert 0 < sum(seen) <= 1.5 * measure * n, (k, sum(seen), measure)

    def test_a_band_too_small_to_settle_is_completed(self, monkeypatch):
        # 1000 samples at k = 50, m = 3 expect ~4 in the band: too few to
        # settle the extrema, so the sweep draws its other samples too.
        sweep = (MapParams(50.0), 3, 1000, 4, False)
        sizes = drawn_samples(monkeypatch)
        assert_same_report(verify_cones(*sweep), reference_report(*sweep))
        assert len(sizes) == 2 and 0 < sizes[0] < 20 and sum(sizes) == 1000, sizes

    def test_refined_count_stays_out_of_the_report(self):
        rep = verify_cones(MapParams(25.0), 5, 50_000, seed=42)
        assert rep.refined > 0
        assert "refined" not in repr(rep) and "refined" not in rep.to_text()

    def test_seed_matters(self):
        params = MapParams(25.0)
        a = verify_cones(params, 2, 10_000, seed=1)
        b = verify_cones(params, 2, 10_000, seed=2)
        assert a.min_norm != b.min_norm


class TestOrbitExpansion:
    def test_single_step_reduces_to_push_vector(self):
        params = MapParams(50.0)
        p = TorusPoint(0.1, 0.02)
        theta = math.atan(1.0)
        rep = orbit_expansion(p, theta, params, m=4, n=1)
        _, norm = push_vector(p.y, theta, params)
        assert rep.steps == 1 and rep.entered_strip_at is None
        assert rep.factors[0] == norm
        assert math.prod(rep.factors) == norm

    def test_growth_outside_strip(self):
        params = MapParams(50.0)
        rng = random.Random(77)
        strip = delta_strip(4, params)
        ran = 0
        for _ in range(1000):
            p = TorusPoint(rng.random(), rng.random())
            if strip.contains(p.y):
                continue
            theta = math.atan(rng.uniform(1 - 1 / 4 + 1e-6, 1 + 1 / 4 - 1e-6))
            rep = orbit_expansion(p, theta, params, m=4, n=10)
            # inner-cone entries clear the per-step bound even in the layer
            for f in rep.factors:
                assert f >= 4.0
            assert math.prod(rep.factors) >= 4.0 ** rep.steps * (1 - 1e-12)
            ran += 1
        assert ran > 500

    def test_early_exit_reports_step(self):
        params = MapParams(50.0)
        strip = delta_strip(4, params)
        inside = 0.5 * (strip.delta_m + strip.delta_neg_m)
        rep = orbit_expansion(TorusPoint(0.0, inside), math.atan(1.0), params, 4, 5)
        assert rep.entered_strip_at == 0
        assert rep.factors == ()
        assert math.prod(rep.factors) == 1.0

    def test_initial_slope_must_be_in_cone(self):
        with pytest.raises(ValueError):
            orbit_expansion(TorusPoint(0.0, 0.0), 0.0, MapParams(50.0), 4, 3)
