"""Tests for the tangency curve machinery: the multivalued inverse, the
selector, the curves, the landmarks, and the tangency-free region."""

import math
import random

import numpy as np
import pytest

from hypermap.coordinates import critical_constants, phi, phi_tilde, theta_field
from hypermap.oracle import svd2
from hypermap.stdmap import MapParams, TorusPoint, angle_dist_mod_pi, jacobian
from hypermap.tangency import (
    MAX_CURVE_K,
    TangencySelectionError,
    gamma,
    no_tangency_scan,
    phi_inverse,
    residual_angle,
    tangency_curve,
    tangency_landmarks,
)

SQRT3 = math.sqrt(3.0)

# Frozen grid-scan minima (grid=256); regenerate by running no_tangency_scan.
SCAN_FIXTURE = {2.0: 0.5999198651748792, 10.0: 0.5413487062708713}


def consts(k):
    return critical_constants(MapParams(k))


def assert_oracle_tangencies(params):
    """Both curves have residuals < 1e-8 and lie on either side of 1/2, and
    every 16th point is a tangency of the contracted directions of the SVD
    oracle, not only of the closed-form fields."""
    ytilde, (lower, res_lower), (upper, res_upper) = tangency_curve(params, 1024)
    assert max(res_lower.max(), res_upper.max()) < 1e-8
    assert np.all(lower < 0.5) and np.all(upper > 0.5)
    for curve in (lower, upper):
        for yt, y in zip(ytilde[::16].tolist(), curve[::16].tolist()):
            forward = svd2(jacobian(TorusPoint(0.0, y), params, "forward")).dir_min
            backward = svd2(jacobian(TorusPoint(0.0, yt), params, "backward")).dir_min
            assert forward.dist(backward) < 1e-8


def reference_scan_min(params, grid):
    """The per-cell double loop no_tangency_scan replaced: (min, y, ytilde)."""
    dm = consts(params.k).delta_minus
    half = grid // 2
    ys = [dm * j / (half - 1) for j in range(half)]
    ys += [1.0 - y for y in ys]
    best = (math.inf, 0.0, 0.0)
    for y in ys:
        th_f = theta_field(y, params, "forward").theta
        for i in range(grid):
            yt = (y - i / grid) % 1.0
            d = angle_dist_mod_pi(th_f, theta_field(yt, params, "backward").theta)
            if d < best[0]:
                best = (d, y, yt)
    return best


def reference_refine(y, ytilde, params):
    """Scalar secant refinement along y, one sample at a time."""
    def diff(yy):
        a = theta_field(yy, params, "forward").theta
        b = theta_field(ytilde, params, "backward").theta
        d = (a - b) % math.pi
        return d - math.pi if d > math.pi / 2.0 else d

    h = 1e-9
    for _ in range(3):
        d0 = diff(y)
        if abs(d0) < 1e-13:
            break
        slope = (diff(y + h) - d0) / h
        if slope == 0.0:
            break
        step = -d0 / slope
        if abs(step) > 1e-6:
            break
        y += step
    return y


class TestPhiInverse:
    def test_round_trip_random(self):
        # Random y avoiding asymptotes and the two turning points (where
        # phi' = 0 makes y-recovery from phi intrinsically sqrt(eps)-bad).
        rng = random.Random(31)
        params = MapParams(2.0)
        checked = 0
        while checked < 1000:
            y = rng.random()
            v = phi(y, params)
            if not math.isfinite(v) or v == 0.0 or abs(v) > 1e7:
                continue
            if abs(math.sin(2 * math.pi * y)) < 1e-3:
                continue
            roots = phi_inverse(v, params)
            assert roots, f"no roots returned for z = {v}"
            assert min(abs(r - y) for r in roots) < 1e-10
            checked += 1

    def test_forward_evaluation_inverse(self):
        params = MapParams(2.0)
        z = phi(0.3, params)
        assert min(abs(r - 0.3) for r in phi_inverse(z, params)) < 1e-12

    def test_residual_contract(self):
        # phi at each returned root matches z to 1e-10 relative.
        rng = random.Random(32)
        for k in (1.0, 10.0, 100.0):
            params = MapParams(k)
            for _ in range(300):
                z = math.tan((rng.random() - 0.5) * math.pi * 0.999)  # heavy tails
                for r in phi_inverse(z, params):
                    assert abs(phi(r, params) - z) <= 1e-10 * max(1.0, abs(z))

    def test_contains_closed_form_hat_constant(self):
        # The acos closed forms are exactly the phi = -+sqrt(3)/2 preimages.
        c = consts(2.0)
        roots = phi_inverse(-SQRT3 / 2, MapParams(2.0))
        assert min(abs(r - c.delta_hat_T_minus) for r in roots) < 1e-10
        assert min(abs(r - (1 - c.delta_hat_T_minus)) for r in roots) < 1e-10

    def test_contains_delta_T_minus(self):
        params = MapParams(5.0)
        c = consts(5.0)
        roots = [
            r
            for r in phi_inverse(phi_tilde(0.0, params), params)
            if c.delta_minus <= r <= c.delta_plus
        ]
        assert len(roots) == 1
        assert roots[0] == pytest.approx(c.delta_T_minus, abs=1e-12)

    def test_mirror_pairs(self):
        params = MapParams(3.0)
        roots = phi_inverse(-2.5, params)
        assert len(roots) % 2 == 0
        for r in roots:
            assert any(abs((1 - r) - s) < 1e-9 for s in roots)

    def test_rejects_zero_and_infinity(self):
        with pytest.raises(ValueError):
            phi_inverse(0.0, MapParams(1.0))
        with pytest.raises(ValueError):
            phi_inverse(math.inf, MapParams(1.0))


class TestGamma:
    def test_landmark_values(self):
        for k in (1.0, 5.0, 20.0):
            params = MapParams(k)
            c = consts(k)
            lo, hi = gamma(c.delta_star, params)
            assert lo == pytest.approx(c.delta_plus, abs=1e-12)
            assert hi == pytest.approx(1 - c.delta_plus, abs=1e-12)
            lo, _ = gamma(0.0, params)
            assert lo == pytest.approx(c.delta_T_minus, abs=1e-10)
            lo, _ = gamma(0.5, params)
            assert lo == pytest.approx(c.delta_T_plus, abs=1e-10)

    def test_exactly_two_values(self):
        for k in (1.0, 5.0, 20.0):
            params = MapParams(k)
            for j in range(4096):
                lo, hi = gamma(j / 4096, params)
                assert lo < hi

    def test_mirror_symmetry(self):
        params = MapParams(4.0)
        for j in range(1, 512):
            yt = j / 1024  # sweep [0, 1/2)
            a = gamma(yt, params)
            b = gamma(1.0 - yt, params)
            assert a[0] == pytest.approx(b[0], abs=1e-10)
            assert a[1] == pytest.approx(b[1], abs=1e-10)

    def test_lower_upper_split(self):
        params = MapParams(7.0)
        for j in range(256):
            lo, hi = gamma(j / 256, params)
            assert lo < 0.5 < hi
            assert hi == pytest.approx(1.0 - lo, abs=1e-9)

    def test_undefined_for_small_k(self):
        with pytest.raises(TangencySelectionError):
            gamma(0.3, MapParams(0.1))


class TestTangencyCurve:
    def test_residuals_and_containment(self):
        for k in (2.0, 10.0):
            params = MapParams(k)
            c = consts(k)
            _, lower, upper = tangency_curve(params, 1024)
            for y, res in (lower, upper):
                assert np.all(res < 1e-8)
                assert all(c.tangency_strip_contains(v, slack=1e-12) for v in y.tolist())
                # never inside the tangency-free strips
                assert not np.any((y <= c.delta_minus) | (y >= 1 - c.delta_minus))

    def test_branch_continuity(self):
        params = MapParams(5.0)
        n = 1024
        _, lower, upper = tangency_curve(params, n)
        for y, _ in (lower, upper):
            assert np.all(np.abs(np.diff(y)) < 10.0 / n)

    def test_branch_labels(self):
        # The first curve is the lower one, the second the upper one.
        _, (lower, _), (upper, _) = tangency_curve(MapParams(3.0), 64)
        assert np.all(lower < 0.5) and np.all(upper > 0.5)

    def test_envelope_strictly_inside_hat_strip(self):
        # The extreme heights sit at the phi = -+sqrt(3) preimages, strictly
        # between the closed-form strip bounds (phi = -+sqrt(3)/2 preimages).
        params = MapParams(10.0)
        c = consts(10.0)
        _, (lower, _), _ = tangency_curve(params, 2048)
        y_min, y_max = float(lower.min()), float(lower.max())
        assert c.delta_hat_T_minus < y_min < y_max < c.delta_hat_T_plus
        assert phi(y_min, params) == pytest.approx(-SQRT3, abs=1e-2)
        assert phi(y_max, params) == pytest.approx(SQRT3, abs=1e-2)

    def test_matches_per_sample_reference(self):
        for k in (0.6, 2.0, 10.0, 137.0):
            params = MapParams(k)
            n = 512
            ytilde, (lower, res_lower), (upper, _) = tangency_curve(params, n)
            for i in range(n):
                yt = i / n
                lo, hi = gamma(yt, params)
                assert ytilde[i] == yt
                assert abs(lower[i] - reference_refine(lo, yt, params)) <= 1e-12
                assert abs(upper[i] - reference_refine(hi, yt, params)) <= 1e-12
                assert res_lower[i] == pytest.approx(residual_angle(float(lower[i]), yt, params), abs=1e-15)

    @pytest.mark.parametrize("k", [0.35, 0.4, 0.45, 0.48, 0.49])
    def test_partly_defined_k_range(self, k):
        # Below k ~ 0.4931 delta_hat_T^+ is undefined, yet the selector finds
        # both curves.
        assert consts(k).delta_hat_T_plus is None
        assert_oracle_tangencies(MapParams(k))

    @pytest.mark.parametrize("k", [1e5, 1e6, MAX_CURVE_K])
    def test_large_k_range(self, k):
        # At ytilde = 0 the smaller root of phi^{-1} lies below delta^- by
        # only 1/(8 pi^3 k^2), 4e-13 at k = 1e5, well inside a 1e-12 cushion.
        c = consts(k)
        assert 0.0 < c.delta_minus - phi_inverse(phi_tilde(0.0, MapParams(k)), MapParams(k))[0] < 1e-12
        assert_oracle_tangencies(MapParams(k))

    def test_no_curves_above_max_curve_k(self):
        # At k = 1e7 one ulp of a height turns the fields apart by ~1e-8.
        with pytest.raises(TangencySelectionError, match="k = 2e\\+06"):
            tangency_curve(MapParams(1e7), 1024)
        assert tangency_landmarks(MapParams(1e7)) == [None] * 8

    def test_selection_failure_is_a_value_error(self):
        with pytest.raises(TangencySelectionError) as info:
            tangency_curve(MapParams(0.3), 64)
        assert isinstance(info.value, ValueError)
        assert "k = 0.3" in str(info.value)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            tangency_curve(MapParams(2.0), 8)


class TestTangencyLandmarks:
    def test_all_present_and_sharp(self):
        for k in (1.0, 5.0, 20.0, 100.0):
            marks = tangency_landmarks(MapParams(k))
            assert all(tp is not None for tp in marks)
            for tp in marks:
                assert tp.residual < 1e-8

    def test_exact_coordinates(self):
        k = 5.0
        params = MapParams(k)
        c = consts(k)
        p1, p2, p3, p4, p5, p6, p7, p8 = tangency_landmarks(params)
        assert p1.ytilde == 0.0 and p1.y == pytest.approx(c.delta_T_minus, abs=1e-10)
        assert p2.ytilde == pytest.approx(c.delta_minus)
        assert p3.y == pytest.approx(c.delta_plus, abs=1e-10)
        assert p4.ytilde == pytest.approx(c.delta_plus)
        assert p5.ytilde == 0.5 and p5.y == pytest.approx(c.delta_T_plus, abs=1e-10)
        assert p7.y == pytest.approx(c.delta_plus, abs=1e-10)

    def test_mirror_structure(self):
        # P6, P7, P8 mirror P4, P3, P2 with equal heights.
        marks = tangency_landmarks(MapParams(8.0))
        for a, b in ((marks[3], marks[5]), (marks[2], marks[6]), (marks[1], marks[7])):
            assert a.y == pytest.approx(b.y, abs=1e-10)
            assert a.ytilde == pytest.approx(1.0 - b.ytilde, abs=1e-12)

    def test_extreme_heights_at_sqrt3_preimages(self):
        # P2/P8 sit at phi = -sqrt3, P4/P6 at phi = +sqrt3 (k-free values).
        for k in (1.0, 30.0):
            params = MapParams(k)
            marks = tangency_landmarks(params)
            assert phi(marks[1].y, params) == pytest.approx(-SQRT3, abs=1e-9)
            assert phi(marks[3].y, params) == pytest.approx(SQRT3, abs=1e-9)

    def test_x_ordering(self):
        # Torus x-positions: P3 leftmost, then P2, then P1 far away near 1/4.
        for k in (1.0, 5.0, 20.0):
            marks = tangency_landmarks(MapParams(k))
            assert marks[2].x < marks[1].x < marks[0].x
            assert marks[0].x > 0.2

    def test_unavailable_below_validity(self):
        # At k = 0.3 the selector still works near ytilde = 0 but degenerates
        # at ytilde = delta^+ (both inverse branches leave the acos domain).
        marks = tangency_landmarks(MapParams(0.3))
        assert marks[3] is None and marks[5] is None
        assert marks[0] is not None


class TestNoTangencyScan:
    def test_minimum_positive_and_frozen(self):
        for k, want in SCAN_FIXTURE.items():
            rep = no_tangency_scan(MapParams(k), 256)
            assert rep.min_angle > 0.0
            assert rep.min_angle == pytest.approx(want, abs=1e-6)

    def test_quadrant_reasoning(self):
        # In the scanned strips the forward field has canonical angle in
        # (pi/2, pi); the backward field always in (0, pi/2).
        params = MapParams(10.0)
        c = consts(10.0)
        for j in range(256):
            y = c.delta_minus * j / 255
            t = theta_field(y, params, "forward").theta
            assert math.pi / 2 < t < math.pi
            t = theta_field(1.0 - y, params, "forward").theta
            assert math.pi / 2 < t < math.pi

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            no_tangency_scan(MapParams(2.0), 32)

    def test_matches_cell_loop(self):
        for k in (0.6, 2.0, 10.0, 137.0):
            for grid in (64, 128, 256):
                rep = no_tangency_scan(MapParams(k), grid)
                want, _, _ = reference_scan_min(MapParams(k), grid)
                assert abs(rep.min_angle - want) <= 1e-15
                assert angle_dist_mod_pi(
                    theta_field(rep.at_y, MapParams(k), "forward").theta,
                    theta_field(rep.at_ytilde, MapParams(k), "backward").theta,
                ) == pytest.approx(rep.min_angle, abs=1e-15)


class TestResidualAngle:
    def test_matches_field_difference(self):
        params = MapParams(6.0)
        rng = random.Random(40)
        for _ in range(200):
            y, yt = rng.random(), rng.random()
            want = angle_dist_mod_pi(
                theta_field(y, params, "forward").theta,
                theta_field(yt, params, "backward").theta,
            )
            assert residual_angle(y, yt, params) == want

    def test_array_matches_scalar(self):
        params = MapParams(6.0)
        rng = np.random.default_rng(41)
        y, yt = rng.random(1000), rng.random(1000)
        want = [residual_angle(a, b, params) for a, b in zip(y.tolist(), yt.tolist())]
        assert np.max(np.abs(residual_angle(y, yt, params) - want)) <= 1e-15


class TestAsymptotics:
    def test_hat_strip_widths(self):
        # k * (delta_hat_T^- - delta^-) -> (4 sqrt3/3)/(8 pi^2) and
        # k * (delta_hat_T^+ - delta^+) -> 2 sqrt3/(8 pi^2), within 2%.
        k = 1000.0
        c = consts(k)
        eight_pi_sq = 8 * math.pi**2
        got = k * (c.delta_hat_T_minus - c.delta_minus)
        assert got == pytest.approx((4 * SQRT3 / 3) / eight_pi_sq, rel=0.02)
        got = k * (c.delta_hat_T_plus - c.delta_plus)
        assert got == pytest.approx(2 * SQRT3 / eight_pi_sq, rel=0.02)

    def test_gap_scaling_exponents(self):
        # |delta_T^+ - delta_T^-| shrinks like 1/k^2 while the hat-strip
        # width shrinks like 1/k; only the log-log slopes are pinned.
        def gaps(k):
            c = consts(k)
            return c.delta_T_plus - c.delta_T_minus, c.delta_hat_T_plus - c.delta_hat_T_minus

        t_lo, hat_lo = gaps(50.0)
        t_hi, hat_hi = gaps(500.0)
        slope_t = math.log(t_hi / t_lo) / math.log(10.0)
        slope_hat = math.log(hat_hi / hat_lo) / math.log(10.0)
        assert slope_t == pytest.approx(-2.0, abs=0.2)
        assert slope_hat == pytest.approx(-1.0, abs=0.2)
