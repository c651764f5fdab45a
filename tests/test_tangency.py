"""Tests for the tangency curve machinery: the multivalued inverse, the
selector, the curves, the landmarks, and the tangency-free region."""

import math
import random

import mpmath
import numpy as np
import pytest

from hypermap import tangency
from hypermap.coordinates import (backward_angle, critical_constants, forward_angle, phi, phi_inverse, phi_tilde,
                                  strip_pair_contains, theta_field)
from hypermap.oracle import svd2
from hypermap.stdmap import MapParams, TorusPoint, angle_dist_mod_pi, jacobian
from hypermap.tangency import (
    MAX_CURVE_K,
    NoTangencyReport,
    TangencySelectionError,
    gamma,
    no_tangency_scan,
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


def row_loop_scan(params, grid):
    """no_tangency_scan as a loop over rows that evaluates every cell: the
    reference the bracketed scan must equal bit for bit."""
    dm = consts(params.k).delta_minus
    half = grid // 2
    ys = [dm * j / (half - 1) for j in range(half)]
    ys += [1.0 - y for y in ys]
    x = np.arange(grid) / grid
    best = math.inf
    best_y = best_yt = 0.0
    for y in ys:
        yt = (y - x) % 1.0
        d = residual_angle(y, yt, params)
        i = int(np.argmin(d))
        if d[i] < best:
            best, best_y, best_yt = float(d[i]), y, float(yt[i])
    return NoTangencyReport(params.k, grid, best, best_y, best_yt)


def scan_pairs(n, seed, grids=(64, 256)):
    """(k, grid) pairs: k log-uniform on [0.06, 1e4], after four k next to
    where delta^- (k ~ 0.0583) and delta^+ (k ~ 0.2174) appear; grids
    uniform, odd ones included."""
    rng = random.Random(seed)
    ks = [0.06, 0.2, 0.2174, 0.22] + [math.exp(rng.uniform(math.log(0.06), math.log(1e4))) for _ in range(n - 4)]
    return [(k, rng.randrange(*grids)) for k in ks]


def scan_infimum(k):
    """Infimum of the residual over the tangency-free strips where delta^+ exists,
    in mpmath: pi/6 + atan2(4K + 2, 2K^2 + 2K - 1)/2 with K = 2 pi k, reached
    at y = 0 against ytilde = delta^+ (where the backward field is pi/6)."""
    with mpmath.workdps(30):
        big_k = 2 * mpmath.pi * mpmath.mpf(k)
        return +(mpmath.pi / 6 + mpmath.atan2(4 * big_k + 2, 2 * big_k**2 + 2 * big_k - 1) / 2)


def mp_residual(y, ytilde, k):
    """The residual angle of one cell, from the two field formulas in mpmath."""
    with mpmath.workdps(30):
        two_pi_k = 2 * mpmath.pi * mpmath.mpf(k)
        p, q = two_pi_k * mpmath.cos(2 * mpmath.pi * y), two_pi_k * mpmath.cos(2 * mpmath.pi * ytilde)
        forward = mpmath.pi + mpmath.atan2(-(4 * p + 2), 2 * p * p + 2 * p - 1) / 2
        backward = mpmath.pi / 2 + mpmath.atan2(-2 * (q * q + q + 1), 2 * q + 1) / 2
        d = (forward - backward) % mpmath.pi
        return min(d, mpmath.pi - d)


def full_array_refined(y, ytilde, params):
    """_refined with every step on the whole arrays: the reference for the
    polish that evaluates only the samples still active."""
    b = backward_angle(ytilde, params) % math.pi

    def diff(yy):
        d = (forward_angle(yy, params) % math.pi - b) % math.pi
        return np.where(d > math.pi / 2.0, d - math.pi, d)

    h = 1e-9
    active = np.ones(np.shape(y), dtype=bool)
    for _ in range(3):
        d0 = diff(y)
        slope = (diff(y + h) - d0) / h
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -d0 / slope
        active &= (np.abs(d0) >= 1e-13) & (slope != 0.0) & (np.abs(step) <= 1e-6)
        y = np.where(active, y + step, y)
    return y, residual_angle(y, ytilde, params)


def counting(monkeypatch, name):
    """Replace tangency.<name> by a wrapper that counts the elements passed to
    it (seen[0]) and its calls with a scalar (seen[1])."""
    seen = [0, 0]
    inner = getattr(tangency, name)

    def counted(coord, params):
        seen[0] += np.size(coord)
        seen[1] += np.ndim(coord) == 0
        return inner(coord, params)

    monkeypatch.setattr(tangency, name, counted)
    return seen


def jittering_forward(monkeypatch, seed):
    """Replace tangency.forward_angle by a wrapper that moves each element of an
    array result by up to 8 ulps either way; scalar calls are untouched."""
    rng = np.random.default_rng(seed)
    inner = tangency.forward_angle

    def jittered(coord, params):
        a = inner(coord, params)
        if np.ndim(a) == 0:
            return a
        # The angles lie in [pi/2, 3 pi/2], so their bit patterns order like them.
        return (a.view(np.int64) + rng.integers(-8, 9, a.shape)).view(np.float64)

    monkeypatch.setattr(tangency, "forward_angle", jittered)


#: The seeded (k, grid) pairs the bracketed scan must agree with the row loop on:
#: 300 pairs, a few of them on large grids.
SEEDED_SCANS = scan_pairs(296, seed=19) + scan_pairs(8, seed=20, grids=(1024, 2048))[4:]


@pytest.fixture(scope="module")
def row_loop_reports():
    """The row loop's report on each seeded pair."""
    return [row_loop_scan(MapParams(k), grid) for k, grid in SEEDED_SCANS]


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
        # The selector behind gamma, one call a k: every sample has its pair
        # (gamma raises where ok is False) and lower < upper.
        ytilde = np.arange(4096) / 4096
        for k in (1.0, 5.0, 20.0):
            params = MapParams(k)
            lower, upper, ok = tangency._select(ytilde, params, critical_constants(params))
            assert ok.all(), ytilde[~ok][:5]
            assert np.all(lower < upper), ytilde[~(lower < upper)][:5]

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
            lo, hi = c.delta_hat_T_minus - 1e-12, c.delta_hat_T_plus + 1e-12
            _, lower, upper = tangency_curve(params, 1024)
            for y, res in (lower, upper):
                assert np.all(res < 1e-8)
                assert all(strip_pair_contains(v, lo, hi) for v in y.tolist())
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

    @pytest.mark.parametrize("k", [0.5, 0.6, 3.0, 20.0, 150.0, 200.0, 1e4, MAX_CURVE_K])
    def test_polish_equals_full_array_steps(self, k):
        # At k = 150 some samples stay active after the first step (a tenth of
        # the lower curve, two thirds of the upper), and at k >= 1e4 most run
        # all three steps.
        params = MapParams(k)
        for n in (16, 1000, 4096):
            ytilde, lower, upper = tangency_curve(params, n)
            lo, hi, _ = tangency._select(ytilde, params, consts(k))
            for got, start in ((lower, lo), (upper, hi)):
                want = full_array_refined(start, ytilde, params)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (k, n)
        c = consts(k)
        ytilde = np.array([0.0, c.delta_minus, c.delta_star, c.delta_plus, 0.5])
        want = full_array_refined(tangency._select(ytilde, params, c)[0], ytilde, params)
        assert [(tp.y, tp.residual) for tp in tangency_landmarks(params)[:5]] == list(zip(*(w.tolist() for w in want)))

    @pytest.mark.parametrize("k", [0.6, 3.0, 20.0])
    def test_polish_stops_when_no_sample_moves(self, monkeypatch, k):
        # One check at y and y + h, whose forward angle the residual reuses:
        # 2 evaluations a sample (7 with every step on the whole arrays and
        # the residual evaluated afresh).
        seen = counting(monkeypatch, "forward_angle")
        tangency_curve(MapParams(k), 4096)
        assert seen[0] <= 2 * 2.1 * 4096

    @pytest.mark.parametrize("k", [0.6, 20.0, 1e4])
    def test_backward_field_once_per_sample(self, monkeypatch, k):
        # Both curves are polished against one evaluation of the backward field.
        seen = counting(monkeypatch, "backward_angle")
        for n in (16, 1000, 4096):
            seen[0] = 0
            tangency_curve(MapParams(k), n)
            assert seen[0] == n, (k, n)

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

    def test_equals_the_row_loop_bit_for_bit(self, row_loop_reports):
        for (k, grid), want in zip(SEEDED_SCANS, row_loop_reports):
            assert no_tangency_scan(MapParams(k), grid) == want, (k, grid)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_recheck_absorbs_array_ulps(self, monkeypatch, row_loop_reports, seed):
        # The scan picks its rows with the array forward angle and reports
        # from the scalar one.  Moving every array angle by up to 8 ulps,
        # where numpy's arctan2 and cos were seen to move it by at most one,
        # changes no report: the rows the array path ranks within 1e-12 of
        # the least hold the row loop's answer, and they are evaluated again.
        # A row and its mirror about y = 1/2 tie to a few ulps, so a scan
        # that reported from the array path's least row alone would lose
        # the tie-break.
        jittering_forward(monkeypatch, seed)
        for (k, grid), want in zip(SEEDED_SCANS, row_loop_reports):
            assert no_tangency_scan(MapParams(k), grid) == want, (k, grid)

    def test_rechecks_at_most_four_rows(self, monkeypatch):
        # A row and its mirror about y = 1/2 tie to a few ulps, so most scans
        # recheck two.
        seen = counting(monkeypatch, "forward_angle")
        for k, grid in SEEDED_SCANS:
            seen[1] = 0
            no_tangency_scan(MapParams(k), grid)
            assert 1 <= seen[1] <= 4, (k, grid, seen[1])

    def test_evaluates_o_grid_cells(self, monkeypatch):
        seen = counting(monkeypatch, "backward_angle")
        for k, grid in ((0.1, 64), (2.0, 256), (10.0, 1024), (137.0, 2047)):
            seen[0] = 0
            no_tangency_scan(MapParams(k), grid)
            assert 0 < seen[0] <= 32 * grid, (k, grid, seen[0])


class TestScanOracle:
    """The scan against the mathematics, not against another scan: the ranges
    of the two fields on the strips, and the exact infimum of the residual."""

    #: delta^+ exists, and the backward field reaches pi/6, from k = (1 + sqrt 3)/(4 pi) ~ 0.217409 on.
    K_PLUS = (1.0 + SQRT3) / (4.0 * math.pi)
    KS = (0.2175, 0.35, 0.6, 2.0, 10.0, 137.0, 1e4)

    def test_backward_range_is_pi6_to_pi3(self):
        lo, hi = float(mpmath.pi / 6), float(mpmath.pi / 3)
        for k in self.KS + (0.06, 0.2, 0.2174):
            params = MapParams(k)
            b = backward_angle(np.linspace(0.0, 1.0, 200_001), params) % math.pi
            assert lo - 1e-15 <= b.min() and b.max() <= hi + 1e-15, k
            if k >= self.K_PLUS:
                c = consts(k)
                assert backward_angle(c.delta_plus, params) == pytest.approx(lo, abs=1e-9)
                assert backward_angle(c.delta_minus, params) == pytest.approx(hi, abs=1e-9)
        # The turning values in mpmath: at psi_c = (sqrt 3 - 1)/2 and -(1 + sqrt 3)/2.
        with mpmath.workdps(40):
            for q, want in (((mpmath.sqrt(3) - 1) / 2, mpmath.pi / 3), (-(1 + mpmath.sqrt(3)) / 2, mpmath.pi / 6)):
                got = mpmath.pi / 2 + mpmath.atan2(-2 * (q * q + q + 1), 2 * q + 1) / 2
                assert mpmath.almosteq(got, want, 1e-35)

    def test_forward_falls_to_3pi4_on_the_strip(self):
        for k in self.KS + (0.06, 0.2, 0.2174):
            params = MapParams(k)
            dm = consts(k).delta_minus
            assert forward_angle(dm, params) % math.pi == pytest.approx(3 * math.pi / 4, abs=1e-12 * max(1.0, k))
            f = forward_angle(np.linspace(0.0, dm, 100_001), params) % math.pi
            assert np.all(np.diff(f) <= 0.0) and f[0] < math.pi, k
            g = forward_angle(1.0 - np.linspace(0.0, dm, 100_001), params) % math.pi
            assert np.all(np.diff(g) <= 0.0) and g[0] < math.pi, k

    def test_minimum_between_infimum_and_nearest_cell(self):
        # Every scan lies at or above the infimum.  The row y = 0 holds the
        # column nearest to ytilde = delta^+, so no scan lies above that cell
        # by more than the rounding of the float fields (up to 4e-16 seen).
        rng = random.Random(23)
        for _ in range(60):
            k = math.exp(rng.uniform(math.log(self.K_PLUS), math.log(1e4)))
            grid = rng.randrange(64, 4097)
            rep = no_tangency_scan(MapParams(k), grid)
            dp = consts(k).delta_plus
            j = math.floor(-dp * grid)
            near = min(((0.0 - (i % grid) / grid) % 1.0 for i in range(j - 1, j + 3)), key=lambda yt: abs(yt - dp))
            assert rep.min_angle >= scan_infimum(k), (k, grid)
            assert rep.min_angle <= mp_residual(0.0, near, k) + 2e-15, (k, grid)

    @pytest.mark.parametrize("k", [0.35, 0.6, 2.0, 5.0])
    def test_fine_scan_reaches_the_infimum(self, k):
        # Where one column moves psi_c near delta^+ by at most 4 pi^2 k / grid
        # = 0.05, the grid-4096 minimum lies within 1e-4 of the infimum.
        assert float(no_tangency_scan(MapParams(k), 4096).min_angle - scan_infimum(k)) < 1e-4


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
