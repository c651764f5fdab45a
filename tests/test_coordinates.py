"""Tests for the closed-form direction fields and strip constants.

Every closed-form angle is cross-checked against the two brute-force
oracles (closed-form SVD and exhaustive angle sweep); no production formula
is validated only against itself.
"""

import math
import random

import numpy as np
import pytest

from hypermap.coordinates import (
    backward_angle,
    critical_constants,
    forward_angle,
    gap_mod_pi,
    hyperbolic_frame,
    mod_one,
    mod_pi,
    phi,
    phi_inverse,
    phi_inverse_branch,
    phi_parts,
    phi_prime,
    phi_tilde,
    phi_tilde_parts,
    psi_inverse,
    psi_prime,
    strip_pair_contains,
    theta_field,
)
from hypermap.oracle import fd_derivative, svd2, sweep_min_direction
from hypermap.stdmap import (
    MapParams,
    ParameterError,
    TorusPoint,
    angle_dist_mod_pi,
    jacobian,
    map_forward,
    map_inverse,
    psi,
)

TWO_PI = 2 * math.pi
SQRT3 = math.sqrt(3.0)
K_SET = (1.0, 2.0, 5.0, 10.0, 100.0)


def consts(k):
    return critical_constants(MapParams(k))


def phi_tilde_prime(ytilde, params):
    """Analytic derivative of phitilde: -2 P1(psi_c) / P2'(psi_c)^2 * psi_c'.

    Both leading signs matter: psi_c' = -4 pi^2 k sin(2 pi ytilde) and the
    ratio derivative carries its own minus, so phitilde increases on
    (0, delta^-).
    """
    p = psi(ytilde, params)
    d2 = 2.0 * p + 1.0
    return -2.0 * ((2.0 * p + 2.0) * p - 1.0) / (d2 * d2) * psi_prime(ytilde, params)


def forward_vectors(y, params):
    """Unit vectors of the E1 field (theta_field) and the F1 field (pi/2 further) at y."""
    t = theta_field(y, params).theta
    return (math.cos(t), math.sin(t)), (math.cos(t + 0.5 * math.pi), math.sin(t + 0.5 * math.pi))


class TestPsi:
    def test_values(self):
        p1 = MapParams(1.0)
        assert psi(0.0, p1) == TWO_PI
        assert abs(psi(0.25, p1)) < 1e-12
        assert psi(0.0, p1, kind="sin") == 0.0
        assert psi(0.125, MapParams(2.0), kind="sin") == pytest.approx(
            4 * math.pi * math.sin(math.pi / 4), rel=1e-15
        )

    def test_one_formula_for_y_and_ytilde(self):
        # The same psi_c is the shear entry of the forward derivative at
        # height y and of the backward derivative at diagonal coordinate
        # ytilde; psi takes no argument saying which one it is given.
        p = MapParams(3.0)
        assert psi(0.3, p) == jacobian(TorusPoint(0.0, 0.3), p, "forward").a12
        assert -psi(0.3, p) == jacobian(TorusPoint(0.0, 0.3), p, "backward").a12
        with pytest.raises(TypeError):
            psi(0.3, p, frame="diagonal")

    def test_on_strip_boundary(self):
        # psi_c at the Delta^(m) boundary cancels to exactly 2m analytically.
        from hypermap.hyperbolicity import delta_strip

        strip = delta_strip(3, MapParams(10.0))
        assert psi(strip.delta_m, MapParams(10.0)) == pytest.approx(6.0, rel=1e-12)
        assert psi(strip.delta_neg_m, MapParams(10.0)) == pytest.approx(-6.0, rel=1e-12)

    def test_prime_sign(self):
        # psi_c' = -4 pi^2 k sin(2 pi y): negative just above y = 0.
        p = MapParams(1.0)
        assert psi_prime(0.1, p) < 0
        got = fd_derivative(lambda y: psi(y, p), 0.1, 1e-6)
        assert got == pytest.approx(psi_prime(0.1, p), rel=1e-7)


class TestPsiInverse:
    K_INV = (0.3, 1.0, 10.0, 3000.0, 1e5, 1e12)

    def test_inverts_psi(self):
        eps = 2.0**-52
        for k in self.K_INV:
            p, amp = MapParams(k), TWO_PI * k
            for v in np.linspace(-amp, amp, 1025).tolist():
                y = psi_inverse(v, p)
                assert 0.0 <= y <= 0.5
                assert abs(psi(y, p) - v) <= 4.0 * eps * amp
        assert psi_inverse(TWO_PI, MapParams(1.0)) == 0.0
        assert psi_inverse(-TWO_PI, MapParams(1.0)) == 0.5

    def test_out_of_range_is_nan(self):
        p = MapParams(2.0)
        amp = TWO_PI * 2.0
        for v in (math.nextafter(amp, math.inf), -math.nextafter(amp, math.inf), 1e300, -math.inf, math.nan):
            assert math.isnan(psi_inverse(v, p))
        for each in (False, True):
            got = psi_inverse(np.array([-1.01 * amp, -amp, 0.0, amp, 1.01 * amp, math.nan]), p, each)
            assert np.isnan(got).tolist() == [True, False, False, False, True, True]

    def test_float_and_array_paths(self):
        # Both take acos of the same argument; numpy's arccos may differ from
        # libm's acos in the last ulp (about 8 % of arguments on an AVX-512
        # build), which is two ulps of y where acos lies in [2, pi].  With
        # each, an array takes libm's acos and the float path's bits.
        for k in self.K_INV:
            p, amp = MapParams(k), TWO_PI * k
            v = np.random.default_rng(int(k * 10)).uniform(-1.05 * amp, 1.05 * amp, 4096)
            got = psi_inverse(v, p)
            want = np.array([psi_inverse(x, p) for x in v.tolist()])
            assert isinstance(got, np.ndarray)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            ok = ~np.isnan(want)
            assert np.all(np.abs(got[ok] - want[ok]) <= 2.0 * np.spacing(want[ok]))
            assert same_bits(psi_inverse(v, p, each=True), want)

    def test_closed_form_constants_bit_for_bit(self):
        # The acos expressions the five constants were written as before psi_inverse.
        coeffs = {
            "delta_minus": SQRT3 - 1.0,
            "delta_star": -1.0,
            "delta_plus": -(1.0 + SQRT3),
            "delta_hat_T_minus": -(1.0 + SQRT3 / 3.0),
            "delta_hat_T_plus": -(1.0 + 3.0 * SQRT3),
        }
        for k in np.geomspace(0.05, 1e12, 1000).tolist():
            p = MapParams(k)
            c = critical_constants(p).as_dict()
            for name, coeff in coeffs.items():
                arg = coeff / (4.0 * math.pi * k)
                assert p.defined[name] == (abs(arg) <= 1.0)
                want = math.acos(arg) / TWO_PI if abs(arg) <= 1.0 else None
                assert c[name] == want, (k, name)


class TestFloatOrArray:
    """Array evaluation against the scalar (math) path, element by element."""

    K_ARRAY = (0.6, 2.0, 10.0, 137.0)

    @staticmethod
    def _ys(k):
        return np.random.default_rng(int(k * 10)).random(4096)

    def test_psi_and_parts_exact(self):
        for k in self.K_ARRAY:
            p, ys = MapParams(k), self._ys(k)
            for fn in (psi, psi_prime, lambda y, q: psi(y, q, kind="sin"), phi, phi_tilde):
                got = fn(ys, p)
                assert isinstance(got, np.ndarray)
                assert np.array_equal(got, [fn(y, p) for y in ys.tolist()])
            for fn in (phi_parts, phi_tilde_parts):
                num, den = fn(ys, p)
                want = np.array([fn(y, p) for y in ys.tolist()])
                assert np.array_equal(num, want[:, 0]) and np.array_equal(den, want[:, 1])

    def test_angles_within_one_ulp(self):
        # numpy's arctan2 and libm's atan2 may differ in the last ulp.
        for k in self.K_ARRAY:
            p, ys = MapParams(k), self._ys(k)
            for fn in (forward_angle, backward_angle):
                got = fn(ys, p)
                want = np.array([fn(y, p) for y in ys.tolist()])
                assert np.max(np.abs(got - want)) <= 1e-15

    def test_angle_paths_within_their_ulp_bounds(self):
        # The bounds the angles' docstrings derive: numpy's arctan2 is within
        # an ulp of math.atan2, so forward angles differ by at most one ulp
        # and backward angles, in [pi/6, pi/3], by at most two.
        rng = np.random.default_rng(41)
        worst = {forward_angle: 0.0, backward_angle: 0.0}
        for k in 10.0 ** rng.uniform(math.log10(0.05), 6.0, 60):
            p, ys = MapParams(float(k)), rng.random(1500)
            for fn in worst:
                want = np.array([fn(y, p) for y in ys.tolist()])
                worst[fn] = max(worst[fn], float(np.max(np.abs(fn(ys, p) - want) / np.spacing(want))))
        assert worst[forward_angle] <= 1.0 and worst[backward_angle] <= 2.0
        assert worst[forward_angle] > 0.0 and worst[backward_angle] > 1.0  # the paths do differ

    def test_scalars_take_the_math_path(self):
        # Numpy scalars and 0-d arrays give the float result bit for bit.  A
        # size-1 array of one dimension stays an array: math refuses it, and
        # a numpy that converted it would send it down the float path.
        p = MapParams(3.0)
        for y in self._ys(3.0)[:200].tolist():
            for fn in (forward_angle, backward_angle, psi):
                want = fn(y, p)
                assert fn(np.float64(y), p) == want and fn(np.array(y), p) == want
                one = fn(np.array([y]), p)
                assert isinstance(one, np.ndarray) and one.shape == (1,)

    def test_phi_inverse_branch_each_takes_the_float_path(self):
        # Each root of an array is the float path's bit for bit, NaN where a
        # branch has no root.
        rng = np.random.default_rng(42)
        for k in 10.0 ** rng.uniform(math.log10(0.3), 5.0, 40):
            p = MapParams(float(k))
            z = phi(rng.random(256), p)
            z = z[np.isfinite(z) & (z != 0.0)]
            signs = np.array([[1.0], [-1.0]])
            want = np.array([[phi_inverse_branch(v, s, p) for v in z.tolist()] for s in (1.0, -1.0)])
            assert same_bits(phi_inverse_branch(z, signs, p), want)

    def test_array_ratio_signed_infinity(self):
        from hypermap.coordinates import extended_ratio

        got = extended_ratio(np.array([1.0, -2.0, 3.0]), np.array([0.0, 0.0, 2.0]))
        assert got.tolist() == [math.inf, -math.inf, 1.5]


def same_bits(got, want):
    """Equal float64 arrays, sign bits included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def ulps_around(x, n=3):
    """x and the n floats on each side of it."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestReductions:
    """The masked reductions equal np.remainder bit for bit on their domains."""

    N = 10**6
    PI = math.pi

    def check(self, fn, period, values):
        values = np.array(values, dtype=float)
        assert same_bits(fn(values), np.remainder(values, period))
        for v in values[:1000].tolist():  # floats give the bits of Python's %
            got = fn(v)
            assert isinstance(got, float) and same_bits(got, v % period)

    def test_mod_pi_on_zero_to_two_pi(self):
        rng = np.random.default_rng(51)
        two_pi = 2.0 * self.PI
        ends = [0.0, math.nextafter(two_pi, 0.0), math.nextafter(math.nextafter(two_pi, 0.0), 0.0)]
        ends += ulps_around(self.PI / 2) + ulps_around(self.PI) + ulps_around(1.5 * self.PI)
        self.check(mod_pi, self.PI, ends)
        self.check(mod_pi, self.PI, rng.uniform(0.0, two_pi, self.N))
        # The lifted angles themselves: forward in [pi/2, 3 pi/2], backward in [0, pi].
        ys = rng.random(self.N // 4)
        for k in (0.6, 137.0):
            self.check(mod_pi, self.PI, forward_angle(ys, MapParams(k)))
            self.check(mod_pi, self.PI, backward_angle(ys, MapParams(k)))

    def test_gap_mod_pi_on_minus_pi_to_pi(self):
        rng = np.random.default_rng(52)
        inside = [math.nextafter(-self.PI, 0.0), math.nextafter(self.PI, 0.0)]
        ends = [0.0, -0.0, 5e-324, -5e-324] + inside + ulps_around(self.PI / 2) + ulps_around(-self.PI / 2)
        self.check(gap_mod_pi, self.PI, ends)
        assert math.copysign(1.0, gap_mod_pi(np.array([-0.0, 1.0]))[0]) == 1.0
        self.check(gap_mod_pi, self.PI, rng.uniform(-self.PI, self.PI, self.N))
        # Differences of canonical angles in [0, pi).
        a, b = (mod_pi(rng.uniform(0.0, 2.0 * self.PI, self.N)) for _ in range(2))
        self.check(gap_mod_pi, self.PI, a - b)

    def test_mod_one_on_minus_one_to_one(self):
        rng = np.random.default_rng(53)
        ends = [1.0, -1.0, 0.0, -0.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 2.0**-60, -(2.0**-60), -5e-324]
        self.check(mod_one, 1.0, ends)
        assert same_bits(mod_one(np.array([1.0, -1.0])), [0.0, 0.0])
        self.check(mod_one, 1.0, rng.uniform(-1.0, 1.0, self.N))
        # Differences of a height in [0, 1] and a column in [0, 1).
        self.check(mod_one, 1.0, rng.random(self.N) - rng.integers(0, 2048, self.N) / 2048)


class TestPhi:
    def test_zero_at_delta_star(self):
        for k in K_SET:
            c = consts(k)
            assert abs(phi(c.delta_star, MapParams(k))) < 1e-12
            assert abs(phi(1.0 - c.delta_star, MapParams(k))) < 1e-12

    def test_turning_point_values(self):
        # phi(0) = -(8 pi k + 2)/(8 pi^2 k^2 + 4 pi k - 1), directly from the
        # defining ratio of polynomials; mirrored with + at y = 1/2.
        for k in K_SET:
            got = phi(0.0, MapParams(k))
            want = -(8 * math.pi * k + 2) / (8 * math.pi**2 * k**2 + 4 * math.pi * k - 1)
            assert got == pytest.approx(want, rel=1e-13)
            got_half = phi(0.5, MapParams(k))
            want_half = (8 * math.pi * k - 2) / (8 * math.pi**2 * k**2 - 4 * math.pi * k - 1)
            assert got_half == pytest.approx(want_half, rel=1e-12)
            assert got < 0 < got_half

    def test_blows_up_at_asymptotes(self):
        for k in (1.0, 5.0, 50.0):
            c = consts(k)
            for y in (c.delta_minus, c.delta_plus, 1 - c.delta_plus, 1 - c.delta_minus):
                assert abs(phi(y, MapParams(k))) > 1e9

    def test_exact_asymptote_returns_signed_infinity(self):
        # Float coordinates almost never hit the asymptote exactly, so the
        # extended-real branch is pinned at the ratio level.
        from hypermap.coordinates import extended_ratio

        assert extended_ratio(3.0, 0.0) == math.inf
        assert extended_ratio(-3.0, 0.0) == -math.inf
        assert extended_ratio(1.0, 2.0) == 0.5

    def test_derivative_identity(self):
        # Central differences against 8 P2(psi)/P1(psi)^2 psi' at off-asymptote
        # points, 1000 samples.
        params = MapParams(2.0)
        checked = 0
        j = 0
        while checked < 1000:
            j += 1
            y = (j * 0.0009) % 1.0
            _, den = phi_parts(y, params)
            if abs(den) < 1.0 or abs(psi(y, params, kind="sin")) < 0.5:
                continue
            fd = fd_derivative(lambda t: phi(t, params), y, 1e-6)
            assert fd == pytest.approx(phi_prime(y, params), rel=1e-5)
            checked += 1


class TestPhiTilde:
    def test_never_zero(self):
        params = MapParams(3.0)
        for j in range(4096):
            assert phi_tilde(j / 4096, params) != 0.0

    def test_turning_values_independent_of_k(self):
        # psi_c(delta^-) = (sqrt3 - 1)/2 exactly, where P2 = 3/2 and
        # P2' = sqrt3, so phitilde(delta^-) = -2(3/2)/sqrt3 = -sqrt3; the
        # mirror argument at delta^+ gives +sqrt3.  Both are k-free.
        for k in K_SET:
            c = consts(k)
            p = MapParams(k)
            assert phi_tilde(c.delta_minus, p) == pytest.approx(-SQRT3, abs=1e-9)
            assert phi_tilde(1 - c.delta_minus, p) == pytest.approx(-SQRT3, abs=1e-9)
            assert phi_tilde(c.delta_plus, p) == pytest.approx(SQRT3, abs=1e-9)
            assert phi_tilde(1 - c.delta_plus, p) == pytest.approx(SQRT3, abs=1e-9)

    def test_signs_at_turning_points(self):
        # phitilde(0) ~ -2 pi k is negative; phitilde(1/2) ~ +2 pi k positive.
        for k in K_SET:
            p = MapParams(k)
            assert phi_tilde(0.0, p) < -k
            assert phi_tilde(0.5, p) > k

    def test_blows_up_at_delta_star(self):
        for k in (1.0, 5.0, 50.0):
            c = consts(k)
            assert abs(phi_tilde(c.delta_star, MapParams(k))) > 1e9
            assert abs(phi_tilde(1 - c.delta_star, MapParams(k))) > 1e9

    def test_derivative_identity(self):
        params = MapParams(2.0)
        checked = 0
        j = 0
        while checked < 1000:
            j += 1
            yt = (j * 0.0009) % 1.0
            _, den = phi_tilde_parts(yt, params)
            if abs(den) < 1.0 or abs(psi(yt, params, kind="sin")) < 0.5:
                continue
            fd = fd_derivative(lambda t: phi_tilde(t, params), yt, 1e-6)
            assert fd == pytest.approx(phi_tilde_prime(yt, params), rel=1e-5)
            checked += 1


class TestThetaField:
    def test_forward_landmarks(self):
        for k in (1.0, 5.0, 20.0):
            c = consts(k)
            p = MapParams(k)
            assert angle_dist_mod_pi(theta_field(c.delta_star, p).theta, math.pi / 2) < 1e-9
            assert angle_dist_mod_pi(theta_field(c.delta_minus, p).theta, 3 * math.pi / 4) < 1e-6
            assert angle_dist_mod_pi(theta_field(c.delta_plus, p).theta, math.pi / 4) < 1e-6

    def test_backward_landmarks(self):
        # atan(-+sqrt3) = -+pi/3, so the turning angles are exactly pi/3 at
        # delta^- (pi/2 - pi/6) and pi/6 at delta^+, independent of k.
        for k in (1.0, 5.0, 50.0):
            c = consts(k)
            p = MapParams(k)
            got = theta_field(c.delta_minus, p, "backward").theta
            assert got == pytest.approx(math.pi / 3, abs=1e-9)
            got = theta_field(c.delta_plus, p, "backward").theta
            assert got == pytest.approx(math.pi / 6, abs=1e-9)
            assert angle_dist_mod_pi(
                theta_field(c.delta_star, p, "backward").theta, math.pi / 4
            ) < 1e-9

    def test_backward_stays_in_open_first_quadrant(self):
        p = MapParams(7.0)
        for j in range(2048):
            t = theta_field(j / 2048, p, "backward").theta
            assert 0.0 < t < math.pi / 2

    def test_tan_double_angle_equals_phi(self):
        for k in (1.0, 10.0):
            p = MapParams(k)
            for j in range(1, 512):
                y = j / 512
                v = phi(y, p)
                if not math.isfinite(v) or abs(v) > 1e6:
                    continue
                t = theta_field(y, p, "forward").theta
                assert math.tan(2 * t) == pytest.approx(v, rel=1e-9, abs=1e-9)

    def test_symmetry_about_half(self):
        for time in ("forward", "backward"):
            p = MapParams(6.0)
            for j in range(1, 2048):
                y = j / 4096
                a = theta_field(y, p, time).theta
                b = theta_field(1.0 - y, p, time).theta
                assert angle_dist_mod_pi(a, b) < 1e-12

    def test_monotone_clockwise_then_counter(self):
        p = MapParams(3.0)
        n = 4096
        thetas = [theta_field(j / n, p).theta for j in range(1, n // 2)]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))
        thetas = [theta_field(0.5 + j / n, p).theta for j in range(1, n // 2)]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))

    def test_continuity_mod_pi(self):
        p = MapParams(40.0)
        n = 200_000  # fine enough to resolve the 1/k swing regions
        prev_f = theta_field(0.0, p).theta
        prev_b = theta_field(0.0, p, "backward").theta
        for j in range(1, n + 1):
            cur_f = theta_field(j / n, p).theta
            cur_b = theta_field(j / n, p, "backward").theta
            assert angle_dist_mod_pi(cur_f, prev_f) < 0.1
            assert angle_dist_mod_pi(cur_b, prev_b) < 0.1
            prev_f, prev_b = cur_f, cur_b

    def test_oracle_agreement(self):
        # The heart of the module: closed form vs SVD of the actual Jacobian.
        for k in K_SET:
            p = MapParams(k)
            for j in range(512):
                coord = j / 512
                point = TorusPoint(0.0, coord)
                for time in ("forward", "backward"):
                    s = svd2(jacobian(point, p, time))
                    got = theta_field(coord, p, time)
                    assert got.dist(s.dir_min) < 1e-9

    def test_bad_time_rejected(self):
        with pytest.raises(ValueError):
            theta_field(0.1, MapParams(1.0), "both")


class TestUnitVector:
    def test_f1_horizontal_at_delta_star(self):
        c = consts(10.0)
        _, (fx, fy) = forward_vectors(c.delta_star, MapParams(10.0))
        assert abs(fy) < 1e-9 and abs(fx) == pytest.approx(1.0, abs=1e-12)

    def test_e_f_orthogonal(self):
        p = MapParams(5.0)
        rng = random.Random(4)
        for _ in range(1000):
            y = rng.random()
            (ex, ey), (fx, fy) = forward_vectors(y, p)
            assert abs(ex * fx + ey * fy) < 1e-12

    def test_backward_vector_minimises_image_norm(self):
        # Angle-sweep oracle over 1e5 directions, 100 random (ytilde, k).
        rng = random.Random(12)
        for _ in range(100):
            yt = rng.random()
            k = rng.uniform(0.5, 60.0)
            p = MapParams(k)
            m = jacobian(TorusPoint(0.0, yt), p, "backward")
            sweep = sweep_min_direction(m, grid=100_000)
            got = theta_field(yt, p, "backward")
            assert sweep.angle.dist(got) < 1e-6


class TestHyperbolicFrame:
    def test_shear_frame(self):
        # At y = 1/4 the Jacobian is the unit shear; F1 is the golden ratio.
        f = hyperbolic_frame(TorusPoint(0.0, 0.25), MapParams(3.0), 1)
        golden = (1 + math.sqrt(5)) / 2
        assert f.F == pytest.approx(golden, rel=1e-9)
        assert f.E == pytest.approx(1 / golden, rel=1e-9)

    def test_product_one_at_order_one(self):
        rng = random.Random(9)
        for k in (1.0, 7.0, 80.0):
            p = MapParams(k)
            for _ in range(300):
                f = hyperbolic_frame(TorusPoint(rng.random(), rng.random()), p, 1)
                assert f.E * f.F == pytest.approx(1.0, abs=1e-10)
                assert 0 < f.H < 1
                assert f.e_dir.dist(f.f_dir) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_expansion_at_zero_height(self):
        f = hyperbolic_frame(TorusPoint(0.0, 0.0), MapParams(1.0), 1)
        assert f.F >= math.sqrt(2.0)

    def test_matches_theta_field_order_one(self):
        p = MapParams(4.0)
        for j in range(256):
            y = j / 256
            f1 = hyperbolic_frame(TorusPoint(0.3, y), p, 1)
            assert f1.e_dir.dist(theta_field(y, p, "forward")) < 1e-9
            fm1 = hyperbolic_frame(TorusPoint(0.0, y), p, -1)
            assert fm1.e_dir.dist(theta_field(y, p, "backward")) < 1e-9

    def test_h1_strictly_below_one(self):
        for k in K_SET:
            p = MapParams(k)
            worst = 0.0
            for j in range(4096):
                f = hyperbolic_frame(TorusPoint(0.0, j / 4096), p, 1)
                worst = max(worst, f.H)
            # H1 = 1/2 is attained where psi_c = -1/2; never higher.
            assert worst <= 0.5 + 1e-12

    @staticmethod
    def assert_frame_matches_numpy(z, p, n):
        # Independent route for |n| > 1: accumulate the product with numpy
        # matrices and decompose with numpy's SVD.
        acc = np.eye(2)
        q = z
        for _ in range(abs(n)):
            time = "forward" if n > 0 else "backward"
            m = jacobian(q, p, time)
            acc = np.array([[m.a11, m.a12], [m.a21, m.a22]]) @ acc
            q = map_forward(q, p) if n > 0 else map_inverse(q, p)
        _, sig, vt = np.linalg.svd(acc)
        frame = hyperbolic_frame(z, p, n)
        assert frame.F == pytest.approx(float(sig[0]), rel=1e-10)
        # sigma_min of an ill-conditioned product is only determined
        # to ~eps * sigma_max absolute, whichever algorithm runs.
        assert frame.E == pytest.approx(float(sig[1]), abs=1e-12 * frame.F)
        np_min = math.atan2(float(vt[1, 1]), float(vt[1, 0]))
        assert frame.e_dir.dist(hm_dir(np_min)) < 1e-6

    def test_order_n_frame_against_numpy(self):
        rng = random.Random(17)
        for k in (1.0, 6.0):
            p = MapParams(k)
            for n in (2, 5, -3, -7):
                self.assert_frame_matches_numpy(TorusPoint(rng.random(), rng.random()), p, n)

    @pytest.mark.parametrize("n", [61, -61, 100, -100])
    def test_orders_past_sixty_against_numpy(self, n):
        # F is 9e26 at n = 60 and k = 1, far from the float64 limit.
        self.assert_frame_matches_numpy(TorusPoint(0.2, 0.3), MapParams(1.0), n)

    @pytest.mark.parametrize("k, last", [(200.0, 55), (200.0, -53), (1e5, 28), (1e5, -28)])
    def test_order_limit(self, k, last):
        # The last order whose H = E / F is a normal float64 still matches
        # numpy.  The next one raises: its H is subnormal or 0, and e_dir
        # would come out NaN or 0 at three of these four.
        z, p = TorusPoint(0.2, 0.3), MapParams(k)
        self.assert_frame_matches_numpy(z, p, last)
        with pytest.raises(ParameterError) as info:
            hyperbolic_frame(z, p, last + (1 if last > 0 else -1))
        assert info.value.name == "n"


class TestHyperbolicFrameAgainstMpmath:
    @pytest.mark.parametrize("k", [0.6, 2.0, 10.0, 100.0])
    def test_orders_up_to_15(self, k):
        # The step Jacobians along the computed orbit, exactly as the library
        # forms them, multiplied and decomposed at 80 digits.  There the
        # determinant is the product of the step determinants, and the
        # smaller singular value is |det| / F; the float product's own
        # smaller singular value cancels to noise once F^2 passes 1/eps.
        mpmath = pytest.importorskip("mpmath")
        from hypermap.stdmap import jacobian, map_forward, map_inverse

        p = MapParams(k)
        rng = random.Random(int(k * 10))
        with mpmath.workdps(80):
            for n in [*range(1, 16), *range(-15, 0)]:
                z = TorusPoint(rng.random(), rng.random())
                a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
                det = mpmath.mpf(1)
                q = z
                for _ in range(abs(n)):
                    m = jacobian(q, p, "forward" if n > 0 else "backward")
                    j11, j12, j21, j22 = (mpmath.mpf(v) for v in m.entries())
                    a, b, c, d = j11 * a + j12 * c, j11 * b + j12 * d, j21 * a + j22 * c, j21 * b + j22 * d
                    det *= j11 * j22 - j12 * j21
                    q = map_forward(q, p) if n > 0 else map_inverse(q, p)
                frob = a * a + b * b + c * c + d * d
                big = mpmath.sqrt((frob + mpmath.sqrt(frob * frob - 4 * det * det)) / 2)
                small = abs(det) / big
                # Right singular vector of `small`: an eigenvector of M^T M.
                mtm11, mtm12, mtm22 = a * a + c * c, a * b + c * d, b * b + d * d
                u = (mtm12, small * small - mtm11)
                w = (small * small - mtm22, mtm12)
                ex, ey = max(u, w, key=lambda v: abs(v[0]) + abs(v[1]))
                frame = hyperbolic_frame(z, p, n)
                assert abs(frame.E - small) <= 1e-12 * small, (n, frame.E, float(small))
                assert frame.e_dir.dist(hm_dir(float(mpmath.atan2(ey, ex)))) <= 1e-12, n


def hm_dir(angle: float):
    from hypermap.stdmap import DirAngle

    return DirAngle(angle)


class TestDuality:
    def test_backward_contracted_is_image_of_forward_expanded(self):
        rng = random.Random(21)
        for k in (2.0, 10.0):
            p = MapParams(k)
            for _ in range(500):
                z = TorusPoint(rng.random(), rng.random())
                w = map_inverse(z, p)
                _, (fx, fy) = forward_vectors(w.y, p)
                ix, iy = jacobian(w, p, "forward").apply(fx, fy)
                pushed = math.atan2(iy, ix)
                got = theta_field(z.ytilde, p, "backward").theta
                assert angle_dist_mod_pi(pushed, got) < 1e-8


class TestCriticalConstants:
    def test_k1_values(self):
        c = consts(1.0)
        # Exact closed forms evaluated independently.
        assert c.delta_star == pytest.approx(math.acos(-1 / (4 * math.pi)) / TWO_PI, rel=1e-15)
        assert c.delta_star == pytest.approx(0.2626786, abs=1e-6)
        assert c.delta_minus == pytest.approx(0.2407232, abs=1e-6)
        assert c.delta_plus == pytest.approx(0.2848804, abs=1e-6)

    def test_ordering_chain(self):
        for k in (1.0, 5.0, 20.0, 100.0):
            c = consts(k)
            assert c.all_defined
            chain = [
                c.delta_minus, 0.25, c.delta_star, c.delta_hat_T_minus,
                c.delta_T_minus, c.delta_plus, c.delta_T_plus, c.delta_hat_T_plus, 0.5,
            ]
            assert all(a < b for a, b in zip(chain, chain[1:]))

    def test_large_k_asymptotics(self):
        k = 1000.0
        c = consts(k)
        eight_pi_sq = 8 * math.pi**2
        assert k * (c.delta_star - 0.25) == pytest.approx(1 / eight_pi_sq, rel=0.01)
        assert k * (c.delta_plus - 0.25) == pytest.approx((1 + SQRT3) / eight_pi_sq, rel=0.01)
        assert k * (c.delta_hat_T_plus - 0.25) == pytest.approx(
            (1 + 3 * SQRT3) / eight_pi_sq, rel=0.01
        )

    def test_undefined_below_validity(self):
        c = consts(0.3)
        assert c.delta_plus is not None
        assert c.delta_hat_T_plus is None
        assert not c.all_defined

    def test_hat_constants_are_phi_preimages(self):
        # delta_hat_T^-+ solve phi = -+ sqrt(3)/2, matching phitilde at delta^-+.
        for k in (1.0, 30.0):
            c = consts(k)
            p = MapParams(k)
            assert phi(c.delta_hat_T_minus, p) == pytest.approx(-SQRT3 / 2, abs=1e-9)
            assert phi(c.delta_hat_T_plus, p) == pytest.approx(SQRT3 / 2, abs=1e-9)

    def test_delta_T_definitions(self):
        for k in (1.0, 12.0):
            c = consts(k)
            p = MapParams(k)
            assert phi(c.delta_T_minus, p) == pytest.approx(phi_tilde(0.0, p), rel=1e-9)
            assert phi(c.delta_T_plus, p) == pytest.approx(phi_tilde(0.5, p), rel=1e-9)

    @pytest.mark.parametrize("k", [1.2e7, 2e7, 5e7, 1e8, 1e12])
    def test_delta_T_defined_at_large_k(self, k):
        # The root beside delta^+ lies within an ulp of it and may round past
        # it, where it is moved onto delta^+; the other root of phitilde(0)
        # may round onto delta^-, and is never taken.
        c = consts(k)
        assert c.all_defined
        assert c.delta_star < c.delta_T_minus <= c.delta_plus <= c.delta_T_plus

    def test_delta_T_from_one_branch_equals_the_two_branch_filter(self):
        # The reference: every root of phi_inverse, both branches and their
        # mirrors, kept in [delta^*, 1/2]; the largest, clamped onto delta^+.
        # Seeded k log-uniform from where delta^+ exists, and uniform near both
        # ends, where delta_T^+ (below k ~ 0.33) or both (near 1.4e153) are None.
        rng = random.Random(35)
        k_plus = (1.0 + SQRT3) / (4.0 * math.pi)
        ks = [k_plus, 0.22, 0.3, 1e7, 1.4e153] + [
            f(rng.uniform(lo, hi)) for f, lo, hi, n in ((math.exp, math.log(k_plus), math.log(1.4e153), 3000),
                                                        (float, k_plus, 0.5, 1500), (float, 1e152, 1.4e153, 1500))
            for _ in range(n)]
        undefined = 0
        for k in ks:
            c, p = consts(k), MapParams(k)
            want = []
            for z, clamp in ((phi_tilde(0.0, p), min), (phi_tilde(0.5, p), max)):
                roots = [y for y in phi_inverse(z, p) if c.delta_star <= y <= 0.5]
                want.append(clamp(max(roots), c.delta_plus) if roots else None)
            assert [c.delta_T_minus, c.delta_T_plus] == want, k
            undefined += want.count(None)
        assert 0 < undefined < len(ks)  # both outcomes occur

    def test_strip_membership_helpers(self):
        c = consts(2.0)
        assert strip_pair_contains(0.25, c.delta_minus, c.delta_plus)
        assert not strip_pair_contains(0.1, c.delta_minus, c.delta_plus)
        assert strip_pair_contains(c.delta_hat_T_minus, c.delta_hat_T_minus, c.delta_hat_T_plus)
        assert not strip_pair_contains(0.25, c.delta_hat_T_minus, c.delta_hat_T_plus)
