"""Tests for the brute-force oracle tools themselves.

The two direction oracles (closed-form SVD and exhaustive sweep) must agree
with each other before anything else trusts them.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermap.oracle import svd2, svd2_entries, sweep_min_direction
from hypermap.stdmap import Mat2, angle_dist_mod_pi, jacobian_entries
from test_stdmap import IDENTITY, matmul

SQRT5 = math.sqrt(5.0)

finite_entry = st.floats(min_value=-50, max_value=50, allow_nan=False)


def rotation(alpha: float) -> Mat2:
    c, s = math.cos(alpha), math.sin(alpha)
    return Mat2(c, -s, s, c)


class TestSvd2:
    def test_identity_is_degenerate(self):
        s = svd2(IDENTITY)
        assert s.degenerate
        assert s.sigma_max == pytest.approx(1.0, abs=1e-15)
        assert s.sigma_min == pytest.approx(1.0, abs=1e-15)
        assert s.dir_min is None and s.dir_max is None

    def test_rotation_is_degenerate(self):
        assert svd2(rotation(0.7)).degenerate

    def test_shear_singular_values(self):
        # Hand oracle: M^T M = [[2,1],[1,1]] has eigenvalues (3 +- sqrt5)/2,
        # whose roots are (1 +- sqrt5)/2 resp. (sqrt5 -+ 1)/2.
        s = svd2(Mat2(1.0, 0.0, 1.0, 1.0))
        assert s.sigma_max == pytest.approx((1 + SQRT5) / 2, rel=1e-14)
        assert s.sigma_min == pytest.approx((SQRT5 - 1) / 2, rel=1e-14)
        assert not s.degenerate

    def test_diagonal_directions(self):
        s = svd2(Mat2(3.0, 0.0, 0.0, 1.0 / 3.0))
        assert s.sigma_max == pytest.approx(3.0)
        assert angle_dist_mod_pi(s.dir_max.theta, 0.0) < 1e-12
        assert angle_dist_mod_pi(s.dir_min.theta, math.pi / 2) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd2(Mat2(math.nan, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            svd2(Mat2(math.inf, 0.0, 0.0, 1.0))

    @given(finite_entry, finite_entry, finite_entry, finite_entry)
    @settings(max_examples=300, deadline=None)
    def test_directions_realize_singular_values(self, a, b, c, d):
        m = Mat2(a, b, c, d)
        s = svd2(m)
        if s.degenerate:
            return
        for ang, sigma in ((s.dir_min, s.sigma_min), (s.dir_max, s.sigma_max)):
            vx, vy = math.cos(ang.theta), math.sin(ang.theta)
            ix, iy = m.apply(vx, vy)
            assert math.hypot(ix, iy) == pytest.approx(sigma, rel=1e-12, abs=1e-13)
        assert s.dir_min.dist(s.dir_max) == pytest.approx(math.pi / 2, abs=1e-12)

    @given(finite_entry, finite_entry, finite_entry, finite_entry)
    @settings(max_examples=300, deadline=None)
    def test_sigma_product_is_determinant(self, a, b, c, d):
        m = Mat2(a, b, c, d)
        s = svd2(m)
        assert s.sigma_max * s.sigma_min == pytest.approx(
            abs(m.det), rel=1e-10, abs=1e-10
        )

    def test_orthogonal_invariance(self):
        # Pre-rotating shifts both right-singular directions by exactly alpha.
        rng = random.Random(2)
        for _ in range(50):
            m = Mat2(*(rng.uniform(-3, 3) for _ in range(4)))
            s = svd2(m)
            if s.degenerate or s.sigma_min / s.sigma_max > 0.999:
                continue
            alpha = rng.uniform(0, math.pi)
            rotated = matmul(m, rotation(alpha))
            s2 = svd2(rotated)
            assert angle_dist_mod_pi(s2.dir_min.theta, s.dir_min.theta - alpha) < 1e-10
            assert angle_dist_mod_pi(s2.dir_max.theta, s.dir_max.theta - alpha) < 1e-10

    def test_against_numpy_linalg(self):
        # Third route, external to this package entirely.
        import numpy as np

        rng = random.Random(13)
        for _ in range(200):
            m = Mat2(*(rng.uniform(-10, 10) for _ in range(4)))
            s = svd2(m)
            arr = np.array([[m.a11, m.a12], [m.a21, m.a22]])
            _, sig, vt = np.linalg.svd(arr)
            assert s.sigma_max == pytest.approx(float(sig[0]), rel=1e-12, abs=1e-13)
            assert s.sigma_min == pytest.approx(float(sig[1]), rel=1e-12, abs=1e-13)
            if s.degenerate or s.sigma_min / s.sigma_max > 0.999:
                continue
            np_min = math.atan2(float(vt[1, 1]), float(vt[1, 0]))
            np_max = math.atan2(float(vt[0, 1]), float(vt[0, 0]))
            assert angle_dist_mod_pi(s.dir_min.theta, np_min) < 1e-9
            assert angle_dist_mod_pi(s.dir_max.theta, np_max) < 1e-9


class TestSvd2Entries:
    """svd2 is svd2_entries on a Mat2's entries, bit for bit."""

    @staticmethod
    def hex_result(m: Mat2) -> tuple:
        s = svd2(m)
        angles = (None, None) if s.degenerate else (s.dir_max.lifted.hex(), s.dir_min.lifted.hex())
        return s.sigma_max.hex(), s.sigma_min.hex(), *angles

    @staticmethod
    def hex_entries(m: Mat2) -> tuple:
        return tuple(None if v is None else v.hex() for v in svd2_entries(*m.entries()))

    def test_seeded_matrices(self):
        rng = random.Random(31)
        for _ in range(2000):
            scale = 10.0 ** rng.uniform(-8, 8)
            m = Mat2(*(scale * rng.uniform(-1, 1) for _ in range(4)))
            assert self.hex_entries(m) == self.hex_result(m)
        for _ in range(500):  # step Jacobians, forward and backward
            m = Mat2(*jacobian_entries(rng.uniform(-1e4, 1e4), rng.random() < 0.5))
            assert self.hex_entries(m) == self.hex_result(m)

    def test_degenerate(self):
        # Rotations (h2 = 0), the zero matrix (sigma_max = 0) and a reflection,
        # whose stationarity relation is 0/0 (num = den = 0).
        for m in [rotation(0.1 * j) for j in range(32)] + [Mat2(0.0, 0.0, 0.0, 0.0), Mat2(1.0, 0.0, 0.0, -1.0)]:
            got = self.hex_entries(m)
            assert got[2:] == (None, None) and got == self.hex_result(m)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(4):
                entries = [1.0, 0.5, -0.25, 2.0]
                entries[i] = bad
                with pytest.raises(ValueError):
                    svd2_entries(*entries)
                with pytest.raises(ValueError, match="svd2 requires finite entries, got Mat2"):
                    svd2(Mat2(*entries))


class TestSvd2EntriesOnArrays:
    """The array path gives each matrix the float path's bits, NaN angles where it returns None."""

    @staticmethod
    def assert_matches_floats(entries):
        got = svd2_entries(*entries)
        for i, cols in enumerate(zip(*(np.broadcast_to(e, got[0].shape).tolist() for e in entries))):
            want = svd2_entries(*cols)
            assert [g[i].hex() for g in got[:2]] == [w.hex() for w in want[:2]]
            if want[2] is None:
                assert math.isnan(got[2][i]) and math.isnan(got[3][i])
            else:
                assert [g[i].hex() for g in got[2:]] == [w.hex() for w in want[2:]]

    def test_seeded_matrices(self):
        rng = np.random.default_rng(32)
        scale = 10.0 ** rng.uniform(-8, 8, 3000)
        self.assert_matches_floats(tuple(scale * rng.uniform(-1, 1, 3000) for _ in range(4)))
        for forward in (True, False):  # step Jacobians, with float entries broadcast
            self.assert_matches_floats(jacobian_entries(rng.uniform(-1e4, 1e4, 1000), forward))

    def test_degenerate(self):
        # The zero matrix, the identity, scaled rotations and a reflection, among ordinary matrices.
        alpha, scale = np.arange(32) * 0.1, 10.0 ** np.arange(-4.0, 4.0, 0.25)
        a = np.concatenate([[0.0, 1.0, 1.0, 2.0], scale * np.cos(alpha)])
        b = np.concatenate([[0.0, 0.0, 0.0, 1.0], -scale * np.sin(alpha)])
        c = np.concatenate([[0.0, 0.0, 0.0, 3.0], scale * np.sin(alpha)])
        d = np.concatenate([[0.0, 1.0, -1.0, 4.0], scale * np.cos(alpha)])
        sigma_max, sigma_min, t_max, t_min = svd2_entries(a, b, c, d)
        assert np.isnan(t_max[:3]).all() and np.isnan(t_min[:3]).all() and not np.isnan(t_min[3])
        assert np.isnan(t_min[4:]).all() and np.array_equal(sigma_max[4:], sigma_min[4:])
        self.assert_matches_floats((a, b, c, d))

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(4):
                entries = [np.full(3, 1.0), 0.5, np.full(3, -0.25), 2.0]
                entries[i] = np.array([1.0, bad, 2.0]) if i % 2 == 0 else bad
                with pytest.raises(ValueError, match="svd2 requires finite entries"):
                    svd2_entries(*entries)


class TestSweepMinDirection:
    def test_matches_svd2_on_shear(self):
        m = Mat2(1.0, 0.0, 1.0, 1.0)
        sweep = sweep_min_direction(m, grid=20000)
        assert not sweep.degenerate
        assert sweep.angle.dist(svd2(m).dir_min) < 1e-8

    def test_cross_oracle_agreement_random(self):
        # Well-conditioned means both condition number below 1e6 and singular
        # values separated: near-conformal matrices put the direction below
        # the noise floor of any norm-sampling method.
        rng = random.Random(7)
        checked = 0
        while checked < 1000:
            m = Mat2(*(rng.uniform(-5, 5) for _ in range(4)))
            s = svd2(m)
            if s.degenerate or s.sigma_max / max(s.sigma_min, 1e-300) > 1e6:
                continue
            if s.sigma_min / s.sigma_max > 0.99:
                continue
            sweep = sweep_min_direction(m, grid=2000)
            assert not sweep.degenerate
            assert sweep.angle.dist(s.dir_min) < 1e-8
            checked += 1

    def test_rotation_flags_degenerate(self):
        assert sweep_min_direction(rotation(1.1), grid=2000).degenerate

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            sweep_min_direction(IDENTITY, grid=999)
