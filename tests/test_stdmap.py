"""Tests for the map, its inverse and orbit-Jacobian products."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermap.stdmap import (
    MapParams,
    Mat2,
    ParameterError,
    TorusPoint,
    jacobian,
    map_forward,
    map_inverse,
    mod1,
    orbit_determinant,
    orbit_jacobian,
    psi,
)

TWO_PI = 2 * math.pi


def torus_dist(a: TorusPoint, b: TorusPoint) -> float:
    """Euclidean distance on the torus (shortest representative)."""
    dx, dy = abs(a.x - b.x), abs(a.y - b.y)
    return math.hypot(min(dx, 1.0 - dx), min(dy, 1.0 - dy))


coord = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
k_value = st.floats(min_value=0.05, max_value=200.0, allow_nan=False)


class TestMod1:
    def test_basic(self):
        assert mod1(1.25) == 0.25
        assert mod1(-0.25) == 0.75
        assert mod1(3.0) == 0.0

    def test_snap_near_one(self):
        assert mod1(1.0 - 5e-16) == 0.0
        assert mod1(-1e-16) == 0.0

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_range(self, v):
        assert 0.0 <= mod1(v) < 1.0


class TestMapParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MapParams(0.0)
        with pytest.raises(ValueError):
            MapParams(-1.0)
        with pytest.raises(ValueError):
            MapParams(math.inf)

    def test_validity_flags(self):
        # (1 + 3 sqrt 3)/(4 pi) ~ 0.4931 is the tightest threshold.
        low = MapParams(0.3)
        assert low.defined["delta_plus"] is True
        assert low.defined["delta_hat_T_plus"] is False
        assert all(MapParams(0.5).defined.values())


class TestMap:
    def test_fixed_points(self):
        p = map_forward(TorusPoint(0.0, 0.0), MapParams(1.0))
        assert (p.x, p.y) == (0.0, 0.0)
        q = map_forward(TorusPoint(0.0, 0.5), MapParams(7.0))
        assert abs(q.x) < 1e-12 and abs(q.y - 0.5) < 1e-12

    def test_zero_sine_line(self):
        q = map_forward(TorusPoint(0.25, 0.0), MapParams(3.0))
        assert q.x == pytest.approx(0.25, abs=1e-15)
        assert q.y == pytest.approx(0.25, abs=1e-15)

    def test_inverse_of_example(self):
        q = map_inverse(TorusPoint(0.25, 0.25), MapParams(3.0))
        assert q.x == pytest.approx(0.25, abs=1e-12)
        assert abs(q.y) < 1e-12

    def test_round_trip_many(self):
        params = MapParams(5.0)
        rng = random.Random(11)
        for _ in range(1000):
            p = TorusPoint(rng.random(), rng.random())
            q = map_inverse(map_forward(p, params), params)
            assert torus_dist(p, q) < 1e-12

    @given(coord, coord, k_value)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, x, y, k):
        params = MapParams(k)
        p = TorusPoint(x, y)
        assert torus_dist(map_inverse(map_forward(p, params), params), p) < 1e-9 * max(1.0, k)
        assert torus_dist(map_forward(map_inverse(p, params), params), p) < 1e-9 * max(1.0, k)


class TestJacobian:
    def test_quarter_height(self):
        m = jacobian(TorusPoint(0.9, 0.25), MapParams(123.0))
        assert m.a11 == 1.0 and m.a21 == 1.0
        assert abs(m.a12) < 1e-12
        assert m.a22 == pytest.approx(1.0, abs=1e-12)

    def test_zero_height(self):
        m = jacobian(TorusPoint(0.0, 0.0), MapParams(1.0))
        assert m.a12 == pytest.approx(TWO_PI, rel=1e-15)
        assert m.a22 == pytest.approx(1.0 + TWO_PI, rel=1e-15)

    def test_backward_is_inverse_at_preimage(self):
        rng = random.Random(3)
        for _ in range(100):
            params = MapParams(rng.uniform(0.2, 60.0))
            p = TorusPoint(rng.random(), rng.random())
            back = jacobian(p, params, "backward")
            fwd = jacobian(map_inverse(p, params), params, "forward")
            inv = Mat2(fwd.a22, -fwd.a12, -fwd.a21, fwd.a11)  # the adjugate: det = 1
            for got, want in zip(back.entries(), inv.entries()):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(coord, coord, k_value)
    @settings(max_examples=300, deadline=None)
    def test_unimodular(self, x, y, k):
        p = TorusPoint(x, y)
        params = MapParams(k)
        assert jacobian(p, params, "forward").det == pytest.approx(1.0, abs=1e-12)
        assert jacobian(p, params, "backward").det == pytest.approx(1.0, abs=1e-12)

    def test_forward_constant_in_x(self):
        params = MapParams(4.0)
        rng = random.Random(5)
        ref = jacobian(TorusPoint(0.0, 0.37), params).entries()
        for _ in range(100):
            assert jacobian(TorusPoint(rng.random(), 0.37), params).entries() == ref

    def test_backward_constant_on_diagonals(self):
        # ytilde reconstruction rounds, so equality holds to rounding only
        # (the forward/x case is bit-identical because x never enters).
        params = MapParams(4.0)
        rng = random.Random(6)
        ref = jacobian(TorusPoint(0.0, 0.37), params, "backward").entries()
        for _ in range(100):
            x = rng.random()
            got = jacobian(TorusPoint(x, mod1(x + 0.37)), params, "backward").entries()
            for g, w in zip(got, ref):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_bad_time(self):
        with pytest.raises(ValueError):
            jacobian(TorusPoint(0, 0), MapParams(1.0), "sideways")

    def test_entries_are_psi_bit_for_bit(self):
        # psi_c is written once: both Jacobians are built from psi itself.
        rng = random.Random(16)
        for _ in range(2000):
            params = MapParams(10.0 ** rng.uniform(-1.0, 5.0))
            p = TorusPoint(rng.random(), rng.random())
            fwd, c = jacobian(p, params, "forward"), psi(p.y, params)
            assert (fwd.a12, fwd.a22) == (c, 1.0 + c)
            back, c = jacobian(p, params, "backward"), psi(p.ytilde, params)
            assert (back.a11, back.a12) == (1.0 + c, -c)


class TestOrbitJacobian:
    def test_single_steps(self):
        params = MapParams(2.5)
        p = TorusPoint(0.3, 0.7)
        assert orbit_jacobian(p, params, 1) == jacobian(p, params, "forward")
        assert orbit_jacobian(p, params, -1) == jacobian(p, params, "backward")

    def test_two_steps_at_fixed_point(self):
        # (0,0) is fixed, so both factors are the single-step matrix.
        params = MapParams(1.0)
        single = Mat2(1.0, TWO_PI, 1.0, 1.0 + TWO_PI)
        want = single @ single
        got = orbit_jacobian(TorusPoint(0.0, 0.0), params, 2)
        for g, w in zip(got.entries(), want.entries()):
            assert g == pytest.approx(w, rel=1e-14)

    def test_chain_consistency(self):
        params = MapParams(3.0)
        p = TorusPoint(0.123, 0.456)
        for n in range(1, 14):
            fpn = p
            for _ in range(n):
                fpn = map_forward(fpn, params)
            lhs = orbit_jacobian(p, params, n + 1)
            rhs = jacobian(fpn, params, "forward") @ orbit_jacobian(p, params, n)
            for g, w in zip(lhs.entries(), rhs.entries()):
                assert g == pytest.approx(w, rel=1e-9)

    def test_backward_chain(self):
        params = MapParams(3.0)
        p = TorusPoint(0.81, 0.17)
        for n in range(1, 10):
            fpn = p
            for _ in range(n):
                fpn = map_inverse(fpn, params)
            lhs = orbit_jacobian(p, params, -(n + 1))
            rhs = jacobian(fpn, params, "backward") @ orbit_jacobian(p, params, -n)
            for g, w in zip(lhs.entries(), rhs.entries()):
                assert g == pytest.approx(w, rel=1e-9)

    def test_determinant_drift(self):
        params = MapParams(2.0)
        p = TorusPoint(0.05, 0.61)
        for n in (40, -40):
            m = orbit_jacobian(p, params, n)
            scale = max(abs(e) for e in m.entries())
            assert abs(m.det - 1.0) < 1e-9 * abs(n) * max(1.0, scale * 1e-12)

    def test_determinant_after_expansion_and_contraction(self):
        # This backward orbit grows to |M| ~ 50 and shrinks back to |M| ~ 1.9.
        # The rounding at the peak left the plain product's determinant 1.2e-13
        # off, 40 times the rounding of the final entries.
        p, params, n = TorusPoint(0.8241225073579889, 0.7440814700308107), MapParams(1.05154), -6
        m = orbit_jacobian(p, params, n)
        assert orbit_determinant(p, params, n) == 1.0
        assert abs(m.det - 1.0) <= 4 * 2.0**-52 * sum(e * e for e in m.entries())

    def test_overflow_names_n(self):
        # (k, the last order with a finite product, forward and backward) at (0.2, 0.3).
        p = TorusPoint(0.2, 0.3)
        for k, last in ((1.0, 616), (1.0, -615), (200.0, 112), (200.0, -109), (1e5, 56), (1e5, -56)):
            params = MapParams(k)
            assert all(map(math.isfinite, orbit_jacobian(p, params, last).entries()))
            with pytest.raises(ParameterError) as info:
                orbit_jacobian(p, params, last + (1 if last > 0 else -1))
            assert info.value.name == "n"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            orbit_jacobian(TorusPoint(0.1, 0.2), MapParams(1.0), 0)
