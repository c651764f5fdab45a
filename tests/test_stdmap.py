"""Tests for the map, its inverse and orbit-Jacobian products."""

import math
import random
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermap import coordinates
from hypermap.coordinates import hyperbolic_frame
from hypermap.hyperbolicity import ExpansionReport, delta_strip, orbit_expansion, push_vector
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


def matmul(m: Mat2, other: Mat2) -> Mat2:
    """The product m other, each entry a row of m times a column of other."""
    return Mat2(
        m.a11 * other.a11 + m.a12 * other.a21,
        m.a11 * other.a12 + m.a12 * other.a22,
        m.a21 * other.a11 + m.a22 * other.a21,
        m.a21 * other.a12 + m.a22 * other.a22,
    )


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)

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


# References for the float walks of orbit_jacobian, orbit_determinant and
# orbit_expansion: the same orbits walked on a TorusPoint and a Mat2 per
# step, multiplied as Mat2 products.  Each float walk must equal its
# reference bit for bit.


def reference_steps(p: TorusPoint, params: MapParams, n: int) -> Iterator[Mat2]:
    """The |n| step Jacobians along the orbit of p: forward for n > 0, else backward."""
    time = "forward" if n > 0 else "backward"
    step = map_forward if n > 0 else map_inverse
    for _ in range(abs(n)):
        yield jacobian(p, params, time)
        p = step(p, params)


def reference_orbit_jacobian(p: TorusPoint, params: MapParams, n: int) -> Mat2:
    if n == 0:
        raise ParameterError("n", "must be nonzero, got 0")
    acc, det = IDENTITY, 1.0
    for m in reference_steps(p, params, n):
        acc = matmul(m, acc)
        det *= m.det
        if not all(map(math.isfinite, acc.entries())):
            raise ParameterError("n", f"{n}: the orbit Jacobian overflows float64 at k = {params.k:g}")
    a, b, c, d = acc.entries()
    t = (det - acc.det) / (a * a + b * b + c * c + d * d)
    return Mat2(a + t * d, b - t * c, c - t * b, d + t * a) if math.isfinite(t) else acc


def reference_orbit_determinant(p: TorusPoint, params: MapParams, n: int) -> float:
    det = 1.0
    for m in reference_steps(p, params, n):
        det *= m.det
    return det


def reference_orbit_expansion(p: TorusPoint, theta: float, params: MapParams, m: int, n: int) -> ExpansionReport:
    """orbit_expansion's push along TorusPoints, for arguments it accepts."""
    strip = delta_strip(m, params)
    factors = []
    point, ang = p, theta
    for i in range(n):
        if strip.contains(point.y):
            return ExpansionReport(tuple(factors), i)
        ang, growth = push_vector(point.y, ang, params)
        factors.append(growth)
        point = map_forward(point, params)
    return ExpansionReport(tuple(factors), None)


def outcome(fn, *args):
    """The result of a call, or the type and text of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def bits(value) -> list[str]:
    """Every float in a result as float.hex, so that equality means bit for bit."""
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, Mat2):
        return bits(value.entries())
    if isinstance(value, ExpansionReport):
        return bits(value.factors) + [repr(value.entered_strip_at)]
    if isinstance(value, coordinates.HypFrame):
        return bits((value.F, value.E, value.H, value.e_dir.lifted, value.f_dir.lifted)) + [repr(value.order)]
    if isinstance(value, tuple):
        return [b for v in value for b in bits(v)]
    return [repr(value)]


def seeded_orbits(count: int, seed: int):
    """(p, params, n) with k log-uniform in [0.5, 1e5] and n in +-1..+-40."""
    rng = random.Random(seed)
    for _ in range(count):
        k = 10.0 ** rng.uniform(math.log10(0.5), 5.0)
        yield TorusPoint(rng.random(), rng.random()), MapParams(k), rng.randint(1, 40) * rng.choice((-1, 1))


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
        want = matmul(single, single)
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
            rhs = matmul(jacobian(fpn, params, "forward"), orbit_jacobian(p, params, n))
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
            rhs = matmul(jacobian(fpn, params, "backward"), orbit_jacobian(p, params, -n))
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
        # (k, the last order with a finite product, forward and backward) at
        # (0.2, 0.3).  The reference gives that order's product and raises
        # at the next order too.
        p = TorusPoint(0.2, 0.3)
        for k, last in ((1.0, 616), (1.0, -615), (200.0, 112), (200.0, -109), (1e5, 56), (1e5, -56), (1e8, 36)):
            params = MapParams(k)
            assert all(map(math.isfinite, orbit_jacobian(p, params, last).entries()))
            with pytest.raises(ParameterError) as info:
                orbit_jacobian(p, params, last + (1 if last > 0 else -1))
            assert info.value.name == "n"
            for order in (last, last + (1 if last > 0 else -1)):
                assert bits(outcome(orbit_jacobian, p, params, order)) == bits(
                    outcome(reference_orbit_jacobian, p, params, order))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            orbit_jacobian(TorusPoint(0.1, 0.2), MapParams(1.0), 0)


class TestFloatWalkEqualsReference:
    def test_orbit_jacobian_and_determinant(self):
        for p, params, n in seeded_orbits(600, 23):
            assert bits(orbit_jacobian(p, params, n)) == bits(reference_orbit_jacobian(p, params, n))
            assert bits(orbit_determinant(p, params, n)) == bits(reference_orbit_determinant(p, params, n))

    def test_hyperbolic_frame(self, monkeypatch):
        cases = list(seeded_orbits(400, 24))
        got = [outcome(hyperbolic_frame, p, params, n) for p, params, n in cases]
        monkeypatch.setattr(coordinates, "orbit_jacobian", reference_orbit_jacobian)
        monkeypatch.setattr(coordinates, "orbit_determinant", reference_orbit_determinant)
        want = [outcome(hyperbolic_frame, p, params, n) for p, params, n in cases]
        assert [bits(g) for g in got] == [bits(w) for w in want]
        raised = sum(isinstance(g, tuple) for g in got)
        assert 0 < raised < 100  # H leaves float64 range at some large orders and k

    def test_orbit_expansion(self):
        rng = random.Random(25)
        entered = stayed = 0
        for _ in range(600):
            m = rng.choice((2, 3, 5, 10, 50))
            params = MapParams(m * 10.0 ** rng.uniform(0.01, 4.0))
            p = TorusPoint(rng.random(), rng.random())
            theta = math.atan(m ** rng.uniform(-0.999, 0.999))
            n = rng.randint(1, 40)
            got = orbit_expansion(p, theta, params, m, n)
            assert bits(got) == bits(reference_orbit_expansion(p, theta, params, m, n))
            entered += got.entered_strip_at not in (None, 0)
            stayed += got.entered_strip_at is None
        assert entered > 60 and stayed > 200  # orbits that walk into Delta^(m), and ones that stay out
