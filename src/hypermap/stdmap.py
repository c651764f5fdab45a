"""The standard map family on the unit torus: maps, Jacobians, orbit products.

The family is

    f_k(x, y) = (x + k sin(2 pi y), x + y + k sin(2 pi y))  mod 1,   k > 0,

with inverse

    f_k^{-1}(x, y) = (x - k sin(2 pi (y - x)), y - x)  mod 1.

Every derivative matrix produced here is unimodular (det = 1).  Both
Jacobians are written in psi_c = 2 pi k cos(2 pi y), whose one float64
formula is ``psi`` here; the field formulas call it too, and only the cone
sweep's float32 filter forms its own bounded approximation.  The forward
Jacobian depends only on y; the backward Jacobian depends only on the
diagonal coordinate ytilde = (y - x) mod 1, so both are constant along
horizontal lines resp. lines of slope one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Literal, Mapping, Union

import numpy as np

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)

#: The value of psi_c = 2 pi k cos(2 pi y) at each closed-form strip constant,
#: which is ``coordinates.psi_inverse`` of it: the roots of P1 (delta^-+), of
#: P1' (delta^*), and of phi = -+ sqrt(3)/2 (delta_hat_T^-+).  A constant is
#: only defined while |level| <= 2 pi k.
DELTA_LEVELS = {
    "delta_minus": (SQRT3 - 1.0) / 2.0,
    "delta_star": -0.5,
    "delta_plus": -(1.0 + SQRT3) / 2.0,
    "delta_hat_T_minus": -(1.0 + SQRT3 / 3.0) / 2.0,
    "delta_hat_T_plus": -(1.0 + 3.0 * SQRT3) / 2.0,
}

TimeDirection = Literal["forward", "backward"]
#: A coordinate (y or ytilde) or a value derived from one: float or ndarray.
Coord = Union[float, np.ndarray]


class ParameterError(ValueError):
    """A parameter outside the domain of the object it defines: ``name`` is its
    name in the signature that took it, ``detail`` what is wrong with its value,
    and ``str(exc)`` is ``f"{name} {detail}"``."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name} {detail}")
        self.name = name
        self.detail = detail


def mod1(v: Coord) -> Coord:
    """Reduce a real number, or each element of an array, into [0, 1).

    Values within 1e-15 of 1 snap to 0, so a coordinate a rounding error
    below the torus seam lies on it: the x, y and ytilde of a ``TorusPoint``,
    ``Leaf.points`` and the points of the CLI's ``verify`` battery.  The
    orbit walk ``_orbit_psi`` writes the float path out inline.  An array
    gets the float path's bits, -0.0 included; a non-finite float raises
    and a non-finite element gives NaN.
    """
    try:  # math refuses an array; a float pays nothing for the try
        r = v - math.floor(v)
    except TypeError:
        r = v - (np.floor(v) + 0.0)  # math.floor(-0.0) is 0, numpy's -0.0
        return np.where((r >= 1.0) | (1.0 - r <= 1e-15), 0.0, r)
    if r >= 1.0 or 1.0 - r <= 1e-15:
        return 0.0
    return r


#: math.atan2 and math.hypot element by element, ~0.15 us an element, for the float path's bits: numpy's arctan2
#: and hypot differ from them in the last bit on ~8 % and ~0.6 % of uniform inputs (numpy 2.4, x86-64).
atan2_each = np.vectorize(math.atan2, otypes=[float])
hypot_each = np.vectorize(math.hypot, otypes=[float])


@dataclass(frozen=True)
class MapParams:
    """Parameter of the family, with per-constant validity flags.

    The strip constants delta^-, delta^*, delta^+ and the tangency-strip
    constants are heights where psi_c takes a k-free level; each flag in
    ``defined`` records whether that level lies in [-2 pi k, 2 pi k].
    The most demanding constant needs k >= (1 + 3 sqrt 3)/(4 pi) ~ 0.4931.
    """

    k: float

    def __post_init__(self) -> None:
        if not (isinstance(self.k, (int, float)) and math.isfinite(self.k)):
            raise ParameterError("k", f"must be a finite real, got {self.k!r}")
        if self.k <= 0:
            raise ParameterError("k", f"must be positive, got {self.k}")

    @functools.cached_property
    def defined(self) -> Mapping[str, bool]:
        """Whether each level of ``DELTA_LEVELS`` lies in [-2 pi k, 2 pi k], built on first read."""
        return MappingProxyType({name: abs(v) / (TWO_PI * self.k) <= 1.0 for name, v in DELTA_LEVELS.items()})


@dataclass(frozen=True)
class TorusPoint:
    """A point on the unit torus; both coordinates are reduced into [0, 1)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "x", mod1(self.x))
            object.__setattr__(self, "y", mod1(self.y))
        except (OverflowError, ValueError):  # math.floor of inf or nan
            name = "x" if not math.isfinite(self.x) else "y"
            raise ParameterError(name, f"must be finite, got {getattr(self, name)!r}") from None

    @property
    def ytilde(self) -> float:
        """Diagonal coordinate (y - x) mod 1."""
        return mod1(self.y - self.x)


@dataclass(frozen=True)
class DirAngle:
    """An undirected direction, canonical in [0, pi), plus its lifted value.

    The lifted value differs from the canonical representative by an integer
    multiple of pi and is what continuity tracking operates on.
    """

    lifted: float

    @property
    def theta(self) -> float:
        return canonical_angle(self.lifted)

    def dist(self, other: "DirAngle") -> float:
        return angle_dist_mod_pi(self.theta, other.theta)


def canonical_angle(lifted: Coord) -> Coord:
    """The representative in [0, pi) of an undirected direction's lifted angle, or of each of an array's."""
    t = lifted % math.pi  # numpy's % is Python's, bit for bit
    return t - t * (t >= math.pi)  # 0.0 where a lifted angle just below a multiple of pi rounds to pi


def angle_dist_mod_pi(a: Coord, b: Coord) -> Coord:
    """Distance between two undirected directions, in [0, pi/2]; elementwise on arrays, with the same bits."""
    d = (a - b) % math.pi
    return np.minimum(d, math.pi - d) if isinstance(d, np.ndarray) else min(d, math.pi - d)


@dataclass(frozen=True)
class Mat2:
    """A 2x2 real matrix in row-major entry order."""

    a11: float
    a12: float
    a21: float
    a22: float

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def apply(self, vx: float, vy: float) -> tuple[float, float]:
        return (self.a11 * vx + self.a12 * vy, self.a21 * vx + self.a22 * vy)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22)


def psi(y: Coord, params: MapParams, kind: Literal["cos", "sin"] = "cos") -> Coord:
    """2 pi k cos(2 pi y) or 2 pi k sin(2 pi y), at a y or a ytilde coordinate.

    The orbit walk ``_orbit_psi`` writes the float cosine out inline.
    """
    if kind != "cos" and kind != "sin":
        raise ParameterError("kind", f"must be 'cos' or 'sin', got {kind!r}")
    arg = TWO_PI * y
    try:  # as in mod1: math refuses an array
        t = math.cos(arg) if kind == "cos" else math.sin(arg)
    except TypeError:
        t = np.cos(arg) if kind == "cos" else np.sin(arg)
    return TWO_PI * params.k * t


def map_step(x: Coord, y: Coord, params: MapParams, forward: bool) -> tuple[Coord, Coord]:
    """One step of f_k (``forward``) or of its inverse, before the reduction mod 1; numpy's sin has math's bits.

    The orbit walk ``_orbit_psi`` writes the float step out inline.
    """
    arg = y if forward else y - x
    try:  # as in mod1: math refuses an array
        shift = params.k * math.sin(TWO_PI * arg)
    except TypeError:
        shift = params.k * np.sin(TWO_PI * arg)
    if forward:
        return x + shift, x + y + shift
    return x - shift, arg


def map_forward(p: TorusPoint, params: MapParams) -> TorusPoint:
    """One forward step of the standard map."""
    return TorusPoint(*map_step(p.x, p.y, params, True))


def map_inverse(p: TorusPoint, params: MapParams) -> TorusPoint:
    """One backward step; map_inverse(map_forward(p)) == p up to rounding."""
    return TorusPoint(*map_step(p.x, p.y, params, False))


def jacobian_entries(c: float, forward: bool) -> tuple[float, float, float, float]:
    """Row-major entries of the forward (or backward) Jacobian where psi = c.

    ``orbit_entries`` writes them out inline on the orbit walk ``_orbit_psi``.
    """
    return (1.0, c, 1.0, 1.0 + c) if forward else (1.0 + c, -c, -1.0, 1.0)


def jacobian(p: TorusPoint, params: MapParams, time: TimeDirection = "forward") -> Mat2:
    """Derivative of the map (or its inverse) at a point.

    A single cos evaluation is shared between entries so the determinant
    cancels to 1 except for one rounding in 1 + psi.
    """
    if time == "forward":
        return Mat2(*jacobian_entries(psi(p.y, params), True))
    if time == "backward":
        return Mat2(*jacobian_entries(psi(p.ytilde, params), False))
    raise ParameterError("time", f"must be 'forward' or 'backward', got {time!r}")


def _orbit_psi(p: TorusPoint, params: MapParams, n: int) -> Iterator[tuple[float, float]]:
    """The scalar orbit walk: (h, psi at h) at each of the |n| steps of p's
    orbit, h = y forward for n > 0, else h = ytilde backward.

    Each step is ``psi``, ``map_step`` and ``mod1`` on floats, written out
    with their float operations in their order, so it calls no Python
    function.  ``orbit_entries`` and ``orbit_expansion`` take their steps
    from it.
    """
    k, big_k, floor, cos, sin = params.k, TWO_PI * params.k, math.floor, math.cos, math.sin
    x, y = p.x, p.y
    if n > 0:
        for _ in range(n):
            arg = TWO_PI * y
            yield y, big_k * cos(arg)
            shift = k * sin(arg)
            x, y = x + shift, x + y + shift
            x, y = x - floor(x), y - floor(y)
            if x >= 1.0 or 1.0 - x <= 1e-15:
                x = 0.0
            if y >= 1.0 or 1.0 - y <= 1e-15:
                y = 0.0
        return
    for _ in range(-n):
        arg = y - x
        y = arg - floor(arg)  # mod1(ytilde), the next y too
        if y >= 1.0 or 1.0 - y <= 1e-15:
            y = 0.0
        yield y, big_k * cos(TWO_PI * y)
        x -= k * sin(TWO_PI * arg)
        x -= floor(x)
        if x >= 1.0 or 1.0 - x <= 1e-15:
            x = 0.0


def orbit_entries(p: TorusPoint, params: MapParams, n: int) -> tuple[float, float, float, float, float]:
    """``orbit_jacobian``'s four entries and det D(f^n)_p, from one walk of the orbit.

    The determinant is the product of the step determinants along the
    orbit, each a11 a22 - a12 a21 = (1 + psi) - psi of either direction's
    entries.  Each is 1 up to the rounding of 1 + psi, so the product is 1
    to within |n| such roundings, while the determinant of the product
    matrix cancels to noise once its entries pass 1/sqrt(eps).
    """
    if n == 0:
        raise ParameterError("n", "must be nonzero, got 0")
    a, b, c, d, det, forward = 1.0, 0.0, 0.0, 1.0, 1.0, n > 0
    for _, s in _orbit_psi(p, params, n):
        m11, m12, m21, m22 = (1.0, s, 1.0, 1.0 + s) if forward else (1.0 + s, -s, -1.0, 1.0)  # jacobian_entries
        a, b, c, d = m11 * a + m12 * c, m11 * b + m12 * d, m21 * a + m22 * c, m21 * b + m22 * d
        det *= m11 * m22 - m12 * m21
    # A non-finite entry keeps its column non-finite at every later step, so one test at the end suffices.
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise ParameterError("n", f"{n}: the orbit Jacobian overflows float64 at k = {params.k:g}")
    t = (det - (a * d - b * c)) / (a * a + b * b + c * c + d * d)
    if math.isfinite(t):
        a, b, c, d = a + t * d, b - t * c, c - t * b, d + t * a
    return a, b, c, d, det


def orbit_jacobian(p: TorusPoint, params: MapParams, n: int) -> Mat2:
    """Chain-rule product of Jacobians along the orbit of p.

    For n > 0 this is D(f^n)_p, for n < 0 it is D(f^n)_p computed along the
    backward orbit.  Its four entries and the product of the step
    determinants are floats, each step's entries multiplied in from the
    left.  Entries grow like (2 pi k)^|n| on most orbits, and an order whose
    product leaves float64 range raises ``ParameterError`` naming ``n`` (at
    (0.2, 0.3): n = 57 for k = 1e5, n = 37 for k = 1e8).

    Rounding in the products moves the determinant by up to eps times the
    square of the largest partial product, which exceeds the rounding of
    the final entries when an orbit expands and then contracts.  So the
    product is moved back along its cofactor matrix to the product of the
    step determinants.  The walk is ``orbit_entries``.
    """
    a, b, c, d, _ = orbit_entries(p, params, n)
    return Mat2(a, b, c, d)

