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

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Literal, Mapping, Union

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


def mod1(v: float) -> float:
    """Reduce a real number into [0, 1).

    Values within 1e-15 of 1 snap to 0 so that leaf tracing stays stable
    across the torus seam.
    """
    r = v - math.floor(v)
    if r >= 1.0 or 1.0 - r <= 1e-15:
        return 0.0
    return r


@dataclass(frozen=True)
class MapParams:
    """Parameter of the family, with per-constant validity flags.

    The strip constants delta^-, delta^*, delta^+ and the tangency-strip
    constants are heights where psi_c takes a k-free level; each flag in
    ``defined`` records whether that level lies in [-2 pi k, 2 pi k].
    The most demanding constant needs k >= (1 + 3 sqrt 3)/(4 pi) ~ 0.4931.
    """

    k: float
    defined: Mapping[str, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.k, (int, float)) and math.isfinite(self.k)):
            raise ParameterError("k", f"must be a finite real, got {self.k!r}")
        if self.k <= 0:
            raise ParameterError("k", f"must be positive, got {self.k}")
        flags = {name: abs(v) / (TWO_PI * self.k) <= 1.0 for name, v in DELTA_LEVELS.items()}
        object.__setattr__(self, "defined", MappingProxyType(flags))


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
        t = self.lifted % math.pi
        if t >= math.pi:
            t = 0.0
        return t

    def dist(self, other: "DirAngle") -> float:
        return angle_dist_mod_pi(self.theta, other.theta)


def angle_dist_mod_pi(a: float, b: float) -> float:
    """Distance between two undirected directions, in [0, pi/2]."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


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
    """2 pi k cos(2 pi y) or 2 pi k sin(2 pi y), at a y or a ytilde coordinate."""
    if kind != "cos" and kind != "sin":
        raise ParameterError("kind", f"must be 'cos' or 'sin', got {kind!r}")
    arg = TWO_PI * y
    if type(y) is not float and isinstance(y, np.ndarray) and y.ndim:  # floats stop at the cheaper type() test
        t = np.cos(arg) if kind == "cos" else np.sin(arg)
    else:
        t = math.cos(arg) if kind == "cos" else math.sin(arg)
    return TWO_PI * params.k * t


def map_step(x: float, y: float, params: MapParams, forward: bool) -> tuple[float, float]:
    """One step of f_k (``forward``) or of its inverse, before the reduction mod 1."""
    if forward:
        shift = params.k * math.sin(TWO_PI * y)
        return x + shift, x + y + shift
    return x - params.k * math.sin(TWO_PI * (y - x)), y - x


def map_forward(p: TorusPoint, params: MapParams) -> TorusPoint:
    """One forward step of the standard map."""
    return TorusPoint(*map_step(p.x, p.y, params, True))


def map_inverse(p: TorusPoint, params: MapParams) -> TorusPoint:
    """One backward step; map_inverse(map_forward(p)) == p up to rounding."""
    return TorusPoint(*map_step(p.x, p.y, params, False))


def _entries(c: float, forward: bool) -> tuple[float, float, float, float]:
    """Row-major entries of the forward (or backward) Jacobian where psi = c."""
    return (1.0, c, 1.0, 1.0 + c) if forward else (1.0 + c, -c, -1.0, 1.0)


def jacobian(p: TorusPoint, params: MapParams, time: TimeDirection = "forward") -> Mat2:
    """Derivative of the map (or its inverse) at a point.

    A single cos evaluation is shared between entries so the determinant
    cancels to 1 except for one rounding in 1 + psi.
    """
    if time == "forward":
        return Mat2(*_entries(psi(p.y, params), True))
    if time == "backward":
        return Mat2(*_entries(psi(p.ytilde, params), False))
    raise ParameterError("time", f"must be 'forward' or 'backward', got {time!r}")


def _orbit_psi(p: TorusPoint, params: MapParams, n: int) -> list[float]:
    """psi at the |n| steps of p's orbit: at y forward for n > 0, else at ytilde backward."""
    forward, x, y, out = n > 0, p.x, p.y, []
    for _ in range(abs(n)):
        out.append(psi(y if forward else mod1(y - x), params))
        x, y = map_step(x, y, params, forward)
        x, y = mod1(x), mod1(y)
    return out


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
    product is moved back along its cofactor matrix to the determinant
    ``orbit_determinant`` gives.
    """
    if n == 0:
        raise ParameterError("n", "must be nonzero, got 0")
    a, b, c, d, det = 1.0, 0.0, 0.0, 1.0, 1.0
    for s in _orbit_psi(p, params, n):
        m11, m12, m21, m22 = _entries(s, n > 0)
        a, b, c, d = m11 * a + m12 * c, m11 * b + m12 * d, m21 * a + m22 * c, m21 * b + m22 * d
        det *= m11 * m22 - m12 * m21
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            raise ParameterError("n", f"{n}: the orbit Jacobian overflows float64 at k = {params.k:g}")
    t = (det - (a * d - b * c)) / (a * a + b * b + c * c + d * d)
    return Mat2(a + t * d, b - t * c, c - t * b, d + t * a) if math.isfinite(t) else Mat2(a, b, c, d)


def orbit_determinant(p: TorusPoint, params: MapParams, n: int) -> float:
    """det D(f^n)_p as the product of the step determinants along the orbit.

    Each step's determinant is 1 up to the rounding of 1 + psi, so the
    product is 1 to within |n| such roundings, while the determinant of the
    product matrix cancels to noise once its entries pass 1/sqrt(eps).
    """
    # (1 + psi) - psi is a11 a22 - a12 a21 of either direction's entries.
    return math.prod(((1.0 + s) - s for s in _orbit_psi(p, params, n)), start=1.0)
