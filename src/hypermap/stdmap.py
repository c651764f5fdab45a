"""The standard map family on the unit torus: maps, Jacobians, orbit products.

The family is

    f_k(x, y) = (x + k sin(2 pi y), x + y + k sin(2 pi y))  mod 1,   k > 0,

with inverse

    f_k^{-1}(x, y) = (x - k sin(2 pi (y - x)), y - x)  mod 1.

Every derivative matrix produced here is unimodular (det = 1).  The forward
Jacobian depends only on y; the backward Jacobian depends only on the
diagonal coordinate ytilde = (y - x) mod 1, so both are constant along
horizontal lines resp. lines of slope one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Literal, Mapping

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)

#: Cap on |n| for orbit Jacobian products.  Entries grow roughly like
#: (2 pi k)^n, which exhausts double range near n = 60 for k of order 100.
ORBIT_JACOBIAN_CAP = 60

# Coefficients c such that the strip constant is acos(c / (4 pi k)) / (2 pi).
# A constant is only defined while |c| / (4 pi k) <= 1.
_DELTA_COEFFS = {
    "delta_minus": SQRT3 - 1.0,
    "delta_star": -1.0,
    "delta_plus": -(1.0 + SQRT3),
    "delta_hat_T_minus": -(1.0 + SQRT3 / 3.0),
    "delta_hat_T_plus": -(1.0 + 3.0 * SQRT3),
}

TimeDirection = Literal["forward", "backward"]


class ParameterError(ValueError):
    """A parameter outside the domain of the object it defines: ``name`` is its
    name in the signature that took it, ``detail`` what is wrong with its value,
    and ``str(exc)`` is ``f"{name} {detail}"``."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name} {detail}")
        self.name = name
        self.detail = detail


class IterateDepthError(ParameterError):
    """Requested orbit-Jacobian order exceeds the overflow-safe cap."""


def mod1(v: float) -> float:
    """Reduce a real number into [0, 1).

    Values within 1e-15 of 1 snap to 0 so that leaf tracing stays stable
    across the torus seam.
    """
    r = v - math.floor(v)
    if r >= 1.0 or 1.0 - r <= 1e-15:
        return 0.0
    return r


def torus_dist(a: "TorusPoint", b: "TorusPoint") -> float:
    """Euclidean distance on the torus (shortest representative)."""
    dx = abs(a.x - b.x)
    dy = abs(a.y - b.y)
    dx = min(dx, 1.0 - dx)
    dy = min(dy, 1.0 - dy)
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class MapParams:
    """Parameter of the family, with per-constant validity flags.

    The strip constants delta^-, delta^*, delta^+ and the tangency-strip
    constants require acos of a quantity proportional to 1/k; each flag in
    ``defined`` records whether that argument lies in [-1, 1] for this k.
    The most demanding constant needs k >= (1 + 3 sqrt 3)/(4 pi) ~ 0.4931.
    """

    k: float
    defined: Mapping[str, bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.k, (int, float)) and math.isfinite(self.k)):
            raise ParameterError("k", f"must be a finite real, got {self.k!r}")
        if self.k <= 0:
            raise ParameterError("k", f"must be positive, got {self.k}")
        flags = {
            name: abs(c) / (4.0 * math.pi * self.k) <= 1.0
            for name, c in _DELTA_COEFFS.items()
        }
        object.__setattr__(self, "defined", MappingProxyType(flags))

    def acos_arg(self, name: str) -> float:
        """Signed acos argument for the named strip constant."""
        return _DELTA_COEFFS[name] / (4.0 * math.pi * self.k)


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

    def vector(self) -> tuple[float, float]:
        """Unit vector (cos theta, sin theta) of the canonical representative."""
        t = self.theta
        return (math.cos(t), math.sin(t))

    def perp(self) -> "DirAngle":
        return DirAngle(self.lifted + 0.5 * math.pi)

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

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    def apply(self, vx: float, vy: float) -> tuple[float, float]:
        return (self.a11 * vx + self.a12 * vy, self.a21 * vx + self.a22 * vy)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def inverse_unimodular(self) -> "Mat2":
        """Adjugate inverse; exact for det = 1 matrices."""
        return Mat2(self.a22, -self.a12, -self.a21, self.a11)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22)


def map_forward(p: TorusPoint, params: MapParams) -> TorusPoint:
    """One forward step of the standard map."""
    shift = params.k * math.sin(TWO_PI * p.y)
    return TorusPoint(p.x + shift, p.x + p.y + shift)


def map_inverse(p: TorusPoint, params: MapParams) -> TorusPoint:
    """One backward step; map_inverse(map_forward(p)) == p up to rounding."""
    yt = p.y - p.x
    return TorusPoint(p.x - params.k * math.sin(TWO_PI * yt), yt)


def jacobian(p: TorusPoint, params: MapParams, time: TimeDirection = "forward") -> Mat2:
    """Derivative of the map (or its inverse) at a point.

    A single cos evaluation is shared between entries so the determinant
    cancels to 1 except for one rounding in 1 + psi.
    """
    if time == "forward":
        c = TWO_PI * params.k * math.cos(TWO_PI * p.y)
        return Mat2(1.0, c, 1.0, 1.0 + c)
    if time == "backward":
        c = TWO_PI * params.k * math.cos(TWO_PI * p.ytilde)
        return Mat2(1.0 + c, -c, -1.0, 1.0)
    raise ValueError(f"time must be 'forward' or 'backward', got {time!r}")


def orbit_jacobian(p: TorusPoint, params: MapParams, n: int) -> Mat2:
    """Chain-rule product of Jacobians along the orbit of p.

    For n > 0 this is D(f^n)_p, for n < 0 it is D(f^n)_p computed along the
    backward orbit.  |n| is capped at ``ORBIT_JACOBIAN_CAP`` because entries
    grow like (2 pi k)^|n| and overflow double range beyond that for large k.

    Rounding in the products moves the determinant by up to eps times the
    square of the largest partial product, which exceeds the rounding of
    the final entries when an orbit expands and then contracts.  So the
    product is moved back along its cofactor matrix to the determinant
    ``orbit_determinant`` gives.
    """
    if n == 0:
        raise ValueError("orbit_jacobian requires a nonzero order n")
    if abs(n) > ORBIT_JACOBIAN_CAP:
        raise IterateDepthError("n", f"exceeds the orbit cap {ORBIT_JACOBIAN_CAP} in absolute value, got {n}")
    time: TimeDirection = "forward" if n > 0 else "backward"
    step = map_forward if n > 0 else map_inverse
    acc, det = Mat2.identity(), 1.0
    for _ in range(abs(n)):
        m = jacobian(p, params, time)
        acc = m @ acc
        det *= m.det
        p = step(p, params)
    a, b, c, d = acc.entries()
    t = (det - acc.det) / (a * a + b * b + c * c + d * d)
    return Mat2(a + t * d, b - t * c, c - t * b, d + t * a) if math.isfinite(t) else acc


def orbit_determinant(p: TorusPoint, params: MapParams, n: int) -> float:
    """det D(f^n)_p as the product of the step determinants along the orbit.

    Each step's determinant is 1 up to the rounding of 1 + psi, so the
    product is 1 to within |n| such roundings, while the determinant of the
    product matrix cancels to noise once its entries pass 1/sqrt(eps).
    """
    time: TimeDirection = "forward" if n > 0 else "backward"
    step = map_forward if n > 0 else map_inverse
    det = 1.0
    for _ in range(abs(n)):
        det *= jacobian(p, params, time).det
        p = step(p, params)
    return det
