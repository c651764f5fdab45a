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
from typing import Iterator, Literal, Mapping

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


def _orbit_steps(p: TorusPoint, params: MapParams, n: int) -> Iterator[Mat2]:
    """The |n| step Jacobians along the orbit of p: forward for n > 0, else backward."""
    time: TimeDirection = "forward" if n > 0 else "backward"
    step = map_forward if n > 0 else map_inverse
    for _ in range(abs(n)):
        yield jacobian(p, params, time)
        p = step(p, params)


def orbit_jacobian(p: TorusPoint, params: MapParams, n: int) -> Mat2:
    """Chain-rule product of Jacobians along the orbit of p.

    For n > 0 this is D(f^n)_p, for n < 0 it is D(f^n)_p computed along the
    backward orbit.  Entries grow like (2 pi k)^|n| on most orbits, and an
    order whose product leaves float64 range raises ``ParameterError``
    naming ``n`` (at (0.2, 0.3): n = 57 for k = 1e5, n = 37 for k = 1e8).

    Rounding in the products moves the determinant by up to eps times the
    square of the largest partial product, which exceeds the rounding of
    the final entries when an orbit expands and then contracts.  So the
    product is moved back along its cofactor matrix to the determinant
    ``orbit_determinant`` gives.
    """
    if n == 0:
        raise ValueError("orbit_jacobian requires a nonzero order n")
    acc, det = Mat2.identity(), 1.0
    for m in _orbit_steps(p, params, n):
        acc = m @ acc
        det *= m.det
        if not all(map(math.isfinite, acc.entries())):  # it stays so; stop at once
            raise ParameterError("n", f"{n}: the orbit Jacobian overflows float64 at k = {params.k:g}")
    a, b, c, d = acc.entries()
    t = (det - acc.det) / (a * a + b * b + c * c + d * d)
    return Mat2(a + t * d, b - t * c, c - t * b, d + t * a) if math.isfinite(t) else acc


def orbit_determinant(p: TorusPoint, params: MapParams, n: int) -> float:
    """det D(f^n)_p as the product of the step determinants along the orbit.

    Each step's determinant is 1 up to the rounding of 1 + psi, so the
    product is 1 to within |n| such roundings, while the determinant of the
    product matrix cancels to noise once its entries pass 1/sqrt(eps).
    """
    det = 1.0
    for m in _orbit_steps(p, params, n):
        det *= m.det
    return det
