"""Independent brute-force ground truth used by the test suite.

Two tools live here: a closed-form 2x2 SVD and an exhaustive angle sweep for
the most contracted direction.  They are deliberately kept apart from the
production formula paths so no identity is ever validated only against
itself.

The SVD's formula is written once, on four floats or arrays, as
``svd2_entries``; ``svd2`` wraps it for a ``Mat2``.  Two production paths
use ``svd2_entries``: the ``verify`` battery checks the closed-form
contracted field against it on arrays, and ``hyperbolic_frame`` takes its
order-n singular values and directions from it on floats.  No production
path calls ``svd2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .stdmap import Coord, DirAngle, Mat2, atan2_each, hypot_each

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Svd2Result:
    """Singular values and right-singular directions of a 2x2 matrix."""

    sigma_max: float
    sigma_min: float
    dir_max: Optional[DirAngle]
    dir_min: Optional[DirAngle]
    degenerate: bool


@dataclass(frozen=True)
class SweepMinResult:
    angle: Optional[DirAngle]
    degenerate: bool


def _image_norm(a: Coord, b: Coord, c: Coord, d: Coord, theta: Coord, cos=math.cos, sin=math.sin,
                hypot=math.hypot) -> Coord:
    """|M v(theta)| for M with row-major entries a, b, c, d; arrays pass svd2_entries's cos, sin and hypot."""
    co, si = cos(theta), sin(theta)
    return hypot(a * co + b * si, c * co + d * si)


def svd2_entries(a: Coord, b: Coord, c: Coord, d: Coord) -> tuple[Coord, Coord, Optional[Coord], Optional[Coord]]:
    """``svd2`` on the four row-major entries of a matrix, as floats or as broadcast arrays.

    Returns (sigma_max, sigma_min, lifted angle of dir_max, lifted angle of
    dir_min); both angles are None (NaN in arrays) where ``svd2`` calls the
    matrix degenerate.  Arrays take hypot and atan2 from math element by
    element, so both paths agree bit for bit.  Raises ValueError unless
    every entry is finite.
    """
    try:  # as in stdmap.mod1: math refuses an array
        finite = math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)
        cos, sin, hypot, atan2 = math.cos, math.sin, math.hypot, math.atan2
    except TypeError:
        finite = all(np.isfinite(e).all() for e in (a, b, c, d))
        cos, sin, hypot, atan2 = np.cos, np.sin, hypot_each, atan2_each
    if not finite:
        raise ValueError(f"svd2 requires finite entries, got {(a, b, c, d)!r}")
    h1 = hypot(a + d, b - c)
    h2 = hypot(a - d, b + c)
    sigma_max = 0.5 * (h1 + h2)
    sigma_min = 0.5 * abs(h1 - h2)
    num = 2.0 * (a * b + c * d)
    den = a * a + c * c - b * b - d * d
    # h2 <= 1e-14 max(h1, 1e-300), or no direction singled out; | reads arrays too.
    degenerate = (h2 <= 1e-14 * h1) | (h2 <= 1e-14 * 1e-300) | (sigma_max == 0.0) | (num == 0.0) & (den == 0.0)
    t0 = 0.5 * atan2(num, den)
    t1 = t0 + 0.5 * math.pi
    t0_min = _image_norm(a, b, c, d, t0, cos, sin, hypot) <= _image_norm(a, b, c, d, t1, cos, sin, hypot)
    if isinstance(degenerate, np.ndarray):
        return sigma_max, sigma_min, *np.where(degenerate, np.nan, np.where(t0_min, [t1, t0], [t0, t1]))
    if degenerate:
        return sigma_max, sigma_min, None, None
    return (sigma_max, sigma_min, t1, t0) if t0_min else (sigma_max, sigma_min, t0, t1)


def svd2(m: Mat2) -> Svd2Result:
    """Closed-form singular value decomposition of a 2x2 real matrix.

    Singular values come from the numerically stable split

        h1 = |(a+d, b-c)|,  h2 = |(a-d, b+c)|,
        sigma_max = (h1 + h2)/2,  sigma_min = |h1 - h2|/2,

    and the extremal right-singular directions from the stationarity relation
    tan(2 theta) = 2(ab + cd) / (a^2 + c^2 - b^2 - d^2).  Which of the two
    orthogonal solutions is most contracted is decided by direct evaluation
    of |M v|, never by convention.  The formula is ``svd2_entries``.
    """
    try:
        sigma_max, sigma_min, t_max, t_min = svd2_entries(*m.entries())
    except ValueError:
        raise ValueError(f"svd2 requires finite entries, got {m!r}") from None
    if t_max is None or t_min is None:
        return Svd2Result(sigma_max, sigma_min, None, None, True)
    return Svd2Result(sigma_max, sigma_min, DirAngle(t_max), DirAngle(t_min), False)


def sweep_min_direction(m: Mat2, grid: int = 100_000) -> SweepMinResult:
    """Most contracted direction by exhaustive minimisation of |M v(theta)|.

    A uniform grid over [0, pi) is followed by golden-section refinement to
    1e-10.  This is the cross-check route, fully independent of svd2.
    """
    if grid < 1000:
        raise ValueError(f"grid must be >= 1000, got {grid}")
    a, b, c, d = m.entries()
    thetas = np.linspace(0.0, math.pi, grid, endpoint=False)
    ct, st = np.cos(thetas), np.sin(thetas)
    norms_sq = (a * ct + b * st) ** 2 + (c * ct + d * st) ** 2
    lo, hi = float(norms_sq.min()), float(norms_sq.max())
    if hi <= 0.0 or (hi - lo) <= 1e-13 * hi:
        return SweepMinResult(None, True)
    i = int(norms_sq.argmin())
    width = math.pi / grid
    xa, xb = thetas[i] - width, thetas[i] + width
    # Golden-section search on the bracketing interval.
    x1 = xb - _GOLDEN * (xb - xa)
    x2 = xa + _GOLDEN * (xb - xa)
    f1, f2 = _image_norm(a, b, c, d, x1), _image_norm(a, b, c, d, x2)
    while xb - xa > 1e-10:
        if f1 <= f2:
            xb, x2, f2 = x2, x1, f1
            x1 = xb - _GOLDEN * (xb - xa)
            f1 = _image_norm(a, b, c, d, x1)
        else:
            xa, x1, f1 = x1, x2, f2
            x2 = xa + _GOLDEN * (xb - xa)
            f2 = _image_norm(a, b, c, d, x2)
    best = 0.5 * (xa + xb)
    # |M v(theta)|^2 is an exact sinusoid in 2 theta, so a three-point vertex
    # solve at well-separated samples removes the sqrt(eps) noise floor that
    # limits any purely comparison-based minimiser.
    h = width
    f0 = _image_norm(a, b, c, d, best) ** 2
    fp = _image_norm(a, b, c, d, best + h) ** 2
    fm = _image_norm(a, b, c, d, best - h) ** 2
    curvature = fp + fm - 2.0 * f0
    if curvature > 0.0:
        best -= 0.5 * math.atan(math.tan(h) * (fp - fm) / curvature)
    return SweepMinResult(DirAngle(best), False)
