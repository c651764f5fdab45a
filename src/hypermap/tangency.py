"""The critical curve: tangencies between the forward and backward
contracted direction fields.

A tangency at the point with coordinates (ytilde, y) means the forward
field at y and the backward field at ytilde are the same undirected
direction.  Inside the strips where both case formulas carry compatible
offsets, this reduces to phi(y) = phitilde(ytilde), solved by the
multivalued inverse

    y = phi^{-1}(z) = acos((-(z+2) +- sqrt(3 z^2 + 4)) / (4 pi k z)) / (2 pi)

(the radicand 3 z^2 + 4 is always positive).  The selector Gamma intersects
the inverse with a region that switches at ytilde = delta^*, and always
contains exactly two values: one on the lower curve (y < 1/2), one on the
upper (its mirror).  Both curves live inside the tangency strip
Delta_hat_T; the horizontal strips y in [0, delta^-] and [1 - delta^-, 1]
contain no tangencies at all because there the forward field points into
the second quadrant while the backward field stays in the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coordinates import (
    Coord,
    CriticalConstants,
    backward_angle,
    critical_constants,
    forward_angle,
    phi_tilde,
    psi,
    psi_prime,
)
from .stdmap import TWO_PI, MapParams

#: Cushion used for interval membership at delta-boundaries.
_EDGE_TOL = 1e-12

#: Fewest ytilde samples tangency_curve accepts.
MIN_CURVE_SAMPLES = 16


class TangencySelectionError(ValueError):
    """The region intersection did not produce exactly two values.

    Indicates k below the validity threshold of the strip constants.
    """


@dataclass(frozen=True)
class TangencyPoint:
    """One point on a tangency curve, in (ytilde, y) coordinates."""

    ytilde: float
    y: float
    branch: str  # "lower" | "upper"
    residual: float  # angle between the two contracted fields, radians

    @property
    def x(self) -> float:
        """Torus x-coordinate, (y - ytilde) mod 1."""
        return (self.y - self.ytilde) % 1.0


@dataclass(frozen=True)
class NoTangencyReport:
    """Minimum field angle over a grid scan of the tangency-free strips."""

    k: float
    grid: int
    min_angle: float
    at_y: float
    at_ytilde: float


def residual_angle(y: Coord, ytilde: Coord, params: MapParams) -> Coord:
    """Angle between the forward field at y and the backward field at ytilde."""
    d = (forward_angle(y, params) % math.pi - backward_angle(ytilde, params) % math.pi) % math.pi
    return np.minimum(d, math.pi - d) if isinstance(d, np.ndarray) else min(d, math.pi - d)


def _inverse_branch(z: Coord, sign: float, params: MapParams) -> Coord:
    """One quadratic branch of phi^{-1}(z): a root y in [0, 1/2], or NaN.

    Two Newton steps on psi_c(y) - psi_root remove the rounding of the
    acos/cos round trip, except where psi_c' is too small to divide by.
    """
    array = isinstance(z, np.ndarray)
    psi_root = (-(z + 2.0) + sign * (np.sqrt if array else math.sqrt)(3.0 * z * z + 4.0)) / (2.0 * z)
    arg = psi_root / (TWO_PI * params.k)
    if array:
        with np.errstate(invalid="ignore"):
            y = np.arccos(arg) / TWO_PI
    elif abs(arg) <= 1.0:
        y = math.acos(arg) / TWO_PI
    else:
        return math.nan
    for _ in range(2):
        dp = psi_prime(y, params)
        err = psi(y, params) - psi_root
        move = (abs(dp) >= 1e-6 * params.k) & (err != 0.0)
        if array:
            y = y - np.where(move, err / np.where(move, dp, 1.0), 0.0)
        elif move:
            y -= err / dp
    return y


def phi_inverse(z: float, params: MapParams) -> list[float]:
    """All y in [0, 1) with phi(y) = z, for z != 0.

    Each quadratic branch whose acos argument lies in [-1, 1] contributes a
    root y and its mirror 1 - y.  Roots are polished so that phi(y) matches
    z to 1e-10 relative.  The z = 0 case is excluded (the formula divides
    by z); callers use the known zero set {delta^*, 1 - delta^*} instead.
    """
    if z == 0.0:
        raise ValueError("phi_inverse is undefined at z = 0; the zero set of phi is {delta^*, 1 - delta^*}")
    if math.isinf(z):
        raise ValueError("phi_inverse expects finite z; asymptote preimages are delta^-+ by definition")
    out: list[float] = []
    for sign in (1.0, -1.0):
        y = _inverse_branch(z, sign, params)
        if not math.isnan(y):
            out += [y, 1.0 - y]
    return sorted(out)


def _select(ytilde: Coord, params: MapParams, consts: CriticalConstants):
    """Gamma at ytilde in [0, 1) as (lower, upper, ok); ok is False, and both NaN,
    where the region intersection did not give exactly two values."""
    dm, ds, dp = consts.delta_minus, consts.delta_star, consts.delta_plus
    if dm is None or ds is None or dp is None:
        raise TangencySelectionError(f"strip constants undefined for k = {params.k}")
    at_asymptote = (abs(ytilde - ds) <= _EDGE_TOL) | (abs(ytilde - (1.0 - ds)) <= _EDGE_TOL)
    outer = np.asarray((ytilde <= ds) | (ytilde >= 1.0 - ds))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = [_inverse_branch(phi_tilde(ytilde, params), sign, params) for sign in (1.0, -1.0)]
    cand = np.stack(roots + [1.0 - r for r in roots], axis=-1)

    def within(lo: float, hi: float) -> np.ndarray:
        return (cand >= lo - _EDGE_TOL) & (cand <= hi + _EDGE_TOL)

    keep = np.where(outer, within(dm, dp) | within(1.0 - dp, 1.0 - dm), within(dp, 1.0 - dp))
    ok = at_asymptote | (keep.sum(axis=-1) == 2)
    lower = np.where(at_asymptote, dp, np.min(np.where(keep, cand, np.inf), axis=-1))
    upper = np.where(at_asymptote, 1.0 - dp, np.max(np.where(keep, cand, -np.inf), axis=-1))
    return np.where(ok, lower, np.nan), np.where(ok, upper, np.nan), ok


def gamma(ytilde: float, params: MapParams) -> tuple[float, float]:
    """The two tangency heights y above a given diagonal coordinate.

    Evaluates phitilde, inverts phi, and intersects with the region
    dictated by the case split at delta^* and 1 - delta^*.  At the
    asymptotes of phitilde the limit values are the phi-asymptote preimages
    delta^+ and 1 - delta^+.  Returns (lower, upper) with lower < upper.
    """
    ytilde %= 1.0
    lower, upper, ok = _select(ytilde, params, critical_constants(params))
    if not ok:
        raise TangencySelectionError(f"expected 2 tangency heights at ytilde = {ytilde}, k = {params.k}")
    return float(lower), float(upper)


def _refine(y: np.ndarray, ytilde: np.ndarray, params: MapParams) -> np.ndarray:
    """Up to 3 secant steps on the field-angle difference along y.

    The closed-form roots are already accurate; this kills the last of the
    floating-point error so the residual contract (< 1e-8) holds with a
    wide margin.
    """
    b = backward_angle(ytilde, params) % math.pi

    def diff(yy: np.ndarray) -> np.ndarray:
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
    return y


def _refined(y: np.ndarray, ytilde: np.ndarray, params: MapParams) -> tuple[np.ndarray, np.ndarray]:
    """Polished heights and their residual angles."""
    y = _refine(y, ytilde, params)
    return y, residual_angle(y, ytilde, params)


def _points(ytilde: np.ndarray, y: np.ndarray, res: np.ndarray, branch: str) -> list[TangencyPoint]:
    return [TangencyPoint(t, v, branch, r) for t, v, r in zip(ytilde.tolist(), y.tolist(), res.tolist())]


def curve_arrays(
    params: MapParams, n_samples: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``tangency_curve`` as arrays: ytilde, then (y, residual) of each curve."""
    if n_samples < MIN_CURVE_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_CURVE_SAMPLES}, got {n_samples}")
    ytilde = np.arange(n_samples) / n_samples
    lower, upper, ok = _select(ytilde, params, critical_constants(params))
    if not ok.all():
        bad = ytilde[~ok][0]
        raise TangencySelectionError(f"expected 2 tangency heights at ytilde = {bad}, k = {params.k}")
    return ytilde, _refined(lower, ytilde, params), _refined(upper, ytilde, params)


def tangency_curve(params: MapParams, n_samples: int) -> tuple[list[TangencyPoint], list[TangencyPoint]]:
    """Sample both tangency curves over a uniform grid of ytilde.

    The selector's two values are mirror images about y = 1/2, so the lower
    one traces the lower curve and the upper one the upper curve.
    """
    ytilde, lower, upper = curve_arrays(params, n_samples)
    return _points(ytilde, *lower, "lower"), _points(ytilde, *upper, "upper")


def tangency_landmarks(params: MapParams) -> list[Optional[TangencyPoint]]:
    """The eight landmark tangency points P1..P8 along the lower curve.

    Their diagonal coordinates are, in order along the curve,

        P1 0          P3 delta^*   P5 1/2           P7 1 - delta^*
        P2 delta^-    P4 delta^+   P6 1 - delta^+   P8 1 - delta^-

    and each height is the lower branch of the tangency selector there:
    P1/P5 land on delta_T^-+, P3/P7 on delta^+ exactly, and P2/P8 resp.
    P4/P6 are the extreme heights of the lower curve (where phi takes the
    k-free values -+ sqrt(3), strictly inside the Delta_hat_T strip).
    A landmark whose diagonal coordinate is unavailable for this k is None.
    """
    c = critical_constants(params)
    first = np.array([0.0, c.delta_minus, c.delta_star, c.delta_plus, 0.5], dtype=float)  # None -> NaN
    ytilde = np.concatenate([first, 1.0 - first[3:0:-1]])
    try:
        lower, _, ok = _select(ytilde, params, c)
    except TangencySelectionError:
        return [None] * len(ytilde)
    points = _points(ytilde, *_refined(lower, ytilde, params), "lower")
    return [tp if good else None for tp, good in zip(points, ok)]


def no_tangency_scan(params: MapParams, grid: int) -> NoTangencyReport:
    """Minimum angle between the two contracted fields over the strips
    y in [0, delta^-] and [1 - delta^-, 1], sampled on a grid x grid mesh.

    The minimum is strictly positive: no tangencies occur there.  Rows of
    constant y are reduced one at a time, so memory stays O(grid).
    """
    if grid < 64:
        raise ValueError(f"grid must be >= 64, got {grid}")
    c = critical_constants(params)
    dm = c.delta_minus
    if dm is None:
        raise ValueError(f"delta^- undefined for k = {params.k}")
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
