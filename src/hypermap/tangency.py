"""The critical curve: tangencies between the forward and backward
contracted direction fields.

A tangency at (ytilde, y) means the forward field at y and the backward
field at ytilde are the same undirected direction: their doubled angles,
that of (P1, -P1') at psi = psi_c(y) and alpha in [pi/3, 2 pi/3], that of
(-P2', 2 P2) at psi_c(ytilde), agree mod 2 pi.  So (P1, -P1') is a positive
multiple of (cos alpha, sin alpha): psi in [-2 pi k, 2 pi k] is a root of
the ray quadratic

    2 sin(alpha) psi^2 + (2 sin(alpha) + 4 cos(alpha)) psi + 2 cos(alpha) - sin(alpha) = 0

that passes the sign test cos(alpha) P1 - sin(alpha) P1' > 0.  Its leading
coefficient is at least sqrt(3) and its value at psi = -1/2 is
-3/2 sin(alpha) < 0, so one root lies below -1/2, where -P1' > 0 puts
(P1, -P1') on the ray itself and the sign test holds, and one above, on the
opposite ray.  ``_lower_heights`` puts (-P2', 2 P2), a positive multiple,
for (cos alpha, sin alpha), and takes the height psi_inverse of the smaller
root, in (1/4, 1/2]; none below -2 pi k.

No other height lies in (0, 1/2), and the upper one is its mirror:
d/dpsi arg(P1, -P1') = 8 P2/(P1^2 + P1'^2) > 0 and psi_c is monotone there,
so the forward field turns monotonically over (0, 1/2), by less than the
2 pi its doubled angle turns over all real psi.  The root ranges over
[-2.118, -0.964] (alpha = pi/3 to 2 pi/3), so every ytilde has its pair
from k ~ 0.337119 on, where 2 pi k passes 2.118.

Both curves live inside the tangency strip Delta_hat_T; the horizontal
strips y in [0, delta^-] and [1 - delta^-, 1] contain no tangencies at all
because there the forward field points into the second quadrant while the
backward field stays in the first.

The scan of those strips uses the fields' quadrants and k-free turning
values.  Let F = forward angle mod pi and B = backward angle mod pi.

- On the strips F lies in [3 pi/4, pi): it falls from y = 0 to 3 pi/4 at
  the asymptote delta^- of phi, and mirrors on [1 - delta^-, 1].
- B lies in [pi/6, pi/3] at every k: phitilde = -+ sqrt(3) at delta^-+,
  so B = pi/3 at psi_c = (sqrt(3) - 1)/2 and pi/6 at psi_c = -(1 +
  sqrt(3))/2, its only turning values in psi_c.
- So F - B lies in (0, pi), and a cell's residual min(F - B, pi - (F - B))
  is the smaller of a nonincreasing and a nondecreasing function of B (float
  subtraction keeps both monotone).  A row's minimum lies at its largest-B
  or its smallest-B column.
- psi_c(ytilde) is monotone between ytilde = 0 and 1/2, so B is monotone
  between the turning points ytilde in {0, delta^-, delta^+, 1/2,
  1 - delta^+, 1 - delta^-}.  Below k = (1 + sqrt(3))/(4 pi) delta^+ does
  not exist and 1/2 is a minimum.
- On each monotone piece the extreme columns are those nearest its ends.
  So a row needs only the columns bracketing each turning point e,
  floor((y - e) grid) + {-1, 0, 1, 2} mod grid: the nearest on each side
  and one more on each for rounding, about 24 cells a row.
- Ties go to the first row, then to the smallest column.  Each cell is
  evaluated by the same numpy operations as in a row-major scan of the full
  grid, so the scan equals that scan bit for bit.

Angles and torus offsets are reduced mod pi and mod 1 with the masked forms
of ``coordinates``, which equal np.remainder bit for bit on the ranges their
operands lie in: ``mod_pi`` for a forward angle in [pi/2, 3 pi/2] or a
backward angle in [0, pi], ``gap_mod_pi`` for a difference of two angles
in [0, pi), and ``mod_one`` for a torus offset y - ytilde in [-1, 1].

Where delta^+ exists the infimum of the residual over the strips is
pi/6 + atan2(4K + 2, 2K^2 + 2K - 1)/2 with K = 2 pi k, approached at
y = 0 against ytilde = delta^+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coordinates import (backward_angle, critical_constants, forward_angle, forward_angle_prime, gap_mod_pi,
                          mod_one, mod_pi, phi_tilde_parts, psi_inverse)
from .stdmap import Coord, MapParams, ParameterError

#: Fewest ytilde samples tangency_curve accepts.
MIN_CURVE_SAMPLES = 16

#: Largest k with tangency curves.  One ulp of a height near 1/4 turns the fields
#: apart by ~1.1e-15 k rad; the curves' worst residual, ~2.2-2.7e-15 k (5.15e-9
#: at k = 2e6, 2.7e-8 at k = 1e7), must stay under 1e-8.
MAX_CURVE_K = 2e6

#: Columns no_tangency_scan evaluates around each turning point of the backward
#: field, relative to the column floor((y - turn) grid) whose ytilde lies just
#: above it: the nearest column on each side, and one more for rounding.
_BRACKET = np.arange(-1, 3)


class TangencySelectionError(ParameterError):
    """k lies outside the domain of the tangency curves: the strip constants
    are undefined, k exceeds ``MAX_CURVE_K``, or a ytilde has no tangency
    height (its ray root lies below -2 pi k, as some do below k ~ 0.337119).
    """


@dataclass(frozen=True)
class TangencyPoint:
    """A landmark on the lower tangency curve, in (ytilde, y) coordinates."""

    ytilde: float
    y: float
    residual: float  # angle between the two contracted fields, radians

    @property
    def x(self) -> float:
        """Torus x-coordinate, ``torus_x(ytilde, y)``."""
        return torus_x(self.ytilde, self.y)


@dataclass(frozen=True)
class NoTangencyReport:
    """Minimum field angle over a grid scan of the tangency-free strips."""

    k: float
    grid: int
    min_angle: float
    at_y: float
    at_ytilde: float


def _angle_gap(forward: Coord, backward: Coord) -> Coord:
    """Distance mod pi between two canonical angles in [0, pi)."""
    d = gap_mod_pi(forward - backward)
    return np.minimum(d, math.pi - d) if isinstance(d, np.ndarray) else min(d, math.pi - d)


def _lower_heights(ytilde: np.ndarray, params: MapParams) -> np.ndarray:
    """The lower tangency height at each ytilde from the ray quadratic (module docstring), NaN where none."""
    if not params.defined["delta_plus"]:
        raise TangencySelectionError("k", f"{params.k:g}: strip constants undefined below k = 0.2174")
    if params.k > MAX_CURVE_K:
        raise TangencySelectionError("k", f"{params.k:g}: tangency curves are computed only up to k = "
                                          f"{MAX_CURVE_K:g}, where a float64 height still meets the "
                                          "1e-8 residual")
    num, den = phi_tilde_parts(ytilde, params)
    s, c = -num, -den
    return psi_inverse((-(2.0 * s + 4.0 * c) - np.sqrt(12.0 * s * s + 16.0 * c * c)) / (4.0 * s), params)


def gamma(ytilde: float, params: MapParams) -> tuple[float, float]:
    """The two tangency heights y above a given diagonal coordinate.

    The ray root of the module docstring on one sample.  Returns (lower,
    upper) with lower < upper, mirror images about y = 1/2; raises
    ``TangencySelectionError`` where ytilde has no tangency.
    """
    ytilde %= 1.0
    lower = float(_lower_heights(np.array([ytilde]), params)[0])
    if math.isnan(lower):
        raise _no_heights(ytilde, params)
    return lower, 1.0 - lower


def _no_heights(ytilde: float, params: MapParams) -> TangencySelectionError:
    """The error for a ytilde with no pair of tangency heights."""
    return TangencySelectionError("k", f"{params.k:g}: ytilde = {ytilde} has no tangency at this k; every "
                                       "ytilde has one from k1 = (2 + sqrt(3) + sqrt(13))/(4 sqrt(3) pi) "
                                       "~ 0.337119 on")


def _refined(y: np.ndarray, b: np.ndarray, params: MapParams) -> tuple[np.ndarray, np.ndarray]:
    """Polished heights against the canonical backward angles b, and their
    residual angles.

    One Newton step on d(y) = F(y) - b, the canonical forward angle's
    difference wrapped into (-pi/2, pi/2], with the closed-form slope
    F' = ``forward_angle_prime``.  The ray roots are already accurate; the
    step removes what the angle still sees of their rounding (at k = 2e6,
    grid 4096, the worst residual falls from 7.8e-9 to 5.15e-9, under the
    1e-8 contract).

    A height steps only where |d| >= 1e-13 and F' != 0; the others keep
    their bits, as every height does at k <= 10.  The residual reuses the
    forward angle of the check and evaluates it again only at the heights
    that stepped.
    """
    y = np.array(y, dtype=float)
    f = mod_pi(forward_angle(y, params))
    d = gap_mod_pi(f - b)
    d = np.where(d > math.pi / 2.0, d - math.pi, d)
    at = np.flatnonzero(np.abs(d) >= 1e-13)
    slope = forward_angle_prime(y[at], params)
    at, slope = at[slope != 0.0], slope[slope != 0.0]
    y[at] -= d[at] / slope
    f[at] = mod_pi(forward_angle(y[at], params))
    return y, _angle_gap(f, b)


def tangency_curve(
    params: MapParams, n_samples: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Sample both tangency curves over a uniform grid of ytilde.

    Returns ytilde, then (y, residual) of the lower curve (y < 1/2) and of
    the upper curve (y > 1/2), mirror images about y = 1/2.  A k without
    curves is named before a short grid, so callers may catch
    ``TangencySelectionError`` alone to skip the curves.
    """
    ytilde = np.arange(n_samples) / n_samples
    lower = _lower_heights(ytilde, params)
    missing = np.isnan(lower)
    if missing.any():
        raise _no_heights(ytilde[missing][0], params)
    if n_samples < MIN_CURVE_SAMPLES:
        raise ParameterError("n_samples", f"must be >= {MIN_CURVE_SAMPLES}, got {n_samples}")
    b = mod_pi(backward_angle(ytilde, params))
    y, res = _refined(np.concatenate([lower, 1.0 - lower]), np.concatenate([b, b]), params)
    return ytilde, (y[:n_samples], res[:n_samples]), (y[n_samples:], res[n_samples:])


def torus_x(ytilde: Coord, y: Coord) -> Coord:
    """Torus x-coordinate of the tangency point (ytilde, y): (y - ytilde) mod 1."""
    return mod_one(y - ytilde)


def tangency_landmarks(params: MapParams) -> list[Optional[TangencyPoint]]:
    """The eight landmark tangency points P1..P8 along the lower curve.

    Their diagonal coordinates are, in order along the curve,

        P1 0          P3 delta^*   P5 1/2           P7 1 - delta^*
        P2 delta^-    P4 delta^+   P6 1 - delta^+   P8 1 - delta^-

    and each height is the lower curve's there, the ray root of the module
    docstring: P1/P5 land on delta_T^-+, P3/P7 on delta^+ (the backward
    field is pi/4 there, whose ray root is -(1 + sqrt(3))/2), and P2/P8
    resp. P4/P6 are the extreme heights of the lower curve (where phi takes
    the k-free values -+ sqrt(3), strictly inside the Delta_hat_T strip).
    A landmark is None where its diagonal coordinate is undefined or has
    no tangency at this k; all eight are None outside the curves' k domain.
    """
    c = critical_constants(params)
    first = np.array([0.0, c.delta_minus, c.delta_star, c.delta_plus, 0.5], dtype=float)  # None -> NaN
    ytilde = np.concatenate([first, 1.0 - first[3:0:-1]])
    try:
        lower = _lower_heights(ytilde, params)
    except TangencySelectionError:
        return [None] * len(ytilde)
    y, res = _refined(lower, mod_pi(backward_angle(ytilde, params)), params)
    return [None if math.isnan(point[1]) else TangencyPoint(*point)
            for point in zip(ytilde.tolist(), y.tolist(), res.tolist())]


def no_tangency_scan(params: MapParams, grid: int) -> NoTangencyReport:
    """Minimum angle between the two contracted fields over the strips
    y in [0, delta^-] and [1 - delta^-, 1], sampled on a grid x grid mesh.

    The mesh has rows y_j = delta^- j / (grid/2 - 1) and their mirrors
    1 - y_j, and columns x_i = i / grid at ytilde = (y - x_i) mod 1.  The
    minimum is strictly positive: no tangencies occur there.

    Only the cells next to a turning point of the backward field are
    evaluated, about 24 a row; the module docstring shows why the minimum
    lies among them.  Ties go to the first row, then to the smallest
    column, so the report equals that of a numpy scan of every cell bit
    for bit.
    """
    if grid < 64:
        raise ParameterError("grid", f"must be >= 64, got {grid}")
    c = critical_constants(params)
    dm = c.delta_minus
    if dm is None:
        raise ParameterError("k", f"{params.k:g}: delta^- is undefined below k = (sqrt(3) - 1)/(4 pi)")
    half = grid // 2
    low = dm * np.arange(half) / (half - 1)
    y = np.concatenate([low, 1.0 - low])
    turns = [0.0, dm, 0.5, 1.0 - dm] + ([] if c.delta_plus is None else [c.delta_plus, 1.0 - c.delta_plus])
    near = np.floor(np.subtract.outer(y, turns) * grid).astype(np.int64)
    cols = (near[:, :, None] + _BRACKET).reshape(y.size, -1) % grid
    yt = mod_one(y[:, None] - cols / grid)
    b = mod_pi(backward_angle(yt, params))
    d = _angle_gap(mod_pi(forward_angle(y, params))[:, None], b)
    i = int(np.argmin(d.min(axis=1)))  # the first row that holds the least cell
    at = np.flatnonzero(d[i] == d[i].min())
    j = at[np.argmin(cols[i, at])]  # its smallest column at the minimum
    return NoTangencyReport(params.k, grid, float(d[i, j]), float(y[i]), float(yt[i, j]))
