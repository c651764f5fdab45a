"""The critical curve: tangencies between the forward and backward
contracted direction fields.

A tangency at the point with coordinates (ytilde, y) means the forward
field at y and the backward field at ytilde are the same undirected
direction.  Inside the strips where both case formulas carry compatible
offsets, this reduces to phi(y) = phitilde(ytilde), solved by the
multivalued inverse ``coordinates.phi_inverse``

    y = phi^{-1}(z) = acos((-(z+2) +- sqrt(3 z^2 + 4)) / (4 pi k z)) / (2 pi)

(the radicand 3 z^2 + 4 is always positive).  The selector Gamma intersects
the inverse with a region that switches at ytilde = delta^*, and always
contains exactly two values: one on the lower curve (y < 1/2), one on the
upper (its mirror).  Of the two roots in [0, 1/2] the region holds the
larger; the smaller lies below delta^-, by only 1/(8 pi^3 k^2) at ytilde = 0.
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
- Ties go to the first row, then to the smallest column, as in a loop over
  rows that evaluates every cell; the scan equals that loop bit for bit.
- The loop takes F from math's atan2 and cos, row by row; the scan takes F
  for every row from numpy's, which may differ by an ulp (at most 4.4e-16
  mod pi on the rows of 300 seeded scans) and so move a row's least cell
  by under 1e-15.  The loop's row therefore lies within twice that of the
  least row minimum under numpy, and the scan evaluates again with math
  every row within 1e-12 of it (a row and its mirror about y = 1/2, which
  tie to a few ulps, in all but one of those scans) and reports from them.

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

from .coordinates import (CriticalConstants, backward_angle, critical_constants, forward_angle, gap_mod_pi, mod_one,
                          mod_pi, phi_inverse_branch, phi_tilde)
from .stdmap import Coord, MapParams, ParameterError

#: Cushion used for interval membership at delta-boundaries.
_EDGE_TOL = 1e-12

#: Fewest ytilde samples tangency_curve accepts.
MIN_CURVE_SAMPLES = 16

#: Largest k with tangency curves.  One ulp of a height near 1/4 turns the fields
#: apart by ~1.1e-15 k rad; the curves' worst residual, ~1.8e-15 k (3.8e-9 at
#: k = 2e6, 1.8e-8 at k = 1e7), must stay under 1e-8.
MAX_CURVE_K = 2e6

#: Columns no_tangency_scan evaluates around each turning point of the backward
#: field, relative to the column floor((y - turn) grid) whose ytilde lies just
#: above it: the nearest column on each side, and one more for rounding.
_BRACKET = np.arange(-1, 3)

#: no_tangency_scan evaluates again with math the rows whose least cell, with
#: the forward angle from numpy, lies within this of the least one.  Numpy moves
#: a row's least cell by under 1e-15 (module docstring).
_RECHECK = 1e-12


class TangencySelectionError(ParameterError):
    """k lies outside the domain of the tangency selector: the strip
    constants are undefined, k exceeds ``MAX_CURVE_K``, or the selected
    height leaves its region (k below the validity threshold).
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


def residual_angle(y: Coord, ytilde: Coord, params: MapParams) -> Coord:
    """Angle between the forward field at y and the backward field at ytilde."""
    return _angle_gap(mod_pi(forward_angle(y, params)), mod_pi(backward_angle(ytilde, params)))


def _angle_gap(forward: Coord, backward: Coord) -> Coord:
    """Distance mod pi between two canonical angles in [0, pi)."""
    d = gap_mod_pi(forward - backward)
    return np.minimum(d, math.pi - d) if isinstance(d, np.ndarray) else min(d, math.pi - d)


#: The signs of the two quadratic branches of phi^{-1}, one row each.
_BRANCHES = np.array([[1.0], [-1.0]])


def _select(ytilde: np.ndarray, params: MapParams, consts: CriticalConstants):
    """Gamma at each ytilde in [0, 1) as (lower, upper, ok); ok is False, and both
    NaN, where the larger root of phi^{-1} in [0, 1/2] leaves its region:
    [delta^-, delta^+] where |ytilde - 1/2| >= 1/2 - delta^*, else [delta^+, 1/2]."""
    dm, ds, dp = consts.delta_minus, consts.delta_star, consts.delta_plus
    if dm is None or ds is None or dp is None:
        raise TangencySelectionError("k", f"{params.k:g}: strip constants undefined below k = 0.2174")
    if params.k > MAX_CURVE_K:
        raise TangencySelectionError("k", f"{params.k:g}: tangency curves are computed only up to k = "
                                          f"{MAX_CURVE_K:g}, where a float64 height still meets the "
                                          "1e-8 residual")
    at_asymptote = (abs(ytilde - ds) <= _EDGE_TOL) | (abs(ytilde - (1.0 - ds)) <= _EDGE_TOL)
    outer = (ytilde <= ds) | (ytilde >= 1.0 - ds)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = np.fmax(*phi_inverse_branch(phi_tilde(ytilde, params), _BRANCHES, params))
    lo, hi = np.where(outer, dm, dp), np.where(outer, dp, 0.5)
    ok = at_asymptote | ((lower >= lo - _EDGE_TOL) & (lower <= hi + _EDGE_TOL))
    lower = np.where(at_asymptote, dp, lower)
    return np.where(ok, lower, np.nan), np.where(ok, 1.0 - lower, np.nan), ok


def gamma(ytilde: float, params: MapParams) -> tuple[float, float]:
    """The two tangency heights y above a given diagonal coordinate.

    Evaluates phitilde, inverts phi, and intersects with the region
    dictated by the case split at delta^* and 1 - delta^*.  At the
    asymptotes of phitilde the limit values are the phi-asymptote preimages
    delta^+ and 1 - delta^+.  Returns (lower, upper) with lower < upper.
    """
    ytilde %= 1.0
    lower, upper, ok = _select(np.array([ytilde]), params, critical_constants(params))
    if not ok[0]:
        raise _no_heights(ytilde, params)
    return float(lower[0]), float(upper[0])


def _no_heights(ytilde: float, params: MapParams) -> TangencySelectionError:
    """The error for a ytilde where the selector finds no pair of heights."""
    return TangencySelectionError("k", f"{params.k:g}: expected 2 tangency heights at ytilde = {ytilde}, "
                                       f"k = {params.k}")


def _refined(y: np.ndarray, b: np.ndarray, params: MapParams) -> tuple[np.ndarray, np.ndarray]:
    """Polished heights against the canonical backward angles b, and their
    residual angles.

    Up to 3 secant steps on the field-angle difference along y.  The
    closed-form roots are already accurate; this kills the last of the
    floating-point error so the residual contract (< 1e-8) holds with a
    wide margin.

    A sample leaves the iteration at its first failed check (difference
    under 1e-13, zero slope or a step over 1e-6) and never re-enters, so
    each step evaluates only the samples still active, at y and y + h in one
    call, and the loop ends when none are.  The residual reuses the forward
    angle a sample had at its last check; only the samples that moved in
    the last step are evaluated again.  Every sample sees the same
    elementwise operations on the same values as in a full-array step, so
    the result is the same.
    """
    y = np.array(y, dtype=float)
    f = np.empty_like(y)  # the canonical forward angle at y, once a sample has stopped
    h = 1e-9
    at = np.arange(y.size)  # the active samples
    for _ in range(3):
        if at.size == 0:
            break
        yy, bb = y[at], b[at]
        fh = mod_pi(forward_angle(np.concatenate([yy, yy + h]), params)).reshape(2, -1)  # at y and y + h
        d = gap_mod_pi(fh - bb)
        d0, d1 = np.where(d > math.pi / 2.0, d - math.pi, d)
        slope = (d1 - d0) / h
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -d0 / slope
        ok = (np.abs(d0) >= 1e-13) & (slope != 0.0) & (np.abs(step) <= 1e-6)
        f[at] = fh[0]
        at = at[ok]
        y[at] = yy[ok] + step[ok]
    if at.size:
        f[at] = mod_pi(forward_angle(y[at], params))
    return y, _angle_gap(f, b)


def tangency_curve(
    params: MapParams, n_samples: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Sample both tangency curves over a uniform grid of ytilde.

    Returns ytilde, then (y, residual) of the lower curve (y < 1/2) and of
    the upper curve (y > 1/2): the selector's two values, mirror images
    about y = 1/2.
    """
    if n_samples < MIN_CURVE_SAMPLES:
        raise ParameterError("n_samples", f"must be >= {MIN_CURVE_SAMPLES}, got {n_samples}")
    ytilde = np.arange(n_samples) / n_samples
    lower, upper, ok = _select(ytilde, params, critical_constants(params))
    if not ok.all():
        raise _no_heights(ytilde[~ok][0], params)
    b = mod_pi(backward_angle(ytilde, params))
    y, res = _refined(np.concatenate([lower, upper]), np.concatenate([b, b]), params)
    return ytilde, (y[:n_samples], res[:n_samples]), (y[n_samples:], res[n_samples:])


def torus_x(ytilde: Coord, y: Coord) -> Coord:
    """Torus x-coordinate of the tangency point (ytilde, y): (y - ytilde) mod 1."""
    return mod_one(y - ytilde)


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
    y, res = _refined(lower, mod_pi(backward_angle(ytilde, params)), params)
    return [TangencyPoint(*point) if good else None
            for *point, good in zip(ytilde.tolist(), y.tolist(), res.tolist(), ok.tolist())]


def no_tangency_scan(params: MapParams, grid: int) -> NoTangencyReport:
    """Minimum angle between the two contracted fields over the strips
    y in [0, delta^-] and [1 - delta^-, 1], sampled on a grid x grid mesh.

    The mesh has rows y_j = delta^- j / (grid/2 - 1) and their mirrors
    1 - y_j, and columns x_i = i / grid at ytilde = (y - x_i) mod 1.  The
    minimum is strictly positive: no tangencies occur there.

    Only the cells next to a turning point of the backward field are
    evaluated, about 24 a row; the module docstring shows why the minimum
    lies among them.  The forward angle of every row comes from one numpy
    call.  The rows whose least cell lies within 1e-12 of the least one
    (the loop's row lies within 2e-15 of it) are evaluated again with math,
    and the report comes from them.  Ties go to the first row, then to the
    smallest column, so the report equals that of a loop over every cell
    with math's forward angle bit for bit.
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
    least = _angle_gap(mod_pi(forward_angle(y, params))[:, None], b).min(axis=1)
    rows = np.flatnonzero(least <= least.min() + _RECHECK)
    # Those rows again with math.atan2, as a loop over rows evaluates them.
    d = _angle_gap(np.array([mod_pi(forward_angle(v, params)) for v in y[rows].tolist()])[:, None], b[rows])
    # Among the cells at the minimum: the first row, then the smallest column.
    key = np.where(d == d.min(), cols[rows] + grid * np.arange(rows.size)[:, None], grid * rows.size)
    i, j = divmod(int(np.argmin(key)), d.shape[1])
    return NoTangencyReport(params.k, grid, float(d[i, j]), float(y[rows[i]]), float(yt[rows[i], j]))
