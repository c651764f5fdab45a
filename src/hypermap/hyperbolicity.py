"""Cone-field invariance and expansion outside the critical strips.

For 2 <= m < k the strips

    Delta^(m) = [delta^(m), delta^(-m)] union [1 - delta^(-m), 1 - delta^(m)],
    delta^(+-m) = acos(+-m / (pi k)) / (2 pi),

are exactly the set where |psi_c| <= 2m (boundaries included, so the
complement is open and |psi_c| > 2m strictly outside).  Outside Delta^(m),
any unit vector with slope in the cone (1/m, m) is mapped by the derivative
to a vector with slope in (1 - 1/m, 1 + 1/m); since that interval nests
inside (1/m, m) for m >= 2, the cone field is forward invariant.  The
image norm exceeds m over most of the hypothesis region, but not all of
it: in thin layers where psi_c sits just past -2m (any m) or +2m (m >= 5)
with entry slope near 1/m, it falls below m, so the sweep in verify_cones
reports norm failures there while the slope check stays clean.  At
psi_c -> -2m and slope 1/m the image of (1, 1/m) is (-1, 1/m - 1), so the
norm ratio tends to

    g(m) = sqrt((1 + (1 - 1/m)^2) / (1 + 1/m^2)),

which is 1 at m = 2, 1.1402 at m = 3, 1.2558 at m = 5 and 1.3387 at m = 10;
no sampled norm lies below it.  Interior entry slopes restore the per-step
bound (orbit_expansion exercises this).

Two exact mapping facts hold at every point: horizontal vectors land on the
slope-one diagonal, and at y = 1/4 or y = 3/4 (where psi_c = 0) the
slope -1 diagonal lands on the horizontal.

The sweep runs in the calling thread, in batches of at most _CHUNK
samples drawn from one seeded stream (see the last paragraphs).  It is a
floating-point filter followed by exact refinement (after Shewchuk,
Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates, 1997).  The filter runs in numpy's float32 throughout.  Its
cos 2 pi y, cos theta and sin theta are each within eps = 2e-6 of the exact
value, the float32 rounding of the argument included (the worst errors
measured are 2.6e-7 for cos 2 pi y and 1.8e-7 for theta formed in float32
from its draw), and at most a = 1 + eps in size.  With K = 2 pi k and
every product and sum rounded to float32, with unit roundoff u = 2^-24, it
forms

    psi = cos(2 pi y) fl(K),  ix = cos + psi sin,  iy = ix + sin,
    q = ix^2 + iy^2,  d = |ix| - m sin.

Each rounding moves a result by at most u times itself.  So psi is within
K eps + a K (2u + u^2) of its exact value and at most P = a K (1 + u)^2;
ix is within E_x = eps + K eps + a (K eps + a K (2u + u^2)) + u a P +
u a (1 + P (1 + u)) and at most B = a (1 + P (1 + u)) (1 + u); iy is within
E_x + eps + u (B + a).  With 1e-12 (2 + K) added for the rounding of the
float64 evaluation, which the refined samples use,

    E = eps (2 + 2K) + u (3 + 5K) + 1e-12 (2 + K)   (to first order)

bounds the distance of ix and iy from the float64 values, and the float64
norm lies within 2E of sqrt(ix^2 + iy^2).  From these:

- Norm.  q lies within a factor 1 - 2u to 1 + 3u of ix^2 + iy^2, so
  q > (m + 2E)^2 (1 + 3u) certifies norm >= m and q < (m - 2E)^2 (1 - 2u)
  certifies norm < m.
- Slope, without a division.  theta lies in (atan 1/m, atan m), so sin > 0
  and slope - 1 = sin / ix: the slope lies in (1 - 1/m, 1 + 1/m) exactly
  when d > 0.  d is within E + m eps + m a (2u + u^2) + u (B + m a (1 + u)^2)
  of its exact value, and the float64 verdict, which divides and rounds
  1 +- 1/m, follows the sign of the exact d wherever |d| exceeds
  1e-12 (2 + K)(2 + 2m) + m 2^-51 (1 + K).  |d| beyond the sum certifies.
- Extrema.  slope - 1 lies within (eps' + |r| E') / (|ix| - E) of
  r = fl(sin / ix), where eps' and E' exceed eps and E by the float32
  rounding of r and of the width itself, and without bound where
  |ix| <= E.  The candidates for min_norm, slope_min and slope_max are the
  samples whose lower bound is at most the least upper bound over the
  chunk.  Where every |ix| exceeds 2E, the chunk's widest width, at its
  least |ix| and largest |r|, stands in for each sample's.  That holds
  outside the strips whenever 2E < m / sqrt(1 + m^2), which bounds |ix|
  from below there.

Each threshold is computed in float64 with relative slack 1e-12 and then
rounded outward to a float32, since numpy compares a float32 array with a
Python float in float32.  The float64 expressions the sweep always used
then evaluate again the samples whose verdicts these bounds cannot certify
(a NaN certifies nothing: every comparison with it is false) and the
extremum candidates; the first MAX_FAILURE_RECORDS failures of the sweep
get their exact y for the records.  Every certified verdict equals the
exact one and every extremum is attained in a refined sample, so the report
is bit-identical to an all-float64 sweep.  For 5 <= k <= 200 outside the
strips about one sample in 10^4 is refined.  Inside the strips the image is
at most 1 + 2m long, and the share refined grows like E / m: about 64 % at
k = 10^4, m = 2.  Where E > 0.15 m inside the strips, or where
K >= 2^60 and float32 could overflow, a chunk is evaluated in float64 at
once.

Most samples outside the strips lie in the uniformly hyperbolic region,
where a closed-form bound settles them without the filter.  A unit vector
(c, s) in the cone has s > 1/sqrt(1 + m^2) and c/s < m, and its image is
(ix, iy) = (c + psi s, ix + s).  Where psi >= T, the norm is at least
sqrt(2) T s and 0 < slope - 1 <= 1/T.  Where psi <= -T, |ix| >= s (T - m)
and |iy| >= s (T - m - 1), so the norm is at least sqrt(2) s (T - m - 1)
and 0 < 1 - slope <= 1/(T - m).  Both norms are at least m from

    T(m) = m + 1 + m sqrt((1 + m^2) / 2),

which is 6.16, 10.7, 24.0 and 82.1 at m = 2, 3, 5, 10.  The sweep takes
T_band = T(m) (1 + 1e-9) + 4 e64 sqrt(1 + m^2), with e64 = 1e-12 (2 + K)
the float64 evaluation's own error in ix and iy (the last term of E), and
requires e64 < 1e-3.  At |psi_c| >= T_band the float64 norm is then at
least m, the 1e-9 covering the rounding of theta's range, and since |ix|
exceeds m / sqrt(2) there, the float64 slope lies within
sigma = 4 e64 + 1e-14 of [1 - 1/(T_band - m), 1 + 1/T_band], well inside
(1 - 1/m, 1 + 1/m).  Outside Delta^(m), |psi_c| <= T_band + e64 is two
intervals of y, each from one side of a strip to the other; widened by
1e-12, far above the rounding of their ends, their grid points outside
Delta^(m) (below) are the band.

Every sweep draws its heights as grid points y = j 2^-53 of [0, 1), the
points ``random()`` draws from.  The sampled region is a list of closed
spans of j.  Outside Delta^(m) they are the j with j 2^-53 < delta^(m),
delta^(-m) < j 2^-53 < 1 - delta^(-m) or j 2^-53 > 1 - delta^(m); inside,
the j of the two closed strips.  They come from the floats that
StripSpec.contains compares, scaled by 2^53, which is exact, so a height is
drawn exactly when contains puts it in the region.  One generator made from
the seed draws, in batches of _CHUNK, an integer j uniform on the region's
spans and then the draws t for theta; each batch is filtered and refined
with what is left of the record budget.

A sweep outside the strips draws the band alone.  Of n heights uniform on
the region's grid points, the number n_band in the band is Binomial(n, p),
p the band's share of those points, and given n_band they are independent
and uniform on the band's points (binomial splitting: L. Devroye,
Non-Uniform Random Variate Generation, 1986).  So the generator draws
n_band first, then the band's samples.  No sample outside the band fails,
so the counts and the failure records are those of the whole sweep, and so
are its extrema when the band's least norm lies below m, its least slope
below 1 - 1/(T_band - m) - sigma and its largest slope above
1 + 1/T_band + sigma.  Otherwise, n_band = 0 included, the sweep completes
the same realisation: the same generator draws the other n - n_band samples
uniform on the region's grid points outside the band, and they are
evaluated and merged in the same way.  A fresh sweep drawn instead would
change the law of the report, by choosing sweeps for their extrema.  So the
report has the law of a sweep of n heights uniform on the region's grid
points, and it is bit-identical to an all-float64 evaluation of the samples
drawn.  The band holds the share

    (asin(T/K) - asin(2m/K)) / (pi/2 - asin(2m/K))

of the samples, 11 % at k = 60, m = 10.  Sweeps inside the strips and
sweeps without a band (T_band + e64 reaches K, or e64 >= 1e-3, which keeps
K far below where the filter has no bounds) draw all n samples on the
region's spans.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .coordinates import psi_inverse, strip_pair_contains
from .stdmap import TWO_PI, Coord, MapParams, ParameterError, TorusPoint, map_step, mod1, psi

#: Samples are drawn and evaluated in batches of at most this many, which
#: bounds the work arrays.
_CHUNK = 32768

#: Failure records kept for replay; beyond this only the count grows.
MAX_FAILURE_RECORDS = 1000

#: Bound on the error of one float32 cos or sin value in the cone sweep's
#: filter, the float32 rounding of its argument included (worst measured:
#: 2.6e-7).
_TRIG32_ERR = 2e-6

#: Unit roundoff of float32: each float32 sum or product is exact to within
#: this share of its result.
_U32 = 2.0**-24

#: Slack for the float64 rounding of the few operations that compute each of
#: the filter's thresholds.
_SLACK = 1.0 + 1e-12

#: Largest K = 2 pi k at which the filter's float32 image and squared norm
#: stay finite.
_K32_MAX = 2.0**60

#: Inside the strips the image is at most 1 + 2m long, and once E exceeds
#: this share of m the filter leaves so many samples open (over 70 % at
#: 0.16 m) that evaluating the chunk in float64 at once is faster.
_INSIDE_E_SHARE = 0.15


@dataclass(frozen=True)
class StripSpec:
    """One Delta^(m) strip pair and its membership predicate."""

    m: int
    delta_m: float  # below 1/4
    delta_neg_m: float  # above 1/4

    def contains(self, y: float) -> bool:
        return strip_pair_contains(y % 1.0, self.delta_m, self.delta_neg_m)


@dataclass(frozen=True)
class ConeReport:
    """Outcome of a randomized cone-invariance sweep, replayable by seed.

    ``failures`` counts samples violating either conclusion;
    ``slope_failures`` and ``norm_failures`` break that down.  The norm
    conclusion has a genuine thin failure layer at psi_c just below -2m
    with entry slopes near 1/m, where the image norm approaches g(m) of the
    module docstring (1 at m = 2); see the module tests for the exact corner.
    """

    k: float
    m: int
    samples: int
    failures: int
    slope_failures: int
    norm_failures: int
    min_norm: float
    slope_range: tuple[float, float]
    seed: int
    inside_strip: bool
    failure_records: tuple[tuple[float, float], ...] = field(repr=False, default=())
    #: Samples the filter could not settle and that were evaluated exactly.
    refined: int = field(repr=False, compare=False, default=0)

    def to_text(self) -> str:
        lines = [
            f"k {self.k:.17g}",
            f"m {self.m}",
            f"samples {self.samples}",
            f"seed {self.seed}",
            f"region {'inside' if self.inside_strip else 'outside'} Delta^(m)",
            f"failures {self.failures}",
            f"slope_failures {self.slope_failures}",
            f"norm_failures {self.norm_failures}",
            f"min_norm {self.min_norm:.17g}",
            f"slope_min {self.slope_range[0]:.17g}",
            f"slope_max {self.slope_range[1]:.17g}",
        ]
        if self.failure_records:
            from . import numfmt  # only reports with failures need the kernel

            n = len(self.failure_records)
            y, theta = np.fromiter(itertools.chain.from_iterable(self.failure_records), float, 2 * n).reshape(n, 2).T
            label, sep, end = (np.full(n, text, dtype=f"S{len(text)}") for text in (b"failure y=", b" theta=", b"\n"))
            lines.append(numfmt.join([label, numfmt.g17(y), sep, numfmt.g17(theta), end])[:-1])
        return "\n".join(lines)


@dataclass(frozen=True)
class ExpansionReport:
    """Per-step norm growth of a vector pushed along an orbit.

    ``entered_strip_at`` is the first step index whose base point fell in
    Delta^(m) (the push stops there); None when the orbit stayed outside
    for all requested steps.
    """

    factors: tuple[float, ...]
    entered_strip_at: Optional[int]

    @property
    def steps(self) -> int:
        return len(self.factors)


def delta_strip(m: int, params: MapParams) -> StripSpec:
    """Construct Delta^(m).  Requires 2 <= m < k."""
    if m < 2:
        raise ParameterError("m", f"must be >= 2, got {m}")
    if m >= params.k:
        raise ParameterError("m", f"must be < k, got m = {m}, k = {params.k}")
    # psi_c = +-2m on the strip's edges.
    return StripSpec(m, delta_m=psi_inverse(2 * m, params), delta_neg_m=psi_inverse(-2 * m, params))


def push_vector(y: float, theta: float, params: MapParams) -> tuple[float, float]:
    """Direction angle and norm of the derivative applied to (cos t, sin t).

    The image of (cos theta, sin theta) under the forward derivative at
    height y is (cos + psi sin, cos + (1 + psi) sin); the angle comes from
    the two-argument arctangent of those components, so no quadrant is lost.
    """
    ix, iy = _image(psi(y, params), math.cos(theta), math.sin(theta))
    return math.atan2(iy, ix), math.hypot(ix, iy)


def _image(p: Coord, c: Coord, s: Coord) -> tuple[Coord, Coord]:
    """Image (c + psi s, c + (1 + psi) s) of (c, s) under Df where psi_c = p."""
    return c + p * s, c + (1.0 + p) * s


class _Workspace(threading.local):
    """One thread's work arrays for a chunk, reused so no chunk maps fresh pages."""

    def __init__(self) -> None:
        self.draws = np.empty(2 * _CHUNK)  # the heights, then the draws for theta
        self.f32 = np.empty((6, _CHUNK), dtype=np.float32)
        self.masks = np.empty((5, _CHUNK), dtype=bool)


_WORK = _Workspace()


@np.errstate(over="ignore")  # beyond the float32 range the result is infinite
def _f32(x: float, up: bool) -> np.float32:
    """x rounded to a float32 upwards (``up``) or downwards, never inwards.

    numpy compares a float32 array with a float in float32, so each of the
    filter's thresholds is rounded here first, away from the side it
    certifies.
    """
    f = np.float32(x)
    if up and float(f) < x:
        return np.nextafter(f, np.float32(math.inf))
    if not up and float(f) > x:
        return np.nextafter(f, np.float32(-math.inf))
    return f


class _Bounds(NamedTuple):
    """The filter's error bound E and its float32 thresholds for one (k, m)."""

    e: float
    big_k: np.float32  # K rounded to float32
    m: np.float32
    slope_ok: np.float32  # d above this: the slope verdict is "inside"
    slope_bad: np.float32  # d below this: "outside"
    norm_ok: np.float32  # q above this: the norm is at least m
    norm_bad: np.float32  # q below this: the norm is below m
    width_r: np.float32  # the slope width is (width_eps + |r| width_r) / (|ix| - width_e)
    width_eps: np.float32
    width_e: np.float32

    def near_min(self, q_min: float) -> np.float32:
        """Least q whose norm may still be the chunk's least, q_min the least q."""
        u = _U32
        norm = math.sqrt(q_min * (1.0 + 3.0 * u)) + 4.0 * self.e
        return _f32(_SLACK * (1.0 + 3.0 * u) * norm * norm, True)

    def slope_candidates(self, r_min: float, r_max: float, ax_min: float) -> tuple[np.float32, np.float32]:
        """(lo, hi): no r above lo can be the least slope - 1, none below hi the largest.

        r_min and r_max are the chunk's least and largest r = s / ix, and
        ax_min > 2E its least |ix|: every width is at most the one at the
        largest |r| and least |ix|.
        """
        w = float(self.width_eps) + max(-r_min, r_max) * float(self.width_r)
        w *= _SLACK / (ax_min - float(self.width_e))
        return _f32(r_min + 2.0 * w, True), _f32(r_max - 2.0 * w, False)


def _e64(big_k: float) -> float:
    """Bound on the error of the float64 ix and iy at K = big_k."""
    return 1e-12 * (2.0 + big_k)


@functools.lru_cache(maxsize=64)
def _filter_bounds(k: float, m: int, eps: float) -> Optional[_Bounds]:
    """E and the thresholds derived in the module docstring, eps = _TRIG32_ERR.

    None where the float32 image could overflow or E is not finite.
    """
    big_k = TWO_PI * k
    u = _U32
    a, v = 1.0 + eps, 1.0 + u  # |float32 cos or sin| <= a; one float32 rounding <= v
    d_psi = big_k * eps + a * big_k * (v * v - 1.0)  # |psi~ - psi|
    p = a * big_k * v * v  # >= |psi~|
    e_x = eps + u * a * p + a * d_psi + big_k * eps + u * a * (1.0 + p * v)  # |ix~ - ix|
    b = a * (1.0 + p * v) * v  # >= |ix~|
    e_y = e_x + eps + u * (b + a)  # |iy~ - iy|
    e64 = _e64(big_k)
    e = (e_y + e64) * _SLACK
    if not (big_k < _K32_MAX and e < math.inf):
        return None
    d = (
        e + m * eps + m * a * (v * v - 1.0) + u * (b + m * a * v * v)  # |d~ - d|
        + e64 * (2.0 + 2.0 * m) + m * 2.0**-51 * (1.0 + big_k)  # the float64 slope verdict
    ) * _SLACK
    below = m - 2.0 * e
    return _Bounds(
        e=e,
        big_k=np.float32(big_k),
        m=np.float32(m),
        slope_ok=_f32(d, True),
        slope_bad=_f32(-d, False),
        norm_ok=_f32(_SLACK * (1.0 + 3.0 * u) * (m + 2.0 * e) * (m + 2.0 * e), True),
        norm_bad=_f32((1.0 - 2.0 * u) * below * below / _SLACK if below > 0.0 else -math.inf, False),
        width_r=_f32(_SLACK * (1.0 + 8.0 * u) * (1.0 + 2.0 * u) * (e + 2.0 * u * b), True),
        width_eps=_f32(_SLACK * (1.0 + 8.0 * u) * (eps + 2.0 * e64), True),
        width_e=_f32(e, True),
    )


def _image32(
    y: np.ndarray, t: np.ndarray, theta_range: tuple[float, float], bounds: _Bounds
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The filter's float32 sin theta, ix, |ix|, q = ix^2 + iy^2 and d = |ix| - m sin theta.

    ``y`` are the heights and ``t`` the draws for theta.  The results are
    views of this thread's work arrays.
    """
    count = len(y)
    cy, ct, st, ix, q, d = _WORK.f32[:, :count]
    np.multiply(y, TWO_PI, out=cy, casting="same_kind")
    np.cos(cy, out=cy)
    lo, hi = theta_range
    np.copyto(st, t, casting="same_kind")
    st *= np.float32(hi - lo)
    st += np.float32(lo)
    np.cos(st, out=ct)
    np.sin(st, out=st)

    # The image (ix, iy) = (c + psi s, ix + s) and q = ix^2 + iy^2.
    np.multiply(cy, bounds.big_k, out=cy)
    np.multiply(cy, st, out=ix)
    ix += ct
    np.add(ix, st, out=q)
    q *= q
    np.multiply(ix, ix, out=d)
    q += d
    # slope - 1 = s / ix with s > 0, so the slope lies in (1 - 1/m, 1 + 1/m)
    # exactly when d > 0.
    ax = np.abs(ix, out=cy)
    np.multiply(st, bounds.m, out=d)
    np.subtract(ax, d, out=d)
    return st, ix, ax, q, d


@np.errstate(all="ignore")  # the filter decides nothing from a non-finite value
def _filter(
    y: np.ndarray, t: np.ndarray, theta_range: tuple[float, float], bounds: _Bounds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope and norm verdicts of the float32 image, and what to refine.

    Returns (slope_bad, norm_bad, refine); the verdicts are certified
    wherever ``refine`` is False.
    """
    st, ix, ax, q, d = _image32(y, t, theta_range, bounds)
    count = len(y)
    sure, more, slope_ok, norm_ok, refine = _WORK.masks[:, :count]
    b = bounds
    np.greater(d, b.slope_ok, out=slope_ok)
    np.less(d, b.slope_bad, out=sure)
    sure |= slope_ok
    np.greater(q, b.norm_ok, out=norm_ok)
    np.less(q, b.norm_bad, out=more)
    more |= norm_ok
    sure &= more
    np.invert(sure, out=refine)  # so NaN is refined

    # Candidates for the extrema: lower bound <= least upper bound.  Any
    # comparison with NaN counts a sample in.
    def add_unless(above: np.ndarray) -> None:
        np.bitwise_or(refine, np.invert(above, out=above), out=refine)

    add_unless(np.greater(q, b.near_min(float(np.fmin.reduce(q))), out=more))
    # slope - 1 lies within (width_eps + |r| width_r) / (|ix| - width_e) of
    # r = s / ix, and without bound where |ix| <= width_e.
    rs = np.divide(st, ix, out=_WORK.f32[1, :count])  # cos theta's array
    ax_min = float(np.fmin.reduce(ax))
    if ax_min > 2.0 * b.e:  # as outside the strips unless E is large
        lo, hi = b.slope_candidates(float(np.fmin.reduce(rs)), float(np.fmax.reduce(rs)), ax_min)
        add_unless(np.greater(rs, lo, out=more))
        add_unless(np.less(rs, hi, out=more))
    else:
        w = np.abs(rs, out=d)
        w *= b.width_r
        w += b.width_eps
        ax -= b.width_e
        w /= np.maximum(ax, 0.0, out=ax)  # +0 where |ix| <= width_e, so w = +inf
        lb = np.subtract(rs, w, out=ix)
        ub = np.add(rs, w, out=w)
        add_unless(np.greater(lb, np.fmin.reduce(ub), out=more))
        add_unless(np.less(ub, np.fmax.reduce(lb), out=more))
    return np.invert(slope_ok, out=slope_ok), np.invert(norm_ok, out=norm_ok), refine


#: One batch's counts (failures, slope, norm), extrema (min_norm,
#: slope_min, slope_max), first failure records and refined count.
_Part = tuple[int, int, int, float, float, float, list[tuple[float, float]], int]


def _evaluate(y: np.ndarray, t: np.ndarray, params: MapParams, m: int, inside: bool, budget: int) -> _Part:
    """The part of the samples at heights ``y`` with theta's draws ``t``:
    filtered, then refined in float64, with the first ``budget`` failure records."""
    count = len(y)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    bounds = _filter_bounds(params.k, m, _TRIG32_ERR)
    if bounds is None or (inside and bounds.e > _INSIDE_E_SHARE * m):
        idx = np.arange(count)  # the filter would leave most samples open
    else:
        slope_bad, norm_bad, refine = _filter(y, t, (lo, hi), bounds)
        idx = np.flatnonzero(refine)

    # Exact float64 evaluation of the samples the filter leaves open.
    theta = lo + t[idx] * (hi - lo)
    ix, iy = _image(psi(y[idx], params), np.cos(theta), np.sin(theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = iy / ix
    norm = np.hypot(ix, iy)
    exact_slope_bad = ~((slope > 1.0 - 1.0 / m) & (slope < 1.0 + 1.0 / m))
    exact_norm_bad = ~(norm >= m)
    if len(idx) == count:
        slope_bad, norm_bad = exact_slope_bad, exact_norm_bad
    else:
        slope_bad[idx] = exact_slope_bad
        norm_bad[idx] = exact_norm_bad
    bad = slope_bad | norm_bad
    records: list[tuple[float, float]] = []
    if budget > 0:
        first = np.flatnonzero(bad)[:budget]
        records = list(zip(y[first].tolist(), (lo + t[first] * (hi - lo)).tolist()))
    return (
        int(np.count_nonzero(bad)),
        int(np.count_nonzero(slope_bad)),
        int(np.count_nonzero(norm_bad)),
        float(norm.min()),
        float(np.nanmin(slope)),
        float(np.nanmax(slope)),
        records,
        len(idx),
    )


#: Heights are drawn as y = j / _GRID, j an integer in [0, _GRID), the
#: points ``random()`` draws from.
_GRID = 2**53

#: Closed spans [lo, hi] of grid indices j, rising; an empty one has hi = lo - 1.
_Spans = list[tuple[int, int]]


def _spans(lo: float, hi: float) -> tuple[_Spans, _Spans]:
    """The grid points j of [lo, hi] u [1 - hi, 1 - lo], compared as
    strip_pair_contains compares y = j / _GRID, and the grid points outside.

    Scaling a float by 2^53 is exact, so j lies in a span exactly when its
    height lies in the span's interval.
    """
    pair = [(math.ceil(a * _GRID), math.floor(b * _GRID)) for a, b in ((lo, hi), (1.0 - hi, 1.0 - lo))]
    ends = [(-1, -1), *pair, (_GRID, _GRID)]
    return pair, [(a + 1, b - 1) for (_, a), (b, _) in zip(ends, ends[1:])]


class _Band(NamedTuple):
    """The heights the far-region certificate leaves open for one (k, m).

    Every other sample has a float64 norm of at least m and a float64 slope
    in [slope_lo, slope_hi].
    """

    psi_bound: float  # T_band: the certificate holds wherever |psi_c| >= T_band
    spans: _Spans  # the band: the grid points outside Delta^(m) where |psi_c| <= T_band + e64, widened
    rest: _Spans  # the grid points outside Delta^(m) and the band
    slope_lo: float
    slope_hi: float


@functools.lru_cache(maxsize=64)
def _band(k: float, m: int) -> Optional[_Band]:
    """The band of the module docstring: |psi_c| <= T_band outside Delta^(m).

    None where T_band reaches K (the band would hold every sample), or
    where e64 or the certified slopes leave the certificate's margins.
    """
    big_k = TWO_PI * k
    e64 = _e64(big_k)
    root = math.sqrt(1.0 + m * m)
    t_band = (1.0 + 1e-9) * (m + 1.0 + m * root / math.sqrt(2.0)) + 4.0 * e64 * root
    sigma = 4.0 * e64 + 1e-14
    slope_lo, slope_hi = 1.0 - 1.0 / (t_band - m) - sigma, 1.0 + 1.0 / t_band + sigma
    if not (t_band + e64 < big_k and e64 < 1e-3 and max(1.0 - slope_lo, slope_hi - 1.0) < 0.9 / m):
        return None
    params = MapParams(k)
    strip = delta_strip(m, params)
    # psi_c = +-(T_band + e64) at y_pos < 1/4 and y_neg > 1/4, and at 1 - y_pos
    # and 1 - y_neg.  The band runs from y_pos across the strip to y_neg
    # and from 1 - y_neg across the other strip to 1 - y_pos.
    y_pos, y_neg = psi_inverse(t_band + e64, params), psi_inverse(-(t_band + e64), params)
    w = 1e-12  # far above the float64 rounding of y_pos and y_neg, a few 2^-53
    cover, rest = _spans(y_pos - w, y_neg + w)
    strips, _ = _spans(strip.delta_m, strip.delta_neg_m)
    spans = [s for (a, b), (lo, hi) in zip(cover, strips) for s in ((a, lo - 1), (hi + 1, b))]
    return _Band(t_band, spans, rest, slope_lo, slope_hi)


def _grid_draws(rng: np.random.Generator, spans: _Spans, count: int) -> np.ndarray:
    """``count`` heights y = j / _GRID, j uniform on the grid points of ``spans``.

    The result is a view of this thread's work arrays.
    """
    y = _WORK.draws[:count]
    np.copyto(y, rng.integers(sum(hi + 1 - lo for lo, hi in spans), size=count))  # exact below 2^53
    y += spans[0][0]
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        y += (y > hi) * float(lo - hi - 1)  # past a span, skip the gap to the next
    y *= 1.0 / _GRID
    return y


def verify_cones(
    params: MapParams,
    m: int,
    n_samples: int,
    seed: int,
    inside_strip: bool = False,
) -> ConeReport:
    """Randomized check of cone invariance and minimum expansion.

    Draws (y outside Delta^(m), slope in (1/m, m)) pairs from a seeded
    generator, uniform in y over the grid points y = j 2^-53 of the
    complement and uniform in the angle of the slope, and verifies both
    conclusions through the exact image formula.  With ``inside_strip`` the
    hypothesis is deliberately violated to demonstrate the check can fail:
    y is then uniform over the grid points of the strips.

    Outside the strips only the band next to Delta^(m) is drawn, and the
    other samples only where the band's extrema do not settle the report
    (see the module docstring).  The report depends only on the arguments.
    Each thread sweeps in its own work arrays, so library callers may run
    sweeps from several threads at once.
    """
    if n_samples < 1:
        raise ParameterError("n_samples", f"must be >= 1, got {n_samples}")
    if seed < 0:
        raise ParameterError("seed", f"must be >= 0, got {seed}")
    strip = delta_strip(m, params)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    band = None if inside_strip else _band(params.k, m)
    parts: list[_Part] = []
    budget = MAX_FAILURE_RECORDS

    def sweep(spans: _Spans, count: int) -> None:
        nonlocal budget
        for at in range(0, count, _CHUNK):
            size = min(_CHUNK, count - at)
            y = _grid_draws(rng, spans, size)
            t = rng.random(size, out=_WORK.draws[size : 2 * size])
            parts.append(_evaluate(y, t, params, m, inside_strip, budget))
            budget -= len(parts[-1][6])

    if band is None:
        inside, outside = _spans(strip.delta_m, strip.delta_neg_m)
        sweep(inside if inside_strip else outside, n_samples)
    else:
        band_size, rest_size = (sum(hi + 1 - lo for lo, hi in spans) for spans in (band.spans, band.rest))
        n_band = int(rng.binomial(n_samples, band_size / (band_size + rest_size)))
        sweep(band.spans, n_band)
        if not (
            parts
            and min(p[3] for p in parts) < m
            and min(p[4] for p in parts) < band.slope_lo
            and max(p[5] for p in parts) > band.slope_hi
        ):
            sweep(band.rest, n_samples - n_band)
    return ConeReport(
        k=params.k,
        m=m,
        samples=n_samples,
        failures=sum(p[0] for p in parts),
        slope_failures=sum(p[1] for p in parts),
        norm_failures=sum(p[2] for p in parts),
        min_norm=min(p[3] for p in parts),
        slope_range=(min(p[4] for p in parts), max(p[5] for p in parts)),
        seed=seed,
        inside_strip=inside_strip,
        failure_records=tuple(rec for p in parts for rec in p[6]),
        refined=sum(p[7] for p in parts),
    )


def orbit_expansion(
    p: TorusPoint,
    theta: float,
    params: MapParams,
    m: int,
    n: int,
) -> ExpansionReport:
    """Push a unit vector along the forward orbit, recording growth factors.

    Each step requires the current base point to lie outside Delta^(m);
    entering the strip ends the push early (reported, not an error).  The
    initial slope must lie in the cone (1/m, m); afterwards cone nesting
    keeps every image slope inside automatically.
    """
    if n < 1:
        raise ParameterError("n", f"must be >= 1, got {n}")
    strip = delta_strip(m, params)
    slope = math.tan(theta)
    if not (1.0 / m < slope < m):
        raise ParameterError("theta", f"{theta}: the initial slope {slope} lies outside the cone (1/{m}, {m})")
    factors: list[float] = []
    x, y, ang = p.x, p.y, theta
    for i in range(n):
        if strip.contains(y):
            return ExpansionReport(tuple(factors), i)
        ang, growth = push_vector(y, ang, params)
        factors.append(growth)
        x, y = map_step(x, y, params, True)
        x, y = mod1(x), mod1(y)
    return ExpansionReport(tuple(factors), None)
