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
    q = ix^2 + iy^2,  r = sin / ix.

Each rounding moves a result by at most u times itself.  So psi is within
K eps + a K (2u + u^2) of its exact value and at most P = a K (1 + u)^2;
ix is within E_x = eps + K eps + a (K eps + a K (2u + u^2)) + u a P +
u a (1 + P (1 + u)) and at most B = a (1 + P (1 + u)) (1 + u); iy is within
E_x + eps + u (B + a).  With e64 = 1e-12 (2 + K) added for the rounding of
the float64 evaluation, which the refined samples use,

    E = eps (2 + 2K) + u (3 + 5K) + 1e-12 (2 + K)   (to first order)

bounds the distance of ix and iy from the float64 values, and the float64
norm lies within 2E of sqrt(ix^2 + iy^2).  From these:

- Norm.  q lies within a factor 1 - 2u to 1 + 3u of ix^2 + iy^2, so
  q > (m + 2E)^2 (1 + 3u) certifies norm >= m and q < (m - 2E)^2 (1 - 2u)
  certifies norm < m.
- Slope.  theta lies in (atan 1/m, atan m), so sin > 0 and slope - 1 =
  sin / ix.  The float64 iy - ix lies within eps + 2 e64 of the float32
  sin and ix within E, so the float64 slope - 1 lies within
      w = (eps + 2 e64 + |r| (1 + 2u) (E + 2u B)) (1 + 8u) / (|ix| - E)
  of r = fl(sin / ix): the 2u B covers the rounding of r and of the float64
  quotient, the 1 + 8u that of w, formed in float32 too.  Where |ix| <= E,
  w is +inf.  The float64 verdict "inside" is fl(1 - 1/m) < slope <
  fl(1 + 1/m), that is A < slope - 1 < B with A = fl(1 - 1/m) - 1 and
  B = fl(1 + 1/m) - 1, both exact (Sterbenz: fl(1 -+ 1/m) lies in
  [1/2, 2]).  The float32 r - w and r + w are rounded to nearest, which
  keeps order and so crosses no float32: r - w above A rounded up to a
  float32 puts slope - 1 above A, r + w below A rounded down puts it below
  A, and so for B.  [r - w, r + w] strictly inside (A, B) or wholly outside
  it, tested against these four edges, certifies the verdict.
- Extrema.  The candidates for min_norm, slope_min and slope_max are the
  samples whose lower bound is at most the least upper bound over the
  chunk.  For the slope these are r - w and r + w, and for slope_max the
  samples whose r + w is at least the largest r - w: as their rounding
  keeps order, a sample left out has a float64 slope beyond another's.

A and B are exact; every other threshold is computed in float64 with
relative slack 1e-12.  Each is then rounded outward to a float32, since
numpy compares a float32 array with a Python float in float32.  The float64
expressions the sweep always used then evaluate again the samples whose
verdicts these bounds cannot certify (a NaN certifies nothing: every
comparison with it is false) and the extremum candidates.  The first
MAX_FAILURE_RECORDS failures of the sweep are its records: their exact y
and theta stay float64 array rows from the batch to the report's text,
with no Python float made for one.  Every certified verdict equals the
exact one and every extremum is attained in a refined sample, so the
report is bit-identical to an all-float64 sweep.  For 5 <= k <= 200
outside the strips 0.01-2.4 % of the drawn samples are refined, the
extremum candidates included: they lie next to the failure layers.
Inside the strips the image is at most 1 + 2m long, and the share refined
grows like E / m: 0.03-2.2 % for 5 <= k <= 200, 12 % at k = 10^3, m = 2,
64 % at k = 10^4, 92 % at k = 2 10^4, where E = 0.27 m, and all of them
at k = 10^5, where E = 1.35 m.  Where K >= 2^60 and float32 could
overflow, a chunk is evaluated in float64 at once.

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
(1 - 1/m, 1 + 1/m).  The band is the rest of the region outside
Delta^(m), 2m < |psi_c| < T_band.

Every sweep draws its samples as grid points: heights y = j 2^-53 of
[0, 1), the points ``random()`` draws from, and theta's draws t = i 2^-53,
theta = atan(1/m) + t (atan m - atan(1/m)).  The region's heights are a
list of closed spans of j.  Outside Delta^(m) they are the j with
j 2^-53 < delta^(m), delta^(-m) < j 2^-53 < 1 - delta^(-m) or
j 2^-53 > 1 - delta^(m); inside, the j of the two closed strips.  They come
from the floats that StripSpec.contains compares, scaled by 2^53, which is
exact, so a height is drawn exactly when contains puts it in the region.
t's top six bits are its bucket b, t = (b 2^47 + low) 2^-53, and each set
of samples is a list of rows, one bucket over one span of j.  One
generator made from the seed draws, in batches of _CHUNK, an integer
uniform on the rows' grid points (j, b) laid end to end, then t's low 47
bits; each batch is filtered and refined with what is left of the record
budget.  Sweeps inside the strips and sweeps without a band (T_band + e64
reaches K, or e64 >= 1e-3, which keeps K far below where the filter has no
bounds) draw all n samples on every bucket of the region's spans.

Outside the strips most of the band is certified too, bucket by bucket.
At a fixed slope t = tan theta the norm is below m exactly where

    Q(psi, t) = 2 t^2 psi^2 + (2 t^2 + 4 t) psi + (1 - m^2) t^2 + 2 t + 2 - m^2

is negative, that is between its two psi-roots (_failure_layer).  For
|psi| >= 2m, Q is negative at t = 0 and convex in t, so the norm fails
exactly below one slope, and Q's derivative in psi, 2t (2 psi t + t + 2),
has the sign of psi wherever t > 2 / (4m - 1), which lies below 1/m, so
that slope falls as |psi| grows.  So at each slope the failing psi_c on
each side of a strip run from the strip edge out to Q's outer root,
psi_+(t) beyond +2m or psi_-(t) beyond -2m, and at larger slopes they
stop sooner.  Bucket b holds the slopes from t_b = tan theta_b on,
theta_b its lower edge less 1e-9 of theta's range, which covers the
float64 rounding of theta and of the root.

Each of the band's four half-sides, one on each side of each strip, is
open at bucket b on the reach[b] grid points next to the strip and closed
beyond them.  The reach is the count psi_inverse gives below |psi_c| =
|psi_out(t_b)| + 4 e64 sqrt(1 + m^2) + 2 e64, psi_out the outer root.
The first closed grid point's psi_lo = |fl(psi_c)| - e64 must then lie
4 e64 sqrt(1 + m^2) beyond the root, or there is no band; its float64
norm, and that of every grid point beyond it, is at least m at every slope
of the bucket, the margins being those of T_band.  A bucket whose outer
root lies inside the strip has reach 0 on that side.  From
slope - 1 = 1 / (cot theta + psi), the closed grid points of a half-side
at bucket b have slope - 1 at most 1 / (psi_lo + cot theta_(b+1)) on the
+ side and at least -1 / (psi_lo - cot theta_b) on the - side, theta
widened by 1e-9 of its range, and since |ix| > m / sqrt(1 + m^2) the
float64 slope lies within sigma of them.  slope_lo and slope_hi are the least and largest of these
and of the far region's bounds.

The largest slope of a sweep lies near psi_c = +2m at large theta, where
the norm holds, so a box there stays open: on the + sides the grid points
below |psi_c| = 2m + h are open from the bucket b_x on, the last bucket
edge with cot theta >= 1/m + h.  h = 2.5 r, r the root of
r^2 = a (1 + (1/m + r)^2) with a = 2.5e-5 pi K (atan m - atan(1/m)),
capped at T_band - 2m and m - 1/m (no cap binds for k <= 200 and m <= 10).
Each + half-side holds at least r / 2 pi K of y in psi_c in (2m, 2m + r],
and cot theta in [1/m, 1/m + r] at least r / (1 + (1/m + r)^2) of theta,
so at least the share 2.5e-5 of the region's samples lies there, with
slopes above slope_hi: a sweep of 10^6 samples misses it with probability
below e^-25.  The open rows are, bucket by bucket, the four runs of
reach[b] grid points next to the strip edges (below the first strip,
above it, below the second, above it); the closed rows are, bucket by
bucket, the three runs between them, the far region included.

A sweep outside the strips draws the open rows alone.  Of n samples
uniform on the region's grid points, the number n_open on the open rows is
Binomial(n, p), p their share of those points, and given n_open they are
independent and uniform on them (binomial splitting: L. Devroye,
Non-Uniform Random Variate Generation, 1986).  So the generator draws
n_open first, then the open samples as one stream.  No closed sample
fails, so the counts and the failure records are those of the whole
sweep, and so are its extrema when the open samples' least norm lies below
m, their least slope below slope_lo and their largest slope above
slope_hi.  Otherwise, n_open = 0 included, the sweep completes the same
realisation: the same generator draws the other n - n_open samples
uniform on the closed rows, and they are evaluated and merged in the same
way.  A fresh sweep drawn instead would change the law of the report, by
choosing sweeps for their extrema.  So the report has the law of a sweep
of n samples uniform on the region's grid points, and it is bit-identical
to an all-float64 evaluation of the samples drawn.  The band holds the
share

    (asin(T/K) - asin(2m/K)) / (pi/2 - asin(2m/K))

of the samples, 11 % at k = 60, m = 10 and 66 % at k = 14.6, m = 10, and
its open rows 4.5-7 % of that for most (k, m) the benchmark draws (3.1 % of
the samples at k = 14.6, m = 10), up to 19 % at k = 200, m = 2, where the
box of slope_max holds most of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .coordinates import psi_inverse, strip_pair_contains
from .stdmap import TWO_PI, Coord, MapParams, ParameterError, TorusPoint, _orbit_psi, atan2_each, hypot_each, psi

#: Samples are drawn and evaluated in batches of at most this many, which
#: bounds each batch's temporary arrays.
_CHUNK = 32768

#: Failure records kept for replay; beyond this only the count grows.
MAX_FAILURE_RECORDS = 1000

#: Most samples verify_cones accepts.  On a 2-vCPU x86-64 machine 10^9 took
#: 38-45 s where every sample is evaluated: inside the strips, or in a band
#: that does not settle the report, such as k = 50, m = 40.
MAX_SAMPLES = 10**9

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

    ``failure_records`` holds the first MAX_FAILURE_RECORDS failures as the
    rows (y, theta) of a read-only float64 array of shape (n, 2); the report
    keeps a copy of what it is given.  Reports are equal when their fields
    are and their records agree bit for bit.
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
    failure_records: np.ndarray = field(repr=False, compare=False, default=())  # any (n, 2) array-like
    #: Samples the filter could not settle and that were evaluated exactly.
    refined: int = field(repr=False, compare=False, default=0)
    #: Samples the sweep drew and evaluated; the others were settled unseen.
    drawn: int = field(repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        records = np.array(self.failure_records, dtype=np.float64)
        records = records.reshape(len(records), 2)
        records.flags.writeable = False
        object.__setattr__(self, "failure_records", records)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows() == other.rows() and self.failure_records.tobytes() == other.failure_records.tobytes()

    def rows(self) -> list[tuple[str, object]]:
        """The metrics of both report formats, as (name, value) in their order."""
        return [
            ("k", self.k),
            ("m", self.m),
            ("samples", self.samples),
            ("seed", self.seed),
            ("region", "inside" if self.inside_strip else "outside"),
            ("failures", self.failures),
            ("slope_failures", self.slope_failures),
            ("norm_failures", self.norm_failures),
            ("min_norm", self.min_norm),
            ("slope_min", self.slope_range[0]),
            ("slope_max", self.slope_range[1]),
        ]

    def to_text(self) -> str:
        lines = [(f"{name} {value:.17g}" if isinstance(value, float) else f"{name} {value}")
                 + (" Delta^(m)" if name == "region" else "") for name, value in self.rows()]
        if len(self.failure_records):
            from . import numfmt  # only reports with failures need the kernel

            y, theta = self.failure_records.T
            lines.append(numfmt.table([b"failure y=", y, b" theta=", theta], b"\0\0\0\n")[:-1])
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


def push_vector(y: Coord, theta: float, params: MapParams) -> tuple[Coord, Coord]:
    """Direction angle and norm of the derivative applied to (cos t, sin t).

    The image of (cos theta, sin theta) under the forward derivative at
    height y is (cos + psi sin, cos + (1 + psi) sin); the angle comes from
    the two-argument arctangent of those components, so no quadrant is lost.
    An array of heights gives arrays with the float path's bits.
    """
    ix, iy = _image(psi(y, params), math.cos(theta), math.sin(theta))
    try:  # as in stdmap.mod1
        return math.atan2(iy, ix), math.hypot(ix, iy)
    except TypeError:
        return atan2_each(iy, ix), hypot_each(ix, iy)


def _image(p: Coord, c: Coord, s: Coord) -> tuple[Coord, Coord]:
    """Image (c + psi s, c + (1 + psi) s) of (c, s) under Df where psi_c = p."""
    return c + p * s, c + (1.0 + p) * s


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
    inside_lo: np.float32  # A rounded up: r - w above it puts slope - 1 above A
    inside_hi: np.float32  # B rounded down: r + w below it puts slope - 1 below B
    outside_lo: np.float32  # A rounded down: r + w below it puts slope - 1 below A
    outside_hi: np.float32  # B rounded up: r - w above it puts slope - 1 above B
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


def _e64(big_k: float) -> float:
    """Bound on the error of the float64 ix and iy at K = big_k."""
    return 1e-12 * (2.0 + big_k)


def _filter_bounds(k: float, m: int) -> Optional[_Bounds]:
    """E and the thresholds derived in the module docstring.

    None where the float32 image could overflow or E is not finite.
    """
    big_k = TWO_PI * k
    u, eps = _U32, _TRIG32_ERR
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
    below = m - 2.0 * e
    # The float64 verdict's edges of slope - 1, exact by Sterbenz.
    edge_a, edge_b = (1.0 - 1.0 / m) - 1.0, (1.0 + 1.0 / m) - 1.0
    return _Bounds(
        e=e,
        big_k=np.float32(big_k),
        inside_lo=_f32(edge_a, True),
        inside_hi=_f32(edge_b, False),
        outside_lo=_f32(edge_a, False),
        outside_hi=_f32(edge_b, True),
        norm_ok=_f32(_SLACK * (1.0 + 3.0 * u) * (m + 2.0 * e) * (m + 2.0 * e), True),
        norm_bad=_f32((1.0 - 2.0 * u) * below * below / _SLACK if below > 0.0 else -math.inf, False),
        width_r=_f32(_SLACK * (1.0 + 8.0 * u) * (1.0 + 2.0 * u) * (e + 2.0 * u * b), True),
        width_eps=_f32(_SLACK * (1.0 + 8.0 * u) * (eps + 2.0 * e64), True),
        width_e=_f32(e, True),
    )


def _image32(
    y: np.ndarray, t: np.ndarray, theta_range: tuple[float, float], bounds: _Bounds
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The filter's float32 sin theta, ix, |ix| and q = ix^2 + iy^2.

    ``y`` are the heights and ``t`` the draws for theta.
    """
    cy, ct, st, ix, q = np.empty((5, len(y)), dtype=np.float32)
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
    q += np.multiply(ix, ix, out=ct)
    return st, ix, np.abs(ix, out=cy), q


def _slope_width(st: np.ndarray, ix: np.ndarray, ax: np.ndarray, bounds: _Bounds) -> tuple[np.ndarray, np.ndarray]:
    """r = s / ix and the width w of the module docstring, in the buffers of ``st`` and ``ix``.

    The float64 slope - 1 lies within w of r; w is +inf where |ix| <= E.
    ``ax`` (|ix|) is overwritten.
    """
    r = np.divide(st, ix, out=st)
    w = np.abs(r, out=ix)
    w *= bounds.width_r
    w += bounds.width_eps
    ax -= bounds.width_e
    w /= np.maximum(ax, 0.0, out=ax)  # +0 where |ix| <= width_e, so w = +inf
    return r, w


@np.errstate(all="ignore")  # the filter decides nothing from a non-finite value
def _filter(
    y: np.ndarray, t: np.ndarray, theta_range: tuple[float, float], bounds: _Bounds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope and norm verdicts of the float32 image, and what to refine.

    Returns (slope_bad, norm_bad, refine); the verdicts are certified
    wherever ``refine`` is False.
    """
    st, ix, ax, q = _image32(y, t, theta_range, bounds)
    r, w = _slope_width(st, ix, ax, bounds)
    # The float64 slope - 1 lies in [lb, ub]; NaN where r and w are infinite.
    lb = np.subtract(r, w, out=ax)
    ub = np.add(r, w, out=w)
    sure, more, slope_ok, norm_ok, refine = np.empty((5, len(y)), dtype=bool)
    b = bounds
    np.greater(lb, b.inside_lo, out=slope_ok)
    slope_ok &= np.less(ub, b.inside_hi, out=more)
    np.less(ub, b.outside_lo, out=sure)
    sure |= np.greater(lb, b.outside_hi, out=more)
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
    add_unless(np.greater(lb, np.fmin.reduce(ub), out=more))
    add_unless(np.less(ub, np.fmax.reduce(lb), out=more))
    return np.invert(slope_ok, out=slope_ok), np.invert(norm_ok, out=norm_ok), refine


#: One batch's counts (failures, slope, norm), extrema (min_norm,
#: slope_min, slope_max), first failure records as rows (y, theta) and
#: refined count.
_Part = tuple[int, int, int, float, float, float, np.ndarray, int]


def _evaluate(y: np.ndarray, t: np.ndarray, params: MapParams, m: int, budget: int) -> _Part:
    """The part of the samples at heights ``y`` with theta's draws ``t``:
    filtered, then refined in float64, with the first ``budget`` failure records."""
    count = len(y)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    bounds = _filter_bounds(params.k, m)
    if bounds is None:
        idx = np.arange(count)
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
    records = np.empty((0, 2))
    if budget > 0:
        first = np.flatnonzero(bad)[:budget]
        records = np.stack((y[first], lo + t[first] * (hi - lo)), axis=1)
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
#: points ``random()`` draws from, and theta's draws as t = i / _GRID.
_GRID = 2**53

#: t's top six bits are its bucket b, t = (b _LOW + low) / _GRID: the
#: band's reach is set bucket by bucket.
_BUCKETS = 64
_LOW = _GRID // _BUCKETS

#: The least share of the region's samples that the box of slope_max
#: holds above every slope the closed boxes allow (module docstring).
_SETTLE_SHARE = 2.5e-5

#: A box set's guide table has at most 2^_GUIDE_BITS slots.
_GUIDE_BITS = 12

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


class _Boxes(NamedTuple):
    """Grid points (j, t) as rows, each one bucket of t over a closed span of j.

    The rows lie end to end, in the order given, as the integers
    [0, size): index x lies in the first row i with x < ends[i], and stands
    for j = x + j_shift[i] and t's bucket, t_shift[i] = b _LOW.  The row of
    x is found by a guide table (Devroye 1986, III.2.4): ``guide`` holds the
    row of the first index of each slot of 2^shift indices, and no slot
    holds more than ``passes`` row ends.
    """

    size: int
    ends: np.ndarray
    j_shift: np.ndarray
    t_shift: np.ndarray
    guide: np.ndarray
    shift: int
    passes: int


def _boxes(bucket: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> _Boxes:
    """The rows (bucket, [lo, hi]) in this order, empty ones dropped."""
    keep = hi >= lo
    bucket, lo, hi = bucket[keep], lo[keep], hi[keep]
    ends = np.cumsum(hi + 1 - lo)
    size = int(ends[-1]) if len(ends) else 0  # below 2^59
    shift = max(0, (size - 1).bit_length() - _GUIDE_BITS)
    # Row i holds the first index of the slots from -(-start // 2^shift) on,
    # and a slot holds the end e of a row when (e - 1) >> shift is the slot.
    first = -(-ends // (1 << shift))
    counts = first.copy()
    counts[1:] -= first[:-1]
    guide = np.repeat(np.arange(len(ends), dtype=np.int16), counts)  # rows: at most 4 x 64
    passes = int(np.bincount((ends[:-1] - 1) >> shift).max(initial=0))
    return _Boxes(size, ends, hi + 1 - ends, bucket * _LOW, guide, shift, passes)


def _grid_boxes(spans: _Spans) -> _Boxes:
    """Every bucket of t over the grid points of ``spans``."""
    lo, hi = (np.array(ends, dtype=np.int64) for ends in zip(*spans))
    return _boxes(np.repeat(np.arange(_BUCKETS), len(spans)), np.tile(lo, _BUCKETS), np.tile(hi, _BUCKETS))


def _box_draws(rng: np.random.Generator, boxes: _Boxes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` samples uniform on the grid points of ``boxes``: heights y and theta's draws t.

    Each sample takes one integer uniform on [0, size), then t's low 47
    bits.
    """
    x = rng.integers(boxes.size, size=count)
    row = boxes.guide[x >> boxes.shift].astype(np.intp)  # numpy gathers fastest by intp
    for _ in range(boxes.passes):
        row += x >= boxes.ends[row]
    y, t = np.empty((2, count))
    np.add(x, boxes.j_shift[row], out=y, casting="unsafe")  # exact below 2^53
    np.add(rng.integers(_LOW, size=count), boxes.t_shift[row], out=t, casting="unsafe")
    y *= 1.0 / _GRID
    t *= 1.0 / _GRID
    return y, t


class _Band(NamedTuple):
    """The boxes of the region outside Delta^(m) for one (k, m): ``open``,
    the grid points next to the strips that ``reach`` leaves open, and
    ``closed``, the rows (bucket, lo, hi) of the rest of the region, made a
    box set only for a sweep that completes.

    Every grid point of ``closed`` has a float64 norm of at least m and a
    float64 slope in [slope_lo, slope_hi].
    """

    psi_bound: float  # T_band: the far-region certificate holds wherever |psi_c| >= T_band
    reach: np.ndarray  # open grid points at each bucket next to each strip edge, 4 x _BUCKETS
    open: _Boxes
    closed: tuple[np.ndarray, np.ndarray, np.ndarray]
    size: int  # the region's grid points (j, bucket)
    slope_lo: float
    slope_hi: float


def _failure_layer(t: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Q's psi-roots psi_- < psi_+ at the slopes t: the norm of the image of
    a unit vector of slope t is below m exactly for psi_c between them.

    Q(psi, t) = a psi^2 + b psi + c with a > 0 > c for t > 0 and m >= 2.
    """
    a, b, c = 2.0 * t * t, (2.0 * t + 4.0) * t, ((1.0 - m * m) * t + 2.0) * t + 2.0 - m * m
    q = -b - np.sqrt(b * b - 4.0 * a * c)  # no cancellation: -4ac > 0
    return q / (2.0 * a), 2.0 * c / q


def _band(k: float, m: int) -> Optional[_Band]:
    """The reach and boxes of the module docstring: the band |psi_c| <= T_band
    outside Delta^(m), its open rows, and the rest of the region.

    None where T_band reaches K (the band would hold every sample), where
    e64 or the certified slopes leave the certificate's margins, or where a
    first closed grid point lies within the margin of the root.
    """
    big_k = TWO_PI * k
    e64 = _e64(big_k)
    root = math.sqrt(1.0 + m * m)
    t_band = (1.0 + 1e-9) * (m + 1.0 + m * root / math.sqrt(2.0)) + 4.0 * e64 * root
    sigma = 4.0 * e64 + 1e-14
    far_lo, far_hi = 1.0 - 1.0 / (t_band - m) - sigma, 1.0 + 1.0 / t_band + sigma
    if not (t_band + e64 < big_k and e64 < 1e-3 and max(1.0 - far_lo, far_hi - 1.0) < 0.9 / m):
        return None
    params = MapParams(k)
    strip = delta_strip(m, params)
    (s1, s2), (s3, s4) = _spans(strip.delta_m, strip.delta_neg_m)[0]
    # The half-sides, one a row: grid points j = inner + step d, d >= 0.
    inner = np.array([[s1 - 1], [s2 + 1], [s3 - 1], [s4 + 1]])
    step = np.array([[-1], [1], [-1], [1]])
    side = np.array([[1.0], [-1.0], [-1.0], [1.0]])  # the sign of psi_c
    lo, hi = math.atan(1.0 / m), math.atan(m)

    def count_below(level: np.ndarray) -> np.ndarray:
        """The number of grid points of each half-side, next to the strip, where |psi_c| lies below ``level``."""
        y = psi_inverse(side * level, params)
        y[2:] = 1.0 - y[2:]  # the half-sides of the second strip
        return np.maximum(np.floor((y * _GRID - inner) * step), 0).astype(np.int64)

    # Q's outer psi-root at each bucket's lower edge, theta widened by 1e-9
    # of its range, and the grid points below it and the margins.
    eta = 1e-9 * (hi - lo)
    theta = lo + (hi - lo) * np.arange(_BUCKETS + 1) / _BUCKETS
    t = np.tan(theta[:-1] - eta)
    psi_minus, psi_plus = _failure_layer(t, m)
    layer = np.where(side > 0.0, psi_plus, -psi_minus)
    margin = 4.0 * e64 * root
    reach = count_below(layer + margin + 2.0 * e64)

    # The box of slope_max: psi_c within h of 2m, cot theta within h of 1/m.
    a = _SETTLE_SHARE * math.pi * big_k * (hi - lo)
    r = math.inf
    if a < 1.0:
        r = (a / m + math.sqrt(a * a / (m * m) + (1.0 - a) * a * (1.0 + 1.0 / (m * m)))) / (1.0 - a)
    h = min(2.5 * r, t_band - 2.0 * m, m - 1.0 / m)
    b_x = max(0, math.floor(_BUCKETS * (math.atan(1.0 / (1.0 / m + h)) - lo) / (hi - lo)))
    buckets = np.arange(_BUCKETS)
    reach = np.where((side > 0.0) & (buckets >= b_x), np.maximum(reach, count_below(np.array(2.0 * m + h))), reach)

    # The first closed grid point must lie the margin beyond the root.
    psi_lo = np.abs(psi((inner + step * reach) * (1.0 / _GRID), params)) - e64
    if not np.all(psi_lo - margin >= layer):
        return None

    # The closed grid points' slopes: theta at the bucket edges, widened.
    cot_top = 1.0 / np.tan(theta[1:] + eta)
    slope_lo = float(np.min(1.0 - 1.0 / (psi_lo - 1.0 / t) - sigma, where=side < 0.0, initial=far_lo))
    slope_hi = float(np.max(1.0 + 1.0 / (psi_lo + cot_top) + sigma, where=side > 0.0, initial=far_hi))
    if not max(1.0 - slope_lo, slope_hi - 1.0) < 0.9 / m:
        return None

    # Rows by bucket, then by j: the open grid points next to each strip
    # edge, and the closed ones between them.
    back = step < 0
    open_lo, open_hi = np.where(back, inner + 1 - reach, inner), np.where(back, inner, inner + reach - 1)
    open_rows = _boxes(np.repeat(buckets, 4), open_lo.T.ravel(), open_hi.T.ravel())
    gaps = np.array([[0, s2 + 1, s4 + 1], [s1 - 1, s3 - 1, _GRID - 1]])
    lo_rows = gaps[0][:, None] + np.array([np.zeros(_BUCKETS, np.int64), reach[1], reach[3]])
    hi_rows = gaps[1][:, None] - np.array([reach[0], reach[2], np.zeros(_BUCKETS, np.int64)])
    closed_rows = (np.repeat(buckets, 3), lo_rows.T.ravel(), hi_rows.T.ravel())
    region = (s1 + (s3 - s2 - 1) + (_GRID - 1 - s4)) * _BUCKETS
    return _Band(t_band, reach, open_rows, closed_rows, region, slope_lo, slope_hi)


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

    Outside the strips only the band's open rows, next to the strips, are
    drawn, and the other samples only where they do not settle the report
    (see the module docstring).  The report depends only on the arguments.
    A sweep keeps no state between calls, so library callers may run
    sweeps from several threads at once.
    """
    if n_samples < 1:
        raise ParameterError("n_samples", f"must be >= 1, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise ParameterError("n_samples", f"must be at most {MAX_SAMPLES}, got {n_samples}")
    if seed < 0:
        raise ParameterError("seed", f"must be >= 0, got {seed}")
    strip = delta_strip(m, params)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    band = None if inside_strip else _band(params.k, m)
    parts: list[_Part] = []
    budget, drawn = MAX_FAILURE_RECORDS, 0

    def sweep(boxes: _Boxes, count: int) -> None:
        nonlocal budget, drawn
        for at in range(0, count, _CHUNK):
            size = min(_CHUNK, count - at)
            y, t = _box_draws(rng, boxes, size)
            parts.append(_evaluate(y, t, params, m, budget))
            budget -= len(parts[-1][6])
            drawn += size

    if band is None:
        sweep(_grid_boxes(_spans(strip.delta_m, strip.delta_neg_m)[0 if inside_strip else 1]), n_samples)
    else:
        n_open = int(rng.binomial(n_samples, band.open.size / band.size))
        sweep(band.open, n_open)
        if not (
            parts
            and min(p[3] for p in parts) < m
            and min(p[4] for p in parts) < band.slope_lo
            and max(p[5] for p in parts) > band.slope_hi
        ):
            sweep(_boxes(*band.closed), n_samples - n_open)
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
        failure_records=np.concatenate([p[6] for p in parts]),
        refined=sum(p[7] for p in parts),
        drawn=drawn,
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
    keeps every image slope inside automatically.  The steps come from the
    orbit walk ``stdmap._orbit_psi``, and each pushes the vector as
    ``push_vector`` does, with psi_c from the walk.
    """
    if n < 1:
        raise ParameterError("n", f"must be >= 1, got {n}")
    strip = delta_strip(m, params)
    slope = math.tan(theta)
    if not (1.0 / m < slope < m):
        raise ParameterError("theta", f"{theta}: the initial slope {slope} lies outside the cone (1/{m}, {m})")
    factors: list[float] = []
    ang = theta
    for i, (y, s) in enumerate(_orbit_psi(p, params, n)):
        if strip.contains(y):
            return ExpansionReport(tuple(factors), i)
        ix, iy = _image(s, math.cos(ang), math.sin(ang))
        ang = math.atan2(iy, ix)
        factors.append(math.hypot(ix, iy))
    return ExpansionReport(tuple(factors), None)
