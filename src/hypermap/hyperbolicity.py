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
with entry slope near 1/m, the norm infimum is exactly 1, so the sweep in
verify_cones reports norm failures there while the slope check stays
clean.  Interior entry slopes restore the per-step bound (orbit_expansion
exercises this).

Two exact mapping facts hold at every point: horizontal vectors land on the
slope-one diagonal, and at y = 1/4 or y = 3/4 (where psi_c = 0) the
slope -1 diagonal lands on the horizontal.

The sweep runs in the calling thread, one chunk of samples after another,
each drawn from its own seed spawned from the root seed.  It is a
floating-point filter followed by exact refinement (after Shewchuk,
Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates, 1997).  The filter takes cos 2 pi y, cos theta and sin theta
in numpy's float32, each within eps = 2e-6 of the float64 value, rounding
of the argument included (the worst error measured is 2.5e-7).  With
K = 2 pi k, the image (c + psi s, c + (1 + psi) s) it forms in float64 is
then within

    E = eps (2 + K + K eps) + K eps + 1e-12 (2 + K)

of the exact one in each component; the last term covers float64 rounding
in both evaluations.  So the norm is within 2E, and the slope within
E (1 + |slope|) / (|ix| - E) where |ix| > 2E (unbounded otherwise).  The
float64 expressions the sweep always used then evaluate again the samples
whose slope or norm verdict these bounds cannot certify (a NaN certifies
nothing: every comparison with it is false) and the candidates for
min_norm, slope_min and slope_max, whose lower bound is at most the least
upper bound over the chunk; the first MAX_FAILURE_RECORDS failures get
their exact y for the records.  Every certified verdict equals the exact
one and every extremum is attained in a refined sample, so the report is
bit-identical to an all-float64 sweep.  For 5 <= k <= 200 outside the
strips a few samples in 32768 are refined.  Inside the strips at large k,
where E is comparable to the image itself, most samples are.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coordinates import Coord, psi
from .stdmap import TWO_PI, MapParams, TorusPoint, map_forward

#: Samples are processed in fixed-size chunks, each drawn from its own seed
#: spawned from the root seed: the chunks fix the sample stream, so a report
#: depends only on its arguments, and they bound the work arrays.
_CHUNK = 32768

#: Failure records kept for replay; beyond this only the count grows.
MAX_FAILURE_RECORDS = 1000

#: Bound on the error of one float32 cos or sin value in the cone sweep's
#: filter, rounding of the argument to float32 included (worst measured:
#: 2.5e-7).
_TRIG32_ERR = 2e-6


@dataclass(frozen=True)
class StripSpec:
    """One Delta^(m) strip pair and its membership predicate."""

    m: int
    k: float
    delta_m: float  # below 1/4
    delta_neg_m: float  # above 1/4

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.delta_m, self.delta_neg_m, 1.0 - self.delta_neg_m, 1.0 - self.delta_m)

    def contains(self, y: float) -> bool:
        y %= 1.0
        return (
            self.delta_m <= y <= self.delta_neg_m
            or 1.0 - self.delta_neg_m <= y <= 1.0 - self.delta_m
        )


@dataclass(frozen=True)
class ConeReport:
    """Outcome of a randomized cone-invariance sweep, replayable by seed.

    ``failures`` counts samples violating either conclusion;
    ``slope_failures`` and ``norm_failures`` break that down.  The norm
    conclusion has a genuine thin failure layer at psi_c just below -2m
    with entry slopes near 1/m, where the image norm approaches 1; see the
    module tests for the exact corner.
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

    @property
    def passed(self) -> bool:
        return self.failures == 0

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
        for y, theta in self.failure_records:
            lines.append(f"failure y={y:.17g} theta={theta:.17g}")
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
    def cumulative(self) -> float:
        return math.prod(self.factors) if self.factors else 1.0

    @property
    def steps(self) -> int:
        return len(self.factors)


def delta_strip(m: int, params: MapParams) -> StripSpec:
    """Construct Delta^(m).  Requires 2 <= m < k."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if m >= params.k:
        raise ValueError(f"m must be < k, got m = {m}, k = {params.k}")
    arg = m / (math.pi * params.k)
    return StripSpec(
        m=m,
        k=params.k,
        delta_m=math.acos(arg) / TWO_PI,
        delta_neg_m=math.acos(-arg) / TWO_PI,
    )


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


def _region(strip: StripSpec, inside: bool) -> tuple[float, list[tuple[float, float, float]]]:
    """Total length of the sampled y region and its pieces.

    A draw u, uniform on [0, length), lands in the last piece (base, s1, s2)
    with u >= s1 + s2, at y = base + ((u - s1) - s2).
    """
    d_m, d_nm = strip.delta_m, strip.delta_neg_m
    if inside:
        # Uniform over the two closed strips.
        width = d_nm - d_m
        return 2.0 * width, [(d_m, 0.0, 0.0), (1.0 - d_nm, width, 0.0)]
    # Uniform over the open complement [0,dm) u (dnm, 1-dnm) u (1-dm, 1).
    l1 = d_m
    l2 = 1.0 - 2.0 * d_nm
    return 2.0 * l1 + l2, [(0.0, 0.0, 0.0), (d_nm, l1, 0.0), (1.0 - d_m, l1, l2)]


def _heights(u: np.ndarray, pieces: list[tuple[float, float, float]]) -> np.ndarray:
    """The heights y of draws u, each computed as the sweep always has."""
    y = np.empty_like(u)
    for base, s1, s2 in pieces:
        sel = u >= s1 + s2
        y[sel] = base + ((u[sel] - s1) - s2)
    return y


class _Workspace(threading.local):
    """One thread's work arrays for a chunk, reused so no chunk maps fresh pages."""

    def __init__(self) -> None:
        self.draws = np.empty((2, _CHUNK))  # u and theta
        self.f64 = np.empty((4, _CHUNK))
        self.f32 = np.empty((3, _CHUNK), dtype=np.float32)
        self.mask = np.empty(_CHUNK, dtype=bool)


_WORK = _Workspace()


def _filter_bound(k: float) -> float:
    """E: how far the filter's image components may lie from the exact ones."""
    big_k = TWO_PI * k
    if not big_k < 1e150:  # the filter's squared norm could overflow
        return math.inf
    eps = _TRIG32_ERR
    return eps * (2.0 + big_k + big_k * eps) + big_k * eps + 1e-12 * (2.0 + big_k)


@np.errstate(all="ignore")  # the filter decides nothing from a non-finite value
def _filter(
    u: np.ndarray, theta: np.ndarray, pieces: list[tuple[float, float, float]], k: float, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope and norm verdicts from float32 trigonometry, and what to refine.

    Returns (slope_ok, norm_ok, refine); the verdicts are certified wherever
    ``refine`` is False.
    """
    count = len(u)
    a, b, c, q = _WORK.f64[:, :count]
    cy, ct, st = _WORK.f32[:, :count]
    mask = _WORK.mask[:count]
    e = _filter_bound(k)
    offsets = [base - s1 - s2 for base, s1, s2 in pieces]  # y = u + offset up to rounding
    np.add(u, offsets[0], out=a)  # the first piece starts at u = 0
    for (_, s1, s2), step in zip(pieces[1:], np.diff(offsets)):
        np.greater_equal(u, s1 + s2, out=mask)
        np.multiply(mask, step, out=c)
        a += c
    a *= TWO_PI
    np.copyto(cy, a, casting="same_kind")
    np.cos(cy, out=cy)
    np.copyto(ct, theta, casting="same_kind")
    np.sin(ct, out=st)
    np.cos(ct, out=ct)
    np.multiply(cy, TWO_PI * k, out=a, dtype=np.float64)  # psi
    a *= st
    a += ct  # ix
    np.add(a, st, out=b)  # iy = ix + sin theta
    np.divide(b, a, out=c)  # slope
    np.multiply(a, a, out=q)
    b *= b
    q += b  # squared norm

    # The slope lies within E (1 + |slope|) / (|ix| - E) of the exact one
    # where |ix| > 2E, anywhere otherwise.
    np.abs(a, out=a)
    a -= e
    wide = ~(a > e)
    np.abs(c, out=b)
    b += 1.0
    b *= e
    b /= a
    lb = np.subtract(c, b, out=a)
    ub = np.add(c, b, out=b)
    lb[wide] = -math.inf
    ub[wide] = math.inf
    s_lo, s_hi = 1.0 - 1.0 / m, 1.0 + 1.0 / m
    slope_ok = (lb > s_lo) & (ub < s_hi)
    slope_sure = slope_ok | (ub < s_lo) | (lb > s_hi)
    # The norm lies within 2E of the exact one.
    norm_ok = q > (m + 2.0 * e) ** 2
    norm_sure = norm_ok | (q < ((m - 2.0 * e) ** 2 if m > 2.0 * e else -math.inf))

    refine = ~(slope_sure & norm_sure)  # so NaN is refined
    # Candidates for the extrema: lower bound <= least upper bound.
    near_min = math.sqrt(q.min()) + 4.0 * e
    refine |= q <= near_min * near_min
    refine |= lb <= ub.min()
    refine |= ub >= lb.max()
    return slope_ok, norm_ok, refine


def _cone_chunk(
    args: tuple[np.random.SeedSequence, int, MapParams, int, StripSpec, bool],
) -> tuple[int, int, int, float, float, float, list[tuple[float, float]], int]:
    seed_seq, count, params, m, strip, inside = args
    rng = np.random.default_rng(seed_seq)
    u, theta = _WORK.draws[:, :count]
    length, pieces = _region(strip, inside)
    rng.random(count, out=u)
    u *= length
    lo, hi = math.atan(1.0 / m), math.atan(m)
    rng.random(count, out=theta)
    theta *= hi - lo
    theta += lo
    slope_ok, norm_ok, refine = _filter(u, theta, pieces, params.k, m)
    slope_bad, norm_bad = ~slope_ok, ~norm_ok

    # Exact float64 evaluation of the samples the filter leaves open.
    idx = np.flatnonzero(refine)
    y = _heights(u[idx], pieces)
    ix, iy = _image(psi(y, params), np.cos(theta[idx]), np.sin(theta[idx]))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = iy / ix
    norm = np.hypot(ix, iy)
    slope_bad[idx] = ~((slope > 1.0 - 1.0 / m) & (slope < 1.0 + 1.0 / m))
    norm_bad[idx] = ~(norm >= m)
    bad = slope_bad | norm_bad
    first = np.flatnonzero(bad)[:MAX_FAILURE_RECORDS]
    records = list(zip(_heights(u[first], pieces).tolist(), theta[first].tolist()))
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


def verify_cones(
    params: MapParams,
    m: int,
    n_samples: int,
    seed: int,
    inside_strip: bool = False,
) -> ConeReport:
    """Randomized check of cone invariance and minimum expansion.

    Draws (y outside Delta^(m), slope in (1/m, m)) pairs from a seeded
    generator, uniform in y over the complement and uniform in the angle of
    the slope, and verifies both conclusions through the exact image
    formula.  With ``inside_strip`` the hypothesis is deliberately violated
    to demonstrate the check can fail.

    Sampling is partitioned into fixed chunks with seeds spawned from the
    root seed, swept in order in the calling thread.  Each thread sweeps in
    its own work arrays, so library callers may run sweeps from several
    threads at once.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    strip = delta_strip(m, params)
    counts = [_CHUNK] * (n_samples // _CHUNK)
    if n_samples % _CHUNK:
        counts.append(n_samples % _CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    parts = [_cone_chunk((ss, cnt, params, m, strip, inside_strip)) for ss, cnt in zip(seeds, counts)]

    failures = sum(p[0] for p in parts)
    slope_failures = sum(p[1] for p in parts)
    norm_failures = sum(p[2] for p in parts)
    min_norm = min(p[3] for p in parts)
    slope_lo = min(p[4] for p in parts)
    slope_hi = max(p[5] for p in parts)
    records: list[tuple[float, float]] = []
    for p in parts:
        if len(records) >= MAX_FAILURE_RECORDS:
            break
        records.extend(p[6][: MAX_FAILURE_RECORDS - len(records)])
    return ConeReport(
        k=params.k,
        m=m,
        samples=n_samples,
        failures=failures,
        slope_failures=slope_failures,
        norm_failures=norm_failures,
        min_norm=min_norm,
        slope_range=(slope_lo, slope_hi),
        seed=seed,
        inside_strip=inside_strip,
        failure_records=tuple(records),
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
        raise ValueError("n must be >= 1")
    strip = delta_strip(m, params)
    slope = math.tan(theta)
    if not (1.0 / m < slope < m):
        raise ValueError(
            f"initial slope tan(theta) = {slope} outside the cone (1/{m}, {m})"
        )
    factors: list[float] = []
    point, ang = p, theta
    for i in range(n):
        if strip.contains(point.y):
            return ExpansionReport(tuple(factors), i)
        ang, growth = push_vector(point.y, ang, params)
        factors.append(growth)
        point = map_forward(point, params)
    return ExpansionReport(tuple(factors), None)
