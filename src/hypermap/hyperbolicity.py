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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coordinates import Coord, psi
from .stdmap import TWO_PI, MapParams, TorusPoint, map_forward

#: Samples are processed in fixed-size chunks with per-chunk derived seeds,
#: so results do not depend on how many workers execute them.
_CHUNK = 32768

#: Failure records kept for replay; beyond this only the count grows.
MAX_FAILURE_RECORDS = 1000


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


def _cone_chunk(
    args: tuple[np.random.SeedSequence, int, MapParams, int, StripSpec, bool],
) -> tuple[int, int, int, float, float, float, list[tuple[float, float]]]:
    seed_seq, count, params, m, strip, inside = args
    rng = np.random.default_rng(seed_seq)
    d_m, d_nm = strip.delta_m, strip.delta_neg_m
    if inside:
        # Uniform over the two closed strips.
        width = d_nm - d_m
        u = rng.random(count) * (2.0 * width)
        y = np.where(u < width, d_m + u, 1.0 - d_nm + (u - width))
    else:
        # Uniform over the open complement [0,dm) u (dnm, 1-dnm) u (1-dm, 1).
        l1 = d_m
        l2 = 1.0 - 2.0 * d_nm
        u = rng.random(count) * (2.0 * l1 + l2)
        y = np.where(
            u < l1,
            u,
            np.where(u < l1 + l2, d_nm + (u - l1), (1.0 - d_m) + (u - l1 - l2)),
        )
    lo, hi = math.atan(1.0 / m), math.atan(m)
    theta = lo + rng.random(count) * (hi - lo)

    ix, iy = _image(psi(y, params), np.cos(theta), np.sin(theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = iy / ix
    norm = np.hypot(ix, iy)
    slope_bad = ~((slope > 1.0 - 1.0 / m) & (slope < 1.0 + 1.0 / m))
    norm_bad = ~(norm >= m)
    bad = slope_bad | norm_bad
    records = [(float(y[i]), float(theta[i])) for i in np.flatnonzero(bad)[:MAX_FAILURE_RECORDS]]
    return (
        int(bad.sum()),
        int(slope_bad.sum()),
        int(norm_bad.sum()),
        float(norm.min()),
        float(np.nanmin(slope)),
        float(np.nanmax(slope)),
        records,
    )


def _worker_count() -> int:
    env = os.environ.get("HYPERMAP_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"HYPERMAP_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


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

    Sampling is partitioned into fixed chunks with seeds derived from the
    root seed, so the report is identical regardless of worker count
    (HYPERMAP_THREADS caps the pool).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    strip = delta_strip(m, params)
    counts = [_CHUNK] * (n_samples // _CHUNK)
    if n_samples % _CHUNK:
        counts.append(n_samples % _CHUNK)
    seeds = np.random.SeedSequence(seed).spawn(len(counts))
    jobs = [(ss, cnt, params, m, strip, inside_strip) for ss, cnt in zip(seeds, counts)]
    workers = min(_worker_count(), len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_cone_chunk, jobs))
    else:
        parts = [_cone_chunk(j) for j in jobs]

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
