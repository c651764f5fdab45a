"""The band sweep's report has the law of the sweep that draws every sample.

Outside the strips ``verify_cones`` draws Binomial(n, p) samples uniform on
the band's grid points instead of n uniform draws; the reference tests check
its arithmetic on that stream, and these check the stream itself: its
failure counts against the chunk-by-chunk sweep's, its band count against
n p, and its band draws against the uniform law on the band's grid.
"""

import math

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.hyperbolicity import verify_cones
from hypermap.stdmap import MapParams

#: (k, m): a narrow band, the widest m = 2 band of the benchmark's range,
#: and a band holding two thirds of the samples.
CASES = [(7.0, 3), (20.0, 2), (14.5, 10)]
SEEDS = range(100)
N = 100_000
GRID = 2**53


def chi2_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-squared with ``dof`` degrees of freedom (series of the lower incomplete gamma)."""
    a, z = dof / 2.0, x / 2.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= z / (a + n)
        total += term
    return 1.0 - math.exp(a * math.log(z) - z - math.lgamma(a) + math.log(total))


def test_chi2_tail_matches_known_quantiles():
    # The 0.05 and 1e-4 upper quantiles of chi-squared with 10 and 63 degrees of freedom.
    assert chi2_sf(18.307038, 10) == pytest.approx(0.05, rel=1e-5)
    assert chi2_sf(82.528727, 63) == pytest.approx(0.05, rel=1e-4)
    assert chi2_sf(1.0, 63) == pytest.approx(1.0)


@pytest.mark.parametrize("k, m", CASES, ids=[f"k{k:g}-m{m}" for k, m in CASES])
def test_band_sweeps_keep_the_law_of_the_full_sweep(monkeypatch, k, m):
    params = MapParams(k)
    # The band's grid points j (r = j 2^-53): two closed spans [lo1, hi1], [lo2, hi2].
    a1, b1, a2, b2 = hyperbolicity._band(k, m).edges
    lo1, hi1, lo2, hi2 = math.ceil(a1 * GRID), math.floor(b1 * GRID), math.ceil(a2 * GRID), math.floor(b2 * GRID)
    size1, size = hi1 + 1 - lo1, hi1 + 1 - lo1 + hi2 + 1 - lo2
    bins = 64
    draws = hyperbolicity._grid_draws
    band_counts: list[int] = []
    observed = np.zeros(bins, dtype=np.int64)  # band draws in each of 64 bins of equal count

    def recorded(rng, spans, count):
        r = draws(rng, spans, count)
        if len(spans) == 2:  # the band's spans; the completion has three
            band_counts[-1] += count
            j = r * GRID
            assert np.array_equal(j, np.floor(j))  # on the grid
            j = j.astype(np.int64)
            assert np.all(((lo1 <= j) & (j <= hi1)) | ((lo2 <= j) & (j <= hi2)))  # in the band
            rank = np.where(j <= hi1, j - lo1, size1 + (j - lo2))
            observed[:] += np.bincount((rank * bins) // size, minlength=bins)  # exact: rank < 2^53
        return r

    monkeypatch.setattr(hyperbolicity, "_grid_draws", recorded)
    thinned = []
    for seed in SEEDS:
        band_counts.append(0)
        thinned.append(verify_cones(params, m, N, seed).norm_failures)
    monkeypatch.setattr(hyperbolicity, "_band", lambda k, m: None)  # every sweep chunk by chunk
    full = [verify_cones(params, m, N, seed).norm_failures for seed in SEEDS]

    # Mean norm failures agree within 4.5 combined standard errors.
    thinned, full = np.array(thinned, float), np.array(full, float)
    se = math.sqrt((thinned.var(ddof=1) + full.var(ddof=1)) / len(SEEDS))
    assert abs(thinned.mean() - full.mean()) <= 4.5 * se, (thinned.mean(), full.mean(), se)

    # The band count has mean n p, p the band's share of the grid.
    p = size / GRID
    counts = np.array(band_counts, float)
    assert abs(counts.mean() - N * p) <= 4.5 * math.sqrt(N * p * (1 - p) / len(SEEDS)), (counts.mean(), N * p)

    # The band draws are uniform over its grid points: chi-squared accepts at 1e-4.
    expected = observed.sum() / bins
    chi2 = float(((observed - expected) ** 2).sum() / expected)
    assert chi2_sf(chi2, bins - 1) > 1e-4, (chi2, observed.sum())
