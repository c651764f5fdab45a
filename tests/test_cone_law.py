"""The sweep's sample stream has the law it documents.

Outside the strips ``verify_cones`` draws Binomial(n, p) samples uniform on
the band's grid points instead of n uniform draws; the reference tests check
its arithmetic on that stream, and these check the stream itself: its
failure counts against the sweep that draws every sample, its band count
against n p, and its heights against the uniform law on the grid points of
each span list it draws from: the band, the strips and the whole complement.
"""

import math

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.hyperbolicity import delta_strip, verify_cones
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


def equal_count_bins(y: np.ndarray, spans, bins: int = 64) -> np.ndarray:
    """The counts of heights y in each of ``bins`` bins of equal count over the
    grid points of ``spans``, after checking that every y is one of them."""
    j = y * GRID
    assert np.array_equal(j, np.floor(j))  # on the grid
    j = j.astype(np.int64)
    lo, hi = (np.array(ends) for ends in zip(*spans))
    starts = np.concatenate([[0], np.cumsum(hi + 1 - lo)[:-1]])
    span = np.searchsorted(lo, j, side="right") - 1
    assert np.all(span >= 0) and np.all(j <= hi[span])  # in the spans
    rank = starts[span] + (j - lo[span])
    return np.bincount((rank * bins) // int((hi + 1 - lo).sum()), minlength=bins)  # exact: rank < 2^53


def assert_uniform(observed: np.ndarray) -> None:
    """Chi-squared over equal-count bins accepts the uniform law at 1e-4."""
    expected = observed.sum() / len(observed)
    chi2 = float(((observed - expected) ** 2).sum() / expected)
    assert chi2_sf(chi2, len(observed) - 1) > 1e-4, (chi2, observed.sum())


@pytest.mark.parametrize("k, m", CASES, ids=[f"k{k:g}-m{m}" for k, m in CASES])
def test_band_sweeps_keep_the_law_of_the_full_sweep(monkeypatch, k, m):
    params = MapParams(k)
    band = hyperbolicity._band(k, m)
    size = sum(hi + 1 - lo for lo, hi in band.spans)
    outside = size + sum(hi + 1 - lo for lo, hi in band.rest)
    draws = hyperbolicity._grid_draws
    band_counts: list[int] = []
    observed = np.zeros(64, dtype=np.int64)  # band draws in each of 64 bins of equal count

    def recorded(rng, spans, count):
        y = draws(rng, spans, count)
        if spans == band.spans:  # not the completion
            band_counts[-1] += count
            observed[:] += equal_count_bins(y, spans)
        return y

    monkeypatch.setattr(hyperbolicity, "_grid_draws", recorded)
    thinned = []
    for seed in SEEDS:
        band_counts.append(0)
        thinned.append(verify_cones(params, m, N, seed).norm_failures)
    monkeypatch.setattr(hyperbolicity, "_band", lambda k, m: None)  # every sample drawn
    full = [verify_cones(params, m, N, seed).norm_failures for seed in SEEDS]

    # Mean norm failures agree within 4.5 combined standard errors.
    thinned, full = np.array(thinned, float), np.array(full, float)
    se = math.sqrt((thinned.var(ddof=1) + full.var(ddof=1)) / len(SEEDS))
    assert abs(thinned.mean() - full.mean()) <= 4.5 * se, (thinned.mean(), full.mean(), se)

    # The band count has mean n p, p the band's share of the outside grid points.
    p = size / outside
    counts = np.array(band_counts, float)
    assert abs(counts.mean() - N * p) <= 4.5 * math.sqrt(N * p * (1 - p) / len(SEEDS)), (counts.mean(), N * p)

    # The band draws are uniform over its grid points.
    assert_uniform(observed)


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_sweeps_that_draw_every_sample_draw_uniformly(monkeypatch, inside):
    # Inside the strips, and outside them with no band, every height is
    # drawn uniform on the region's grid points.
    k, m = 40.0, 3
    strip = delta_strip(m, MapParams(k))
    region = hyperbolicity._spans(strip.delta_m, strip.delta_neg_m)[0 if inside else 1]
    draws = hyperbolicity._grid_draws
    observed = np.zeros(64, dtype=np.int64)

    def recorded(rng, spans, count):
        assert spans == region
        y = draws(rng, spans, count)
        observed[:] += equal_count_bins(y, spans)
        return y

    monkeypatch.setattr(hyperbolicity, "_grid_draws", recorded)
    monkeypatch.setattr(hyperbolicity, "_band", lambda k, m: None)
    for seed in range(10):
        verify_cones(MapParams(k), m, N, seed, inside_strip=inside)
    assert observed.sum() == 10 * N
    assert_uniform(observed)
