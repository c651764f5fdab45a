"""The sweep's sample stream has the law it documents.

Outside the strips ``verify_cones`` draws Binomial(n, p) samples uniform on
the open rows of the band instead of n uniform draws; the
reference tests check its arithmetic on that stream, and these check the
stream itself: its failure counts against the sweep that draws every
sample, its open count against n p, and its samples (j, t) against the
uniform law on the grid points of each box set it draws from: the open
boxes, the strips and the whole complement.
"""

import math

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.hyperbolicity import delta_strip, verify_cones
from hypermap.stdmap import MapParams
from test_cone_reference import (BUCKETS, LOW, band_rows, box_rows, reference_spans, region_rows, rows_size,
                                 span_size)

#: (k, m): a narrow band, the widest m = 2 band of the benchmark's range,
#: and a band holding two thirds of the samples (3.1 % in its open boxes).
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


def equal_count_bins(y: np.ndarray, t: np.ndarray, rows, bins: int = 64) -> np.ndarray:
    """The counts of samples (y, t) in each of ``bins`` bins of equal count over
    the grid points of ``rows``, laid end to end, after checking that every
    sample is one of them."""
    j, i = y * GRID, t * GRID
    assert np.array_equal(j, np.floor(j)) and np.array_equal(i, np.floor(i))  # on the grid
    j, i = j.astype(np.int64), i.astype(np.int64)
    bucket, lo, hi = (np.array(col, dtype=np.int64) for col in zip(*rows))
    starts = np.concatenate([[0], np.cumsum(hi + 1 - lo)[:-1]])
    key = (i >> 47) * GRID + j  # below 2^59; the rows rise in it
    row = np.searchsorted(bucket * GRID + lo, key, side="right") - 1
    assert np.all(row >= 0) and np.all(key <= bucket[row] * GRID + hi[row])  # in the rows
    where = (starts[row] + (j - lo[row]) + (i & (LOW - 1)) / LOW) / int((hi + 1 - lo).sum())
    return np.bincount(np.minimum((where * bins).astype(np.int64), bins - 1), minlength=bins)


def assert_uniform(observed: np.ndarray) -> None:
    """Chi-squared over equal-count bins accepts the uniform law at 1e-4."""
    expected = observed.sum() / len(observed)
    chi2 = float(((observed - expected) ** 2).sum() / expected)
    assert chi2_sf(chi2, len(observed) - 1) > 1e-4, (chi2, observed.sum())


@pytest.mark.parametrize("k, m", CASES, ids=[f"k{k:g}-m{m}" for k, m in CASES])
def test_band_sweeps_keep_the_law_of_the_full_sweep(monkeypatch, k, m):
    params = MapParams(k)
    band = hyperbolicity._band(k, m)
    strip = delta_strip(m, params)
    open_rows, _ = band_rows(strip, band.reach)
    draws = hyperbolicity._box_draws
    open_counts: list[int] = []
    observed = np.zeros(64, dtype=np.int64)  # open draws in each of 64 bins of equal count

    def recorded(rng, boxes, count):
        y, t = draws(rng, boxes, count)
        if box_rows(boxes) == open_rows:  # not the completion
            open_counts[-1] += count
            observed[:] += equal_count_bins(y, t, open_rows)
        return y, t

    monkeypatch.setattr(hyperbolicity, "_box_draws", recorded)
    thinned = []
    for seed in SEEDS:
        open_counts.append(0)
        thinned.append(verify_cones(params, m, N, seed).norm_failures)
    monkeypatch.setattr(hyperbolicity, "_band", lambda k, m: None)  # every sample drawn
    full = [verify_cones(params, m, N, seed).norm_failures for seed in SEEDS]

    # Mean norm failures agree within 4.5 combined standard errors.
    thinned, full = np.array(thinned, float), np.array(full, float)
    se = math.sqrt((thinned.var(ddof=1) + full.var(ddof=1)) / len(SEEDS))
    assert abs(thinned.mean() - full.mean()) <= 4.5 * se, (thinned.mean(), full.mean(), se)

    # The open count has mean n p, p the open boxes' share of the region's grid points.
    p = rows_size(open_rows) / (BUCKETS * span_size(reference_spans(strip, False)))
    counts = np.array(open_counts, float)
    assert abs(counts.mean() - N * p) <= 4.5 * math.sqrt(N * p * (1 - p) / len(SEEDS)), (counts.mean(), N * p)

    # The open draws are uniform over the open boxes' grid points.
    assert_uniform(observed)


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_sweeps_that_draw_every_sample_draw_uniformly(monkeypatch, inside):
    # Inside the strips, and outside them with no band, every sample is
    # drawn uniform on every bucket of the region's grid points.
    k, m = 40.0, 3
    rows = region_rows(reference_spans(delta_strip(m, MapParams(k)), inside))
    draws = hyperbolicity._box_draws
    observed = np.zeros(64, dtype=np.int64)

    def recorded(rng, boxes, count):
        assert box_rows(boxes) == rows
        y, t = draws(rng, boxes, count)
        observed[:] += equal_count_bins(y, t, rows)
        return y, t

    monkeypatch.setattr(hyperbolicity, "_box_draws", recorded)
    monkeypatch.setattr(hyperbolicity, "_band", lambda k, m: None)
    for seed in range(10):
        verify_cones(MapParams(k), m, N, seed, inside_strip=inside)
    assert observed.sum() == 10 * N
    assert_uniform(observed)
