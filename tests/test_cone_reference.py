"""The filter-then-refine cone sweep against the all-float64 kernel it replaced.

``reference_part`` evaluates every sample with the float64 image formula,
as the sweep did before the float32 filter; ``hyperbolicity._evaluate`` must
return the same batch tuples, counts and extrema ``repr`` for ``repr`` and
failure records bit for bit.  ``reference_report`` draws a sweep's samples
as the module docstring documents, (j, t) uniform on rows of one bucket of
t and one span of heights: the band's open rows and their completion where
there is a band, every bucket of the region's spans where there is none.
It evaluates every sample drawn in float64, and ``verify_cones`` must
return that report, ``repr`` for ``repr``, byte for byte and ``==``
(which compares the records bit for bit).
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.stdmap import psi
from hypermap.hyperbolicity import (MAX_FAILURE_RECORDS, ConeReport, StripSpec, _f32, _image, delta_strip,
                                   verify_cones)
from hypermap.stdmap import MapParams

_Part = tuple[int, int, int, float, float, float, np.ndarray]
GRID = 2**53
BUCKETS = 64  # t = (b LOW + low) 2^-53, b its bucket
LOW = 2**47


def reference_spans(strip: StripSpec, inside: bool) -> list[tuple[int, int]]:
    """The region's grid points j, y = j 2^-53, as the module docstring lists them."""
    d_m, d_nm = strip.delta_m, strip.delta_neg_m
    if inside:  # the two closed strips
        return [(math.ceil(d_m * GRID), math.floor(d_nm * GRID)),
                (math.ceil((1.0 - d_nm) * GRID), math.floor((1.0 - d_m) * GRID))]
    # The open complement [0, dm) u (dnm, 1 - dnm) u (1 - dm, 1).
    return [(0, math.ceil(d_m * GRID) - 1), (math.floor(d_nm * GRID) + 1, math.ceil((1.0 - d_nm) * GRID) - 1),
            (math.floor((1.0 - d_m) * GRID) + 1, GRID - 1)]


def span_size(spans) -> int:
    return sum(hi + 1 - lo for lo, hi in spans)


def reference_grid_draws(rng: np.random.Generator, spans, count: int) -> np.ndarray:
    """Heights y = j 2^-53, j uniform on the closed integer spans [lo, hi] (an empty one has hi = lo - 1)."""
    sizes = np.array([hi + 1 - lo for lo, hi in spans])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    i = rng.integers(int(sizes.sum()), size=count)
    span = np.searchsorted(starts, i, side="right") - 1  # past any empty span
    return (np.array([lo for lo, _ in spans])[span] + (i - starts[span])) * 2.0**-53


def reference_verdicts(y: np.ndarray, t: np.ndarray, params: MapParams, m: int):
    """theta, slope, norm and the slope and norm verdicts (True: fails) of each sample, all in float64."""
    lo, hi = math.atan(1.0 / m), math.atan(m)
    theta = lo + t * (hi - lo)
    ix, iy = _image(psi(y, params), np.cos(theta), np.sin(theta))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = iy / ix
    norm = np.hypot(ix, iy)
    return theta, slope, norm, ~((slope > 1.0 - 1.0 / m) & (slope < 1.0 + 1.0 / m)), ~(norm >= m)


def reference_part(y: np.ndarray, t: np.ndarray, params: MapParams, m: int) -> _Part:
    """Counts, extrema and first failure records of the samples at heights y with theta's draws t, all in float64."""
    theta, slope, norm, slope_bad, norm_bad = reference_verdicts(y, t, params, m)
    bad = slope_bad | norm_bad
    records = [(float(y[i]), float(theta[i])) for i in np.flatnonzero(bad)[:MAX_FAILURE_RECORDS]]
    records = np.array(records, dtype=np.float64).reshape(len(records), 2)
    return (
        int(bad.sum()),
        int(slope_bad.sum()),
        int(norm_bad.sum()),
        float(norm.min()),
        float(np.nanmin(slope)),
        float(np.nanmax(slope)),
        records,
    )


def part_bits(part) -> tuple:
    """A batch's counts and extrema as ``repr``, and its records' dtype, shape
    and bytes: equal for two batches exactly when every record is equal bit for bit."""
    records = part[6]
    return repr(part[:6]), records.dtype, records.shape, records.tobytes()


MS = (2, 3, 5, 10, 50)
COUNTS = (1, 7, 1000, 32768)


def batch_args(n_per_case: int, seed: int):
    """Seeded batches on the region's grid: k log-uniform in [1.01 m, 1e4], both regions, every count."""
    rng = np.random.default_rng(seed)
    for m in MS:
        for inside in (False, True):
            for count in COUNTS:
                for _ in range(n_per_case):
                    k = math.exp(rng.uniform(math.log(1.01 * m), math.log(1e4)))
                    params = MapParams(k)
                    y = reference_grid_draws(rng, reference_spans(delta_strip(m, params), inside), count)
                    yield y, rng.random(count), params, m, inside


def evaluate(args, budget: int = MAX_FAILURE_RECORDS):
    y, t, params, m, _ = args
    return hyperbolicity._evaluate(y, t, params, m, budget)


def test_chunks_equal_the_reference():
    n = 0
    for args in batch_args(25, seed=2024):
        got = evaluate(args)
        want = reference_part(*args[:4])
        assert part_bits(got) == part_bits(want), (args[2].k, args[3], len(args[0]), args[4])
        assert 1 <= got[7] <= len(args[0])
        n += 1
    assert n >= 1000


def test_chunks_on_many_threads_equal_the_reference():
    # A chunk shares no arrays with another call; more threads than cores
    # and a short switch interval interleave them as much as the interpreter can.
    jobs = list(batch_args(1, seed=77))
    want = [reference_part(*args[:4]) for args in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(evaluate, jobs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [part_bits(g) for g in got] == [part_bits(w) for w in want * 2]


def test_chunks_with_no_record_budget_build_no_records():
    for args in batch_args(1, seed=31):
        got = evaluate(args, 0)
        want = reference_part(*args[:4])
        assert got[6].dtype == np.float64 and got[6].shape == (0, 2)
        assert repr(got[:6]) == repr(want[:6])


def test_spans_are_the_strips():
    # The region is defined twice, by StripSpec.contains and by the grid
    # spans the sweep draws from: at every span end and its neighbours they
    # agree, the band and the rest split the outside spans, and the spans
    # are those the module docstring lists.
    checked = 0
    for m in MS:
        for k in np.geomspace(1.01 * m, 1e6, 25).tolist():
            strip = delta_strip(m, MapParams(k))
            inside, outside = hyperbolicity._spans(strip.delta_m, strip.delta_neg_m)
            assert inside == reference_spans(strip, True) and outside == reference_spans(strip, False)
            for spans, contained in ((inside, True), (outside, False)):
                for lo, hi in spans:
                    assert lo <= hi
                    for j in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
                        if 0 <= j < GRID:
                            # j lies in this region's spans exactly where contains says so.
                            in_spans = any(a <= j <= b for a, b in spans)
                            want = in_spans if contained else not in_spans
                            assert strip.contains(j * 2.0**-53) == want, (m, k, j)
                            checked += 1
            band = hyperbolicity._band(k, m)
            if band is not None:
                # The open and the closed rows are those the module docstring
                # lists, and at each bucket they split the outside spans.
                open_rows, closed_rows = band_rows(strip, band.reach)
                assert box_rows(band.open) == open_rows, (m, k)
                assert box_rows(hyperbolicity._boxes(*band.closed)) == closed_rows, (m, k)
                assert band.size == BUCKETS * span_size(outside)
                for b in range(BUCKETS):
                    pieces = sorted((lo, hi) for c, lo, hi in open_rows + closed_rows if c == b)
                    merged = pieces[:1]
                    for lo, hi in pieces[1:]:
                        assert lo > merged[-1][1], (m, k, b)  # disjoint
                        if lo == merged[-1][1] + 1:
                            merged[-1] = (merged[-1][0], hi)
                        else:
                            merged.append((lo, hi))
                    assert merged == outside, (m, k, b)
            assert box_rows(hyperbolicity._grid_boxes(outside)) == region_rows(outside)
    assert checked > 1000


def box_rows(boxes) -> list[tuple[int, int, int]]:
    """The rows (b, lo, hi) of a box set, read back from its layout."""
    ends = boxes.ends.tolist()
    starts = [0] + ends[:-1]
    return [(c // LOW, a + shift, e - 1 + shift)
            for a, e, shift, c in zip(starts, ends, boxes.j_shift.tolist(), boxes.t_shift.tolist())]


def band_settles(parts: list[_Part], m: int, band) -> tuple[bool, bool, bool]:
    """Whether the parts' min_norm, slope_min and slope_max each lie beyond
    what the certificate allows the closed boxes."""
    if not parts:
        return False, False, False
    return (min(p[3] for p in parts) < m, min(p[4] for p in parts) < band.slope_lo,
            max(p[5] for p in parts) > band.slope_hi)


def region_rows(spans) -> list[tuple[int, int, int]]:
    """Every bucket b of t over the spans: rows (b, lo, hi), by bucket, then by j."""
    return [(b, lo, hi) for b in range(BUCKETS) for lo, hi in spans]


def band_rows(strip: StripSpec, reach) -> tuple[list, list]:
    """The open and the closed rows of a band that leaves reach[h][b]
    grid points open at bucket b next to each strip edge h: below the first
    strip, above it, below the second and above it."""
    (s1, s2), (s3, s4) = reference_spans(strip, True)
    open_rows, closed_rows = [], []
    for b in range(BUCKETS):
        r = [int(reach[h][b]) for h in range(4)]
        open_rows += [(b, s1 - r[0], s1 - 1), (b, s2 + 1, s2 + r[1]), (b, s3 - r[2], s3 - 1), (b, s4 + 1, s4 + r[3])]
        closed_rows += [(b, 0, s1 - 1 - r[0]), (b, s2 + 1 + r[1], s3 - 1 - r[2]), (b, s4 + 1 + r[3], GRID - 1)]
    return [row for row in open_rows if row[1] <= row[2]], [row for row in closed_rows if row[1] <= row[2]]


def rows_size(rows) -> int:
    return sum(hi + 1 - lo for _, lo, hi in rows)


def reference_box_draws(rng: np.random.Generator, rows, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights y = j 2^-53 and theta's draws t = (b 2^47 + low) 2^-53, (j, b)
    uniform on the rows laid end to end, then low uniform on [0, 2^47)."""
    sizes = np.array([hi + 1 - lo for _, lo, hi in rows])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    i = rng.integers(int(sizes.sum()), size=count)
    row = np.searchsorted(starts, i, side="right") - 1
    bucket, lo = (np.array(col)[row] for col in list(zip(*rows))[:2])
    return (lo + (i - starts[row])) * 2.0**-53, (bucket * LOW + rng.integers(LOW, size=count)) * 2.0**-53


def reference_sweep(params: MapParams, m: int, n: int, seed: int,
                    inside: bool) -> tuple[list[_Part], list[_Part], int]:
    """The batches of the first draw and, where they leave an extremum open,
    those of the completion, and the number of samples of the first draw.

    One generator made from the seed.  Without a band (inside the strips,
    or where ``_band`` is None), n samples on every bucket of the region's
    spans.  With one, Binomial(n, p) samples on the open rows, p their share
    of the region's grid points (j, b), then, unless they settle all three
    extrema, the other samples on the closed rows.  Each batch of _CHUNK
    draws its integers for (j, b), then t's low bits.
    """
    strip = delta_strip(m, params)
    chunk = hyperbolicity._CHUNK
    band = None if inside else hyperbolicity._band(params.k, m)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draw(rows, count: int) -> list[_Part]:
        batches = []
        for at in range(0, count, chunk):
            size = min(chunk, count - at)
            batches.append(reference_part(*reference_box_draws(rng, rows, size), params, m))
        return batches

    region = reference_spans(strip, inside)
    if band is None:
        return draw(region_rows(region), n), [], n
    open_rows, closed_rows = band_rows(strip, band.reach)
    n_open = int(rng.binomial(n, rows_size(open_rows) / (BUCKETS * span_size(region))))
    parts = draw(open_rows, n_open)
    if all(band_settles(parts, m, band)):
        return parts, [], n_open
    return parts, draw(closed_rows, n - n_open), n_open


def reference_report(params: MapParams, m: int, n: int, seed: int, inside: bool) -> ConeReport:
    """The report of the documented sample stream, every sample drawn evaluated in float64."""
    first, completion, _ = reference_sweep(params, m, n, seed, inside)
    parts = first + completion
    return ConeReport(
        k=params.k,
        m=m,
        samples=n,
        failures=sum(p[0] for p in parts),
        slope_failures=sum(p[1] for p in parts),
        norm_failures=sum(p[2] for p in parts),
        min_norm=min(p[3] for p in parts),
        slope_range=(min(p[4] for p in parts), max(p[5] for p in parts)),
        seed=seed,
        inside_strip=inside,
        failure_records=np.concatenate([p[6] for p in parts])[:MAX_FAILURE_RECORDS],
    )


def assert_same_report(got: ConeReport, want: ConeReport) -> None:
    """Equal text, repr and ``==``; a mismatch names its first line, not a diff of two long texts."""
    got_lines, want_lines = got.to_text().split("\n"), want.to_text().split("\n")
    if got_lines != want_lines:
        at = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                  min(len(got_lines), len(want_lines)))

        def counts(rep: ConeReport) -> str:
            return (f"failures {rep.failures} (slope {rep.slope_failures}, norm {rep.norm_failures}), "
                    f"{len(rep.failure_records)} records")

        pytest.fail(f"reports differ first at line {at + 1}: got {got_lines[at:at + 1]}, want "
                    f"{want_lines[at:at + 1]}; got {counts(got)}, want {counts(want)}", pytrace=False)
    assert repr(got) == repr(want)
    assert got == want


#: The last six sweeps add the benchmark's range (5 <= k <= 200,
#: m in {2, 3, 5, 10}) at one chunk, one chunk and a sample, and 10^6
#: samples and more; in the last four, over 1000 failures spread over
#: several batches of the open boxes, so the record budget passes from batch
#: to batch.  The last is the benchmark's widest band, k near 14.6 at m = 10.
SWEEPS = [
    (MapParams(2.1), 2, 100_000, 3, False),
    (MapParams(25.0), 5, 150_000, 42, False),
    (MapParams(180.0), 10, 70_001, 7, True),
    (MapParams(1e4), 50, 40_000, 11, False),
    (MapParams(17.5), 3, 32_768, 8, False),
    (MapParams(60.0), 10, 32_769, 21, False),
    (MapParams(143.0), 2, 1_000_000, 5, False),
    (MapParams(88.0), 5, 1_000_000, 13, False),
    (MapParams(7.0), 3, 1_000_000, 9, False),
    (MapParams(14.6), 10, 1_670_000, 17, False),
    (MapParams(2e4), 2, 40_000, 19, True),
]
BAND_SWEEPS = [s for s in SWEEPS if 5.0 <= s[0].k <= 200.0 and not s[4]]

#: Sweeps on paths the random sweeps do not reach: no band, as e64 >= 1e-3
#: (k = 2e8, 1e12), and no float32 filter either, as K >= 2^60 (k = 2e17, 1e18).
LARGE_K_SWEEPS = [(MapParams(k), m, 50_000, seed, inside) for seed, (k, m, inside) in enumerate([
    (2e8, 2, False), (2e8, 3, True), (1e12, 3, False), (1e12, 2, True),
    (2e17, 2, False), (2e17, 3, True), (1e18, 3, False), (1e18, 2, True)])]


@pytest.mark.parametrize("sweep", SWEEPS + LARGE_K_SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_reports_equal_the_reference(sweep):
    assert_same_report(verify_cones(*sweep), reference_report(*sweep))


def test_large_k_sweeps_take_the_float64_paths():
    for params, m, *_ in LARGE_K_SWEEPS:
        assert hyperbolicity._band(params.k, m) is None
        assert (hyperbolicity._filter_bounds(params.k, m) is None) == (2 * math.pi * params.k >= 2.0**60)


@pytest.mark.parametrize("sweep", BAND_SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_benchmark_sweeps_need_no_chunk_by_chunk_sweep(sweep):
    # These sweeps are settled by the open boxes alone: they draw neither
    # every sample nor the completion, so the reference test above compares
    # the open boxes' stream with the reference.
    report = verify_cones(*sweep)
    _, completion, n_open = reference_sweep(*sweep)
    assert completion == [] and report.drawn == n_open
    assert 0 < report.drawn < 0.1 * sweep[2]


@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_open_rows_need_few_guide_passes(m):
    # A draw walks at most ``passes`` row ends from its guide slot.  Rows of
    # a few grid points, such as a reach padded by the margins alone at the
    # buckets with no failure layer, would crowd the slots and slow every
    # draw of the benchmark's sweeps.
    for k in np.geomspace(max(5.0, 1.01 * m), 200.0, 40).tolist():
        band = hyperbolicity._band(k, m)
        if band is not None:
            assert band.open.passes <= 4, (k, band.open.passes)


def test_band_sweeps_on_many_threads_equal_the_reference():
    # A sweep keeps no state between calls; more threads than cores and
    # a short switch interval interleave the sweeps.
    jobs = [s for s in BAND_SWEEPS if s[2] <= 200_000] * 3
    want = {s: reference_report(*s) for s in jobs}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: verify_cones(*s), jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for sweep, report in zip(jobs, got):
        assert_same_report(report, want[sweep])


#: Sweeps whose open boxes miss one extremum of the whole sweep: min_norm,
#: slope_min and slope_max in this order.  In each, only the check on that
#: extremum sends the sweep on to draw its completion.  The last two were
#: found by a seeded search over 36000 sweeps at m in {2, 3, 5, 10}, k
#: log-uniform in [max(5, 1.01 m), 200] and n log-uniform in [100, 5 10^4]
#: (``default_rng(34)`` drawing m, k, n and the seed in this order), keeping
#: the fewest samples.  None of them missed min_norm alone: the samples
#: below slope_lo lie in the norm's failure layer but for about 3 in 10^4
#: of them at m = 2.  The first was found among seeds 0 to 2 10^5 at
#: k = 200, m = 2, n = 20000, where about one seed in 3 10^4 misses it alone.
FALLBACK_SWEEPS = [
    (MapParams(200.0), 2, 20_000, 11578, False),
    (MapParams(51.16991151756083), 10, 131, 331527580, False),
    (MapParams(11.358632162619031), 5, 100, 759273847, False),
]


@pytest.mark.parametrize("which", range(3), ids=["min_norm", "slope_min", "slope_max"])
def test_sweeps_whose_band_misses_an_extremum_equal_the_reference(which):
    sweep = FALLBACK_SWEEPS[which]
    first, _, _ = reference_sweep(*sweep)
    band = hyperbolicity._band(sweep[0].k, sweep[1])
    assert band_settles(first, sweep[1], band) == tuple(i != which for i in range(3))
    report = verify_cones(*sweep)
    assert_same_report(report, reference_report(*sweep))
    assert report.drawn == sweep[2]  # the open boxes and their completion


def test_random_sweeps_equal_the_reference():
    # Sweeps the open boxes settle, sweeps whose open boxes are completed
    # and sweeps that draw every sample (T_band beyond K, inside the
    # strips), each against the all-float64 reference.
    rng = np.random.default_rng(18)
    paths = {"open boxes": 0, "completed": 0, "every sample": 0}
    kinds = {"inside": 0, "no band": 0}  # the sweeps that draw every sample
    for _ in range(200):
        m = int(rng.choice(MS))
        k = math.exp(rng.uniform(math.log(1.01 * m), math.log(1e4 if rng.random() < 0.5 else max(200.0, 2 * m))))
        n = int(math.exp(rng.uniform(0.0, math.log(3e6))))
        sweep = (MapParams(k), m, n, int(rng.integers(2**31)), bool(rng.random() < 0.1))
        report = verify_cones(*sweep)
        assert_same_report(report, reference_report(*sweep))
        if sweep[4] or hyperbolicity._band(k, m) is None:
            paths["every sample"] += 1
            kinds["inside" if sweep[4] else "no band"] += 1
        else:
            paths["completed" if report.drawn == n else "open boxes"] += 1
    assert min(paths.values()) >= 30 and min(kinds.values()) >= 10, (paths, kinds)


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_refining_every_sample_changes_nothing(monkeypatch, sweep):
    filtered = verify_cones(*sweep)
    monkeypatch.setattr(hyperbolicity, "_TRIG32_ERR", 1e300)
    exact = verify_cones(*sweep)
    assert exact.refined == exact.drawn == filtered.drawn > filtered.refined
    assert_same_report(exact, filtered)


def _float32_neighbours(points, steps: int = 64) -> np.ndarray:
    out = []
    for p in points:
        x = np.float32(p)
        for direction in (np.float32(-np.inf), np.float32(np.inf)):
            y = x
            for _ in range(steps):
                out.append(y)
                y = np.nextafter(y, direction)
    return np.array(out, dtype=np.float32)


def test_float32_trig_is_within_a_quarter_of_the_filter_bound():
    eps = hyperbolicity._TRIG32_ERR
    rng = np.random.default_rng(5)
    edges = [f(m) for m in range(2, 101) for f in (lambda m: math.atan(1.0 / m), math.atan)]
    special = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi] + edges
    args = np.concatenate([
        rng.uniform(0.0, 2 * math.pi, 1_000_000).astype(np.float32),
        _float32_neighbours(special),
    ])
    assert len(args) >= 1_000_000
    wide = args.astype(np.float64).tolist()
    for f32, f in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.fromiter(map(f, wide), np.float64, len(wide))
        assert np.max(np.abs(f32(args).astype(np.float64) - want)) <= eps / 4
    # The filter rounds each float64 argument to float32 first: within eps / 2 with that.
    exact = rng.uniform(0.0, 2 * math.pi, 200_000)
    for f32, f in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.fromiter(map(f, exact.tolist()), np.float64, len(exact))
        assert np.max(np.abs(f32(exact.astype(np.float32)).astype(np.float64) - want)) <= eps / 2
    # The whole float32 image against the float64 one, strip edges and cone
    # edges included: ix and iy within E / 4, the float64 slope - 1 within
    # w / 4 of r wherever w is finite, and the norm sqrt(q) within a quarter
    # of 2E.
    n = 0
    for m, k in [(m, k) for m in (2, 10, 50) for k in (1.01 * m, 200.0, 1e4)]:
        for inside in (False, True):
            n += _check_float32_image(MapParams(k), m, inside, rng)
    assert n >= 1_000_000


def _draws_near(points, steps: int = 64) -> np.ndarray:
    """The floats in [0, 1) within ``steps`` ulps of each point."""
    out = []
    for p in points:
        for direction in (-math.inf, math.inf):
            x = p
            for _ in range(steps):
                if 0.0 <= x < 1.0:
                    out.append(x)
                x = math.nextafter(x, direction)
    return np.array(out)


def image_draws(params: MapParams, m: int, inside: bool, rng, count: int = 55_000) -> tuple[np.ndarray, np.ndarray]:
    """``count`` seeded samples on the region's grid, then its edge draws.

    The edges are the heights at the ends of the region's spans (the strip
    edges, 0 and 1 - 2^-53) and theta at the cone's edges and the float32
    neighbours of both.
    """
    spans = reference_spans(delta_strip(m, params), inside)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    steps = np.arange(64)
    y_edges = np.concatenate([np.concatenate([a + steps, b - steps]) for a, b in spans]) * 2.0**-53
    t_edges = np.concatenate([
        steps * float(np.spacing(np.float32(lo))) / (hi - lo),
        1.0 - (steps + 1) * float(np.spacing(np.float32(hi))) / (hi - lo),
        _draws_near([0.0, 1.0]),
    ])
    y = np.concatenate([reference_grid_draws(rng, spans, count), y_edges,
                        reference_grid_draws(rng, spans, len(t_edges))])
    t = np.concatenate([rng.random(count), rng.random(len(y_edges)), t_edges])
    return y, t


def _check_float32_image(params: MapParams, m: int, inside: bool, rng) -> int:
    k = params.k
    bounds = hyperbolicity._filter_bounds(k, m)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    y, t = image_draws(params, m, inside, rng)
    e = bounds.e
    for at in range(0, len(y), hyperbolicity._CHUNK):
        yy, tt = y[at:at + hyperbolicity._CHUNK], t[at:at + hyperbolicity._CHUNK]
        st, ix, ax, q = hyperbolicity._image32(yy, tt, (lo, hi), bounds)
        iy = (ix + st).astype(np.float64)  # as the filter forms it
        ix64, q = ix.astype(np.float64), q.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            r, w = (a.astype(np.float64) for a in hyperbolicity._slope_width(st, ix, ax, bounds))
        theta, slope, _, _, _ = reference_verdicts(yy, tt, params, m)
        want_x, want_y = _image(psi(yy, params), np.cos(theta), np.sin(theta))
        where = (k, m, inside)
        assert np.max(np.abs(ix64 - want_x)) <= e / 4, where
        assert np.max(np.abs(iy - want_y)) <= e / 4, where
        finite = np.isfinite(w)
        assert np.count_nonzero(finite) >= len(yy) // 2, where
        assert np.all(np.abs(slope[finite] - 1.0 - r[finite]) <= w[finite] / 4), where
        assert np.max(np.abs(np.sqrt(q) - np.hypot(want_x, want_y))) <= 2 * e / 4, where
    return len(y)


@pytest.mark.parametrize("m", [2, 3, 10, 50])
def test_filter_thresholds_lie_outward_of_the_derived_bounds(m):
    # The bounds of the module docstring in exact rational arithmetic: every
    # float32 threshold must lie on the side of them that certifies less.
    # A margin halved or a threshold rounded inwards fails here.
    eps, u = Fraction(hyperbolicity._TRIG32_ERR), Fraction(1, 2**24)
    a, v = 1 + eps, 1 + u
    # The float64 verdict's edges of slope - 1: it compares the slope with
    # 1 - 1/m and 1 + 1/m, each rounded to float64.
    edge_a, edge_b = Fraction(1.0 - 1.0 / m) - 1, Fraction(1.0 + 1.0 / m) - 1
    for k in (1.01 * m, 17.0, 200.0, 1e4):
        b = hyperbolicity._filter_bounds(k, m)
        big_k = Fraction(2 * math.pi) * Fraction(k)
        p = a * big_k * v * v
        d_psi = big_k * eps + a * big_k * (2 * u + u * u)
        e_x = eps + big_k * eps + a * d_psi + u * a * p + u * a * (1 + p * v)
        big_b = a * (1 + p * v) * v
        e64 = Fraction(1e-12) * (2 + big_k)
        e = e_x + eps + u * (big_b + a) + e64
        assert b.e >= e
        # Each edge is the float32 next to A or B on the side that certifies
        # less: at or above it (up) or at or below it (down), and its float32
        # neighbour inwards lies across it.
        for edge, exact, up in ((b.inside_lo, edge_a, True), (b.inside_hi, edge_b, False),
                                (b.outside_lo, edge_a, False), (b.outside_hi, edge_b, True)):
            assert edge.dtype == np.float32
            inward = Fraction(float(np.nextafter(edge, np.float32(-math.inf if up else math.inf))))
            if up:
                assert Fraction(float(edge)) >= exact > inward, (k, edge, exact)
            else:
                assert Fraction(float(edge)) <= exact < inward, (k, edge, exact)
        assert Fraction(float(b.norm_ok)) >= (m + 2 * e) ** 2 * (1 + 3 * u)
        assert Fraction(float(b.norm_bad)) <= (m - 2 * e) ** 2 * (1 - 2 * u) and m > 2 * e
        assert Fraction(float(b.width_e)) >= e
        assert Fraction(float(b.width_eps)) >= (1 + 8 * u) * (eps + 2 * e64)
        assert Fraction(float(b.width_r)) >= (1 + 8 * u) * (1 + 2 * u) * (e + 2 * u * big_b)
        for q in (0.5, 17.25, 3e6):
            root = Fraction(math.sqrt(q * (1 + 3 * 2.0**-24))) * (1 + Fraction(1, 2**50))  # >= the exact root
            assert Fraction(float(b.near_min(q))) >= (1 + 3 * u) * (root + 4 * e) ** 2


def test_unrefined_samples_carry_the_float64_verdicts():
    # Sample by sample: wherever the filter does not refine, its slope and
    # norm verdicts are those of the float64 evaluation, and every extremum
    # of a chunk is attained in a refined sample.  Seeded chunks and the
    # edge draws of the image check, inside and outside the strips; at
    # k = 10^5 many samples have |ix| <= E, and every one is refined.
    rng = np.random.default_rng(30)
    checked = unbounded = 0
    for m in (2, 3, 10, 50):
        for k in (1.01 * m, 17.0, 200.0, 1e4, 1e5):
            if k <= m:
                continue
            params, bounds = MapParams(k), hyperbolicity._filter_bounds(k, m)
            theta_range = (math.atan(1.0 / m), math.atan(m))
            for inside in (False, True):
                y, t = image_draws(params, m, inside, rng, count=20_000)
                for at in range(0, len(y), hyperbolicity._CHUNK):
                    yy, tt = y[at:at + hyperbolicity._CHUNK], t[at:at + hyperbolicity._CHUNK]
                    slope_bad, norm_bad, refine = hyperbolicity._filter(yy, tt, theta_range, bounds)
                    _, slope, norm, want_slope_bad, want_norm_bad = reference_verdicts(yy, tt, params, m)
                    kept = ~refine
                    where = (k, m, inside)
                    assert np.array_equal(slope_bad[kept], want_slope_bad[kept]), where
                    assert np.array_equal(norm_bad[kept], want_norm_bad[kept]), where
                    assert np.nanmin(slope[refine]) == np.nanmin(slope), where
                    assert np.nanmax(slope[refine]) == np.nanmax(slope), where
                    assert np.min(norm[refine]) == np.min(norm), where
                    ax = hyperbolicity._image32(yy, tt, theta_range, bounds)[2]
                    small = ax <= bounds.width_e
                    assert np.all(refine[small]), where
                    unbounded += int(np.count_nonzero(small))
                    checked += int(np.count_nonzero(kept))
    assert checked >= 500_000 and unbounded >= 1000, (checked, unbounded)


def test_float32_rounding_never_rounds_inward():
    rng = np.random.default_rng(9)
    big = float(np.finfo(np.float32).max)
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    xs = np.concatenate([
        rng.standard_normal(20_000) * 10.0 ** rng.integers(-50, 50, 20_000),
        rng.random(2000).astype(np.float32),  # already float32
        [0.0, -0.0, tiny, -tiny, tiny / 3, -tiny / 3, big, -big, 2 * big, -2 * big, 1e300, -1e300,
         math.inf, -math.inf],
    ])
    for x in xs.tolist():
        up, down = _f32(x, True), _f32(x, False)
        assert up.dtype == down.dtype == np.float32
        assert float(down) <= x <= float(up)
        # and no further than the next float32
        with np.errstate(over="ignore"):
            assert float(up) == x or float(np.nextafter(up, np.float32(-math.inf))) < x
            assert float(down) == x or float(np.nextafter(down, np.float32(math.inf))) > x
