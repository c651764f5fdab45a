"""The filter-then-refine cone sweep against the all-float64 kernel it replaced.

``reference_part`` evaluates every sample with the float64 image formula,
as the sweep did before the float32 filter; ``hyperbolicity._evaluate`` must
return the same batch tuples, ``repr`` for ``repr``.  ``reference_report``
draws a sweep's samples as the module docstring documents, heights on the
region's grid spans, the band alone and its completion where there is a
band, evaluates every sample drawn in float64, and ``verify_cones`` must
return that report, ``repr`` for ``repr`` and byte for byte.
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

_Part = tuple[int, int, int, float, float, float, list[tuple[float, float]]]
GRID = 2**53


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


def reference_part(y: np.ndarray, t: np.ndarray, params: MapParams, m: int) -> _Part:
    """Counts, extrema and first failure records of the samples at heights y with theta's draws t, all in float64."""
    lo, hi = math.atan(1.0 / m), math.atan(m)
    theta = lo + t * (hi - lo)
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
    y, t, params, m, inside = args
    return hyperbolicity._evaluate(y, t, params, m, inside, budget)


def test_chunks_equal_the_reference():
    n = 0
    for args in batch_args(25, seed=2024):
        got = evaluate(args)
        want = reference_part(*args[:4])
        assert repr(got[:7]) == repr(want), (args[2].k, args[3], len(args[0]), args[4])
        assert 1 <= got[7] <= len(args[0])
        n += 1
    assert n >= 1000


def test_chunks_on_many_threads_equal_the_reference():
    # Each thread sweeps in its own workspace; more threads than cores and
    # a short switch interval interleave them as much as the interpreter can.
    jobs = list(batch_args(1, seed=77))
    want = [reference_part(*args[:4]) for args in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(evaluate, jobs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [repr(g[:7]) for g in got] == [repr(w) for w in want * 2]


def test_chunks_with_no_record_budget_build_no_records():
    for args in batch_args(1, seed=31):
        got = evaluate(args, 0)
        want = reference_part(*args[:4])
        assert got[6] == []
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
                pieces = sorted(s for s in band.spans + band.rest if s[0] <= s[1])
                merged = pieces[:1]
                for lo, hi in pieces[1:]:
                    if lo == merged[-1][1] + 1:
                        merged[-1] = (merged[-1][0], hi)
                    else:
                        merged.append((lo, hi))
                assert merged == outside, (m, k)
    assert checked > 1000


def band_settles(parts: list[_Part], m: int, band) -> tuple[bool, bool, bool]:
    """Whether the parts' min_norm, slope_min and slope_max each lie beyond
    what the certificate allows the samples outside the band."""
    if not parts:
        return False, False, False
    return (min(p[3] for p in parts) < m, min(p[4] for p in parts) < band.slope_lo,
            max(p[5] for p in parts) > band.slope_hi)


def reference_sweep(params: MapParams, m: int, n: int, seed: int, inside: bool) -> tuple[list[_Part], list[_Part]]:
    """The batches of the first draw and, where the band leaves an extremum open, those of its completion.

    One generator made from the seed.  Without a band (inside the strips,
    or where ``_band`` is None), n samples on the region's spans.  With
    one, Binomial(n, p) samples on the band's spans, p the band's share of
    the outside grid points, then, unless they settle all three extrema,
    the other samples on the grid points outside the band.  Each batch of
    _CHUNK draws its heights, then theta's draws.
    """
    strip = delta_strip(m, params)
    chunk = hyperbolicity._CHUNK
    band = None if inside else hyperbolicity._band(params.k, m)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draw(spans, count: int) -> list[_Part]:
        batches = []
        for at in range(0, count, chunk):
            size = min(chunk, count - at)
            y = reference_grid_draws(rng, spans, size)
            batches.append(reference_part(y, rng.random(size), params, m))
        return batches

    region = reference_spans(strip, inside)
    if band is None:
        return draw(region, n), []
    n_band = int(rng.binomial(n, span_size(band.spans) / span_size(region)))
    parts = draw(band.spans, n_band)
    if all(band_settles(parts, m, band)):
        return parts, []
    return parts, draw(band.rest, n - n_band)


def reference_report(params: MapParams, m: int, n: int, seed: int, inside: bool) -> ConeReport:
    """The report of the documented sample stream, every sample drawn evaluated in float64."""
    first, completion = reference_sweep(params, m, n, seed, inside)
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
        failure_records=tuple(rec for p in parts for rec in p[6])[:MAX_FAILURE_RECORDS],
    )


def assert_same_report(got: ConeReport, want: ConeReport) -> None:
    """Equal text and repr; a mismatch names its first line, not a diff of two long texts."""
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


#: The last five sweeps add the benchmark's range (5 <= k <= 200,
#: m in {2, 3, 5, 10}) at one chunk, one chunk and a sample, and 10^6
#: samples; in the last, over 1000 failures spread over several batches of
#: the band, so the record budget passes from batch to batch.
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
]
BAND_SWEEPS = [s for s in SWEEPS if 5.0 <= s[0].k <= 200.0 and not s[4]]


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_reports_equal_the_reference(sweep):
    assert_same_report(verify_cones(*sweep), reference_report(*sweep))


def drawn_samples(monkeypatch) -> list[int]:
    """The number of samples of each batch ``verify_cones`` evaluates from now on."""
    evaluate, sizes = hyperbolicity._evaluate, []

    def counted(r, *args):
        sizes.append(len(r))
        return evaluate(r, *args)

    monkeypatch.setattr(hyperbolicity, "_evaluate", counted)
    return sizes


@pytest.mark.parametrize("sweep", BAND_SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_benchmark_sweeps_need_no_chunk_by_chunk_sweep(monkeypatch, sweep):
    # These sweeps are settled by the band alone: they draw neither every
    # sample nor the completion, so the reference test above compares the
    # band's stream with the reference.
    want = verify_cones(*sweep)
    sizes = drawn_samples(monkeypatch)
    assert_same_report(verify_cones(*sweep), want)
    assert 0 < sum(sizes) < 0.5 * sweep[2]


def test_band_sweeps_on_many_threads_equal_the_reference():
    # Each thread draws its band into its own work arrays; more threads than
    # cores and a short switch interval interleave the sweeps.
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


#: Sweeps whose band misses one extremum of the whole sweep: min_norm,
#: slope_min and slope_max in this order.  In each, only the check on that
#: extremum sends the sweep on to draw its completion.  Found by a seeded
#: search over sweeps at m in {2, 3, 5, 10}, k log-uniform in
#: [max(5, 1.01 m), 200] and n log-uniform in [100, 5 10^4], keeping the
#: fewest samples for each extremum.
FALLBACK_SWEEPS = [
    (MapParams(45.21283178708826), 5, 100, 1404550663, False),
    (MapParams(36.04193650230176), 5, 130, 1434631563, False),
    (MapParams(7.992549865077319), 2, 101, 332037904, False),
]


@pytest.mark.parametrize("which", range(3), ids=["min_norm", "slope_min", "slope_max"])
def test_sweeps_whose_band_misses_an_extremum_equal_the_reference(monkeypatch, which):
    sweep = FALLBACK_SWEEPS[which]
    band_parts, _ = reference_sweep(*sweep)
    band = hyperbolicity._band(sweep[0].k, sweep[1])
    assert band_settles(band_parts, sweep[1], band) == tuple(i != which for i in range(3))
    sizes = drawn_samples(monkeypatch)
    assert_same_report(verify_cones(*sweep), reference_report(*sweep))
    assert sum(sizes) == sweep[2]  # the band and its completion


def test_random_sweeps_equal_the_reference(monkeypatch):
    # Sweeps the band settles, sweeps whose band is completed and sweeps
    # that draw every sample (T_band beyond K, inside the strips), each
    # against the all-float64 reference.
    sizes = drawn_samples(monkeypatch)
    rng = np.random.default_rng(18)
    paths = {"band": 0, "completed": 0, "every sample": 0}
    kinds = {"inside": 0, "no band": 0}  # the sweeps that draw every sample
    for _ in range(150):
        m = int(rng.choice(MS))
        k = math.exp(rng.uniform(math.log(1.01 * m), math.log(1e4 if rng.random() < 0.5 else max(200.0, 2 * m))))
        n = int(math.exp(rng.uniform(0.0, math.log(3e5))))
        sweep = (MapParams(k), m, n, int(rng.integers(2**31)), bool(rng.random() < 0.1))
        sizes.clear()
        assert_same_report(verify_cones(*sweep), reference_report(*sweep))
        if sweep[4] or hyperbolicity._band(k, m) is None:
            paths["every sample"] += 1
            kinds["inside" if sweep[4] else "no band"] += 1
        else:
            paths["completed" if sum(sizes) == n else "band"] += 1
    assert min(paths.values()) >= 30 and min(kinds.values()) >= 10, (paths, kinds)


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_refining_every_sample_changes_nothing(monkeypatch, sweep):
    filtered = verify_cones(*sweep)
    monkeypatch.setattr(hyperbolicity, "_TRIG32_ERR", 1e300)
    sizes = drawn_samples(monkeypatch)
    exact = verify_cones(*sweep)
    assert exact.refined == sum(sizes) > filtered.refined
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
    # edges included: ix and iy within E / 4, d = |ix| - m sin theta within a
    # quarter of its margin, and the norm sqrt(q) within a quarter of 2E.
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


def _check_float32_image(params: MapParams, m: int, inside: bool, rng) -> int:
    k = params.k
    bounds = hyperbolicity._filter_bounds(k, m, hyperbolicity._TRIG32_ERR)
    spans = reference_spans(delta_strip(m, params), inside)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    # Heights at the ends of the region's spans (the strip edges, 0 and
    # 1 - 2^-53), and theta at the cone's edges and the float32 neighbours
    # of both.
    steps = np.arange(64)
    y_edges = np.concatenate([np.concatenate([a + steps, b - steps]) for a, b in spans]) * 2.0**-53
    t_edges = np.concatenate([
        steps * float(np.spacing(np.float32(lo))) / (hi - lo),
        1.0 - (steps + 1) * float(np.spacing(np.float32(hi))) / (hi - lo),
        _draws_near([0.0, 1.0]),
    ])
    count = 55_000
    y = np.concatenate([reference_grid_draws(rng, spans, count), y_edges,
                        reference_grid_draws(rng, spans, len(t_edges))])
    t = np.concatenate([rng.random(count), rng.random(len(y_edges)), t_edges])
    e = bounds.e
    for at in range(0, len(y), hyperbolicity._CHUNK):
        yy, tt = y[at:at + hyperbolicity._CHUNK], t[at:at + hyperbolicity._CHUNK]
        st, ix, _, q, d = hyperbolicity._image32(yy, tt, (lo, hi), bounds)
        iy = (ix + st).astype(np.float64)  # as the filter forms it
        st, ix, q, d = (a.astype(np.float64) for a in (st, ix, q, d))
        theta = lo + tt * (hi - lo)
        want_x, want_y = _image(psi(yy, params), np.cos(theta), np.sin(theta))
        where = (k, m, inside)
        assert np.max(np.abs(ix - want_x)) <= e / 4, where
        assert np.max(np.abs(iy - want_y)) <= e / 4, where
        want_d = np.abs(want_x) - m * np.sin(theta)
        assert np.max(np.abs(d - want_d)) <= float(bounds.slope_ok) / 4, where
        assert np.max(np.abs(np.sqrt(q) - np.hypot(want_x, want_y))) <= 2 * e / 4, where
    return len(y)


@pytest.mark.parametrize("m", [2, 3, 10, 50])
def test_filter_thresholds_lie_outward_of_the_derived_bounds(m):
    # The bounds of the module docstring in exact rational arithmetic: every
    # float32 threshold must lie on the side of them that certifies less.
    # A margin halved or a threshold rounded inwards fails here.
    eps, u = Fraction(hyperbolicity._TRIG32_ERR), Fraction(1, 2**24)
    a, v = 1 + eps, 1 + u
    for k in (1.01 * m, 17.0, 200.0, 1e4):
        b = hyperbolicity._filter_bounds(k, m, hyperbolicity._TRIG32_ERR)
        big_k = Fraction(2 * math.pi) * Fraction(k)
        p = a * big_k * v * v
        d_psi = big_k * eps + a * big_k * (2 * u + u * u)
        e_x = eps + big_k * eps + a * d_psi + u * a * p + u * a * (1 + p * v)
        big_b = a * (1 + p * v) * v
        e64 = Fraction(1e-12) * (2 + big_k)
        e = e_x + eps + u * (big_b + a) + e64
        d = (e + m * eps + m * a * (2 * u + u * u) + u * (big_b + m * a * v * v)
             + e64 * (2 + 2 * m) + m * Fraction(1, 2**51) * (1 + big_k))
        assert b.e >= e
        assert Fraction(float(b.slope_ok)) >= d and Fraction(float(b.slope_bad)) <= -d
        assert Fraction(float(b.norm_ok)) >= (m + 2 * e) ** 2 * (1 + 3 * u)
        assert Fraction(float(b.norm_bad)) <= (m - 2 * e) ** 2 * (1 - 2 * u) and m > 2 * e
        assert Fraction(float(b.width_e)) >= e
        assert Fraction(float(b.width_eps)) >= (1 + 8 * u) * (eps + 2 * e64)
        assert Fraction(float(b.width_r)) >= (1 + 8 * u) * (1 + 2 * u) * (e + 2 * u * big_b)
        for q in (0.5, 17.25, 3e6):
            root = Fraction(math.sqrt(q * (1 + 3 * 2.0**-24))) * (1 + Fraction(1, 2**50))  # >= the exact root
            assert Fraction(float(b.near_min(q))) >= (1 + 3 * u) * (root + 4 * e) ** 2
        for r_min, r_max, ax_min in ((-0.4, 0.45, 0.9), (-1 / m, 1 / m, 3.0), (0.01, 0.3, float(3 * e))):
            r_big = max(-Fraction(r_min), Fraction(r_max))
            w = (1 + 8 * u) * (eps + 2 * e64 + r_big * (1 + 2 * u) * (e + 2 * u * big_b)) / (ax_min - e)
            lo, hi = b.slope_candidates(r_min, r_max, ax_min)
            assert Fraction(float(lo)) >= r_min + 2 * w and Fraction(float(hi)) <= r_max - 2 * w


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
