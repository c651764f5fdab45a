"""The filter-then-refine cone sweep against the all-float64 kernel it replaced.

``reference_cone_chunk`` is ``hyperbolicity._cone_chunk`` as it was before
the float32 filter: every sample evaluated with the float64 image formula.
The filtered kernel must return the same chunk tuples, ``repr`` for
``repr``.  ``reference_report`` draws a sweep's samples as the module
docstring documents, chunk by chunk or the band alone and its completion,
evaluates every sample drawn in float64, and ``verify_cones`` must return
that report, ``repr`` for ``repr`` and byte for byte.
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


def reference_heights_of_draws(r: np.ndarray, strip: StripSpec, inside: bool) -> np.ndarray:
    """The heights y of draws r in [0, 1), uniform over the sampled region."""
    d_m, d_nm = strip.delta_m, strip.delta_neg_m
    if inside:
        # Uniform over the two closed strips.
        width = d_nm - d_m
        u = r * (2.0 * width)
        return np.where(u < width, d_m + u, 1.0 - d_nm + (u - width))
    # Uniform over the open complement [0,dm) u (dnm, 1-dnm) u (1-dm, 1).
    l1 = d_m
    l2 = 1.0 - 2.0 * d_nm
    u = r * (2.0 * l1 + l2)
    return np.where(
        u < l1,
        u,
        np.where(u < l1 + l2, d_nm + (u - l1), (1.0 - d_m) + (u - l1 - l2)),
    )


def reference_part(r: np.ndarray, t: np.ndarray, params: MapParams, m: int, strip: StripSpec, inside: bool) -> _Part:
    """Counts, extrema and first failure records of the samples with draws r and t, all in float64."""
    y = reference_heights_of_draws(r, strip, inside)
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


def reference_cone_chunk(args: tuple[np.random.SeedSequence, int, MapParams, int, StripSpec, bool]) -> _Part:
    seed_seq, count, params, m, strip, inside = args
    rng = np.random.default_rng(seed_seq)
    r = rng.random(count)
    return reference_part(r, rng.random(count), params, m, strip, inside)


MS = (2, 3, 5, 10, 50)
COUNTS = (1, 7, 1000, 32768)


def chunk_args(n_per_case: int, seed: int):
    """Seeded chunks: k log-uniform in [1.01 m, 1e4], both regions, every count."""
    rng = np.random.default_rng(seed)
    for m in MS:
        for inside in (False, True):
            for count in COUNTS:
                for _ in range(n_per_case):
                    k = math.exp(rng.uniform(math.log(1.01 * m), math.log(1e4)))
                    params = MapParams(k)
                    ss = np.random.SeedSequence(int(rng.integers(2**63)))
                    yield ss, count, params, m, delta_strip(m, params), inside


def test_chunks_equal_the_reference():
    n = 0
    for args in chunk_args(25, seed=2024):
        got = hyperbolicity._cone_chunk(args)
        want = reference_cone_chunk(args)
        assert repr(got[:7]) == repr(want), (args[2].k, args[3], args[1], args[5])
        assert 1 <= got[7] <= args[1]
        n += 1
    assert n >= 1000


def test_chunks_on_many_threads_equal_the_reference():
    # Each thread sweeps in its own workspace; more threads than cores and
    # a short switch interval interleave them as much as the interpreter can.
    jobs = list(chunk_args(1, seed=77))
    want = [reference_cone_chunk(args) for args in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(hyperbolicity._cone_chunk, jobs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [repr(g[:7]) for g in got] == [repr(w) for w in want * 2]


def reference_grid_draws(rng: np.random.Generator, spans, count: int) -> np.ndarray:
    """Draws r = j 2^-53, j uniform on the closed integer spans [lo, hi] (an empty one has hi = lo - 1)."""
    sizes = np.array([hi + 1 - lo for lo, hi in spans])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    i = rng.integers(int(sizes.sum()), size=count)
    span = np.searchsorted(starts, i, side="right") - 1  # past any empty span
    return (np.array([lo for lo, _ in spans])[span] + (i - starts[span])) * 2.0**-53


def band_settles(parts: list[_Part], m: int, band) -> tuple[bool, bool, bool]:
    """Whether the parts' min_norm, slope_min and slope_max each lie beyond
    what the certificate allows the samples outside the band."""
    if not parts:
        return False, False, False
    return (min(p[3] for p in parts) < m, min(p[4] for p in parts) < band.slope_lo,
            max(p[5] for p in parts) > band.slope_hi)


def reference_band_sweep(params: MapParams, m: int, n: int, seed: int) -> tuple[list[_Part], list[_Part]]:
    """The band's batches and, unless they settle all three extrema, the completion's.

    Binomial(n, p) band samples, p the band's share of the 2^53 grid
    points, from one generator made from the seed, in batches of _CHUNK
    (an index, then theta's draws); then the other samples, uniform on the
    grid points outside the band, from the same generator.
    """
    strip = delta_strip(m, params)
    chunk, grid = hyperbolicity._CHUNK, 2**53
    band = hyperbolicity._band(params.k, m)
    a1, b1, a2, b2 = band.edges
    lo1, hi1, lo2, hi2 = math.ceil(a1 * grid), math.floor(b1 * grid), math.ceil(a2 * grid), math.floor(b2 * grid)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_band = int(rng.binomial(n, (hi1 - lo1 + 1 + hi2 - lo2 + 1) / grid))

    def draw(spans, count: int) -> list[_Part]:
        batches = []
        for at in range(0, count, chunk):
            size = min(chunk, count - at)
            r = reference_grid_draws(rng, spans, size)
            batches.append(reference_part(r, rng.random(size), params, m, strip, False))
        return batches

    parts = draw([(lo1, hi1), (lo2, hi2)], n_band)
    if all(band_settles(parts, m, band)):
        return parts, []
    return parts, draw([(0, lo1 - 1), (hi1 + 1, lo2 - 1), (hi2 + 1, grid - 1)], n - n_band)


def reference_report(params: MapParams, m: int, n: int, seed: int, inside: bool) -> ConeReport:
    """The report of the documented sample stream, every sample drawn evaluated in float64.

    Without a band, ``reference_cone_chunk`` over chunks seeded by
    ``SeedSequence(seed).spawn``; with one, ``reference_band_sweep``.
    """
    if inside or hyperbolicity._band(params.k, m) is None:
        chunk = hyperbolicity._CHUNK
        counts = [chunk] * (n // chunk) + ([n % chunk] if n % chunk else [])
        strip = delta_strip(m, params)
        parts = [reference_cone_chunk((ss, count, params, m, strip, inside))
                 for ss, count in zip(np.random.SeedSequence(seed).spawn(len(counts)), counts)]
    else:
        band_parts, completion = reference_band_sweep(params, m, n, seed)
        parts = band_parts + completion
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
    # These sweeps are settled by the band alone: they neither go chunk by
    # chunk nor draw the completion, so the reference test above compares
    # the band's stream with the reference.
    def no_chunks(args, budget):
        raise AssertionError("the sweep went chunk by chunk")

    want = verify_cones(*sweep)
    monkeypatch.setattr(hyperbolicity, "_cone_chunk", no_chunks)
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
    band_parts, completion = reference_band_sweep(*sweep[:4])
    band = hyperbolicity._band(sweep[0].k, sweep[1])
    assert band_settles(band_parts, sweep[1], band) == tuple(i != which for i in range(3))
    sizes = drawn_samples(monkeypatch)
    assert_same_report(verify_cones(*sweep), reference_report(*sweep))
    assert sum(sizes) == sweep[2]  # the band and its completion


def test_random_sweeps_equal_the_reference(monkeypatch):
    # Sweeps the band settles, sweeps whose band is completed and sweeps
    # that run chunk by chunk (T_band beyond K, inside the strips), each
    # against the all-float64 reference.
    sizes = drawn_samples(monkeypatch)
    rng = np.random.default_rng(18)
    paths = {"band": 0, "completed": 0, "chunks": 0}
    for _ in range(150):
        m = int(rng.choice(MS))
        k = math.exp(rng.uniform(math.log(1.01 * m), math.log(1e4 if rng.random() < 0.5 else max(200.0, 2 * m))))
        n = int(math.exp(rng.uniform(0.0, math.log(3e5))))
        sweep = (MapParams(k), m, n, int(rng.integers(2**31)), bool(rng.random() < 0.1))
        sizes.clear()
        assert_same_report(verify_cones(*sweep), reference_report(*sweep))
        if sweep[4] or hyperbolicity._band(k, m) is None:
            paths["chunks"] += 1
        else:
            paths["completed" if sum(sizes) == n else "band"] += 1
    assert min(paths.values()) >= 30, paths


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
    """The float64 draws in [0, 1) within ``steps`` ulps of each point."""
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
    length, pieces = hyperbolicity._region(delta_strip(m, params), inside)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    # Heights at the strip edges, and theta at the cone's edges and the
    # float32 neighbours of both.
    bounds_r = [hyperbolicity._least_draw(s1 + s2, length) for _, s1, s2 in pieces[1:]]
    r_edges = _draws_near([0.0, 1.0] + bounds_r)
    steps = np.arange(64)
    t_edges = np.concatenate([
        steps * float(np.spacing(np.float32(lo))) / (hi - lo),
        1.0 - (steps + 1) * float(np.spacing(np.float32(hi))) / (hi - lo),
        _draws_near([0.0, 1.0]),
    ])
    count = 55_000
    r = np.concatenate([rng.random(count), r_edges, rng.random(len(t_edges))])
    t = np.concatenate([rng.random(count), rng.random(len(r_edges)), t_edges])
    e = bounds.e
    for at in range(0, len(r), hyperbolicity._CHUNK):
        rr, tt = r[at:at + hyperbolicity._CHUNK], t[at:at + hyperbolicity._CHUNK]
        st, ix, _, q, d = hyperbolicity._image32(rr, tt, (length, pieces), (lo, hi), bounds)
        iy = (ix + st).astype(np.float64)  # as the filter forms it
        st, ix, q, d = (a.astype(np.float64) for a in (st, ix, q, d))
        theta = lo + tt * (hi - lo)
        want_x, want_y = _image(psi(hyperbolicity._heights(rr * length, pieces), params),
                                np.cos(theta), np.sin(theta))
        where = (k, m, inside)
        assert np.max(np.abs(ix - want_x)) <= e / 4, where
        assert np.max(np.abs(iy - want_y)) <= e / 4, where
        want_d = np.abs(want_x) - m * np.sin(theta)
        assert np.max(np.abs(d - want_d)) <= float(bounds.slope_ok) / 4, where
        assert np.max(np.abs(np.sqrt(q) - np.hypot(want_x, want_y))) <= 2 * e / 4, where
    return len(r)


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


def test_least_draw_is_where_heights_change_piece():
    rng = np.random.default_rng(10)
    for bound, length in zip(rng.random(2000), rng.uniform(1e-6, 1.0, 2000)):
        bound *= length
        r = hyperbolicity._least_draw(bound, length)
        assert r * length >= bound > math.nextafter(r, -math.inf) * length


def reference_heights(u: np.ndarray, pieces) -> np.ndarray:
    """``hyperbolicity._heights`` as a masked assignment per piece, as it was."""
    y = np.empty_like(u)
    for base, s1, s2 in pieces:
        sel = u >= s1 + s2
        y[sel] = base + ((u[sel] - s1) - s2)
    return y


@pytest.mark.parametrize("inside", [False, True])
def test_heights_equal_the_masked_loop(inside):
    rng = np.random.default_rng(12)
    for m, k in [(m, k) for m in (2, 5, 10) for k in (1.01 * m, 7.0, 101.5, 1e4)]:
        if k <= m:
            continue
        length, pieces = hyperbolicity._region(delta_strip(m, MapParams(k)), inside)
        bounds_r = [hyperbolicity._least_draw(s1 + s2, length) for _, s1, s2 in pieces[1:]]
        r = np.concatenate([rng.random(20_000), _draws_near([0.0, 1.0] + bounds_r)])
        u = r * length
        got, want = hyperbolicity._heights(u, pieces), reference_heights(u, pieces)
        assert got.tobytes() == want.tobytes(), (m, k, inside)


def test_chunks_with_no_record_budget_build_no_records():
    for args in chunk_args(1, seed=31):
        got = hyperbolicity._cone_chunk(args, 0)
        want = reference_cone_chunk(args)
        assert got[6] == []
        assert repr(got[:6]) == repr(want[:6])
