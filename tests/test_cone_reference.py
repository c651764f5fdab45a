"""The filter-then-refine cone sweep against the all-float64 kernel it replaced.

``reference_cone_chunk`` is ``hyperbolicity._cone_chunk`` as it was before
the float32 filter: every sample evaluated with the float64 image formula.
The filtered kernel must return the same chunk tuples, ``repr`` for
``repr``, and ``verify_cones`` the report ``reference_report`` builds from
them, whether it evaluates every chunk or only the band next to the
strips, so that every report byte is unchanged.
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


def reference_cone_chunk(
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


def reference_report(params: MapParams, m: int, n: int, seed: int, inside: bool) -> ConeReport:
    """The report of an all-float64 sweep: ``reference_cone_chunk`` over every chunk."""
    counts = [hyperbolicity._CHUNK] * (n // hyperbolicity._CHUNK)
    if n % hyperbolicity._CHUNK:
        counts.append(n % hyperbolicity._CHUNK)
    strip = delta_strip(m, params)
    parts = [reference_cone_chunk((ss, count, params, m, strip, inside))
             for ss, count in zip(np.random.SeedSequence(seed).spawn(len(counts)), counts)]
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
    assert got.to_text() == want.to_text()
    assert repr(got) == repr(want)


#: The last four sweeps add the benchmark's range (5 <= k <= 200,
#: m in {2, 3, 5, 10}) at one chunk, one chunk and a sample, and 10^6
#: samples.
SWEEPS = [
    (MapParams(2.1), 2, 100_000, 3, False),
    (MapParams(25.0), 5, 150_000, 42, False),
    (MapParams(180.0), 10, 70_001, 7, True),
    (MapParams(1e4), 50, 40_000, 11, False),
    (MapParams(17.5), 3, 32_768, 8, False),
    (MapParams(60.0), 10, 32_769, 21, False),
    (MapParams(143.0), 2, 1_000_000, 5, False),
    (MapParams(88.0), 5, 1_000_000, 13, False),
]
BAND_SWEEPS = [s for s in SWEEPS if 5.0 <= s[0].k <= 200.0 and not s[4]]


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_reports_equal_the_reference(sweep):
    assert_same_report(verify_cones(*sweep), reference_report(*sweep))


@pytest.mark.parametrize("sweep", BAND_SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_benchmark_sweeps_need_no_chunk_by_chunk_sweep(monkeypatch, sweep):
    # These sweeps are settled by the band alone, so the reference test
    # above compares the band path, not the fallback, with the reference.
    def no_fallback(args, budget):
        raise AssertionError("the sweep fell back to the chunk-by-chunk path")

    want = verify_cones(*sweep)
    monkeypatch.setattr(hyperbolicity, "_cone_chunk", no_fallback)
    assert_same_report(verify_cones(*sweep), want)


def test_band_sweeps_on_many_threads_equal_the_reference():
    # Each thread gathers its band in its own buffer across chunks; more
    # threads than cores and a short switch interval interleave the sweeps.
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
#: extremum sends the sweep back to the chunk-by-chunk path.  They expect
#: fewer than _BAND_MIN_SAMPLES samples in the band, so the test lets them
#: try the band first.
FALLBACK_SWEEPS = [
    (MapParams(152.98259095834024), 5, 3145, 880091738, False),
    (MapParams(162.383228743755), 10, 64, 1542798978, False),
    (MapParams(127.29869621691708), 2, 2113, 2081748800, False),
]


@pytest.mark.parametrize("sweep", FALLBACK_SWEEPS, ids=["min_norm", "slope_min", "slope_max"])
def test_sweeps_whose_band_misses_an_extremum_equal_the_reference(monkeypatch, sweep):
    monkeypatch.setattr(hyperbolicity, "_BAND_MIN_SAMPLES", 0)
    assert_same_report(verify_cones(*sweep), reference_report(*sweep))


def test_random_sweeps_equal_the_reference(monkeypatch):
    # Sweeps the band settles and sweeps that run chunk by chunk (few
    # samples, T_band beyond K, inside the strips, a band that misses an
    # extremum), each against the all-float64 reference.
    chunk_by_chunk = hyperbolicity._cone_chunk
    fell_back = []

    def counted(args, budget):
        fell_back.append(args)
        return chunk_by_chunk(args, budget)

    monkeypatch.setattr(hyperbolicity, "_cone_chunk", counted)
    rng = np.random.default_rng(18)
    paths = {False: 0, True: 0}
    for _ in range(150):
        m = int(rng.choice(MS))
        k = math.exp(rng.uniform(math.log(1.01 * m), math.log(1e4 if rng.random() < 0.5 else max(200.0, 2 * m))))
        n = int(math.exp(rng.uniform(0.0, math.log(3e5))))
        sweep = (MapParams(k), m, n, int(rng.integers(2**31)), bool(rng.random() < 0.1))
        fell_back.clear()
        assert_same_report(verify_cones(*sweep), reference_report(*sweep))
        paths[bool(fell_back)] += 1
    assert paths[False] >= 30 and paths[True] >= 30, paths


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_refining_every_sample_changes_nothing(monkeypatch, sweep):
    filtered = verify_cones(*sweep)
    monkeypatch.setattr(hyperbolicity, "_TRIG32_ERR", 1e300)
    exact = verify_cones(*sweep)
    assert exact.refined == sweep[2] > filtered.refined
    assert exact.to_text() == filtered.to_text()


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
