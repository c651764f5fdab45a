"""The filter-then-refine cone sweep against the all-float64 kernel it replaced.

``reference_cone_chunk`` is ``hyperbolicity._cone_chunk`` as it was before
the float32 filter: every sample evaluated with the float64 image formula.
The filtered kernel must return the same chunk tuples, ``repr`` for
``repr``, so that every report byte is unchanged.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.coordinates import psi
from hypermap.hyperbolicity import MAX_FAILURE_RECORDS, StripSpec, _image, delta_strip, verify_cones
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


SWEEPS = [
    (MapParams(2.1), 2, 100_000, 3, False),
    (MapParams(25.0), 5, 150_000, 42, False),
    (MapParams(180.0), 10, 70_001, 7, True),
    (MapParams(1e4), 50, 40_000, 11, False),
]


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda s: f"k{s[0].k:g}-m{s[1]}")
def test_reports_equal_the_reference(monkeypatch, sweep):
    filtered = verify_cones(*sweep).to_text()
    monkeypatch.setattr(hyperbolicity, "_cone_chunk", lambda args: (*reference_cone_chunk(args), 0))
    assert filtered == verify_cones(*sweep).to_text()


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
