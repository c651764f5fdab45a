"""The certificates of the cone sweep, checked without its code.

Where |psi_c| >= T(m) = m + 1 + m sqrt((1 + m^2) / 2), every unit vector
with slope in (1/m, m) is mapped to a vector of norm at least m whose slope
lies in [1 - 1/(T - m), 1 + 1/T].  Inside the band each cell certifies the
same above its cut in theta, with the slope bounds of the closed boxes.
Interval boxes over (psi, cot theta) prove both: the far region at T(m) and
at the sweep's slightly larger threshold, and every cell's cut and closed
buckets.  Bisection finds the least threshold for the norm, and the samples
the sweep leaves closed are checked in float64 against its bounds.
"""

import math

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.hyperbolicity import _image, delta_strip
from hypermap.coordinates import psi_inverse
from hypermap.stdmap import MapParams, psi
from test_cone_reference import band_rows, reference_box_draws, reference_spans

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv

MS = (2, 3, 5, 10, 50)
K_PROOF = 1e4  # 2 pi k = 62832 lies above every T(m) here


def closed_form_threshold(m: int):
    with mpmath.workdps(40):
        return m + 1 + m * mpmath.sqrt(mpmath.mpf(1 + m * m) / 2)


def _box_holds(p: tuple, u: tuple, m: int, lower, upper) -> bool:
    # The unit vector s (u, 1), u = cot theta, maps to s (v, v + 1) with
    # v = u + psi: its norm^2 is (v^2 + (v + 1)^2) / (1 + u^2) and its slope
    # is 1 + 1/v.
    p, u = iv.mpf(p), iv.mpf(u)
    v = u + p
    if 0 in v:
        return False
    norm2, r = (v * v + (v + 1) * (v + 1)) / (1 + u * u), 1 / v
    return norm2.a >= m * m and r.a >= lower and r.b <= upper


def prove(boxes: list, m: int, lower, upper, max_depth: int = 60) -> int:
    """Bisects each box (psi range, cot theta range) until each part shows
    norm^2 >= m^2 and lower <= slope - 1 <= upper.  Returns the number of
    boxes that settled."""
    stack = [(p, u, 0) for p, u in boxes]
    settled = 0
    while stack:
        p, u, depth = stack.pop()
        if _box_holds(p, u, m, lower, upper):
            settled += 1
            continue
        assert depth < max_depth, (m, p, u)
        pm, um = (p[0] + p[1]) / 2, (u[0] + u[1]) / 2
        for pp in ((p[0], pm), (pm, p[1])):
            for uu in ((u[0], um), (um, u[1])):
                stack.append((pp, uu, depth + 1))
    return settled


def far_boxes(m: int, t_from, big_k, widen=0) -> list:
    """psi in +-[t_from, big_k] by octaves of |psi|, where the margins grow
    with it, and cot theta in the closed cone [1/m, m] widened by the share
    ``widen``."""
    u0 = (mpmath.mpf(1) / m * (1 - widen), m * (1 + widen))
    boxes = []
    a = t_from
    while a < big_k:
        b = min(2 * a, big_k)
        boxes += [((a, b), u0), ((-b, -a), u0)]
        a = b
    return boxes


@pytest.mark.parametrize("m", MS)
def test_interval_boxes_prove_the_certificate(m):
    dps = iv.dps
    iv.dps = 30
    try:
        _prove_at(m, hyperbolicity._band(K_PROOF, m))
        for k in cell_ks(m):
            _prove_cells(m, k, hyperbolicity._band(k, m))
    finally:
        iv.dps = dps


def cell_ks(m: int) -> tuple[float, ...]:
    """K_PROOF and the benchmark's least k, or a k whose band reaches half of K."""
    least = max(5.0, 1.01 * m)
    if hyperbolicity._band(least, m) is None:
        least = 2.0 * float(closed_form_threshold(m)) / (2 * math.pi)
    return (K_PROOF, least)


def _prove_at(m: int, band) -> None:
    with mpmath.workdps(30):
        t = closed_form_threshold(m)
        big_k = 2 * mpmath.pi * K_PROOF
        # The certificate as stated: the closed cone's corner u = m attains
        # slope - 1 = -1/(T - m) at psi = -T.
        tol = mpmath.mpf(10) ** -20
        assert prove(far_boxes(m, t, big_k), m, -1 / (t - m) - tol, 1 / t) >= 2
        # The sweep's threshold and bounds, on the cone widened for the
        # float64 rounding of theta's range.
        assert t <= band.psi_bound
        lower = max(-1 / (t - m), mpmath.mpf(band.slope_lo) - 1)
        upper = min(1 / t, mpmath.mpf(band.slope_hi) - 1)
        boxes = far_boxes(m, mpmath.mpf(band.psi_bound), big_k, widen=mpmath.mpf(1e-12))
        assert prove(boxes, m, lower, upper) >= 2


def _prove_cells(m: int, k: float, band) -> None:
    """Every cell of the band: norm >= m above its cut, on |psi| from its
    psi_lo less the margin 4 e64 sqrt(1 + m^2), and slopes within the
    band's bounds, less sigma = 4 e64 + 1e-14, on its closed buckets.
    psi_lo must lie at or below the exact |psi| of the cell's grid points,
    which run up to the exact value at its outer end, here widened by e64;
    theta runs over the buckets, widened by 1e-12 for its float64
    rounding."""
    cells = band.cells
    with mpmath.workdps(30):
        big_k = 2 * mpmath.pi * mpmath.mpf(k)
        e64 = mpmath.mpf(1e-12) * (2 + big_k)
        sigma = 4 * e64 + mpmath.mpf(1e-14)
        lo, hi = mpmath.atan(mpmath.mpf(1) / m), mpmath.atan(m)

        def cot(bucket, widen):
            return 1 / mpmath.tan(lo + (hi - lo) * mpmath.mpf(int(bucket)) / 64 + widen)

        def abs_psi(j) -> mpmath.mpf:
            return abs(big_k * mpmath.cos(2 * mpmath.pi * mpmath.mpf(int(j)) / 2**53))

        lower, upper = mpmath.mpf(band.slope_lo) - 1 + sigma, mpmath.mpf(band.slope_hi) - 1 - sigma
        inf = mpmath.inf
        proved = 0
        for h in range(4):
            inner, step, side = int(cells.inner[h]), int(cells.step[h]), float(cells.side[h])
            for i in range(cells.edges.shape[1] - 1):
                d_lo, d_hi = int(cells.edges[h, i]), int(cells.edges[h, i + 1])
                if d_lo == d_hi:
                    continue
                a, b = abs_psi(inner + step * d_lo), abs_psi(inner + step * (d_hi - 1))
                assert a <= b and cells.psi_lo[h, i] <= a, (m, k, h, i)  # |psi| rises outwards
                a = mpmath.mpf(float(cells.psi_lo[h, i]))
                b += e64
                cut, top = int(cells.cut[h, i]), int(cells.top[h, i])
                if cut == 64:
                    continue
                tol = mpmath.mpf(1e-12)
                # Norm above the cut, on the whole cone above it.
                a_norm = a - 4 * e64 * mpmath.sqrt(1 + m * m)
                p = (a_norm, b) if side > 0 else (-b, -a_norm)
                proved += prove([(p, (cot(64, tol), cot(cut, -tol)))], m, -inf, inf)
                # Slopes on the closed buckets.
                if cut < top:
                    p = (a, b) if side > 0 else (-b, -a)
                    proved += prove([(p, (cot(top, tol), cot(cut, -tol)))], 0, lower, upper)
        assert proved >= 8


def least_threshold(m: int) -> float:
    """Least tau with |Df (c, s)| >= m at psi = +-tau for every theta of the cone.

    Beyond the strip the norm grows with |psi| at every slope (the minimum
    of its quadratic in psi lies at -(1/t + 1/2) inside the strip), so the
    condition at +-tau holds for every |psi| >= tau.
    """
    theta = np.linspace(math.atan(1.0 / m), math.atan(m), 20001)
    c, s = np.cos(theta), np.sin(theta)

    def holds(tau: float) -> bool:
        return all(np.min(np.hypot(c + p * s, c + p * s + s)) >= m for p in (tau, -tau))

    lo, hi = m + 1.0, 4.0 * float(closed_form_threshold(m))
    assert not holds(lo) and holds(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("m", MS)
def test_threshold_lies_within_a_quarter_of_the_least(m):
    # A loosened T(m) keeps the sweep right but widens its band; this
    # catches it.
    least = least_threshold(m)
    for k in (5.0 * m, 200.0, K_PROOF):
        band = hyperbolicity._band(k, m)
        if band is None:
            continue
        assert least <= band.psi_bound <= 1.25 * least, (k, band.psi_bound, least)


@pytest.mark.parametrize("m", [2, 5, 10, 50])
def test_draws_outside_the_band_meet_the_certificate_in_float64(m):
    # The samples the sweep leaves closed: uniform on the closed rows, and
    # at the ends of each row with t at its bucket's edges.
    rng = np.random.default_rng(m)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    steps = np.arange(8)
    checked = 0
    for k in (1.01 * m, 17.0, 200.0, 3e3, 1e6):
        band = hyperbolicity._band(k, m)
        if band is None:
            continue
        params = MapParams(k)
        _, closed_rows = band_rows(delta_strip(m, params), band.cells.reach)
        y, t = reference_box_draws(rng, closed_rows, 100_000)
        ends = [(np.concatenate([a + steps, b - steps]),
                 np.concatenate([c * 2**47 + steps, (c + 1) * 2**47 - 1 - steps])) for c, a, b in closed_rows]
        j_ends = np.concatenate([np.repeat(j, len(i)) for j, i in ends])
        i_ends = np.concatenate([np.tile(i, len(j)) for j, i in ends])
        y, t = np.concatenate([y, j_ends * 2.0**-53]), np.concatenate([t, i_ends * 2.0**-53])
        # Every height beyond the cells lies where |psi_c| exceeds T_band.
        j = np.round(y * 2**53).astype(np.int64)
        cells = band.cells
        far = np.ones(len(j), dtype=bool)
        for h in range(4):
            d = (j - cells.inner[h]) * cells.step[h]
            far &= ~((0 <= d) & (d < cells.edges[h, -1]))
        p = psi(y, params)
        assert np.all(np.abs(p[far]) > band.psi_bound), k
        # The float64 image, as the sweep evaluates it.
        theta = lo + t * (hi - lo)
        ix, iy = _image(p, np.cos(theta), np.sin(theta))
        slope = iy / ix
        assert np.all(np.hypot(ix, iy) >= m), k
        assert np.all((band.slope_lo <= slope) & (slope <= band.slope_hi)), k
        assert 1.0 - 1.0 / m < band.slope_lo and band.slope_hi < 1.0 + 1.0 / m
        checked += len(y)
    assert checked > 200_000


def test_no_band_where_it_would_hold_every_sample():
    for m in MS:
        k = float(closed_form_threshold(m)) / (2 * math.pi)
        if 0.99 * k > m:
            assert hyperbolicity._band(0.99 * k, m) is None
        assert hyperbolicity._band(max(1.01 * k, 1.01 * m), m) is not None
    # Nor where the float64 slack e64 = 1e-12 (2 + K) reaches 1e-3.
    assert hyperbolicity._band(1.5e8, 2) is not None
    assert hyperbolicity._band(2e8, 2) is None


@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_the_slope_max_box_settles_the_benchmarks_sweeps(m):
    # For the benchmark's (k, m): the open rows hold, on both + half-sides,
    # every sample with psi_c in (2m, 2m + r] and cot theta in [1/m, 1/m + r],
    # where 2m + 1/m + 2r is the least psi_c + cot theta whose slope may lie
    # at or below slope_hi.  Each of those samples settles slope_max, and a
    # sweep of 10^6 samples draws none of them with probability below 1e-9.
    lo, hi = math.atan(1.0 / m), math.atan(m)
    checked = 0
    for k in np.geomspace(max(5.0, 1.01 * m), 200.0, 12).tolist():
        band = hyperbolicity._band(k, m)
        if band is None:
            continue
        params = MapParams(k)
        e64 = 1e-12 * (2.0 + 2.0 * math.pi * k)
        # slope - 1 = 1/(psi + cot theta) > slope_hi - 1 + sigma, sigma the float64 error.
        r = (1.0 / (band.slope_hi - 1.0 + 4.0 * e64 + 1e-14) - 2.0 * m - 1.0 / m) / 2.0
        assert r > 0.0, k
        y_r = psi_inverse(2.0 * m + r, params)
        strip = delta_strip(m, params)
        (s1, _), (_, s4) = reference_spans(strip, True)
        reach_r = [s1 - math.ceil(y_r * 2**53), math.floor((1.0 - y_r) * 2**53) - s4]  # grid points below 2m + r
        u_r = (math.atan(1.0 / (1.0 / m + r)) - lo) / (hi - lo)
        for h, need in zip((0, 3), reach_r):
            assert np.all(band.cells.reach[h][math.floor(64 * u_r):] >= need), k
        share = (2 * min(reach_r) / 2**53) / (band.size / 64 / 2**53) * (1.0 - u_r)
        assert 1e6 * share > -math.log(1e-9), (k, share)
        checked += 1
    assert checked >= 10
