"""The certificates of the cone sweep, checked without its code.

Where |psi_c| >= T(m) = m + 1 + m sqrt((1 + m^2) / 2), every unit vector
with slope in (1/m, m) is mapped to a vector of norm at least m whose slope
lies in [1 - 1/(T - m), 1 + 1/T].  Inside the band each half-side certifies
the same beyond its reach at each bucket of theta, with the slope bounds of
the closed rows.  Interval boxes over (psi, cot theta) prove both: the far
region at T(m) and at the sweep's slightly larger threshold, and every
bucket's closed row.  Bisection finds the least threshold for the norm, the
reach is checked against Q's roots in mpmath, and the samples the sweep
leaves closed are checked in float64 against its bounds.
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
        for k in row_ks(m):
            _prove_rows(m, k, hyperbolicity._band(k, m))
    finally:
        iv.dps = dps


def row_ks(m: int) -> tuple[float, ...]:
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


def half_sides(m: int, k: float) -> list[tuple[int, int, int]]:
    """Each half-side of the band: its grid point next to the strip, the
    step of j away from the strip and the sign of psi_c."""
    (s1, s2), (s3, s4) = reference_spans(delta_strip(m, MapParams(k)), True)
    return [(s1 - 1, -1, 1), (s2 + 1, 1, -1), (s3 - 1, -1, -1), (s4 + 1, 1, 1)]


def exact_abs_psi(j: int, big_k) -> mpmath.mpf:
    return abs(big_k * mpmath.cos(2 * mpmath.pi * mpmath.mpf(int(j)) / 2**53))


def _prove_rows(m: int, k: float, band) -> None:
    """Every bucket b of every half-side: norm >= m at every slope from
    theta_b up, on |psi| from the exact |psi_c| of the first closed grid
    point less the margin 4 e64 sqrt(1 + m^2) out to T_band, and slopes
    within the band's bounds, less sigma = 4 e64 + 1e-14, on the bucket.
    |psi_c| rises away from the strip, so every closed grid point of the
    row below T_band lies in that range; beyond it the far region's
    certificate holds.  theta runs over the buckets, widened by 1e-12 for
    its float64 rounding."""
    with mpmath.workdps(30):
        big_k = 2 * mpmath.pi * mpmath.mpf(k)
        e64 = mpmath.mpf(1e-12) * (2 + big_k)
        sigma = 4 * e64 + mpmath.mpf(1e-14)
        margin = 4 * e64 * mpmath.sqrt(1 + m * m)
        lo, hi = mpmath.atan(mpmath.mpf(1) / m), mpmath.atan(m)
        tol = mpmath.mpf(1e-12)

        def cot(bucket: int, widen):
            return 1 / mpmath.tan(lo + (hi - lo) * mpmath.mpf(bucket) / 64 + widen)

        edge = mpmath.mpf(band.psi_bound)
        lower, upper = mpmath.mpf(band.slope_lo) - 1 + sigma, mpmath.mpf(band.slope_hi) - 1 - sigma
        inf = mpmath.inf
        proved = 0
        for h, (inner, step, side) in enumerate(half_sides(m, k)):
            for b in range(64):
                a = exact_abs_psi(inner + step * int(band.reach[h, b]), big_k)
                assert a > 2 * m, (m, k, h, b)  # outside the strip
                if a >= edge:
                    continue
                # Norm on the whole cone from the bucket's lower edge up.
                p = (a - margin, edge) if side > 0 else (-edge, -(a - margin))
                proved += prove([(p, (cot(64, tol), cot(b, -tol)))], m, -inf, inf)
                # Slopes on the bucket.
                p = (a, edge) if side > 0 else (-edge, -a)
                proved += prove([(p, (cot(b + 1, tol), cot(b, -tol)))], 0, lower, upper)
        assert proved >= 256


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


def q_roots(m: int, t) -> tuple:
    """Q's psi-roots at slope t in mpmath, Q(psi, t) the norm's failure
    quadratic 2 t^2 psi^2 + (2 t^2 + 4 t) psi + (1 - m^2) t^2 + 2 t + 2 - m^2."""
    a, b, c = 2 * t * t, 2 * t * t + 4 * t, (1 - m * m) * t * t + 2 * t + 2 - m * m
    d = mpmath.sqrt(b * b - 4 * a * c)
    return (-b - d) / (2 * a), (-b + d) / (2 * a)


@pytest.mark.parametrize("m", MS)
def test_reach_lies_within_a_few_grid_points_of_the_layer(m):
    # A loosened reach keeps the sweep right but draws more samples; this
    # catches it.  At bucket b a half-side is open on the grid points below
    # Q's outer root at theta_b less 1e-9 of theta's range, plus the margins
    # 4 e64 sqrt(1 + m^2) + 2 e64, and on the + sides from the bucket b_x on
    # also below 2m + h, the slope_max box of the module docstring.
    checked = 0
    for k in row_ks(m) + (5.0 * m, 200.0):
        band = hyperbolicity._band(k, m)
        if band is None:
            continue
        lo_f, hi_f = math.atan(1.0 / m), math.atan(m)
        big_k_f = 2.0 * math.pi * k
        a = 2.5e-5 * math.pi * big_k_f * (hi_f - lo_f)
        r = math.inf
        if a < 1.0:
            r = (a / m + math.sqrt(a * a / (m * m) + (1.0 - a) * a * (1.0 + 1.0 / (m * m)))) / (1.0 - a)
        h_box = min(2.5 * r, band.psi_bound - 2.0 * m, m - 1.0 / m)
        b_x = max(0, math.floor(64 * (math.atan(1.0 / (1.0 / m + h_box)) - lo_f) / (hi_f - lo_f)))
        with mpmath.workdps(30):
            big_k = 2 * mpmath.pi * mpmath.mpf(k)
            e64 = mpmath.mpf(1e-12) * (2 + big_k)
            pad = 4 * e64 * mpmath.sqrt(1 + m * m) + 2 * e64
            lo, hi = mpmath.atan(mpmath.mpf(1) / m), mpmath.atan(m)
            for h, (inner, step, side) in enumerate(half_sides(m, k)):

                def count_below(level) -> mpmath.mpf:
                    y = mpmath.acos(side * level / big_k) / (2 * mpmath.pi)
                    return (mpmath.mpf(1) - y if h >= 2 else y) * 2**53 * step - inner * step

                for b in range(64):
                    t = mpmath.tan(lo + (hi - lo) * mpmath.mpf(b) / 64 - mpmath.mpf(1e-9 * (hi_f - lo_f)))
                    roots = q_roots(m, t)
                    level = (roots[1] if side > 0 else -roots[0]) + pad
                    want = max(count_below(level), 0)
                    if side > 0 and b >= b_x:
                        want = max(want, count_below(2 * m + mpmath.mpf(h_box)))
                    assert abs(int(band.reach[h, b]) - want) <= 2, (k, h, b, int(band.reach[h, b]), want)
                    if level < 2 * m:  # no failure layer on this side
                        assert band.reach[h, b] == 0 or (side > 0 and b >= b_x), (k, h, b)
                    checked += 1
    assert checked >= 512


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
        _, closed_rows = band_rows(delta_strip(m, params), band.reach)
        y, t = reference_box_draws(rng, closed_rows, 100_000)
        ends = [(np.concatenate([a + steps, b - steps]),
                 np.concatenate([c * 2**47 + steps, (c + 1) * 2**47 - 1 - steps])) for c, a, b in closed_rows]
        j_ends = np.concatenate([np.repeat(j, len(i)) for j, i in ends])
        i_ends = np.concatenate([np.tile(i, len(j)) for j, i in ends])
        y, t = np.concatenate([y, j_ends * 2.0**-53]), np.concatenate([t, i_ends * 2.0**-53])
        # The float64 image, as the sweep evaluates it.
        theta = lo + t * (hi - lo)
        ix, iy = _image(psi(y, params), np.cos(theta), np.sin(theta))
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
            assert np.all(band.reach[h][math.floor(64 * u_r):] >= need), k
        share = (2 * min(reach_r) / 2**53) / (band.size / 64 / 2**53) * (1.0 - u_r)
        assert 1e6 * share > -math.log(1e-9), (k, share)
        checked += 1
    assert checked >= 10
