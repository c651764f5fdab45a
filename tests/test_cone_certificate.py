"""The far-region certificate of the cone sweep, checked without its code.

Where |psi_c| >= T(m) = m + 1 + m sqrt((1 + m^2) / 2), every unit vector
with slope in (1/m, m) is mapped to a vector of norm at least m whose slope
lies in [1 - 1/(T - m), 1 + 1/T].  Interval boxes over (psi, cot theta)
prove both, at T(m) and at the sweep's slightly larger threshold.
Bisection finds the least threshold for the norm, and the heights the sweep
leaves out of its band are checked in float64 against its threshold.
"""

import math

import numpy as np
import pytest

from hypermap import hyperbolicity
from hypermap.hyperbolicity import _image
from hypermap.stdmap import MapParams, psi

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


def prove(m: int, t_from, big_k, lower, upper, widen=0, max_depth: int = 60) -> int:
    """Boxes over psi in +-[t_from, big_k] and cot theta in the closed cone
    [1/m, m] widened by the share ``widen``, bisected until each shows
    norm^2 >= m^2 and lower <= slope - 1 <= upper.  Returns the number of
    boxes that settled."""
    u0 = (mpmath.mpf(1) / m * (1 - widen), m * (1 + widen))
    stack = []
    a = t_from
    while a < big_k:  # octaves of |psi|: the margins grow with it
        b = min(2 * a, big_k)
        stack += [((a, b), u0, 0), ((-b, -a), u0, 0)]
        a = b
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


@pytest.mark.parametrize("m", MS)
def test_interval_boxes_prove_the_certificate(m):
    band = hyperbolicity._band(K_PROOF, m)
    dps = iv.dps
    iv.dps = 30
    try:
        _prove_at(m, band)
    finally:
        iv.dps = dps


def _prove_at(m: int, band) -> None:
    with mpmath.workdps(30):
        t = closed_form_threshold(m)
        big_k = 2 * mpmath.pi * K_PROOF
        # The certificate as stated: the closed cone's corner u = m attains
        # slope - 1 = -1/(T - m) at psi = -T.
        tol = mpmath.mpf(10) ** -20
        assert prove(m, t, big_k, -1 / (t - m) - tol, 1 / t) >= 2
        # The sweep's threshold and bounds, on the cone widened for the
        # float64 rounding of theta's range.
        assert t <= band.psi_bound
        lower = max(-1 / (t - m), mpmath.mpf(band.slope_lo) - 1)
        upper = min(1 / t, mpmath.mpf(band.slope_hi) - 1)
        assert prove(m, mpmath.mpf(band.psi_bound), big_k, lower, upper, widen=mpmath.mpf(1e-12)) >= 2


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
    rng = np.random.default_rng(m)
    lo, hi = math.atan(1.0 / m), math.atan(m)
    grid = 2**53
    steps = np.arange(64)
    checked = 0
    for k in (1.01 * m, 17.0, 200.0, 3e3, 1e6):
        band = hyperbolicity._band(k, m)
        if band is None:
            continue
        params = MapParams(k)
        # Heights y = j 2^-53 uniform on [0, 1) and at the ends of the spans
        # outside the band, with theta at the cone's edges.
        j = np.concatenate([rng.integers(grid, size=100_000)] + [np.concatenate([a + steps, b - steps])
                                                                 for a, b in band.rest])
        t = np.concatenate([rng.random(len(j) - 3 * 64), steps * 2.0**-53, 1.0 - (steps + 1) * 2.0**-53,
                            rng.random(64)])
        out = np.zeros(len(j), dtype=bool)
        for a, b in band.rest:
            out |= (a <= j) & (j <= b)
        # Every height outside the band lies where |psi_c| exceeds T_band.
        p = psi(j[out] * 2.0**-53, params)
        assert np.all(np.abs(p) > band.psi_bound), k
        # The float64 image there, as the sweep evaluates it.
        theta = lo + t[out] * (hi - lo)
        ix, iy = _image(p, np.cos(theta), np.sin(theta))
        slope = iy / ix
        assert np.all(np.hypot(ix, iy) >= m), k
        assert np.all((band.slope_lo <= slope) & (slope <= band.slope_hi)), k
        assert 1.0 - 1.0 / m < band.slope_lo and band.slope_hi < 1.0 + 1.0 / m
        checked += int(np.count_nonzero(out))
    assert checked > 100_000


def test_no_band_where_it_would_hold_every_sample():
    for m in MS:
        k = float(closed_form_threshold(m)) / (2 * math.pi)
        if 0.99 * k > m:
            assert hyperbolicity._band(0.99 * k, m) is None
        assert hyperbolicity._band(max(1.01 * k, 1.01 * m), m) is not None
    # Nor where the float64 slack e64 = 1e-12 (2 + K) reaches 1e-3.
    assert hyperbolicity._band(1.5e8, 2) is not None
    assert hyperbolicity._band(2e8, 2) is None
