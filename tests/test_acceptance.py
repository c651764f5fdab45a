"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Criterion 5 is expected RED in its norm half: the per-step
image-norm bound >= m is mathematically false in thin layers where psi_c
sits just past -2m (any m >= 2) or +2m (m >= 5) with entry slope near 1/m;
the infimum of the image norm over the stated hypothesis set at a given m
is g(m) = sqrt((1 + (1 - 1/m)^2) / (1 + 1/m^2)), exactly 1 at m = 2.
The check is asserted verbatim anyway; the direction half and the negative
control pass.  Exact counterexample: psi_c = -21/5, tan(theta) = 11/20,
m = 2 gives image norm sqrt(22937/13025) ~ 1.327 < 2.
"""

import math
import random
import time

import numpy as np

from hypermap.coordinates import (
    critical_constants,
    phi,
    phi_prime,
    phi_tilde,
    phi_parts,
    phi_tilde_parts,
    strip_pair_contains,
    theta_field,
)
from hypermap.foliations import fold_tips, trace_leaf
from hypermap.hyperbolicity import push_vector, verify_cones
from hypermap.oracle import fd_derivative, svd2
from hypermap.stdmap import (
    MapParams,
    TorusPoint,
    angle_dist_mod_pi,
    jacobian,
    psi,
)
from hypermap.tangency import no_tangency_scan, tangency_curve, tangency_landmarks
from test_coordinates import phi_tilde_prime

K_SET = (1.0, 2.0, 5.0, 10.0, 100.0)

# Frozen no-tangency scan minima at grid=256 (regression fixtures).
SCAN_FIXTURE = {2.0: 0.5999198651748792, 10.0: 0.5413487062708713}


def report(num: int, name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} [{time.perf_counter() - t0:.2f}s] {detail}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in K_SET:
        params = MapParams(k)
        for j in range(4096):
            coord = j / 4096
            point = TorusPoint(0.0, coord)
            for tdir in ("forward", "backward"):
                s = svd2(jacobian(point, params, tdir))
                worst = max(worst, theta_field(coord, params, tdir).dist(s.dir_min))
    ok = worst < 1e-9
    report(1, "oracle equivalence", ok, f"max angle error {worst:.3g} rad", t0)
    assert ok


def test_criterion_2_singular_value_product():
    t0 = time.perf_counter()
    rng = random.Random(42)
    worst = 0.0
    for k in K_SET:
        params = MapParams(k)
        for _ in range(4096):
            s = svd2(jacobian(TorusPoint(rng.random(), rng.random()), params))
            worst = max(worst, abs(s.sigma_max * s.sigma_min - 1.0))
    ok = worst < 1e-10
    report(2, "E1*F1 unimodularity", ok, f"max |E1*F1 - 1| {worst:.3g}", t0)
    assert ok


def test_criterion_3_landmarks_and_ordering():
    t0 = time.perf_counter()
    worst_res = 0.0
    ordering_ok = True
    for k in (1.0, 5.0, 20.0, 100.0):
        params = MapParams(k)
        marks = tangency_landmarks(params)
        assert all(tp is not None for tp in marks)
        worst_res = max(worst_res, max(tp.residual for tp in marks))
        c = critical_constants(params)
        chain = [
            c.delta_minus, 0.25, c.delta_star, c.delta_hat_T_minus,
            c.delta_T_minus, c.delta_plus, c.delta_T_plus, c.delta_hat_T_plus,
        ]
        ordering_ok &= all(a < b for a, b in zip(chain, chain[1:]))
    ok = worst_res < 1e-8 and ordering_ok
    report(3, "landmarks P1..P8 + ordering", ok,
           f"max residual {worst_res:.3g}, ordering {'ok' if ordering_ok else 'BROKEN'}", t0)
    assert ok


def test_criterion_4_asymptotics():
    t0 = time.perf_counter()
    k = 1000.0
    c = critical_constants(MapParams(k))
    eight_pi_sq = 8 * math.pi**2
    targets = [
        (k * (c.delta_star - 0.25), 1 / eight_pi_sq),
        (k * (c.delta_plus - 0.25), (1 + math.sqrt(3)) / eight_pi_sq),
        (k * (c.delta_hat_T_plus - 0.25), (1 + 3 * math.sqrt(3)) / eight_pi_sq),
    ]
    rel = max(abs(got - want) / want for got, want in targets)
    ok = rel < 0.01
    report(4, "large-k asymptotics", ok, f"max relative error {rel:.3g}", t0)
    assert ok


def test_criterion_5_cone_sweep():
    t0 = time.perf_counter()
    total_failures = 0
    total_slope = 0
    total_norm = 0
    min_norms = []
    for m in (2, 3, 5, 10):
        for k in sorted({2 * m + 1, 10 * m, 100}):
            rep = verify_cones(MapParams(float(k)), m, 100_000, seed=42)
            total_failures += rep.failures
            total_slope += rep.slope_failures
            total_norm += rep.norm_failures
            min_norms.append(rep.min_norm)
    control = verify_cones(MapParams(25.0), 2, 10_000, seed=42, inside_strip=True)
    control_ok = control.failures >= 1
    ok = total_failures == 0 and control_ok
    report(5, "cone invariance sweep", ok,
           f"failures {total_failures} (slope {total_slope}, norm {total_norm}; "
           f"min norm {min(min_norms):.4f}), negative control "
           f"{'fails as required' if control_ok else 'DID NOT FAIL'}", t0)
    assert control_ok
    assert total_slope == 0, "direction half of the sweep must be clean"
    assert total_failures == 0, (
        "norm >= m fails in the psi_c boundary layers (image-norm infimum "
        "over the hypothesis set is 1; exact counterexample psi_c = -21/5, "
        "tan theta = 11/20, m = 2); the criterion is stated against the "
        "unweakened claim and is expected RED"
    )


def test_criterion_6_exact_mapping_facts():
    t0 = time.perf_counter()
    worst_h = 0.0
    params = MapParams(10.0)
    for j in range(1024):
        out, _ = push_vector(j / 1024, 0.0, params)
        worst_h = max(worst_h, angle_dist_mod_pi(out, math.pi / 4))
    worst_d = 0.0
    for k in K_SET:
        out, _ = push_vector(0.25, 3 * math.pi / 4, MapParams(k))
        worst_d = max(worst_d, angle_dist_mod_pi(out, 0.0))
    ok = worst_h <= 1e-12 and worst_d <= 1e-12
    report(6, "exact mapping facts", ok,
           f"horizontal->diagonal {worst_h:.3g}, neg diagonal->horizontal {worst_d:.3g}", t0)
    assert ok


def test_criterion_7_foliation_geometry():
    t0 = time.perf_counter()
    params = MapParams(10.0)
    ds, _ = fold_tips(params)

    leaf = trace_leaf("F1", TorusPoint(0.3, ds), params, step=1e-3, max_arc=10.0)
    dev_line = float(np.abs(leaf.points[:, 1] - ds).max())

    leaf = trace_leaf("E-1", TorusPoint(0.0, ds), params, step=1e-3, max_arc=10.0)
    yt = (leaf.points[:, 1] - leaf.points[:, 0]) % 1.0
    d = np.abs(yt - ds)
    dev_diag = float(np.minimum(d, 1.0 - d).max())

    leaf = trace_leaf("F1", TorusPoint(0.0, 0.501), params, step=1e-3, max_arc=50.0)
    tail = leaf.points[int(0.9 * len(leaf.points)):, 1]
    d1 = np.abs(tail - ds)
    d2 = np.abs(tail - (1 - ds))
    dev_acc = float(np.minimum(np.minimum(d1, 1 - d1), np.minimum(d2, 1 - d2)).max())

    ok = dev_line < 1e-6 and dev_diag < 1e-6 and dev_acc < 5e-2
    report(7, "foliation geometry", ok,
           f"line dev {dev_line:.3g}, diagonal dev {dev_diag:.3g}, "
           f"accumulation dev {dev_acc:.3g}", t0)
    assert ok


def test_criterion_8_tangency_curve_and_scan():
    t0 = time.perf_counter()
    worst_res = 0.0
    contained = True
    for k in (2.0, 10.0):
        params = MapParams(k)
        c = critical_constants(params)
        lo, hi = c.delta_hat_T_minus - 1e-12, c.delta_hat_T_plus + 1e-12
        _, lower, upper = tangency_curve(params, 4096)
        for y, res in (lower, upper):
            worst_res = max(worst_res, float(res.max()))
            contained &= all(strip_pair_contains(v, lo, hi) for v in y.tolist())
    scan_ok = True
    scan_detail = []
    for k, want in SCAN_FIXTURE.items():
        rep = no_tangency_scan(MapParams(k), 256)
        scan_ok &= rep.min_angle > 0.0 and abs(rep.min_angle - want) < 1e-6
        scan_detail.append(f"k={k:g}: {rep.min_angle:.6f}")
    ok = worst_res < 1e-8 and contained and scan_ok
    report(8, "tangency residuals + scan", ok,
           f"max residual {worst_res:.3g}, containment {contained}, "
           f"scan minima {'; '.join(scan_detail)}", t0)
    assert ok


def test_criterion_9_derivative_identities():
    t0 = time.perf_counter()
    params = MapParams(2.0)
    worst_f = worst_b = 0.0
    checked_f = checked_b = 0
    j = 0
    while checked_f < 1000 or checked_b < 1000:
        j += 1
        y = (j * 0.00097) % 1.0
        if abs(psi(y, params, kind="sin")) < 0.5:
            continue
        if checked_f < 1000:
            _, den = phi_parts(y, params)
            if abs(den) >= 1.0:
                fd = fd_derivative(lambda t: phi(t, params), y, 1e-6)
                worst_f = max(worst_f, abs(fd - phi_prime(y, params)) / abs(phi_prime(y, params)))
                checked_f += 1
        if checked_b < 1000:
            _, den = phi_tilde_parts(y, params)
            if abs(den) >= 1.0:
                fd = fd_derivative(lambda t: phi_tilde(t, params), y, 1e-6)
                worst_b = max(
                    worst_b, abs(fd - phi_tilde_prime(y, params)) / abs(phi_tilde_prime(y, params))
                )
                checked_b += 1
    ok = worst_f < 1e-5 and worst_b < 1e-5
    report(9, "derivative identities", ok,
           f"max rel err forward {worst_f:.3g}, backward {worst_b:.3g}", t0)
    assert ok
