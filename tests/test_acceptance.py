"""End-to-end checks of the package's headline claims at fixed tolerances.

Each test prints a one-line summary with the measured numbers so a log of
the run doubles as a results table.
"""

import math

import numpy as np

import gapspec as gs
from gapspec import wave_sim as ws

from conftest import MU2_SPHERE_K2, MU2_SPHERE_K3_L40


def _mode_residual(g, r):
    # sup of the operator applied to the zero mode, relative to the mode peak
    op = gs.half_line(g)
    val, d1, d2 = gs.zero_mode(g, gs.PHYSICAL_R, r, derivatives=True)
    peak = np.max(np.abs(val))
    worst = max(abs(gs.apply_operator(op, val[i], r[i], phi_prime=d1[i],
                                      phi_second=d2[i]))
                for i in range(r.size))
    return worst / peak


def test_criterion_01_zero_mode_residuals():
    r = np.geomspace(0.01, 20.0, 400)
    worst_s = max(_mode_residual(gs.sphere(k, lam), r)
                  for k in (1, 2, 3) for lam in (0.5, 1.0, 3.0, 10.0))
    worst_y = max(_mode_residual(gs.yang_mills(lam), r)
                  for lam in (0.5, 1.0, 3.0, 10.0))
    worst_e = 0.0
    for k in (2, 3):
        op = gs.euclidean(k)
        a = k + 0.5
        peak = 0.0
        for rho in r:
            den = 1.0 + rho ** (2 * k)
            val = rho ** a / den
            peak = max(peak, abs(val))
            # log-derivative chain rule keeps the huge powers tame
            l1 = a / rho - 2 * k * rho ** (2 * k - 1) / den
            l2 = (-a / rho ** 2
                  - 2 * k * (2 * k - 1) * rho ** (2 * k - 2) / den
                  + (2 * k * rho ** (2 * k - 1) / den) ** 2)
            res = gs.apply_operator(op, val, rho, phi_prime=val * l1,
                                    phi_second=val * (l2 + l1 * l1))
            worst_e = max(worst_e, abs(res))
        worst_e /= peak
    print(f"criterion 01: residuals sphere {worst_s:.3g} ym {worst_y:.3g} "
          f"euclid {worst_e:.3g} (bounds 1e-6, 1e-6, 1e-8)")
    assert worst_s < 1e-6
    assert worst_y < 1e-6
    assert worst_e < 1e-8


def test_criterion_02_energy_closed_forms():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 5.0):
        targets = [
            (gs.sphere(1, lam), 2.0 * lam ** 2 / (1.0 + lam ** 2)),
            (gs.sphere(2, lam),
             2.0 * (1.0 - math.cos(2.0 * math.atan(lam ** 2)))),
            (gs.sphere(3, lam),
             3.0 * (1.0 - math.cos(2.0 * math.atan(lam ** 3)))),
            (gs.yang_mills(lam),
             4.0 * lam ** 4 * (3.0 + lam ** 2)
             / (3.0 * (1.0 + lam ** 2) ** 3)),
        ]
        for g, expected in targets:
            worst = max(worst, abs(gs.energy_quadrature(g).total - expected))
    print(f"criterion 02: worst |quadrature - closed form| {worst:.3g} "
          f"over 16 cases (bound 1e-8)")
    assert worst < 1e-8


def test_criterion_03_no_gap_eigenvalue_small_lambda():
    geoms = [gs.sphere(k, lam)
             for k in (1, 2, 3, 5) for lam in (0.25, 0.5, 1.0)]
    geoms += [gs.yang_mills(lam) for lam in (0.5, 1.0)]
    ratio = math.inf
    for g in geoms:
        rep = gs.find_gap_eigenvalues(gs.half_line(g), scans=False)
        assert rep.count == 0, (g.kind, g.k, g.lam)
        ratio = min(ratio, abs(rep.threshold.b) / abs(rep.threshold.a))
    print(f"criterion 03: 14 configs empty, min |b|/|a| {ratio:.3g} "
          f"(bound 1e-4)")
    assert ratio > 1e-4


def test_criterion_04_k1_extended_clear_zone():
    ratios = []
    for lam in (1.2, 1.35):
        rep = gs.find_gap_eigenvalues(gs.half_line(gs.sphere(1, lam)),
                                      scans=False)
        assert rep.count == 0, lam
        ratios.append(abs(rep.threshold.b) / abs(rep.threshold.a))
    print(f"criterion 04: lambda 1.2, 1.35 empty, |b|/|a| "
          f"{ratios[0]:.3g}, {ratios[1]:.3g} (bound 1e-4)")
    assert min(ratios) > 1e-4


def test_criterion_05_k1_threshold_location():
    rep = gs.sweep_lambda(gs.SPHERE, 1, [3.0, 3.5, 4.0, 4.5],
                          bisect_to=1e-3)
    lo, hi = rep.slope_flip_bracket
    print(f"criterion 05: sign flip bracket ({lo:.6f}, {hi:.6f}), "
          f"width {hi - lo:.3g} (lower edge > 3.4, width <= 1e-3)")
    assert lo > 3.4
    assert hi - lo <= 1e-3


def test_criterion_06_unique_eigenvalue_large_lambda():
    geoms = [gs.sphere(2, lam) for lam in (10.0, 20.0, 40.0)]
    geoms += [gs.yang_mills(lam) for lam in (10.0, 20.0)]
    worst = 0.0
    for g in geoms:
        rep = gs.find_gap_eigenvalues(gs.half_line(g), scans=False,
                                      threshold=False)
        assert rep.count == 1, (g.kind, g.lam)
        ev = rep.eigenvalues[0]
        assert ev.oscillation == (0, 1), (g.kind, g.lam)
        worst = max(worst, ev.wronskian_residual)
    print(f"criterion 06: 5 configs unique with count jump 1, worst "
          f"Wronskian residual {worst:.3g} (bound 1e-8)")
    assert worst < 1e-8


def test_criterion_07_migration_monotone():
    ratios = {}
    for kind in (gs.SPHERE, gs.YANG_MILLS):
        rep = gs.migration_curve(kind, 2, [5.0, 10.0, 20.0, 40.0])
        mus = [p.mu2 for p in rep.points]
        assert all(b < a for a, b in zip(mus, mus[1:])), kind
        ratios[kind] = mus[-1] / mus[0]
    print(f"criterion 07: mu2 strictly decreasing, ratios "
          f"sphere {ratios[gs.SPHERE]:.4f} ym {ratios[gs.YANG_MILLS]:.4f} "
          f"(bound 0.25)")
    assert all(v < 0.25 for v in ratios.values())


def test_criterion_08_theta_uniformity():
    clear = gs.largek_gap_scan([4, 8, 16, math.inf], 0.9)
    assert all(p.count == 0 for p in clear.points)
    assert all(p.halfline_count == 0 for p in clear.points
               if p.k != math.inf)
    deep = gs.largek_gap_scan([8, 16, math.inf], 100.0)
    assert all(p.count == 1 for p in deep.points)
    agree = max(abs(p.mu2 - p.halfline_mu2) / p.mu2 for p in deep.points
                if p.k != math.inf)
    print(f"criterion 08: Theta 0.9 all clear, Theta 100 all present, "
          f"worst pullback disagreement {agree:.3g} (bound 1e-6)")
    assert agree < 1e-6


def test_criterion_09_omega_weight_inequality():
    rng = np.random.default_rng(7)
    worst = -math.inf
    for _ in range(50):
        k = int(rng.integers(1, 51))
        theta = float(np.exp(rng.uniform(-2.0, 6.0)))
        ell = rng.uniform(1e-6, 20.0, size=200)
        rho = theta * np.exp(-ell)
        om = gs.omega_weight(k, theta, rho)
        worst = max(worst, float(np.max(om * ell)) - 1.0)
    print(f"criterion 09: 10^4 samples, max omega*log(Theta/rho) - 1 = "
          f"{worst:.3g} (bound 1e-12)")
    assert worst <= 1e-12


def test_criterion_10_renormalization_claims():
    lam = 40.0
    sol = gs.renormalized_f(gs.sphere(2, lam), 0.25, lam)
    rho0 = lam * math.atanh(1.0 / lam)
    fmin = float(np.min(sol.f[sol.grid <= rho0]))
    fp0 = abs(float(np.interp(rho0, sol.grid, sol.f_prime)))
    z0 = float(np.interp(rho0, sol.grid, sol.zeta))
    bound = (2.0 / 3.0) / lam ** 5 / z0 ** 2
    neg = np.nonzero(sol.f < 0.0)[0]
    first = float(sol.grid[neg[0]]) if neg.size else math.inf
    print(f"criterion 10: min f {fmin:.6f} (>= 0.5), |f'(rho0)| "
          f"{fp0:.3g} (>= {bound:.3g}), first sign change {first:.3f} "
          f"(< {lam}), route disagreement {sol.shoot_residual:.3g} "
          f"(< 1e-6)")
    assert fmin >= 0.5
    assert fp0 >= bound
    assert first < lam
    assert sol.shoot_residual < 1e-6


def test_criterion_11_no_negative_or_embedded():
    rng = np.random.default_rng(9)
    worst_name = None
    for _ in range(12):
        lam = float(rng.uniform(0.0, 40.0))
        pick = int(rng.integers(0, 4))
        g = gs.yang_mills(lam) if pick == 3 else gs.sphere(pick + 1, lam)
        rep = gs.find_gap_eigenvalues(gs.half_line(g), threshold=False)
        assert rep.negative_scan_clear, (g.kind, g.k, g.lam)
        assert rep.embedded_scan_clear, (g.kind, g.k, g.lam)
        worst_name = (g.kind, g.k, round(g.lam, 3))
    print(f"criterion 11: 12 random configs scan clear, last {worst_name}")


def test_criterion_12_dynamical_dichotomy():
    mu2 = MU2_SPHERE_K2[20.0]
    state = ws.init_state(gs.sphere(2, 20.0), 40.0, 4096,
                          ws.GapEigenmode(mu2=mu2))
    res = ws.run(state, 10.0 * 2.0 * math.pi / math.sqrt(mu2))
    summ = ws.probe_spectrum(res.times, res.probe)
    off = abs(summ.dominant_omega - math.sqrt(mu2)) / summ.bin_width
    drift_eig = float(np.max(np.abs(res.energies - res.energies[0]))
                      / abs(res.energies[0]))
    assert off <= 2.0
    assert summ.decay_ratio > 0.9
    state = ws.init_state(gs.sphere(1, 1.0), 160.0, 8192,
                          ws.GaussianBump(1.0, 8.0, 0.5), probe_r=5.0)
    res = ws.run(state, 80.0)
    bump = ws.probe_spectrum(res.times, res.probe)
    drift_bump = float(np.max(np.abs(res.energies - res.energies[0]))
                       / abs(res.energies[0]))
    print(f"criterion 12: eigenmode off by {off:.3g} bins, decay "
          f"{summ.decay_ratio:.4f} (> 0.9); bump decay "
          f"{bump.decay_ratio:.4f} (< 0.1); drifts {drift_eig:.3g}, "
          f"{drift_bump:.3g} (< 1e-3)")
    assert bump.decay_ratio < 0.1
    assert drift_eig < 1e-3
    assert drift_bump < 1e-3


def test_criterion_13_self_consistency():
    worst = 0.0
    for g, frozen in ((gs.sphere(2, 10.0), MU2_SPHERE_K2[10.0]),
                      (gs.sphere(3, 40.0), MU2_SPHERE_K3_L40)):
        op = gs.half_line(g)
        base = gs.find_gap_eigenvalues(op, scans=False, threshold=False)
        tight = gs.find_gap_eigenvalues(op, rtol=1e-12, scans=False,
                                        threshold=False)
        mu2 = base.eigenvalues[0].mu2
        worst = max(worst, abs(tight.eigenvalues[0].mu2 - mu2))
        assert math.isclose(mu2, frozen, rel_tol=1e-5)
    counts = [gs.count_eigenvalues_below(gs.half_line(gs.sphere(2, 20.0)), m)
              for m in np.linspace(1e-3, 0.2499, 12)]
    assert counts == sorted(counts)
    print(f"criterion 13: worst eigenvalue shift under tol/10 {worst:.3g} "
          f"(bound 1e-9); Sturm counts monotone")
    assert worst < 1e-9
