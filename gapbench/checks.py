"""Correctness checks on the documents the gapspec CLI prints.

Each check takes the parsed `results` part of one document plus the inputs
the benchmark chose, and returns a list of failure messages (empty when the
output is right). Every check compares with a computation made apart from
the program or with a property the method must have; none compares with a
stored copy of an earlier output.
"""

import math

import numpy as np

GAP_EDGE = 0.25             # continuum edge of the half-line operators
WRONSKIAN_TOL = 1e-8
BRACKET_MAX = 1e-9
FLATNESS_TOL = 1e-6
FIT_TOL = 1e-6
PULLBACK_RTOL = 1e-9
DRIFT_TOL = 1e-3
ORACLE_RANGE = (5.0, 10.0)      # where the uniform-grid oracle converges
ORACLE_GRIDS = (8192, 16384, 32768)
ORACLE_R = 60.0


def finite(x):
    """x as a finite float, or None (the CLI writes nan/inf as strings)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _in_gap(mu2):
    v = finite(mu2)
    return v is not None and 0.0 < v < GAP_EDGE


def fd_ground_eigenvalue(geometry, n, R=ORACLE_R):
    """Lowest eigenvalue of the finite-difference operator on n nodes.

    The per-node potential is the second difference of the exact zero mode
    over its value, so the stencil has that mode as an exact null vector
    (the construction of test_matrix_oracle_k2_lambda5). Solved by scipy,
    not by the shooting code under test.
    """
    from scipy.linalg import eigh_tridiagonal

    from gapspec import PHYSICAL_R, zero_mode

    r = np.linspace(0.0, R, n + 1)[1:]
    h = r[1] - r[0]
    zeta = zero_mode(geometry, PHYSICAL_R, r)
    u = np.empty(n)
    u[1:-1] = (zeta[:-2] - 2.0 * zeta[1:-1] + zeta[2:]) / (h * h * zeta[1:-1])
    u[0] = u[1]
    u[-1] = u[-2]
    return float(eigh_tridiagonal(
        2.0 / h ** 2 + u, np.full(n - 1, -1.0 / h ** 2), select="i",
        select_range=(0, 0), eigvals_only=True)[0])


def fd_oracle(geometry):
    """(value, error bound) of the matrix oracle on three nested grids.

    The error of the finest value is estimated from the observed
    convergence rate, e3 ~ |v2 - v3| / (rate - 1), and doubled."""
    v1, v2, v3 = (fd_ground_eigenvalue(geometry, n) for n in ORACLE_GRIDS)
    d12, d23 = abs(v1 - v2), abs(v2 - v3)
    rate = d12 / d23 if d23 > 0.0 else math.inf
    if not rate > 3.0:
        # slower than second order: the grid does not resolve the well
        return v3, math.inf
    return v3, 2.0 * d23 / (rate - 1.0)


def check_spectral_report(rep, oracle=None):
    """One full report of a gap-eigenvalue member (exactly one eigenvalue).

    `oracle` is an optional (value, error bound) from fd_oracle."""
    bad = []
    evs = rep.get("eigenvalues") or []
    if rep.get("count") != 1 or len(evs) != 1:
        bad.append(f"count {rep.get('count')} with {len(evs)} eigenvalues, "
                   f"expected one gap eigenvalue")
    for ev in evs:
        mu2 = ev.get("mu2")
        if ev.get("near_threshold"):
            bad.append("eigenvalue reported only as a threshold bracket")
        osc = ev.get("oscillation") or [0, 0]
        if osc[1] - osc[0] != 1:
            bad.append(f"oscillation jump {osc[1] - osc[0]}, expected 1")
        resid = finite(ev.get("wronskian_residual"))
        if resid is None or not resid < WRONSKIAN_TOL:
            bad.append(f"Wronskian residual {ev.get('wronskian_residual')} "
                       f"not below {WRONSKIAN_TOL:g}")
        lo, hi = (finite(v) for v in ev.get("bracket") or [None, None])
        if lo is None or hi is None or not 0.0 < hi - lo <= BRACKET_MAX:
            bad.append(f"count bracket {ev.get('bracket')} not of width "
                       f"(0, {BRACKET_MAX:g}]")
        if not _in_gap(mu2):
            bad.append(f"mu2 {mu2} outside the gap (0, {GAP_EDGE})")
        elif oracle is not None:
            value, err = oracle
            if not abs(mu2 - value) <= err:
                bad.append(f"mu2 {mu2!r} differs from the matrix oracle "
                           f"{value!r} by {abs(mu2 - value):.3g}, beyond its "
                           f"discretization error {err:.3g}")
    neg = rep.get("negative_scan") or []
    if not neg or any(c != 0 for _, c in neg):
        bad.append(f"negative scan not clear: {neg}")
    emb = rep.get("embedded_scan") or []
    if not emb or any(finite(f) is None or not finite(f) < FLATNESS_TOL
                      for _, f in emb):
        bad.append(f"embedded scan not clear: {emb}")
    fit = rep.get("threshold") or {}
    res = finite(fit.get("fit_residual"))
    if res is None or not res < FIT_TOL:
        bad.append(f"threshold fit residual {fit.get('fit_residual')}")
    return bad


def check_spectrum(results, lams, oracles):
    """A `spectrum` document over `lams`; oracles maps lambda -> oracle."""
    if not isinstance(results, list) or len(results) != len(lams):
        return [f"expected {len(lams)} reports"]
    bad = []
    for lam, rep in zip(lams, results):
        bad += [f"lambda={lam:g}: {m}"
                for m in check_spectral_report(rep, oracles.get(lam))]
    return bad


def check_migration(results, lams):
    pts = results.get("points") or []
    if [p.get("lam") for p in pts] != list(lams):
        return [f"migration points {[p.get('lam') for p in pts]} "
                f"do not follow the grid {list(lams)}"]
    bad = []
    mus = [p.get("mu2") for p in pts]
    for p in pts:
        if not _in_gap(p.get("mu2")):
            bad.append(f"lambda={p['lam']:g}: mu2 {p.get('mu2')} not in gap")
        resid = finite(p.get("wronskian_residual"))
        if resid is None or not resid < WRONSKIAN_TOL:
            bad.append(f"lambda={p['lam']:g}: Wronskian residual "
                       f"{p.get('wronskian_residual')}")
    if not bad and not all(b < a for a, b in zip(mus, mus[1:])):
        bad.append(f"migration curve does not decrease strictly: {mus}")
    return bad


def check_largek(results, ks):
    rows = results.get("points") or []
    if len(rows) != len(ks):
        return [f"expected {len(ks)} rows, got {len(rows)}"]
    bad = []
    byk = {}
    for row in rows:
        k = row.get("k")
        k = math.inf if k == "inf" else finite(k)
        byk[k] = row
        if row.get("count") != 1 or not _in_gap(row.get("mu2")):
            bad.append(f"k={k}: count {row.get('count')}, "
                       f"mu2 {row.get('mu2')}")
            continue
        if k == math.inf:
            continue
        # the finite-k normal form is the exact pullback of the half-line
        # member at lambda = theta^(1/k)
        hl = finite(row.get("halfline_mu2"))
        if row.get("halfline_count") != row["count"] or hl is None or \
                not abs(row["mu2"] - hl) <= PULLBACK_RTOL * abs(hl):
            bad.append(f"k={k:g}: row ({row['count']}, {row['mu2']!r}) "
                       f"differs from its pullback "
                       f"({row.get('halfline_count')}, "
                       f"{row.get('halfline_mu2')!r})")
    if bad or math.inf not in byk:
        return bad or ["no k=inf row"]
    limit = byk[math.inf]["mu2"]
    dist = [abs(byk[k]["mu2"] - limit) for k in sorted(byk) if k != math.inf]
    if not all(b < a for a, b in zip(dist, dist[1:])):
        bad.append(f"finite-k rows do not approach the k=inf row: "
                   f"distances {dist}")
    return bad


def bisection_steps(grid, bracket, bisect_to):
    """Midpoints a transition bisection evaluates to reach `bracket`.

    Replays the halving of the grid interval holding the bracket, so the
    count is derived from the inputs and the reported end point only."""
    lo, hi = bracket
    for a, b in zip(grid, grid[1:]):
        if a <= lo and hi <= b:
            break
    else:
        return None
    n = 0
    while b - a > bisect_to:
        mid = 0.5 * (a + b)
        if mid <= lo:
            a = mid
        else:
            b = mid
        n += 1
    return n if (a, b) == (lo, hi) else None


def check_sweep(results, grid, bisect_to):
    pts = results.get("points") or []
    if [p.get("lam") for p in pts] != list(grid):
        return ["sweep points do not follow the grid"]
    bad = []
    for p in pts:
        res = finite(p.get("fit_residual"))
        if res is None or not res < FIT_TOL:
            bad.append(f"lambda={p['lam']:g}: fit residual "
                       f"{p.get('fit_residual')}")
    for name in ("slope_flip_bracket", "onset_bracket"):
        br = results.get(name)
        if not br or not 0.0 < br[1] - br[0] <= bisect_to * (1 + 1e-9):
            bad.append(f"{name} {br} missing or wider than {bisect_to:g}")
        elif bisection_steps(grid, br, bisect_to) is None:
            bad.append(f"{name} {br} is not a bisection of a grid interval")
    onset = results.get("onset_bracket")
    if onset:
        wrong = [(p["lam"], p["count"]) for p in pts
                 if (p["lam"] <= onset[0] and p["count"] != 0)
                 or (p["lam"] >= onset[1] and p["count"] != 1)]
        if wrong:
            bad.append(f"counts not 0 below and 1 above the onset "
                       f"{onset}: {wrong}")
    return bad


def check_renorm_zero(results):
    """At mu2 = 0 the renormalized profile is identically 1."""
    vals = [finite(results.get(key)) for key in ("f_min", "f_end",
                                              "f_at_bulk")]
    slope = finite(results.get("f_prime_at_bulk"))
    if None in vals or slope is None or \
            any(abs(v - 1.0) > 1e-12 for v in vals) or abs(slope) > 1e-12 \
            or results.get("first_sign_change") is not None:
        return [f"f is not identically 1 at mu2=0: f_min {vals[0]}, "
                f"f_end {vals[1]}, f'(bulk) {slope}"]
    return []


def check_renorm_edge(results, lam):
    """At the gap edge f changes sign before rho = lambda, and the Volterra
    solve agrees with the direct shot of the rescaled operator."""
    bad = []
    first = finite(results.get("first_sign_change"))
    if first is None or not first < lam:
        bad.append(f"first sign change {results.get('first_sign_change')} "
                   f"not below lambda={lam:g}")
    resid = finite(results.get("shoot_residual"))
    if resid is None or not resid < 1e-6:
        bad.append(f"route disagreement {results.get('shoot_residual')}")
    return bad


def check_evolve_eigenmode(results, mu2):
    bad = []
    omega, width = finite(results.get("dominant_omega")), \
        finite(results.get("bin_width"))
    if omega is None or width is None or \
            not abs(omega - math.sqrt(mu2)) <= 2.0 * width:
        bad.append(f"dominant omega {results.get('dominant_omega')} not "
                   f"within 2 bins of sqrt(mu2) = {math.sqrt(mu2):.6g}")
    ratio = finite(results.get("decay_ratio"))
    if ratio is None or not ratio > 0.9:
        bad.append(f"eigenmode decay ratio {results.get('decay_ratio')} "
                   f"not above 0.9")
    return bad + _check_drift(results)


def check_evolve_bump(results):
    bad = []
    ratio = finite(results.get("decay_ratio"))
    if ratio is None or not ratio < 0.1:
        bad.append(f"bump decay ratio {results.get('decay_ratio')} "
                   f"not below 0.1")
    return bad + _check_drift(results)


def _check_drift(results):
    drift = finite(results.get("energy_drift"))
    if drift is None or not drift < DRIFT_TOL:
        return [f"energy drift {results.get('energy_drift')} not below "
                f"{DRIFT_TOL:g}"]
    return []
