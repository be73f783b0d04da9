"""Independent oracle for the frozen gap eigenvalues.

A factored shot on scipy's DOP853 that shares no code with the library's
kernels or shooting engine. With zeta the closed-form zero mode and
W = zeta'/zeta, f = phi/zeta solves f'' + 2W f' + mu2 f = 0, where

    W = kk (1 - t)/((1 + t) sinh r) + coth(r)/2,

t = (lambda tanh(r/2))^(2k) for the sphere (kk = k) and (lambda tanh(r/2))^2
for Yang-Mills (kk = 2). The regular solution starts on
f = 1 - mu2 r^2/(4 nu + 2), nu = kk + 1/2, which leaves out the map's part
of W, so at r0 = 1e-4 or where t <= 1e-12 if that is closer in (at
r0 = 1e-4 sphere(2, 1e4) would come out 2.9e-4 off); the decaying one at
R = 40 on
f'/f = -m - W(R), m = sqrt(1/4 - mu2); brentq finds the zero of their
normalized Wronskian at the core r = 2 artanh(lambda^(-1/k)). In this form
the second solution decreases outward, so neither leg amplifies its start
error. At rtol 1e-13 the roots at R = 40 and 60 agree to 3e-14 relative,
and rtol 1e-12 moves them by at most 6e-12. The legs run at rtol 2.5e-14,
just above the 100 eps = 2.2e-14 to which scipy clamps DOP853's rtol, with
a UserWarning; against rtol 1e-13 that brings the oracle from 2.2e-10 to
7.7e-10 of the library's k = 5 roots at lambda = 1e3 to 1e6 to within
7.3e-11.

The same module holds a phi-form shot on the written-out half-line
potential, phi'' = (U - mu2) phi from phi = r0^nu, phi' = nu r0^(nu - 1):
the reference for tests that read phi, whose library values are zeta f.
Its start leaves out the x^2 term of the Frobenius series; that error lies
mostly along the regular solution itself, and its part along the second
solution dies off like (r0/r)^(2 nu), so ratios of phi values and b/a at
the edge do not see it.

The k = inf large-k member is shot the same way in s = -log L,
L = log(Theta/rho), over its zero mode rho (1 + rho^2)^-1 L^(-1/2), whose
log-derivative is W = L (1 - rho^2)/(1 + rho^2) + 1/2: the regular leg
starts at rho = exp(-30), L = 30 + log Theta, on f = 1, f' = -mu2/(2W),
the decaying one at s = 20, and they match at rho = 1. A start at fixed
L = 30, rho = Theta exp(-30), drifts like Theta^2: 6e-11 at Theta = 1e9,
8e-9 at 1e10.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import gapspec as gs
from gapspec import _kernels
from gapspec.cli import main
from gapspec.errors import GapspecError

from conftest import (MU2_LARGEK_INF_100, MU2_SPHERE_K2, MU2_SPHERE_K3_L40,
                      MU2_YM)


def _logder(kind, k, lam, r):
    T = math.tanh(0.5 * r)
    if kind == "sphere":
        kk, t = k, (lam * T) ** (2 * k)
    else:
        kk, t = 2, (lam * T) ** 2
    return kk * (1.0 - t) / ((1.0 + t) * math.sinh(r)) + 0.5 / math.tanh(r)


def _rhs(kind, k, lam, mu2, m2=None):
    """f'' = -2W f' - mu2 f; with the binding m2 = 1/4 - mu2 given, mu2 f
    is taken as f/4 - m2 f, so a binding far below an ulp of 1/4 keeps its
    digits."""
    def rhs(r, y):
        mu2f = mu2 * y[0] if m2 is None else 0.25 * y[0] - m2 * y[0]
        return [y[1], -2.0 * _logder(kind, k, lam, r) * y[1] - mu2f]
    return rhs


def _regular_start(kind, k, lam, mu2):
    nu = (k if kind == "sphere" else 2) + 0.5
    power = 2 * k if kind == "sphere" else 2
    r0 = min(1e-4, 2.0 * math.atanh(1e-12 ** (1.0 / power) / lam))
    c = -mu2 / (4.0 * nu + 2.0)
    return r0, [1.0 + c * r0 * r0, 2.0 * c * r0]


def _potential(kind, k, lam, r):
    """U of phi'' = (U - mu2) phi on the half-line, 1/4 at infinity."""
    om2 = 1.0 / math.sinh(r) ** 2
    T = math.tanh(0.5 * r)
    if kind == "sphere":
        x = (lam * T) ** k
        v = -8.0 * k * k * om2 / (x + 1.0 / x) ** 2 if x > 0.0 else 0.0
        return 0.25 + (k * k - 0.25) * om2 + v
    y = (lam * T) ** 2
    return 0.25 + 3.75 * om2 - 24.0 * y * om2 / (1.0 + y) ** 2


def phi_shot(kind, k, lam, mu2, r0, r1, y0=None, rtol=1e-13, **kwargs):
    """DOP853 shot of phi'' = (U - mu2) phi from r0 to r1, by default from
    phi = r0^nu, phi' = nu r0^(nu - 1) (the regular solution); extra
    keyword arguments go to solve_ivp."""
    if y0 is None:
        nu = (k if kind == "sphere" else 2) + 0.5
        y0 = [r0 ** nu, nu * r0 ** (nu - 1.0)]

    def rhs(r, y):
        return [y[1], (_potential(kind, k, lam, r) - mu2) * y[0]]

    return solve_ivp(rhs, (r0, r1), y0, method="DOP853", rtol=rtol,
                     atol=1e-300, **kwargs)


def _mismatch(kind, k, lam, mu2, xm, R=40.0, rtol=2.5e-14, m2=None):
    rhs = _rhs(kind, k, lam, mu2, m2)
    r0, y0 = _regular_start(kind, k, lam, mu2)
    m = math.sqrt(0.25 - mu2 if m2 is None else m2)
    fwd = solve_ivp(rhs, (r0, xm), y0, method="DOP853", rtol=rtol,
                    atol=1e-300)
    bwd = solve_ivp(rhs, (R, xm), [1.0, -m - _logder(kind, k, lam, R)],
                    method="DOP853", rtol=rtol, atol=1e-300)
    f1, g1 = fwd.y[:, -1]
    f2, g2 = bwd.y[:, -1]
    return (f1 * g2 - g1 * f2) / (abs(f1) * abs(f2) * m)


def oracle_first_zero(kind, k, lam, mu2, R=40.0, rtol=1e-13):
    """First zero in r of the regular factored solution at mu2."""
    r0, y0 = _regular_start(kind, k, lam, mu2)

    def crossing(r, y):
        return y[0]
    crossing.terminal = True

    sol = solve_ivp(_rhs(kind, k, lam, mu2), (r0, R), y0, method="DOP853",
                    rtol=rtol, atol=1e-300, events=crossing)
    return float(sol.t_events[0][0])


def _core(kind, k, lam):
    """The matching point r = 2 artanh(lambda^(-1/k)) (k = 1 for YM)."""
    return 2.0 * math.atanh(lam ** (-1.0 / (k if kind == "sphere" else 1)))


def oracle_mu2(kind, k, lam, guess):
    """Root of the factored mismatch, bracketed outward from `guess`."""
    xm = _core(kind, k, lam)
    return _root(lambda mu2: _mismatch(kind, k, lam, mu2, xm), guess)


def oracle_binding(kind, k, lam, guess):
    """Root in the binding m2 = 1/4 - mu2 of the factored mismatch,
    bracketed outward from `guess`; for roots next to the edge, where
    oracle_mu2 cannot bracket and mu2 keeps few digits of the binding."""
    xm = _core(kind, k, lam)
    return _root(lambda m2: _mismatch(kind, k, lam, 0.25 - m2, xm, m2=m2),
                 guess, cap=0.25)


def _root(f, guess, cap=0.25 - 1e-6):
    """Root of f, bracketed outward from `guess`.

    The bracket guess (1 -+ 1e-6) widens in log, its half-width doubling
    each step, so a guess nine decades off is bracketed in about 25 steps;
    the upper end stays at or below `cap`, by default 1e-6 below the edge
    in mu2."""
    step = 1e-6
    lo, hi = guess * (1.0 - step), guess * (1.0 + step)
    while f(lo) * f(hi) > 0.0:
        assert step < 300.0, f"no sign change of the mismatch around {guess}"
        step *= 2.0
        lo = guess * math.exp(-step)
        hi = min(guess * math.exp(step), cap)
    # relative only: the deepest members sit near mu2 = 1e-29
    return brentq(f, lo, hi, xtol=1e-300, rtol=1e-15)


def _largek_inf_logder(theta, s):
    L = math.exp(-s)
    r2 = (theta * math.exp(-L)) ** 2
    return L * (1.0 - r2) / (1.0 + r2) + 0.5


def _largek_inf_potential(theta, s):
    L = math.exp(-s)
    r2 = (theta * math.exp(-L)) ** 2
    return 0.25 + L * L * (1.0 - 6.0 * r2 + r2 * r2) / (1.0 + r2) ** 2


def _largek_inf_mismatch(theta, mu2, factored=True, rtol=1e-13):
    """Normalized Wronskian at rho = 1 of the k = inf member, shot in f or,
    with the same starts times the zero mode, in phi against the written-out
    potential W^2 + W_s."""
    s0 = -math.log(30.0 + math.log(theta))
    s1, sm = 20.0, -math.log(math.log(theta))
    w0 = _largek_inf_logder(theta, s0)
    m = math.sqrt(0.25 - mu2)
    fp = -mu2 / (2.0 * w0)
    if factored:
        def rhs(s, y):
            return [y[1],
                    -2.0 * _largek_inf_logder(theta, s) * y[1] - mu2 * y[0]]
        y0, y1 = [1.0, fp], [1.0, -m - _largek_inf_logder(theta, s1)]
    else:
        def rhs(s, y):
            return [y[1], (_largek_inf_potential(theta, s) - mu2) * y[0]]
        y0, y1 = [1.0, fp + w0], [1.0, -m]
    fwd = solve_ivp(rhs, (s0, sm), y0, method="DOP853", rtol=rtol,
                    atol=1e-300)
    bwd = solve_ivp(rhs, (s1, sm), y1, method="DOP853", rtol=rtol,
                    atol=1e-300)
    f1, g1 = fwd.y[:, -1]
    f2, g2 = bwd.y[:, -1]
    return (f1 * g2 - g1 * f2) / (abs(f1) * abs(f2) * m)


def oracle_largek_inf_mu2(theta, guess, factored=True):
    return _root(lambda mu2: _largek_inf_mismatch(theta, mu2, factored),
                 guess)


FROZEN = {**{("sphere", 2, lam): v for lam, v in MU2_SPHERE_K2.items()},
          **{("ym", 2, lam): v for lam, v in MU2_YM.items()},
          ("sphere", 3, 40.0): MU2_SPHERE_K3_L40}


@pytest.mark.parametrize("kind,k,lam", sorted(FROZEN))
def test_frozen_eigenvalues_match_oracle(kind, k, lam):
    # the deep-well members were frozen from this oracle alone; lambda = 5
    # and 10 are the library's own values, within 2e-11 of it
    frozen = FROZEN[kind, k, lam]
    rel = 1e-10 if lam <= 10.0 else 1e-11
    assert oracle_mu2(kind, k, lam, frozen) == pytest.approx(frozen, rel=rel)


LARGE_LAMBDA = [
    ("sphere", 2, 200.0), ("sphere", 2, 600.0), ("sphere", 2, 800.0),
    ("sphere", 2, 1e4), ("sphere", 3, 100.0), ("sphere", 3, 200.0),
    ("sphere", 3, 1000.0), ("sphere", 5, 1500.0), ("sphere", 6, 300.0),
    ("sphere", 6, 100.0), ("sphere", 8, 20.0), ("sphere", 10, 50.0),
    ("sphere", 16, 10.0), ("ym", 2, 1e3), ("ym", 2, 1e4)]
# a matching point from a potential scan left the well from lambda ~ 5e3
# on: sphere(4, 1e5) was certified 3.2e-4 off (its refine also stopped on
# an absolute 1e-25 width), and the other seven raised
DEEP_WELLS = [
    ("sphere", 4, 1e5), ("sphere", 4, 3e4), ("sphere", 2, 1e6),
    ("sphere", 2, 1e7), ("ym", 2, 1e6), ("ym", 2, 1e7), ("sphere", 3, 1e6),
    ("sphere", 20, 1e4)]
LAMBDA_GRID = [(kind, k, lam) for lam in (1e3, 1e4, 1e5, 1e6)
               for kind, k in [("sphere", 2), ("sphere", 3), ("sphere", 4),
                               ("sphere", 5), ("sphere", 6), ("ym", 2)]]


@pytest.mark.parametrize("kind,k,lam", list(dict.fromkeys(
    LARGE_LAMBDA + DEEP_WELLS + LAMBDA_GRID)))
def test_large_lambda_certification_matches_oracle(kind, k, lam):
    # past the core a phi-form shot tunnels under the centrifugal barrier
    # in its unstable direction, so deep members hold both factored routes,
    # the count and the match, to the oracle; at k = 5 and 6 mu2 is near
    # 1e-24, where only a refine step that keeps its relative digits holds.
    # The k = 6 to 16 members at lambda <= 100 hold the factored start's
    # f', which must carry mu2's digits: taken as phi0'/phi0 - W, a
    # difference of two O(k/r) numbers, it certified sphere(16, 10) at
    # 6.2e-21 for a root at 2.5e-28. Of the lambda grid, the k = 5
    # members sit 9.8e-12 to 7.3e-11 from the oracle, the k = 6 ones
    # within 4.6e-12 and the rest within 2.2e-12
    rep = gs.find_gap_eigenvalues(gs.half_line(gs.GeometrySpec(kind, k, lam)),
                                  scans=False, threshold=False)
    assert rep.count == 1
    ev = rep.eigenvalues[0]
    assert ev.oscillation == (0, 1)
    assert ev.bracket[0] <= ev.mu2 <= ev.bracket[1]
    assert ev.mu2 == pytest.approx(oracle_mu2(kind, k, lam, ev.mu2),
                                   rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kind,k,lam,rel", [
    ("sphere", 1, 3.455, 1e-9), ("sphere", 1, 3.46, 1e-9),
    ("ym", 2, 2.09, 1e-9), ("sphere", 2, 1.687, 1e-9),
    ("sphere", 4, 1.284, 1e-9), ("sphere", 1, 3.45, 1e-8)])
def test_near_edge_binding_matches_oracle(kind, k, lam, rel):
    # roots within 1e-6 of the edge, once reported as an empty gap, held
    # on their binding 1/4 - mu2 (2.4e-7, 7.9e-7, 5.3e-7, 3.8e-8, 9.9e-7
    # and 6.1e-9), which mu2 carries to an ulp of 1/4, 2.8e-17: 4.6e-9 of
    # the last binding, which therefore has rel 1e-8 and may instead
    # refuse with a named error
    op = gs.half_line(gs.GeometrySpec(kind, k, lam))
    try:
        rep = gs.find_gap_eigenvalues(op, scans=False, threshold=False)
    except GapspecError:
        assert rel > 1e-9
        return
    assert rep.count == 1
    ev = rep.eigenvalues[0]
    assert ev.oscillation == (0, 1)
    binding = 0.25 - ev.mu2
    assert binding == pytest.approx(oracle_binding(kind, k, lam, binding),
                                    rel=rel, abs=0.0)


@pytest.mark.parametrize("k,theta", [(8, 1e6), (16, 1e6), (16, 1e4),
                                     (2, 1e3), (3, 1e4)])
def test_finite_large_k_matches_oracle(k, theta):
    # the finite-k normal form is the exact pullback of the half-line
    # sphere at lambda = Theta^(1/k); its former s-coordinate shot put the
    # first three members 6.7e-4, 2.3e-3 and 1.1e-8 off this root and
    # failed to certify the last two
    rep = gs.find_gap_eigenvalues(gs.large_k(k, theta), scans=False,
                                  threshold=False)
    assert rep.count == 1
    ev = rep.eigenvalues[0]
    assert ev.oscillation == (0, 1)
    lam = theta ** (1.0 / k)
    assert ev.mu2 == pytest.approx(oracle_mu2("sphere", k, lam, ev.mu2),
                                   rel=1e-9, abs=0.0)


@pytest.mark.parametrize("theta", [100.0, 1e3, 1e4, 1e6, 1e7, 1e8, 1e10,
                                   1e12])
def test_large_k_inf_matches_oracle(theta):
    # the k = inf member shoots f over its closed-form zero mode; its former
    # phi shot in s put this row 6.4e-10, 4.8e-8 and 8.4e-5 off the root at
    # Theta = 1e3, 1e4 and 1e6, with no error raised; its start at
    # log(Theta/rho) = 25, rho0 = Theta exp(-25), put it 1.5e-10, 1.9e-8 and
    # 5.9e-4 off at Theta = 1e7, 1e8 and 1e10, and 1e12 raised DomainError
    rep = gs.find_gap_eigenvalues(gs.large_k(math.inf, theta), scans=False,
                                  threshold=False)
    assert rep.count == 1
    ev = rep.eigenvalues[0]
    assert ev.oscillation == (0, 1)
    assert ev.mu2 == pytest.approx(oracle_largek_inf_mu2(theta, ev.mu2),
                                   rel=1e-9, abs=0.0)


def test_large_k_inf_oracle_forms_agree():
    # the f-form oracle against its phi form, shot on W^2 + W_s written out:
    # 2e-11 apart at Theta = 100; past it the phi form is noise-limited
    # (1.6e-9 at 1e3, 1.3e-7 at 1e4, 1.5e-3 at 1e6)
    f_root = oracle_largek_inf_mu2(100.0, MU2_LARGEK_INF_100)
    phi_root = oracle_largek_inf_mu2(100.0, MU2_LARGEK_INF_100,
                                     factored=False)
    assert phi_root == pytest.approx(f_root, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("k", [3, 4, 6, 8, 10, 12, 16])
@pytest.mark.parametrize("lam", [5.0, 10.0, 20.0, 50.0, 100.0])
def test_high_k_grid_certifies_oracle_roots(k, lam):
    # mu2 falls to 2.5e-58 across this grid; each member either refuses
    # with a named error or certifies a mu2 across which the oracle's
    # mismatch at the core changes sign at 1e-8 relative
    try:
        rep = gs.find_gap_eigenvalues(gs.half_line(gs.sphere(k, lam)),
                                      scans=False, threshold=False)
    except GapspecError:
        return
    xm = _core("sphere", k, lam)
    for ev in rep.eigenvalues:
        lo = _mismatch("sphere", k, lam, ev.mu2 * (1.0 - 1e-8), xm)
        hi = _mismatch("sphere", k, lam, ev.mu2 * (1.0 + 1e-8), xm)
        assert lo * hi < 0.0, (ev.mu2, lo, hi)


@pytest.mark.parametrize("lam", [20.0, 40.0])
def test_renorm_sign_change_matches_oracle(capsys, lam):
    # the rescaled operator's f(rho) is the half-line f at r = 2 rho/lambda,
    # and renorm's default mu2 = 1/4 probes the continuum edge
    assert main(["renorm", "--k", "2", "--lambda", repr(lam),
                 "--no-timestamp"]) == 0
    got = json.loads(capsys.readouterr().out)["results"]["first_sign_change"]
    want = 0.5 * lam * oracle_first_zero("sphere", 2, lam, 0.25)
    assert got == pytest.approx(want, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("kind,k,lam", [
    ("sphere", 1, 1.0), ("sphere", 2, 1.69), ("ym", 2, 2.09),
    ("sphere", 16, 1.33)])
def test_threshold_readout_matches_oracle(kind, k, lam):
    # the library reads phi = a + b x off one f shot at the edge in closed
    # form; the oracle fits a line by least squares to a phi shot on
    # [30, 54], where U - 1/4 is below 1e-24
    sol = phi_shot(kind, k, lam, 0.25, 1e-3, 54.0,
                   t_eval=np.linspace(30.0, 54.0, 97))
    b, a = np.polyfit(sol.t, sol.y[0], 1)
    fit = gs.fit_threshold(gs.half_line(gs.GeometrySpec(kind, k, lam)))
    assert fit.b / fit.a == pytest.approx(b / a, rel=1e-8, abs=0.0)


@pytest.mark.skipif(_kernels.USE_NUMBA,
                    reason="a compiled kernel does not see a patched W")
def test_renorm_residual_sees_a_mutated_w(monkeypatch):
    # W of the rescaled families scaled by 1 + 1e-6 leaves the shot a
    # smooth solution of the wrong equation; the Volterra identity, whose
    # zeta comes from operators.zero_mode, sees it
    logder = _kernels.logder

    def mutated(code, kk, p, x):
        w = logder(code, kk, p, x)
        return w * (1.0 + 1e-6) if code in (2, 3) else w

    for lam in (20.0, 30.0, 40.0):
        assert gs.renormalized_f(gs.sphere(2, lam), 0.25,
                                 lam).shoot_residual < 1e-8
    monkeypatch.setattr(_kernels, "logder", mutated)
    for lam in (20.0, 30.0, 40.0):
        assert gs.renormalized_f(gs.sphere(2, lam), 0.25,
                                 lam).shoot_residual > 1e-6
