"""Shooting engine: starts, integration, counting, fits, renormalization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import gapspec as gs
from gapspec import _kernels
from gapspec.errors import (DomainError, FitUnreliable, SeriesRadiusExceeded,
                            TailNotAsymptotic)
from gapspec.ode_engine import (_free_radius, _free_start, _series_coeffs,
                                _series_radius, asymptotic_radius)
from gapspec.spectral import default_count_radius

from conftest import (B_SPHERE_K1, MU2_LARGEK_100, MU2_LARGEK_INF_100,
                      MU2_SPHERE_K2, MU2_SPHERE_K3_L40, MU2_YM)

# mu2 probes of the free start: the zero mode, a gap eigenvalue, the edge
# and the continuum
FREE_MU2 = (0.0, 0.0079, 0.2499, 0.5)


def test_series_start_euclidean_leading_power():
    start = gs.series_start(gs.euclidean(2), 0.0, 1e-3)
    assert start.phi / 1e-3 ** 2.5 == pytest.approx(1.0, rel=1e-6)


def test_series_start_free_exponent():
    start = gs.series_start(gs.half_line(gs.sphere(1, 0.0)), 0.25, 1e-3)
    assert start.phi / 1e-3 ** 1.5 == pytest.approx(1.0, rel=1e-6)
    assert start.phi_prime / 1e-3 ** 0.5 == pytest.approx(1.5, rel=1e-6)


def test_series_start_self_convergence():
    # moving the seed deeper into the series region must not move the shot
    op = gs.half_line(gs.sphere(2, 3.0))
    a = gs.endpoint_state(op, 0.1, gs.series_start(op, 0.1), 2.0)
    b = gs.endpoint_state(op, 0.1, gs.series_start(op, 0.1, 2e-4), 2.0)
    va = a.phi * math.exp(a.log_scale)
    vb = b.phi * math.exp(b.log_scale)
    assert va == pytest.approx(vb, rel=1e-9)


def test_series_start_guards():
    op = gs.half_line(gs.sphere(2, 3.0))
    with pytest.raises(SeriesRadiusExceeded):
        gs.series_start(op, 0.1, 0.5)
    with pytest.raises(DomainError):
        gs.series_start(op, 0.1, -1.0)


@pytest.mark.parametrize("geom", [gs.sphere(1, 1.0), gs.sphere(2, 1.0),
                                  gs.sphere(3, 1.0), gs.yang_mills(1.0)],
                         ids=["sphere1", "sphere2", "sphere3", "ym"])
@pytest.mark.parametrize("lam", [0.5, 5.0, 40.0])
def test_rescaled_series_is_half_line_series(geom, lam):
    # the rescaled operator is the half-line one at r = 2 rho/lambda times
    # 4/lambda^2, so its regular solution at eps is the half-line one at
    # mu2 = lambda^2 eps/4, with leading coefficient (lambda/2)^nu
    g = type(geom)(geom.kind, geom.k, lam)
    res, half = gs.rescaled(g), gs.half_line(g)
    edge = 1.0 / lam ** 2
    nu = g.k + 0.5
    for eps in (0.0, 0.5 * edge, edge, 2.0 * edge):
        mu2 = 0.25 * lam * lam * eps
        rho0 = min(_series_radius(*_series_coeffs(res, eps))[0],
                   0.5 * lam * _series_radius(*_series_coeffs(half, mu2))[0])
        a = gs.series_start(res, eps, rho0)
        b = gs.series_start(half, mu2, 2.0 * rho0 / lam)
        assert a.phi / b.phi == pytest.approx((0.5 * lam) ** nu, rel=1e-14)
        ratio = (a.phi_prime / a.phi) / (b.phi_prime / b.phi)
        assert ratio == pytest.approx(2.0 / lam, rel=1e-14)


@pytest.mark.parametrize("k", [3, 8, 16, 30])
def test_free_start_hypergeometric_oracle(k):
    # phi0 = 2^k sinh^(1/2)(r) tanh^k(r/2) 2F1(a, b; k+1; -sinh^2(r/2)),
    # a + b = 1, ab = mu2, is the default start of the Theta = 100 pullback
    lam = 100.0 ** (1.0 / k)
    op = gs.half_line(gs.sphere(k, lam))
    rf = _free_radius(k, lam)
    assert rf > 1e-3

    def phi0(r, mu2):
        a = (1 + mpmath.sqrt(1 - 4 * mpmath.mpf(mu2))) / 2
        return (2 ** k * mpmath.sqrt(mpmath.sinh(r)) * mpmath.tanh(r / 2) ** k
                * mpmath.hyp2f1(a, 1 - a, k + 1, -mpmath.sinh(r / 2) ** 2))

    with mpmath.workdps(30):
        for mu2 in FREE_MU2:
            assert gs.series_start(op, mu2) == _free_start(k, mu2, rf)
            for r in (1e-3, rf, 1.0):
                st = _free_start(k, mu2, r)
                lift = math.exp(st.log_scale)
                ref = mpmath.re(phi0(mpmath.mpf(r), mu2))
                dref = mpmath.re(mpmath.diff(lambda x: phi0(x, mu2),
                                             mpmath.mpf(r)))
                assert st.phi * lift == pytest.approx(float(ref), rel=1e-13)
                assert st.phi_prime * lift == pytest.approx(float(dref),
                                                            rel=1e-13)


@pytest.mark.parametrize("k", [3, 8, 16, 30])
def test_free_start_matches_tight_series_shot(k):
    # V perturbs phi0 by a relative 2 (lambda tanh(r/2))^(2k) <= 1e-12 at
    # its start radius: a tight shot from the series start at 1e-3 reaches
    # it with the same log-derivative and the same normalization
    op = gs.half_line(gs.sphere(k, 100.0 ** (1.0 / k)))
    for mu2 in FREE_MU2:
        st = gs.series_start(op, mu2)
        end = gs.endpoint_state(op, mu2, gs.series_start(op, mu2, 1e-3),
                                st.x, rtol=1e-14, atol=0.0)
        assert end.phi_prime / end.phi == pytest.approx(
            st.phi_prime / st.phi, rel=2e-12)
        assert end.phi * math.exp(end.log_scale - st.log_scale) == \
            pytest.approx(st.phi, rel=2e-12)


@pytest.mark.parametrize("lam", [40.0, 100.0])
def test_k3_series_start_holds_the_map_potential(lam):
    # at k = 3 the series leaves out V, whose leading term enters at the
    # order of c6; the radius is capped where V's relative effect
    # 2 (lambda tanh(r/2))^(2k) is 1e-12, so a tight shot from a series
    # start twenty times farther in reaches it with the same log-derivative
    op = gs.half_line(gs.sphere(3, lam))
    for mu2 in (0.0, MU2_SPHERE_K3_L40, 0.2499):
        st = gs.series_start(op, mu2)
        assert st.x == _free_radius(3, lam)
        end = gs.endpoint_state(op, mu2, gs.series_start(op, mu2, st.x / 20),
                                st.x, rtol=1e-14, atol=0.0)
        assert end.phi_prime / end.phi == pytest.approx(
            st.phi_prime / st.phi, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k,lam", [(1, 1e4), (2, 1e3), (2, 1e4)])
def test_factored_series_start_holds_the_map_logder(k, lam):
    # f = 1 - mu2 x^2/(4 nu + 2) leaves the map's part of W out at every k,
    # so its radius is capped where that part's relative effect is 1e-12;
    # from the uncapped series radius f'/f is off by 8e-5 to 4e-3 here
    op = gs.half_line(gs.sphere(k, lam))
    for mu2 in (1e-8, 0.1, 0.2499):
        st = gs.series_start(op, mu2, factored=True)
        assert st.factored and st.x == _free_radius(k, lam)
        inner = gs.series_start(op, mu2, st.x / 20, factored=True)
        end = gs.endpoint_state(op, mu2, inner, st.x, rtol=1e-14, atol=0.0)
        assert end.factored
        assert end.phi_prime / end.phi == pytest.approx(
            st.phi_prime / st.phi, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("k,lam,mu2", [
    (6, 100.0, 3.4369528858e-19), (8, 20.0, 3.7860439946e-17),
    (10, 50.0, 2.5763627580e-29), (16, 10.0, 2.4919678658e-28)])
def test_factored_start_slope_carries_mu2(k, lam, mu2):
    # at the oracle roots of these members f' is near 1e-22 and below; a
    # factored start on phi0 took it as phi0'/phi0 - W, a difference of
    # two O(k/r) numbers, and kept none of its digits
    st = gs.series_start(gs.half_line(gs.sphere(k, lam)), mu2, factored=True)
    assert st.factored
    assert st.phi_prime / st.x == pytest.approx(
        -2.0 * mu2 / (4.0 * (k + 0.5) + 2.0), rel=1e-14, abs=0.0)


def test_frozen_members_keep_series_start():
    # phi0 is exact only where 2 (lambda tanh(r/2))^(2k) <= 1e-12, inside
    # the series radius for every frozen half-line member: their shots,
    # and so their certificates and threshold fits, keep the series start
    # at the series radius (a radius 1e-11 beyond it is refused)
    members = ([(gs.sphere(2, lam), ev) for lam, ev in MU2_SPHERE_K2.items()]
               + [(gs.yang_mills(lam), ev) for lam, ev in MU2_YM.items()]
               + [(gs.sphere(3, 40.0), MU2_SPHERE_K3_L40)]
               + [(gs.sphere(1, lam), 0.25) for lam in B_SPHERE_K1])
    for geom, ev in members:
        op = gs.half_line(geom)
        for mu2 in (0.0, ev, 0.25):
            st = gs.series_start(op, mu2)
            assert st.log_scale == 0.0
            assert st == gs.series_start(op, mu2, st.x)
            with pytest.raises(SeriesRadiusExceeded):
                gs.series_start(op, mu2, st.x * (1.0 + 1e-11))


def test_high_k_count_shot_starts_late():
    # at Theta = 100 and k = 16, phi0 starts the pullback's phi shot at
    # r = 0.64 instead of 1e-3 and skips the stretch where the shot follows
    # phi ~ r^(k+1/2); integrate takes the count shot's steps and stores them
    mu2 = MU2_LARGEK_100[16]
    pull = gs.half_line(gs.sphere(16, 100.0 ** (1.0 / 16)))
    x_a = asymptotic_radius(pull, mu2, default_count_radius(pull))
    steps = [gs.integrate(pull, mu2, gs.series_start(pull, mu2, r0),
                          x_a).grid.size - 1 for r0 in (None, 1e-3)]
    assert steps[0] <= 0.3 * steps[1]


def test_finite_k_large_k_has_no_shot():
    # the finite-k normal form is shot on its half-line pullback only: it
    # has no start, and a shot of kernel code 5 is refused before the
    # kernel runs, since the kernel integrates it without its weight
    lk = gs.large_k(8, 100.0)
    with pytest.raises(DomainError):
        gs.series_start(lk, 0.01)
    for shot in (gs.integrate, gs.endpoint_state, gs.count_zeros):
        with pytest.raises(DomainError):
            shot(lk, 0.01, (-3.0, 1.0, 1.0, 0.0), -1.0)
    # the k = inf member starts in s at L0 = 25 on f = 1, f' = -mu2/(2W);
    # its phi start is the same start times zeta, and both count alike
    inf = gs.large_k(math.inf, 100.0)
    mu2 = MU2_LARGEK_INF_100 * (1.0 + 1e-6)
    fst = gs.series_start(inf, mu2, factored=True)
    start = gs.series_start(inf, mu2)
    w = _kernels.logder(_kernels.LARGEK_INF, 0.0, 100.0, -math.log(25.0))
    assert fst.factored and fst.x == start.x == -math.log(25.0)
    assert (fst.phi, fst.phi_prime) == (1.0, -mu2 / (2.0 * w))
    assert (start.phi, start.phi_prime) == (1.0, fst.phi_prime + w)
    assert start.log_scale == -25.0 - 0.5 * math.log(25.0)
    for st in (start, fst):
        assert gs.count_zeros(inf, mu2, st, default_count_radius(inf)) == 1
    # the euclidean family has no kernel W, so no shot runs it in f
    euc = gs.euclidean(2)
    with pytest.raises(DomainError):
        gs.count_zeros(euc, 0.1, gs.series_start(euc, 0.1, factored=True),
                       5.0)


@pytest.mark.parametrize("x_end", [math.nan, math.inf, -math.inf])
def test_non_finite_shot_end_is_refused(x_end):
    # a NaN end once made the kernel loop run no step (a silent count of
    # 0), and an infinite count radius made the asymptotic scan loop forever
    op = gs.half_line(gs.sphere(2, 10.0))
    start = gs.series_start(op, 0.2, factored=True)
    with pytest.raises(DomainError):
        asymptotic_radius(op, 0.2, x_end)
    for shot in (gs.integrate, gs.endpoint_state, gs.count_zeros):
        with pytest.raises(DomainError):
            shot(op, 0.2, start, x_end)


def test_integrate_zero_energy_stays_positive():
    op = gs.half_line(gs.sphere(1, 1.0))
    tr = gs.integrate(op, 0.0, gs.series_start(op, 0.0), 30.0)
    assert tr.zero_count == 0
    assert np.all(tr.values[:, 0] > 0.0)
    assert np.all(np.diff(tr.grid) > 0.0)


def test_integrate_oscillatory_above_edge():
    # frequency sqrt(mu2 - 1/4) = 1 over (1, 30) gives about 29/pi zeros
    op = gs.half_line(gs.sphere(1, 0.0))
    n = gs.count_zeros(op, 1.25, (1.0, 1.0, 0.0, 0.0), 30.0)
    assert n >= 8


def test_integrate_euclidean_tracks_closed_profile():
    op = gs.euclidean(2)
    tr = gs.integrate(op, 0.0, gs.series_start(op, 0.0), 50.0)
    assert tr.zero_count == 0
    vals = tr.values[:, 0] * np.exp(tr.log_scale)
    prof = tr.grid ** 2.5 / (1.0 + tr.grid ** 4)
    i = int(np.searchsorted(tr.grid, 40.0))
    assert vals[i] / prof[i] == pytest.approx(vals[-1] / prof[-1], rel=1e-4)


def test_integrate_matches_scipy_reference():
    op = gs.half_line(gs.sphere(2, 1.0))
    mu2 = 0.1
    start = gs.series_start(op, mu2)

    def rhs(x, y):
        return [y[1], (gs.effective_potential(op, x) - mu2) * y[0]]

    # phi0 starts this member at r = 1.7e-3 and carries (2 tanh(r/2))^2 in
    # its log scale; scipy gets the true values
    lift = math.exp(start.log_scale)
    ref = solve_ivp(rhs, (start.x, 10.0),
                    [start.phi * lift, start.phi_prime * lift],
                    method="DOP853", rtol=1e-11, atol=1e-13)
    tr = gs.integrate(op, mu2, start, 10.0)
    mine = tr.values[-1] * np.exp(tr.log_scale[-1])
    assert mine[0] == pytest.approx(ref.y[0][-1], rel=1e-8)
    assert mine[1] == pytest.approx(ref.y[1][-1], rel=1e-8)


def test_integrate_validation():
    op = gs.half_line(gs.sphere(1, 1.0))
    with pytest.raises(DomainError):
        gs.integrate(op, 0.1, (2.0, 1.0, 0.0, 0.0), 2.0)
    with pytest.raises(DomainError):
        gs.integrate(op, 0.1, (-1.0, 1.0, 0.0, 0.0), 2.0)


def test_count_zeros_matches_trace():
    op = gs.half_line(gs.sphere(2, 8.0))
    for mu2 in (0.01, 0.1, 0.2, 0.24):
        start = gs.series_start(op, mu2)
        tr = gs.integrate(op, mu2, start, 25.0)
        assert gs.count_zeros(op, mu2, start, 25.0) == tr.zero_count
    # count shots stop at the asymptotic radius and count the tail's zero
    # on (x_a, inf) in closed form; a trace out to forty decay lengths,
    # past any zero of the tail, counts them all. A factored count (f =
    # phi/zeta, whose zeros are those of phi) from the count radius counts
    # the same. The eigenvalues are in each operator's own parameter, and
    # the offsets and probes scale with its edge
    cases = [
        (gs.half_line(gs.sphere(2, 5.0)), MU2_SPHERE_K2[5.0]),
        (gs.half_line(gs.yang_mills(10.0)), MU2_YM[10.0]),
        (gs.large_k(math.inf, 100.0), MU2_LARGEK_INF_100),
        (gs.rescaled(gs.sphere(2, 5.0)), 4.0 * MU2_SPHERE_K2[5.0] / 25.0)]
    for op, ev in cases:
        edge = gs.continuum_edge(op)
        R_count = default_count_radius(op)
        probes = [ev + 4.0 * edge * d for d in (-1e-6, -1e-9, 1e-9, 1e-6)]
        probes += [4.0 * edge * f for f in (0.1, 0.2, 0.249)]
        for mu2 in probes:
            R = max(R_count, min(200.0, 40.0 / math.sqrt(edge - mu2)))
            x_a = asymptotic_radius(op, mu2, R)
            assert x_a < R
            start = gs.series_start(op, mu2)
            tr = gs.integrate(op, mu2, start, R)
            assert gs.count_zeros(op, mu2, start, R) == tr.zero_count
            assert tr.zero_count == (mu2 > ev)
            fst = gs.series_start(op, mu2, factored=True)
            assert fst.factored
            assert gs.count_zeros(op, mu2, fst, R_count) == tr.zero_count
            if mu2 == probes[2]:
                # just above the eigenvalue the zero sits past x_a, so the
                # closed-form branch decides it
                phi = tr.values[:, 0]
                last = np.nonzero(phi[1:] * phi[:-1] < 0.0)[0][-1]
                assert tr.grid[last] > x_a


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_zero_count_monotone_in_mu2(data):
    if data.draw(st.booleans()):
        geom = gs.sphere(data.draw(st.integers(1, 5)),
                         data.draw(st.floats(0.1, 20.0)))
    else:
        geom = gs.yang_mills(data.draw(st.floats(0.1, 20.0)))
    op = gs.half_line(geom)
    counts = [gs.count_zeros(op, m, gs.series_start(op, m), 20.0)
              for m in np.linspace(0.0, 0.249, 20)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_tail_start_decaying():
    op = gs.half_line(gs.sphere(2, 5.0))
    start = gs.tail_start_decaying(op, 0.0, 60.0)
    assert start.phi_prime / start.phi == pytest.approx(-0.5)
    assert start.log_scale == pytest.approx(-30.0)
    with pytest.raises(DomainError):
        gs.tail_start_decaying(op, 0.3, 60.0)
    with pytest.raises(TailNotAsymptotic):
        gs.tail_start_decaying(op, 0.24, 15.0)


def test_forward_backward_wronskian_at_eigenvalue():
    mu2 = MU2_SPHERE_K2[5.0]
    op = gs.half_line(gs.sphere(2, 5.0))
    fwd = gs.endpoint_state(op, mu2, gs.series_start(op, mu2), 1.0)
    bwd = gs.endpoint_state(op, mu2, gs.tail_start_decaying(op, mu2, 45.0),
                            1.0)
    m = math.sqrt(0.25 - mu2)
    w = fwd.phi * bwd.phi_prime - fwd.phi_prime * bwd.phi
    assert abs(w) < 1e-8 * abs(fwd.phi) * abs(bwd.phi) * m


def test_fit_threshold_frozen_intercepts():
    op = gs.half_line(gs.sphere(1, 1.0))
    tr = gs.integrate(op, 0.25, gs.series_start(op, 0.25), 60.0, max_step=0.6)
    fit = gs.fit_threshold(tr)
    assert fit.fit_residual < 1e-10
    assert fit.a == pytest.approx(0.4319284, rel=1e-5)
    assert fit.b == pytest.approx(B_SPHERE_K1[1.0], rel=1e-5)


def test_fit_threshold_free_operator_slope():
    op = gs.half_line(gs.sphere(1, 0.0))
    tr = gs.integrate(op, 0.25, gs.series_start(op, 0.25), 60.0, max_step=0.6)
    assert gs.fit_threshold(tr).b > 0.0


@pytest.mark.parametrize("k,lam", [(16, 1.33), (2, 1.35)])
def test_fit_threshold_scale_invariants(k, lam):
    # a and b are relative to the log scale at the start of the fit window,
    # so they depend on where the shot starts (for sphere(16, 1.33) a is
    # 5.2e6 from phi0 and 4.8e48 from the series start at 1e-3); b/a and
    # the sign of b do not
    op = gs.half_line(gs.sphere(k, lam))
    assert gs.series_start(op, 0.25).x > 1e-3
    new, old = (gs.fit_threshold(gs.integrate(
        op, 0.25, gs.series_start(op, 0.25, r0), 60.0, max_step=0.6))
        for r0 in (None, 1e-3))
    assert new.b / new.a == pytest.approx(old.b / old.a, rel=1e-10)
    assert (new.b > 0.0) == (old.b > 0.0)


def test_fit_threshold_window_guard():
    op = gs.half_line(gs.sphere(1, 1.0))
    tr = gs.integrate(op, 0.25, gs.series_start(op, 0.25), 60.0, max_step=0.6)
    with pytest.raises(FitUnreliable):
        gs.fit_threshold(tr, window=(59.9, 60.0))


def test_renormalized_identity_at_zero_energy():
    sol = gs.renormalized_f(gs.sphere(2, 10.0), 0.0, 10.0)
    assert np.all(sol.f == 1.0)
    assert np.all(sol.f_prime == 0.0)
    assert sol.shoot_residual < 1e-6


def test_renormalized_edge_claims_lambda40():
    lam = 40.0
    sol = gs.renormalized_f(gs.sphere(2, lam), 0.25, lam)
    rho0 = lam * math.atanh(1.0 / lam)
    head = sol.f[sol.grid <= rho0]
    assert np.all(head >= 0.5)
    zeta0 = np.interp(rho0, sol.grid, sol.zeta)
    fp0 = np.interp(rho0, sol.grid, sol.f_prime)
    assert abs(fp0) >= (4.0 / 6.0) * lam ** -5 / zeta0 ** 2
    # f decreases as long as it stays positive
    pos = sol.f > 0.0
    run = np.nonzero(~pos)[0]
    stop = run[0] if run.size else sol.f.size
    assert np.all(np.diff(sol.f[:stop]) <= 1e-12)
    assert sol.shoot_residual < 1e-6


@pytest.mark.parametrize("lam", [20.0, 40.0])
def test_renormalized_sign_change_before_lambda(lam):
    sol = gs.renormalized_f(gs.sphere(2, lam), 0.25, lam)
    neg = np.nonzero(sol.f < 0.0)[0]
    assert neg.size > 0
    assert sol.grid[neg[0]] < lam


def test_renormalized_guards():
    for lam, rho_max in ((0.0, 5.0), (5.0, 0.0), (5.0, -1.0), (5.0, 1e-5),
                         (5.0, math.nan)):
        with pytest.raises(DomainError):
            gs.renormalized_f(gs.sphere(2, lam), 0.25, rho_max)
    # far past the core the factored shot stays finite: f decays with the
    # edge state over the growing zero mode, and agrees with the phi-shot
    sol = gs.renormalized_f(gs.sphere(2, 2.0), 0.25, 200.0)
    assert np.all(np.isfinite(sol.f)) and np.all(np.isfinite(sol.f_prime))
    assert abs(sol.f[-1]) < 1e-30
    assert sol.shoot_residual < 1e-6
    # the step cap keeps at least a hundred samples even where f = 1 exactly
    assert gs.renormalized_f(gs.sphere(2, 5.0), 0.0, 5.0).grid.size >= 100


def test_endpoint_state_matches_trace_end():
    op = gs.half_line(gs.yang_mills(2.0))
    start = gs.series_start(op, 0.1)
    tr = gs.integrate(op, 0.1, start, 15.0)
    end = gs.endpoint_state(op, 0.1, start, 15.0)
    assert end.x == tr.end.x
    assert end.phi == pytest.approx(tr.end.phi, rel=1e-12)
    assert end.phi_prime == pytest.approx(tr.end.phi_prime, rel=1e-12)
    assert end.log_scale == pytest.approx(tr.end.log_scale, abs=1e-12)


def test_scale_ledger_reconstruction():
    # high-index operator: from the series start at 1e-3 the regular branch
    # spans over a hundred decades, forcing a mid-flight rescale (from the
    # default start, phi0 at r = 1, the shot would not rescale before
    # r = 2); reconstruction across it must match an independent
    # high-precision integration over a window straddling the event
    k, mu2 = 40, 0.1
    op = gs.half_line(gs.sphere(k, 1.0))
    tr = gs.integrate(op, mu2, gs.series_start(op, mu2, 1e-3), 2.0)
    # every rescale shows as a jump of the running log scale
    events = np.flatnonzero(np.diff(tr.log_scale)) + 1
    assert events.size, "expected at least one mid-flight rescale"
    ia = int(np.searchsorted(tr.grid, tr.grid[events[0]] - 0.1))
    ib = int(np.searchsorted(tr.grid, tr.grid[events[0]] + 0.1))
    assert tr.log_scale[ia] != tr.log_scale[ib]

    mpmath.mp.dps = 35
    q = mpmath.mpf("0.25")

    def u_ref(r):
        sh = mpmath.sinh(r)
        x = mpmath.tanh(r / 2) ** k
        v = -8 * k * k * x * x / ((1 + x * x) ** 2 * sh * sh)
        return q + (k * k - q) / (sh * sh) + v

    lga = mpmath.mpf(tr.log_scale[ia])
    ya = [mpmath.mpf(tr.values[ia, 0]) * mpmath.e ** lga,
          mpmath.mpf(tr.values[ia, 1]) * mpmath.e ** lga]
    sol = mpmath.odefun(
        lambda r, y: [y[1], (u_ref(r) - mpmath.mpf(mu2)) * y[0]],
        mpmath.mpf(tr.grid[ia]), ya, tol=mpmath.mpf(10) ** -25)
    ref = [x * mpmath.e ** -lga for x in sol(mpmath.mpf(tr.grid[ib]))]
    lift = math.exp(tr.log_scale[ib] - tr.log_scale[ia])
    assert tr.values[ib, 0] * lift == pytest.approx(float(ref[0]), rel=1e-9)
    assert tr.values[ib, 1] * lift == pytest.approx(float(ref[1]), rel=1e-9)
