"""Shooting engine: starts, integration, counting, fits, renormalization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import gapspec as gs
from gapspec import _kernels, ode_engine, spectral
from gapspec.errors import (DomainError, FitUnreliable, SeriesRadiusExceeded,
                            TailNotAsymptotic)
from gapspec.operators import op_code
from gapspec.ode_engine import (_edge_readout, _free_radius, _series_coeffs,
                                _series_radius, tail_radius)

from conftest import (B_SPHERE_K1, MU2_LARGEK_INF_100, MU2_SPHERE_K2,
                      MU2_SPHERE_K3_L40, MU2_YM)
from test_oracle import phi_shot

# mu2 probes of the start below the free radius: the zero mode, a gap
# eigenvalue, the edge and the continuum
FREE_MU2 = (0.0, 0.0079, 0.2499, 0.5)


def _phi(op, st):
    """(phi, phi') of a start or end state: zeta (f, f' + W f), zeta with
    leading coefficient 1 (written out for the euclidean family)."""
    code, kk, p = op_code(op)
    if code == _kernels.EUCLIDEAN:
        lz = (kk + 0.5) * math.log(st.x) - math.log1p(st.x ** (2.0 * kk))
    else:
        lz = float(_kernels.logzeta(code, kk, p, st.x))
    z = math.exp(st.log_scale + lz)
    return z * st.f, z * (st.f_prime + _kernels.logder(code, kk, p, st.x)
                          * st.f)


def test_series_start_euclidean_leading_power():
    op = gs.euclidean(2)
    start = gs.series_start(op, 0.0, 1e-3)
    assert (start.f, start.f_prime) == (1.0, 0.0)
    assert _phi(op, start)[0] / 1e-3 ** 2.5 == pytest.approx(1.0, rel=1e-6)


def test_series_start_free_exponent():
    op = gs.half_line(gs.sphere(1, 0.0))
    phi, dphi = _phi(op, gs.series_start(op, 0.25, 1e-3))
    assert phi / 1e-3 ** 1.5 == pytest.approx(1.0, rel=1e-6)
    assert dphi / 1e-3 ** 0.5 == pytest.approx(1.5, rel=1e-6)


def test_series_start_self_convergence():
    # moving the seed deeper into the series region must not move the shot
    op = gs.half_line(gs.sphere(2, 3.0))
    a = gs.endpoint_state(op, 0.1, gs.series_start(op, 0.1), 2.0)
    b = gs.endpoint_state(op, 0.1, gs.series_start(op, 0.1, 2e-4), 2.0)
    va = a.f * math.exp(a.log_scale)
    vb = b.f * math.exp(b.log_scale)
    assert va == pytest.approx(vb, rel=1e-9)


def test_series_start_guards():
    op = gs.half_line(gs.sphere(2, 3.0))
    with pytest.raises(SeriesRadiusExceeded):
        gs.series_start(op, 0.1, 0.5)
    with pytest.raises(DomainError):
        gs.series_start(op, 0.1, -1.0)
    # the k = 1 free radius, 1.4e-14 at lambda = 1e8, leaves a shot no
    # first step above the kernel's step floor: it raised StepSizeUnderflow
    deep = gs.half_line(gs.sphere(1, 1e8))
    with pytest.raises(DomainError, match=r"r0=1\.41421e-14 "
                       r"\(lambda=100000000\.0\).*1e-14"):
        gs.series_start(deep, 0.1)
    with pytest.raises(DomainError, match="start radius"):
        gs.find_gap_eigenvalues(deep, scans=False, threshold=False)
    assert gs.series_start(gs.half_line(gs.sphere(1, 1e7)), 0.1).x > 1e-13


@pytest.mark.parametrize("geom", [gs.sphere(1, 1.0), gs.sphere(2, 1.0),
                                  gs.sphere(3, 1.0), gs.yang_mills(1.0)],
                         ids=["sphere1", "sphere2", "sphere3", "ym"])
@pytest.mark.parametrize("lam", [0.5, 5.0, 40.0])
def test_rescaled_series_is_half_line_series(geom, lam):
    # the rescaled operator is the half-line one at r = 2 rho/lambda times
    # 4/lambda^2, so its regular solution at eps is the half-line one at
    # mu2 = lambda^2 eps/4: the same f, and a phi with leading coefficient
    # (lambda/2)^nu relative to the half-line one
    g = type(geom)(geom.kind, geom.k, lam)
    res, half = gs.rescaled(g), gs.half_line(g)
    edge = 1.0 / lam ** 2
    nu = g.k + 0.5
    for eps in (0.0, 0.5 * edge, edge, 2.0 * edge):
        mu2 = 0.25 * lam * lam * eps
        rho0 = min(_series_radius(*_series_coeffs(res, eps)),
                   0.5 * lam * gs.series_start(half, mu2).x)
        a = gs.series_start(res, eps, rho0)
        b = gs.series_start(half, mu2, 2.0 * rho0 / lam)
        assert a.f == pytest.approx(b.f, rel=1e-14)
        assert a.f_prime == pytest.approx(2.0 / lam * b.f_prime, rel=1e-14,
                                          abs=0.0)
        (pa, da), (pb, db) = _phi(res, a), _phi(half, b)
        assert pa / pb == pytest.approx((0.5 * lam) ** nu, rel=1e-12)
        assert (da / pa) / (db / pb) == pytest.approx(2.0 / lam, rel=1e-12)


@pytest.mark.parametrize("k", [3, 8, 16, 30])
def test_free_start_hypergeometric_oracle(k):
    # below the free radius the map's potential V is below 1e-12 in
    # relative effect, so the regular solution is the closed form of the
    # V = 0 operator,
    # phi0 = 2^k sinh^(1/2)(r) tanh^k(r/2) 2F1(a, b; k+1; -sinh^2(r/2)),
    # a + b = 1, ab = mu2, with leading coefficient 1; zeta f from the
    # start and from a shot out to the free radius must be it
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
            st = gs.series_start(op, mu2)
            end = gs.endpoint_state(op, mu2, st, rf, rtol=1e-13)
            for state in (st, end):
                phi, dphi = _phi(op, state)
                r = mpmath.mpf(state.x)
                ref = mpmath.re(phi0(r, mu2))
                dref = mpmath.re(mpmath.diff(lambda x: phi0(x, mu2), r))
                assert phi == pytest.approx(float(ref), rel=1e-11)
                assert dphi == pytest.approx(float(dref), rel=1e-11)


@pytest.mark.parametrize("k", [3, 8, 16, 30])
def test_free_start_matches_tight_series_shot(k):
    # at the Theta = 100 pullbacks the start sits at the series radius,
    # inside the free radius: a tight shot from a start twenty times
    # farther in reaches it with the same f and f'/f
    op = gs.half_line(gs.sphere(k, 100.0 ** (1.0 / k)))
    for mu2 in FREE_MU2:
        st = gs.series_start(op, mu2)
        assert st.x < _free_radius(k, op.lam)
        end = gs.endpoint_state(op, mu2, gs.series_start(op, mu2, st.x / 20),
                                st.x, rtol=1e-14)
        assert end.f * math.exp(end.log_scale) == pytest.approx(st.f,
                                                               rel=2e-12)
        assert end.f_prime / end.f == pytest.approx(
            st.f_prime / st.f, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [40.0, 100.0])
def test_k3_series_start_holds_the_map_potential(lam):
    # at k = 3 the series leaves out V, whose leading term enters at the
    # order of c6; the radius is capped where V's relative effect
    # 2 (lambda tanh(r/2))^(2k) is 1e-12, so a tight shot from a series
    # start twenty times farther in reaches it with the same f'/f
    op = gs.half_line(gs.sphere(3, lam))
    for mu2 in (0.0, MU2_SPHERE_K3_L40, 0.2499):
        st = gs.series_start(op, mu2)
        assert st.x == _free_radius(3, lam)
        end = gs.endpoint_state(op, mu2, gs.series_start(op, mu2, st.x / 20),
                                st.x, rtol=1e-14)
        assert end.f_prime / end.f == pytest.approx(
            st.f_prime / st.f, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k,lam", [(1, 1e4), (2, 1e3), (2, 1e4)])
def test_factored_series_start_holds_the_map_logder(k, lam):
    # f = 1 - mu2 x^2/(4 nu + 2) leaves the map's part of W out at every k,
    # so its radius is capped where that part's relative effect is 1e-12;
    # from the uncapped series radius f'/f is off by 8e-5 to 4e-3 here
    op = gs.half_line(gs.sphere(k, lam))
    for mu2 in (1e-8, 0.1, 0.2499):
        st = gs.series_start(op, mu2)
        assert st.x == _free_radius(k, lam)
        inner = gs.series_start(op, mu2, st.x / 20)
        end = gs.endpoint_state(op, mu2, inner, st.x, rtol=1e-14)
        assert end.f_prime / end.f == pytest.approx(
            st.f_prime / st.f, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("k,lam,mu2", [
    (6, 100.0, 3.4369528858e-19), (8, 20.0, 3.7860439946e-17),
    (10, 50.0, 2.5763627580e-29), (16, 10.0, 2.4919678658e-28)])
def test_factored_start_slope_carries_mu2(k, lam, mu2):
    # at the oracle roots of these members f' is near 1e-22 and below; an
    # f start taken from a phi start as phi'/phi - W, a difference of two
    # O(k/r) numbers, kept none of its digits. f = 1 + c x^2 + d x^4 with
    # W = nu/x + w1 x, w1 the constant 1/4 - (k^2 - 1/4)/3 of U over
    # 2 nu + 1 (at k >= 2 the map's potential has no constant term)
    nu = k + 0.5
    st = gs.series_start(gs.half_line(gs.sphere(k, lam)), mu2)
    c = -mu2 / (4.0 * nu + 2.0)
    w1 = (0.25 - (k * k - 0.25) / 3.0) / (2.0 * nu + 1.0)
    d = -c * (4.0 * w1 + mu2) / (8.0 * nu + 12.0)
    assert st.f_prime / st.x == pytest.approx(
        2.0 * c + 4.0 * d * st.x ** 2, rel=1e-14, abs=0.0)


def test_frozen_members_keep_series_start():
    # every frozen half-line member starts at its series radius, scale 0,
    # and a radius 1e-11 beyond it is refused
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
    # the k = inf member starts in s at rho0 = exp(-25), that is at
    # L0 = log(Theta/rho0) = 25 + log Theta, on f = 1, f' = -mu2/(2W)
    inf = gs.large_k(math.inf, 100.0)
    mu2 = MU2_LARGEK_INF_100 * (1.0 + 1e-6)
    start = gs.series_start(inf, mu2)
    s0 = -math.log(25.0 + math.log(100.0))
    w = _kernels.logder(_kernels.LARGEK_INF, 0.0, 100.0, s0)
    assert start == gs.StartData(s0, 1.0, -mu2 / (2.0 * w))
    assert 100.0 * math.exp(-math.exp(-start.x)) == pytest.approx(
        math.exp(-25.0), rel=1e-12)
    assert gs.count_zeros(inf, mu2, start, tail_radius(inf, mu2)) == 1


@pytest.mark.parametrize("x_end", [math.nan, math.inf, -math.inf])
def test_non_finite_shot_end_is_refused(x_end):
    # a NaN end once made the kernel loop run no step (a silent count of
    # 0), and an infinite count radius made a backward scan loop forever
    op = gs.half_line(gs.sphere(2, 10.0))
    start = gs.series_start(op, 0.2)
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
    # at mu2 = 0 the regular solution is the zero mode rho^(5/2)/(1 + rho^4)
    # itself, f = 1; at 0.05 zeta f meets a scipy phi shot on the written-out
    # potential 15/(4 rho^2) - 32 rho^2/(1 + rho^4)^2
    op = gs.euclidean(2)
    tr = gs.integrate(op, 0.0, gs.series_start(op, 0.0, 1e-3), 50.0)
    assert tr.zero_count == 0
    assert np.all(tr.values[:, 0] == 1.0)
    mu2 = 0.05
    start = gs.series_start(op, mu2, 1e-3)
    tr = gs.integrate(op, mu2, start, 50.0)

    def rhs(x, y):
        u = 3.75 / x ** 2 - 32.0 * x * x / (1.0 + x ** 4) ** 2
        return [y[1], (u - mu2) * y[0]]

    ref = solve_ivp(rhs, (start.x, 50.0), list(_phi(op, start)),
                    method="DOP853", rtol=1e-12, atol=1e-300)
    assert tr.zero_count == int(np.sum(ref.y[0, 1:] * ref.y[0, :-1] < 0.0))
    assert tr.zero_count >= 3
    assert _phi(op, tr.end)[0] == pytest.approx(ref.y[0, -1], rel=1e-7)


def test_integrate_matches_scipy_reference():
    # the f shot lifted to phi = zeta f meets a scipy phi shot on the
    # library's potential from the same start
    op = gs.half_line(gs.sphere(2, 1.0))
    mu2 = 0.1
    start = gs.series_start(op, mu2)

    def rhs(x, y):
        return [y[1], (gs.effective_potential(op, x) - mu2) * y[0]]

    ref = solve_ivp(rhs, (start.x, 10.0), list(_phi(op, start)),
                    method="DOP853", rtol=1e-11, atol=1e-300)
    mine = _phi(op, gs.integrate(op, mu2, start, 10.0).end)
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
    # count shots stop at the tail radius and count the tail's zero on
    # (x_a, inf) in closed form; a trace out to forty decay lengths, past
    # any zero of the tail, counts them all, and so does a count that ends
    # at x_a. The eigenvalues are in each operator's own parameter, and
    # the offsets and probes scale with its edge
    cases = [
        (gs.half_line(gs.sphere(2, 5.0)), MU2_SPHERE_K2[5.0]),
        (gs.half_line(gs.yang_mills(10.0)), MU2_YM[10.0]),
        (gs.large_k(math.inf, 100.0), MU2_LARGEK_INF_100),
        (gs.rescaled(gs.sphere(2, 5.0)), 4.0 * MU2_SPHERE_K2[5.0] / 25.0)]
    for op, ev in cases:
        edge = gs.continuum_edge(op)
        probes = [ev + 4.0 * edge * d for d in (-1e-6, -1e-9, 1e-9, 1e-6)]
        probes += [4.0 * edge * f for f in (0.1, 0.2, 0.249)]
        for mu2 in probes:
            x_a = tail_radius(op, mu2)
            R = max(1.5 * x_a, min(200.0, 40.0 / math.sqrt(edge - mu2)))
            start = gs.series_start(op, mu2)
            tr = gs.integrate(op, mu2, start, R)
            assert tr.zero_count == (mu2 > ev)
            assert gs.count_zeros(op, mu2, start, x_a) == tr.zero_count
            if mu2 == probes[2]:
                # just above the eigenvalue the zero sits past x_a, so the
                # closed-form branch decides it
                f = tr.values[:, 0]
                last = np.nonzero(f[1:] * f[:-1] < 0.0)[0][-1]
                assert tr.grid[last] > x_a


def _tail_bound(op, x, c):
    """c/sinh^2 r of the half-line families, at r = 2 rho/lambda times
    4/lambda^2 for the rescaled one, and exp(-2s) for k = inf."""
    if op.family == gs.LARGE_K:
        return math.exp(-2.0 * x)
    if op.family == gs.RESCALED:
        return 4.0 / op.lam ** 2 * c / math.sinh(2.0 * x / op.lam) ** 2
    return c / math.sinh(x) ** 2


_BOUND_MEMBERS = (
    [gs.half_line(gs.sphere(k, lam)) for k in (1, 2, 3, 5, 8, 20)
     for lam in (0.3, 1.0, 1.05, 2.0, 10.0, 1e4)]
    + [gs.half_line(gs.yang_mills(lam)) for lam in (0.3, 1.0, 2.0, 40.0, 1e6)]
    + [gs.rescaled(g) for g in (gs.sphere(1, 1.05), gs.sphere(2, 5.0),
                                gs.sphere(8, 2.0), gs.yang_mills(10.0))]
    + [gs.large_k(math.inf, theta) for theta in (100.0, 1e6)])


def test_tail_radius_bounds_the_potential():
    # |U - 1/4| <= (k^2 + 1/4)/sinh^2 r on every half-line member (k = 2
    # for Yang-Mills; exp(-2s) for k = inf) up to rounding, on a dense
    # grid from the core to where U rounds to its edge; past the tail
    # radius the potential is then within max(1e-12 m^2, 1e-17) of the
    # edge. The constant k^2 - 1/4, the centrifugal term alone, is too
    # small: the map's potential adds up to -2 k^2/sinh^2 r
    low_constant_fails = False
    for op in _BOUND_MEMBERS:
        code, kk, p = op_code(op)
        edge = gs.continuum_edge(op)
        ulp2 = 2.0 * np.spacing(edge)
        c = op.k * op.k + 0.25
        if op.family == gs.LARGE_K:
            xs = np.linspace(-3.0, 22.0, 2001)
        else:
            hi = 24.0 if op.family == gs.HALF_LINE else 12.0 * op.lam
            xs = np.geomspace(1e-3 * hi / 24.0, hi, 2001)
        for x in xs:
            dev = abs(_kernels.pot(code, kk, p, float(x)) - edge)
            assert dev <= _tail_bound(op, x, c) + ulp2, (op, x)
            if op.family != gs.LARGE_K:
                low_constant_fails |= (
                    dev > _tail_bound(op, x, op.k * op.k - 0.25) + ulp2)
        half = 0.25 * op.lam ** 2 if op.family == gs.RESCALED else 1.0
        for mu2 in (0.0, edge * (1.0 - 1e-6), edge):
            x_a = tail_radius(op, mu2)
            tau = max(1e-12 * (edge - mu2) * half, 1e-17) / half
            assert _tail_bound(op, x_a, c) == pytest.approx(tau, rel=1e-9)
            for x in x_a * np.array([1.0, 1.001, 1.1, 1.5, 2.0]):
                dev = abs(_kernels.pot(code, kk, p, float(x)) - edge)
                assert dev <= tau * (1.0 + 1e-9) + ulp2, (op, mu2, x)
    assert low_constant_fails


def test_tail_radius_of_families_without_a_flat_tail():
    # the euclidean family and the finite-k normal form have no tail
    # radius; the threshold read-out and a decaying leg need one
    for op in (gs.euclidean(2), gs.large_k(8, 100.0)):
        assert tail_radius(op, 0.0) is None
    with pytest.raises(DomainError):
        gs.fit_threshold(gs.euclidean(2))
    with pytest.raises(DomainError):
        gs.tail_start_decaying(gs.euclidean(2), -0.1, 60.0)


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
    phi, dphi = _phi(op, start)
    assert dphi / phi == pytest.approx(-0.5)
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
    w = fwd.f * bwd.f_prime - fwd.f_prime * bwd.f
    assert abs(w) < 1e-8 * abs(fwd.f) * abs(bwd.f) * m


def test_fit_threshold_frozen_intercepts():
    op = gs.half_line(gs.sphere(1, 1.0))
    fit = gs.fit_threshold(op)
    assert fit.fit_residual < 1e-10
    assert fit.a == pytest.approx(0.4319284, rel=1e-5)
    assert fit.b == pytest.approx(B_SPHERE_K1[1.0], rel=1e-5)


def test_fit_threshold_free_operator_slope():
    assert gs.fit_threshold(gs.half_line(gs.sphere(1, 0.0))).b > 0.0


@pytest.mark.parametrize("k,lam", [(16, 1.33), (2, 1.35)])
def test_fit_threshold_scale_invariants(k, lam):
    # a and b are those of phi = zeta f with leading coefficient 1, so they
    # do not depend on where the shot starts: a shot from a start ten
    # times farther in reads the same (a, b) at the tail radius
    op = gs.half_line(gs.sphere(k, lam))
    fit = gs.fit_threshold(op)
    x_b = fit.window[1]
    assert x_b == tail_radius(op, 0.25)
    inner = gs.series_start(op, 0.25, gs.series_start(op, 0.25).x / 10)
    a, b = _edge_readout(op, gs.endpoint_state(op, 0.25, inner, x_b))
    assert a == pytest.approx(fit.a, rel=1e-9)
    assert b == pytest.approx(fit.b, rel=1e-9)


def test_fit_threshold_window_guard(monkeypatch):
    # with the read-out moved in to r = 8, where the potential is 1e-7 off
    # the edge, phi is not affine there, and the read-outs at the window's
    # two ends disagree
    monkeypatch.setattr(ode_engine, "tail_radius", lambda op, mu2: 8.0)
    op = gs.half_line(gs.sphere(1, 1.0))
    with pytest.raises(FitUnreliable):
        gs.fit_threshold(op)


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
    # far past the core the shot stays finite: f decays with the edge state
    # over the growing zero mode, and meets its Volterra identity
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
    assert end.f == pytest.approx(tr.end.f, rel=1e-12)
    assert end.f_prime == pytest.approx(tr.end.f_prime, rel=1e-12)
    assert end.log_scale == pytest.approx(tr.end.log_scale, abs=1e-12)


def test_scale_ledger_reconstruction():
    # below the gap f grows like exp((m - 1/2) r), m = sqrt(1/4 - mu2),
    # so the shot spans over a hundred decades and rescales mid-flight;
    # reconstruction across the rescale must match an independent
    # high-precision integration of f over a window straddling the event
    k, lam, mu2 = 2, 1.0, -1.0
    op = gs.half_line(gs.sphere(k, lam))
    tr = gs.integrate(op, mu2, gs.series_start(op, mu2), 400.0)
    # every rescale shows as a jump of the running log scale
    events = np.flatnonzero(np.diff(tr.log_scale)) + 1
    assert events.size, "expected at least one mid-flight rescale"
    ia = int(np.searchsorted(tr.grid, tr.grid[events[0]] - 0.1))
    ib = int(np.searchsorted(tr.grid, tr.grid[events[0]] + 0.1))
    assert tr.log_scale[ia] != tr.log_scale[ib]

    mpmath.mp.dps = 35

    def w_ref(r):
        t = (lam * mpmath.tanh(r / 2)) ** (2 * k)
        return (k * (1 - t) / ((1 + t) * mpmath.sinh(r))
                + mpmath.coth(r) / 2)

    lga = mpmath.mpf(tr.log_scale[ia])
    ya = [mpmath.mpf(tr.values[ia, 0]) * mpmath.e ** lga,
          mpmath.mpf(tr.values[ia, 1]) * mpmath.e ** lga]
    sol = mpmath.odefun(
        lambda r, y: [y[1], -2 * w_ref(r) * y[1] - mpmath.mpf(mu2) * y[0]],
        mpmath.mpf(tr.grid[ia]), ya, tol=mpmath.mpf(10) ** -25)
    ref = [x * mpmath.e ** -lga for x in sol(mpmath.mpf(tr.grid[ib]))]
    lift = math.exp(tr.log_scale[ib] - tr.log_scale[ia])
    assert tr.values[ib, 0] * lift == pytest.approx(float(ref[0]), rel=1e-9)
    assert tr.values[ib, 1] * lift == pytest.approx(float(ref[1]), rel=1e-9)


# one member of each kind the refine walks: sphere, Yang-Mills, rescaled
# and k = inf, each with its regular and its decaying match leg
_WALK_MEMBERS = [(gs.half_line(gs.sphere(2, 10.0)), 0.0229),
                 (gs.half_line(gs.yang_mills(20.0)), 0.0122),
                 (gs.rescaled(gs.sphere(2, 5.0)), 0.0014),
                 (gs.large_k(math.inf, 100.0), 0.0072)]
_WALK_IDS = ["sphere", "ym", "rescaled", "inf"]
WALK_RTOL = 1e-13


def _legs(op, mu2):
    """(start, x_end) of the two match legs at mu2: the series start and
    the decaying tail start, both ending at the map's midpoint."""
    xm = spectral._matching_point(op)
    tail = gs.tail_start_decaying(op, mu2, tail_radius(op, mu2))
    return [(gs.series_start(op, mu2), xm), (tail, xm)]


def _rel(a, b):
    """Max-norm distance of two states (f, f') over b's size, at b's scale."""
    s = math.exp(a.log_scale - b.log_scale)
    return (max(abs(a.f * s - b.f), abs(a.f_prime * s - b.f_prime))
            / max(abs(b.f), abs(b.f_prime)))


def _walked_errors(op, mu2, start, x_end, mesh):
    """rk_shoot's error norm of each step a walk from start to x_end takes
    on the mesh as it stands: the mesh's nodes strictly between, with W
    recomputed here, and the end state of those steps."""
    code, kk, p = op_code(op)
    key = mesh.direction * mesh.nodes
    inner = mesh.nodes[(key > mesh.direction * start.x)
                       & (key < mesh.direction * x_end)]
    xs = np.concatenate(([start.x], inner, [x_end]))
    h = np.diff(xs)
    w = np.array([[_kernels.logder(code, kk, p, x if c < 1.0 else x1)
                   for x, x1 in zip(xs[:-1] + c * h, xs[1:])]
                  for c in _kernels.STAGE_C])
    m, e = _kernels.step_matrices(mu2, h, w)
    fs, gs_ = np.empty(h.size), np.empty(h.size)
    f, g, lg = _kernels.mesh_walk(m[0, 0], m[0, 1], m[1, 0], m[1, 1],
                                  *ode_engine._normalized(start), fs, gs_)
    return (_kernels.step_errors(m, e, fs, gs_, WALK_RTOL, 1e-300),
            gs.StartData(x_end, f, g, lg))


@pytest.mark.parametrize("op,mu2", _WALK_MEMBERS, ids=_WALK_IDS)
def test_walk_on_the_kernel_nodes_is_the_kernel_shot(op, mu2):
    # on the accepted steps of a kernel trace, at its own mu2, every step
    # passes again and the walk lands on the kernel's end state
    for start, x_end in _legs(op, mu2):
        tr = gs.integrate(op, mu2, start, x_end, rtol=WALK_RTOL)
        mesh = gs.StepMesh(tr)
        end = gs.endpoint_state(op, mu2, start, x_end, rtol=WALK_RTOL,
                                mesh=mesh)
        np.testing.assert_array_equal(mesh.nodes, tr.grid)
        assert end.x == x_end
        assert _rel(end, tr.end) < 1e-13


@pytest.mark.parametrize("thin", [1, 2])
@pytest.mark.parametrize("op,mu2", _WALK_MEMBERS, ids=_WALK_IDS)
def test_walk_steps_pass_the_acceptance_test(op, mu2, thin):
    # at a neighbouring mu2, on the kernel's mesh and on one with every
    # other node dropped, each step the walk returns has passed rk_shoot's
    # acceptance test (the walk halves the steps that fail), and the end
    # states meet a fresh kernel shot to a few hundred rtol
    for start, x_end in _legs(op, mu2):
        tr = gs.integrate(op, mu2, start, x_end, rtol=WALK_RTOL)
        tr.grid = np.concatenate((tr.grid[:-1:thin], tr.grid[-1:]))
        mesh = gs.StepMesh(tr)
        near = mu2 * (1.0 + 1e-3)
        start, x_end = _legs(op, near)[0 if start.x < x_end else 1]
        end = gs.endpoint_state(op, near, start, x_end, rtol=WALK_RTOL,
                                mesh=mesh)
        err, walked = _walked_errors(op, near, start, x_end, mesh)
        assert np.all(err <= 1.0)
        assert _rel(walked, end) < 1e-14
        kernel = gs.endpoint_state(op, near, start, x_end, rtol=WALK_RTOL)
        assert _rel(end, kernel) < 300 * WALK_RTOL


def test_walk_guards():
    op = gs.half_line(gs.sphere(2, 10.0))
    (start, xm), _ = _legs(op, 0.02)
    mesh = gs.StepMesh(gs.integrate(op, 0.02, start, xm, rtol=WALK_RTOL))
    with pytest.raises(DomainError, match="another operator"):
        gs.endpoint_state(gs.half_line(gs.sphere(2, 20.0)), 0.02, start, xm,
                          mesh=mesh)
    with pytest.raises(DomainError, match="against its mesh"):
        gs.endpoint_state(op, 0.02, gs.StartData(xm, 1.0, 0.0), start.x,
                          mesh=mesh)
    with pytest.raises(DomainError, match="finite"):
        gs.endpoint_state(op, 0.02, start, math.nan, mesh=mesh)


@pytest.mark.parametrize("rtol", [0.0, -1e-11, 1.0, math.nan, math.inf])
def test_bad_rtol_is_refused(rtol):
    # rtol = 0 overflowed in the error norm, nan raised a step underflow,
    # and a negative rtol ran as its absolute value
    op = gs.half_line(gs.sphere(2, 10.0))
    start = gs.series_start(op, 0.02)
    (_, xm), _ = _legs(op, 0.02)
    mesh = gs.StepMesh(gs.integrate(op, 0.02, start, xm))
    calls = [
        lambda: gs.count_eigenvalues_below(op, 0.02, rtol),
        lambda: gs.endpoint_state(op, 0.02, start, xm, rtol),
        lambda: gs.endpoint_state(op, 0.02, start, xm, rtol, mesh=mesh),
        lambda: gs.integrate(op, 0.02, start, xm, rtol),
        lambda: gs.fit_threshold(op, rtol),
        lambda: gs.find_gap_eigenvalues(op, rtol, scans=False,
                                        threshold=False)]
    for call in calls:
        with pytest.raises(DomainError, match="rtol"):
            call()
