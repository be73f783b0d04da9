"""Operator families: potentials, zero modes, weights, coordinate maps."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gapspec as gs
from gapspec import _kernels
from gapspec.errors import DomainError
from gapspec.harmonic_maps import (eval_Q, metric_g, metric_g_double_prime,
                                   metric_g_prime)
from gapspec.operators import (EUCLIDEAN, HALF_LINE, RESCALED,
                               FROM_HALF_LINE, TO_HALF_LINE, op_code)


def test_spec_frobenius_and_domains():
    hl = gs.half_line(gs.sphere(3, 1.0))
    assert hl.frobenius_exponent == 3.5
    assert hl.domain == (0.0, math.inf)
    assert hl.measure == "lebesgue"
    assert gs.euclidean(2).frobenius_exponent == 2.5
    lk = gs.large_k(4, 100.0)
    assert lk.frobenius_exponent == 1.0 + 1.0 / 8.0
    assert lk.domain == (0.0, 100.0)
    assert lk.measure == "omega_weighted"
    assert gs.large_k(math.inf, 2.0).frobenius_exponent == 1.0
    for op in (hl, gs.rescaled(gs.yang_mills(2.0)), gs.euclidean(1),
               gs.large_k(1, 3.0), gs.large_k(math.inf, 3.0)):
        assert op.frobenius_exponent > 0.5


def test_spec_validation():
    with pytest.raises(DomainError):
        gs.rescaled(gs.sphere(2, 0.0))     # rescaling needs lambda > 0
    with pytest.raises(DomainError):
        gs.large_k(2, 0.0)
    with pytest.raises(DomainError):
        gs.large_k(2.5, 10.0)
    for k, theta in ((2, math.inf), (math.inf, math.inf), (2, math.nan)):
        with pytest.raises(DomainError):
            gs.large_k(k, theta)
    for k in (math.inf, math.nan):
        with pytest.raises(DomainError):
            gs.euclidean(k)
    with pytest.raises(DomainError):
        gs.large_k(math.nan, 2.0)
    with pytest.raises(DomainError):
        gs.OperatorSpec("hexagonal", 1)


def test_continuum_edges():
    assert gs.continuum_edge(gs.half_line(gs.sphere(1, 1.0))) == 0.25
    assert gs.continuum_edge(gs.large_k(5, 10.0)) == 0.25
    assert gs.continuum_edge(gs.rescaled(gs.sphere(2, 5.0))) == pytest.approx(0.04)
    assert gs.continuum_edge(gs.euclidean(3)) == 0.0


def test_potential_flat_at_lambda_zero():
    assert gs.potential_V(gs.sphere(2, 0.0), 1.0) == 0.0
    assert gs.potential_V(gs.yang_mills(0.0), 3.0) == 0.0


def test_potential_value_k1():
    q = 2.0 * math.atan(math.tanh(1.0))
    want = (math.cos(2.0 * q) - 1.0) / math.sinh(2.0) ** 2
    got = gs.potential_V(gs.sphere(1, 1.0), 2.0)
    assert math.isclose(got, want, rel_tol=1e-12)


@pytest.mark.parametrize("geom", [gs.sphere(1, 1.0), gs.sphere(2, 0.7),
                                  gs.sphere(3, 4.0), gs.yang_mills(0.5),
                                  gs.yang_mills(3.0)])
def test_potential_matches_linearized_nonlinearity(geom):
    # V is the curvature part of d/deps [g g'](Q + eps) minus its flat value
    k = geom.k
    eps = 1e-5
    for r in (0.5, 1.0, 2.0, 4.0):
        q = gs.eval_Q(geom, r)
        gg = lambda p: gs.metric_g(geom, p) * gs.metric_g_prime(geom, p)
        slope = (gg(q + eps) - gg(q - eps)) / (2.0 * eps)
        want = k * k * (slope - 1.0) / math.sinh(r) ** 2
        got = gs.potential_V(geom, r)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("geom,lim", [
    (gs.sphere(1, 1.0), -2.0), (gs.sphere(1, 3.0), -18.0),
    (gs.sphere(2, 5.0), 0.0), (gs.sphere(3, 0.5), 0.0),
    (gs.yang_mills(2.0), -24.0), (gs.yang_mills(0.5), -1.5)])
def test_potential_limit_at_the_origin(geom, lim):
    # sinh(r) (t + 1/t) is 0 * inf at r = 0, once nan with a RuntimeWarning;
    # V's limit is -2 lambda^2 (sphere, k = 1), 0 (k >= 2) and -6 lambda^2
    # (Yang-Mills), which V approaches from small r
    assert gs.potential_V(geom, 0.0) == lim
    v = gs.potential_V(geom, np.array([0.0, 1e-8, 1e-7, 1e-6]))
    assert v[0] == lim
    assert v[1:] == pytest.approx(lim, rel=1e-9, abs=1e-8)


@pytest.mark.parametrize("r", [0.5, 1.0, 5.0, 30.0])
def test_kernel_power_saturates_past_overflow(r):
    # (lambda tanh(r/2))^k overflows at sphere(40, 1e9), where the float
    # power once raised OverflowError; U and the kernel's W take their
    # limits there, the map's potential 0 and (1 - t)/(1 + t) = -1. With
    # (lambda tanh(r/2))^(2k) formed first, V once overflowed to nan at the
    # other three members, where U is the centrifugal term alone as well
    for geom in (gs.sphere(40, 1e9), gs.sphere(40, 1e5), gs.sphere(20, 1e9),
                 gs.yang_mills(1e200)):
        code, kk, p = op_code(gs.half_line(geom))
        u = gs.effective_potential(gs.half_line(geom), r)
        assert u == pytest.approx(
            0.25 + (kk * kk - 0.25) / math.sinh(r) ** 2, rel=1e-15)
        T = math.tanh(0.5 * r)
        w = (-kk * (1.0 - T * T) + 0.5 * (1.0 + T * T)) / (2.0 * T)
        assert _kernels.logder(code, kk, p, r) == pytest.approx(w, rel=1e-15)


def test_potential_negative_everywhere():
    r = np.geomspace(1e-3, 30.0, 300)
    for lam in (0.0, 0.5, 1.0, 2.0, 10.0, 40.0):
        for geom in (gs.sphere(1, lam), gs.sphere(2, lam), gs.sphere(8, lam),
                     gs.yang_mills(lam)):
            assert np.all(gs.potential_V(geom, r) <= 0.0)


def test_potential_exponential_tail():
    # |V| decays like e^{-2r}: successive unit steps shrink by e^{-2}
    r = np.arange(5.0, 30.0, 1.0)
    for geom in (gs.sphere(1, 1.0), gs.sphere(3, 10.0), gs.yang_mills(2.0)):
        v = np.abs(gs.potential_V(geom, r))
        ratio = v[1:] / v[:-1]
        assert np.all(ratio < math.exp(-2.0) * 1.05)
        assert np.all(ratio > math.exp(-2.0) * 0.95)


def test_effective_potential_pinned_values():
    got = gs.effective_potential(gs.half_line(gs.sphere(2, 0.0)), 1.0)
    assert math.isclose(got, 0.25 + 3.75 / math.sinh(1.0) ** 2, rel_tol=1e-12)
    # Euclidean well at rho = 1: (k^2 - 1/4) - 8 k^2 / 4 with k = 2
    assert math.isclose(gs.effective_potential(gs.euclidean(2), 1.0), -4.25,
                        rel_tol=1e-12)
    got = gs.effective_potential(gs.large_k(math.inf, math.e), 1.0)
    assert math.isclose(got, -0.75, rel_tol=1e-12)


def test_effective_potential_domain_errors():
    op = gs.half_line(gs.sphere(1, 1.0))
    with pytest.raises(DomainError):
        gs.effective_potential(op, 0.0)
    with pytest.raises(DomainError):
        gs.effective_potential(op, -1.0)
    with pytest.raises(DomainError):
        gs.effective_potential(gs.large_k(3, 2.0), 2.0)


def test_effective_potential_finite_past_sinh_overflow():
    # sinh overflows past 710, long after 1/sinh^2 has underflowed to 0
    for op in (gs.half_line(gs.sphere(1, 3.5)),
               gs.half_line(gs.yang_mills(10.0)),
               gs.rescaled(gs.sphere(2, 2.0))):
        for x in (710.0, 800.0, 3000.0):
            assert gs.effective_potential(op, x) == gs.continuum_edge(op)
    op = gs.half_line(gs.sphere(1, 3.5))
    assert gs.tail_start_decaying(op, 0.2, 3000.0).x == 3000.0


def _structural_C(z2):
    """(1 - 6 z^2 + z^4)/(1 + z^2)^2 as a function of z^2."""
    return (1.0 - 6.0 * z2 + z2 * z2) / (1.0 + z2) ** 2


def _effective_structural(op, x):
    """The potential block assembled from the geometry, independently of
    the kernel.

    Half-line: 1/4 + [k^2 (g'^2 + g g'')(Q) - 1/4]/sinh^2 r, using the
    curvature combination instead of the explicit V. Rescaled: affine image
    of the half-line form. Euclidean: (k^2-1/4)/rho^2 + k^2 (C(rho^k)-1)/rho^2.
    Large-k: 1/4 + omega^-2 (C - 1/(4 k^2)) without expanding the product.
    """
    if op.family in (HALF_LINE, RESCALED):
        geom = op.geometry
        lam = geom.lam
        r = x if op.family == HALF_LINE else 2.0 * x / lam
        q = eval_Q(geom, r)
        gp = metric_g_prime(geom, q)
        gpp = metric_g_double_prime(geom, q)
        curv = float(op.k) ** 2 * (gp * gp + metric_g(geom, q) * gpp)
        # csch^2 r without overflow: sinh^2 overflows past r = 355, and
        # rescaled draws reach r = 2x/lambda = 1000
        csch = 2.0 * math.exp(-r) / -math.expm1(-2.0 * r)
        half = 0.25 + (curv - 0.25) * csch * csch
        if op.family == HALF_LINE:
            return half
        return (4.0 / lam ** 2) * (half - 0.25) + 1.0 / lam ** 2
    if op.family == EUCLIDEAN:
        k2 = float(op.k) ** 2
        z2 = x ** (2 * op.k)
        return (k2 - 0.25) / x ** 2 + k2 * (_structural_C(z2) - 1.0) / x ** 2
    L = math.log(op.theta / x)
    c = _structural_C(x * x)
    if op.k == math.inf:
        return 0.25 + L * L * c
    om_inv = op.k * math.sinh(L / op.k)
    return 0.25 + om_inv * om_inv * (c - 1.0 / (4.0 * op.k ** 2))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_effective_potential_two_assemblies_agree(data):
    family = data.draw(st.sampled_from(
        ["half_sphere", "half_ym", "resc_sphere", "resc_ym", "euclid",
         "largek", "largek_inf"]))
    if family in ("half_sphere", "resc_sphere"):
        k = data.draw(st.integers(1, 8))
        lam = data.draw(st.floats(0.05, 40.0))
        geom = gs.sphere(k, lam)
        op = gs.half_line(geom) if family == "half_sphere" else gs.rescaled(geom)
    elif family in ("half_ym", "resc_ym"):
        lam = data.draw(st.floats(0.05, 40.0))
        geom = gs.yang_mills(lam)
        op = gs.half_line(geom) if family == "half_ym" else gs.rescaled(geom)
    elif family == "euclid":
        op = gs.euclidean(data.draw(st.integers(1, 8)))
    elif family == "largek":
        op = gs.large_k(data.draw(st.integers(1, 30)),
                        data.draw(st.floats(0.5, 200.0)))
    else:
        op = gs.large_k(math.inf, data.draw(st.floats(0.5, 200.0)))
    hi = op.domain[1] if math.isfinite(op.domain[1]) else 25.0
    x = data.draw(st.floats(1e-3 * hi, 0.999 * hi))
    direct = gs.effective_potential(op, x)
    structural = float(_effective_structural(op, x))
    assert direct == pytest.approx(structural, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("geom", [gs.yang_mills(0.05), gs.sphere(3, 0.05)])
@pytest.mark.parametrize("r", [360.0, 680.0, 996.0])
def test_effective_potential_assemblies_agree_far_out(geom, r):
    # past r = 355 sinh^2 r overflows; the rescaled abscissa is x = lam r/2
    op = gs.rescaled(geom)
    x = 0.5 * geom.lam * r
    direct = gs.effective_potential(op, x)
    assert direct == pytest.approx(_effective_structural(op, x),
                                   rel=1e-11, abs=1e-11)


def _mp_zero_mode(geom, x):
    lam = mpmath.mpf(geom.lam)
    t = mpmath.tanh(x / 2)
    root = mpmath.sqrt(mpmath.sinh(x))
    if geom.kind == gs.SPHERE:
        k = geom.k
        return 2 * k * lam ** (k - 1) * t ** k * root / (1 + (lam * t) ** (2 * k))
    return 4 * lam * t ** 2 * root / (1 + (lam * t) ** 2) ** 2


@pytest.mark.parametrize("geom", [gs.sphere(1, 1.0), gs.sphere(2, 5.0),
                                  gs.yang_mills(2.0)])
def test_zero_mode_derivatives_against_mpmath(geom):
    for x in (0.3, 1.0, 2.5, 6.0):
        val, d1, d2 = gs.zero_mode(geom, gs.PHYSICAL_R, x, derivatives=True)
        f = lambda t: _mp_zero_mode(geom, t)
        assert val == pytest.approx(float(f(mpmath.mpf(x))), rel=1e-12)
        assert d1 == pytest.approx(float(mpmath.diff(f, x)), rel=1e-9)
        assert d2 == pytest.approx(float(mpmath.diff(f, x, 2)), rel=1e-8)


@pytest.mark.parametrize("geom", [gs.sphere(1, 3.0), gs.sphere(2, 40.0),
                                  gs.sphere(3, 40.0), gs.yang_mills(10.0)])
def test_kernel_logder_is_zero_mode_log_derivative(geom):
    # W = zeta'/zeta drives every shot; codes 2-3 evaluate it at
    # r = 2 rho/lambda. logzeta is log zeta up to the constant that makes
    # the leading coefficient 1
    for fam, coord in ((gs.half_line, gs.PHYSICAL_R),
                       (gs.rescaled, gs.RESCALED_RHO)):
        code, kk, p = op_code(fam(geom))
        offsets = []
        for r in (1e-3, 0.05, 1.0, 7.0, 30.0):
            x = r if coord == gs.PHYSICAL_R else 0.5 * geom.lam * r
            val, d1, _ = gs.zero_mode(geom, coord, x, derivatives=True)
            assert _kernels.logder(code, kk, p, x) == pytest.approx(
                d1 / val, rel=1e-13, abs=0.0)
            offsets.append(float(_kernels.logzeta(code, kk, p, x))
                           - math.log(val))
        assert max(offsets) - min(offsets) < 1e-12
        # leading coefficient 1: zeta/x^(kk + 1/2) -> 1 at the left end
        x = 1e-7
        assert math.exp(_kernels.logzeta(code, kk, p, x)) / x ** (
            kk + 0.5) == pytest.approx(1.0, rel=1e-6)


def test_kernel_logzeta_closed_forms():
    # the k = inf zero mode (rho/Theta) (1 + rho^2)^-1 L^(-1/2) in
    # s = -log L: logzeta is its log, and logder its derivative (central
    # differences); the euclidean W is that of rho^(k+1/2)/(1 + rho^(2k))
    theta = 100.0
    for s in (-2.0, 0.05, 0.7, 1.0, 3.0, 12.0):
        L = math.exp(-s)
        rho = theta * math.exp(-L)
        closed = rho / theta / (1.0 + rho * rho) / math.sqrt(L)
        lz = _kernels.logzeta(_kernels.LARGEK_INF, 0.0, theta, s)
        assert math.exp(lz) == pytest.approx(closed, rel=1e-12)
        h = 1e-5 * abs(s)
        fd = (float(_kernels.logzeta(_kernels.LARGEK_INF, 0.0, theta, s + h))
              - float(_kernels.logzeta(_kernels.LARGEK_INF, 0.0, theta,
                                       s - h))) / (2.0 * h)
        assert _kernels.logder(_kernels.LARGEK_INF, 0.0, theta, s) == \
            pytest.approx(fd, rel=1e-8, abs=1e-9)
    for k in (1, 3):
        for x in (0.05, 0.7, 1.0, 3.0, 12.0):
            t = x ** (2 * k)
            w = (k + 0.5) / x - 2.0 * k * x ** (2 * k - 1) / (1.0 + t)
            assert _kernels.logder(_kernels.EUCLIDEAN, float(k), 0.0, x) == \
                pytest.approx(w, rel=1e-13)


def test_zero_mode_positive_with_frobenius_power():
    geom = gs.yang_mills(2.0)
    r = np.geomspace(1e-3, 20.0, 200)
    assert np.all(gs.zero_mode(geom, gs.PHYSICAL_R, r) > 0.0)
    # leading power r^{5/2}: the reduced ratio settles to a positive constant
    c4 = gs.zero_mode(geom, gs.PHYSICAL_R, 1e-4) / 1e-4 ** 2.5
    c5 = gs.zero_mode(geom, gs.PHYSICAL_R, 1e-5) / 1e-5 ** 2.5
    assert c4 > 0.0
    assert c5 == pytest.approx(c4, rel=1e-2)


def test_zero_mode_coordinate_consistency():
    geom = gs.sphere(1, 1.0)
    rho = np.linspace(0.1, 5.0, 40)
    a = gs.zero_mode(geom, gs.RESCALED_RHO, rho)
    b = gs.zero_mode(geom, gs.PHYSICAL_R, 2.0 * rho / geom.lam)
    assert np.allclose(a, b, rtol=1e-13)


def test_zero_mode_validation():
    with pytest.raises(DomainError):
        gs.zero_mode(gs.sphere(2, 0.0), gs.PHYSICAL_R, 1.0)
    with pytest.raises(DomainError):
        gs.zero_mode(gs.sphere(2, 1.0), "polar", 1.0)


@pytest.mark.parametrize("geom,tol", [(gs.sphere(2, 5.0), 1e-10),
                                      (gs.sphere(1, 1.0), 1e-10),
                                      (gs.yang_mills(2.0), 1e-9)])
def test_half_line_annihilates_zero_mode(geom, tol):
    op = gs.half_line(geom)
    r = np.linspace(0.1, 10.0, 41)
    val, d1, d2 = gs.zero_mode(geom, gs.PHYSICAL_R, r, derivatives=True)
    peak = np.max(np.abs(val))
    for i in range(r.size):
        res = gs.apply_operator(op, val[i], r[i],
                                phi_prime=d1[i], phi_second=d2[i])
        assert abs(res) < tol * peak


def test_rescaled_annihilates_zero_mode():
    geom = gs.sphere(2, 5.0)
    op = gs.rescaled(geom)
    rho = np.linspace(0.25, 25.0, 41)
    val, d1, d2 = gs.zero_mode(geom, gs.RESCALED_RHO, rho, derivatives=True)
    peak = np.max(np.abs(val))
    for i in range(rho.size):
        res = gs.apply_operator(op, val[i], rho[i],
                                phi_prime=d1[i], phi_second=d2[i])
        assert abs(res) < 1e-6 * peak


def test_euclidean_annihilates_profile():
    # rho^{k+1/2}/(1+rho^{2k}) with hand-built derivatives
    k = 2
    op = gs.euclidean(k)
    a = k + 0.5
    for rho in np.geomspace(0.1, 10.0, 31):
        den = 1.0 + rho ** (2 * k)
        val = rho ** a / den
        l1 = a / rho - 2 * k * rho ** (2 * k - 1) / den
        l2 = (-a / rho ** 2 - 2 * k * (2 * k - 1) * rho ** (2 * k - 2) / den
              + (2 * k * rho ** (2 * k - 1) / den) ** 2)
        d1 = val * l1
        d2 = val * (l2 + l1 * l1)
        res = gs.apply_operator(op, val, rho, phi_prime=d1, phi_second=d2)
        assert abs(res) < 1e-8


def test_apply_operator_finite_difference_fallback():
    op = gs.half_line(gs.sphere(2, 1.0))
    phi = lambda x: math.exp(-0.5 * (x - 3.0) ** 2)
    dphi = lambda x: -(x - 3.0) * phi(x)
    d2phi = lambda x: ((x - 3.0) ** 2 - 1.0) * phi(x)
    for x in (0.5, 2.0, 3.0, 5.0):
        exact = gs.apply_operator(op, phi, x, phi_prime=dphi, phi_second=d2phi)
        fd = gs.apply_operator(op, phi, x)
        assert fd == pytest.approx(exact, rel=1e-7, abs=1e-9)
        triple = gs.apply_operator(op, phi(x), x,
                                   phi_prime=dphi(x), phi_second=d2phi(x))
        assert triple == exact


def test_apply_operator_validation():
    op = gs.half_line(gs.sphere(1, 1.0))
    with pytest.raises(DomainError):
        gs.apply_operator(op, 1.0, 1.0)    # numeric value needs derivatives
    with pytest.raises(DomainError):
        gs.apply_operator(op, lambda x: x, -2.0)
    with pytest.raises(DomainError):
        gs.apply_operator(gs.large_k(2, 3.0), lambda x: x, 3.5)


def test_apply_operator_large_k_assembly():
    # -A^2 phi'' - A A' phi' + U phi with A = k rho sinh(L/k), L = log(T/rho)
    theta = 3.0
    phi = lambda x: x * x * (theta - x)
    dphi = lambda x: 2.0 * x * theta - 3.0 * x * x
    d2phi = lambda x: 2.0 * theta - 6.0 * x
    for k in (2, math.inf):
        op = gs.large_k(k, theta)
        for rho in (0.4, 1.0, 2.2):
            L = math.log(theta / rho)
            if k == math.inf:
                a, ap = rho * L, L - 1.0
            else:
                a = k * rho * math.sinh(L / k)
                ap = k * math.sinh(L / k) - math.cosh(L / k)
            u = gs.effective_potential(op, rho)
            want = -a * a * d2phi(rho) - a * ap * dphi(rho) + u * phi(rho)
            got = gs.apply_operator(op, phi, rho, phi_prime=dphi,
                                    phi_second=d2phi)
            assert got == pytest.approx(want, rel=1e-12)


def test_scaling_relation_between_half_line_and_rescaled():
    # L-tilde applied to phi(2 rho/lam) equals (4/lam^2) L applied to phi
    phi = lambda x: math.exp(-0.5 * (x - 2.0) ** 2)
    dphi = lambda x: -(x - 2.0) * phi(x)
    d2phi = lambda x: ((x - 2.0) ** 2 - 1.0) * phi(x)
    for geom in (gs.sphere(2, 5.0), gs.yang_mills(2.0)):
        lam = geom.lam
        hl, rs = gs.half_line(geom), gs.rescaled(geom)
        for rho in (0.5, 1.5, 4.0):
            r = 2.0 * rho / lam
            s = 2.0 / lam
            tilde = gs.apply_operator(rs, phi(r), rho,
                                      phi_prime=s * dphi(r),
                                      phi_second=s * s * d2phi(r))
            direct = gs.apply_operator(hl, phi(r), r,
                                       phi_prime=dphi(r), phi_second=d2phi(r))
            assert tilde == pytest.approx(4.0 / lam ** 2 * direct, rel=1e-10)


def test_omega_weight_values_and_envelope():
    assert gs.omega_weight(math.inf, math.e, 1.0) == pytest.approx(1.0)
    assert gs.omega_weight(1, 2.0, 1.0) == pytest.approx(4.0 / 3.0)
    rng = np.random.default_rng(7)
    for _ in range(40):
        theta = float(rng.uniform(1.1, 50.0))
        rho = float(rng.uniform(1e-3, 0.999) * theta)
        env = gs.omega_weight(math.inf, theta, rho)
        prev = 0.0
        for k in (1, 2, 5, 10, 25, 50):
            w = gs.omega_weight(k, theta, rho)
            assert prev < w <= env
            prev = w
        # gap to the envelope closes at the rate (L/k)^2/6
        x2 = (math.log(theta / rho) / 50.0) ** 2
        gap = env - gs.omega_weight(50, theta, rho)
        assert 0.4 * env * x2 / 6.0 < gap < 1.01 * env * x2 / 6.0


def test_omega_weight_vectorized_bound():
    rho = np.linspace(0.01, 9.9, 100)
    w = gs.omega_weight(3, 10.0, rho)
    assert np.all(w > 0.0)
    assert np.all(w <= 1.0 / np.log(10.0 / rho) + 1e-15)


def test_omega_weight_validation():
    with pytest.raises(DomainError):
        gs.omega_weight(2, 3.0, 3.0)
    with pytest.raises(DomainError):
        gs.omega_weight(2, 3.0, 0.0)
    with pytest.raises(DomainError):
        gs.omega_weight(2, -1.0, 0.5)
    with pytest.raises(DomainError):
        gs.omega_weight(math.inf, math.inf, 0.5)
    with pytest.raises(DomainError):
        gs.omega_weight(0.25, 3.0, 0.5)


def test_coordinate_maps_round_trip():
    m = gs.coordinate_maps("largek_rho", k=2, theta=4.0)
    assert m.forward(2.0 * math.atanh(0.5)) == pytest.approx(1.0, rel=1e-12)
    # past r ~ 12 the image hugs Theta within float spacing, so the sharp
    # round trip is asserted on the resolvable range only
    r = np.geomspace(1e-3, 12.0, 60)
    assert np.allclose(m.inverse(m.forward(r)), r, rtol=1e-11)
    assert m.inverse(m.forward(25.0)) == pytest.approx(25.0, rel=1e-7)

    m = gs.coordinate_maps("loglog_s", theta=math.e)
    assert m.forward(1.0) == pytest.approx(0.0, abs=1e-14)
    rho = math.e * np.exp(-np.exp(-np.linspace(-3.0, 3.0, 25)))
    assert np.allclose(m.inverse(m.forward(rho)), rho, rtol=1e-12)

    m = gs.coordinate_maps("rescaled_rho", lam=10.0)
    assert m.forward(0.2) == pytest.approx(1.0)
    x = np.linspace(0.01, 40.0, 50)
    assert np.allclose(m.inverse(m.forward(x)), x, rtol=1e-14)

    for kind, kw in (("largek_rho", dict(k=2)), ("mercator", {}),
                     ("largek_rho", dict(k=2, theta=math.inf)),
                     ("largek_rho", dict(k=math.inf, theta=4.0)),
                     ("largek_rho", dict(k=2, theta=math.nan)),
                     ("loglog_s", dict(theta=math.inf)),
                     ("loglog_s", dict(theta=math.nan))):
        with pytest.raises(DomainError):
            gs.coordinate_maps(kind, **kw)


def test_convexity_margin():
    r = np.linspace(0.05, 30.0, 300)
    # lambda = 1, k = 1: cosh(r) g'(Q) is identically 1; past r ~ 12 the
    # identity drowns in the cos(Q) ~ 0 times cosh(r) ~ 1e12 cancellation
    rs = np.linspace(0.05, 12.0, 120)
    assert np.allclose(gs.convexity_margin(gs.sphere(1, 1.0), rs), 0.75,
                       rtol=1e-9)
    for geom in (gs.sphere(1, 0.25), gs.sphere(2, 1.0), gs.sphere(3, 0.5),
                 gs.yang_mills(0.5), gs.yang_mills(1.0)):
        assert np.all(gs.convexity_margin(geom, r) > 0.0)
    assert gs.convexity_margin(gs.sphere(3, 0.5), 1.0) > 0.0


def test_conjugation_round_trip():
    r = np.linspace(0.0, 10.0, 64)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(r.size)
    w = gs.conjugation_transform(TO_HALF_LINE, 1, r, u)
    assert np.allclose(w, u * np.sinh(r) ** 1.5, rtol=1e-14)
    back = gs.conjugation_transform(FROM_HALF_LINE, 1, r, w)
    assert back[0] == 0.0    # weight vanishes at the origin
    assert np.allclose(back[1:], u[1:], rtol=1e-14)
    with pytest.raises(DomainError):
        gs.conjugation_transform("sideways", 1, r, u)


@pytest.mark.parametrize("k", [1, 2])
def test_conjugation_norm_identity(k):
    # int (psi_r^2 + k^2 psi^2/sinh^2) sinh = int (u_r^2 - k(k+1)u^2) sinh^{2k+1}
    from scipy.integrate import quad
    psi = lambda r: math.exp(-(r - 4.0) ** 2)
    dpsi = lambda r: -2.0 * (r - 4.0) * psi(r)

    def lhs(r):
        return (dpsi(r) ** 2 + k * k * psi(r) ** 2 / math.sinh(r) ** 2) \
            * math.sinh(r)

    def rhs(r):
        sh, ch = math.sinh(r), math.cosh(r)
        u = psi(r) / sh ** k
        du = dpsi(r) / sh ** k - k * psi(r) * ch / sh ** (k + 1)
        return (du * du - k * (k + 1) * u * u) * sh ** (2 * k + 1)

    left = quad(lhs, 1e-8, 12.0, limit=200)[0]
    right = quad(rhs, 1e-8, 12.0, limit=200)[0]
    assert right == pytest.approx(left, rel=1e-8)


def test_rescaled_potential_tends_to_euclidean():
    for k in (1, 2, 3):
        euc = gs.euclidean(k)
        for rho in (0.5, 1.0, 2.0):
            target = gs.effective_potential(euc, rho)
            gaps = [abs(gs.effective_potential(
                gs.rescaled(gs.sphere(k, lam)), rho) - target)
                for lam in (10.0, 100.0, 1000.0)]
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] < 1e-4 * max(1.0, abs(target))
