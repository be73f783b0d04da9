"""Static maps: profiles, metric factors, energies, and the sup bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gapspec as gs
from gapspec.errors import DomainError

LAMBDAS = st.floats(0.05, 50.0)


def test_sphere_endpoint_and_origin():
    g = gs.sphere(2, 3.0)
    assert gs.eval_Q(g, 0.0) == 0.0
    assert math.isclose(gs.endpoint(g), 2.0 * math.atan(3.0 ** 2))
    # the profile climbs monotonically toward the endpoint
    r = np.linspace(0.0, 30.0, 400)
    q = gs.eval_Q(g, r)
    assert np.all(np.diff(q) > 0.0)
    assert q[-1] == pytest.approx(gs.endpoint(g), abs=1e-8)


def test_yang_mills_endpoint():
    g = gs.yang_mills(1.5)
    y = 1.5 ** 2
    assert math.isclose(gs.endpoint(g), 2.0 * y / (1.0 + y))
    assert gs.eval_Q(g, 0.0) == 0.0


def test_metric_factors_sphere():
    g = gs.sphere(1, 1.0)
    psi = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(gs.metric_g(g, psi), np.sin(psi))
    assert np.allclose(gs.metric_g_prime(g, psi), np.cos(psi))
    assert np.allclose(gs.metric_g_double_prime(g, psi), -np.sin(psi))


def test_metric_factors_yang_mills():
    g = gs.yang_mills(1.0)
    psi = np.linspace(-1.0, 3.0, 17)
    assert np.allclose(gs.metric_g(g, psi), psi - 0.5 * psi ** 2)
    assert np.allclose(gs.metric_g_prime(g, psi), 1.0 - psi)
    assert np.allclose(gs.metric_g_double_prime(g, psi), -1.0)


@given(lam=LAMBDAS, k=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_profile_solves_static_equation(lam, k):
    # Q'' + coth r Q' = k^2 g g'(Q)/sinh^2 r, checked by finite differences
    g = gs.sphere(k, lam)
    r = np.linspace(0.8, 3.0, 23)
    h = 1e-4
    qm, q0, qp = gs.eval_Q(g, r - h), gs.eval_Q(g, r), gs.eval_Q(g, r + h)
    lhs = (qp - 2.0 * q0 + qm) / h ** 2 + (qp - qm) / (2.0 * h) / np.tanh(r)
    rhs = k * k * np.sin(q0) * np.cos(q0) / np.sinh(r) ** 2
    assert np.max(np.abs(lhs - rhs)) < 1e-5 * max(1.0, k * k * lam)


@given(lam=LAMBDAS, k=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_Q_prime_matches_difference_quotient(lam, k):
    g = gs.sphere(k, lam)
    r = np.linspace(0.3, 6.0, 11)
    h = 1e-6
    fd = (gs.eval_Q(g, r + h) - gs.eval_Q(g, r - h)) / (2.0 * h)
    assert np.allclose(gs.eval_Q_prime(g, r), fd, rtol=1e-7, atol=1e-9)


def test_energy_closed_forms_match_quadrature():
    for lam in (0.5, 1.0, 2.0, 5.0):
        g = gs.sphere(1, lam)
        closed = gs.energy_closed_form(g)
        assert math.isclose(closed, 2.0 * lam ** 2 / (1.0 + lam ** 2),
                            rel_tol=1e-14)
        assert abs(gs.energy_quadrature(g).total - closed) < 1e-8
        y = gs.yang_mills(lam)
        closed_ym = gs.energy_closed_form(y)
        expect = 4.0 * lam ** 4 * (3.0 + lam ** 2) / (3.0 * (1.0 + lam ** 2) ** 3)
        assert math.isclose(closed_ym, expect, rel_tol=1e-14)
        assert abs(gs.energy_quadrature(y).total - closed_ym) < 1e-8


def test_energy_higher_k_value():
    # k=2, lambda=2: energy is 2k lam^(2k)/(1+lam^(2k)) = 64/17
    g = gs.sphere(2, 2.0)
    assert math.isclose(gs.energy_closed_form(g), 64.0 / 17.0, rel_tol=1e-14)
    assert abs(gs.energy_quadrature(g).total - 64.0 / 17.0) < 1e-8


@given(lam=st.floats(0.1, 20.0), k=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_energy_monotone_in_lambda(lam, k):
    g1, g2 = gs.sphere(k, lam), gs.sphere(k, lam * 1.1)
    assert gs.energy_closed_form(g2) > gs.energy_closed_form(g1)


def test_energy_breakdown_parts():
    br = gs.energy_quadrature(gs.sphere(2, 2.0))
    assert br.kinetic == 0.0
    assert br.gradient > 0.0 and br.potential > 0.0
    assert math.isclose(br.total, br.gradient + br.potential, rel_tol=1e-12)


def test_amplitude_bound_dominates_endpoint():
    for g in (gs.sphere(1, 1.0), gs.sphere(2, 5.0), gs.yang_mills(2.0)):
        e = gs.energy_closed_form(g)
        assert gs.amplitude_bound(g, e) >= gs.endpoint(g) - 1e-12


def test_geometry_validation():
    with pytest.raises(DomainError):
        gs.sphere(0, 1.0)
    with pytest.raises(DomainError):
        gs.sphere(2, -1.0)
    with pytest.raises(DomainError):
        gs.yang_mills(-1.0)
    with pytest.raises(DomainError):
        gs.sphere(2, math.inf)
    with pytest.raises(DomainError):
        gs.yang_mills(math.inf)
    for k in (math.inf, math.nan, 2.5):
        with pytest.raises(DomainError):
            gs.sphere(k, 1.0)
    # lambda = 0 is the trivial map and stays legal
    assert gs.endpoint(gs.yang_mills(0.0)) == 0.0
