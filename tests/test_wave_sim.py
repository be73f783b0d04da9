"""Wave evolver: state assembly, stepping, diagnostics, nonlinear source."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gapspec as gs
from gapspec import _kernels, wave_sim
from gapspec.errors import (CFLViolation, DomainError, NoEigenmode,
                            TooFewSamples)
from gapspec.ode_engine import _free_radius

from conftest import MU2_SPHERE_K2
from test_oracle import phi_shot

MU2_K2L5 = MU2_SPHERE_K2[5.0]


def _bump_state(geometry, R=60.0, n=1024, amp=1.0, center=8.0, width=0.5,
                **kw):
    return gs.init_state(geometry, R, n,
                         gs.GaussianBump(amp, center, width), **kw)


def test_init_state_guards():
    g = gs.sphere(2, 1.0)
    with pytest.raises(DomainError):
        gs.init_state(g, 60.0, 511, gs.GaussianBump())
    with pytest.raises(DomainError):
        gs.init_state(g, 39.9, 1024, gs.GaussianBump())
    # a non-finite R leaves h and the stability limit NaN, and a
    # fractional n would reach linspace
    for R in (math.nan, math.inf):
        with pytest.raises(DomainError):
            gs.init_state(g, R, 1024, gs.GaussianBump())
    # past r = 710 sinh r overflows: the zero mode that builds the
    # potential turns inf, and the potential NaN
    for R in (710.5, 800.0):
        with pytest.raises(DomainError, match="710"):
            gs.init_state(g, R, 8192, gs.GaussianBump())
    state = gs.init_state(g, 700.0, 8192, gs.GaussianBump())
    assert np.all(np.isfinite(state.ueff)) and state.dt_max > 0.0
    for n in (1024.7, math.nan, math.inf):
        with pytest.raises(DomainError):
            gs.init_state(g, 60.0, n, gs.GaussianBump())
    with pytest.raises(DomainError):
        gs.init_state(g, 60.0, 1024, gs.CustomProfile(lambda r: r[:-1]))
    with pytest.raises(DomainError):
        gs.init_state(g, 60.0, 1024, object())
    for probe_r in (math.nan, math.inf):
        with pytest.raises(DomainError):
            gs.init_state(g, 60.0, 1024, gs.GaussianBump(), probe_r=probe_r)
    for bump in (gs.GaussianBump(width=0.0), gs.GaussianBump(width=-0.5),
                 gs.GaussianBump(width=math.nan),
                 gs.GaussianBump(width=math.inf),
                 gs.GaussianBump(amplitude=math.nan),
                 gs.GaussianBump(center=math.inf)):
        with pytest.raises(DomainError):
            gs.init_state(g, 60.0, 1024, bump)


def test_eigenmode_requires_existing_level():
    # lambda = 1 holds no gap eigenvalue; index 3 asks past the single one
    with pytest.raises(NoEigenmode):
        gs.init_state(gs.sphere(2, 1.0), 60.0, 1024, gs.GapEigenmode())
    with pytest.raises(NoEigenmode):
        gs.init_state(gs.sphere(2, 5.0), 60.0, 1024,
                      gs.GapEigenmode(index=3))
    # index -1 once read the last eigenvalue, and 0.5 raised a TypeError
    for index in (-1, 0.5, 1.0, "0", None):
        with pytest.raises(DomainError, match="index"):
            gs.init_state(gs.sphere(2, 5.0), 60.0, 1024,
                          gs.GapEigenmode(index=index))


def test_eigenmode_profile_normalized():
    state = gs.init_state(gs.sphere(2, 5.0), 60.0, 1024,
                          gs.GapEigenmode(mu2=MU2_K2L5))
    assert state.mu2 == MU2_K2L5
    assert np.max(np.abs(state.w)) == pytest.approx(1.0, abs=1e-15)
    assert state.w[0] == 0.0 and state.w[-1] == 0.0
    assert state.probe_index == int(np.argmax(np.abs(state.w)))
    assert not np.any(state.v)


def _phi_shot(geom, mu2, r0, r):
    """phi at r from a tight scipy shot off phi = r0^(k+1/2)."""
    return phi_shot(geom.kind, geom.k, geom.lam, mu2, r0, r).y[0, -1]


def test_eigenmode_head_below_free_start():
    # below r = 0.64, where the map's potential at the k = 16, Theta = 100
    # pullback is 1e-12 in relative effect, the eigenmode zeta f holds the
    # regular solution's own shape, checked against scipy phi shots from
    # 1e-3
    k, mu2 = 16, 7.415132251538e-03
    geom = gs.sphere(k, 100.0 ** (1.0 / k))
    rf = _free_radius(k, geom.lam)
    state = gs.init_state(geom, 40.0, 4096, gs.GapEigenmode(mu2=mu2))
    head = np.flatnonzero((state.grid > 0.0) & (state.grid < rf))
    assert head.size > 50

    last = head[-1]
    ref = _phi_shot(geom, mu2, 1e-3, state.grid[last])
    for i in head[::20]:
        assert state.w[i] / state.w[last] == pytest.approx(
            _phi_shot(geom, mu2, 1e-3, state.grid[i]) / ref, rel=1e-10)


def test_eigenmode_nodes_near_the_axis_match_a_tight_shot():
    # w = zeta f interpolates the slowly varying f between the shot's
    # steps; interpolating phi ~ r^(5/2) itself put the nodes at the well
    # of sphere(2, 20) up to 1e-4 off
    geom, mu2 = gs.sphere(2, 20.0), MU2_SPHERE_K2[20.0]
    state = gs.init_state(geom, 40.0, 4096, gs.GapEigenmode(mu2=mu2))
    nodes = np.flatnonzero((state.grid > 0.0) & (state.grid < 0.2))
    last = nodes[-1]
    ref = _phi_shot(geom, mu2, 1e-4, state.grid[last])
    for i in nodes:
        assert state.w[i] / state.w[last] == pytest.approx(
            _phi_shot(geom, mu2, 1e-4, state.grid[i]) / ref, rel=1e-7,
            abs=0.0)


def test_eigenmode_located_on_demand():
    state = gs.init_state(gs.sphere(2, 5.0), 60.0, 1024, gs.GapEigenmode())
    assert state.mu2 == pytest.approx(MU2_K2L5, rel=1e-9)


def test_probe_index_clamped():
    g = gs.sphere(2, 1.0)
    assert _bump_state(g, probe_r=0.0).probe_index == 1
    assert _bump_state(g, probe_r=60.0).probe_index == 1022
    state = _bump_state(g)
    assert state.probe_index == pytest.approx(8.0 / state.h, abs=1.0)


def test_dt_max_is_gershgorin_bound():
    state = _bump_state(gs.sphere(2, 5.0))
    want = 2.0 * wave_sim.CFL_FACTOR / math.sqrt(
        4.0 / state.h ** 2 + float(state.ueff.max()))
    assert state.dt_max == pytest.approx(want, rel=1e-13)


def test_step_and_run_guards():
    state = _bump_state(gs.sphere(2, 1.0))
    with pytest.raises(CFLViolation):
        gs.step(state, state.dt_max * 1.01)
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            gs.step(state, dt)
        with pytest.raises(DomainError):
            gs.run(state, 5.0, dt=dt)
    # a stride below 1 would never advance the stepping loop
    for stride in (0, -3, 2.5):
        with pytest.raises(DomainError):
            gs.run(state, 5.0, energy_stride=stride)
    for t_final in (math.inf, math.nan):
        with pytest.raises(DomainError):
            gs.run(state, t_final)
    for nsteps in (0, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            gs.step(state, state.dt_max, nsteps)
    with pytest.raises(DomainError):
        gs.run(state, 0.0)
    with pytest.raises(CFLViolation):
        gs.run(state, 5.0, dt=2.0 * state.dt_max)


def test_run_lands_on_t_final():
    state = _bump_state(gs.sphere(2, 1.0))
    res = gs.run(state, 7.0)
    assert state.t == pytest.approx(7.0, abs=1e-9)
    assert res.dt <= state.dt_max * (1.0 + 1e-12)
    assert res.times.size == round(7.0 / res.dt)
    assert res.times[-1] == pytest.approx(7.0, abs=1e-9)
    assert res.energy_times[0] == 0.0
    assert res.energy_times[-1] == pytest.approx(7.0, abs=1e-9)
    assert res.probe[-1] == state.w[state.probe_index]


def test_zero_data_stays_zero():
    state = _bump_state(gs.sphere(2, 1.0), amp=0.0, nonlinear=True)
    res = gs.run(state, 45.0)
    assert not np.any(state.w) and not np.any(state.v)
    assert not np.any(res.probe)
    assert not np.any(res.energies)
    summ = gs.probe_spectrum(res.times, res.probe)
    assert summ.dominant_omega is None
    assert summ.dominant_bin is None
    assert summ.decay_ratio == 0.0


def test_eigenmode_returns_after_one_period():
    # measured 2.4e-5 relative at this resolution; 1e-3 leaves margin
    state = gs.init_state(gs.sphere(2, 5.0), 60.0, 2048,
                          gs.GapEigenmode(mu2=MU2_K2L5))
    w0 = state.w.copy()
    gs.run(state, 2.0 * math.pi / math.sqrt(MU2_K2L5))
    err = math.sqrt(float(np.mean((state.w - w0) ** 2)))
    assert err / math.sqrt(float(np.mean(w0 ** 2))) < 1e-3


def test_eigenmode_rings_at_gap_frequency():
    state = gs.init_state(gs.sphere(2, 5.0), 60.0, 1024,
                          gs.GapEigenmode(mu2=MU2_K2L5))
    res = gs.run(state, 500.0)
    summ = gs.probe_spectrum(res.times, res.probe)
    omega = math.sqrt(MU2_K2L5)
    assert abs(summ.dominant_omega - omega) <= summ.bin_width
    assert summ.decay_ratio > 0.99
    drift = np.max(np.abs(res.energies - res.energies[0]))
    assert drift < 1e-3 * abs(res.energies[0])


def test_bump_disperses():
    # generic data leaves the probe; the residue rings at the continuum
    # edge omega ~ 1/2 where the group velocity vanishes
    state = _bump_state(gs.sphere(1, 1.0), R=80.0, probe_r=5.0)
    res = gs.run(state, 70.0)
    summ = gs.probe_spectrum(res.times, res.probe)
    assert summ.decay_ratio < 0.2
    assert summ.dominant_omega > 0.4
    drift = np.max(np.abs(res.energies - res.energies[0]))
    assert drift < 1e-2 * abs(res.energies[0])


def test_superposition():
    fa = lambda r: np.exp(-0.5 * ((r - 8.0) / 0.5) ** 2)
    fb = lambda r: 0.7 * np.exp(-0.5 * ((r - 14.0) / 0.8) ** 2)
    outs = []
    for fn in (fa, fb, lambda r: fa(r) + fb(r)):
        state = gs.init_state(gs.sphere(2, 1.0), 60.0, 1024,
                              gs.CustomProfile(fn))
        gs.run(state, 10.0)
        outs.append(state.w)
    assert np.max(np.abs(outs[0] + outs[1] - outs[2])) < 1e-10


def test_domain_of_dependence():
    # bump at r = 30 cannot reach the probe at r = 5 by t = 15
    state = _bump_state(gs.sphere(1, 1.0), R=80.0, n=2048, center=30.0,
                        probe_r=5.0)
    probe = gs.step(state, state.dt_max, int(15.0 / state.dt_max))
    assert np.max(np.abs(probe)) < 1e-12


def test_second_order_in_time():
    prof = gs.CustomProfile(lambda r: np.exp(-0.125 * (r - 12.0) ** 2))
    finals = []
    for dt in (0.03125, 0.015625, 0.0078125):
        state = gs.init_state(gs.sphere(2, 1.0), 60.0, 1024, prof)
        gs.run(state, 4.0, dt=dt)
        finals.append(state.w.copy())
    d1 = float(np.linalg.norm(finals[0] - finals[1]))
    d2 = float(np.linalg.norm(finals[1] - finals[2]))
    assert 3.5 < d1 / d2 < 4.5


def _reference_acceleration(state, w):
    """w_rr - ueff*w (+ remainder source) with Dirichlet ends, written out
    from the state's ueff, h and the kernels' remainder."""
    a = np.zeros_like(w)
    a[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / state.h ** 2 \
        - state.ueff[1:-1] * w[1:-1]
    if state.nonlinear:
        g = state.geometry
        rem = _kernels.remainder(w * state.inv_ss,
                                 0 if g.kind == gs.SPHERE else 1,
                                 state.sin2q, state.cos2q, state.qm1)
        a[1:-1] -= g.k ** 2 * rem[1:-1] * state.inv_s32[1:-1]
    return a


def _reference_verlet(state, dt, nsteps):
    """Textbook velocity Verlet, two half-kicks per step, from the state's
    current w and v; returns the final (w, v)."""
    w, v = state.w.copy(), state.v.copy()
    a = _reference_acceleration(state, w)
    for _ in range(nsteps):
        v += 0.5 * dt * a
        w += dt * v
        a = _reference_acceleration(state, w)
        v += 0.5 * dt * a
    return w, v


@pytest.mark.parametrize("linear", [True, False])
def test_stepper_matches_textbook_verlet(linear):
    # the one-kick stepper is the same scheme up to rounding: after 500
    # steps in chunks of 100 it agrees with the two-half-kick loop, and each
    # chunk leaves in `a` the acceleration of the w it leaves, as assembled
    # at set-up
    if linear:
        state = gs.init_state(gs.sphere(2, 5.0), 60.0, 2048,
                              gs.GapEigenmode(mu2=MU2_K2L5))
    else:
        state = _bump_state(gs.sphere(2, 1.0), amp=0.3, nonlinear=True)
    dt = state.dt_max
    scale = float(np.max(np.abs(state.w)))
    w_ref, v_ref = _reference_verlet(state, dt, 500)
    for _ in range(5):
        gs.step(state, dt, 100)
        a_set = np.zeros_like(state.a)
        _kernels.acceleration(state.w, 1.0, 1.0 / state.h ** 2, state.ueff,
                              *wave_sim._source_args(state))(a_set[1:-1])
        assert np.max(np.abs(state.a - a_set)) \
            <= 1e-12 * np.max(np.abs(a_set))
    assert np.max(np.abs(state.w - w_ref)) <= 1e-10 * scale
    assert np.max(np.abs(state.v - v_ref)) <= 1e-10 * scale
    assert state.w[0] == state.w[-1] == 0.0


def test_chunking_does_not_change_the_steps():
    states = [_bump_state(gs.sphere(2, 1.0)) for _ in range(2)]
    dt = states[0].dt_max
    probe = gs.step(states[0], dt, 128)
    split = np.concatenate([gs.step(states[1], dt, 64),
                            gs.step(states[1], dt, 64)])
    scale = float(np.max(np.abs(states[0].w)))
    assert np.max(np.abs(probe - split)) <= 1e-12 * scale
    for field in ("w", "v", "a"):
        one, two = getattr(states[0], field), getattr(states[1], field)
        assert np.max(np.abs(one - two)) <= 1e-12 * np.max(np.abs(one))


def test_static_map_energy_recovered():
    # zero wave data: the full-field energy is the harmonic map's
    for g in (gs.sphere(2, 1.0), gs.yang_mills(2.0)):
        state = _bump_state(g, n=2048, amp=0.0)
        br = gs.nonlinear_energy(state)
        assert br.kinetic == 0.0
        assert br.total == pytest.approx(gs.energy_closed_form(g), rel=2e-4)


def test_nonlinear_run_conserves_energy_within_bound():
    g = gs.sphere(2, 1.0)
    state = _bump_state(g, n=2048, amp=0.3, nonlinear=True)
    e0 = gs.nonlinear_energy(state).total
    bound = gs.amplitude_bound(g, e0 / g.k)
    worst_amp = 0.0
    worst_drift = 0.0
    for _ in range(20):
        gs.step(state, state.dt_max, 100)
        worst_drift = max(worst_drift,
                          abs(gs.nonlinear_energy(state).total - e0))
        psi = gs.eval_Q(g, state.grid) + state.w * state.inv_ss
        worst_amp = max(worst_amp, float(np.max(np.abs(psi))))
    assert worst_drift < 1e-3 * e0
    # the wave pushes past the static sup yet stays under the
    # conserved-energy inversion (measured at 97 percent of it)
    assert worst_amp > gs.endpoint(g)
    assert worst_amp <= bound * (1.0 + 1e-2)


def test_nonlinear_source_guards():
    g = gs.sphere(2, 1.0)
    with pytest.raises(DomainError):
        gs.nonlinear_source(g, 0.0, 0.1)
    with pytest.raises(DomainError):
        gs.nonlinear_source(g, np.array([1.0, -2.0]), 0.1)
    assert gs.nonlinear_source(g, 2.0, 0.0) == 0.0
    out = gs.nonlinear_source(g, np.array([1.0, 2.0]), 0.05)
    assert out.shape == (2,)
    assert isinstance(gs.nonlinear_source(g, 1.5, 0.05), float)


def test_nonlinear_source_ym_identity():
    g = gs.yang_mills(1.3)
    r = np.array([0.5, 1.0, 2.0, 4.0])
    u = np.array([0.3, -0.2, 0.05, 1e-3])
    d = np.sinh(r) ** 2 * u
    q = gs.eval_Q(g, r)
    want = -4.0 * (0.5 * d ** 3 + 1.5 * (q - 1.0) * d ** 2) / np.sinh(r) ** 4
    assert np.allclose(gs.nonlinear_source(g, r, u), want, rtol=1e-12)


def test_nonlinear_source_sphere_high_precision():
    # exact remainder of g g' at 50 digits, hitting the guarded branch
    g = gs.sphere(2, 1.0)
    with mpmath.workdps(50):
        for r, u in ((2.0, 1e-6), (1.5, 1e-5), (3.0, 1e-8), (2.0, 0.3)):
            rm = mpmath.mpf(r)
            d = mpmath.sinh(rm) ** 2 * mpmath.mpf(u)
            q = 2 * mpmath.atan(mpmath.tanh(rm / 2) ** 2)
            rem = (mpmath.sin(2 * (q + d)) / 2 - mpmath.sin(2 * q) / 2
                   - mpmath.cos(2 * q) * d)
            want = float(-4 * rem / mpmath.sinh(rm) ** 4)
            assert gs.nonlinear_source(g, r, u) == pytest.approx(
                want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 4.0), st.floats(-0.5, 0.5))
def test_nonlinear_source_sphere_matches_subtraction(r, u):
    # direct three-term subtraction; fine away from tiny delta where it
    # cancels catastrophically
    g = gs.sphere(2, 1.0)
    q = float(gs.eval_Q(g, r))
    d = math.sinh(r) ** 2 * u
    rem = (0.5 * math.sin(2.0 * (q + d)) - 0.5 * math.sin(2.0 * q)
           - math.cos(2.0 * q) * d)
    want = -4.0 * rem / math.sinh(r) ** 4
    scale = 4.0 * (1.0 + abs(d)) / math.sinh(r) ** 4
    assert abs(gs.nonlinear_source(g, r, u) - want) <= 1e-8 * scale


def test_nonlinear_source_quadratic_limit():
    # N / u^2 tends to k^2 sin 2Q (sphere) and -6 (Q - 1) (Yang-Mills)
    r = 2.0
    cases = ((gs.sphere(2, 1.0),
              4.0 * math.sin(2.0 * float(gs.eval_Q(gs.sphere(2, 1.0), r)))),
             (gs.yang_mills(1.0),
              -6.0 * (float(gs.eval_Q(gs.yang_mills(1.0), r)) - 1.0)))
    for g, lim in cases:
        errs = [abs(gs.nonlinear_source(g, r, u) / u ** 2 - lim) / abs(lim)
                for u in (1e-2, 1e-3, 1e-4)]
        assert errs[2] < 3e-3
        assert errs[0] > errs[1] > errs[2]


def test_probe_spectrum_synthetic():
    t = np.arange(4096) * 0.05
    summ = gs.probe_spectrum(t, np.cos(0.3 * t))
    assert abs(summ.dominant_omega - 0.3) <= 0.5 * summ.bin_width
    assert summ.decay_ratio > 0.95
    damped = gs.probe_spectrum(t, np.exp(-t / 50.0) * np.cos(0.3 * t))
    assert abs(damped.dominant_omega - 0.3) <= damped.bin_width
    assert 0.01 < damped.decay_ratio < 0.1
    # 0.25 is exact in binary so the detrended series is exactly zero
    flat = gs.probe_spectrum(t[:2000], np.full(2000, 0.25))
    assert flat.dominant_omega is None and flat.decay_ratio == 0.0
    with pytest.raises(TooFewSamples):
        gs.probe_spectrum(t[:1000], np.cos(t[:1000]))
