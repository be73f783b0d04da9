"""Gap spectra: certified eigenvalues, scans, sweeps, migration, large k."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

import gapspec as gs
from gapspec import _kernels, spectral
from gapspec.errors import (DomainError, EigenvalueMissing,
                            InconsistentCertificate, TailNotAsymptotic)
from gapspec.ode_engine import asymptotic_radius

from conftest import (MU2_LARGEK_100, MU2_LARGEK_INF_100, MU2_SPHERE_K2,
                      MU2_SPHERE_K3_L40, MU2_YM, B_SPHERE_K1)
from test_oracle import phi_shot


def _certified(geom):
    rep = gs.find_gap_eigenvalues(gs.half_line(geom), scans=False,
                                  threshold=False)
    assert rep.count == 1
    ev = rep.eigenvalues[0]
    # count and match solve the same problem: the root is in the bracket
    assert ev.bracket[0] <= ev.mu2 <= ev.bracket[1]
    return ev


@pytest.mark.parametrize("lam", [5.0, 10.0, 20.0, 40.0])
def test_certified_eigenvalues_sphere_k2(lam):
    ev = _certified(gs.sphere(2, lam))
    assert ev.mu2 == pytest.approx(MU2_SPHERE_K2[lam], rel=1e-9)
    assert ev.wronskian_residual < 1e-8
    assert ev.oscillation == (0, 1)
    assert ev.bracket[1] - ev.bracket[0] < 1e-9
    assert not ev.near_threshold
    assert 0.0 < ev.mu2 < 0.25


@pytest.mark.parametrize("lam", [5.0, 10.0, 20.0, 40.0])
def test_certified_eigenvalues_yang_mills(lam):
    ev = _certified(gs.yang_mills(lam))
    assert ev.mu2 == pytest.approx(MU2_YM[lam], rel=1e-9)
    assert ev.wronskian_residual < 1e-8
    assert ev.oscillation == (0, 1)


def test_deep_well_eigenvalue_k3():
    # the k=3 lambda=40 well pushes mu2 to 3e-6; certification must survive
    ev = _certified(gs.sphere(3, 40.0))
    assert ev.mu2 == pytest.approx(MU2_SPHERE_K3_L40, rel=1e-9, abs=0.0)
    assert ev.wronskian_residual < 1e-8


def test_one_count_bisection_per_eigenvalue(monkeypatch):
    # isolation: 18 halvings of (0, 1/4) down to 1e-6 at the isolation
    # tolerance; at the caller's tolerance only the count below the edge and
    # the two certificate counts around the matched root
    shots = {}
    real = spectral.count_zeros

    def counted(*args, **kwargs):
        shots[kwargs["rtol"]] = shots.get(kwargs["rtol"], 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "count_zeros", counted)
    rep = gs.find_gap_eigenvalues(gs.half_line(gs.sphere(2, 10.0)),
                                  scans=False, threshold=False)
    assert rep.count == 1
    assert rep.eigenvalues[0].mu2 == pytest.approx(MU2_SPHERE_K2[10.0],
                                                   rel=1e-9)
    assert set(shots) == {1e-11, spectral.ISOLATION_RTOL}
    assert shots[1e-11] == 3
    assert shots[spectral.ISOLATION_RTOL] <= 18


def test_count_shots_stop_at_asymptotic_radius(monkeypatch):
    # every count shot ends where the potential has flattened, short of the
    # count radius; the tail's zero past it is counted in closed form
    op = gs.half_line(gs.sphere(2, 10.0))
    R_count = spectral.default_count_radius(op)
    kernel_ends, counts = [], []
    real_shoot = _kernels.rk_shoot
    real_count = spectral.count_zeros

    def shoot(*args):
        out = real_shoot(*args)
        kernel_ends.append((args[8], out[7]))       # (x1, end abscissa)
        return out

    def counted(op, mu2, start, x_end, **kwargs):
        kernel_ends.clear()
        n = real_count(op, mu2, start, x_end, **kwargs)
        counts.append((mu2, x_end, list(kernel_ends)))
        return n

    monkeypatch.setattr(_kernels, "rk_shoot", shoot)
    monkeypatch.setattr(spectral, "count_zeros", counted)
    ev = _certified(op.geometry)
    assert ev.mu2 == pytest.approx(MU2_SPHERE_K2[10.0], rel=1e-9)
    assert len(counts) > 20
    for mu2, x_end, shots in counts:
        x_a = asymptotic_radius(op, mu2, x_end)
        assert x_end >= R_count > x_a
        assert len(shots) == 1
        x1, end = shots[0]
        assert x1 == x_a
        assert end == pytest.approx(x_a, rel=1e-12)


@pytest.mark.parametrize("op", [gs.half_line(gs.sphere(2, 10.0)),
                                gs.large_k(math.inf, 100.0),
                                gs.rescaled(gs.yang_mills(10.0))])
def test_match_tail_shots_start_at_asymptotic_radius(monkeypatch, op):
    # the decaying leg of every Wronskian match starts where the count
    # shots stop, short of R; every shot passes rk_shoot the 14 positional
    # arguments the benchmark's tracer reads (args[13] is store)
    shots = []
    real_shoot = _kernels.rk_shoot

    def shoot(*args):
        shots.append(args)
        return real_shoot(*args)

    monkeypatch.setattr(_kernels, "rk_shoot", shoot)
    ev = gs.find_gap_eigenvalues(op, scans=False,
                                 threshold=False).eigenvalues[0]
    backward = [args for args in shots if args[8] < args[4]]   # x1 < x0
    assert len(backward) > 2
    for args in backward:
        mu2, x0 = args[3], args[4]
        assert x0 == asymptotic_radius(op, mu2, ev.R_used) < ev.R_used
    assert all(len(args) == 14 and args[13] is False for args in shots)


@pytest.mark.parametrize("mu2", [0.02, 0.0768, 0.15])
def test_factored_mismatch_is_the_phi_wronskian(mu2):
    # zeta^2 and W cancel from the normalized Wronskian, so the f legs give
    # the number a tight scipy phi-form match from R = 80 gives; the
    # mismatch is of order one, and 0.0768 sits next to the root
    op = gs.half_line(gs.sphere(2, 5.0))
    xm = spectral._matching_point(op, gs.series_start(op, mu2).x, 80.0)
    m = math.sqrt(0.25 - mu2)
    p1, d1 = phi_shot("sphere", 2, 5.0, mu2, 1e-3, xm).y[:, -1]
    p2, d2 = phi_shot("sphere", 2, 5.0, mu2, 80.0, xm, y0=[1.0, -m]).y[:, -1]
    phi_form = (p1 * d2 - d1 * p2) / (abs(p1) * abs(p2) * m)
    got = spectral._wronskian_mismatch(op, mu2, xm, 80.0, 1e-13)
    assert got == pytest.approx(phi_form, rel=0.0, abs=1e-11)


@pytest.mark.parametrize("wrong", [0, 1])
@pytest.mark.parametrize("geom,want,rel", [
    (gs.sphere(2, 10.0), MU2_SPHERE_K2[10.0], 1e-9),
    (gs.sphere(3, 40.0), MU2_SPHERE_K3_L40, 1e-9)])
def test_isolation_counts_cannot_decide_certificate(monkeypatch, wrong, geom,
                                                    want, rel):
    # the isolation shots may land the jump anywhere (count 0 or index + 1
    # at every mu2); the match then finds no sign change, and the location
    # is redone with the isolation at the caller's tolerance
    real = spectral.count_zeros

    def lying(*args, **kwargs):
        if kwargs["rtol"] == spectral.ISOLATION_RTOL:
            return wrong
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "count_zeros", lying)
    ev = _certified(geom)
    assert ev.oscillation == (0, 1)
    assert ev.bracket[1] - ev.bracket[0] <= spectral.BRACKET_WIDTH
    assert ev.mu2 == pytest.approx(want, rel=rel, abs=0.0)
    assert ev.wronskian_residual < 1e-8


@pytest.mark.parametrize("lam", [1222.0, 1500.0])
def test_certified_root_lies_in_the_gap(lam):
    # mu2 is of order 1e-30 here, where the absolute 1e-8 residual does not
    # bind and the match can land on mu2 = 0 exactly: that is no eigenvalue
    try:
        rep = gs.find_gap_eigenvalues(gs.half_line(gs.sphere(6, lam)),
                                      scans=False, threshold=False)
    except InconsistentCertificate:
        return
    for ev in rep.eigenvalues:
        assert 0.0 < ev.mu2 < rep.edge


def test_root_outside_the_gap_raises(monkeypatch):
    # a match that lands on mu2 = 0 exactly certifies nothing
    monkeypatch.setattr(spectral, "_refine_eigenvalue",
                        lambda *args: (0.0, 0.0))
    with pytest.raises(InconsistentCertificate, match="outside the gap"):
        gs.find_gap_eigenvalues(gs.half_line(gs.sphere(2, 10.0)),
                                scans=False, threshold=False)


@pytest.mark.parametrize("shift", [-10, 10])
def test_refine_rejects_bracket_off_root(shift):
    # a count bracket ten widths off the matched root fails containment
    op = gs.half_line(gs.sphere(2, 40.0))
    mu2 = MU2_SPHERE_K2[40.0]
    w = spectral.BRACKET_WIDTH
    lo = mu2 + (shift - 0.5) * w
    with pytest.raises(InconsistentCertificate, match="sign change"):
        spectral._refine_eigenvalue(op, 0, lo, lo + w, 60.0, 1e-11)
    # the bracket around the root refines to it
    got, resid = spectral._refine_eigenvalue(op, 0, mu2 - 0.5 * w,
                                             mu2 + 0.5 * w, 60.0, 1e-11)
    assert got == pytest.approx(mu2, rel=1e-9)
    assert resid < 1e-8


@pytest.mark.parametrize("geom", [gs.sphere(2, 40.0), gs.yang_mills(40.0)])
def test_match_shots_per_eigenvalue(monkeypatch, geom):
    calls = []
    real = spectral.endpoint_state

    def counted(*args, **kwargs):
        calls.append(args[1])   # mu2
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "endpoint_state", counted)
    _certified(geom)
    assert len(calls) <= 16


@pytest.mark.parametrize("kind,lam", [
    (gs.SPHERE, 800.0), (gs.SPHERE, 1000.0), (gs.SPHERE, 1e4),
    (gs.YANG_MILLS, 1e4)])
def test_count_at_zero_must_vanish(kind, lam):
    # the zero mode has no zeros; in f = phi/zeta the regular solution at
    # mu2 = 0 is f = 1 exactly, so the count there vanishes even at these
    # lambda, where a phi-shot miscounts; their certification against the
    # oracle is in test_oracle.py
    op = gs.half_line(gs.GeometrySpec(kind, 2, lam))
    assert gs.count_eigenvalues_below(op, 0.0) == 0
    assert gs.count_eigenvalues_below(op, 0.25 - spectral.COUNT_MARGIN) == 1


def test_matrix_oracle_k2_lambda5():
    # independent route: finite-difference matrix whose per-node potential
    # is the second difference of the exact zero mode over its value, so the
    # gap mode is represented without pointwise sampling error
    geom = gs.sphere(2, 5.0)
    n, R = 16384, 60.0
    r = np.linspace(0.0, R, n + 1)[1:]
    h = r[1] - r[0]
    zeta = gs.zero_mode(geom, gs.PHYSICAL_R, r)
    u = np.empty(n)
    u[1:-1] = (zeta[:-2] - 2.0 * zeta[1:-1] + zeta[2:]) / (h * h * zeta[1:-1])
    u[0] = u[1]
    u[-1] = u[-2]
    lam0 = eigh_tridiagonal(2.0 / h ** 2 + u, np.full(n - 1, -1.0 / h ** 2),
                            select="i", select_range=(0, 0),
                            eigvals_only=True)[0]
    assert abs(lam0 - MU2_SPHERE_K2[5.0]) < 5e-6


def test_clear_operator_k1_lambda1(monkeypatch):
    zero_shots = []
    real = spectral.count_zeros

    def counted(*args, **kwargs):
        if args[1] == 0.0:
            zero_shots.append(args[3])   # radius
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "count_zeros", counted)
    rep = gs.find_gap_eigenvalues(gs.half_line(gs.sphere(1, 1.0)))
    assert rep.count == 0
    assert rep.eigenvalues == []
    assert rep.negative_scan_clear
    # mu2 = 0 is counted once, as the scan's last probe
    assert rep.negative_scan[-1] == (0.0, 0)
    assert len(zero_shots) == 1
    assert rep.embedded_scan_clear
    assert rep.threshold.b == pytest.approx(B_SPHERE_K1[1.0], rel=1e-5)


def test_clear_operator_k2_lambda1():
    rep = gs.find_gap_eigenvalues(gs.half_line(gs.sphere(2, 1.0)),
                                  scans=False)
    assert rep.eigenvalues == []
    assert abs(rep.threshold.b) > 1e-4 * abs(rep.threshold.a)


def test_yang_mills_clear_then_trapped():
    rep = gs.find_gap_eigenvalues(gs.half_line(gs.yang_mills(0.8)),
                                  scans=False, threshold=False)
    assert rep.count == 0
    rep = gs.find_gap_eigenvalues(gs.half_line(gs.yang_mills(15.0)),
                                  scans=False, threshold=False)
    assert rep.count == 1


@settings(max_examples=40, deadline=None)
@given(geom=st.sampled_from([(gs.SPHERE, 1), (gs.SPHERE, 2), (gs.SPHERE, 3),
                             (gs.YANG_MILLS, 2)]),
       log_lam=st.floats(0.0, 4.0),
       mu2s=st.lists(st.floats(-1.0, 0.25 - 1e-6), min_size=2, max_size=2))
def test_count_monotone_and_empty_below_zero(geom, log_lam, mu2s):
    # the count on (0, inf) is the number of eigenvalues below mu2: it never
    # falls as mu2 rises, and the zero mode at mu2 = 0 has no zeros
    op = gs.half_line(gs.GeometrySpec(geom[0], geom[1], 10.0 ** log_lam))
    a, b = sorted(mu2s)
    ca = gs.count_eigenvalues_below(op, a)
    cb = gs.count_eigenvalues_below(op, b)
    assert 0 <= ca <= cb <= 1
    if a <= 0.0:
        assert ca == 0
    if b <= 0.0:
        assert cb == 0


def test_count_eigenvalues_below():
    edge_probe = 0.25 - 1e-6
    assert gs.count_eigenvalues_below(
        gs.half_line(gs.sphere(1, 1.0)), edge_probe, 60.0) == 0
    assert gs.count_eigenvalues_below(
        gs.half_line(gs.sphere(2, 20.0)), edge_probe, 60.0) == 1
    assert gs.count_eigenvalues_below(
        gs.half_line(gs.yang_mills(3.0)), -1.0, 60.0) == 0


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_non_finite_count_radius_is_refused(R):
    # R = nan once counted 0 below 0.2 (the true count is 1) and reported
    # an empty gap; R = inf hung the asymptotic-radius scan
    op = gs.half_line(gs.sphere(2, 10.0))
    with pytest.raises(DomainError):
        gs.count_eigenvalues_below(op, 0.2, R=R)
    with pytest.raises(DomainError):
        gs.find_gap_eigenvalues(op, R=R, threshold=False)
    with pytest.raises(DomainError):
        gs.find_gap_eigenvalues(gs.large_k(math.inf, 100.0), R=R)


@pytest.mark.parametrize("R", [1.0, 0.5])
def test_count_radius_short_of_the_flat_tail_is_refused(R):
    # R = 1 once reported an empty gap (the true count is 1) and R = 0.5
    # stepped the asymptotic-radius scan onto r = 0, a division by zero
    op = gs.half_line(gs.sphere(2, 10.0))
    with pytest.raises(TailNotAsymptotic):
        gs.count_eigenvalues_below(op, 0.2, R=R)
    with pytest.raises(TailNotAsymptotic):
        gs.find_gap_eigenvalues(op, R=R, scans=False, threshold=False)
    # the scan itself stays on r > 0, and a shot to R still counts on
    # (start, R]
    assert asymptotic_radius(op, 0.2, R) == R
    assert gs.count_zeros(op, 0.2, gs.series_start(op, 0.2), R) == 0
    # at or above the edge no tail is assumed, so there is nothing to refuse
    assert gs.count_eigenvalues_below(op, 0.5, R=R) == 0


def test_count_radius_flat_only_at_itself_counts_the_tail():
    # at R = 16 the potential has flattened for these mu2 but not half a
    # unit inside, so the asymptotic radius is R itself; the tail's zero
    # past R was once dropped there, a count of 0 just above the eigenvalue
    op = gs.half_line(gs.sphere(2, 10.0))
    ev = MU2_SPHERE_K2[10.0]
    assert asymptotic_radius(op, ev, 16.0) == 16.0
    assert gs.count_eigenvalues_below(op, ev * (1.0 + 1e-9), R=16.0) == 1
    assert gs.count_eigenvalues_below(op, ev * (1.0 - 1e-9), R=16.0) == 0


@pytest.mark.parametrize("lam,want", [(3.4, 0), (3.45, 1), (3.46, 1),
                                      (3.6, 1)])
def test_count_at_the_edge_counts_the_affine_tail(lam, want):
    # at mu2 = 1/4 the solution past the flat point x_b is affine, and its
    # zero there is counted in closed form; a count on (start, R] read 0 at
    # lambda = 3.45 to 3.6, where the eigenvalue lies 6e-9 to 1.4e-4 below
    # the edge, and so fell below the count at 1/4 - 1e-6 at 3.6
    op = gs.half_line(gs.sphere(1, lam))
    assert gs.count_eigenvalues_below(op, 0.25) == want
    assert want >= gs.count_eigenvalues_below(op, 0.25 - 1e-6)


def test_scans_clear_for_random_geometries():
    rng = np.random.default_rng(11)
    for _ in range(3):
        lam = float(rng.uniform(0.0, 40.0))
        if rng.uniform() < 0.5:
            geom = gs.sphere(int(rng.integers(1, 4)), lam)
        else:
            geom = gs.yang_mills(lam)
        rep = gs.find_gap_eigenvalues(gs.half_line(geom), threshold=False)
        assert rep.negative_scan_clear
        assert rep.embedded_scan_clear
        assert rep.count <= 1    # unique simple eigenvalue at most


def test_eigenvalue_R_independence():
    op = gs.half_line(gs.sphere(2, 10.0))
    a = gs.find_gap_eigenvalues(op, scans=False, threshold=False)
    b = gs.find_gap_eigenvalues(op, R=90.0, scans=False, threshold=False)
    assert a.eigenvalues[0].mu2 == pytest.approx(b.eigenvalues[0].mu2,
                                                 rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("geom", [gs.sphere(2, 5.0), gs.yang_mills(20.0)],
                         ids=["sphere2", "ym"])
def test_count_radius_far_out_gives_the_same_certificate(geom):
    # the asymptotic scan starts below r = 710, past which pot returns its
    # limit exactly, so R = 1e308 no longer steps back forever (x - 0.5
    # rounds to x past 9e15), and the matching point is the well's minimum
    # on [x0, x_a], not on [x0, R]: its clamp once left the well at large R
    # (sphere(2, 5) raised InconsistentCertificate at R = 1e6)
    op = gs.half_line(geom)
    ref = gs.find_gap_eigenvalues(op, R=60.0, scans=False)
    mu2 = ref.eigenvalues[0].mu2
    for R in (1e4, 1e6, 1e9, 1e308):
        rep = gs.find_gap_eigenvalues(op, R=R, scans=False)
        assert rep.eigenvalues[0].mu2 == mu2
        assert rep.threshold == ref.threshold
        assert asymptotic_radius(op, mu2, R) == asymptotic_radius(op, mu2,
                                                                  60.0)


def test_rescaled_family_scales_eigenvalue():
    # the rescaled member carries the same eigenvalue at 4 mu2 / lambda^2
    for g, mu2 in ((gs.sphere(2, 5.0), MU2_SPHERE_K2[5.0]),
                   (gs.sphere(2, 20.0), MU2_SPHERE_K2[20.0]),
                   (gs.yang_mills(10.0), MU2_YM[10.0])):
        lam = g.lam
        rep = gs.find_gap_eigenvalues(gs.rescaled(g), scans=False,
                                      threshold=False)
        assert rep.count == 1
        assert rep.edge == pytest.approx(1.0 / lam ** 2)
        want = 4.0 * mu2 / lam ** 2
        assert rep.eigenvalues[0].mu2 == pytest.approx(want, rel=1e-9)


def test_euclidean_family_rejected():
    with pytest.raises(DomainError):
        gs.find_gap_eigenvalues(gs.euclidean(2))


def test_sweep_flat_region_k1():
    rep = gs.sweep_lambda(gs.SPHERE, 1, [0.5, 1.0, 1.3])
    assert [p.count for p in rep.points] == [0, 0, 0]
    assert rep.slope_flip_bracket is None
    assert rep.onset_bracket is None
    bs = {p.lam: p.resonance_b for p in rep.points}
    assert bs[0.5] == pytest.approx(B_SPHERE_K1[0.5], rel=1e-5)
    with pytest.raises(DomainError):
        gs.sweep_lambda(gs.SPHERE, 1, [1.0, 0.5])
    # the gauge family has index 2 only; another k is rejected, not relabelled
    with pytest.raises(DomainError):
        gs.sweep_lambda(gs.YANG_MILLS, 1, [0.5])
    # a width that is not finite and positive would leave the grid interval
    # unrefined (nan) or bisect forever (0, negative)
    for width in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gs.sweep_lambda(gs.SPHERE, 1, [3.0, 4.0], bisect_to=width)


@pytest.mark.parametrize("width", [0.0, -1.0, 1e-300])
def test_bisect_stops_at_adjacent_floats(width):
    lo, hi = spectral._bisect(lambda x: x > 1.5, 1.0, 2.0, width)
    assert lo <= 1.5 < hi and hi == np.nextafter(lo, np.inf)


def test_sweep_brackets_transitions_k1():
    rep = gs.sweep_lambda(gs.SPHERE, 1, [3.0, 3.5, 4.0], bisect_to=0.01)
    lo, hi = rep.slope_flip_bracket
    assert 3.4 < lo < hi <= 3.5
    assert hi - lo <= 0.01 + 1e-12
    # counted on the whole half-line, the onset lies just past the slope
    # flip (about 3.449): the count stops COUNT_MARGIN below the edge
    slope_hi = hi
    lo, hi = rep.onset_bracket
    assert slope_hi <= lo < hi <= 3.5
    counts = {p.lam: p.count for p in rep.points}
    assert counts[3.0] == 0 and counts[4.0] == 1


def test_sweep_midpoints_compute_only_the_deciding_half(monkeypatch):
    # grid points compute both halves; each slope-flip midpoint only the
    # threshold fit and each onset midpoint only the count
    calls = {"count": 0, "fit": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spectral, "count_eigenvalues_below",
                        counted("count", spectral.count_eigenvalues_below))
    monkeypatch.setattr(spectral, "fit_threshold",
                        counted("fit", spectral.fit_threshold))
    rep = gs.sweep_lambda(gs.SPHERE, 1, [3.0, 3.5, 4.0], bisect_to=1e-3)
    # each bracket is 0.5/2^9 wide: 9 midpoints, plus the 3 grid points
    assert calls == {"count": 12, "fit": 12}
    assert rep.slope_flip_bracket == (3.4482421875, 3.44921875)
    assert rep.onset_bracket == (3.4609375, 3.4619140625)


def test_migration_sphere_k2():
    rep = gs.migration_curve(gs.SPHERE, 2, [5.0, 10.0, 20.0, 40.0])
    mus = [p.mu2 for p in rep.points]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    assert mus[-1] < mus[0] / 4.0
    assert len(rep.doubling_ratios) == 3
    for lam, ratio in rep.doubling_ratios:
        want = MU2_SPHERE_K2[2.0 * lam] / MU2_SPHERE_K2[lam]
        assert ratio == pytest.approx(want, rel=1e-6)


def test_migration_yang_mills():
    rep = gs.migration_curve(gs.YANG_MILLS, 2, [5.0, 10.0, 20.0])
    mus = [p.mu2 for p in rep.points]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    for lam, ratio in rep.doubling_ratios:
        assert ratio == pytest.approx(MU2_YM[2.0 * lam] / MU2_YM[lam],
                                      rel=1e-6)


def test_migration_guards():
    with pytest.raises(EigenvalueMissing):
        gs.migration_curve(gs.SPHERE, 2, [1.0])
    with pytest.raises(DomainError):
        gs.migration_curve(gs.SPHERE, 2, [10.0, 5.0])
    with pytest.raises(DomainError):
        gs.migration_curve(gs.YANG_MILLS, 3, [5.0])


def test_largek_scan_theta100():
    rep = gs.largek_gap_scan([8, 16, math.inf], 100.0)
    assert rep.theta == 100.0
    rows = {p.k: p for p in rep.points}
    for k in (8, 16):
        row = rows[k]
        assert row.count == 1
        assert row.mu2 == pytest.approx(MU2_LARGEK_100[k], rel=1e-9)
        # the normal form is the exact pullback of the half-line member
        assert row.halfline_count == 1
        assert row.mu2 == pytest.approx(row.halfline_mu2, rel=1e-9)
    inf_row = rows[math.inf]
    assert inf_row.count == 1
    assert inf_row.mu2 == pytest.approx(MU2_LARGEK_INF_100, rel=1e-9)
    assert math.isnan(inf_row.halfline_mu2)


def test_largek_scan_certifies_theta_1e6():
    # each finite-k row is its half-line pullback's one certification; an
    # s-coordinate shot once put these rows 6.7e-4 and 2.3e-3 off it, and
    # the scan then refused them (tests/test_oracle.py holds the values)
    rep = gs.largek_gap_scan([8, 16], 1e6)
    for row in rep.points:
        assert row.count == row.halfline_count == 1
        assert 0.0 < row.mu2 == row.halfline_mu2 < 2e-9
        assert row.resonance_b < 0.0


def test_finite_large_k_is_certified_on_its_pullback():
    # one redirect: the report is the pullback's, and a given R is in r
    rep = gs.find_gap_eigenvalues(gs.large_k(8, 100.0), R=45.0, scans=False)
    pull = gs.half_line(gs.sphere(8, 100.0 ** (1.0 / 8)))
    assert rep.operator == pull
    assert rep.R_count == rep.eigenvalues[0].R_used == 45.0
    assert rep.eigenvalues[0].mu2 == pytest.approx(MU2_LARGEK_100[8],
                                                   rel=1e-9)
    assert rep.threshold.b < 0.0


@pytest.mark.parametrize("theta", [100.0, 1e3])
def test_largek_inf_row_meets_its_richardson_limit(theta):
    # k = inf has no pullback; the pullbacks at k = 16, 32 and 64, fitted
    # quadratically in k^-2, must meet it within the fit's stated error,
    # the distance of the quadratic from the line through k = 32 and 64
    # (relative distance 4.9e-9 against 2.3e-6 at Theta = 100, 1.9e-7
    # against 1.9e-5 at 1e3)
    ks = (16, 32, 64)
    h = [k ** -2.0 for k in ks]
    mu2 = [gs.find_gap_eigenvalues(gs.large_k(k, theta), scans=False,
                                   threshold=False).eigenvalues[0].mu2
           for k in ks]
    quad = sum(mu2[i] * math.prod(h[j] / (h[j] - h[i])
                                  for j in range(3) if j != i)
               for i in range(3))
    line = (mu2[2] * h[1] - mu2[1] * h[2]) / (h[1] - h[2])
    inf = gs.find_gap_eigenvalues(gs.large_k(math.inf, theta), scans=False,
                                  threshold=False).eigenvalues[0].mu2
    assert abs(quad - inf) <= abs(quad - line)


def test_largek_scan_subcritical_theta():
    rep = gs.largek_gap_scan([20], 0.9)
    assert rep.points[0].count == 0
    assert rep.points[0].halfline_count == 0
    rep = gs.largek_gap_scan([math.inf], 1.0)
    assert rep.points[0].count == 0
