"""Gap spectra: certified eigenvalues, scans, sweeps, migration, large k."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

import gapspec as gs
from gapspec import _kernels, ode_engine, spectral
from gapspec.errors import (DomainError, EigenvalueMissing,
                            InconsistentCertificate, TailNotAsymptotic)
from gapspec.ode_engine import tail_radius
from gapspec.operators import op_code

from conftest import (MU2_LARGEK_100, MU2_LARGEK_INF_100, MU2_SPHERE_K2,
                      MU2_SPHERE_K3_L40, MU2_YM, B_SPHERE_K1)
from test_oracle import DEEP_WELLS, oracle_mu2, phi_shot


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
    # tolerance; at the caller's tolerance only the two certificate counts
    # around the matched root, since the count at the edge is read off the
    # threshold shot
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
    assert shots[1e-11] == 2
    assert shots[spectral.ISOLATION_RTOL] <= 18


def test_count_shots_stop_at_asymptotic_radius(monkeypatch):
    # every count shot ends at the closed-form tail radius, where the
    # potential has flattened; the tail's zero past it is counted in closed
    # form
    op = gs.half_line(gs.sphere(2, 10.0))
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
    # 18 isolation halvings and the 2 certificate counts; the count at the
    # edge is the threshold shot's
    assert len(counts) == 20
    for mu2, x_end, shots in counts:
        x_a = tail_radius(op, mu2)
        assert x_end == x_a
        assert len(shots) == 1
        x1, end = shots[0]
        assert x1 == x_a
        assert end == pytest.approx(x_a, rel=1e-12)


@pytest.mark.parametrize("op", [gs.half_line(gs.sphere(2, 10.0)),
                                gs.large_k(math.inf, 100.0),
                                gs.rescaled(gs.yang_mills(10.0))])
def test_match_tail_shots_start_at_asymptotic_radius(monkeypatch, op):
    # the decaying leg of every Wronskian match starts at a tail radius:
    # the refine's backward build shot at tail_radius(op, hi), where the
    # counts at its upper end hi stop, and every walk of its mesh at that
    # same node, which lies at or past tail_radius(op, mu2) for every
    # walked mu2 <= hi; every kernel shot passes rk_shoot the 14 positional
    # arguments the benchmark's tracer reads (args[13] is store)
    shots, walks = [], []
    real_shoot = _kernels.rk_shoot
    real_endpoint = spectral.endpoint_state

    def shoot(*args):
        shots.append(args)
        return real_shoot(*args)

    def endpoint(op, mu2, start, x_end, **kwargs):
        walks.append((mu2, start.x, x_end, kwargs["mesh"]))
        return real_endpoint(op, mu2, start, x_end, **kwargs)

    monkeypatch.setattr(_kernels, "rk_shoot", shoot)
    monkeypatch.setattr(spectral, "endpoint_state", endpoint)
    rep = gs.find_gap_eigenvalues(op, scans=False, threshold=False)
    assert rep.count == 1
    assert all(len(args) == 14 and isinstance(args[13], bool)
               for args in shots)
    builds = [args for args in shots if args[13]]
    assert len(builds) == 2
    backward = [args for args in builds if args[8] < args[4]]  # x1 < x0
    assert len(backward) == 1
    hi, x_hi = backward[0][3], backward[0][4]
    assert x_hi == tail_radius(op, hi)
    assert all(mesh is not None for *_, mesh in walks)
    walked = [(mu2, x0) for mu2, x0, x1, _ in walks if x1 < x0]
    assert len(walked) > 2
    for mu2, x0 in walked:
        assert mu2 <= hi
        assert x0 == x_hi >= tail_radius(op, mu2)


@pytest.mark.parametrize("mu2", [0.02, 0.0768, 0.15])
def test_factored_mismatch_is_the_phi_wronskian(mu2):
    # zeta^2 and W cancel from the normalized Wronskian, so the f legs give
    # the number a tight scipy phi-form match from R = 80 gives, although
    # the library's decaying leg starts at the tail radius; the mismatch is
    # of order one, and 0.0768 sits next to the root
    op = gs.half_line(gs.sphere(2, 5.0))
    xm = spectral._matching_point(op)
    m = math.sqrt(0.25 - mu2)
    p1, d1 = phi_shot("sphere", 2, 5.0, mu2, 1e-3, xm).y[:, -1]
    p2, d2 = phi_shot("sphere", 2, 5.0, mu2, 80.0, xm, y0=[1.0, -m]).y[:, -1]
    phi_form = (p1 * d2 - d1 * p2) / (abs(p1) * abs(p2) * m)
    meshes = [gs.StepMesh(gs.integrate(op, mu2, start, xm, rtol=1e-13))
              for start in spectral._match_starts(op, mu2, xm)]
    got = spectral._wronskian_mismatch(op, mu2, xm, 1e-13, meshes)
    assert got == pytest.approx(phi_form, rel=0.0, abs=1e-11)


_WELL_MEMBERS = (
    [gs.half_line(gs.GeometrySpec(kind, 2, lam)) for kind in ("sphere", "ym")
     for lam in MU2_SPHERE_K2]
    + [gs.half_line(gs.sphere(3, 40.0))]
    + [gs.half_line(gs.sphere(k, 100.0 ** (1.0 / k))) for k in MU2_LARGEK_100]
    + [gs.half_line(gs.sphere(k, lam)) for k in (3, 4, 6, 8, 10, 12, 16)
       for lam in (5.0, 10.0, 20.0, 50.0, 100.0)]
    + [gs.half_line(gs.GeometrySpec(*m)) for m in DEEP_WELLS]
    + [gs.rescaled(gs.sphere(2, 5.0)), gs.rescaled(gs.yang_mills(10.0))]
    + [gs.large_k(math.inf, theta) for theta in (100.0, 1e3, 1e4, 1e6)])


def _op_id(op):
    if op.geometry:
        return f"{op.family}-{op.geometry.kind}-{op.k:g}-{op.lam:g}"
    return f"{op.family}-inf-{op.theta:g}"


@pytest.mark.parametrize("op", _WELL_MEMBERS, ids=_op_id)
def test_matching_point_lies_in_the_well(op):
    # the map's midpoint lies past every regular start and short of the
    # tail radius, at both ends of the refine's range, whose upper end is
    # one ulp below the edge, and the potential is negative there: the scan
    # it replaced put the match under the barrier (U > 0) from lambda ~ 5e3
    # on
    xm = spectral._matching_point(op)
    edge = gs.continuum_edge(op)
    for mu2 in (0.0, math.nextafter(edge, 0.0)):
        assert gs.series_start(op, mu2).x < xm < tail_radius(op, mu2)
    assert _kernels.pot(*op_code(op), xm) < 0.0


@pytest.mark.parametrize("op", [
    gs.half_line(gs.sphere(2, 1.0)), gs.half_line(gs.yang_mills(0.5)),
    gs.rescaled(gs.sphere(3, 1.0)), gs.large_k(math.inf, 1.0)],
    ids=["sphere", "ym", "rescaled", "inf"])
def test_matching_point_needs_a_midpoint(op):
    # lambda <= 1 (Theta <= 1) has no well and no gap eigenvalue; the
    # closed form's artanh(1/lambda) would raise a bare ValueError
    with pytest.raises(DomainError, match="<= 1"):
        spectral._matching_point(op)


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
        spectral._refine_eigenvalue(op, 0, lo, lo + w, 1e-11)
    # the bracket around the root refines to it
    got, resid = spectral._refine_eigenvalue(op, 0, mu2 - 0.5 * w,
                                             mu2 + 0.5 * w, 1e-11)
    assert got == pytest.approx(mu2, rel=1e-9)
    assert resid < 1e-8
    # the stop is relative: a bracket 1e-3 wide around a root at 1.4e-29,
    # far below any absolute width, refines to the root too (an absolute
    # 1e-25 floor returned an end of the bracket untouched)
    deep = gs.half_line(gs.sphere(4, 1e5))
    root = oracle_mu2("sphere", 4, 1e5, 1.44e-29)
    got, _ = spectral._refine_eigenvalue(deep, 0, root * (1.0 - 1e-3),
                                         root * (1.0 + 1e-3), 1e-11)
    assert got == pytest.approx(root, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("geom", [gs.sphere(2, 40.0), gs.yang_mills(40.0)])
def test_match_shots_per_eigenvalue(monkeypatch, geom):
    # the refine stores its two legs once, at the isolation bracket's upper
    # end, and walks their meshes at every other mu2
    calls, builds = [], []
    real = spectral.endpoint_state
    real_integrate = spectral.integrate

    def counted(*args, **kwargs):
        calls.append(args[1])   # mu2
        return real(*args, **kwargs)

    def stored(*args, **kwargs):
        builds.append(args[1])
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(spectral, "endpoint_state", counted)
    monkeypatch.setattr(spectral, "integrate", stored)
    _certified(geom)
    assert len(calls) <= 16
    assert len(builds) == 2 and builds[0] == builds[1]
    assert builds[0] not in calls


def test_deep_well_walk_is_reshot_by_the_kernel(monkeypatch):
    # sphere(3, 1000) has its root at 7.4e-12, far below the isolation
    # bracket's upper end hi, where its meshes are built: a walk there has
    # a step that fails the acceptance test, so the kernel takes that leg
    # again from the same start and rebuilds its mesh, which later
    # iterates walk; here twice (the decaying leg at 0 and at the first
    # iterate), four kernel shots in all
    shots = []
    real = ode_engine.integrate

    def stored(op, mu2, start, x_end, *args, **kwargs):
        shots.append((mu2, start.x))
        return real(op, mu2, start, x_end, *args, **kwargs)

    monkeypatch.setattr(ode_engine, "integrate", stored)
    monkeypatch.setattr(spectral, "integrate", stored)
    ev = _certified(gs.sphere(3, 1000.0))
    assert len(shots) == 4
    (hi, x_reg), (hi2, x_dec) = shots[:2]
    assert hi == hi2 and x_reg < x_dec
    for mu2, x0 in shots[2:]:
        assert mu2 < hi
        assert x0 in (x_reg, x_dec)
    assert ev.mu2 == pytest.approx(oracle_mu2("sphere", 3, 1000.0, ev.mu2),
                                   rel=1e-9, abs=0.0)


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
    assert gs.count_eigenvalues_below(op, 0.25) == 1


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
        gs.half_line(gs.sphere(1, 1.0)), edge_probe) == 0
    assert gs.count_eigenvalues_below(
        gs.half_line(gs.sphere(2, 20.0)), edge_probe) == 1
    assert gs.count_eigenvalues_below(
        gs.half_line(gs.yang_mills(3.0)), -1.0) == 0


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_non_finite_count_radius_is_refused(R):
    # a count or a decaying leg that ends at a non-finite point is refused,
    # and so is a non-finite mu2 (a count radius of nan once counted 0
    # below 0.2, where the true count is 1, and inf hung a backward scan)
    op = gs.half_line(gs.sphere(2, 10.0))
    with pytest.raises(DomainError):
        gs.count_zeros(op, 0.2, gs.series_start(op, 0.2), R)
    with pytest.raises(DomainError):
        gs.tail_start_decaying(op, 0.2, R)
    with pytest.raises(DomainError):
        gs.count_eigenvalues_below(op, R)


@pytest.mark.parametrize("R", [1.0, 0.5])
def test_count_radius_short_of_the_flat_tail_is_refused(R):
    # no closed-form tail is assumed short of the tail radius: a decaying
    # leg from R is refused, and a count to R is one on (start, R] only (a
    # count radius of 1 once reported an empty gap, and 0.5 stepped a
    # backward scan onto r = 0, a division by zero)
    op = gs.half_line(gs.sphere(2, 10.0))
    assert R < tail_radius(op, 0.2)
    with pytest.raises(TailNotAsymptotic):
        gs.tail_start_decaying(op, 0.2, R)
    assert gs.count_zeros(op, 0.2, gs.series_start(op, 0.2), R) == 0
    assert gs.count_eigenvalues_below(op, 0.2) == 1


def test_count_radius_flat_only_at_itself_counts_the_tail():
    # just above the eigenvalue the zero of the regular solution lies past
    # the tail radius x_a: a count that ends exactly at x_a counts it in
    # closed form (a backward scan once dropped it where the flat point was
    # the count radius itself), and one that ends a float short of x_a
    # counts on (start, x_end] only
    op = gs.half_line(gs.sphere(2, 10.0))
    ev = MU2_SPHERE_K2[10.0]
    for mu2, want in ((ev * (1.0 + 1e-9), 1), (ev * (1.0 - 1e-9), 0)):
        start = gs.series_start(op, mu2)
        x_a = tail_radius(op, mu2)
        assert gs.count_zeros(op, mu2, start, x_a) == want
        assert gs.count_zeros(op, mu2, start, np.nextafter(x_a, 0.0)) == 0


def _move_tail(monkeypatch, move):
    """Replace the tail radius x_a by move(x_a) for counts and matches."""
    real = ode_engine.tail_radius

    def moved(op, mu2):
        return move(real(op, mu2))

    monkeypatch.setattr(ode_engine, "tail_radius", moved)
    monkeypatch.setattr(spectral, "tail_radius", moved)


def test_eigenvalue_R_independence(monkeypatch):
    # the closed-form tail radius lies where the tail is already exact: the
    # eigenvalue does not move when it is taken 1.5 times farther out
    op = gs.half_line(gs.sphere(2, 10.0))
    a = gs.find_gap_eigenvalues(op, scans=False, threshold=False)
    _move_tail(monkeypatch, lambda x: 1.5 * x)
    b = gs.find_gap_eigenvalues(op, scans=False, threshold=False)
    assert a.eigenvalues[0].mu2 == pytest.approx(b.eigenvalues[0].mu2,
                                                 rel=1e-9, abs=0.0)


@pytest.mark.parametrize("geom", [gs.sphere(2, 5.0), gs.yang_mills(20.0)],
                         ids=["sphere2", "ym"])
def test_count_radius_far_out_gives_the_same_certificate(monkeypatch, geom):
    # 40 units past the tail radius U - 1/4 is 35 decades smaller, and the
    # counts, the match and the threshold read-out taken there give the
    # same certificate to within their step errors
    op = gs.half_line(geom)
    ref = gs.find_gap_eigenvalues(op, scans=False)
    _move_tail(monkeypatch, lambda x: x + 40.0)
    rep = gs.find_gap_eigenvalues(op, scans=False)
    ev, ev_ref = rep.eigenvalues[0], ref.eigenvalues[0]
    assert ev.oscillation == ev_ref.oscillation == (0, 1)
    assert ev.mu2 == pytest.approx(ev_ref.mu2, rel=1e-11, abs=0.0)
    assert rep.threshold.b == pytest.approx(ref.threshold.b, rel=1e-9)
    assert rep.threshold.window[1] == ref.threshold.window[1] + 40.0


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


@pytest.mark.parametrize("op", [gs.half_line(gs.sphere(2, 10.0)),
                                gs.rescaled(gs.yang_mills(10.0)),
                                gs.large_k(math.inf, 100.0)],
                         ids=["sphere", "rescaled", "inf"])
def test_count_above_the_edge_is_refused(op):
    # above the edge no solution decays, the tail radius has no meaning and
    # a count on (start, x_end] is no eigenvalue count: it is refused,
    # naming mu2 and the edge, while exactly at the edge it still counts
    edge = gs.continuum_edge(op)
    for mu2 in (edge * (1.0 + 1e-12), 2.0 * edge, math.nan):
        with pytest.raises(DomainError, match=f"{edge:g}"):
            gs.count_eigenvalues_below(op, mu2)
    assert gs.count_eigenvalues_below(op, edge) == 1


def test_euclidean_count_is_refused():
    # the euclidean family has no gap, so nothing it counts is an
    # eigenvalue count
    with pytest.raises(DomainError, match="gap"):
        gs.count_eigenvalues_below(gs.euclidean(2), -0.1)


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


# lambda_* of the onset: where the threshold slope b and the edge count
# flip together (sweep_lambda at bisect_to 1e-6)
ONSETS = {(gs.SPHERE, 1): 3.449042, (gs.SPHERE, 2): 1.686554,
          (gs.SPHERE, 3): 1.400245, (gs.SPHERE, 4): 1.283195,
          (gs.YANG_MILLS, 2): 2.087312}
EDGE_COUNT_MEMBERS = (
    [(gs.half_line(gs.GeometrySpec(kind, k, onset + dlam)), int(dlam > 0))
     for (kind, k), onset in ONSETS.items()
     for dlam in (-0.2, 0.003, 1.0, 1e3 - onset, 1e5 - onset)]
    + [(gs.rescaled(gs.sphere(2, 5.0)), 1),
       (gs.rescaled(gs.yang_mills(10.0)), 1),
       (gs.large_k(math.inf, 1.5), 0), (gs.large_k(math.inf, 100.0), 1)])


@pytest.mark.parametrize("op,want", [
    pytest.param(op, want, id=_op_id(op)) for op, want in EDGE_COUNT_MEMBERS])
def test_threshold_shot_count_is_the_edge_count(op, want):
    # the threshold shot's two legs and the tail's zero past x_b count what
    # a count to the tail radius at the edge counts, below, just past and
    # well past the onset, deep in the well, in rho and for k = inf
    assert gs.fit_threshold(op).count == want
    assert gs.count_eigenvalues_below(op, gs.continuum_edge(op)) == want


@pytest.mark.parametrize("kind,k", [(gs.SPHERE, 1), (gs.SPHERE, 2),
                                    (gs.SPHERE, 4), (gs.YANG_MILLS, 2)])
@pytest.mark.parametrize("dlam", [0.001, 0.003, 0.006])
def test_eigenvalues_next_to_the_edge_are_certified(kind, k, dlam):
    # just past the onset the binding 1/4 - mu2 runs from 6.6e-9 to 5.4e-5
    # on these members; a count 1e-6 below the edge reported six of them
    # empty, and the edge count finds and certifies every one
    op = gs.half_line(gs.GeometrySpec(kind, k, ONSETS[kind, k] + dlam))
    rep = gs.find_gap_eigenvalues(op, scans=False)
    assert rep.count == 1 and rep.threshold.b < 0.0
    ev = rep.eigenvalues[0]
    assert ev.oscillation == (0, 1)
    assert ev.wronskian_residual < 1e-8
    assert ev.bracket[0] <= ev.mu2 <= ev.bracket[1] <= 0.25
    assert ev.mu2 < 0.25


def test_sweep_brackets_transitions_k1():
    rep = gs.sweep_lambda(gs.SPHERE, 1, [3.0, 3.5, 4.0], bisect_to=0.01)
    lo, hi = rep.slope_flip_bracket
    assert 3.4 < lo < hi <= 3.5
    assert hi - lo <= 0.01 + 1e-12
    # counted at the edge itself, the tail's zero enters exactly where b
    # changes sign (about 3.449), so the onset bisection takes the same
    # halves: a count 1e-6 below the edge put it past the flip
    assert rep.onset_bracket == rep.slope_flip_bracket
    counts = {p.lam: p.count for p in rep.points}
    assert counts[3.0] == 0 and counts[4.0] == 1


def test_sweep_reads_count_and_fit_off_one_shot(monkeypatch):
    # every grid point and every midpoint of either bisection makes one
    # threshold shot, which gives both its count and its fit; the sweep
    # makes no count of its own
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
    # each bracket is 0.5/2^9 wide: 2 x 9 midpoints, plus the 3 grid points
    assert calls == {"count": 0, "fit": 21}
    assert rep.slope_flip_bracket == (3.4482421875, 3.44921875)
    assert rep.onset_bracket == (3.4482421875, 3.44921875)


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
    # one redirect: the report is the pullback's
    rep = gs.find_gap_eigenvalues(gs.large_k(8, 100.0), scans=False)
    pull = gs.half_line(gs.sphere(8, 100.0 ** (1.0 / 8)))
    assert rep.operator == pull
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
