"""Gap-spectrum location and certification.

Every eigenvalue is established twice, by independent routes:

  * a Sturm count: the number of zeros of the regular solution on the
    whole half-line (0, inf) is a step function of the spectral parameter,
    jumping by one as each eigenvalue is crossed, with no cancellation.
    There is no count radius: every count is integrated only up to the
    tail radius x_a (ode_engine.tail_radius), a closed form from the bound
    |U - 1/4| <= (k^2 + 1/4)/sinh^2 r, past which the potential is within
    max(1e-12 m^2, 1e-17) of the edge. There the equation is
    phi'' = m^2 phi, and its solution has at most one zero on (x_a, inf),
    counted in closed form. A count above the edge has no such end point,
    and raises DomainError. Every shot here runs in
    f = phi/zeta over the closed-form zero mode zeta > 0 (see ode_engine),
    whose zeros are those of phi; at mu2 = 0 f = 1 exactly. The gap count
    is the threshold shot's count at the edge (ode_engine.fit_threshold).
    Cheap counts at rtol 1e-7 halve (0, edge) until the jump is isolated to
    at most 1e-6; they only choose where the match looks, up to an ulp
    below the edge, the smallest binding resolved (2.8e-17 at 1/4).
    The certificate rests on two counts at the caller's tolerance, at the
    ends of a bracket at most 1e-10 wide around the matched root;
  * a matching refinement: the normalized Wronskian of the regular shot
    and the decaying tail shot, taken in the well, changes sign across the
    eigenvalue. The tail shot runs backward from the tail
    radius x_a, where the count shots stop: past it the potential sits at
    the edge to 1e-12 m^2, so exp(-m x) is exact there.
    In f the second solution decreases outward, so neither leg amplifies
    its start or step errors; the forward leg starts on the series
    f = 1 - mu2 x^2/(4 nu + 2), or for k = inf on its far-field start. The
    Wronskian of f is that of phi divided by zeta^2, so the normalized
    mismatch is the same number in either form. The matching point is the
    map's midpoint, lambda tanh(r/2) = 1 (rho = 1 for k = inf). The
    mismatch must change sign across the isolation
    bracket, else InconsistentCertificate is raised. Illinois regula falsi
    then shrinks that sign change to the mismatch's noise floor: two
    iterates in a row that do not lower |mismatch|, a bracket below 1e-13
    relative to its ends, with no absolute floor, or an exact zero. The
    kernel shoots both legs once, at the bracket's upper end, and stores
    their accepted steps; every other iterate walks all of those steps
    (ode_engine.StepMesh), between the same two ends. Every walked step
    is checked with the kernel's own acceptance test at the new mu2; a
    walk with a step that fails it is dropped and the kernel takes that
    leg again, so a returned leg keeps the kernel's local error bound.

Both routes solve the same problem on the same half-line, so the count
jump sits at the matched root. A result is reported only when the matched
root lies in (0, edge), the zero counts at the ends of the bracket around
it read (index, index + 1) (the oscillation certificate), and the
Wronskian residual is below 1e-8. If the isolation, the match or the
certificate fails, all three are redone once with the isolation at the
caller's tolerance; a second failure raises InconsistentCertificate.

Threshold behavior is read off in closed form from the affine far field
phi = a + b x of the regular solution at the continuum edge
(ode_engine.fit_threshold), whose slope b vanishes exactly when a
resonance sits at the edge. The scan below the gap counts zero states
there. The embedded scan records the drift of the WKB amplitude of
continuum shots over [R/2, R], R = 60 in r (30 lambda in rho, 20 in s);
there U - edge is about exp(-R), and the amplitude's derivative is
2 phi phi' (U - edge)/kappa^2, so the drift measures integration error
only and cannot see a trapped state.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError, EigenvalueMissing, InconsistentCertificate
from .harmonic_maps import geometry, sphere
from .ode_engine import (StepMesh, ThresholdFit, count_zeros,
                         endpoint_state, fit_threshold, integrate,
                         series_start, tail_radius, tail_start_decaying)
from .operators import (EUCLIDEAN, LARGE_K, RESCALED, OperatorSpec,
                        continuum_edge, half_line, large_k, op_code)

BRACKET_WIDTH = 1e-10      # width of the certified bracket around the root
# cheaper count shots isolate the jump to ISOLATION_WIDTH for the match
ISOLATION_RTOL = 1e-7
ISOLATION_WIDTH = 1e-6
WRONSKIAN_TOL = 1e-8
EMBEDDED_FACTORS = (1.04, 1.2, 1.6, 2.0, 2.8, 4.0)
# 0.0 closes the sweep: the count there is exactly the number of
# eigenvalues below the gap
NEGATIVE_PROBES = (-4.0, -1.0, -0.25, -1e-3, 0.0)
EMBEDDED_FLATNESS_TOL = 1e-6


@dataclass(frozen=True)
class GapEigenvalue:
    """A certified eigenvalue in the spectral gap."""

    mu2: float
    bracket: tuple
    wronskian_residual: float
    index: int
    oscillation: tuple
    # never set: an eigenvalue the edge count finds is certified or raises
    near_threshold: bool = False


@dataclass
class SpectralReport:
    """Full account of one operator's gap spectrum."""

    operator: OperatorSpec
    edge: float
    count: int
    eigenvalues: list = field(default_factory=list)
    threshold: ThresholdFit = None
    negative_scan: list = field(default_factory=list)
    embedded_scan: list = field(default_factory=list)

    @property
    def negative_scan_clear(self):
        """True when every below-gap probe counted zero states."""
        return bool(self.negative_scan) and all(
            c == 0 for _, c in self.negative_scan)

    @property
    def embedded_scan_clear(self):
        """True when every continuum probe's WKB amplitude drifted by less
        than EMBEDDED_FLATNESS_TOL over [R/2, R].

        The drift is near 1e-11 here. Over that window U - edge is about
        exp(-R), so the amplitude is flat for every solution, trapped or
        not: the drift measures integration error, not point spectrum."""
        return bool(self.embedded_scan) and all(
            f < EMBEDDED_FLATNESS_TOL for _, f in self.embedded_scan)


@dataclass(frozen=True)
class SweepPoint:
    """Gap count and threshold read-out at one lambda: phi = a + b x at the
    edge, phi with leading coefficient 1 (see ode_engine.fit_threshold)."""

    lam: float
    count: int
    resonance_a: float
    resonance_b: float
    fit_residual: float


@dataclass
class SweepReport:
    """Threshold slope and eigenvalue count along a family parameter."""

    kind: str
    k: int
    grid: list
    points: list
    slope_flip_bracket: tuple = None    # b changes sign inside
    onset_bracket: tuple = None         # eigenvalue count 0 -> 1 inside


@dataclass(frozen=True)
class MigrationPoint:
    lam: float
    mu2: float
    wronskian_residual: float


@dataclass
class MigrationReport:
    kind: str
    k: int
    points: list
    doubling_ratios: list = field(default_factory=list)  # (lam, mu2(2l)/mu2(l))


@dataclass(frozen=True)
class LargeKPoint:
    """One row of a large-k scan. resonance_b is the threshold slope of
    ode_engine.fit_threshold (for k = inf in s). A finite-k row is
    certified once, on its half-line pullback; halfline_mu2 and
    halfline_count repeat that certification's mu2 and count, and are kept
    for the document format."""

    k: float                 # math.inf for the limit member
    count: int
    mu2: float               # nan when the gap is empty
    resonance_b: float
    halfline_mu2: float      # nan for k = inf
    halfline_count: int      # -1 for k = inf


@dataclass
class LargeKReport:
    theta: float
    points: list


def count_eigenvalues_below(op, mu2, rtol=1e-11):
    """Sturm count: zeros of the regular solution on (0, inf), the number
    of eigenvalues below mu2.

    The shot is integrated only up to the tail radius
    (ode_engine.tail_radius), and the zero of the constant-coefficient tail
    past it is counted in closed form (ode_engine.count_zeros). A mu2 above
    the edge, where no count is an eigenvalue count, and the euclidean
    family, which has no gap, raise DomainError.
    """
    if op.family == EUCLIDEAN:
        raise DomainError("the euclidean family has no spectral gap")
    edge = continuum_edge(op)
    if not mu2 <= edge:
        raise DomainError(f"mu2={mu2!r} is not at or below the edge "
                          f"{edge:g}: no count there counts eigenvalues")
    start = series_start(op, mu2)
    return count_zeros(op, mu2, start, tail_radius(op, mu2), rtol=rtol)


def _bisect(above, lo, hi, width):
    """Halve (lo, hi) down to `width`, keeping above(lo) false and
    above(hi) true. Stops early once lo and hi are adjacent floats, where
    the midpoint rounds onto one of them."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _matching_point(op):
    """Abscissa for Wronskian matching: the harmonic map's midpoint, where
    lambda tanh(r/2) = 1 and Q = pi/2 (sphere) or 1 (Yang-Mills) at every
    k. The well sits there; past it the regular solution decays under the
    centrifugal barrier, where a forward leg would pick up the growing
    solution. In rho the point is lambda artanh(1/lambda); the k = inf
    member matches at rho = 1, where C(rho) is smallest. lambda <= 1
    (Theta <= 1) has no midpoint, no well and no gap eigenvalue, and raises
    DomainError."""
    p = op_code(op)[2]
    if not p > 1.0:
        raise DomainError(f"lambda (Theta for k = inf) = {p:g} <= 1: the "
                          f"map has no midpoint, and no well to match in")
    if op.family == LARGE_K:
        return -math.log(math.log(p))
    r = 2.0 * math.atanh(1.0 / p)
    return 0.5 * p * r if op.family == RESCALED else r


def _match_starts(op, mu2, xm):
    """Starts of the regular leg and of the decaying leg, which starts at
    the tail radius x_a, past which the tail is exact. An xm outside
    (start, x_a) raises DomainError."""
    x_a = tail_radius(op, mu2)
    start = series_start(op, mu2)
    if not start.x < xm < x_a:
        raise DomainError(f"matching point {xm:.6g} outside (start, x_a) = "
                          f"({start.x:.6g}, {x_a:.6g})")
    return start, tail_start_decaying(op, mu2, x_a)


def _wronskian_mismatch(op, mu2, xm, rtol, meshes):
    """Signed normalized Wronskian at xm of the regular and decaying legs,
    each walked on its StepMesh from the mesh's first node: the regular
    leg on the series there, the decaying leg on the tail there, which
    must lie at or past the tail radius at mu2.

    In f = phi/zeta, (f1 g2 - g1 f2)/(|f1| |f2| m) is the phi-form
    (phi1 phi2' - phi1' phi2)/(|phi1| |phi2| m), since zeta^2 and the W
    terms cancel.
    """
    reg, dec = meshes
    fwd = endpoint_state(op, mu2, series_start(op, mu2, r0=reg.nodes[0]),
                         xm, rtol=rtol, mesh=reg)
    bwd = endpoint_state(op, mu2, tail_start_decaying(op, mu2, dec.nodes[0]),
                         xm, rtol=rtol, mesh=dec)
    return _normalized_wronskian(op, mu2, fwd, bwd)


def _normalized_wronskian(op, mu2, fwd, bwd):
    """(f1 g2 - g1 f2)/(|f1| |f2| m) of the two legs' end states."""
    m = math.sqrt(continuum_edge(op) - mu2)
    w = fwd.f * bwd.f_prime - fwd.f_prime * bwd.f
    denom = max(abs(fwd.f) * abs(bwd.f) * m, 1e-300)
    return w / denom


def _refine_eigenvalue(op, index, lo, hi, rtol):
    """Illinois regula falsi on the Wronskian mismatch at the map's
    midpoint (_matching_point), inside the isolation bracket (lo, hi).

    The count and the match solve the same problem, so the mismatch must
    change sign across (lo, hi), where the counts put the jump; if it does
    not, InconsistentCertificate is raised. Illinois regula falsi (the
    retained end's mismatch is halved after each step that lands on the
    newest point's side) then shrinks that bracket until the mismatch hits
    its noise floor: it stops after two iterates in a row that do not lower
    the smallest |mismatch| seen, when |b - a| < 1e-13 max(|a|, |b|), or
    on an exact zero. Returns the point of smallest |mismatch|, which lies
    in [lo, hi], and that |mismatch|, which must be below 1e-8.

    The two legs are shot by the kernel once, stored, at hi: hi > 0 always,
    while at lo = 0 f = 1 exactly and every step would pass, so a mesh
    built there says nothing about other mu2. Every other evaluation walks
    those two meshes whole (ode_engine.endpoint_state with a mesh), with
    the legs' ends fixed at the meshes' ends: the regular leg starts at the
    series radius at hi, and the decaying leg at the tail radius at hi,
    which lies at or past the tail radius of every mu2 <= hi, since m^2
    falls as mu2 rises, so the tail is exact there. A walk with a step
    that fails rk_shoot's acceptance test at its mu2 is dropped, and the
    kernel takes that leg and rebuilds its mesh.
    """
    # the mismatch loses relative accuracy as it crosses zero, so the
    # refinement shots run two decades tighter than the counting shots;
    # otherwise the located root inherits an O(rtol) bias that depends on
    # the matching point
    rtol = max(rtol * 1e-2, 1e-14)
    xm = _matching_point(op)
    traces = [integrate(op, hi, start, xm, rtol=rtol)
              for start in _match_starts(op, hi, xm)]
    meshes = [StepMesh(tr) for tr in traces]

    def mismatch(mu2):
        return _wronskian_mismatch(op, mu2, xm, rtol, meshes)

    vb = _normalized_wronskian(op, hi, *(tr.end for tr in traces))
    a, va, b = lo, mismatch(lo), hi
    if va * vb > 0.0:
        raise InconsistentCertificate(
            f"no Wronskian sign change across the isolation bracket "
            f"({lo:.12g}, {hi:.12g}) for index {index}")
    best, vbest = (a, va) if abs(va) < abs(vb) else (b, vb)
    stale = 0
    for _ in range(80):
        # relative only: deep-well roots reach 4e-150 (sphere(20, 1e4))
        if (stale >= 2 or vbest == 0.0
                or abs(b - a) < 1e-13 * max(abs(a), abs(b))):
            break
        # va and vb have opposite signs, so this weighted mean of a and b
        # has no cancellation and stays in [a, b], also where the root lies
        # many decades closer to a = 0 than b does
        c = (a * vb - b * va) / (vb - va)
        vc = mismatch(c)
        if abs(vc) < abs(vbest):
            best, vbest, stale = c, vc, 0
        else:
            stale += 1
        if vc * vb < 0.0:
            a, va = b, vb
        else:
            va *= 0.5
        b, vb = c, vc
    if abs(vbest) >= WRONSKIAN_TOL:
        raise InconsistentCertificate(
            f"Wronskian residual {abs(vbest):.3g} not below {WRONSKIAN_TOL:g}")
    return best, abs(vbest)


def _locate_eigenvalue(op, index, edge, rtol):
    """Isolate, match and certify the eigenvalue with the given index.

    Counts at the isolation tolerance halve (0, edge) down to
    ISOLATION_WIDTH, the match refines the root inside that bracket, and
    two counts at the caller's tolerance, at the ends of a bracket at most
    BRACKET_WIDTH wide around the root, must read (index, index + 1). If
    any step raises InconsistentCertificate, all three are redone once with
    the isolation at the caller's tolerance.
    """
    def count(mu2, tol):
        return count_eigenvalues_below(op, mu2, tol)

    for tol in (ISOLATION_RTOL, rtol):
        try:
            lo, hi = _bisect(lambda mu2: count(mu2, tol) > index,
                             0.0, edge, ISOLATION_WIDTH)
            hi = min(hi, math.nextafter(edge, 0.0))  # tail must decay
            mu2, resid = _refine_eigenvalue(op, index, lo, hi, rtol)
            if not 0.0 < mu2 < edge:
                raise InconsistentCertificate(
                    f"matched root {mu2:.12g} for index {index} lies "
                    f"outside the gap (0, {edge:g})")
            # 0.45, not 0.5, so that rounding keeps hi - lo <= BRACKET_WIDTH
            lo = max(mu2 - 0.45 * BRACKET_WIDTH, 0.0)
            hi = min(mu2 + 0.45 * BRACKET_WIDTH, edge)
            osc = (count(lo, rtol), count(hi, rtol))
            if osc != (index, index + 1):
                raise InconsistentCertificate(
                    f"zero counts {osc} across the bracket ({lo:.12g}, "
                    f"{hi:.12g}) around the matched root, expected "
                    f"{(index, index + 1)}")
            return GapEigenvalue(mu2, (lo, hi), resid, index, osc)
        except InconsistentCertificate:
            if tol == rtol:
                raise


def find_gap_eigenvalues(op, rtol=1e-11, scans=True,
                         threshold=True) -> SpectralReport:
    """Locate and certify every eigenvalue in the operator's spectral gap.

    Returns a SpectralReport carrying the gap count, the certified
    eigenvalues, the affine threshold read-out at the continuum edge (when
    `threshold`), and the below-gap and embedded-continuum scans (when
    `scans`). The count and the read-out come from one threshold shot,
    always made. Every shot's step control is relative, at rtol (see
    ode_engine._shoot). Raises InconsistentCertificate when an eigenvalue
    fails its certificate, as one within an ulp of the edge does.

    The certified bracket width (BRACKET_WIDTH, 1e-10) and the Wronskian
    residual bound (1e-8) are absolute. Below mu2 of about 1e-10 the count
    bracket therefore carries no relative digits (sphere(3, 1000) has
    mu2 = 7.44e-12 in (0, 5.2e-11)), and the digits come from the match
    alone, whose residual bound does not bind there either.

    Every count and decaying match leg ends at the closed-form tail radius
    (ode_engine.tail_radius); no caller's radius enters the certificate.

    A finite-k large_k member is the exact pullback of
    half_line(sphere(k, Theta^(1/k))) and is certified there: the report's
    operator is that half-line member.
    """
    if op.family == LARGE_K and op.k != math.inf:
        op = half_line(sphere(int(op.k), op.theta ** (1.0 / op.k)))
    edge = continuum_edge(op)
    fit = fit_threshold(op, rtol)
    report = SpectralReport(operator=op, edge=edge, count=fit.count,
                            threshold=fit if threshold else None)
    for j in range(fit.count):
        report.eigenvalues.append(_locate_eigenvalue(op, j, edge, rtol))
    if scans:
        for mu2 in NEGATIVE_PROBES:
            report.negative_scan.append(
                (mu2, count_eigenvalues_below(op, mu2, rtol)))
        for fac in EMBEDDED_FACTORS:
            mu2 = edge * fac
            report.embedded_scan.append(
                (mu2, _embedded_flatness(op, mu2, edge, rtol)))
    return report


def _embedded_flatness(op, mu2, edge, rtol):
    """Amplitude drift of the shot inside the continuum over [R/2, R],
    R = 60 in r, the same point 30 lambda in rho, and 20 in s.

    Returns max/min - 1 of the WKB amplitude sqrt(phi^2 + (phi'/kappa)^2),
    phi = zeta f and phi' = zeta (f' + W f), over the window. Its
    derivative is 2 phi phi' (U - edge)/kappa^2, and U - edge is about
    exp(-R) there, so the drift is the shot's integration error: it is
    near 1e-11 for every solution, scattering or trapped.
    """
    kappa = math.sqrt(mu2 - edge)
    code, kk, p = op_code(op)
    R = {RESCALED: 30.0 * op.lam, LARGE_K: 20.0}.get(op.family, 60.0)
    tr = integrate(op, mu2, series_start(op, mu2), R, rtol=rtol)
    sel = tr.grid >= tr.grid[0] + 0.5 * (tr.grid[-1] - tr.grid[0])
    xs = tr.grid[sel]
    lz = tr.log_scale[sel] + _kernels.logzeta(code, kk, p, xs)
    w = np.empty(xs.size)
    _kernels.logder_array(code, kk, p, xs, w)
    z = np.exp(lz - np.max(lz))
    f, fp = tr.values[sel, 0], tr.values[sel, 1]
    amp = z * np.sqrt(f * f + ((fp + w * f) / kappa) ** 2)
    return float(np.max(amp) / np.min(amp) - 1.0)


def _sweep_point(args):
    """SweepPoint at one lambda, args = (kind, k, lam): the count and the
    fit of one threshold shot (ode_engine.fit_threshold)."""
    kind, k, lam = args
    fit = fit_threshold(half_line(geometry(kind, k, lam)))
    return SweepPoint(lam, fit.count, fit.a, fit.b, fit.fit_residual)


def _pool_map(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as ex:
        return list(ex.map(fn, items, chunksize=1))


def sweep_lambda(kind, k, lam_grid, jobs=1, bisect_to=1e-4) -> SweepReport:
    """Track the threshold slope and gap count along a lambda grid.

    Two transition brackets are refined to width `bisect_to`, which must
    be finite and positive: where the resonance slope b changes sign, and
    where the gap count first leaves zero. Both are read off one shot per
    point (ode_engine.fit_threshold), whose count gains the affine tail's
    zero where b changes sign; each bracket is bisected on its own.
    """
    lams = [float(v) for v in lam_grid]
    if sorted(lams) != lams:
        raise DomainError("lambda grid must be increasing")
    if not (math.isfinite(bisect_to) and bisect_to > 0.0):
        raise DomainError(f"bisect_to must be finite and positive, "
                          f"got {bisect_to!r}")
    pts = _pool_map(_sweep_point, [(kind, k, v) for v in lams], jobs)

    def bracket(crosses, past):
        # bisect the first grid interval (p, q) where crosses(p, q) holds;
        # past(p, m) tells whether the point m lies beyond the transition
        for p, q, lo, hi in zip(pts, pts[1:], lams, lams[1:]):
            if crosses(p, q):
                return _bisect(
                    lambda lam: past(p, _sweep_point((kind, k, lam))),
                    lo, hi, bisect_to)
        return None

    return SweepReport(
        kind, k, lams, pts,
        slope_flip_bracket=bracket(
            lambda p, q: p.resonance_b * q.resonance_b < 0.0,
            lambda p, m: not m.resonance_b * p.resonance_b > 0.0),
        onset_bracket=bracket(lambda p, q: p.count == 0 and q.count > 0,
                              lambda p, m: m.count != 0))


def _migration_point(args):
    kind, k, lam = args
    op = half_line(geometry(kind, k, lam))
    rep = find_gap_eigenvalues(op, scans=False, threshold=False)
    if not rep.eigenvalues:
        raise EigenvalueMissing(
            f"no gap eigenvalue for {kind} k={k} lambda={lam:g}")
    ev = rep.eigenvalues[0]
    return MigrationPoint(lam, ev.mu2, ev.wronskian_residual)


def migration_curve(kind, k, lams, jobs=1) -> MigrationReport:
    """Ground eigenvalue along increasing lambda, certified decreasing.

    Raises EigenvalueMissing where the gap is empty and
    InconsistentCertificate if the curve fails to decrease strictly.
    Records mu2(2 lam)/mu2(lam) for every doubling pair present in the grid.
    """
    lams = [float(v) for v in lams]
    if sorted(lams) != lams or len(set(lams)) != len(lams):
        raise DomainError("lambda grid must be strictly increasing")
    pts = _pool_map(_migration_point, [(kind, k, v) for v in lams], jobs)
    for p, q in zip(pts, pts[1:]):
        if not q.mu2 < p.mu2:
            raise InconsistentCertificate(
                f"mu2 failed to decrease: {p.mu2:.12g} at lambda={p.lam:g} "
                f"-> {q.mu2:.12g} at lambda={q.lam:g}")
    ratios = []
    bylam = {p.lam: p.mu2 for p in pts}
    for lam in lams:
        if 2.0 * lam in bylam:
            ratios.append((lam, bylam[2.0 * lam] / bylam[lam]))
    return MigrationReport(kind, k, pts, ratios)


def _largek_point(args):
    k, theta = args
    rep = find_gap_eigenvalues(large_k(k, theta), scans=False, threshold=True)
    mu2 = rep.eigenvalues[0].mu2 if rep.eigenvalues else math.nan
    if k == math.inf:
        return LargeKPoint(k, rep.count, mu2, rep.threshold.b, math.nan, -1)
    return LargeKPoint(k, rep.count, mu2, rep.threshold.b, mu2, rep.count)


def largek_gap_scan(ks, theta, jobs=1) -> LargeKReport:
    """Gap spectrum of the large-k normal form for each k (inf allowed).

    Each finite-k row is certified once, on the half-line operator at
    lambda = theta^(1/k), whose exact pullback the normal form is (see
    find_gap_eigenvalues); its count, mu2 and threshold slope b are that
    member's, in r. The k = inf row, which has no pullback, is shot in f
    over its zero mode in s = -log log(theta/rho), within 6e-12 of a scipy
    shot for theta from 100 to 1e12.
    """
    rows = _pool_map(_largek_point,
                     [(float(k) if k != math.inf else math.inf, theta)
                      for k in ks], jobs)
    return LargeKReport(theta, rows)
