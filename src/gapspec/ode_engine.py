"""Shooting infrastructure for the operator families.

The integrator is a Dormand-Prince 5(4) pair with PI-free step control and
a running log scale: whenever the state magnitude leaves
[1e-100, 1e100] it is rescaled to 1 and the log factor recorded, so
exponentially growing or decaying solutions are carried across hundreds of
e-foldings without overflow. True values are stored * exp(log_scale). Each
shot counts the sign changes of its solution (the Sturm count) and returns
its end state; `integrate` also keeps every accepted step.

Every family has a closed-form zero mode zeta > 0, the scaling direction
at the bottom of the gap, and every shot runs in f = phi/zeta:
f'' + 2W f' + mu2 f = 0 with W = zeta'/zeta. There mu2 enters directly,
the regular solution at mu2 = 0 is f = 1, the zeros of f are those of
phi, and the second solution, the integral of zeta^-2 from x to infinity,
decreases, so it does not grow out of start and step errors. phi is formed
as zeta f, with zeta normalized to leading coefficient 1
(_kernels.logzeta), only where a result is reported in phi: the threshold
read-out here and the embedded scans of spectral.

Regular starts come from the series f = 1 - mu2 x^2/(4 nu + 2) + O(x^4),
nu = k + 1/2, carried to its x^4 term, at the radius where the Frobenius
series of phi, x^nu (1 + c2 x^2 + c4 x^4 + ...), drops a c6 term below
1e-12 (c2, c4 from the constant and quadratic potential coefficients of
each family). The f series leaves the map's part of W beyond O(x) out, so
for the half-line sphere the radius is also capped where that part's
relative effect is 1e-12. Its f' = -2 mu2 x/(4 nu + 2) + O(x^3) carries
the relative digits of mu2.
The finite-k large-k normal form is the exact pullback of the half-line
sphere at lambda = Theta^(1/k) and is shot there (spectral redirects it), so
no start or shot exists for it here. The k = inf member is shot in
s = -log log(Theta/rho) over zeta = rho (1 + rho^2)^-1 log^(-1/2)(Theta/rho)
and starts at rho0 = exp(-25), log(Theta/rho0) = L0 = 25 + log Theta
(L0 = 25 for Theta <= 1), on f = 1, f' = -mu2/(2W), W ~ L0; its start
error lies along the second solution, which dies off like exp(-2 (L0 - L))
up to the match at L = log Theta, so it does not grow with Theta.

A linear shot on a known set of steps is a product of 2x2 step matrices.
A StepMesh keeps the accepted steps of one stored shot, with W at their
stage abscissae, and endpoint_state walks it at another mu2 with the
kernel's own tableau (_kernels.step_matrices, _kernels.mesh_walk). Every
walked step is checked a posteriori with rk_shoot's acceptance test, on
the state the walk carries into it, and a step that fails is halved and
the walk repeated; so every walked step has passed the test the kernel
applies to its own steps.

Where a shot ends on the half-line is a closed form, not a caller's
radius: past the tail radius (tail_radius) the potential is within
max(1e-12 m^2, 1e-17) of its edge, m^2 = edge - mu2, by the bound
|U - 1/4| <= (k^2 + 1/4)/sinh^2 r (k = inf: exp(-2s)), so the solution
there is exp(+-m x), or affine at the edge. Counts stop there and count
the tail's zero in closed form, the decaying match leg starts there, and
the threshold is read off there.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (DomainError, FitUnreliable, GapspecError,
                     SeriesRadiusExceeded, StepSizeUnderflow,
                     TailNotAsymptotic)
from .harmonic_maps import GeometrySpec
from .operators import (LARGE_K, RESCALED, RESCALED_RHO,
                        OperatorSpec, continuum_edge, half_line, op_code,
                        rescaled, zero_mode)

MAX_STEPS = 400_000


@dataclass(frozen=True)
class StartData:
    """Initial state for a shot: abscissa, stored (f, f'), log scale.

    f = phi/zeta over the family's zero mode; f_prime is df/dx, and for
    k = inf large-k the invariant derivative omega^-1 rho df/drho
    (= df/ds). True values are (f, f_prime) * exp(log_scale).
    """

    x: float
    f: float
    f_prime: float
    log_scale: float = 0.0


@dataclass
class ShootingTrace:
    """One integrated shot, sampled at the accepted steps."""

    operator: OperatorSpec
    mu2: float
    grid: np.ndarray
    values: np.ndarray          # (n, 2) stored (f, f')
    log_scale: np.ndarray       # (n,) cumulative log scale per sample
    zero_count: int = 0

    @property
    def end(self):
        return StartData(float(self.grid[-1]), float(self.values[-1, 0]),
                         float(self.values[-1, 1]), float(self.log_scale[-1]))


@dataclass(frozen=True)
class ThresholdFit:
    """Affine far field phi = a + b x at the continuum edge, read off at
    the two abscissae of `window` (see fit_threshold)."""

    a: float
    b: float
    fit_residual: float
    window: tuple


@dataclass
class RenormalizedSolution:
    """Gap-edge renormalization f = phi/zeta with f(0) = 1, f'(0) = 0."""

    geometry: GeometrySpec
    mu2: float
    grid: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    zeta: np.ndarray
    shoot_residual: float = math.nan


def _series_coeffs(op, mu2):
    """(nu, u0, u2): effective potential = (nu^2-1/4)/x^2 + u0 + mu2 + u2 x^2.

    u0 absorbs -mu2. For k >= 3 they leave out the map's potential, which is
    O(x^(2k-2)). A rescaled operator, the half-line one at r = 2 rho/lambda
    times 4/lambda^2, takes the half-line coefficients at mu2 lambda^2/4.
    """
    if op.family == RESCALED:
        s = 4.0 / op.lam ** 2
        nu, u0, u2 = _series_coeffs(half_line(op.geometry), mu2 / s)
        return nu, s * u0, s * s * u2
    code, kk, p = op_code(op)
    k = kk
    k2q = k * k - 0.25
    if code == _kernels.HALF_SPHERE:
        v0 = -2.0 * p * p if k == 1 else 0.0
        if k == 1:
            v2 = p * p * (1.0 + p * p)
        elif k == 2:
            v2 = -2.0 * p ** 4
        else:
            v2 = 0.0
        return k + 0.5, 0.25 - k2q / 3.0 + v0 - mu2, k2q / 15.0 + v2
    if code == _kernels.HALF_YM:
        return 2.5, -1.0 - 6.0 * p * p - mu2, 0.25 + 3.0 * p * p * (1.0 + p * p)
    if code == _kernels.EUCLIDEAN:
        v0 = -8.0 if k == 1 else 0.0
        if k == 1:
            v2 = 16.0
        elif k == 2:
            v2 = -32.0
        else:
            v2 = 0.0
        return k + 0.5, v0 - mu2, v2
    raise DomainError("large-k members start in s, not from a power series")


def _series_radius(nu, u0, u2):
    """Largest r0 with the dropped c6 term below 1e-12 of the kept ones.

    For k >= 3 this ignores the map's potential, of the order of c6 at
    k = 3. series_start caps it for the half-line sphere; in rho (rescaled
    and Euclidean) that potential's relative effect, at most 2 rho^(2k), is
    below 1e-12 anyway for rho <= 1e-3."""
    kfac = nu - 0.5
    c2 = u0 / (4.0 * kfac + 4.0)
    c4 = (u0 * c2 + u2) / (8.0 * kfac + 16.0)
    c6 = (abs(u0 * c4) + abs(u2 * c2)) / (12.0 * kfac + 30.0)
    r0 = min(1e-3, (1e-12 / max(c6, 1e-12)) ** (1.0 / 6.0))
    return max(r0, 1e-7)


def _free_radius(k, lam):
    """Largest r <= 1 at which the map's potential V is below 1e-12 in
    relative effect: the variation of constants bound
    2 (lambda tanh(r/2))^(2k) is <= 1e-12."""
    t = math.tanh(0.5)
    if lam != 0.0:
        t = min(t, 5e-13 ** (0.5 / k) / abs(lam))
    return 2.0 * math.atanh(t)


def series_start(op, mu2, r0=None):
    """Exact start of the regular solution's f = phi/zeta, f(0) = 1.

    f = 1 + c x^2 + d x^4 + O(x^6), c = -mu2/(4 nu + 2), from
    f'' + 2W f' + mu2 f = 0 with W = nu/x + w1 x + O(x^3), at r0 or, with
    no r0, at the series radius (see the module docstring); an r0 beyond
    it raises SeriesRadiusExceeded, and one below 1e-13, where no shot can
    take its first step, DomainError. For the
    k = inf large-k member this returns the far-field start in s described
    in the module docstring, and r0 is ignored; a finite-k large-k member
    raises DomainError (it is shot on its half-line pullback). Any start
    error along the second solution, the integral of zeta^-2 from x to
    infinity, shrinks relative to f like (zeta(x0)/zeta(x))^2 as the shot
    moves out.
    """
    if op.family == LARGE_K:
        if op.k != math.inf:
            raise DomainError(
                "a finite-k large-k member is shot on its half-line pullback "
                "half_line(sphere(k, Theta^(1/k))), not in s")
        # log(Theta/rho0) = L0, so rho0 = min(Theta, 1) exp(-25)
        x0 = -math.log(25.0 + max(math.log(op.theta), 0.0))
        w = _kernels.logder(*op_code(op), x0)
        return StartData(x0, 1.0, -mu2 / (2.0 * w))
    nu, u0, u2 = _series_coeffs(op, mu2)
    rmax = _series_radius(nu, u0, u2)
    if op_code(op)[0] == _kernels.HALF_SPHERE:
        rmax = min(rmax, _free_radius(op.k, op.lam))
    if r0 is None:
        r0 = rmax
    elif r0 > rmax * (1.0 + 1e-12):
        raise SeriesRadiusExceeded(
            f"r0={r0:g} beyond series radius {rmax:g} for this operator")
    if r0 < 1e-13:  # rk_shoot's first step, 0.1 r0, must clear 1e-14
        raise DomainError(f"start radius r0={r0:.6g} (lambda={op.lam}) is "
                          f"below 1e-13: 0.1 r0 is under the step floor 1e-14")
    # W = nu/x + w1 x + O(x^3), with W^2 + W' = U giving w1 = U0/(2 nu + 1)
    # for U's constant term U0 = u0 + mu2
    c = -mu2 / (4.0 * nu + 2.0)
    d = -c * (4.0 * (u0 + mu2) / (2.0 * nu + 1.0) + mu2) / (8.0 * nu + 12.0)
    r2 = r0 * r0
    return StartData(r0, 1.0 + (c + d * r2) * r2, (2.0 * c + 4.0 * d * r2) * r0)


def _check_rtol(rtol):
    if not 0.0 < rtol < 1.0:
        raise DomainError(f"rtol must lie in (0, 1), got {rtol!r}")


def _normalized(start):
    """(f, f', log scale) of `start` with the state's magnitude brought
    into [1e-2, 1e2] when it lies outside."""
    f, g, lg = start.f, start.f_prime, start.log_scale
    mag = max(abs(f), abs(g))
    if mag > 0.0 and not (1e-2 <= mag <= 1e2):
        f /= mag
        g /= mag
        lg += math.log(mag)
    return f, g, lg


def _shoot(op, mu2, start, x_end, rtol, max_step, store):
    """Kernel call with start normalization; returns the raw kernel tuple.

    The step control is relative only: each of f and f' is held to rtol
    times its own magnitude. f is about 1 while f' is about mu2 x, so a
    common absolute floor would bound the error of f' in deep wells and of
    a decaying f far out instead of rtol. The kernel's atol is 1e-300,
    which keeps a component that is exactly zero throughout (f' at
    mu2 = 0) from dividing 0 by 0. An rtol outside (0, 1), nan included,
    raises DomainError."""
    _check_rtol(rtol)
    code, kk, p = op_code(op)
    if code == _kernels.LARGEK_FIN:
        raise DomainError("no shot runs the finite-k large-k normal form: "
                          "shoot its half-line pullback")
    if not math.isfinite(x_end):
        raise DomainError(f"a shot must end at a finite point, got {x_end}")
    if op.family != LARGE_K and (start.x <= 0.0 or x_end <= 0.0):
        raise DomainError("half-line coordinates must be positive")
    if x_end == start.x:
        raise DomainError("empty integration interval")
    f, g, lg = _normalized(start)
    out = _kernels.rk_shoot(code, kk, p, mu2, start.x, f, g, lg,
                            x_end, rtol, 1e-300, MAX_STEPS, max_step, store)
    status = out[0]
    if status == _kernels.UNDERFLOW:
        raise StepSizeUnderflow(
            f"step underflow at x={out[7]:.6g} (mu2={mu2:g})")
    if status == _kernels.MAXSTEPS:
        raise GapspecError(f"step budget {MAX_STEPS} exhausted at x={out[7]:.6g}")
    return out


def integrate(op, mu2, start, x_end, rtol=1e-11, max_step=0.0
              ) -> ShootingTrace:
    """Integrate f from `start` to x_end, storing every accepted step.
    Direction is inferred from the endpoints."""
    if not isinstance(start, StartData):
        start = StartData(*start)
    (_, nst, xs, fs, gs, lgs, nzero, *_rest) = _shoot(
        op, mu2, start, x_end, rtol, max_step, store=True)
    vals = np.empty((nst, 2))
    vals[:, 0] = fs[:nst]
    vals[:, 1] = gs[:nst]
    return ShootingTrace(
        operator=op, mu2=mu2, grid=xs[:nst].copy(), values=vals,
        log_scale=lgs[:nst].copy(), zero_count=int(nzero))


def tail_radius(op, mu2):
    """Closed-form point x_a past which the potential is its edge for a
    state at mu2, to max(1e-12 m^2, 1e-17); None for the finite-k large-k
    normal form (shot on its pullback) and the euclidean family (no gap,
    no flat tail).

    Every half-line member obeys |U - 1/4| <= (k^2 + 1/4)/sinh^2 r, since
    U - 1/4 = (k^2 cos 2Q - 1/4)/sinh^2 r, and Yang-Mills is the same with
    k = 2 and 1 - 6y/(1 + y)^2, in [-1/2, 1], in place of cos 2Q. The k = inf
    normal form has |U - 1/4| = L^2 |C(rho)| <= exp(-2s). x_a puts the bound
    at tau = max(1e-12 m^2, 1e-17), m^2 = edge - mu2 in half-line units:
    r_a = asinh(sqrt((k^2 + 1/4)/tau)), rho_a = lambda r_a/2 for the
    rescaled family, s_a = -log(tau)/2 for k = inf. The floor is below half
    an ulp of 1/4, so at and near the edge x_a is where U is 1/4 to
    rounding (r_a = 21.0 for k = 2).
    """
    code = op_code(op)[0]
    if code in (_kernels.EUCLIDEAN, _kernels.LARGEK_FIN):
        return None
    m2 = continuum_edge(op) - mu2
    if op.family == RESCALED:
        m2 *= 0.25 * op.lam ** 2
    tau = max(1e-12 * m2, 1e-17)
    if op.family == LARGE_K:
        return -0.5 * math.log(tau)
    r_a = math.asinh(math.sqrt((op.k * op.k + 0.25) / tau))
    return 0.5 * op.lam * r_a if op.family == RESCALED else r_a


def _require_tail(op, mu2):
    """tail_radius(op, mu2), or DomainError for a family without one."""
    x_a = tail_radius(op, mu2)
    if x_a is None:
        raise DomainError(f"the {op.family} family has no flat tail")
    return x_a


def count_zeros(op, mu2, start, x_end, rtol=1e-11):
    """Sturm count: zeros of the shot of f = phi/zeta from `start`, which
    are those of phi because zeta > 0, without building a trace.

    At or below the edge, with x_end at or past x_a = tail_radius(op, mu2),
    the shot stops at x_a and the count is on the whole half-line
    (start, inf). Past x_a the solution is
    phi_a cosh(m t) + (chi_a/m) sinh(m t), t = x - x_a,
    m = sqrt(edge - mu2) (affine at the edge), with (phi_a, chi_a) zeta
    (f, W f + f') at x_a, so it has at most one zero on (x_a, inf), and it
    has one iff phi_a chi_a < 0 and |chi_a| > m |phi_a|. A shot that ends
    on phi_a = 0 ends on a simple zero that the kernel has not counted
    yet: it counts a zero when f next takes a sign other than the last
    nonzero one, and past x_a phi takes the sign of chi_a. Otherwise (mu2
    above the edge, x_end short of x_a, or no flat tail) the count is on
    (start, x_end]; a non-finite x_end raises DomainError.
    """
    if not isinstance(start, StartData):
        start = StartData(*start)
    x_a = tail_radius(op, mu2)
    code, kk, p = op_code(op)
    edge = continuum_edge(op)
    if x_a is None or not (mu2 <= edge and start.x < x_a <= x_end < math.inf):
        return int(_shoot(op, mu2, start, x_end, rtol, 0.0, False)[6])
    out = _shoot(op, mu2, start, x_a, rtol, 0.0, False)
    zeros, f, g = int(out[6]), out[8], out[9]
    if f == 0.0:
        return zeros + (g != 0.0)
    chi = g + _kernels.logder(code, kk, p, x_a) * f
    m = math.sqrt(edge - mu2)
    return zeros + ((f < 0.0) != (chi < 0.0) and abs(chi) > m * abs(f))


class StepMesh:
    """The accepted steps of one stored shot, to be walked at other mu2.

    nodes holds the step ends in the shot's direction, and w (6, n) W at
    each step's six stage abscissae x + c h (_kernels.STAGE_C); W does not
    depend on mu2. endpoint_state walks the mesh, and adds nodes to it
    where a step fails the acceptance test.
    """

    def __init__(self, trace):
        self.operator = trace.operator
        self.nodes = trace.grid.copy()
        self.direction = 1.0 if self.nodes[-1] > self.nodes[0] else -1.0
        self.w = self._stage_w(self.nodes[:-1], self.nodes[1:])

    def _stage_w(self, x0, x1):
        """W at the stage abscissae of the steps from x0 to x1, (6, n)."""
        xs = np.multiply.outer(_kernels.STAGE_C, x1 - x0)
        xs += x0
        xs[-1] = x1
        w = np.empty(xs.size)
        _kernels.logder_array(*op_code(self.operator), xs.ravel(), w)
        return w.reshape(xs.shape)

    def insert(self, xs):
        """Add nodes at xs, none of them a node already, and W for the
        steps they make; the other steps keep their W."""
        n = self.nodes.shape[0]
        nodes = np.concatenate((self.nodes, xs))
        order = np.argsort(self.direction * nodes, kind="stable")
        left, right = order[:-1], order[1:]
        # an old step keeps its two ends, adjacent, and no node between
        kept = (right == left + 1) & (right < n)
        self.nodes = nodes[order]
        w = np.empty((6, self.nodes.shape[0] - 1))
        w[:, kept] = self.w[:, left[kept]]
        new = ~kept
        w[:, new] = self._stage_w(self.nodes[:-1][new], self.nodes[1:][new])
        self.w = w


def _walk(mesh, mu2, start, x_end, rtol):
    """End state of the walk on `mesh` from `start` to x_end at mu2.

    The walk takes the mesh's nodes that lie strictly between start.x and
    x_end, and partial first and last steps wherever those lie off a node.
    Every step is checked with rk_shoot's acceptance test on the state the
    walk carries into it; the steps that fail are halved in the mesh, and
    the walk is repeated.
    """
    direc = mesh.direction
    if not (x_end - start.x) * direc > 0.0:
        raise DomainError(f"a walk from {start.x:.6g} to {x_end:.6g} runs "
                          f"against its mesh")
    f0, g0, lg0 = _normalized(start)
    while True:
        nodes = mesh.nodes
        key = direc * nodes
        lo = int(np.searchsorted(key, direc * start.x, side="right"))
        hi = int(np.searchsorted(key, direc * x_end, side="left"))
        xs = np.concatenate(([start.x], nodes[lo:hi], [x_end]))
        # walk step i is mesh step cols[i] unless it is a partial step
        cols = np.clip(np.arange(lo - 1, hi), 0, nodes.shape[0] - 2)
        fresh = (nodes[cols] != xs[:-1]) | (nodes[cols + 1] != xs[1:])
        w = mesh.w[:, cols]
        if fresh.any():
            w[:, fresh] = mesh._stage_w(xs[:-1][fresh], xs[1:][fresh])
        h = np.diff(xs)
        m, e = _kernels.step_matrices(mu2, h, w)
        fs = np.empty(h.shape[0])
        gs = np.empty(h.shape[0])
        f, g, lg = _kernels.mesh_walk(m[0, 0], m[0, 1], m[1, 0], m[1, 1],
                                      f0, g0, lg0, fs, gs)
        bad = ~(_kernels.step_errors(m, e, fs, gs, rtol, 1e-300) <= 1.0)
        if not bad.any():
            return StartData(float(x_end), float(f), float(g), float(lg))
        x, hb = xs[:-1][bad], 0.5 * h[bad]
        small = np.abs(hb) < 1e-14 * np.maximum(np.abs(x), 1.0)
        if small.any():
            raise StepSizeUnderflow(
                f"step underflow at x={x[small][0]:.6g} (mu2={mu2:g})")
        mesh.insert(x + hb)


def endpoint_state(op, mu2, start, x_end, rtol=1e-11, mesh=None):
    """End StartData of the shot without storing samples.

    With a StepMesh of this operator, the shot walks the mesh instead of
    choosing its own steps (_walk): every walked step has passed
    rk_shoot's acceptance test at rtol, on the state the walk carried
    into it, so the walk keeps the kernel's local error bound on another
    set of steps. An rtol outside (0, 1) raises DomainError.
    """
    if not isinstance(start, StartData):
        start = StartData(*start)
    if mesh is None:
        out = _shoot(op, mu2, start, x_end, rtol, 0.0, False)
        return StartData(*out[7:])
    _check_rtol(rtol)
    if mesh.operator != op:
        raise DomainError("the mesh was built for another operator")
    if not math.isfinite(x_end):
        raise DomainError(f"a shot must end at a finite point, got {x_end}")
    return _walk(mesh, mu2, start, x_end, rtol)


def tail_start_decaying(op, mu2, R):
    """Decaying-branch start of f = phi/zeta at x = R: stored
    (1, -m - W(R)), true scale exp(-mR) (the factor 1/zeta(R) left out).

    m = sqrt(edge - mu2) with edge the family's continuum edge. An R inside
    the tail radius (tail_radius), where the potential may still be off
    its edge by more than 1e-12 m^2, raises TailNotAsymptotic; a family
    with no flat tail, or a non-finite R, raises DomainError.
    """
    edge = continuum_edge(op)
    if not mu2 < edge:
        raise DomainError(f"need mu2 < {edge} for a decaying tail, got {mu2}")
    x_a = _require_tail(op, mu2)
    if not math.isfinite(R):
        raise DomainError(f"a tail point must be finite, got {R}")
    if not R >= x_a:
        raise TailNotAsymptotic(f"tail start R={R:g} inside the tail radius "
                                f"{x_a:.6g} for mu2={mu2:g}")
    m = math.sqrt(edge - mu2)
    w = _kernels.logder(*op_code(op), float(R))
    return StartData(float(R), 1.0, -m - w, -m * float(R))


def _edge_readout(op, end):
    """(a, b) of phi = a + b x through the shot's end state, with
    phi = zeta f and phi' = zeta (f' + W f)."""
    code, kk, p = op_code(op)
    z = math.exp(end.log_scale + float(_kernels.logzeta(code, kk, p, end.x)))
    b = z * (end.f_prime + _kernels.logder(code, kk, p, end.x) * end.f)
    return z * end.f - end.x * b, b


def fit_threshold(op, rtol=1e-11):
    """Affine far field phi = a + b x of the regular solution at the
    continuum edge, read off in closed form.

    At the edge phi'' = (U - edge) phi, and past x_b = tail_radius(op, edge)
    the potential is within 1e-17 of the edge (in half-line units), below
    half an ulp of 1/4, so phi is affine there: b = phi'(x_b),
    a = phi(x_b) - x_b b. One f shot from the series start reaches x_b,
    and phi = zeta f with zeta normalized to leading coefficient 1, so a
    and b are those of the regular solution phi ~ x^(k+1/2) whatever the
    start. The same read-out
    at the earlier point x_e = x_b - (x_b - x0)/4 of that shot measures
    fit_residual, max(|da|, |db| (x_b - x_e)) / max(|a|, |b| (x_b - x_e));
    FitUnreliable at >= 1e-6. b vanishes exactly when a resonance sits at
    the edge. For k = inf, which has no leading coefficient, phi is the
    start's f = 1 at L0 times zeta of _kernels.logzeta.
    """
    edge = continuum_edge(op)
    start = series_start(op, edge)
    x_b = _require_tail(op, edge)
    x_e = x_b - 0.25 * (x_b - start.x)
    mid = endpoint_state(op, edge, start, x_e, rtol)
    a0, b0 = _edge_readout(op, mid)
    a, b = _edge_readout(op, endpoint_state(op, edge, mid, x_b, rtol))
    dx = x_b - x_e
    rel = (max(abs(a - a0), abs(b - b0) * dx)
           / max(abs(a), abs(b) * dx, 1e-300))
    if not rel < 1e-6:
        raise FitUnreliable(f"threshold read-out moved by {rel:.3g} "
                            f"between x = {x_e:.6g} and {x_b:.6g}")
    return ThresholdFit(a, b, rel, (x_e, x_b))


def renormalized_f(geometry, mu2, rho_max):
    """Renormalize the gap-edge shot by the zero mode: f = phi/zeta.

    One shot of the rescaled operator, (f' zeta^2)' =
    -(4 mu2/lambda^2) zeta^2 f, from its series start f = 1 - O(rho^2) out
    to rho_max, sampled at its accepted steps (the step is capped at
    rho_max/100, so the profile has at least a hundred samples). mu2 is in
    the half-line convention, so mu2 = 1/4 probes the rescaled family's
    continuum edge 1/lambda^2 and mu2 = 0 gives f identically 1. The result
    carries the residual of the integrated identity (see
    _volterra_residual).
    """
    lam = geometry.lam
    if not lam > 0.0:
        raise DomainError(f"need lambda > 0, got {lam}")
    eps = 4.0 * mu2 / lam ** 2
    op = rescaled(geometry)
    start = series_start(op, eps)
    if not rho_max > start.x:
        raise DomainError(f"need rho_max beyond the series start "
                          f"{start.x:g}, got {rho_max}")
    tr = integrate(op, eps, start, rho_max, rtol=1e-12,
                   max_step=rho_max / 100.0)
    scale = np.exp(tr.log_scale)
    rho = tr.grid
    f = tr.values[:, 0] * scale
    fp = tr.values[:, 1] * scale
    zeta, dzeta, _ = zero_mode(geometry, RESCALED_RHO, rho, derivatives=True)
    sol = RenormalizedSolution(geometry, mu2, rho, f, fp, zeta)
    sol.shoot_residual = _volterra_residual(eps, op.frobenius_exponent, rho,
                                            f, fp, zeta, dzeta)
    return sol


def _volterra_residual(eps, nu, rho, f, fp, zeta, dzeta):
    """Relative residual of zeta^2 f' = -eps int_0^rho zeta^2 f on the
    samples.

    The integral is the corrected trapezoid rule on g = zeta^2 f with
    g' = zeta^2 (2 zeta' f/zeta + f'), exact for cubics; its head from 0 to
    the first sample is the leading term zeta^2 rho/(2 nu + 1) of
    zeta ~ rho^nu, f ~ 1. zeta and zeta' come from operators.zero_mode,
    independently of the W that drives the shot. Normalized by
    max |eps int zeta^2 f|.
    """
    z2 = zeta * zeta
    g = z2 * f
    dg = z2 * (2.0 * dzeta / zeta * f + fp)
    h = np.diff(rho)
    panels = (0.5 * h * (g[:-1] + g[1:])
              + h * h / 12.0 * (dg[:-1] - dg[1:]))
    head = z2[0] * f[0] * rho[0] / (2.0 * nu + 1.0)
    integral = head + np.concatenate(([0.0], np.cumsum(panels)))
    resid = z2 * fp + eps * integral
    return float(np.max(np.abs(resid))
                 / max(abs(eps) * float(np.max(np.abs(integral))), 1e-300))
