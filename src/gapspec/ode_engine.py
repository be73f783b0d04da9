"""Shooting infrastructure for the operator families.

The integrator is a Dormand-Prince 5(4) pair with PI-free step control and
a running log scale: whenever the state magnitude leaves
[1e-100, 1e100] it is rescaled to 1 and the log factor recorded, so
exponentially growing or decaying solutions are carried across hundreds of
e-foldings without overflow. True values are stored * exp(log_scale). Each
shot counts the sign changes of phi (the Sturm count) and returns its end
state; `integrate` also keeps every accepted step. Every family with a gap
has a closed-form zero mode zeta > 0, so its shots can also run in
f = phi/zeta: f'' + 2W f' + mu2 f = 0 with W = zeta'/zeta. There mu2
enters directly, the regular solution at mu2 = 0 is f = 1, and the second
solution, the integral of zeta^-2 from x to infinity, decreases, so it does
not grow out of start and step errors. The variable travels with the
state: a start made `factored` (series_start, tail_start_decaying) is shot,
counted and returned in f, and f is about 1 with f' about mu2 x, so such a
shot takes its absolute tolerance in units of |mu2|.

Regular starts come from the Frobenius series at the left endpoint,
phi = x^nu (1 + c2 x^2 + c4 x^4 + ...), nu = k + 1/2, with c2, c4 formed from
the constant and quadratic potential coefficients of each family and the
start radius chosen so the dropped c6 term is below 1e-12 (for the
half-line sphere at k >= 3, whose coefficients leave out the map's
potential, and for its factored start at every k, also so that potential's
relative effect is below 1e-12). The
half-line sphere family has a second exact start: the closed-form regular
solution of its operator with V = 0,

    phi0 = 2^k sinh^(1/2)(r) tanh^k(r/2) 2F1(a, b; k+1; -sinh^2(r/2)),
    a + b = 1, ab = mu2,

which V perturbs by a relative 2 (lambda tanh(r/2))^(2k); with no explicit
radius a phi shot starts on whichever of the two is exact farther out. At
large k that is phi0, at r up to 1 instead of 1e-3, which saves the steps a
shot would spend following phi ~ r^(k+1/2) out of the series region. A
factored shot always starts on the series, whose f' = -2 mu2 x/(4 nu + 2)
carries the relative digits of mu2.
The finite-k large-k normal form is the exact pullback of the half-line
sphere at lambda = Theta^(1/k) and is shot there (spectral redirects it), so
no start or shot exists for it here. The k = inf member is shot in
s = -log log(Theta/rho) over zeta = rho (1 + rho^2)^-1 log^(-1/2)(Theta/rho)
and starts at log(Theta/rho) = L0 = 25 on f = 1, f' = -mu2/(2W), W ~ L0;
its start error lies along the second solution, which dies off like
exp(-2 (L0 - L)) well before matching; mu2 meets a scipy f-shot to 6e-12.
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
    """Initial state for a shot: abscissa, stored value pair, log scale.

    phi_prime is d(phi)/dx for the second-order families and the invariant
    derivative omega^-1 rho d(phi)/drho (= d(phi)/ds) for k = inf large-k.
    True values are (phi, phi_prime) * exp(log_scale). A `factored` state
    keeps (f, f') of f = phi/zeta in the same fields, and a shot from it
    runs in f.
    """

    x: float
    phi: float
    phi_prime: float
    log_scale: float = 0.0
    factored: bool = False


@dataclass
class ShootingTrace:
    """One integrated shot, sampled at the accepted steps."""

    operator: OperatorSpec
    mu2: float
    grid: np.ndarray
    values: np.ndarray          # (n, 2) stored (phi, chi)
    log_scale: np.ndarray       # (n,) cumulative log scale per sample
    zero_count: int = 0
    factored: bool = False      # values are (f, f') of f = phi/zeta

    @property
    def end(self):
        return StartData(float(self.grid[-1]), float(self.values[-1, 0]),
                         float(self.values[-1, 1]), float(self.log_scale[-1]),
                         self.factored)


@dataclass(frozen=True)
class ThresholdFit:
    """Affine fit a + b x to a trace tail at the continuum edge."""

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
    return max(r0, 1e-7), c2, c4


def _free_radius(k, lam):
    """Largest r <= 1 at which phi0 is exact to 1e-12: the variation of
    constants bound 2 (lambda tanh(r/2))^(2k) on the V term is <= 1e-12."""
    t = math.tanh(0.5)
    if lam != 0.0:
        t = min(t, 5e-13 ** (0.5 / k) / abs(lam))
    return 2.0 * math.atanh(t)


def _free_start(k, mu2, r):
    """phi0 at r (see the module docstring), leading coefficient 1.

    2F1 is summed to 1e-17 with the term ratio -z (n^2 + n + mu2) /
    ((n+1)(n+k+1)), z = sinh^2(r/2), which is real for every mu2. The power
    k log(2 tanh(r/2)) goes to log_scale, so no power overflows at large k.
    """
    z = math.sinh(0.5 * r) ** 2
    f, nf, term, n = 1.0, 0.0, 1.0, 0
    while True:
        term *= -z * (n * n + n + mu2) / ((n + 1.0) * (n + k + 1.0))
        n += 1
        f += term
        nf += n * term
        if abs(term) <= 1e-17 * abs(f) and n * n > abs(mu2):
            break
    # d/dr of 2F1(-z) is coth(r/2) sum n t_n
    sh = math.sinh(r)
    val = math.sqrt(sh) * f
    der = math.sqrt(sh) * (f * (0.5 * math.cosh(r) + k) / sh
                           + nf / math.tanh(0.5 * r))
    return StartData(r, val, der, k * math.log(2.0 * math.tanh(0.5 * r)))


def series_start(op, mu2, r0=None, factored=False):
    """Exact start for the regular solution, leading coefficient 1.

    With no r0 the Frobenius series starts at its adaptive radius; for the
    half-line sphere family, phi0 starts instead at _free_radius when that
    reaches farther. At k >= 3 the series leaves out the map's potential V,
    so its radius is capped by _free_radius, where V's relative effect
    2 (lambda tanh(r/2))^(2k) is 1e-12. An explicit r0 always takes the
    series, and raises SeriesRadiusExceeded beyond its validity. For the
    k = inf large-k member this returns the far-field start in s described
    in the module docstring, and r0 is ignored; a finite-k large-k member
    raises DomainError (it is shot on its half-line pullback).

    With `factored` it returns a start of f = phi/zeta instead (a euclidean
    shot refuses it), away from k = inf always on the series
    f = 1 - mu2 x^2/(4 nu + 2) + O(x^4), from f'' + 2W f' + mu2 f = 0 with
    W = nu/x + O(x). That series leaves the map's part of W out at every k,
    so for the half-line sphere its radius is capped by _free_radius at
    every k. Any start error along the second solution, the integral of
    zeta^-2 from x to infinity, shrinks relative to f like
    (zeta(x0)/zeta(x))^2 as the shot moves out.
    """
    if op.family == LARGE_K:
        return _largek_start(op, mu2, factored)
    nu, u0, u2 = _series_coeffs(op, mu2)
    rmax, c2, c4 = _series_radius(nu, u0, u2)
    half_sphere = op_code(op)[0] == _kernels.HALF_SPHERE
    rf = _free_radius(op.k, op.lam) if half_sphere else 0.0
    if half_sphere and (op.k >= 3 or factored):
        rmax = min(rmax, rf)
    if r0 is None:
        r0 = rmax
        if rf > rmax and not factored:
            return _free_start(op.k, mu2, rf)
    elif r0 > rmax * (1.0 + 1e-12):
        raise SeriesRadiusExceeded(
            f"r0={r0:g} beyond series radius {rmax:g} for this operator")
    elif r0 <= 0.0:
        raise DomainError(f"r0 must be positive, got {r0}")
    if factored:
        c = -mu2 / (4.0 * nu + 2.0)
        return StartData(r0, 1.0 + c * r0 * r0, 2.0 * c * r0, 0.0, True)
    r2 = r0 * r0
    val = r0 ** nu * (1.0 + c2 * r2 + c4 * r2 * r2)
    der = r0 ** (nu - 1.0) * (nu + (nu + 2.0) * c2 * r2
                              + (nu + 4.0) * c4 * r2 * r2)
    return StartData(r0, val, der, 0.0)


def _largek_start(op, mu2, factored):
    """The k = inf member's start at L0 = 25: f = 1, f' = -mu2/(2 W), or
    for phi the same times zeta, (f, f' + W f), log zeta = -L0 - log(L0)/2."""
    if op.k != math.inf:
        raise DomainError(
            "a finite-k large-k member is shot on its half-line pullback "
            "half_line(sphere(k, Theta^(1/k))), not in s")
    L0 = 25.0
    w = _kernels.logder(*op_code(op), -math.log(L0))
    f = StartData(-math.log(L0), 1.0, -mu2 / (2.0 * w), 0.0, True)
    return f if factored else StartData(f.x, 1.0, f.phi_prime + w,
                                        -L0 - 0.5 * math.log(L0))


def _shoot(op, mu2, start, x_end, rtol, atol, max_step, store):
    """Kernel call with start normalization; returns the raw kernel tuple.

    The shot runs in the start's variable. A factored one takes atol in
    units of |mu2|: f is about 1 and f' about mu2 x, so otherwise atol, and
    not rtol, would bound the error of f' in deep wells."""
    code, kk, p = op_code(op)
    if code == _kernels.LARGEK_FIN:
        raise DomainError("no shot runs the finite-k large-k normal form: "
                          "shoot its half-line pullback")
    if not math.isfinite(x_end):
        raise DomainError(f"a shot must end at a finite point, got {x_end}")
    if start.factored:
        if code == _kernels.EUCLIDEAN:
            raise DomainError("no euclidean shot runs in f: it has no W")
        atol = max(atol * abs(mu2), 1e-300)
    if op.family != LARGE_K and (start.x <= 0.0 or x_end <= 0.0):
        raise DomainError("half-line coordinates must be positive")
    if x_end == start.x:
        raise DomainError("empty integration interval")
    phi, chi, lg = start.phi, start.phi_prime, start.log_scale
    mag = max(abs(phi), abs(chi))
    if mag > 0.0 and not (1e-2 <= mag <= 1e2):
        phi /= mag
        chi /= mag
        lg += math.log(mag)
    out = _kernels.rk_shoot(code, kk, p, mu2, start.x, phi, chi, lg,
                            x_end, rtol, atol, MAX_STEPS, max_step, store,
                            start.factored)
    status = out[0]
    if status == _kernels.UNDERFLOW:
        raise StepSizeUnderflow(
            f"step underflow at x={out[7]:.6g} (mu2={mu2:g})")
    if status == _kernels.MAXSTEPS:
        raise GapspecError(f"step budget {MAX_STEPS} exhausted at x={out[7]:.6g}")
    return out


def integrate(op, mu2, start, x_end, rtol=1e-11, atol=1e-13,
              max_step=0.0) -> ShootingTrace:
    """Integrate the shooting system from `start` to x_end, storing every
    accepted step, in the start's variable. Direction is inferred from the
    endpoints."""
    if not isinstance(start, StartData):
        start = StartData(*start)
    (_, nst, xs, phis, chis, lgs, nzero, *_rest) = _shoot(
        op, mu2, start, x_end, rtol, atol, max_step, store=True)
    vals = np.empty((nst, 2))
    vals[:, 0] = phis[:nst]
    vals[:, 1] = chis[:nst]
    return ShootingTrace(
        operator=op, mu2=mu2, grid=xs[:nst].copy(), values=vals,
        log_scale=lgs[:nst].copy(), zero_count=int(nzero),
        factored=start.factored)


def _asymptotic(code, kk, p, edge, m2, x):
    """True where the shooting system at x is phi'' = m^2 phi to 1e-12:
    |U - edge| < 1e-12 m^2."""
    return abs(_kernels.pot(code, kk, p, x) - edge) < 1e-12 * m2


def require_asymptotic(op, mu2, R):
    """Raise TailNotAsymptotic unless U(R) is asymptotic for mu2."""
    if not math.isfinite(R):
        raise DomainError(f"a tail point must be finite, got {R}")
    code, kk, p = op_code(op)
    edge = continuum_edge(op)
    if not _asymptotic(code, kk, p, edge, edge - mu2, float(R)):
        u = _kernels.pot(code, kk, p, float(R))
        raise TailNotAsymptotic(
            f"|U(R) - {edge:g}| = {abs(u - edge):.3g} at R={R:g}, "
            f"not below 1e-12 m^2 = {1e-12 * (edge - mu2):.3g}")


def asymptotic_radius(op, mu2, x_end):
    """Smallest point of the grid x_end - j h, j = 0, 1, ..., past which the
    potential sits at its asymptote for a state at mu2 (see _asymptotic).

    The grid is scanned backward from x_end and the scan stops at the first
    point that fails: U crosses the edge inside the well, so a forward search
    or a bisection would stop at that crossing. h = 0.5 in r and s, where
    U - edge decays like exp(-2x), and lambda/4 in rho, the same step in r.
    Returns x_end itself when the potential has not flattened there, and
    always when mu2 >= edge. A non-finite x_end raises DomainError.
    """
    if not math.isfinite(x_end):
        raise DomainError(f"a count radius must be finite, got {x_end}")
    code, kk, p = op_code(op)
    edge = continuum_edge(op)
    h = 0.25 * p if op.family == RESCALED else 0.5
    x = float(x_end)
    while x - h > 0.0 and _asymptotic(code, kk, p, edge, edge - mu2, x - h):
        x -= h
    return x


def count_zeros(op, mu2, start, x_end, rtol=1e-11, atol=1e-13):
    """Sturm count: zeros of the shot from `start`, without building a
    trace. A factored start counts the zeros of f = phi/zeta, which are
    those of phi because zeta > 0.

    Below the edge, once the potential has flattened by x_end, the shot
    stops at x_a = asymptotic_radius(op, mu2, x_end) and the count is on
    the whole half-line (start, inf). Past x_a the solution is
    phi_a cosh(m t) + (chi_a/m) sinh(m t), t = x - x_a,
    m = sqrt(edge - mu2) (in f, (phi_a, chi_a) is zeta (f, W f + f') at
    x_a), so it has at most one zero on (x_a, inf), and it has one iff
    phi_a chi_a < 0 and |chi_a| > m |phi_a|. A shot that ends on
    phi_a = 0 ends on a simple zero that the kernel has not counted yet: it
    counts a zero when phi next takes a sign other than the last nonzero
    one, and past x_a phi takes the sign of chi_a. Otherwise (mu2 at or
    above the edge, or a potential not yet flat at x_end) the count is on
    (start, x_end].
    """
    if not isinstance(start, StartData):
        start = StartData(*start)
    x_a = asymptotic_radius(op, mu2, x_end)
    code, kk, p = op_code(op)
    edge = continuum_edge(op)
    if not (start.x < x_a and _asymptotic(code, kk, p, edge, edge - mu2, x_a)):
        return int(_shoot(op, mu2, start, x_end, rtol, atol, 0.0, False)[6])
    out = _shoot(op, mu2, start, x_a, rtol, atol, 0.0, False)
    zeros, phi, chi = int(out[6]), out[8], out[9]
    if phi == 0.0:
        return zeros + (chi != 0.0)
    if start.factored:
        chi += _kernels.logder(code, kk, p, x_a) * phi
    m = math.sqrt(edge - mu2)
    return zeros + ((phi < 0.0) != (chi < 0.0) and abs(chi) > m * abs(phi))


def endpoint_state(op, mu2, start, x_end, rtol=1e-11, atol=1e-13):
    """End StartData of the shot without storing samples, in the start's
    variable (a factored start gives a factored end)."""
    if not isinstance(start, StartData):
        start = StartData(*start)
    out = _shoot(op, mu2, start, x_end, rtol, atol, 0.0, False)
    return StartData(*out[7:], start.factored)


def tail_start_decaying(op, mu2, R, factored=False):
    """Decaying-branch start at x = R: stored (1, -m), true scale exp(-mR).

    m = sqrt(edge - mu2) with edge the family's continuum edge. Requires the
    potential to have reached its asymptote at R to 1e-12 m^2, else
    TailNotAsymptotic. With `factored` it is a factored start of
    f = phi/zeta, stored (1, -m - W(R)) with the same log scale (the factor
    1/zeta(R) left out).
    """
    edge = continuum_edge(op)
    if not mu2 < edge:
        raise DomainError(f"need mu2 < {edge} for a decaying tail, got {mu2}")
    require_asymptotic(op, mu2, R)
    m = math.sqrt(edge - mu2)
    w = _kernels.logder(*op_code(op), float(R)) if factored else 0.0
    return StartData(float(R), 1.0, -m - w, -m * float(R), factored)


def fit_threshold(trace, window=None):
    """Affine tail fit at the continuum edge: phi ~ a + b x on the window.

    Defaults to [0.5, 0.9] of the trace span. The residual is the RMS misfit
    relative to max(|a|, |b| * window length); FitUnreliable at >= 1e-6.
    a and b are taken relative to the log scale at the start of the window,
    so they are defined only up to a positive factor that depends on where
    the shot starts (for sphere(16, 1.33), a is 5.2e6 from phi0 and 4.8e48
    from the series start at 1e-3); only the sign of b and b/a are
    invariant.
    """
    xs = trace.grid
    xmax = float(xs[-1])
    if window is None:
        window = (0.5 * xmax, 0.9 * xmax)
    w0, w1 = window
    sel = (xs >= w0) & (xs <= w1)
    if int(sel.sum()) < 8:
        raise FitUnreliable(
            f"only {int(sel.sum())} samples inside window {window}")
    x = xs[sel]
    ref = float(trace.log_scale[sel][0])
    v = trace.values[sel, 0] * np.exp(trace.log_scale[sel] - ref)
    xb = x.mean()
    vb = v.mean()
    dx = x - xb
    b = float(np.dot(dx, v - vb) / np.dot(dx, dx))
    a = float(vb - b * xb)
    resid = float(np.sqrt(np.mean((v - a - b * x) ** 2)))
    rel = resid / max(abs(a), abs(b) * (w1 - w0), 1e-300)
    if rel >= 1e-6:
        raise FitUnreliable(f"threshold fit residual {rel:.3g} >= 1e-6")
    return ThresholdFit(a, b, rel, (float(w0), float(w1)))


def renormalized_f(geometry, mu2, rho_max):
    """Renormalize the gap-edge shot by the zero mode: f = phi/zeta.

    One factored shot of the rescaled operator, (f' zeta^2)' =
    -(4 mu2/lambda^2) zeta^2 f, from its series start f = 1 - O(rho^2) out
    to rho_max, sampled at its accepted steps (the step is capped at
    rho_max/100, so the profile has at least a hundred samples). mu2 is in
    the half-line convention, so mu2 = 1/4 probes the rescaled family's
    continuum edge 1/lambda^2 and mu2 = 0 gives f identically 1. The result
    carries the relative residual against an independent direct phi-shot of
    the rescaled operator.
    """
    lam = geometry.lam
    if not lam > 0.0:
        raise DomainError(f"need lambda > 0, got {lam}")
    eps = 4.0 * mu2 / lam ** 2
    op = rescaled(geometry)
    start = series_start(op, eps, factored=True)
    if not rho_max > start.x:
        raise DomainError(f"need rho_max beyond the series start "
                          f"{start.x:g}, got {rho_max}")
    tr = integrate(op, eps, start, rho_max, rtol=1e-12, atol=1e-15,
                   max_step=rho_max / 100.0)
    scale = np.exp(tr.log_scale)
    rho = tr.grid
    f = tr.values[:, 0] * scale
    sol = RenormalizedSolution(geometry, mu2, rho, f, tr.values[:, 1] * scale,
                               zero_mode(geometry, RESCALED_RHO, rho))
    sol.shoot_residual = _renorm_crosscheck(geometry, eps, rho, f)
    return sol


def _interp4(x, xp, fp):
    """Piecewise 4-point Lagrange interpolation on a strictly increasing
    grid; one order beyond linear so smooth comparisons are not limited by
    the interpolant. x must lie inside [xp[0], xp[-1]]."""
    i = np.clip(np.searchsorted(xp, x) - 1, 1, xp.size - 3)
    x0, x1, x2, x3 = xp[i - 1], xp[i], xp[i + 1], xp[i + 2]
    y0, y1, y2, y3 = fp[i - 1], fp[i], fp[i + 1], fp[i + 2]
    d0, d1, d2, d3 = x - x0, x - x1, x - x2, x - x3
    return (y0 * d1 * d2 * d3 / ((x0 - x1) * (x0 - x2) * (x0 - x3))
            + y1 * d0 * d2 * d3 / ((x1 - x0) * (x1 - x2) * (x1 - x3))
            + y2 * d0 * d1 * d3 / ((x2 - x0) * (x2 - x1) * (x2 - x3))
            + y3 * d0 * d1 * d2 / ((x3 - x0) * (x3 - x1) * (x3 - x2)))


def _renorm_crosscheck(geometry, eps, rho, f):
    """Relative misfit of f against a direct rescaled-operator shot.

    The shot is divided by the closed-form zero mode at its own sample
    points, so the comparison interpolates only the slowly varying f and
    inherits no interpolation error from the fast profile itself.
    """
    op = rescaled(geometry)
    start = series_start(op, eps)
    tr = integrate(op, eps, start, float(rho[-1]), rtol=1e-12, atol=1e-15)
    sel = (tr.grid >= rho[0]) & (tr.grid <= rho[-1])
    xs = tr.grid[sel]
    ref = float(np.max(tr.log_scale[sel]))
    phi = tr.values[sel, 0] * np.exp(tr.log_scale[sel] - ref)
    f_shot = phi / zero_mode(geometry, RESCALED_RHO, xs)
    f_ref = _interp4(xs, rho, f)
    scale = float(np.dot(f_shot, f_ref) / np.dot(f_ref, f_ref))
    return float(np.max(np.abs(f_shot - scale * f_ref))
                 / np.max(np.abs(f_shot)))
