"""Radial wave evolution in the conjugated variable w = sinh^(1/2) r * delta.

The linearized flow w_tt = -(-w_rr + U w) is stepped with velocity Verlet
on a uniform grid with Dirichlet ends, optionally adding the exact
nonlinear remainder of the full equation as a source, so an evolution
started on a gap eigenmode rings at sqrt(mu2) without decay while generic
data disperses. The stepper merges each step's two half-kicks into one
kick of the half-step momentum dt*v (the leapfrog form of the same
scheme); between chunks of steps the state holds w, v and the
acceleration at one time, which is where energies are taken.

The per-node potential is not read off pointwise: U_i is the discrete
second difference of the closed-form zero-energy mode divided by its
value there, which makes that mode an exact null vector of the stencil.
The ground-state representation of the quadratic form then keeps the
discrete operator nonnegative on every grid, where pointwise sampling of
a deep narrow well (depth ~ lambda^2 near r ~ 1/lambda) manufactures a
spurious negative mode that blows the evolution up unless h is far below
the well width. The sampled values agree with the pointwise potential to
O(h^2), so the scheme keeps its second order, and the gap eigenfrequency
survives discretization to a few parts in 1e5 even on grids that barely
resolve the well. The time step obeys the Gershgorin bound of the
assembled operator; the first node off the axis carries the largest
entry, about 3.7/h^2 from the r^(k+1/2) vanishing, so the default dt
lands near 0.72 h rather than the flat-potential 0.9 h.

The recorded probe series is the raw evolved w at one node per time step;
its discrete spectrum and first-vs-last amplitude ratio are the dynamical
diagnostics the spectral results predict.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (CFLViolation, DomainError, NoEigenmode, TooFewSamples)
from .harmonic_maps import SPHERE, EnergyBreakdown, eval_Q, metric_g
from .ode_engine import integrate, series_start, tail_start_decaying
from .operators import PHYSICAL_R, half_line, zero_mode
from .spectral import _matching_point, find_gap_eigenvalues

CFL_FACTOR = 0.9


@dataclass(frozen=True)
class GapEigenmode:
    """Start on a gap eigenfunction (located on demand when mu2 is None).
    index is an integer >= 0; init_state raises DomainError otherwise."""

    mu2: float = None
    index: int = 0


@dataclass(frozen=True)
class GaussianBump:
    """Time-symmetric bump in w, centered away from the axis.

    The defaults keep the profile narrow: a wide bump loads the spectrum
    near the continuum edge, where vanishing group velocity parks a
    lingering tail at any fixed probe."""

    amplitude: float = 1.0
    center: float = 8.0
    width: float = 0.5


@dataclass(frozen=True)
class CustomProfile:
    """Arbitrary initial profile: w(r) = fn(r), endpoints zeroed."""

    fn: object


@dataclass
class WaveState:
    """Evolved fields plus the frozen per-node coefficient arrays."""

    geometry: object
    grid: np.ndarray
    h: float
    t: float
    w: np.ndarray
    v: np.ndarray
    a: np.ndarray
    ueff: np.ndarray
    nonlinear: bool
    probe_index: int
    dt_max: float = math.nan     # Gershgorin stability limit for the stepper
    mu2: float = math.nan        # set when started on an eigenmode
    # conjugation and source coefficients
    inv_ss: np.ndarray = None
    inv_s32: np.ndarray = None
    sin2q: np.ndarray = None
    cos2q: np.ndarray = None
    qm1: np.ndarray = None


@dataclass
class RunResult:
    times: np.ndarray
    probe: np.ndarray
    energy_times: np.ndarray
    energies: np.ndarray
    state: WaveState
    dt: float


@dataclass(frozen=True)
class SpectrumSummary:
    dominant_omega: float
    dominant_bin: int
    bin_width: float
    decay_ratio: float
    n_samples: int


def nonlinear_source(geometry, r, u):
    """Exact remainder of the full radial equation beyond its linearization
    at the harmonic map, for the flat variable u with psi = Q + sinh^k r u.

    Computed from the closed remainder of g g' rather than by subtracting
    near-equal terms: with delta = sinh^k r u the sphere remainder is
    -sin(2Q) sin^2(delta) + cos(2Q)(sin(2 delta)/2 - delta) (small |delta|
    guarded by its odd series) and the Yang-Mills one is the cubic
    (3/2)(Q - 1) delta^2 + delta^3/2. O(u^2) as u -> 0 at fixed r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("the nonlinear remainder needs r > 0")
    u = np.asarray(u, dtype=float)
    k = geometry.k
    sk = np.sinh(r) ** k
    q = eval_Q(geometry, r)
    rem = _kernels.remainder(sk * u, 0 if geometry.kind == SPHERE else 1,
                             np.sin(2.0 * q), np.cos(2.0 * q), q - 1.0)
    out = -(k * k) * rem / (sk * np.sinh(r) ** 2)
    return out if out.shape else float(out)


def _hermite(x, xs, vals):
    """Cubic Hermite interpolant at x of the (f, f') samples vals on the
    increasing grid xs, held constant outside it."""
    x = np.clip(x, xs[0], xs[-1])
    i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
    d = xs[i + 1] - xs[i]
    t = (x - xs[i]) / d
    s = 1.0 - t
    return (s * s * ((1.0 + 2.0 * t) * vals[i, 0] + t * d * vals[i, 1])
            + t * t * ((1.0 + 2.0 * s) * vals[i + 1, 0]
                       - s * d * vals[i + 1, 1]))


def _eigenmode_profile(geometry, mu2, index, r, zeta):
    """Eigenfunction w = zeta f on the nodes, max-normalized.

    f = phi/zeta is stitched from the two legs of the Wronskian match at
    the map's midpoint 2 artanh(1/lambda) (lambda <= 1, which has none,
    raises DomainError): the regular shot from the series start and the
    decaying shot from R, scaled to agree there, and taken at the nodes by
    cubic Hermite interpolation of the legs' (f, f'). Below the series
    start, f is the start's series. zeta is the zero mode on the nodes."""
    op = half_line(geometry)
    if mu2 is None:
        rep = find_gap_eigenvalues(op, scans=False, threshold=False)
        if index >= len(rep.eigenvalues):
            raise NoEigenmode(
                f"gap holds {len(rep.eigenvalues)} eigenvalues, "
                f"index {index} requested")
        mu2 = rep.eigenvalues[index].mu2
    R = float(r[-1])
    h = float(r[1] - r[0])
    start = series_start(op, mu2)
    xm = _matching_point(op)
    fwd = integrate(op, mu2, start, xm, max_step=h)
    bwd = integrate(op, mu2, tail_start_decaying(op, mu2, R), xm,
                    max_step=h)
    vf = fwd.values * np.exp(fwd.log_scale - fwd.log_scale[-1])[:, None]
    vb = (bwd.values * np.exp(bwd.log_scale - bwd.log_scale[-1])[:, None]
          )[::-1]
    f = np.where(r <= xm, _hermite(r, fwd.grid, vf),
                 vf[-1, 0] / vb[0, 0] * _hermite(r, bwd.grid[::-1], vb))
    for i in np.flatnonzero((r > 0.0) & (r < start.x)):
        head = series_start(op, mu2, float(r[i]))
        f[i] = vf[0, 0] * head.f / start.f
    w = zeta * f
    w[0] = 0.0
    w[-1] = 0.0
    return w / np.max(np.abs(w)), mu2


def init_state(geometry, R, n, initial, nonlinear=False,
               probe_r=None) -> WaveState:
    """Assemble a wave state on n nodes over [0, R].

    `initial` is a GapEigenmode, GaussianBump, or CustomProfile; velocities
    start at zero. The probe defaults to the node where |w| peaks.
    """
    if not (float(n).is_integer() and n >= 512):
        raise DomainError(f"need an integer of at least 512 nodes, got {n}")
    n = int(n)
    # past r = 710 sinh r overflows, and with it the zero mode that builds
    # the potential and the eigenmode
    if not 40.0 <= R <= 710.0:
        raise DomainError(f"the domain must end at an R in [40, 710], got {R}")
    if probe_r is not None and not math.isfinite(probe_r):
        raise DomainError(f"probe_r must be finite, got {probe_r}")
    r = np.linspace(0.0, float(R), n)
    h = float(r[1] - r[0])
    zeta = zero_mode(geometry, PHYSICAL_R, r)
    ueff = np.zeros(n)
    ueff[1:-1] = (zeta[:-2] - 2.0 * zeta[1:-1] + zeta[2:]) \
        / (h * h * zeta[1:-1])
    dt_max = 2.0 * CFL_FACTOR / math.sqrt(
        4.0 / h ** 2 + max(float(ueff.max()), 0.0))

    sr = np.sinh(r)
    inv_ss = np.zeros(n)
    inv_ss[1:] = 1.0 / np.sqrt(sr[1:])
    q = eval_Q(geometry, r)
    mu2 = math.nan
    if isinstance(initial, GapEigenmode):
        if not (isinstance(initial.index, numbers.Integral)
                and initial.index >= 0):
            raise DomainError(f"an eigenmode index must be an integer >= 0, "
                              f"got {initial.index!r}")
        w, mu2 = _eigenmode_profile(geometry, initial.mu2, initial.index, r,
                                    zeta)
    elif isinstance(initial, GaussianBump):
        fields = (initial.amplitude, initial.center, initial.width)
        if not all(math.isfinite(v) for v in fields) or initial.width <= 0.0:
            raise DomainError("a bump needs a finite amplitude and center and "
                              f"a finite positive width, got {initial}")
        w = initial.amplitude * np.exp(
            -0.5 * ((r - initial.center) / initial.width) ** 2)
        w[0] = 0.0
        w[-1] = 0.0
    elif isinstance(initial, CustomProfile):
        w = np.asarray(initial.fn(r), dtype=float).copy()
        if w.shape != r.shape:
            raise DomainError("initial profile must map the grid to itself")
        w[0] = 0.0
        w[-1] = 0.0
    else:
        raise DomainError(f"unknown initial data {type(initial).__name__}")

    if probe_r is None:
        probe_index = int(np.argmax(np.abs(w)))
    else:
        probe_index = int(round(float(probe_r) / h))
    probe_index = min(max(probe_index, 1), n - 2)

    state = WaveState(
        geometry=geometry, grid=r, h=h, t=0.0,
        w=w.astype(float), v=np.zeros(n), a=np.zeros(n), ueff=ueff,
        nonlinear=bool(nonlinear), probe_index=probe_index,
        dt_max=dt_max, mu2=mu2,
        inv_ss=inv_ss, inv_s32=inv_ss ** 3,
        sin2q=np.sin(2.0 * q), cos2q=np.cos(2.0 * q), qm1=q - 1.0)
    _kernels.acceleration(state.w, 1.0, 1.0 / h ** 2, ueff,
                          *_source_args(state))(state.a[1:-1])
    return state


def _source_args(state):
    """The kernels' trailing source arguments (nonlin, geom, kk, ...)."""
    g = state.geometry
    return (state.nonlinear, 0 if g.kind == SPHERE else 1, float(g.k),
            state.inv_ss, state.inv_s32, state.sin2q, state.cos2q, state.qm1)


def _run_chunk(state, dt, nsteps, probe_out, out_off):
    if not dt <= state.dt_max * (1.0 + 1e-12):
        raise CFLViolation(
            f"dt={dt:g} above the stability limit {state.dt_max:g}")
    _kernels.step_chunk(
        state.w, state.v, state.a, state.ueff, 1.0 / state.h ** 2,
        dt, nsteps, state.probe_index, probe_out, out_off,
        *_source_args(state))
    state.t += nsteps * dt


def step(state, dt, nsteps=1):
    """Advance nsteps of size dt; returns the probe samples of the chunk."""
    if not (dt > 0.0 and float(nsteps).is_integer() and nsteps >= 1):
        raise DomainError(
            f"need dt > 0 and an integer nsteps >= 1, got {dt}, {nsteps}")
    nsteps = int(nsteps)
    probe = np.empty(nsteps)
    _run_chunk(state, dt, nsteps, probe, 0)
    return probe


def energy(state) -> EnergyBreakdown:
    """Quadratic energy of the evolved pair under the sampled potential.

    The gradient term lives on cell midpoints, so the spatial part is
    exactly the discrete operator's quadratic form and the total is
    conserved by the stepper up to bounded O(dt^2) oscillation.
    """
    h = state.h
    kin = 0.5 * h * float(np.dot(state.v, state.v))
    dw = np.diff(state.w) / h
    grad = 0.5 * h * float(np.dot(dw, dw))
    pot = 0.5 * h * float(np.dot(state.ueff, state.w * state.w))
    return EnergyBreakdown(kin, grad, pot, kin + grad + pot)


def nonlinear_energy(state):
    """Energy of the full field psi = Q + w/sqrt(sinh r) (axis cell dropped:
    both densities vanish there with the data)."""
    r = state.grid
    h = state.h
    g = state.geometry
    psi = eval_Q(g, r) + state.w * state.inv_ss
    psi_t = state.v * state.inv_ss
    sr = np.sinh(r)
    kin = 0.5 * h * float(np.sum(psi_t[1:-1] ** 2 * sr[1:-1]))
    dpsi = np.diff(psi) / h
    rmid = 0.5 * (r[:-1] + r[1:])
    grad = 0.5 * h * float(np.dot(dpsi * dpsi, np.sinh(rmid)))
    gv = metric_g(g, psi[1:])
    pot = 0.5 * g.k ** 2 * h * float(np.sum(gv * gv / sr[1:]))
    return EnergyBreakdown(kin, grad, pot, kin + grad + pot)


def run(state, t_final, dt=None, energy_stride=64) -> RunResult:
    """Evolve to t_final, recording the probe each step and the energy
    every `energy_stride` steps (plus both endpoints)."""
    if dt is None:
        dt = state.dt_max
    if not dt > 0.0:
        raise DomainError(f"need dt > 0, got {dt}")
    if not state.t < t_final < math.inf:
        raise DomainError("t_final must be finite and exceed the current time")
    if not (float(energy_stride).is_integer() and energy_stride >= 1):
        raise DomainError(
            f"energy_stride must be an integer >= 1, got {energy_stride}")
    nsteps = max(1, int(math.ceil((t_final - state.t) / dt - 1e-12)))
    dt = (t_final - state.t) / nsteps
    t0 = state.t
    probe = np.empty(nsteps)
    e_times = [state.t]
    e_vals = [energy(state).total]
    done = 0
    while done < nsteps:
        chunk = min(energy_stride, nsteps - done)
        _run_chunk(state, dt, chunk, probe, done)
        done += chunk
        e_times.append(state.t)
        e_vals.append(energy(state).total)
    times = t0 + dt * np.arange(1, nsteps + 1)
    return RunResult(times, probe, np.array(e_times), np.array(e_vals),
                     state, dt)


def probe_spectrum(times, series) -> SpectrumSummary:
    """Dominant angular frequency (parabolic peak refinement of the DFT)
    and the last-quarter over first-quarter amplitude ratio.

    A series that is constant after detrending has no dominant frequency;
    both it and the bin come back as None with a zero decay ratio."""
    series = np.asarray(series, dtype=float)
    n = series.size
    if n < 1024:
        raise TooFewSamples(f"need at least 1024 probe samples, got {n}")
    dt = float(times[1] - times[0])
    y = series - series.mean()
    if not np.any(y):
        return SpectrumSummary(None, None, 2.0 * math.pi / (n * dt), 0.0, n)
    mags = np.abs(np.fft.rfft(y))
    j = int(np.argmax(mags[1:])) + 1
    shift = 0.0
    if 1 <= j < mags.size - 1:
        den = mags[j - 1] - 2.0 * mags[j] + mags[j + 1]
        if den != 0.0:
            shift = 0.5 * (mags[j - 1] - mags[j + 1]) / den
    omega = 2.0 * math.pi * (j + shift) / (n * dt)
    q = n // 4
    first = float(np.max(np.abs(y[:q])))
    last = float(np.max(np.abs(y[-q:])))
    ratio = last / first if first > 0.0 else math.inf
    return SpectrumSummary(omega, j, 2.0 * math.pi / (n * dt), ratio, n)
