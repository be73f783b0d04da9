"""Equivariant harmonic map families on hyperbolic space.

Two geometries share one reduced radial problem

    Q'' + coth(r) Q' = k^2 g(Q) g'(Q) / sinh^2(r),

distinguished by the nonlinearity g: the sphere target has g(psi) = sin(psi)
with arbitrary rotation number k >= 1, and the equivariant Yang-Mills
reduction has g(psi) = psi - psi^2/2 acting like k = 2. Each family carries a
one-parameter branch of finite-energy solutions Q_lambda parameterized by the
boundary gradient, with lambda = 0 the trivial map; the closed forms below
satisfy the first-order Bogomolny reduction Q' = k g(Q)/sinh(r).

All point evaluators accept floats or numpy arrays and are exact at r = 0
(removable singularities are evaluated through tanh/sech half-angle identities
rather than limits of 0/0 quotients).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundOutOfRange, DomainError, QuadratureNotConverged

SPHERE = "sphere"
YANG_MILLS = "ym"


@dataclass(frozen=True)
class GeometrySpec:
    """Which reduced problem, its equivariance class, and the family member.

    kind: "sphere" or "ym"; k: equivariance index (forced to 2 for "ym");
    lam: finite family parameter >= 0 (0 is the trivial map).
    """

    kind: str
    k: int
    lam: float

    def __post_init__(self):
        if self.kind not in (SPHERE, YANG_MILLS):
            raise DomainError(f"unknown geometry kind {self.kind!r}")
        if self.kind == YANG_MILLS and self.k != 2:
            raise DomainError("Yang-Mills reduction has fixed index k=2")
        if not (float(self.k).is_integer() and self.k >= 1):
            raise DomainError(f"equivariance index must be integer >= 1, got {self.k}")
        if not 0.0 <= self.lam < math.inf:
            raise DomainError(
                f"family parameter must be finite and >= 0, got {self.lam}")


def geometry(kind, k, lam):
    """Family member of either kind; GeometrySpec validates the kind/k pair."""
    return GeometrySpec(kind, k, float(lam))


def sphere(k, lam):
    return GeometrySpec(SPHERE, k, float(lam))


def yang_mills(lam):
    return GeometrySpec(YANG_MILLS, 2, float(lam))


def metric_g(geometry, psi):
    if geometry.kind == SPHERE:
        return np.sin(psi)
    return psi - 0.5 * psi ** 2


def metric_g_prime(geometry, psi):
    if geometry.kind == SPHERE:
        return np.cos(psi)
    return 1.0 - psi


def metric_g_double_prime(geometry, psi):
    if geometry.kind == SPHERE:
        return -np.sin(psi)
    return -1.0 + 0.0 * np.asarray(psi)


def eval_Q(geometry, r):
    """Harmonic map profile Q_lambda(r)."""
    t = geometry.lam * np.tanh(0.5 * np.asarray(r, dtype=float))
    if geometry.kind == SPHERE:
        return 2.0 * np.arctan(t ** geometry.k)
    y = t * t
    return 2.0 * y / (1.0 + y)


def eval_Q_prime(geometry, r):
    """dQ/dr in closed form, finite at r = 0 (equals lam for sphere k=1)."""
    r = np.asarray(r, dtype=float)
    k = geometry.k
    T = np.tanh(0.5 * r)
    sech2 = 1.0 / np.cosh(0.5 * r) ** 2
    if geometry.kind == SPHERE:
        x = (geometry.lam * T) ** k
        # 2k x / ((1+x^2) sinh r) with sinh r = 2T/sech2
        return k * geometry.lam ** k * T ** (k - 1) * sech2 / (1.0 + x * x)
    y = (geometry.lam * T) ** 2
    return 2.0 * geometry.lam ** 2 * T * sech2 / (1.0 + y) ** 2


def endpoint(geometry):
    """Boundary value Q_lambda(infinity)."""
    if geometry.kind == SPHERE:
        return 2.0 * np.arctan(geometry.lam ** geometry.k)
    return 2.0 * geometry.lam ** 2 / (1.0 + geometry.lam ** 2)


def energy_closed_form(geometry):
    """Static energy via the Bogomolny quadrature E = k * int_0^alpha g.

    Sphere: k (1 - cos alpha) with alpha the endpoint, i.e.
    2 k lam^(2k) / (1 + lam^(2k)). Yang-Mills: alpha^2 - alpha^3/3 evaluated
    in closed form. The adaptive quadrature below is the independent check.
    """
    lam = geometry.lam
    if geometry.kind == SPHERE:
        z = lam ** (2 * geometry.k)
        return 2.0 * geometry.k * z / (1.0 + z)
    l2 = lam * lam
    return 4.0 * l2 * l2 * (3.0 + l2) / (3.0 * (1.0 + l2) ** 3)


def _energy_densities(geometry, r):
    """Gradient and potential energy densities, safe down to r = 0."""
    r = np.asarray(r, dtype=float)
    k = geometry.k
    lam = geometry.lam
    T = np.tanh(0.5 * r)
    sech2 = 1.0 / np.cosh(0.5 * r) ** 2
    qp = eval_Q_prime(geometry, r)
    grad = 0.5 * qp * qp * np.sinh(r)
    # g(Q)/sinh r stays bounded; potential density = (k^2/2) g(Q) * that
    if geometry.kind == SPHERE:
        x = (lam * T) ** k
        ratio = lam ** k * T ** (k - 1) * sech2 / (1.0 + x * x)
        gq = 2.0 * x / (1.0 + x * x)
    else:
        y = (lam * T) ** 2
        ratio = lam ** 2 * T * sech2 / (1.0 + y) ** 2
        gq = 2.0 * y / (1.0 + y) ** 2
    pot = 0.5 * k * k * gq * ratio
    return grad, pot


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic/gradient/potential split of an energy functional value."""

    kinetic: float
    gradient: float
    potential: float
    total: float


def energy_quadrature(geometry, r_max=60.0):
    """Static energy by interval-doubling composite Simpson on [0, r_max].

    Doubles the panel count until two successive refinements agree to 1e-9
    relative; raises QuadratureNotConverged otherwise. r_max >= 20 required
    (the integrand decays like exp(-2r) for every family member, so the
    default 60 covers lambda up to at least 100).
    """
    if r_max < 20.0:
        raise DomainError(f"r_max must be >= 20, got {r_max}")
    prev = None
    n = 64
    while n <= 2 ** 21:
        xs = np.linspace(0.0, r_max, n + 1)
        grad, pot = _energy_densities(geometry, xs)
        wts = np.ones(n + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        hh = r_max / n / 3.0
        ig = hh * np.dot(wts, grad)
        ip = hh * np.dot(wts, pot)
        total = ig + ip
        if prev is not None:
            if abs(total - prev) <= 1e-9 * max(abs(total), 1e-15):
                return EnergyBreakdown(0.0, ig, ip, total)
        prev = total
        n *= 2
    raise QuadratureNotConverged(
        f"Simpson refinements not settled at 1e-9 after n={n // 2} panels")


def _amplitude_integral(geometry, psi):
    """G(psi) = int_0^psi |g|, the conserved-energy bound functional."""
    if geometry.kind == SPHERE:
        n = np.floor(psi / np.pi)
        t = psi - n * np.pi
        return 2.0 * n + 1.0 - np.cos(t)
    if psi <= 2.0:
        return 0.5 * psi ** 2 - psi ** 3 / 6.0
    return psi ** 3 / 6.0 - 0.5 * psi ** 2 + 4.0 / 3.0


def amplitude_bound(geometry, energy):
    """Sup-norm bound G^{-1}(energy) on any field with that conserved energy.

    G is strictly increasing, so the inverse is found by doubling then
    bisection to 1e-12. BoundOutOfRange for negative energy or beyond the
    tabulated ceiling.
    """
    if not energy >= 0.0:
        raise BoundOutOfRange(f"energy must be >= 0, got {energy}")
    if energy == 0.0:
        return 0.0
    hi = 1.0
    tries = 0
    while _amplitude_integral(geometry, hi) < energy:
        hi *= 2.0
        tries += 1
        if tries > 40:
            raise BoundOutOfRange(f"energy {energy} beyond inversion ceiling")
    lo = 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _amplitude_integral(geometry, mid) < energy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
