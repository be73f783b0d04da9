"""Linearized operators around the harmonic map families.

Conjugating the linearized flow by sinh^(k+1/2) turns each linearization into
a half-line Schrodinger operator

    L = -d^2/dr^2 + 1/4 + (k^2 - 1/4)/sinh^2 r + V(r),

whose essential spectrum is [1/4, inf); the window (0, 1/4) is the spectral
gap this package hunts eigenvalues in. Four related families are exposed:

* half_line     -- L above, V from the sphere or Yang-Mills linearization.
* rescaled      -- the same operator viewed in rho = lambda r / 2; its
                   spectral parameter is 4 mu^2 / lambda^2 and its continuum
                   starts at 1/lambda^2.
* euclidean     -- the lambda -> infinity limit on the half-line in rho,
                   -d^2/drho^2 + (k^2-1/4)/rho^2 - 8 k^2 rho^(2k-2)/(1+rho^(2k))^2,
                   which annihilates rho^(k+1/2)/(1+rho^(2k)).
* large_k       -- the k -> infinity normal form on rho in (0, Theta) with
                   weight omega and potential block
                   1/4 + omega^-2 (C(rho) - 1/(4k^2)), C = (1-6rho^2+rho^4)/(1+rho^2)^2,
                   including the k = inf member (drop the 1/(4k^2) term).

The large-k family is *integrated* in s = -log log(Theta/rho) (see ode_engine)
but exposed here in its own rho variable.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .harmonic_maps import (SPHERE, GeometrySpec, eval_Q, metric_g,
                            metric_g_double_prime, metric_g_prime)

HALF_LINE = "half_line"
RESCALED = "rescaled"
EUCLIDEAN = "euclidean"
LARGE_K = "large_k"

TO_HALF_LINE = "to_half_line"
FROM_HALF_LINE = "from_half_line"


@dataclass(frozen=True)
class OperatorSpec:
    """One member of the four operator families.

    geometry is set for half_line/rescaled, theta for large_k. k may be
    math.inf only in the large_k family.
    """

    family: str
    k: float
    geometry: GeometrySpec | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.family not in (HALF_LINE, RESCALED, EUCLIDEAN, LARGE_K):
            raise DomainError(f"unknown operator family {self.family!r}")
        if self.family in (HALF_LINE, RESCALED):
            if self.geometry is None:
                raise DomainError(f"{self.family} operator needs a geometry")
            if self.family == RESCALED and self.geometry.lam <= 0.0:
                raise DomainError("rescaled coordinates need lambda > 0")
        if self.family == LARGE_K:
            if self.theta is None or not 0.0 < self.theta < math.inf:
                raise DomainError("large_k operator needs finite Theta > 0")
            if not (self.k == math.inf
                    or (float(self.k).is_integer() and self.k >= 1)):
                raise DomainError("large_k index must be integer >= 1 or inf")
        elif not (float(self.k).is_integer() and self.k >= 1):
            raise DomainError("index k must be a finite integer >= 1")

    @property
    def lam(self):
        return None if self.geometry is None else self.geometry.lam

    @property
    def frobenius_exponent(self):
        """Leading power of the regular solution at the left endpoint."""
        if self.family == LARGE_K:
            if self.k == math.inf:
                return 1.0  # rho * log^(-1/2), power part only
            return 1.0 + 1.0 / (2.0 * self.k)
        return self.k + 0.5

    @property
    def domain(self):
        if self.family == LARGE_K:
            return (0.0, self.theta)
        return (0.0, math.inf)

    @property
    def measure(self):
        return "omega_weighted" if self.family == LARGE_K else "lebesgue"


def half_line(geometry):
    return OperatorSpec(HALF_LINE, geometry.k, geometry=geometry)


def rescaled(geometry):
    return OperatorSpec(RESCALED, geometry.k, geometry=geometry)


def euclidean(k):
    return OperatorSpec(EUCLIDEAN, k)


def large_k(k, theta):
    return OperatorSpec(LARGE_K, k, theta=float(theta))


def op_code(op):
    """Kernel dispatch triple (code, kk, p) for an OperatorSpec."""
    if op.family == HALF_LINE:
        code = _kernels.HALF_SPHERE if op.geometry.kind == SPHERE else _kernels.HALF_YM
        return code, float(op.k), op.geometry.lam
    if op.family == RESCALED:
        code = _kernels.RESC_SPHERE if op.geometry.kind == SPHERE else _kernels.RESC_YM
        return code, float(op.k), op.geometry.lam
    if op.family == EUCLIDEAN:
        return _kernels.EUCLIDEAN, float(op.k), 0.0
    if op.k == math.inf:
        return _kernels.LARGEK_INF, 0.0, op.theta
    return _kernels.LARGEK_FIN, float(op.k), op.theta


def continuum_edge(op):
    """Bottom of the essential spectrum in the operator's own parameter."""
    if op.family in (HALF_LINE, LARGE_K):
        return 0.25
    if op.family == RESCALED:
        return 1.0 / op.geometry.lam ** 2
    return 0.0


def potential_V(geometry, r):
    """Half-line linearization potential; <= 0 with exp(-2r) tail.

    Sphere: k^2 (cos 2Q - 1)/sinh^2 r = -8 k^2 x^2/((1+x^2)^2 sinh^2 r) with
    x = (lambda tanh(r/2))^k. Yang-Mills: 6 Q(Q-2)/sinh^2 r = -24 y/((1+y)^2
    sinh^2 r), y = (lambda tanh(r/2))^2. Both assembled without cancellation.
    """
    r = np.asarray(r, dtype=float)
    sh = np.sinh(r)
    om2 = 1.0 / (sh * sh)
    t = geometry.lam * np.tanh(0.5 * r)
    if geometry.kind == SPHERE:
        x2 = t ** (2 * geometry.k)
        k2 = float(geometry.k) ** 2
        return -8.0 * k2 * om2 * x2 / (1.0 + x2) ** 2
    y = t * t
    return -24.0 * y * om2 / (1.0 + y) ** 2


def effective_potential(op, x):
    """Potential block U with phi'' = (U - mu2) phi (half-line families) or
    the large-k block 1/4 - omega^-2/(4k^2) + omega^-2 C(rho) in its rho
    variable, evaluated by the integrator's own kernel (for large-k at
    s = -log log(Theta/rho)).
    """
    arr = np.asarray(x, dtype=float)
    lo, hi = op.domain
    if np.any(arr <= lo) or np.any(arr >= hi):
        raise DomainError(f"coordinate outside open domain ({lo}, {hi})")
    code, kk, p = op_code(op)
    if op.family == LARGE_K:
        # the kernel holds the large-k block in s = -log log(Theta/rho)
        arr = -np.log(np.log(op.theta / arr))
    if np.ndim(x) == 0:
        return _kernels.pot(code, kk, p, float(arr))
    flat = np.ascontiguousarray(arr.ravel())
    out = np.empty_like(flat)
    _kernels.pot_array(code, kk, p, flat, out)
    return out.reshape(arr.shape)


PHYSICAL_R = "physical_r"
RESCALED_RHO = "rescaled_rho"


def zero_mode(geometry, coordinate, x, derivatives=False):
    """Explicit zero-energy mode of the half-line (or rescaled) operator.

    The scaling direction of the harmonic-map family, conjugated to the
    half-line: annihilated exactly, and sitting at the bottom of the gap.
    Sphere: zeta(r) = 2 k lam^(k-1) tanh^k(r/2) sqrt(sinh r)/(1 + x^2);
    Yang-Mills: eta(r) = 4 lam tanh^2(r/2) sqrt(sinh r)/(1 + y)^2. In the
    rescaled coordinate the same profile is evaluated at r = 2 rho/lambda.
    With derivatives=True returns (value, d/dx, d2/dx2) via the logarithmic
    derivative k g'(Q)/sinh r + coth(r)/2, which both families share.
    """
    if coordinate not in (PHYSICAL_R, RESCALED_RHO):
        raise DomainError(f"unknown coordinate {coordinate!r}")
    lam = geometry.lam
    if lam <= 0.0:
        raise DomainError("zero modes need lambda > 0")
    x = np.asarray(x, dtype=float)
    scale = 1.0 if coordinate == PHYSICAL_R else 2.0 / lam
    r = x * scale
    k = geometry.k
    T = np.tanh(0.5 * r)
    rt = np.sqrt(np.sinh(r))
    if geometry.kind == SPHERE:
        xk2 = (lam * T) ** (2 * k)
        val = 2.0 * k * lam ** (k - 1) * T ** k * rt / (1.0 + xk2)
    else:
        y = (lam * T) ** 2
        val = 4.0 * lam * T * T * rt / (1.0 + y) ** 2
    if not derivatives:
        return val
    q = eval_Q(geometry, r)
    sh = np.sinh(r)
    ch = np.cosh(r)
    l1 = k * metric_g_prime(geometry, q) / sh + 0.5 * ch / sh
    l2 = (k * k * metric_g_double_prime(geometry, q) * metric_g(geometry, q)
          - k * metric_g_prime(geometry, q) * ch - 0.5) / (sh * sh)
    d1 = val * l1 * scale
    d2 = val * (l2 + l1 * l1) * scale * scale
    return val, d1, d2


def apply_operator(op, phi, x, phi_prime=None, phi_second=None, fd_step=None):
    """Apply the operator to a profile at scalar x.

    phi may be a callable (with optional callable derivatives; otherwise
    5-point finite differences with step fd_step are used) or a number
    accompanied by numeric phi_prime/phi_second. Half-line families return
    -phi'' + U phi; large_k returns -(D^2 phi) + P phi with D = omega^-1 rho
    d/drho expanded as -A^2 phi'' - A A' phi' + P phi, A = omega^-1 rho.
    """
    x = float(x)
    lo, hi = op.domain
    if not lo < x < hi:
        raise DomainError(f"x={x} outside open domain ({lo}, {hi})")
    if callable(phi):
        if phi_prime is not None:
            v, d1, d2 = phi(x), phi_prime(x), phi_second(x)
        else:
            h = fd_step if fd_step is not None else 1e-3 * max(1.0, abs(x))
            h = min(h, 0.25 * (x - lo))
            if math.isfinite(hi):
                h = min(h, 0.25 * (hi - x))
            pm2, pm1, p0, pp1, pp2 = (phi(x - 2 * h), phi(x - h), phi(x),
                                      phi(x + h), phi(x + 2 * h))
            v = p0
            d1 = (pm2 - 8.0 * pm1 + 8.0 * pp1 - pp2) / (12.0 * h)
            d2 = (-pm2 + 16.0 * pm1 - 30.0 * p0 + 16.0 * pp1 - pp2) / (12.0 * h * h)
    else:
        if phi_prime is None or phi_second is None:
            raise DomainError("numeric phi needs numeric phi_prime and phi_second")
        v, d1, d2 = float(phi), float(phi_prime), float(phi_second)
    u = effective_potential(op, x)
    if op.family != LARGE_K:
        return -d2 + u * v
    L = math.log(op.theta / x)
    if op.k == math.inf:
        a = x * L
        ap = L - 1.0
    else:
        a = op.k * x * math.sinh(L / op.k)
        ap = op.k * math.sinh(L / op.k) - math.cosh(L / op.k)
    return -a * a * d2 - a * ap * d1 + u * v


def omega_weight(k, theta, rho):
    """Weight omega_{k,Theta}(rho) = 1/(k sinh(L/k)), L = log(Theta/rho);
    1/L at k = inf. Monotone increasing toward its k = inf envelope."""
    if not 0.0 < theta < math.inf:
        raise DomainError(f"Theta must be finite and > 0, got {theta}")
    if not (k == math.inf or k >= 1):
        raise DomainError(f"index must be >= 1 or inf, got {k}")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0) or np.any(rho >= theta):
        raise DomainError("rho outside open interval (0, Theta)")
    L = np.log(theta / rho)
    if k == math.inf:
        out = 1.0 / L
    else:
        out = 1.0 / (k * np.sinh(L / k))
    return float(out) if np.ndim(rho) == 0 else out


@dataclass(frozen=True)
class CoordinateMap:
    """Invertible coordinate change; forward/inverse are ufunc-friendly."""

    kind: str
    forward: object
    inverse: object


def coordinate_maps(kind, k=None, theta=None, lam=None):
    """Maps between the coordinates the families live in.

    kind "largek_rho": r -> rho = Theta tanh^k(r/2) and back;
    kind "loglog_s":   rho -> s = -log log(Theta/rho) and back;
    kind "rescaled_rho": r -> rho = lambda r/2 and back.
    Round trips hold to 1e-12 across each map's working range.
    """
    if kind == "largek_rho":
        if (theta is None or k is None or not 0.0 < theta < math.inf
                or not 1 <= k < math.inf):
            raise DomainError(
                "largek_rho map needs finite k >= 1 and finite Theta > 0")

        def fwd(r):
            return theta * np.tanh(0.5 * np.asarray(r, float)) ** k

        def inv(rho):
            rho = np.asarray(rho, dtype=float)
            # 2 atanh(z), z = (rho/Theta)^(1/k), through expm1 for z near 1
            u = np.log(rho / theta) / k
            return np.log1p(np.exp(u)) - np.log(-np.expm1(u))

        return CoordinateMap(kind, fwd, inv)
    if kind == "loglog_s":
        if theta is None or not 0.0 < theta < math.inf:
            raise DomainError("loglog_s map needs finite Theta > 0")

        def fwd(rho):
            return -np.log(np.log(theta / np.asarray(rho, float)))

        def inv(s):
            return theta * np.exp(-np.exp(-np.asarray(s, float)))

        return CoordinateMap(kind, fwd, inv)
    if kind == "rescaled_rho":
        if lam is None or not lam > 0.0:
            raise DomainError("rescaled_rho map needs lambda > 0")

        def fwd(r):
            return 0.5 * lam * np.asarray(r, float)

        def inv(rho):
            return 2.0 * np.asarray(rho, float) / lam

        return CoordinateMap(kind, fwd, inv)
    raise DomainError(f"unknown coordinate map {kind!r}")


def convexity_margin(geometry, r):
    """k cosh(r) g'(Q(r)) - 1/4; positivity witnesses spectral clearing."""
    r = np.asarray(r, dtype=float)
    q = eval_Q(geometry, r)
    return geometry.k * np.cosh(r) * metric_g_prime(geometry, q) - 0.25


def conjugation_transform(direction, k, r, samples):
    """Pointwise conjugation between map-side u and half-line w = sinh^(k+1/2) u.

    from_half_line leaves 0 at r = 0 where the weight vanishes (profiles in
    the operator domain vanish there faster than the weight).
    """
    r = np.asarray(r, dtype=float)
    samples = np.asarray(samples, dtype=float)
    wgt = np.sinh(r) ** (k + 0.5)
    if direction == TO_HALF_LINE:
        return samples * wgt
    if direction == FROM_HALF_LINE:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(wgt > 0.0, samples / np.where(wgt > 0.0, wgt, 1.0), 0.0)
        return out
    raise DomainError(f"unknown direction {direction!r}")
