"""Hot numerical loops: the shooting kernels, jitted when numba is
importable, and the wave stepper, vectorized in numpy.

Without numba every jitted kernel runs as plain Python. The choice is made
once at import; the jitted kernels are either all compiled or all plain, so
compiled kernels only ever call compiled kernels, and the numpy routines
(the step and error matrices of a fixed mesh, the remainder, the
acceleration and the wave stepper) are never compiled. The Dormand-Prince
tableau below is the one source for rk_shoot's adaptive steps and for the
matrices that mesh_walk applies on a given mesh.
The wave stepper is velocity Verlet with one kick per step: it carries the
half-step momentum dt*v through a chunk, builds the stencil coefficients
and its buffers once per chunk, and returns w, v and the acceleration at
the chunk's final time.

Operator families are encoded for dispatch inside compiled code as an integer
`code` plus two float parameters (kk, p):

    0  half-line sphere        kk = k,  p = lambda
    1  half-line Yang-Mills    kk = 2,  p = lambda
    2  rescaled sphere (rho)   kk = k,  p = lambda
    3  rescaled Yang-Mills     kk = 2,  p = lambda
    4  Euclidean limit (rho)   kk = k
    6  large-k, k = inf (s)    p = Theta

Codes 2-3 are codes 0-1 at r = 2 rho/lambda. Every code has a
closed-form zero mode zeta > 0 with log-derivative W (logder), and every
shot integrates f = phi/zeta of phi'' = (U - mu2) phi, U = W^2 + W':
f'' = -2W f' - mu2 f, in the family's own coordinate, for code 6 in
s = -log log(Theta/rho), where d/ds is omega^-1 rho d/drho. No kernel
evaluates U (operators.effective_potential does). phi = zeta f is formed
only where a caller reports phi, through the closed-form log zeta
(logzeta). The finite-k normal form has no code: it is the exact pullback
of the half-line sphere (code 0) at lambda = Theta^(1/k), and is shot
there.

Past a shift radius x_s a forward shot may integrate f_s = f exp(sig x)
instead, with sig the far-field exponent of f's growing solution
exp(-sig x), which f_s turns into a constant (an affine function at the
edge), so the steps grow all the way out (rk_shoot). Its error test holds
f_s' to rtol max(|f_s'|, |sig f_s|), since f' is about -sig f there.
Every state that goes in or comes out, stored samples included, is in f.
"""

import math

import numpy as np

try:
    from numba import njit as _njit
    USE_NUMBA = True
except ImportError:
    USE_NUMBA = False

if USE_NUMBA:
    def _jit(fn):
        return _njit(cache=True, error_model="numpy")(fn)
else:
    def _jit(fn):
        return fn

# family codes
HALF_SPHERE = 0
HALF_YM = 1
RESC_SPHERE = 2
RESC_YM = 3
EUCLIDEAN = 4
LARGEK_INF = 6

# integrator status
OK = 0
UNDERFLOW = 1
MAXSTEPS = 2

# Dormand-Prince 5(4) tableau, FSAL form
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_A71, _A73, _A74, _A75, _A76 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                                -2187.0 / 6784.0, 11.0 / 84.0)
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_E1, _E3, _E4 = 71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0
_E5, _E6, _E7 = -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0


@_jit
def logder(code, kk, p, x):
    """Log-derivative W = zeta'/zeta of the zero mode.

    W = kk (1 - t)/((1 + t) sinh r) + coth(r)/2 with t = (lambda T)^(2k)
    for the sphere and (lambda T)^2 for Yang-Mills, T = tanh(r/2), written
    through T alone (sinh r = 2T/(1 - T^2), coth r = (1 + T^2)/(2T)) so
    nothing overflows at large r, and (1 - t)/(1 + t) as 2/(1 + t) - 1 so
    an overflowing t gives -1. The euclidean zeta = rho^(k+1/2)/(1 + t),
    t = rho^(2k), has W = (k (1 - t)/(1 + t) + 1/2)/rho. For k = inf,
    zeta = rho (1 + rho^2)^-1 L^(-1/2) in s, and
    W = L (1 - rho^2)/(1 + rho^2) + 1/2. W^2 + W' = U.
    """
    if code < 2:
        T = math.tanh(0.5 * x)
        y = p * T
        if code == 0:
            # plain Python raises OverflowError where numba's numpy error
            # model returns inf; the power saturates to inf either way
            # (numba compiles no narrower clause than `except Exception`)
            try:
                y = y ** kk
            except Exception:
                y = math.inf
        t = y * y
        return (kk * (2.0 / (1.0 + t) - 1.0) * (1.0 - T * T)
                + 0.5 * (1.0 + T * T)) / (2.0 * T)
    if code == 4:
        t = x ** (2.0 * kk)
        return (kk * (2.0 / (1.0 + t) - 1.0) + 0.5) / x
    if code == 6:
        L = math.exp(-x)
        rho = p * math.exp(-L)
        return L * (2.0 / (1.0 + rho * rho) - 1.0) + 0.5
    return 2.0 / p * logder(code - 2, kk, p, 2.0 * x / p)


def logzeta(code, kk, p, x):
    """log zeta of the zero mode whose log-derivative is logder, codes 0-3
    and 6, normalized to leading coefficient 1: zeta ~ x^(kk + 1/2).
    Vectorized in x with numpy; no kernel calls it.

    Sphere: zeta = (2T)^k sqrt(sinh r)/(1 + (lambda T)^(2k)); Yang-Mills:
    4 T^2 sqrt(sinh r)/(1 + (lambda T)^2)^2, T = tanh(r/2), with log sinh r
    taken as r - log 2 + log(-expm1(-2r)) so nothing overflows; codes 2-3
    the same at r = 2 rho/lambda over (2/lambda)^(kk + 1/2). k = inf has
    no such end: zeta = (rho/Theta) (1 + rho^2)^-1 L^(-1/2), log zeta =
    s/2 - L - log(1 + rho^2).
    """
    x = np.asarray(x, dtype=float)
    if code < 2:
        T = np.tanh(0.5 * x)
        e, n = (2.0 * kk, 1.0) if code == 0 else (2.0, 2.0)
        with np.errstate(divide="ignore"):     # lambda = 0: log(1 + 0)
            tail = n * np.logaddexp(0.0, e * np.log(p * T))
        return (kk * np.log(2.0 * T) - tail + 0.5 * (
            x - math.log(2.0) + np.log(-np.expm1(-2.0 * x))))
    if code == 6:
        L = np.exp(-x)
        rho = p * np.exp(-L)
        return 0.5 * x - L - np.log1p(rho * rho)
    return (logzeta(code - 2, kk, p, 2.0 * x / p)
            + (kk + 0.5) * math.log(0.5 * p))


@_jit
def rk_shoot(code, kk, p, mu2, x0, f0, g0, lg0, x1,
             rtol, atol, max_steps, max_step, store, x_s, sig):
    """Adaptive RK5(4) for f = phi/zeta, with a running log scale.

    Integrates f' = g, g' = -mu2 f - 2W g (W from logder) from x0 to x1
    (either direction); the zeros of f are those of phi. Each component's error is held to atol + rtol times its own
    magnitude. Rescales the state to magnitude 1 whenever it leaves
    [1e-100, 1e100], adding the log factor to the running scale lg, so
    true values are exp(lg) * stored. Zeros of f are counted at every sign
    change. Accepted steps are stored only when `store` is set; otherwise
    the sample arrays have length 1.

    A forward shot (x0 < x1) with sig != 0 that reaches past the shift
    radius x_s integrates f_s = f exp(sig x) from max(x0, x_s) on:
    f_s'' + 2(W - sig) f_s' + (mu2 + sig^2 - 2 sig W) f_s = 0. Past x_s
    the far-field exponent sig makes the growing solution constant (or
    affine at the edge), so the steps grow to the end. A step lands
    exactly on x_s, where the state turns into f_s (g += sig f,
    lg += sig x) with the step size kept. f_s' is held to rtol times the
    largest of |f_s'| and |sig f_s|: there f' is about -sig f, so this
    asks of f_s' what the relative test asks of f'. States going in and
    out, stored samples included, are in f (g - sig f_s, lg - sig x);
    zero counts are those of f, since exp(sig x) > 0. With sig = 0, or
    x_s = inf, the shot is that of f throughout.

    Returns (status, nstored, xs, fs, gs, lgs, nzeros,
             x_end, f_end, g_end, lg_end).
    """
    ssize = max_steps + 2 if store else 1
    xs = np.empty(ssize)
    fs = np.empty(ssize)
    gs = np.empty(ssize)
    lgs = np.empty(ssize)

    x, f, g, lg = x0, f0, g0, lg0
    span = abs(x1 - x0)
    direc = 1.0 if x1 >= x0 else -1.0
    tol = 1e-14 * max(span, 1.0)

    nst = 0
    if store:
        xs[0] = x
        fs[0] = f
        gs[0] = g
        lgs[0] = lg
        nst = 1
    nzero = 0
    sgn = 1.0 if f > 0.0 else (-1.0 if f < 0.0 else 0.0)

    # the shift s in force (0 before x_s) and the radius xw still ahead
    s = 0.0
    xw = math.inf
    if sig != 0.0 and x0 < x1 and x_s < x1:
        if x_s <= x0:
            s = sig
            g += s * f
            lg += s * x
        else:
            xw = x_s
    # g' = -(mu2 - s^2) f - 2 (W - s)(g - s f) is the f_s equation
    # regrouped; at s = 0 it is f's slope, rounding and all
    c = mu2 - s * s

    # first step: small relative to both the span and the start abscissa,
    # since near a regular singular point the solution varies on scale |x|
    h = min(0.01, 0.01 * span)
    if abs(x) > 0.0:
        h = min(h, 0.1 * abs(x))
    if max_step > 0.0:
        h = min(h, max_step)
    h *= direc

    # each stage's first slope is its state's g
    k1f = g
    k1g = -c * f - 2.0 * (logder(code, kk, p, x) - s) * (g - s * f)

    status = OK
    steps = 0
    rejects = 0
    while (x1 - x) * direc > tol:
        if steps >= max_steps:
            status = MAXSTEPS
            break
        if abs(h) < 1e-14 * max(abs(x), 1.0):
            status = UNDERFLOW
            break
        if (x + h - x1) * direc > 0.0:
            h = x1 - x
        land = x + h > xw - tol
        if land:
            h = xw - x

        yf = f + h * _A21 * k1f
        yg = g + h * _A21 * k1g
        k2f = yg
        k2g = (-c * yf - 2.0 * (logder(code, kk, p, x + _C2 * h) - s)
               * (yg - s * yf))

        yf = f + h * (_A31 * k1f + _A32 * k2f)
        yg = g + h * (_A31 * k1g + _A32 * k2g)
        k3f = yg
        k3g = (-c * yf - 2.0 * (logder(code, kk, p, x + _C3 * h) - s)
               * (yg - s * yf))

        yf = f + h * (_A41 * k1f + _A42 * k2f + _A43 * k3f)
        yg = g + h * (_A41 * k1g + _A42 * k2g + _A43 * k3g)
        k4f = yg
        k4g = (-c * yf - 2.0 * (logder(code, kk, p, x + _C4 * h) - s)
               * (yg - s * yf))

        yf = f + h * (_A51 * k1f + _A52 * k2f + _A53 * k3f + _A54 * k4f)
        yg = g + h * (_A51 * k1g + _A52 * k2g + _A53 * k3g + _A54 * k4g)
        k5f = yg
        k5g = (-c * yf - 2.0 * (logder(code, kk, p, x + _C5 * h) - s)
               * (yg - s * yf))

        # stage 6 and the FSAL stage 7 share the abscissa x + h, and so W
        xa = x + h
        w2 = -2.0 * (logder(code, kk, p, xa) - s)
        yf = f + h * (_A61 * k1f + _A62 * k2f + _A63 * k3f + _A64 * k4f
                      + _A65 * k5f)
        yg = g + h * (_A61 * k1g + _A62 * k2g + _A63 * k3g + _A64 * k4g
                      + _A65 * k5g)
        k6f = yg
        k6g = -c * yf + w2 * (yg - s * yf)

        y1f = f + h * (_A71 * k1f + _A73 * k3f + _A74 * k4f + _A75 * k5f
                       + _A76 * k6f)
        y1g = g + h * (_A71 * k1g + _A73 * k3g + _A74 * k4g + _A75 * k5g
                       + _A76 * k6g)
        k7f = y1g
        k7g = -c * y1f + w2 * (y1g - s * y1f)

        ef = h * (_E1 * k1f + _E3 * k3f + _E4 * k4f + _E5 * k5f + _E6 * k6f
                  + _E7 * k7f)
        eg = h * (_E1 * k1g + _E3 * k3g + _E4 * k4g + _E5 * k5g + _E6 * k6g
                  + _E7 * k7g)
        mf = max(abs(f), abs(y1f))
        sf = atol + rtol * mf
        sg = atol + rtol * max(abs(g), abs(y1g), abs(s) * mf)
        err = math.sqrt(0.5 * ((ef / sf) ** 2 + (eg / sg) ** 2))

        if err <= 1.0:
            # zero bookkeeping before any rescale (scale cancels in signs)
            news = 1.0 if y1f > 0.0 else (-1.0 if y1f < 0.0 else 0.0)
            if news != 0.0 and sgn != 0.0 and news != sgn:
                nzero += 1
            if news != 0.0:
                sgn = news

            x = xa
            if (x1 - x) * direc <= 0.0:
                x = x1
            if land:
                x = xw
            f = y1f
            g = y1g
            k1f = k7f
            k1g = k7g

            mag = max(abs(f), abs(g))
            if mag > 1e100 or (0.0 < mag < 1e-100):
                inv = 1.0 / mag
                f *= inv
                g *= inv
                k1f *= inv
                k1g *= inv
                lg += math.log(mag)

            if store:
                xs[nst] = x
                fs[nst] = f
                gs[nst] = g - s * f
                lgs[nst] = lg - s * x
                nst += 1
            if land:
                # into f_s at x_s; the next step keeps this one's size
                s = sig
                xw = math.inf
                g += s * f
                lg += s * x
                c = mu2 - s * s
                k1f = g
                k1g = -c * f - 2.0 * (logder(code, kk, p, x) - s) * (g - s * f)
            rejects = 0
            fac = 5.0
            if err > 0.0:
                fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            rejects += 1
            if rejects > 60:
                status = UNDERFLOW
                break
            fac = max(0.2, min(1.0, 0.9 * err ** -0.2))
        h *= fac
        if max_step > 0.0 and abs(h) > max_step:
            h = max_step * direc
        steps += 1

    return (status, nst, xs, fs, gs, lgs, nzero, x, f, g - s * f, lg - s * x)


# a step's six distinct stage abscissae are x + c h: stages 6 and 7 share x + h
STAGE_C = (0.0, _C2, _C3, _C4, _C5, 1.0)


@_jit
def logder_array(code, kk, p, xs, out):
    for i in range(xs.shape[0]):
        out[i] = logder(code, kk, p, xs[i])


# steps per block of step_matrices: a block's stage temporaries stay near
# 200 kB, and numpy's per-call cost stays small beside the work
_BLOCK = 512


def step_matrices(mu2, h, w):
    """rk_shoot's step as matrices, for many steps at once, in numpy.

    f' = g, g' = -mu2 f - 2W g is linear, so a Dormand-Prince step of
    length h maps (f, g) to M (f, g), and its embedded error estimate is
    E (f, g). h (n,) holds signed steps and w (6, n) W at each step's
    stage abscissae x + c h, c in STAGE_C. Returns (M, E), each a
    (2, 2, n) stack of 2x2 matrices, built _BLOCK steps at a time so that
    the stages' temporaries stay small.
    """
    n = h.shape[0]
    m = np.empty((2, 2, n))
    e = np.empty((2, 2, n))
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        _step_block(mu2, h[a:b], -2.0 * w[:, a:b], m[:, :, a:b],
                    e[:, :, a:b])
    return m, e


def _step_block(mu2, h, v, m, e):
    """step_matrices on one block, v = -2W, into the views m and e."""
    def slope(j, y):
        # A y for A = [[0, 1], [-mu2, -2W]] at stage abscissa j
        k = np.empty_like(y)
        k[0] = y[1]
        np.multiply(v[j], y[1], out=k[1])
        k[1] -= mu2 * y[0]
        return k

    def combine(coefs, ks, out):
        # h sum(c K), in place
        np.multiply(ks[0], coefs[0], out=out)
        for c, k in zip(coefs[1:], ks[1:]):
            out += c * k
        out *= h
        return out

    def stage(coefs, ks, out=None):
        # I + h sum(c K): the stage's state as a matrix of the step's start
        y = combine(coefs, ks, np.empty_like(ks[0]) if out is None else out)
        y[0, 0] += 1.0
        y[1, 1] += 1.0
        return y

    eye = np.zeros((2, 2, h.shape[0]))
    eye[0, 0] = eye[1, 1] = 1.0
    k1 = slope(0, eye)
    k2 = slope(1, stage((_A21,), (k1,)))
    k3 = slope(2, stage((_A31, _A32), (k1, k2)))
    k4 = slope(3, stage((_A41, _A42, _A43), (k1, k2, k3)))
    k5 = slope(4, stage((_A51, _A52, _A53, _A54), (k1, k2, k3, k4)))
    k6 = slope(5, stage((_A61, _A62, _A63, _A64, _A65),
                        (k1, k2, k3, k4, k5)))
    stage((_A71, _A73, _A74, _A75, _A76), (k1, k3, k4, k5, k6), m)
    combine((_E1, _E3, _E4, _E5, _E6, _E7),
            (k1, k3, k4, k5, k6, slope(5, m)), e)


def step_errors(m, e, fs, gs, rtol, atol):
    """rk_shoot's embedded error norm of each step of step_matrices, from
    the states (fs, gs) that enter the steps; a step passes rk_shoot's
    acceptance test where it is <= 1."""
    y1f = m[0, 0] * fs + m[0, 1] * gs
    y1g = m[1, 0] * fs + m[1, 1] * gs
    ef = e[0, 0] * fs + e[0, 1] * gs
    eg = e[1, 0] * fs + e[1, 1] * gs
    sf = atol + rtol * np.maximum(np.abs(fs), np.abs(y1f))
    sg = atol + rtol * np.maximum(np.abs(gs), np.abs(y1g))
    return np.sqrt(0.5 * ((ef / sf) ** 2 + (eg / sg) ** 2))


@_jit
def mesh_walk(m00, m01, m10, m11, f, g, lg, fs, gs):
    """Apply the step matrices [[m00, m01], [m10, m11]][i] to (f, g) in
    sequence, with rk_shoot's running log scale lg and its rescale rule.

    fs[i], gs[i] receive the stored state entering step i. Returns the
    end state (f, g, lg); true values are exp(lg) * stored.
    """
    for i in range(m00.shape[0]):
        fs[i] = f
        gs[i] = g
        f, g = m00[i] * f + m01[i] * g, m10[i] * f + m11[i] * g
        mag = max(abs(f), abs(g))
        if mag > 1e100 or (0.0 < mag < 1e-100):
            c = 1.0 / mag
            f *= c
            g *= c
            lg += math.log(mag)
    return f, g, lg


def remainder(d, geom, sin2q, cos2q, qm1):
    """Remainder of g g'(Q + d) beyond its linearization at Q, vectorized.

    Sphere (geom 0): -sin(2Q) sin^2(d) + cos(2Q)(sin(2d)/2 - d), the odd part
    guarded by its series for |d| < 1e-4; Yang-Mills (geom 1): the cubic
    (3/2)(Q - 1) d^2 + d^3/2. Takes sin(2Q), cos(2Q) and Q - 1 precomputed.
    """
    if geom == 0:
        sd = np.sin(d)
        odd = np.where(np.abs(d) < 1e-4,
                       d * d * d * (-2.0 / 3.0 + 0.4 * d * d / 3.0),
                       0.5 * np.sin(2.0 * d) - d)
        return -sin2q * sd * sd + cos2q * odd
    return 0.5 * d * d * d + 1.5 * qm1 * d * d


def acceleration(w, scale, inv_h2, ueff, nonlin, geom, kk, inv_ss, inv_s32,
                 sin2q, cos2q, qm1):
    """Return fill(out), which writes scale (w_rr - ueff*w (+ remainder
    source)) on the interior nodes into out, from the current values of w.

    The one place the stencil is written. The second difference is taken
    from first differences and scaled by c = scale/h^2, the potential by
    scale*ueff, separately: folding 2c + scale*ueff into one diagonal would
    round the potential to the spacing of 2/h^2. Views and scratch
    buffers are made here once, so the linear fill allocates nothing. The
    nonlinear source is the remainder of delta = w * inv_ss (= sinh^k u)
    times -scale k^2 inv_s32.
    """
    c = scale * inv_h2
    e = scale * ueff[1:-1]
    hi, lo, mid = w[1:], w[:-1], w[1:-1]
    diff = np.empty(w.shape[0] - 1)
    dhi, dlo = diff[1:], diff[:-1]
    if nonlin:
        fac = scale * kk * kk * inv_s32[1:-1]
        inv_ss, sin2q, cos2q, qm1 = (x[1:-1] for x in
                                     (inv_ss, sin2q, cos2q, qm1))

    def fill(out):
        np.subtract(hi, lo, out=diff)
        np.subtract(dhi, dlo, out=out)
        out *= c
        out -= np.multiply(e, mid, out=dlo)     # diff is spent: reuse it
        if nonlin:
            out -= fac * remainder(mid * inv_ss, geom, sin2q, cos2q, qm1)

    return fill


def step_chunk(w, v, a, ueff, inv_h2, dt, nsteps, probe_idx, probe_out,
               out_off, nonlin, geom, kk, inv_ss, inv_s32, sin2q, cos2q, qm1):
    """Velocity-Verlet chunk for w_tt = w_rr - ueff*w (+ source), Dirichlet,
    in its one-kick (leapfrog) form.

    Mutates w, v, a in place; on entry and exit they hold the field, its
    velocity and its acceleration at the same (integer) time, so `a` must
    hold the acceleration of the incoming w. Inside the chunk the momentum
    is carried as p = dt v at half steps: p = dt v + dt^2 a / 2 on entry,
    then each step is w += p, A = dt^2 a(w), p += A (skipped on the last
    step), and on exit a = A/dt^2, v = (p + A/2)/dt. This is the scheme
    of two half-kicks per step up to rounding. Records w[probe_idx] into
    probe_out[out_off + step] after each full step. Only interior nodes
    are written, so the Dirichlet ends keep the zeros they are set up with.
    The nonlinear source uses delta = w * inv_ss.
    """
    if nsteps < 1:
        return
    dt2 = dt * dt
    fill = acceleration(w, dt2, inv_h2, ueff, nonlin, geom, kk, inv_ss,
                        inv_s32, sin2q, cos2q, qm1)
    mid = w[1:-1]
    p = dt * v[1:-1] + (0.5 * dt2) * a[1:-1]
    kick = np.empty_like(p)
    last = nsteps - 1
    for step in range(nsteps):
        mid += p
        fill(kick)
        if step < last:
            p += kick
        probe_out[out_off + step] = w[probe_idx]
    np.divide(kick, dt2, out=a[1:-1])
    kick *= 0.5
    p += kick
    np.divide(p, dt, out=v[1:-1])
