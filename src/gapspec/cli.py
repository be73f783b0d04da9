"""Command-line front end.

Every subcommand prints a JSON document to stdout or writes it to --output;
an output path ending in .csv switches the tabular part to RFC-4180 CSV
with the run configuration in a `<output>.meta.json` sidecar. Exit codes:
0 on success, 2 for unusable arguments, 3 when a computation signals a
library error (the error class name is printed to stderr).
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .errors import DomainError, GapspecError
from .harmonic_maps import (SPHERE, YANG_MILLS, amplitude_bound,
                            endpoint, energy_closed_form, energy_quadrature,
                            geometry)
from .ode_engine import renormalized_f
from .operators import half_line
from .spectral import (_bisect, _pool_map, find_gap_eigenvalues,
                       largek_gap_scan, migration_curve, sweep_lambda)
from .wave_sim import (GapEigenmode, GaussianBump, init_state, probe_spectrum,
                       run)


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


class _ConfigError(Exception):
    """Unusable argument combination caught after parsing."""


def _default_jobs():
    env = os.environ.get("GAPSPEC_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _lambda_list(text):
    """Scalar '0.5', list '5,10,20' or grid 'a:b:n' (n inclusive points)."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            a, b, n = float(a), float(b), int(n)
            if n < 2 or not b > a:
                raise ValueError
            return [a + (b - a) * i / (n - 1) for i in range(n)]
        if "," in text:
            return [float(v) for v in text.split(",")]
        return [float(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, 'a,b,...' or 'a:b:n', got {text!r}")


def _jobs(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected >= 1, got {text!r}")
    return int(text)


def _k_list(text):
    try:
        out = [math.inf if tok.strip() in ("inf", "Inf") else int(tok)
               for tok in text.split(",")]
        if min(out) < 1:
            raise ValueError
        return out
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers >= 1 or 'inf', got {text!r}")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return x


def _dump_json(obj):
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


def _payload(args, results):
    doc = {"config": {k: v for k, v in vars(args).items()
                      if k not in ("func", "output") and v is not None},
           "results": results}
    if not args.no_timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return doc


def _emit(args, results, csv_header=None, csv_rows=None):
    doc = _payload(args, results)
    out = args.output
    if out and out.endswith(".csv") and csv_rows is not None:
        with open(out, "w", newline="") as fh:
            wtr = csv.writer(fh, lineterminator="\r\n")
            wtr.writerow(csv_header)
            wtr.writerows(_jsonable(row) for row in csv_rows)
        meta = {k: v for k, v in doc.items() if k != "results"}
        meta["columns"] = list(csv_header)
        with open(out + ".meta.json", "w") as fh:
            fh.write(_dump_json(meta) + "\n")
    elif out and out != "-":
        with open(out, "w") as fh:
            fh.write(_dump_json(doc) + "\n")
    else:
        print(_dump_json(doc))
    return 0


def _index(args):
    """--k, else the family's own index (1 sphere, 2 ym); a kind/k pair the
    family rejects is a configuration error, caught before any lambda."""
    k = (2 if args.geometry == YANG_MILLS else 1) if args.k is None else args.k
    try:
        geometry(args.geometry, k, 0.0)
    except DomainError as err:
        raise _ConfigError(str(err))
    return k


def _one_lambda(args):
    if len(args.lam) != 1:
        raise _ConfigError(f"{args.command} takes one lambda, got {args.lam}")
    return args.lam[0]


def _family_jobs(args):
    """(k, jobs) for the pooled lambda-family commands."""
    return _index(args), args.jobs or _default_jobs()


def _cmd_hm(args):
    k = _index(args)
    rows = []
    for lam in args.lam:
        g = geometry(args.geometry, k, lam)
        closed = energy_closed_form(g)
        quad = energy_quadrature(g, r_max=args.r_max)
        rows.append({
            "kind": g.kind, "k": g.k, "lam": g.lam,
            "endpoint": endpoint(g),
            "energy_closed_form": closed,
            "energy_quadrature": quad.total,
            "energy_gradient": quad.gradient,
            "energy_potential": quad.potential,
            "abs_difference": abs(quad.total - closed),
            "amplitude_bound": amplitude_bound(g, closed),
        })
    return _emit(args, rows,
                 csv_header=list(rows[0]) if rows else [],
                 csv_rows=[list(r.values()) for r in rows])


def _spectrum_job(params):
    kind, k, lam, scans = params
    rep = find_gap_eigenvalues(half_line(geometry(kind, k, lam)), scans=scans)
    doc = dataclasses.asdict(rep)
    doc["negative_scan_clear"] = rep.negative_scan_clear
    doc["embedded_scan_clear"] = rep.embedded_scan_clear
    return doc


def _cmd_spectrum(args):
    k, jobs = _family_jobs(args)
    reps = _pool_map(_spectrum_job,
                     [(args.geometry, k, lam, not args.no_scans)
                      for lam in args.lam], jobs)
    return _emit(args, reps)


def _cmd_sweep(args):
    k, jobs = _family_jobs(args)
    rep = sweep_lambda(args.geometry, k, args.lam, jobs=jobs,
                       bisect_to=args.bisect_to)
    doc = dataclasses.asdict(rep)
    header = ["lam", "count", "resonance_a", "resonance_b", "fit_residual"]
    rows = [[p.lam, p.count, p.resonance_a, p.resonance_b, p.fit_residual]
            for p in rep.points]
    return _emit(args, doc, csv_header=header, csv_rows=rows)


def _cmd_migrate(args):
    k, jobs = _family_jobs(args)
    rep = migration_curve(args.geometry, k, args.lam, jobs=jobs)
    doc = dataclasses.asdict(rep)
    header = ["lambda", "mu2", "wronskian_residual"]
    rows = [[p.lam, p.mu2, p.wronskian_residual] for p in rep.points]
    return _emit(args, doc, csv_header=header, csv_rows=rows)


def _cmd_largek(args):
    jobs = args.jobs or _default_jobs()
    rep = largek_gap_scan(args.ks, args.theta, jobs=jobs)
    return _emit(args, dataclasses.asdict(rep))


def _cmd_renorm(args):
    lam = _one_lambda(args)
    g = geometry(args.geometry, _index(args), lam)
    rho_max = args.rho_max if args.rho_max is not None else lam
    sol = renormalized_f(g, args.mu2, rho_max)
    rho, f = sol.grid, sol.f
    imin = int(np.argmin(f))
    neg = np.nonzero(f < 0.0)[0]
    first_neg = None
    if neg.size:
        i = int(neg[0])
        first_neg = float(rho[0])
        if i > 0:
            # the root of the four-point interpolant between the samples
            lo, hi = _bisect(lambda x: _interp4(x, rho, f) < 0.0,
                             rho[i - 1], rho[i], 1e-13 * rho[i])
            first_neg = float(0.5 * (lo + hi))
    summary = {
        "kind": g.kind, "k": g.k, "lam": lam, "mu2": args.mu2,
        "rho_max": rho_max,
        "f_min": float(f[imin]), "f_argmin": float(rho[imin]),
        "f_end": float(f[-1]),
        "first_sign_change": first_neg,
        "shoot_residual": sol.shoot_residual,
    }
    if lam > 1.0:
        rho0 = lam * math.atanh(1.0 / lam)
        summary["rho_bulk"] = rho0
        summary["f_at_bulk"] = float(_interp4(rho0, rho, f))
        summary["f_prime_at_bulk"] = float(_interp4(rho0, rho, sol.f_prime))
    header = ["rho", "f", "f_prime", "zeta"]
    rows = np.column_stack([rho, f, sol.f_prime, sol.zeta])
    return _emit(args, summary, csv_header=header, csv_rows=rows)


def _cmd_evolve(args):
    g = geometry(args.geometry, _index(args), _one_lambda(args))
    if args.initial == "eigenmode":
        data = GapEigenmode(mu2=args.mu2, index=args.index)
    else:
        data = GaussianBump(args.amplitude, args.center, args.width)
    state = init_state(g, args.R, args.n, data, nonlinear=args.nonlinear,
                       probe_r=args.probe_r)
    t_final = args.t_final
    if t_final is None:
        if not math.isnan(state.mu2):
            t_final = 10.0 * 2.0 * math.pi / math.sqrt(state.mu2)
        else:
            t_final = 80.0
    res = run(state, t_final, dt=args.dt, energy_stride=args.energy_stride)
    spec = probe_spectrum(res.times, res.probe)
    e0 = res.energies[0]
    drift = float(np.max(np.abs(res.energies - e0)) / abs(e0))
    summary = {
        "kind": g.kind, "k": g.k, "lam": g.lam,
        "initial": args.initial, "nonlinear": args.nonlinear,
        "R": args.R, "n": args.n, "dt": res.dt, "t_final": t_final,
        "probe_r": float(state.grid[state.probe_index]),
        "mu2": state.mu2,
        "dominant_omega": spec.dominant_omega,
        "bin_width": spec.bin_width,
        "decay_ratio": spec.decay_ratio,
        "energy_drift": drift,
        "n_samples": spec.n_samples,
    }
    if not math.isnan(state.mu2):
        summary["omega_expected"] = math.sqrt(state.mu2)
    header = ["t", "probe"]
    rows = np.column_stack([res.times, res.probe])
    return _emit(args, summary, csv_header=header, csv_rows=rows)


def _add_common(sub, geometry=True, lam=True, jobs=False):
    sub.add_argument("--output", "-o", default=None,
                     help="output path; .csv switches to CSV + meta sidecar")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit generated_at from the document")
    if geometry:
        sub.add_argument("--geometry", choices=(SPHERE, YANG_MILLS),
                         default=SPHERE)
        sub.add_argument("--k", type=int, default=None,
                         help="equivariance index (sphere family)")
    if lam:
        sub.add_argument("--lambda", dest="lam", type=_lambda_list,
                         required=True,
                         help="scaling parameter: scalar, 'a,b,...' "
                              "or grid 'a:b:n'")
    if jobs:
        sub.add_argument("--jobs", type=_jobs, default=None,
                         help="worker processes (default: GAPSPEC_JOBS "
                              "or the CPU count)")


def build_parser():
    p = argparse.ArgumentParser(
        prog="gapspec",
        description="Spectral laboratory for equivariant geometric waves "
                    "on hyperbolic space")
    sp = p.add_subparsers(dest="command", required=True)

    q = sp.add_parser("hm", help="harmonic-map profiles and energies")
    _add_common(q)
    q.add_argument("--r-max", type=float, default=60.0)
    q.set_defaults(func=_cmd_hm)

    q = sp.add_parser("spectrum", help="certified gap spectrum per lambda")
    _add_common(q, jobs=True)
    q.add_argument("--no-scans", action="store_true")
    q.set_defaults(func=_cmd_spectrum)

    q = sp.add_parser("sweep", help="threshold slope and count along lambda")
    _add_common(q, jobs=True)
    q.add_argument("--bisect-to", type=float, default=1e-4)
    q.set_defaults(func=_cmd_sweep)

    q = sp.add_parser("migrate", help="ground eigenvalue along lambda")
    _add_common(q, jobs=True)
    q.set_defaults(func=_cmd_migrate)

    q = sp.add_parser("largek", help="large-k normal form gap scan")
    _add_common(q, geometry=False, lam=False, jobs=True)
    q.add_argument("--ks", type=_k_list, required=True,
                   help="comma-separated indices, 'inf' allowed")
    q.add_argument("--theta", type=float, required=True)
    q.set_defaults(func=_cmd_largek)

    q = sp.add_parser("renorm", help="gap-edge renormalized profile f")
    _add_common(q)
    q.add_argument("--mu2", type=float, default=0.25)
    q.add_argument("--rho-max", type=float, default=None)
    q.set_defaults(func=_cmd_renorm)

    q = sp.add_parser("evolve", help="radial wave evolution diagnostics")
    _add_common(q)
    q.add_argument("--initial", choices=("eigenmode", "bump"),
                   default="eigenmode")
    q.add_argument("--mu2", type=float, default=None)
    q.add_argument("--index", type=int, default=0)
    q.add_argument("--amplitude", type=float, default=1.0)
    q.add_argument("--center", type=float, default=8.0)
    q.add_argument("--width", type=float, default=0.5)
    q.add_argument("--R", type=float, default=60.0)
    q.add_argument("--n", type=int, default=4096)
    q.add_argument("--t-final", type=float, default=None)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--probe-r", type=float, default=None)
    q.add_argument("--nonlinear", action="store_true")
    q.add_argument("--energy-stride", type=int, default=64)
    q.set_defaults(func=_cmd_evolve)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GapspecError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
