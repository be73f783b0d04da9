"""The four workloads: CLI invocations drawn from a seed, with their checks.

A workload is built from the seed once per run and then repeated in whole
rounds. Each operation is one `gapspec.cli.main` call (argv as a user would
type it, plus --no-timestamp and, where the subcommand takes it, --jobs 1),
the checks on its document, and the units of work it completed: certified
gap eigenvalues on certify and largek, threshold-fit points on threshold,
leapfrog node-steps on evolve.
"""

import math
import random
from dataclasses import dataclass, field

import checks

JOBS_COMMANDS = ("spectrum", "sweep", "migrate", "largek")
DEFAULT_SEED = 1
BISECT_TO = 1e-6

# members of tests/conftest.py
CONFTEST_LAMBDAS = (5.0, 10.0, 20.0, 40.0)
LAMBDA_MAX = 60.0           # the certification is correct up to here today


@dataclass
class Op:
    name: str
    argv: list
    check: object           # results -> list of failure messages
    work: object = None     # results -> units of work completed

    def full_argv(self):
        extra = ["--no-timestamp"]
        if self.argv[0] in JOBS_COMMANDS:
            extra += ["--jobs", "1"]
        return self.argv + extra


@dataclass
class Workload:
    unit: str               # what work_per_s counts
    ops: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)


def _fmt(values):
    return ",".join(repr(v) for v in values)


def _draw(rng, lo, hi, digits=3):
    return round(rng.uniform(lo, hi), digits)


def _eigenvalue_count(results):
    return sum(len(r.get("eigenvalues") or []) for r in results)


def certify(seed):
    rng = random.Random(seed)
    # narrow ranges where a report's cost varies little with lambda, so
    # the seed changes the inputs but hardly the work of a round
    sph = list(CONFTEST_LAMBDAS) + [_draw(rng, 45.0, LAMBDA_MAX)]
    ym = list(CONFTEST_LAMBDAS) + [_draw(rng, 45.0, LAMBDA_MAX)]
    mig = [_draw(rng, 12.0, 15.0), _draw(rng, 25.0, 30.0),
           _draw(rng, 50.0, LAMBDA_MAX)]

    from gapspec import sphere, yang_mills

    def spectrum_op(name, geo, make, lams):
        # the matrix oracle is solved once per run, outside the timed part
        oracles = {lam: checks.fd_oracle(make(lam)) for lam in lams
                   if checks.ORACLE_RANGE[0] <= lam <= checks.ORACLE_RANGE[1]}
        return Op(name, ["spectrum", *geo, "--lambda", _fmt(lams)],
                  lambda res: checks.check_spectrum(res, lams, oracles),
                  _eigenvalue_count)

    ops = [
        spectrum_op("spectrum sphere k=2", ["--geometry", "sphere", "--k",
                                            "2"], lambda lam: sphere(2, lam),
                    sph),
        spectrum_op("spectrum ym", ["--geometry", "ym"], yang_mills, ym),
        spectrum_op("spectrum sphere k=3 deep well",
                    ["--geometry", "sphere", "--k", "3"], None, [40.0]),
        Op("migrate ym", ["migrate", "--geometry", "ym", "--lambda",
                          _fmt(mig)],
           lambda res: checks.check_migration(res, mig),
           lambda res: len(res.get("points") or [])),
    ]
    return Workload("certified eigenvalues", ops,
                    {"sphere_k2": sph, "ym": ym, "migrate_ym": mig})


def largek(seed):
    # the scan is fixed (Theta = 100, k in {8, 16, inf}); the seed orders
    # the rows, which changes the document but not the work
    ks = ["8", "16", "inf"]
    random.Random(seed).shuffle(ks)
    kvals = [math.inf if k == "inf" else int(k) for k in ks]

    def work(res):
        n = 0
        for row in res.get("points") or []:
            n += checks.finite(row.get("mu2")) is not None
            n += checks.finite(row.get("halfline_mu2")) is not None
        return n

    op = Op("largek theta=100", ["largek", "--ks", ",".join(ks), "--theta",
                                 "100"],
            lambda res: checks.check_largek(res, kvals), work)
    return Workload("certified eigenvalues", [op], {"ks": ks})


def _grid(rng, lo_range, hi_range, n=6):
    a = _draw(rng, *lo_range)
    b = _draw(rng, *hi_range)
    return [round(a + (b - a) * i / (n - 1), 4) for i in range(n)]


def threshold(seed):
    rng = random.Random(seed)
    # each grid straddles both transitions of its family: slope flip and
    # count onset at about 3.449 / 3.666 (k=1), 1.687 / 1.726 (k=2) and
    # 2.087 / 2.152 (Yang-Mills); the end points move by at most 0.1, so
    # every bisection starts from a spacing in (0.13, 0.26) and takes the
    # same number of steps
    grids = {
        "sphere k=1": (["--geometry", "sphere", "--k", "1"],
                       _grid(rng, (3.0, 3.1), (4.0, 4.1))),
        "sphere k=2": (["--geometry", "sphere", "--k", "2"],
                       _grid(rng, (1.3, 1.4), (2.1, 2.2))),
        "ym": (["--geometry", "ym"], _grid(rng, (1.6, 1.7), (2.5, 2.6))),
    }
    edge_lams = [20.0, 40.0, _draw(rng, 25.0, 35.0)]

    def sweep_op(name, geo, grid):
        def work(res):
            n = len(res.get("points") or [])
            for key in ("slope_flip_bracket", "onset_bracket"):
                if res.get(key):
                    n += checks.bisection_steps(grid, res[key],
                                                BISECT_TO) or 0
            return n

        return Op(f"sweep {name}",
                  ["sweep", *geo, "--lambda", _fmt(grid), "--bisect-to",
                   repr(BISECT_TO)],
                  lambda res: checks.check_sweep(res, grid, BISECT_TO), work)

    ops = [sweep_op(name, geo, grid) for name, (geo, grid) in grids.items()]
    ops.append(Op("renorm zero energy",
                  ["renorm", "--k", "2", "--lambda", "40", "--mu2", "0"],
                  checks.check_renorm_zero))
    for lam in edge_lams:
        ops.append(Op(f"renorm edge lambda={lam:g}",
                      ["renorm", "--k", "2", "--lambda", repr(lam),
                       "--mu2", "0.25"],
                      lambda res, lam=lam: checks.check_renorm_edge(res, lam)))
    return Workload("threshold-fit points", ops,
                    {name: grid for name, (_, grid) in grids.items()}
                    | {"renorm_edge": edge_lams})


def eigenmode_mu2():
    """mu2 of sphere(2, 20), located once per run outside the timed part."""
    import gapspec as gs

    rep = gs.find_gap_eigenvalues(gs.half_line(gs.sphere(2, 20.0)),
                                  scans=False, threshold=False)
    return rep.eigenvalues[0].mu2


def evolve(seed, mu2):
    rng = random.Random(seed)
    center = _draw(rng, 6.0, 8.0)
    width = _draw(rng, 0.4, 0.5)
    amp = _draw(rng, 0.5, 2.0)

    def node_steps(res):
        return float(res.get("n_samples") or 0) * float(res.get("n") or 0)

    ops = [
        Op("evolve eigenmode sphere k=2 lambda=20",
           ["evolve", "--k", "2", "--lambda", "20", "--initial", "eigenmode",
            "--R", "40", "--n", "4096", "--mu2", repr(mu2)],
           lambda res: checks.check_evolve_eigenmode(res, mu2), node_steps),
        Op("evolve bump sphere k=1 lambda=1",
           ["evolve", "--k", "1", "--lambda", "1", "--initial", "bump",
            "--R", "160", "--n", "8192", "--t-final", "80",
            "--center", repr(center), "--width", repr(width),
            "--amplitude", repr(amp)],
           checks.check_evolve_bump, node_steps),
    ]
    return Workload("leapfrog node-steps", ops,
                    {"mu2": mu2, "bump": [amp, center, width]})


NAMES = ("certify", "largek", "threshold", "evolve")


def build(name, seed):
    if name == "evolve":
        return evolve(seed, eigenmode_mu2())
    return {"certify": certify, "largek": largek,
            "threshold": threshold}[name](seed)
