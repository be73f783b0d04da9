"""Layered benchmark of gapspec: four workloads run through its CLI.

    python3 gapbench/run.py --workload certify --seed 1 --seconds 15 \
        --trace 0
    python3 gapbench/run.py --compare before.txt after.txt

Run from the root of a source checkout; the package is imported from
./src. One run measures the set-up time in fresh processes, builds the
workload's operations from the seed, and repeats whole rounds of them
in-process until --seconds have passed. Every operation's document is
checked. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it wraps the calls into each module and prints the per-layer
metrics instead. The last line of stdout is the JSON result; the line
before the metrics table is a JSON header with the workload, the seed and
the environment. --compare reads saved stdout of runs and prints
per-metric medians and their change.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5


# Import the package and make its kernels ready: where numba is in use the
# first calls compile them, so set-up includes compilation.
SETUP_CODE = r"""
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import gapspec.cli
from gapspec import _kernels, half_line, sphere
from gapspec.ode_engine import count_zeros, series_start
op = half_line(sphere(2, 5.0))
count_zeros(op, 0.1, series_start(op, 0.1), 1.0)
w = np.zeros(16)
_kernels.step_chunk(w, w.copy(), w.copy(), w.copy(), 1.0, 0.1, 1, 1,
                    np.empty(1), 0, False, 0, 2.0, w, w, w, w, w)
print("ready", flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no package, failed set-up)."""


def declared_units(trace):
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def setup_seconds():
    """Process start until gapspec is imported and its kernels are ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up process failed:\n{err}")
    return elapsed


def environment():
    import numpy as np

    from gapspec import _kernels

    return {"backend": "numba" if _kernels.USE_NUMBA else "numpy",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count()}


def invoke(main, argv):
    """One CLI call in-process: (exit code or error, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse rejects the arguments
            rc = exc.code
        except Exception:               # an uncaught library fault
            rc = "uncaught exception"
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_rounds(workload, main, seconds):
    """Whole rounds of the workload's operations until `seconds` passed."""
    rounds, work = [], 0.0
    attempted = failed = 0
    wrong = False
    t_start = time.perf_counter()
    while True:
        spent = 0.0
        for op in workload.ops:
            rc, out, err, dt = invoke(main, op.full_argv())
            spent += dt
            attempted += 1
            if rc != 0:
                failed += 1
                print(f"FAILED {op.name}: exit {rc}\n{err}", file=sys.stderr)
                continue
            try:
                results = json.loads(out)["results"]
            except (ValueError, KeyError):
                results, bad = None, ["no JSON document with results"]
            else:
                bad = op.check(results)
            if bad:
                failed += 1
                wrong = True
                print(f"WRONG {op.name}: " + "; ".join(bad), file=sys.stderr)
                continue
            if op.work is not None:
                work += op.work(results)
        rounds.append(spent)
        if time.perf_counter() - t_start >= seconds:
            break
    return rounds, work, attempted, failed, wrong


def run(args):
    if not os.path.isfile(os.path.join(SRC, "gapspec", "__init__.py")):
        raise BenchError(f"no gapspec package under {SRC}")
    setup = [setup_seconds() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, SRC)
    from gapspec import cli

    workload = workloads.build(args.workload, args.seed)
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs": workload.inputs, **environment()}
    print(json.dumps({"bench": header}))

    tracer = None
    main = cli.main
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        main = tracer.wrap("cli.main", cli.main)
    try:
        rounds, work, attempted, failed, wrong = run_rounds(
            workload, main, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(rounds),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": work / sum(rounds),
        }
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = tracing.layer_metrics(tracer.spans, rounds,
                                        tracing.span_cost())
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json "
                         f"declares {sorted(units)}")

    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed; work_per_s counts {workload.unit}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def _read_runs(path):
    """{workload: {metric: [values]}} from saved stdout of runs."""
    groups, current = {}, None
    with open(path) as fh:
        for line in fh:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            if "bench" in doc:
                current = doc["bench"]["workload"]
            elif "metrics" in doc and current is not None:
                group = groups.setdefault(current, {})
                for name, m in doc["metrics"].items():
                    group.setdefault(name, []).append(m["value"])
    return groups


def compare(path_a, path_b):
    a, b = _read_runs(path_a), _read_runs(path_b)
    print(f"{'workload':<10} {'metric':<40} {'median A':>12} "
          f"{'median B':>12} {'change':>8}  n")
    for wl in sorted(set(a) & set(b)):
        for name in sorted(set(a[wl]) & set(b[wl])):
            ma = statistics.median(a[wl][name])
            mb = statistics.median(b[wl][name])
            change = f"{100.0 * (mb - ma) / ma:+.1f}%" if ma else "n/a"
            print(f"{wl:<10} {name:<40} {ma:>12.6g} {mb:>12.6g} "
                  f"{change:>8}  {len(a[wl][name])}/{len(b[wl][name])}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="saved stdout of two sets of runs")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    try:
        result = run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
