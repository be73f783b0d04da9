"""Spans around the calls into each gapspec module, recorded from outside.

Every wrapper is installed at the name where the caller looks the function
up: `ode_engine` and `wave_sim` call `_kernels.rk_shoot` and
`_kernels.step_chunk` through the module, `spectral` and `wave_sim` import
`count_zeros`, `endpoint_state`, `integrate` and `fit_threshold` into their
own namespaces, and `cli` imports the pipelines of `spectral`, `ode_engine`
and `wave_sim` into its own. Nothing in the library is edited.

A span is [name, start, end, parent index, count]; spans stay in memory
and are written out when the run ends. A layer's self time is its spans'
duration minus the time covered by their child spans.
"""

import json
import statistics
import time

_perf = time.perf_counter


def _rk_stored(args, out):
    # rk_shoot(code, kk, p, mu2, x0, phi0, chi0, lg0, x1, rtol, atol,
    #          max_steps, max_step, store, localize) -> (status, nstored, ...)
    return int(out[1]) if args[13] else 0


def _node_steps(args, out):
    # step_chunk(w, v, a, ueff, inv_h2, dt, nsteps, ...)
    return int(args[6]) * int(args[0].shape[0])


def _certified(args, out):
    return sum(1 for ev in out.eigenvalues if not ev.near_threshold)


def _targets():
    """(module, attribute, span name, count function) for every wrapper."""
    from gapspec import _kernels, cli, ode_engine, spectral, wave_sim

    return [
        (_kernels, "rk_shoot", "_kernels.rk_shoot", _rk_stored),
        (_kernels, "step_chunk", "_kernels.step_chunk", _node_steps),
        (spectral, "count_zeros", "ode_engine.count_zeros", None),
        (spectral, "endpoint_state", "ode_engine.endpoint_state", None),
        (spectral, "integrate", "ode_engine.integrate", None),
        (wave_sim, "integrate", "ode_engine.integrate", None),
        (ode_engine, "integrate", "ode_engine.integrate", None),
        (spectral, "fit_threshold", "ode_engine.fit_threshold", None),
        (cli, "renormalized_f", "ode_engine.renormalized_f", None),
        (spectral, "find_gap_eigenvalues", "spectral.find_gap_eigenvalues",
         _certified),
        (cli, "find_gap_eigenvalues", "spectral.find_gap_eigenvalues",
         _certified),
        (cli, "sweep_lambda", "spectral.sweep_lambda", None),
        (cli, "migration_curve", "spectral.migration_curve", None),
        (cli, "largek_gap_scan", "spectral.largek_gap_scan", None),
        (cli, "init_state", "wave_sim.init_state", None),
        (cli, "run", "wave_sim.run", None),
        (cli, "probe_spectrum", "wave_sim.probe_spectrum", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()
            if count is not None:
                rec[4] = count(args, out)
            return out

        return traced

    def install(self):
        for module, attr, name, count in _targets():
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, count))

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump([[n, a - t0, b - t0, p, c]
                       for n, a, b, p, c in self.spans], fh)


def span_cost(n=20000):
    """Seconds a wrapper adds to one call, measured on a no-op."""
    def noop(*args):
        return args

    def count(args, out):
        return 0

    traced = Tracer().wrap("noop", noop, count)
    best = float("inf")
    for _ in range(3):
        t0 = _perf()
        for _ in range(n):
            noop(1, 2)
        t1 = _perf()
        for _ in range(n):
            traced(1, 2)
        t2 = _perf()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def layer_metrics(spans, round_times, per_span_s):
    """Per-round layer metrics from the spans of one or more whole rounds.

    Counts and seconds are totals divided by the number of rounds, so the
    counts of identical rounds come out exact."""
    n = len(spans)
    dur = [b - a for _, a, b, _, _ in spans]
    child = [0.0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def layer(i):
        return spans[i][0].split(".", 1)[0]

    calls, total, self_s, counts = {}, {}, {}, {}
    spectral_s = spectral_self = 0.0
    trace_shots = 0
    for i, (name, _, _, parent, cnt) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        counts[name] = counts.get(name, 0) + cnt
        if layer(i) == "spectral":
            spectral_self += dur[i] - child[i]
            p = parent
            while p >= 0 and layer(p) != "spectral":
                p = spans[p][3]
            if p < 0:
                spectral_s += dur[i]
        if name == "ode_engine.integrate" and parent >= 0 and \
                layer(parent) == "spectral":
            trace_shots += 1

    rounds = len(round_times)

    def per(x):
        return x / rounds

    rk_calls = calls.get("_kernels.rk_shoot", 0)
    rk_s = total.get("_kernels.rk_shoot", 0.0)
    lf_s = total.get("_kernels.step_chunk", 0.0)
    lf_steps = counts.get("_kernels.step_chunk", 0)
    shots = (calls.get("ode_engine.count_zeros", 0)
             + calls.get("ode_engine.endpoint_state", 0) + trace_shots)
    certified = counts.get("spectral.find_gap_eigenvalues", 0)
    out = {
        "kernels.rk_shoot.calls": per(rk_calls),
        "kernels.rk_shoot.s": per(rk_s),
        "kernels.rk_shoot.us_per_call": 1e6 * rk_s / rk_calls
        if rk_calls else 0.0,
        "kernels.rk_shoot.stored_samples":
            per(counts.get("_kernels.rk_shoot", 0)),
        "kernels.step_chunk.node_steps": per(lf_steps),
        "kernels.step_chunk.s": per(lf_s),
        "kernels.step_chunk.node_steps_per_s": lf_steps / lf_s
        if lf_s > 0.0 else 0.0,
        "ode_engine.fit_threshold.s":
            per(total.get("ode_engine.fit_threshold", 0.0)),
        "ode_engine.renormalized_f.s":
            per(total.get("ode_engine.renormalized_f", 0.0)),
        "spectral.count_shots": per(calls.get("ode_engine.count_zeros", 0)),
        "spectral.match_shots":
            per(calls.get("ode_engine.endpoint_state", 0)),
        "spectral.trace_shots": per(trace_shots),
        "spectral.shots_per_eigenvalue": shots / certified
        if certified else 0.0,
        "spectral.s_per_eigenvalue": spectral_s / certified
        if certified else 0.0,
        "spectral.self_s": per(spectral_self),
        "wave_sim.init_state.s": per(total.get("wave_sim.init_state", 0.0)),
        "wave_sim.run.self_s": per(self_s.get("wave_sim.run", 0.0)),
        "wave_sim.probe_spectrum.s":
            per(total.get("wave_sim.probe_spectrum", 0.0)),
        "cli.self_s": per(self_s.get("cli.main", 0.0)),
        "trace.round_s": statistics.median(round_times),
        "trace.overhead_pct": 100.0 * n * per_span_s / sum(round_times),
        "trace.spans": per(n),
    }
    for name in ("count_zeros", "endpoint_state", "integrate"):
        key = f"ode_engine.{name}"
        out[f"{key}.calls"] = per(calls.get(key, 0))
        out[f"{key}.s"] = per(total.get(key, 0.0))
    return out
