"""Every benchmark check passes on real program output and fails on a
corrupted copy of it, and a failed check is counted as a failed operation.

    python3 -m pytest gapbench/tests -q
"""

import copy
import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from gapspec import cli, spectral, sphere  # noqa: E402


def cli_results(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv + ["--no-timestamp"]) == 0
    return json.loads(buf.getvalue())["results"]


@pytest.fixture(scope="module")
def spectrum_k2_5():
    return cli_results(["spectrum", "--k", "2", "--lambda", "5",
                        "--jobs", "1"])


@pytest.fixture(scope="module")
def oracle_k2_5():
    return checks.fd_oracle(sphere(2, 5.0))


def _spectrum_bad(results, oracle):
    return checks.check_spectrum(results, [5.0], {5.0: oracle})


def test_spectrum_passes_and_oracle_is_tight(spectrum_k2_5, oracle_k2_5):
    assert _spectrum_bad(spectrum_k2_5, oracle_k2_5) == []
    value, err = oracle_k2_5
    # the oracle resolves mu2 far below a part in 1e5
    assert err < 1e-5 * value


@pytest.mark.parametrize("corrupt", [
    ("perturbed mu2", lambda ev, rep: ev.update(mu2=ev["mu2"] * (1 + 1e-5))),
    ("mu2 outside gap", lambda ev, rep: ev.update(mu2=0.3)),
    ("jump of 2", lambda ev, rep: ev.update(oscillation=[0, 2])),
    ("residual", lambda ev, rep: ev.update(wronskian_residual=2e-8)),
    ("residual nan", lambda ev, rep: ev.update(wronskian_residual="nan")),
    ("wide bracket", lambda ev, rep: ev.update(
        bracket=[ev["bracket"][0], ev["bracket"][0] + 2e-9])),
    ("near threshold", lambda ev, rep: ev.update(near_threshold=True)),
    ("count 0", lambda ev, rep: rep.update(count=0, eigenvalues=[])),
    ("negative scan", lambda ev, rep: rep["negative_scan"][1].__setitem__(
        1, 1)),
    ("embedded scan", lambda ev, rep: rep["embedded_scan"][0].__setitem__(
        1, 1e-3)),
    ("threshold fit", lambda ev, rep: rep["threshold"].update(
        fit_residual=1e-5)),
], ids=lambda c: c[0])
def test_spectrum_check_binds(spectrum_k2_5, oracle_k2_5, corrupt):
    results = copy.deepcopy(spectrum_k2_5)
    rep = results[0]
    corrupt[1](rep["eigenvalues"][0], rep)
    assert _spectrum_bad(results, oracle_k2_5)


def test_oracle_refuses_unresolved_well():
    # at lambda = 40 the uniform grid does not converge: no bound is given
    _, err = checks.fd_oracle(sphere(2, 40.0))
    assert err > 1e-3


def test_migration_check():
    res = cli_results(["migrate", "--geometry", "ym", "--lambda", "10,20",
                       "--jobs", "1"])
    assert checks.check_migration(res, [10.0, 20.0]) == []
    flat = copy.deepcopy(res)
    flat["points"][1]["mu2"] = flat["points"][0]["mu2"]
    assert checks.check_migration(flat, [10.0, 20.0])
    resid = copy.deepcopy(res)
    resid["points"][0]["wronskian_residual"] = 1e-6
    assert checks.check_migration(resid, [10.0, 20.0])


def _largek_doc():
    # the shape of a `largek --ks 8,16,inf --theta 100` document
    rows = [(8.0, 7.943794009437e-03), (16.0, 7.415132251538e-03),
            ("inf", 7.243283890948e-03)]
    return {"theta": 100.0, "points": [
        {"k": k, "count": 1, "mu2": mu2, "resonance_b": -1.0,
         "halfline_mu2": "nan" if k == "inf" else mu2 * (1 + 1e-12),
         "halfline_count": -1 if k == "inf" else 1} for k, mu2 in rows]}


def test_largek_check():
    ks = [8, 16, math.inf]
    assert checks.check_largek(_largek_doc(), ks) == []
    pull = _largek_doc()
    pull["points"][0]["halfline_mu2"] *= 1 + 1e-8
    assert checks.check_largek(pull, ks)
    count = _largek_doc()
    count["points"][1]["halfline_count"] = 0
    assert checks.check_largek(count, ks)
    order = _largek_doc()
    order["points"][1]["mu2"] = order["points"][1]["halfline_mu2"] = 8.5e-3
    assert checks.check_largek(order, ks)


GRID = [3.0, 3.5, 4.0]


@pytest.fixture(scope="module")
def sweep_k1():
    calls = []
    real = spectral._sweep_point
    spectral._sweep_point = lambda a: calls.append(a) or real(a)
    try:
        res = cli_results(["sweep", "--k", "1", "--lambda", "3.0,3.5,4.0",
                           "--bisect-to", "1e-3", "--jobs", "1"])
    finally:
        spectral._sweep_point = real
    return res, len(calls)


def test_sweep_check_and_point_count(sweep_k1):
    res, evaluated = sweep_k1
    assert checks.check_sweep(res, GRID, 1e-3) == []
    steps = [checks.bisection_steps(GRID, res[key], 1e-3)
             for key in ("slope_flip_bracket", "onset_bracket")]
    # grid points plus bisection midpoints are exactly the fits evaluated
    assert len(GRID) + sum(steps) == evaluated


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(onset_bracket=None),
    lambda r: r.update(slope_flip_bracket=[3.45, 3.46]),
    lambda r: r["points"][0].update(count=1),
    lambda r: r["points"][2].update(count=0),
    lambda r: r["points"][1].update(fit_residual=1e-5),
])
def test_sweep_check_binds(sweep_k1, corrupt):
    res = copy.deepcopy(sweep_k1[0])
    corrupt(res)
    assert checks.check_sweep(res, GRID, 1e-3)


def test_renorm_checks():
    zero = cli_results(["renorm", "--k", "2", "--lambda", "20",
                        "--mu2", "0"])
    assert checks.check_renorm_zero(zero) == []
    assert checks.check_renorm_zero(dict(zero, f_end=1.0 + 1e-9))
    edge = cli_results(["renorm", "--k", "2", "--lambda", "20",
                        "--mu2", "0.25"])
    assert checks.check_renorm_edge(edge, 20.0) == []
    assert checks.check_renorm_edge(dict(edge, first_sign_change=None), 20.0)
    assert checks.check_renorm_edge(dict(edge, shoot_residual=1e-5), 20.0)
    assert checks.check_renorm_zero(edge)


@pytest.fixture(scope="module")
def bump():
    return cli_results(["evolve", "--k", "1", "--lambda", "1", "--initial",
                        "bump", "--R", "160", "--n", "8192",
                        "--t-final", "80"])


@pytest.fixture(scope="module")
def eigenmode():
    mu2 = workloads.eigenmode_mu2()
    period = 2.0 * math.pi / math.sqrt(mu2)
    res = cli_results(["evolve", "--k", "2", "--lambda", "20", "--R", "40",
                       "--n", "4096", "--mu2", repr(mu2),
                       "--t-final", repr(3.0 * period)])
    return res, mu2


def test_evolve_checks(bump, eigenmode):
    res, mu2 = eigenmode
    assert checks.check_evolve_eigenmode(res, mu2) == []
    assert checks.check_evolve_bump(bump) == []
    off = dict(res, dominant_omega=res["dominant_omega"]
               + 3.0 * res["bin_width"])
    assert checks.check_evolve_eigenmode(off, mu2)
    assert checks.check_evolve_eigenmode(dict(res, decay_ratio=0.8), mu2)
    assert checks.check_evolve_eigenmode(dict(res, energy_drift=2e-3), mu2)
    # the bump dispersing is what separates it from the eigenmode
    assert checks.check_evolve_bump(dict(bump, decay_ratio=0.5))
    assert checks.check_evolve_bump(dict(bump, energy_drift="nan"))


def _fake_main(document):
    def main(argv):
        print(json.dumps({"results": document}))
        return 0
    return main


def _one_op(check):
    return workloads.Workload("units", [
        workloads.Op("op", ["spectrum"], check, lambda res: 1)])


def test_corrupted_outputs_are_failed_operations(spectrum_k2_5, oracle_k2_5,
                                                 bump):
    def spectrum_check(res):
        return _spectrum_bad(res, oracle_k2_5)

    perturbed = copy.deepcopy(spectrum_k2_5)
    perturbed[0]["eigenvalues"][0]["mu2"] *= 1 + 1e-5
    count0 = copy.deepcopy(spectrum_k2_5)
    count0[0].update(count=0, eigenvalues=[])
    jump2 = copy.deepcopy(spectrum_k2_5)
    jump2[0]["eigenvalues"][0]["oscillation"] = [0, 2]
    cases = [(spectrum_check, perturbed), (spectrum_check, count0),
             (spectrum_check, jump2),
             (checks.check_evolve_bump, dict(bump, decay_ratio=0.5))]
    for check, doc in cases:
        rounds, work, attempted, failed, wrong = bench.run_rounds(
            _one_op(check), _fake_main(doc), 0.0)
        assert (attempted, failed, wrong, work) == (1, 1, True, 0.0)
    rounds, work, attempted, failed, wrong = bench.run_rounds(
        _one_op(spectrum_check), _fake_main(spectrum_k2_5), 0.0)
    assert (attempted, failed, wrong, work) == (1, 0, False, 1.0)


def test_program_errors_are_failed_operations():
    def raises(argv):
        raise RuntimeError("library fault")

    for main in (raises, lambda argv: 3):
        _, _, attempted, failed, wrong = bench.run_rounds(
            _one_op(lambda res: []), main, 0.0)
        assert (attempted, failed, wrong) == (1, 1, False)


def test_workload_inputs_follow_the_seed():
    for name in ("certify", "largek", "threshold"):
        a = workloads.build(name, 5)
        assert a.inputs == workloads.build(name, 5).inputs
        assert [op.full_argv() for op in a.ops] == \
            [op.full_argv() for op in workloads.build(name, 5).ops]
    assert workloads.build("certify", 5).inputs != \
        workloads.build("certify", 6).inputs
    mig = workloads.build("certify", 7).inputs["migrate_ym"]
    assert mig == sorted(mig) and max(mig) <= workloads.LAMBDA_MAX


def test_compare_groups_runs_by_workload(tmp_path, capsys):
    def runs(path, walls):
        lines = []
        for wl, wall in walls:
            lines.append(json.dumps({"bench": {"workload": wl}}))
            lines.append("readable table line")
            lines.append(json.dumps({"correct": True, "attempted": 1,
                                     "failed": 0, "metrics": {
                                         "wall_s": {"value": wall,
                                                    "unit": "s"}}}))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    a = runs(tmp_path / "a.txt", [("evolve", 1.0), ("evolve", 3.0),
                                  ("threshold", 9.0)])
    b = runs(tmp_path / "b.txt", [("evolve", 3.0), ("threshold", 9.0)])
    assert bench._read_runs(a) == {"evolve": {"wall_s": [1.0, 3.0]},
                                   "threshold": {"wall_s": [9.0]}}
    assert bench.main(["--compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "+50.0%" in out and "+0.0%" in out
