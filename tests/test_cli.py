"""Command-line front end: parsing, emission formats, exit codes."""

import json
import math
import subprocess
import sys

import pytest

import gapspec as gs
from gapspec.cli import _default_jobs, _jsonable, _k_list, _lambda_list, main

from conftest import B_SPHERE_K1, MU2_SPHERE_K2


def _json_out(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_lambda_list_forms():
    assert _lambda_list("0.5") == [0.5]
    assert _lambda_list("5,10,20") == [5.0, 10.0, 20.0]
    assert _lambda_list("1:2:5") == [1.0, 1.25, 1.5, 1.75, 2.0]
    import argparse
    for bad in ("abc", "2:1:3", "1:2:1", "1:2"):
        with pytest.raises(argparse.ArgumentTypeError):
            _lambda_list(bad)


def test_k_list_forms():
    assert _k_list("8,16") == [8, 16]
    assert _k_list("4,inf") == [4, math.inf]
    import argparse
    for bad in ("4,x", "0", "8,-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            _k_list(bad)


def test_jsonable_special_values():
    doc = _jsonable({"a": math.nan, "b": math.inf, "c": -math.inf,
                     "d": [1.5, (2,)], "e": None})
    assert doc == {"a": "nan", "b": "inf", "c": "-inf",
                   "d": [1.5, [2]], "e": None}


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("GAPSPEC_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("GAPSPEC_JOBS", "0")
    assert _default_jobs() == 1
    monkeypatch.setenv("GAPSPEC_JOBS", "many")
    assert _default_jobs() >= 1
    monkeypatch.delenv("GAPSPEC_JOBS")
    assert _default_jobs() >= 1


def test_hm_json_stdout(capsys):
    doc = _json_out(capsys, ["hm", "--k", "2", "--lambda", "2.0",
                             "--no-timestamp"])
    assert "generated_at" not in doc
    assert doc["config"]["lam"] == [2.0]
    row = doc["results"][0]
    assert row["energy_closed_form"] == pytest.approx(64.0 / 17.0)
    assert row["abs_difference"] < 1e-8
    assert row["amplitude_bound"] > row["endpoint"]


def test_hm_timestamp_on_by_default(capsys):
    doc = _json_out(capsys, ["hm", "--lambda", "1.0"])
    assert "generated_at" in doc


def test_hm_csv_with_sidecar(tmp_path):
    out = tmp_path / "hm.csv"
    rc = main(["hm", "--k", "1", "--lambda", "0.5,1.5", "--no-timestamp",
               "--output", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r\n" in raw
    lines = raw.decode().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("kind,k,lam,endpoint")
    meta = json.loads((tmp_path / "hm.csv.meta.json").read_text())
    assert meta["columns"][0] == "kind"
    assert meta["config"]["lam"] == [0.5, 1.5]
    assert "results" not in meta


def test_json_file_output(tmp_path):
    out = tmp_path / "doc.json"
    rc = main(["hm", "--lambda", "1.0", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["results"][0]["kind"] == "sphere"


def test_bad_config_exits_2(capsys):
    rc = main(["hm", "--geometry", "ym", "--k", "3", "--lambda", "1.0"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["renorm", "evolve"])
def test_one_member_commands_refuse_a_lambda_list(capsys, command):
    # both once ran the first lambda of the list and exited 0
    for lam in ("5,40", "5:40:3"):
        rc = main([command, "--k", "2", "--lambda", lam, "--no-timestamp"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_is_a_parse_error(capsys, jobs):
    # --jobs 0 once ran on every CPU and --jobs -2 serially
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--k", "2", "--lambda", "10", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_library_error_exits_3(capsys):
    # lambda = 1 has no gap eigenmode to start from
    rc = main(["evolve", "--lambda", "1.0", "--initial", "eigenmode"])
    assert rc == 3
    assert "NoEigenmode" in capsys.readouterr().err
    # nor does a given mu2 give it a well to match in: a potential scan
    # once matched a profile here anyway and exited 0
    rc = main(["evolve", "--k", "2", "--lambda", "1", "--initial",
               "eigenmode", "--mu2", "0.1"])
    assert rc == 3
    assert "DomainError" in capsys.readouterr().err
    # a non-finite Theta is rejected before any shot
    rc = main(["largek", "--ks", "inf", "--theta", "inf", "--jobs", "1"])
    assert rc == 3
    assert "DomainError" in capsys.readouterr().err
    # a non-finite count radius is rejected before any shot: nan once
    # counted an empty gap, inf hung the asymptotic-radius scan
    for R in ("nan", "inf"):
        for argv in (["spectrum", "--k", "2", "--lambda", "10"],
                     ["sweep", "--k", "1", "--lambda", "3.0,4.0"]):
            assert main(argv + ["--R", R, "--jobs", "1"]) == 3, (argv, R)
            assert "DomainError" in capsys.readouterr().err
    # a count radius short of the flat tail once reported an empty gap
    rc = main(["spectrum", "--k", "2", "--lambda", "10", "--R", "1",
               "--jobs", "1"])
    assert rc == 3
    assert "TailNotAsymptotic" in capsys.readouterr().err
    # a negative eigenmode index once rang the index-0 mode
    rc = main(["evolve", "--k", "2", "--lambda", "5", "--initial",
               "eigenmode", "--index", "-1"])
    assert rc == 3
    assert "DomainError" in capsys.readouterr().err
    # a sweep width that would bisect forever or not at all is rejected
    # before any shot
    for width in ("0", "-1", "nan"):
        rc = main(["sweep", "--k", "1", "--lambda", "3.0,4.0",
                   "--bisect-to", width, "--jobs", "1"])
        assert rc == 3
        assert "DomainError" in capsys.readouterr().err
    # arguments that would hang or crash the stepper are rejected before
    # any stepping
    bump = ["evolve", "--lambda", "1", "--initial", "bump", "--n", "1024",
            "--t-final", "52"]
    for extra in (["--energy-stride", "0"], ["--energy-stride", "-3"],
                  ["--dt", "0"], ["--dt", "nan"], ["--dt", "-1"],
                  ["--probe-r", "nan"], ["--width", "0"], ["--width", "nan"],
                  ["--R", "inf"]):
        assert main(bump + extra) == 3, extra
        assert "DomainError" in capsys.readouterr().err
    # sinh r overflows past r = 710, and with it the zero mode that builds
    # the potential: R = 800 once ran into "need dt > 0, got nan"
    wide = ["evolve", "--k", "1", "--lambda", "1", "--initial", "bump",
            "--n", "8192"]
    assert main(wide + ["--R", "800", "--t-final", "20"]) == 3
    assert "R in [40, 710]" in capsys.readouterr().err
    # 80, not 20: a spectrum needs 1024 probe samples at dt = 0.06
    assert main(wide + ["--R", "700", "--t-final", "80"]) == 0
    capsys.readouterr()
    for rho_max in ("0", "1e-5"):
        rc = main(["renorm", "--k", "2", "--lambda", "5", "--rho-max",
                   rho_max])
        assert rc == 3
        assert "DomainError" in capsys.readouterr().err


def test_spectrum_command(capsys):
    doc = _json_out(capsys, ["spectrum", "--k", "2", "--lambda", "5.0",
                             "--jobs", "1", "--no-timestamp"])
    rep = doc["results"][0]
    assert rep["count"] == 1
    assert rep["eigenvalues"][0]["mu2"] == pytest.approx(
        MU2_SPHERE_K2[5.0], rel=1e-9)
    assert rep["negative_scan_clear"] is True
    assert rep["embedded_scan_clear"] is True


def test_sweep_command_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--lambda", "0.5,1.0", "--jobs", "1",
               "--no-timestamp", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lam,count,resonance_a,resonance_b,fit_residual"
    assert len(lines) == 3
    b_half = float(lines[1].split(",")[3])
    assert b_half == pytest.approx(B_SPHERE_K1[0.5], rel=1e-4)


def test_sweep_command_ym_index(capsys):
    # the gauge family reports its own index, not the sphere default
    doc = _json_out(capsys, ["sweep", "--geometry", "ym", "--lambda",
                             "0.5,1.0", "--jobs", "1", "--no-timestamp"])
    assert doc["results"]["k"] == 2
    assert [p["lam"] for p in doc["results"]["points"]] == [0.5, 1.0]


def test_migrate_command(capsys):
    doc = _json_out(capsys, ["migrate", "--k", "2", "--lambda", "5,10",
                             "--jobs", "1", "--no-timestamp"])
    pts = doc["results"]["points"]
    assert [p["lam"] for p in pts] == [5.0, 10.0]
    assert pts[1]["mu2"] == pytest.approx(MU2_SPHERE_K2[10.0], rel=1e-8)
    assert len(doc["results"]["doubling_ratios"]) == 1


def test_largek_command(capsys):
    doc = _json_out(capsys, ["largek", "--ks", "20", "--theta", "0.9",
                             "--jobs", "1", "--no-timestamp"])
    pt = doc["results"]["points"][0]
    assert pt["count"] == 0
    assert pt["halfline_count"] == 0


def test_largek_command_theta_1e6(capsys):
    # the finite-k rows are certified on their half-line pullbacks; they
    # once left them 6.7e-4 and 2.3e-3 behind and made this exit 3
    doc = _json_out(capsys, ["largek", "--ks", "8,16", "--theta", "1e6",
                             "--jobs", "1", "--no-timestamp"])
    for pt in doc["results"]["points"]:
        assert pt["count"] == pt["halfline_count"] == 1
        assert pt["mu2"] == pt["halfline_mu2"]
        assert 0.0 < pt["mu2"] < 2e-9


def test_renorm_command(capsys):
    doc = _json_out(capsys, ["renorm", "--k", "2", "--lambda", "20",
                             "--no-timestamp"])
    summ = doc["results"]
    assert summ["rho_max"] == 20.0
    assert summ["f_min"] < 0.0
    assert 8.0 < summ["first_sign_change"] < 9.0
    assert summ["rho_bulk"] == pytest.approx(20.0 * math.atanh(0.05))
    assert summ["shoot_residual"] < 1e-6


def test_evolve_eigenmode_json(capsys):
    doc = _json_out(capsys, [
        "evolve", "--k", "2", "--lambda", "5", "--initial", "eigenmode",
        "--mu2", repr(MU2_SPHERE_K2[5.0]), "--R", "60", "--n", "1024",
        "--t-final", "120", "--no-timestamp"])
    summ = doc["results"]
    assert summ["omega_expected"] == pytest.approx(
        math.sqrt(MU2_SPHERE_K2[5.0]))
    assert abs(summ["dominant_omega"] - summ["omega_expected"]) \
        <= summ["bin_width"]
    assert summ["decay_ratio"] > 0.9
    assert summ["energy_drift"] < 1e-3


def test_evolve_bump_csv(tmp_path):
    out = tmp_path / "probe.csv"
    rc = main(["evolve", "--lambda", "1", "--initial", "bump",
               "--R", "60", "--n", "1024", "--t-final", "52",
               "--probe-r", "5", "--no-timestamp", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,probe"
    assert len(lines) > 1024
    meta = json.loads((tmp_path / "probe.csv.meta.json").read_text())
    assert meta["config"]["initial"] == "bump"


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "gapspec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout and "evolve" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["spectrum", "--k", "2", "--lambda", "5,10"],
    ["sweep", "--k", "1", "--lambda", "3.0,3.5,4.0", "--bisect-to", "1e-3"]])
def test_pooled_run_prints_serial_results(capsys, argv):
    # the worker pool changes only where the points are computed
    serial = _json_out(capsys, argv + ["--jobs", "1", "--no-timestamp"])
    pooled = _json_out(capsys, argv + ["--jobs", "2", "--no-timestamp"])
    assert pooled["results"] == serial["results"]
    assert (serial["config"]["jobs"], pooled["config"]["jobs"]) == (1, 2)
