"""Command-line interface: formats, exit codes, numeric round-trips."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hopf_flow import cli, fields, integrator, reduced_system
from hopf_flow.integrator import integrate


def run_cli(*args):
    return cli.main(list(args))


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_trace_csv_is_bit_exact_against_library(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "2",
                   "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x", "y", "z"]
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 2.0),
                     rel_tol=1e-10)
    assert len(rows) == len(traj.ts)
    for row, t, y in zip(rows, traj.ts, traj.ys):
        vals = [float(c) for c in row]
        assert vals[0] == t
        assert vals[1:] == list(y)
        # 17 significant digits survive a parse/format cycle.
        for cell, val in zip(row, vals):
            assert f"{val:.17g}" == cell


def test_trace_writes_meta_sidecar(tmp_path):
    out = tmp_path / "t.csv"
    run_cli("trace", "--start", "1,0,0", "--span", "1", "--out", str(out))
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["chart"] == "cartesian"
    assert meta["stop_reason"] == "reached_end"
    assert meta["accepted_steps"] > 0


def test_trace_dense_sampling_adds_rows(tmp_path):
    sparse = tmp_path / "a.csv"
    dense = tmp_path / "b.csv"
    run_cli("trace", "--start", "1,0,0", "--span", "2", "--out", str(sparse))
    run_cli("trace", "--start", "1,0,0", "--span", "2", "--dense", "200",
            "--out", str(dense))
    assert len(read_csv(dense)[1]) > len(read_csv(sparse)[1])


def test_trace_spherical_chart_and_axis_refusal(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run_cli("trace", "--start", "2,0,1.0", "--chart", "spherical",
                   "--span", "1", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t", "r", "phi", "psi"]
    assert all(float(r[1]) > 0 for r in rows)
    # psi = 0 starts on the chart singularity.
    assert run_cli("trace", "--start", "2,0,0", "--chart", "spherical",
                   "--span", "1", "--out", str(out)) == 2
    assert "axis" in capsys.readouterr().err


def test_trace_json_document(tmp_path):
    out = tmp_path / "t.json"
    run_cli("trace", "--start", "1,0,0", "--span", "1", "--format", "json",
            "--out", str(out))
    doc = json.loads(out.read_text())
    assert set(doc) == {"header", "rows", "meta"}
    assert doc["header"] == ["t", "x", "y", "z"]
    assert doc["meta"]["rows"] == len(doc["rows"])


def test_field_default_probes_have_unit_norm(tmp_path):
    out = tmp_path / "f.csv"
    assert run_cli("field", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header[:7] == ["x", "y", "z", "vx", "vy", "vz", "norm"]
    assert len(rows) == 5
    for row in rows:
        assert abs(float(row[6]) - 1.0) <= 1e-12


def test_field_accepts_explicit_points(tmp_path):
    out = tmp_path / "f.csv"
    run_cli("field", "--point", "2,0,0", "--point", "0,0,1",
            "--out", str(out))
    _, rows = read_csv(out)
    assert len(rows) == 2
    # rate_arctan vanishes on the radius-2 sphere.
    assert abs(float(rows[0][7])) <= 1e-14


def test_reduce_keeps_constant_level(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("reduce", "--start", "1,0.7854", "--target", "3",
                   "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["r", "H", "psi", "C1_re", "C1_im", "C1_rel_dev"]
    devs = [abs(float(r[5])) for r in rows if r[5] != "nan"]
    assert max(devs) <= 1e-6
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["reached"] is True


def test_reduce_meta_carries_work_counters(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("reduce", "--start", "1,0.7854", "--target", "3",
                   "--out", str(out)) == 0
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    for key in ("rhs_evaluations", "accepted_steps", "rejected_steps"):
        assert type(meta[key]) is int and meta[key] > 0, key
    assert meta["rhs_evaluations"] > 6 * meta["accepted_steps"]


def test_trace_reports_an_exhausted_step_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 10)
    out = tmp_path / "t.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "50", "--dense",
                   "20", "--out", str(out)) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["stop_reason"] == "max_steps"
    assert meta["accepted_steps"] + meta["rejected_steps"] == 10
    assert 0.0 < meta["t_end"] < 50.0


def test_implicit_requires_bracket(tmp_path, capsys):
    assert run_cli("implicit", "--start", "1,0.5", "--rmin", "1",
                   "--rmax", "2") == 2
    assert "bracket" in capsys.readouterr().err


def test_implicit_sweep_matches_traced_curve(tmp_path):
    out = tmp_path / "i.csv"
    assert run_cli("implicit", "--start", "1,0.5", "--rmin", "1.0",
                   "--rmax", "2.5", "--n", "7", "--bracket", "0.3,0.95",
                   "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["r", "H", "resid"]
    traj = reduced_system.trace_h(1.0, 0.5, 2.5)
    for row in rows:
        r, h, resid = (float(c) for c in row)
        if math.isnan(h):
            continue
        assert resid <= 1e-9
        np.testing.assert_allclose(h, float(traj.sample(r)[0]), atol=1e-8)


def test_implicit_exit_one_when_nothing_solves(tmp_path, capsys):
    out = tmp_path / "i.csv"
    code = run_cli("implicit", "--c1", "5.0", "--rmin", "1.0", "--rmax", "2.0",
                   "--n", "4", "--bracket", "0.1,0.9", "--out", str(out))
    assert code == 1


def test_implicit_empty_bracket_is_a_usage_error(tmp_path, capsys):
    code = run_cli("implicit", "--c1", "-4.9", "--rmin", "1.0", "--rmax",
                   "2.0", "--bracket", "0.5,0.5", "--out",
                   str(tmp_path / "i.csv"))
    assert code == 2
    assert "empty bracket" in capsys.readouterr().err


def test_rho_grid_and_exact_equator_log(tmp_path):
    out = tmp_path / "rho.csv"
    assert run_cli("rho", "--grid", "3", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["xi", "psi", "rho_re", "rho_im", "u", "v", "u_im",
                      "v_im", "log_chi", "pde_direct", "pde_parametric"]
    assert len(rows) == 9
    for row in rows:
        assert float(row[10]) <= 1e-8  # parametric residual on the grid
        assert float(row[9]) > 1e-2    # direct variant misses
    # The half-angle logarithm is exactly zero on the equator.
    single = tmp_path / "one.csv"
    run_cli("rho", "--grid", "1", "--psi", f"{math.pi / 2.0},2.0",
            "--xi", "0.4,0.5", "--out", str(single))
    _, rows = read_csv(single)
    assert float(rows[0][8]) == 0.0


def test_verify_single_check_passes(tmp_path):
    out = tmp_path / "v.json"
    assert run_cli("verify", "--only", "unit-norm", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["unit-norm"]
    assert doc["schema"] == "hopf-flow-verify/1"


def test_verify_tol_scales_tolerances(tmp_path):
    out = tmp_path / "v.json"
    assert run_cli("verify", "--only", "unit-norm", "--tol", "1e-5",
                   "--out", str(out)) == 1
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["verdict"] == "fail"
    assert doc["tol_scale"] == 1e-5


def test_verify_unknown_check_is_usage_error(capsys):
    assert run_cli("verify", "--only", "made-up-name") == 2
    assert "made-up-name" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"span": 1.0, "chart": "cartesian"}))
    out = tmp_path / "t.csv"
    assert run_cli("trace", "--start", "1,0,0", "--config", str(cfg),
                   "--out", str(out)) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["span"] == 1.0
    # Explicit flags beat the config file.
    assert run_cli("trace", "--start", "1,0,0", "--config", str(cfg),
                   "--span", "0.5", "--out", str(out)) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["span"] == 0.5


def test_config_keys_the_subcommand_does_not_take_are_usage_errors(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # "c2" is a flag of rho only; "tole" is a typo of "tol".
    cfg.write_text(json.dumps({"c2": 5, "tole": 1}))
    assert run_cli("trace", "--start", "1,0,0", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "'c2'" in err and "'tole'" in err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run_cli("trace", "--start", "1,0,0", "--config", str(cfg)) == 2


def test_unwritable_output_is_usage_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "1",
                   "--out", str(missing)) == 2


@pytest.mark.parametrize("span", ["inf", "nan"])
def test_non_finite_span_is_usage_error(span, capsys):
    assert run_cli("trace", "--start", "1,0,0", "--span", span) == 2
    assert "--span must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, message", [
    (("reduce", "--start", "nan,0.7854", "--target", "3"), None,
     "--start must be finite"),
    (("reduce", "--start", "1,0.7854", "--target", "nan"), None,
     "--target must be finite"),
    (("implicit", "--start", "1,0.5", "--rmin", "nan", "--rmax", "2",
      "--bracket", "0.3,0.9"), None, "--rmin must be finite"),
    (("implicit", "--c1", "inf", "--rmin", "1", "--rmax", "2",
      "--bracket", "0.3,0.9"), None, "--c1 must be finite"),
    (("implicit", "--start", "1,0.5", "--rmin", "1", "--rmax", "2",
      "--bracket", "0.3,inf"), None, "--bracket must be finite"),
    (("implicit", "--start", "1,0.5", "--bracket", "0.3,0.9"),
     {"rmin": 1.0, "rmax": "inf"}, "--rmax must be finite"),
], ids=["reduce-start", "reduce-target", "implicit-rmin", "implicit-c1",
        "implicit-bracket", "implicit-config-rmax"])
def test_non_finite_input_is_usage_error(argv, config, message, tmp_path,
                                         capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ("--config", str(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv, "--out", str(tmp_path / "o.csv")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_bad_start_string_is_usage_error(capsys):
    assert run_cli("trace", "--start", "1,2") == 2
    assert run_cli("trace", "--start", "a,b,c") == 2


@pytest.mark.parametrize("argv", [
    ("trace", "--start", "1e200,0,0"),
    ("trace", "--start", "0,1e100,0"),
    ("field", "--point", "1e200,0,0"),
], ids=["trace", "trace-pow-overflow", "field"])
def test_overflowing_state_is_usage_error(argv, capsys):
    # The input is finite, but (|p|^2 + 4)^2 is not.
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "overflows the field" in err
    assert "non-finite" not in err


@pytest.mark.parametrize("argv, message", [
    (("rho", "--grid", "0"), "--grid must be at least 1"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2", "--bracket",
      "0.1,0.9", "--n", "0"), "--n must be at least 1"),
    (("trace", "--start", "1,0,0", "--dense", "-3"),
     "--dense must be at least 0"),
], ids=["rho-grid", "implicit-n", "trace-dense"])
def test_count_below_its_minimum_is_usage_error(argv, message, capsys):
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_rejects_bad_tol(tol, capsys):
    assert run_cli("verify", "--only", "unit-norm", "--tol", tol) == 2
    assert "tolerance scale" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("trace", "--start", "1,0,0", "--c2", "1"),
    ("rho", "--grid", "2", "--tol", "1e-8"),
], ids=["trace-c2", "rho-tol"])
def test_flags_a_subcommand_ignores_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entrypoint_runs_as_subprocess(tmp_path):
    out = tmp_path / "t.csv"
    # The child imports the package from where this process found it,
    # installed or not.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hopf_flow.cli", "trace", "--start", "1,0,0",
         "--span", "0", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    header, rows = read_csv(out)
    assert header == ["t", "x", "y", "z"]
    assert len(rows) == 1  # zero span keeps the initial state only
