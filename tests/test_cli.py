"""Command-line interface: formats, exit codes, numeric round-trips."""

import argparse
import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopf_flow import cli, fields, first_integral, integrator, reduced_system
from hopf_flow.integrator import integrate


def run_cli(*args):
    return cli.main(list(args))


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def flag_file(path, *lines) -> str:
    """The argument @path, after writing lines, one argument each, to
    the file at path."""
    Path(path).write_text("".join(f"{line}\n" for line in lines),
                          encoding="utf-8")
    return f"@{path}"


@contextlib.contextmanager
def several_roots_recorded():
    """Records the warnings raised within, a RuntimeWarning raising, and
    asserts that each is the one an implicit sweep may raise: radii with
    several roots in the bracket."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        yield
    for w in caught:
        assert w.category is UserWarning
        assert re.fullmatch(r"\d+ of \d+ radii have several roots in the "
                            r"bracket; returning the one nearest the "
                            r"midpoint", str(w.message)), str(w.message)


def run_quietly(*argv) -> tuple[int, str]:
    """(exit code, stderr) of main(argv), which returns 0, 1 or 2 and
    raises no SystemExit; within, a RuntimeWarning raises and implicit's
    several roots are the only warning allowed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), several_roots_recorded():
        code = run_cli(*argv)
    assert code in (0, 1, 2), code
    return code, err.getvalue()


def given_flags(values: dict, from_file: bool, tmp: str) -> list[str]:
    """The arguments --FLAG=VALUE of values: on the command line, or in a
    flag file under tmp when from_file."""
    args = [f"--{flag}={value}" for flag, value in values.items()]
    if from_file:
        return [flag_file(os.path.join(tmp, "flags"), *args)]
    return args


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


def test_trace_rows_are_the_integrators_nodes(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "3", "--dense",
                   "7", "--out", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 3.0),
                     rel_tol=1e-10)
    node = np.isin(rows[:, 0], traj.ts)
    assert rows[node, 0].tobytes() == traj.ts.tobytes()
    assert rows[node, 1:].tobytes() == traj.ys.tobytes()
    # The dense times between nodes, each the interpolant at its time.
    between = rows[~node]
    assert set(np.linspace(0.0, 3.0, 8)) <= set(rows[:, 0])
    assert len(between) > 0 and np.all(np.diff(rows[:, 0]) > 0)
    for t, *y in between:
        assert np.array(y).tobytes() == traj.sample(t).tobytes()


def test_trace_writes_a_negative_zero_start_as_given(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli("trace", "--start=-0.0,1.1,0", "--span", "1", "--dense",
                   "3", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert rows[0] == ["0", "-0", "1.1000000000000001", "0"]


def test_write_csv_streams_blocks_of_rows(tmp_path):
    rows = np.random.default_rng(5).standard_normal((50_000, 4))
    floats = rows.tolist()
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cli.write_csv(str(out), ["a", "b", "c", "d"], floats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Building the whole text first would peak above the file's size.
    assert peak < out.stat().st_size / 2
    assert np.loadtxt(out, delimiter=",", skiprows=1).tobytes() == \
        rows.tobytes()


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


def test_reduce_at_its_own_target_writes_its_start_point(tmp_path):
    # A target within 1e-12 relative of r0 traces no segment; the curve
    # is then the start point, not an empty CSV.
    for target in ("1", "1.0000000000001"):
        out = tmp_path / "r.csv"
        assert run_cli("reduce", "--start", "1,0.7854", "--target", target,
                       "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert [[float(x) for x in row[:3]] for row in rows] == \
            [[1.0, math.sin(0.7854) ** 2, 0.7854]]
        assert float(rows[0][5]) == 0.0
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert (meta["reached"], meta["rows"], meta["segments"]) == \
            (True, 1, 0)


def test_reduce_meta_carries_work_counters(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("reduce", "--start", "1,0.7854", "--target", "3",
                   "--out", str(out)) == 0
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    for key in ("rhs_evaluations", "accepted_steps", "rejected_steps"):
        assert type(meta[key]) is int and meta[key] > 0, key
    assert meta["rhs_evaluations"] > 6 * meta["accepted_steps"]


@pytest.mark.parametrize("argv, message", [
    (("--start", "1,0.7854", "--target", "1e62"),
     "hopf-flow: need 0 < r <= 1e+61, got --target=1e+62"),
    (("--start", "1e62,0.7854", "--target", "2"),
     "hopf-flow: need 0 < r <= 1e+61, got --start r0=1e+62"),
    (("--start", "1,0.7854", "--target=-1"),
     "hopf-flow: need 0 < r <= 1e+61, got --target=-1.0"),
], ids=["target", "start", "negative-target"])
def test_reduce_names_the_flag_of_a_radius_out_of_range(argv, message,
                                                        capsys):
    assert run_cli("reduce", *argv) == 2
    assert capsys.readouterr().err == message + "\n"


def test_trace_reports_an_exhausted_step_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 10)
    out = tmp_path / "t.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "50", "--dense",
                   "20", "--out", str(out)) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["stop_reason"] == "max_steps"
    assert meta["accepted_steps"] + meta["rejected_steps"] == 10
    assert 0.0 < meta["t_end"] < 50.0


def test_trace_and_reduce_report_a_stalled_run(tmp_path, monkeypatch):
    # Every window of 5 accepted steps advances less than the whole span:
    # each run stops "stalled" at its fifth accepted step.
    monkeypatch.setattr(integrator, "STALL_WINDOW", 5)
    monkeypatch.setattr(integrator, "STALL_FRACTION", 1.0)
    out = tmp_path / "t.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "50",
                   "--out", str(out)) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["stop_reason"] == "stalled"
    assert meta["accepted_steps"] == 5 and 0.0 < meta["t_end"] < 50.0
    out = tmp_path / "r.csv"
    assert run_cli("reduce", "--start", "1,0.7854", "--target", "200",
                   "--out", str(out)) == 0
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert not meta["reached"]
    assert meta["stop_note"] == "stalled in r-parametrization"


def test_implicit_residual_of_a_constant_near_the_float_range(tmp_path):
    # The terms c1 (4 + r^2) I0 of so large a constant pass the float range
    # unless scaled; the two rows the sweep solves have a finite residual.
    out = tmp_path / "i.csv"
    assert run_cli("implicit", "--c1=1e307", "--rmin", "1", "--rmax", "12",
                   "--n", "8", "--bracket", "0.01,0.99",
                   "--out", str(out)) == 0
    _, rows = read_csv(out)
    solved = [float(resid) for _, h, resid in rows if h != "nan"]
    assert len(solved) == 2
    assert all(0.0 <= resid <= 1e-9 for resid in solved)


def test_implicit_requires_bracket(tmp_path, capsys):
    assert run_cli("implicit", "--start", "1,0.5", "--rmin", "1",
                   "--rmax", "2") == 2
    assert ("hopf-flow implicit: error: the following arguments are "
            "required: --bracket") in capsys.readouterr().err


# The parser holds each subcommand's contract: a missing required flag, or
# both or neither of implicit's --c1 and --start, exits 2 naming them.
@pytest.mark.parametrize("argv, message", [
    (("trace", "--span", "1"), "the following arguments are required: "
     "--start"),
    (("reduce", "--start", "1,0.7854"), "the following arguments are "
     "required: --target"),
    (("reduce",), "the following arguments are required: --start, --target"),
    (("implicit", "--start", "1,0.5", "--bracket", "0.3,0.9"),
     "the following arguments are required: --rmin, --rmax"),
    (("implicit", "--rmin", "1", "--rmax", "2", "--bracket", "0.3,0.9"),
     "one of the arguments --c1 --start is required"),
    (("implicit", "--c1", "-4.9", "--start", "1,0.5", "--rmin", "1",
      "--rmax", "2", "--bracket", "0.3,0.9"),
     "argument --start: not allowed with argument --c1"),
], ids=["trace-start", "reduce-target", "reduce-both", "implicit-radii",
        "implicit-neither-constant", "implicit-both-constants"])
def test_the_parser_refuses_a_missing_required_flag(argv, message, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_main_returns_the_exit_code_of_help_and_of_the_parsers_refusal(
        capsys):
    assert run_cli("trace", "--help") == 0
    assert capsys.readouterr().out.startswith("usage: hopf-flow trace ")
    assert run_cli() == 2
    assert capsys.readouterr().err.endswith(
        "hopf-flow: error: the following arguments are required: command\n")


# Refusals that need several flags' values, or computing, are the
# subcommands' own; each names its flag, as the parser's do.
@pytest.mark.parametrize("argv, message", [
    (("implicit", "--start", "1,0.5", "--rmin=-1", "--rmax", "2", "--n", "4",
      "--bracket", "0.3,0.95"),
     "hopf-flow: need 0 < r <= 1e+61, got --rmin=-1.0\n"),
    (("implicit", "--start", "1,0.5", "--rmin", "1", "--rmax", "1e62",
      "--n", "4", "--bracket", "0.3,0.95"),
     "hopf-flow: need 0 < r <= 1e+61, got --rmax=1e+62\n"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2",
      "--bracket", "0.5,0.5"),
     "hopf-flow: --bracket 0.5,0.5 is an empty bracket; need lo < hi\n"),
    (("implicit", "--start", "1,2", "--rmin", "1", "--rmax", "2",
      "--bracket", "0.3,0.95"),
     "hopf-flow: --start 1.0,2.0: need r > 0 and H in (0, 1]\n"),
    (("rho", "--xi=-1,1"),
     "hopf-flow: --xi must be positive, got -1.0,1.0\n"),
    (("reduce", "--start", "1,4", "--target", "2"),
     "hopf-flow: --start psi0 must lie in (0, pi), got 4.0\n"),
    (("trace", "--chart", "spherical", "--start=-1,0,1"),
     "hopf-flow: --start needs r > 0 in the spherical chart, got r=-1.0\n"),
    (("trace", "--chart", "spherical", "--start", "2,0,0"),
     "hopf-flow: --start lies on the z-axis where the spherical chart is "
     "singular; use the cartesian chart\n"),
    (("trace", "--start", "1e200,0,0"),
     "hopf-flow: --start 1e+200,0.0,0.0: Cartesian state (1e+200, 0.0, 0.0) "
     "overflows the field"),
    (("trace", "--chart", "spherical", "--start", "1e200,0,1"),
     "hopf-flow: --start 1e+200,0.0,1.0: the field's slope there, "
     "[nan, nan, nan], is not finite\n"),
    (("trace", "--chart", "spherical", "--start", "1e-300,0,1"),
     "hopf-flow: --start 1e-300,0.0,1.0: the slope at the start, "
     "[0.5403023058681398, 2.0, -8.414709848078965e+299], is not finite or "
     "too steep to take a step\n"),
    (("field", "--point", "1e77,0,0"),
     "hopf-flow: --point 1e+77,0.0,0.0: Cartesian state (1e+77, 0.0, 0.0) "
     "overflows the field"),
    (("verify", "--only", "nope"),
     "hopf-flow verify: error: argument --only: unknown check 'nope'; "
     "known: unit-norm, rate-identities, "),
    (("verify", "--tol", "0"),
     "hopf-flow verify: error: argument --tol: the tolerance scale must be "
     "positive, got '0'\n"),
], ids=["implicit-rmin", "implicit-rmax", "implicit-bracket",
        "implicit-start", "rho-xi", "reduce-psi0", "trace-spherical-r",
        "trace-spherical-axis", "trace-cartesian-overflow",
        "trace-spherical-overflow", "trace-spherical-steep",
        "field-point-overflow", "verify-only", "verify-tol"])
def test_each_refusal_names_its_flag(argv, message, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == "" and not out.exists()


def _bench_workloads(monkeypatch):
    """The benchmark's bench/workloads.py, imported from its file without
    writing bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# What the parser reads from the benchmark's seed-0 invocations.
_BENCH_SEED_0 = {
    "rho": {"grid": 32, "xi": (0.12, 0.72),
            "psi": (0.3, 2.8415926535897933), "c2": 1.0, "f1": None,
            "format": "csv"},
    "implicit-series": {"start": (1.0, 0.5), "c1": None, "rmin": 1.0,
                        "rmax": 4.0, "n": 100, "bracket": (0.3, 0.95)},
    "implicit-cf": {"start": (10.0, 0.5), "c1": None, "rmin": 8.5,
                    "rmax": 20.0, "n": 100, "bracket": (0.05, 0.99)},
    "trace": {"start": (1.0, 0.0, 0.0), "span": 500.0, "dense": 500,
              "tol": 1e-10, "chart": "cartesian", "format": "csv"},
    "reduce": {"start": (1.0, 0.7854), "target": 200.0, "tol": 1e-10},
    "verify": {"tol": 1.0, "only": None, "format": "json"},
}


def test_the_parser_reads_every_benchmark_invocation(monkeypatch):
    workloads = _bench_workloads(monkeypatch)
    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        for seed, tiny in [(0, False), (1, False), (2, False), (3, False),
                           (0, True)]:
            for inv in workloads.invocations(name, seed, tiny):
                argv = [*inv.argv, "--out", f"{inv.name}.{inv.ext}"]
                try:
                    ns = parser.parse_args(argv)
                except SystemExit:
                    pytest.fail(f"the parser refuses {argv}")
                assert ns.command == inv.argv[0]
                if (seed, tiny) == (0, False):
                    pinned = _BENCH_SEED_0[inv.name]
                    assert {k: getattr(ns, k) for k in pinned} == pinned, (
                        inv.name)
    assert {inv.name for name in workloads.WORKLOADS
            for inv in workloads.invocations(name, 0)} == set(_BENCH_SEED_0)


# Each subcommand's flags, as `--help` lists them.
_FLAGS = {
    "trace": {"--out", "--format", "--tol", "--start", "--span", "--chart",
              "--dense"},
    "field": {"--out", "--format", "--point"},
    "reduce": {"--out", "--format", "--tol", "--start", "--target"},
    "implicit": {"--out", "--format", "--c1", "--start", "--rmin", "--rmax",
                 "--n", "--bracket"},
    "rho": {"--out", "--format", "--c2", "--f1", "--grid", "--xi", "--psi"},
    "verify": {"--out", "--tol", "--only"},
}


def test_each_subcommand_takes_its_flags_and_help_states_the_defaults():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(_FLAGS)
    for name, parser in commands.items():
        flags = {s for a in parser._actions for s in a.option_strings
                 if s.startswith("--") and s != "--help"}
        assert flags == _FLAGS[name], name
        text = " ".join(parser.format_help().split())
        for action in parser._actions:
            if action.option_strings[0] != "-h" and action.default:
                assert f"(default {action.default}" in text, (name, action)


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


def test_verify_reports_a_nan_residual_as_a_failed_check(tmp_path,
                                                         monkeypatch):
    # A NaN figure fails its check, not the run: the other checks still
    # run and the document is written.
    measured = fields.pushforward_sign()
    monkeypatch.setattr(fields, "pushforward_sign", lambda: dataclasses.replace(
        measured, max_residual=math.nan))
    out = tmp_path / "v.json"
    assert run_cli("verify", "--only", "pushforward-sign", "--only",
                   "unit-norm", "--out", str(out)) == 1
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    unit, sign = doc["checks"]
    assert unit["name"] == "unit-norm" and unit["verdict"] == "pass"
    assert sign["name"] == "pushforward-sign" and sign["verdict"] == "fail"
    assert sign["details"]["non_finite"] == 1
    assert sign["max_abs"] == sign["rms"] == 0.0


def test_config_file_supplies_defaults(tmp_path):
    # A flag file placed first gives defaults; a flag after it wins.
    flags = flag_file(tmp_path / "flags", "--span", "1.0", "--chart=cartesian")
    out = tmp_path / "t.csv"
    assert run_cli("trace", flags, "--start", "1,0,0", "--out", str(out)) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["span"] == 1.0
    assert run_cli("trace", flags, "--start", "1,0,0", "--span", "0.5",
                   "--out", str(out)) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert meta["span"] == 0.5


def test_config_keys_the_subcommand_does_not_take_are_usage_errors(
        tmp_path, capsys):
    # "--c2" is a flag of rho only; "--tole" is a typo of "--tol".
    flags = flag_file(tmp_path / "flags", "--c2", "5", "--tole=1")
    assert run_cli("trace", "--start", "1,0,0", flags) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --c2 5 --tole=1" in err


# A flag file lists the flags, comma-separated and repeatable ones too, as
# the command line spells them, one argument per line.
@pytest.mark.parametrize("argv, flags", [
    (("rho", "--grid", "2"), ("--xi=0.1,0.5", "--psi=0.5,2")),
    (("reduce", "--target", "3"), ("--start=1,0.7854",)),
    (("implicit", "--rmin", "1", "--rmax", "2", "--n", "3"),
     ("--start=1,0.5", "--bracket", "0.3,0.95")),
    (("field",), ("--point=0,0,3", "--point=1e-3,2,-1")),
    (("field",), ("--point", "1,2,3")),
    (("verify",), ("--only=unit-norm",)),
    (("verify",), ("--only=unit-norm", "--only=turning-slope")),
    (("trace",), ("--start=1,0,0", "--span", "2", "--dense=7", "--tol=1e-8")),
], ids=["rho-xi-psi", "reduce-start", "implicit-start-bracket",
        "field-points", "field-one-point", "verify-one-only",
        "verify-only-list", "trace-start-span-dense-tol"])
def test_config_lists_for_comma_flags(argv, flags, tmp_path):
    from_file, inline = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*argv, flag_file(tmp_path / "flags", *flags), "--out",
                   str(from_file)) == 0
    assert run_cli(*argv, *flags, "--out", str(inline)) == 0
    assert from_file.read_bytes() == inline.read_bytes()
    meta = Path(f"{from_file}.meta.json")
    if meta.exists():
        assert meta.read_bytes() == Path(f"{inline}.meta.json").read_bytes()


# JSON pasted into a flag file is refused as the command line refuses it.
@pytest.mark.parametrize("argv, flags, message", [
    (("rho", "--grid", "2"), ("--xi=0.1",), "argument --xi: expected 2"),
    (("rho", "--grid", "2"), ("--psi", "0.5"), "argument --psi: expected 2"),
    (("rho", "--grid", "2"), ('--xi={"lo": 0.1}',),
     "argument --xi: expected 2"),
    (("reduce", "--target", "3"), ("--start=1,x",),
     "argument --start: expected a number"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2"),
     ("--bracket=0.3,[0.9]",), "argument --bracket: expected a number"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2"),
     (f"--bracket=0.3,{10 ** 400}",), "argument --bracket: must be finite"),
    (("field",), ("--point=5",), "argument --point: expected 3"),
], ids=["short-list", "number", "object", "word", "nested", "huge-int",
        "point-number"])
def test_malformed_config_values_for_comma_flags_are_usage_errors(
        argv, flags, message, tmp_path, capsys):
    assert run_cli(*argv, flag_file(tmp_path / "flags", *flags)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("psi", ["0,1", "5e-324,1", "1,3.1415926535897",
                                 "4,5"])
def test_psi_range_at_or_past_its_ends_is_usage_error(psi, capsys):
    # tan(psi/2) is 0 or infinite there (1 + cos rounds to 0 near pi).
    assert run_cli("rho", "--grid", "2", f"--psi={psi}") == 2
    assert "--psi must lie in (0, pi)" in capsys.readouterr().err


# Each comma-separated flag with its subcommand, set up so that every run
# is short: a span of 0.01, three sweep radii, a 2x2 grid.
_COMMA_FLAGS = [
    (("trace", "--span", "0.01"), "start"),
    (("trace", "--chart", "spherical", "--span", "0.01"), "start"),
    (("reduce", "--target", "2"), "start"),
    (("implicit", "--rmin", "1", "--rmax", "2", "--n", "3", "--bracket",
      "0.3,0.95"), "start"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2", "--n", "3"),
     "bracket"),
    (("rho", "--grid", "2"), "xi"),
    (("rho", "--grid", "2"), "psi"),
    (("rho", "--grid", "2"), "f1"),
    (("field",), "point"),
]
# Words no number reader takes: non-finite numbers, a number past the
# float range, malformed numbers and two numbers for one.
_NOT_NUMBERS = st.sampled_from(["nan", "-inf", "1e999", str(10 ** 400), "x",
                                "", "True", "[1]", "1,2"])


def _refusal(message: str, command: str, flags) -> str | None:
    """Who refused a run that exited 2 with message: "parser" when the
    parser named one of flags as "argument --FLAG:", "subcommand" for a
    refusal of the subcommand's own; None for anything else."""
    if any(f"\nhopf-flow {command}: error: argument --{flag}: " in message
           for flag in flags):
        return "parser"
    return "subcommand" if message.startswith("hopf-flow: ") else None


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_COMMA_FLAGS),
       values=st.lists((st.floats(allow_nan=False, allow_infinity=False)
                        | st.integers()).map(repr) | _NOT_NUMBERS,
                       max_size=4),
       from_file=st.booleans())
def test_finite_comma_flag_values_run_or_exit_2(case, values, from_file):
    argv, flag = case
    with tempfile.TemporaryDirectory() as tmp:
        code, message = run_quietly(
            *argv, *given_flags({flag: ",".join(values)}, from_file, tmp),
            "--out", os.path.join(tmp, "o"))
    # An implicit sweep whose well-formed bracket holds no root anywhere
    # is a runtime failure by design (exit 1).
    no_roots = (argv[0] == "implicit" and code == 1
                and "found no roots" in message)
    assert (code == 0 or no_roots
            or (code == 2 and _refusal(message, argv[0], [flag]))), message


# Any finite number, or one where the sweep can find roots.
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(rmin=_ANY_FLOAT | st.floats(-1.0, 25.0),
       rmax=_ANY_FLOAT | st.floats(-1.0, 25.0),
       c1=_ANY_FLOAT | st.floats(-10.0, 2.0),
       bracket=st.tuples(_ANY_FLOAT | st.floats(-0.1, 1.1),
                         _ANY_FLOAT | st.floats(-0.1, 1.1)),
       n=st.integers(1, 8), from_file=st.booleans())
# Radii past reduced_system's bound of 1e61, where 4 + r^2 is not a float
# while z = sqrt(H) r / 2 is in the Bessel range: refused, naming --rmin.
@example(rmin=1e155, rmax=1e156, c1=-4.9, bracket=(1e-310, 1e-306), n=2,
         from_file=False)
# Roots whose residual terms c1 (4 + r^2) I0 pass the float range.
@example(rmin=1.0, rmax=12.0, c1=1e307, bracket=(0.01, 0.99), n=8,
         from_file=False)
# A scan point whose Bessel argument is the smallest subnormal.
@example(rmin=4.2629375274477494e-216, rmax=4.2629375274477494e-216, c1=0.0,
         bracket=(4.2629375274477494e-216, 1.0), n=1, from_file=False)
def test_finite_implicit_flags_run_or_exit_2(rmin, rmax, c1, bracket, n,
                                             from_file):
    values = {"rmin": repr(rmin), "rmax": repr(rmax), "c1": repr(c1),
              "bracket": ",".join(map(repr, bracket)), "n": n}
    with tempfile.TemporaryDirectory() as tmp:
        code, message = run_quietly(
            "implicit", *given_flags(values, from_file, tmp),
            "--out", os.path.join(tmp, "o"))
    assert (code == 0 or (code == 2 and _refusal(message, "implicit", values))
            or (code == 1 and "found no roots" in message)), (code, message)


@settings(max_examples=150, deadline=None)
@given(start=st.tuples(*[_ANY_FLOAT | st.floats(-3.0, 3.0)
                         | st.floats(0.1, 3.0)] * 3),
       span=st.floats(-50.0, 50.0) | _NOT_NUMBERS,
       tol=(_ANY_FLOAT | st.floats(1e-14, 1e-2)
            | st.sampled_from([1e-3, 1e-6, 1e-10]) | _NOT_NUMBERS),
       dense=st.integers(0, 50),
       chart=st.sampled_from(["cartesian", "spherical", "polar", ""]),
       from_file=st.booleans())
# An escaping orbit whose state leaves the field's domain mid-run.
@example(start=(1.0, 0.0, 0.0), span=1e300, tol=1e-3, dense=0,
         chart="cartesian", from_file=False)
# An angle at the largest float, which the dense interpolant overflows.
@example(start=(1.25, 0.0, 1.7976931348623157e308), span=1.0,
         tol=0.0078125, dense=3, chart="spherical", from_file=False)
# A backward span, whose rows run from t = 0 down.
@example(start=(1.0, 0.0, 0.0), span=-2.0, tol=1e-10, dense=4,
         chart="cartesian", from_file=False)
def test_finite_trace_flags_run_or_exit_2(start, span, tol, dense, chart,
                                          from_file):
    values = {"start": ",".join(map(repr, start)), "span": _as_flag(span),
              "tol": _as_flag(tol), "chart": chart}
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for count in dict.fromkeys([dense, 0]):
            out = os.path.join(tmp, f"o{count}")
            code, message = run_quietly(
                "trace", *given_flags({**values, "dense": count}, from_file,
                                      tmp), "--out", out)
            assert code == 0 or (code == 2 and _refusal(message, "trace",
                                                        values)), (
                code, message)
            if code != 0:
                return
            runs.append(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2))
    # Rows run in the direction of travel, and the node rows are the
    # --dense 0 rows.
    rows, nodes = runs[0], runs[-1]
    assert np.all(np.diff(math.copysign(1.0, float(span)) * rows[:, 0]) > 0)
    on_node = np.isin(rows[:, 0], nodes[:, 0])
    assert rows[on_node].tobytes() == nodes.tobytes()


# A number flag's value, spelt on the command line by _as_flag: numbers
# finite or not, their strings, other words, bools and lists.
_NUMBER_VALUES = (st.floats() | st.integers(-10 ** 400, 10 ** 400)
                  | st.floats().map(repr)
                  | st.sampled_from(["nan", "-inf", "1e999", "x", "", "1,2"])
                  | st.booleans() | st.lists(st.floats(-3.0, 3.0), max_size=3))
# Each subcommand with the flags that keep its runs short, and each of its
# number and word flags with the values it usually takes: rho's grid is
# 2x2, implicit sweeps three radii and verify runs one check.
_NUMBER_FLAGS = {
    "rho": (("rho", "--grid", "2"),
            {"c2": st.floats(-5.0, 250.0), "f1": st.floats(1e-14, 1e-2)}),
    "reduce": (("reduce", "--start", "1,0.7854"),
               {"target": st.floats(-5.0, 250.0),
                "tol": st.floats(1e-14, 1e-2)}),
    "implicit": (("implicit", "--n", "3", "--bracket", "0.3,0.95"),
                 {"c1": st.floats(-10.0, 2.0), "rmin": st.floats(-1.0, 25.0),
                  "rmax": st.floats(-1.0, 25.0)}),
    "verify": (("verify",), {"tol": st.floats(1e-3, 1e3),
                             "only": st.sampled_from(["unit-norm",
                                                      "bessel-wronskian"])}),
    "trace": (("trace", "--start", "1,0,1", "--span", "0.5"),
              {"chart": st.sampled_from(["cartesian", "spherical"]),
               "format": st.sampled_from(["csv", "json"])}),
    "field": (("field",), {"format": st.sampled_from(["csv", "json"])}),
}


def _as_flag(value) -> str:
    """value as the command line spells it."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return repr(value)


def _or_in(usual: st.SearchStrategy) -> st.SearchStrategy:
    """A value drawn from usual half of the time, else from
    _NUMBER_VALUES, so that runs with every flag usable are common."""
    return st.tuples(st.booleans(), usual, _NUMBER_VALUES).map(
        lambda t: t[1] if t[0] else t[2])


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(list(_NUMBER_FLAGS)).flatmap(
           lambda command: st.tuples(st.just(command), st.tuples(
               *map(_or_in, _NUMBER_FLAGS[command][1].values())))),
       from_file=st.booleans())
@example(case=("rho", (math.nan, ())), from_file=False)
@example(case=("rho", (True, [math.inf])), from_file=False)
@example(case=("reduce", (200.0, 1e-14)), from_file=False)
@example(case=("reduce", (-1.0, "nan")), from_file=False)
# Past reduced_system's radius bound of 1e61.
@example(case=("reduce", (1.0000000000000001e+61, 1e-10)), from_file=False)
@example(case=("implicit", (-4.9, -1.0, 2.0)), from_file=True)
@example(case=("verify", (0.0, "nope")), from_file=False)
def test_number_flags_run_or_exit_2(case, from_file):
    command, values = case
    argv, flags = _NUMBER_FLAGS[command]
    with tempfile.TemporaryDirectory() as tmp:
        given = dict(zip(flags, map(_as_flag, values)))
        code, message = run_quietly(*argv, *given_flags(given, from_file, tmp),
                                    "--out", os.path.join(tmp, "o"))
    refusal = code == 2 and _refusal(message, command, flags)
    # A subcommand's refusal names one of the flags too.
    named = refusal == "parser" or (refusal == "subcommand" and any(
        f"--{flag}" in message for flag in flags))
    # A sweep that finds no root, or a check that fails, exits 1.
    failed = code == 1 and ((command, message) == ("verify", "") or (
        command == "implicit" and "found no roots" in message))
    assert code == 0 or named or failed, (code, message)


def test_rho_refuses_a_c2_whose_terms_overflow(tmp_path, capsys):
    # At xi = 0.12 the product 256 c2 overflows before x^4 scales it down,
    # so c2 = 1e308 gives NaN rows; c2 = -1e300 still gives finite ones.
    grid = ("rho", "--grid", "1", "--xi", "0.12,0.2", "--psi", "0.3,1")
    assert run_cli(*grid, "--c2", "1e308") == 2
    assert ("hopf-flow: --c2 1e+308 takes rho, u or v past the float range "
            "at 1 of the 1 grid points") in capsys.readouterr().err
    out = tmp_path / "rho.csv"
    assert run_cli(*grid, "--c2=-1e300", "--out", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.isfinite(rows[:, 2:8]).all()


@pytest.mark.parametrize("xi, lost", [("1e52,1e53", 4), ("1e50,1e53", 2),
                                      ("1e-200,1e-160", 4)])
def test_rho_refuses_an_xi_range_that_overflows(capsys, xi, lost):
    # Above xi ~1e51 (x^6 overflows) and below ~1e-152 rho, u or v is
    # lost at --c2 1 as at any other: the grid itself is out of range.
    grid = ("rho", "--grid", "2", "--xi", xi, "--psi", "0.3,1")
    for c2 in ("1", "2"):
        assert run_cli(*grid, "--c2", c2) == 2
        err = capsys.readouterr().err
        assert err.startswith("hopf-flow: --xi ")
        assert f"at {lost} of the 4 grid points" in err


def test_rho_names_the_discriminant_root_it_divides_by_zero_at(tmp_path,
                                                               capsys):
    # At DISC_XI_HIGH the discriminant is exactly 0, so s = 0 divides the
    # atan terms by zero at any c2; at DISC_XI_LOW it rounds to a tiny s
    # and rho stays finite.
    high = first_integral.DISC_XI_HIGH
    for c2 in ("1", "2"):
        assert run_cli("rho", "--grid", "2", "--xi", f"{high!r},5",
                       "--psi", "0.3,1", "--c2", c2) == 2
        assert capsys.readouterr().err == (
            f"hopf-flow: --xi {high!r},5.0 puts 2 of the 4 grid points on the "
            f"discriminant root xi = {high!r}, where rho divides by zero\n")
    out = tmp_path / "rho.csv"
    assert run_cli("rho", "--grid", "2", "--xi",
                   f"{first_integral.DISC_XI_LOW!r},1", "--psi", "0.3,1",
                   "--out", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.isfinite(rows[:, 2:8]).all()


def test_back_to_back_calls_leak_nothing_into_each_other(tmp_path):
    # One parser serves every call in a process: repeated flags, and
    # values a flag file gave, must not carry over to the next call.
    out = tmp_path / "o"

    def doc(*argv):
        assert run_cli(*argv, "--out", str(out)) == 0
        return json.loads(out.read_text())

    assert len(doc("field", "--point", "1,0,0", "--point", "0,1,0",
                   "--format", "json")["rows"]) == 2
    assert len(doc("field", "--point", "0,0,2",
                   "--format", "json")["rows"]) == 1
    assert len(doc("field", "--format", "json")["rows"]) == 5
    for only in ("unit-norm", "bessel-wronskian"):
        checks = doc("verify", "--only", only)["checks"]
        assert [c["name"] for c in checks] == [only]
    flags = flag_file(tmp_path / "flags", "--span=0.5", "--dense=3",
                      "--tol=1e-6")
    meta = doc("trace", flags, "--start", "1,0,0", "--format", "json")["meta"]
    assert (meta["span"], meta["dense_samples"], meta["rel_tol"]) == (
        0.5, 3, 1e-6)
    meta = doc("trace", "--start", "1,0,0", "--format", "json")["meta"]
    assert (meta["span"], meta["dense_samples"], meta["rel_tol"]) == (
        10.0, 0, 1e-10)


def test_malformed_config_is_usage_error(tmp_path, capsys):
    # A line that is no flag of trace, and a flag file that is missing.
    for flags in (flag_file(tmp_path / "bad", "{not json"),
                  f"@{tmp_path / 'missing'}"):
        assert run_cli("trace", "--start", "1,0,0", flags) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: {not json" in err
    assert "missing" in err
    # A flag file that is not text.
    (tmp_path / "binary").write_bytes(b"--span=\xff\n")
    assert run_cli("trace", "--start", "1,0,0", f"@{tmp_path / 'binary'}") == 2
    assert capsys.readouterr().err.startswith(
        "hopf-flow: 'utf-8' codec can't decode byte 0xff")


def test_unwritable_output_is_usage_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "1",
                   "--out", str(missing)) == 2


@pytest.mark.parametrize("span", ["inf", "nan"])
def test_non_finite_span_is_usage_error(span, capsys):
    assert run_cli("trace", "--start", "1,0,0", "--span", span) == 2
    assert (f"hopf-flow trace: error: argument --span: must be finite, "
            f"got '{span}'\n") in capsys.readouterr().err


# Each case's flags, when given, are read from a flag file.
@pytest.mark.parametrize("argv, flags, message", [
    (("reduce", "--start", "nan,0.7854", "--target", "3"), None,
     "argument --start: must be finite"),
    (("reduce", "--start", "1,0.7854", "--target", "nan"), None,
     "argument --target: must be finite"),
    (("implicit", "--start", "1,0.5", "--rmin", "nan", "--rmax", "2",
      "--bracket", "0.3,0.9"), None, "argument --rmin: must be finite"),
    (("implicit", "--c1", "inf", "--rmin", "1", "--rmax", "2",
      "--bracket", "0.3,0.9"), None, "argument --c1: must be finite"),
    (("implicit", "--start", "1,0.5", "--rmin", "1", "--rmax", "2",
      "--bracket", "0.3,inf"), None, "argument --bracket: must be finite"),
    (("implicit", "--start", "1,0.5", "--bracket", "0.3,0.9"),
     ("--rmin=1.0", "--rmax=inf"), "argument --rmax: must be finite"),
    (("rho", "--grid", "2", "--f1", "nan"), None,
     "argument --f1: must be finite"),
    (("rho", "--grid", "2", "--f1", "0.5,inf"), None,
     "argument --f1: must be finite"),
    (("rho", "--grid", "2", "--f1", "0.5,x"), None,
     "argument --f1: expected a number"),
    (("rho", "--grid", "2"), ("--f1=0.25,inf",),
     "argument --f1: must be finite"),
    (("rho", "--grid", "2"), ("--f1=nan",), "argument --f1: must be finite"),
    (("rho", "--grid", "2", "--c2", "nan"), None,
     "argument --c2: must be finite"),
    (("rho", "--grid", "2", "--c2", "inf"), None,
     "argument --c2: must be finite"),
    (("rho", "--grid", "2"), ("--c2=[1]",),
     "argument --c2: expected a number"),
    (("trace", "--start", "1,0,0"), ("--tol=[1]",),
     "argument --tol: expected a number"),
    (("reduce", "--start", "1,0.7854", "--target", "3"), ("--tol=[1]",),
     "argument --tol: expected a number"),
    (("verify", "--only", "unit-norm"), ("--tol=[1]",),
     "argument --tol: expected a number, got '[1]'"),
    (("trace", "--start", "1,0,0"), ("--chart=5",),
     "argument --chart: invalid choice: '5' (choose from 'cartesian', "
     "'spherical')"),
    (("trace", "--start", "1,0,0"), ("--format=xml",),
     "argument --format: invalid choice: 'xml' (choose from 'csv', "
     "'json')"),
    (("trace", "--start", "1,0,0"), ("--span=True",),
     "argument --span: expected a number, got 'True'"),
    (("verify",), ("--only=5",),
     "argument --only: unknown check '5'; known: unit-norm, "),
    (("implicit", "--c1", "-4.9", "--start", "1,0.5", "--rmin", "1",
      "--rmax", "2", "--bracket", "0.3,0.9"), None,
     "argument --start: not allowed with argument --c1"),
    (("trace", "--start", "1,0,0", "--tol", "1e-15"), None,
     "argument --tol: rel_tol must lie in [1e-14, 1e-2), got 1e-15"),
    (("reduce", "--start", "1,0.7854", "--target", "3", "--tol", "0.5"), None,
     "argument --tol: rel_tol must lie in [1e-14, 1e-2), got 0.5"),
    (("trace", "--start", "1,0,0"), ("--tol=0.01",),
     "argument --tol: rel_tol must lie in [1e-14, 1e-2), got 0.01"),
], ids=["reduce-start", "reduce-target", "implicit-rmin", "implicit-c1",
        "implicit-bracket", "implicit-config-rmax", "rho-f1-nan",
        "rho-f1-inf", "rho-f1-word", "rho-config-f1-list",
        "rho-config-f1-string", "rho-c2-nan", "rho-c2-inf",
        "rho-config-c2-list", "trace-config-tol-list",
        "reduce-config-tol-list", "verify-config-tol-list",
        "trace-config-chart-number", "trace-config-format-word",
        "trace-config-span-bool", "verify-config-only-number",
        "implicit-c1-and-start", "trace-tol-range", "reduce-tol-range",
        "trace-config-tol-range"])
def test_non_finite_input_is_usage_error(argv, flags, message, tmp_path,
                                         capsys):
    if flags is not None:
        argv += (flag_file(tmp_path / "flags", *flags),)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(*argv, "--out", str(tmp_path / "o.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    # Every value is read before any work: nothing is written.
    assert captured.out == ""
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
    (("rho", "--grid", "0"), "argument --grid: must be at least 1, got 0"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2", "--bracket",
      "0.1,0.9", "--n", "0"), "argument --n: must be at least 1, got 0"),
    (("trace", "--start", "1,0,0", "--dense", "-3"),
     "argument --dense: must be at least 0, got -3"),
], ids=["rho-grid", "implicit-n", "trace-dense"])
def test_count_below_its_minimum_is_usage_error(argv, message, capsys):
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tol, reason", [
    ("-1", "the tolerance scale must be positive, got '-1'"),
    ("0", "the tolerance scale must be positive, got '0'"),
    ("nan", "must be finite, got 'nan'"),
    ("inf", "must be finite, got 'inf'")], ids=["-1", "0", "nan", "inf"])
def test_verify_rejects_bad_tol(tol, reason, capsys):
    assert run_cli("verify", "--only", "unit-norm", "--tol", tol) == 2
    assert (f"hopf-flow verify: error: argument --tol: {reason}\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ("trace", "--start", "1,0,0", "--c2", "1"),
    ("rho", "--grid", "2", "--tol", "1e-8"),
    ("trace", "--start", "1,0,0", "--config", "x.json"),
], ids=["trace-c2", "rho-tol", "trace-config"])
def test_flags_a_subcommand_ignores_are_rejected(argv, capsys):
    assert run_cli(*argv) == 2
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


def test_a_sourceless_install_gives_the_source_installs_bits(tmp_path):
    # A bytecode-only copy of the package, as a sourceless install ships
    # it, has no field source to inline: its runs call the fields.
    package = Path(cli.__file__).resolve().parent
    copy = tmp_path / "sourceless" / "hopf_flow"
    shutil.copytree(package, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run([sys.executable, "-m", "compileall", "-b", "-q",
                    str(copy)], check=True)
    for source in copy.glob("*.py"):
        source.unlink()
    for argv in (("trace", "--start", "1,0,0", "--span", "5"),
                 ("reduce", "--start", "1,0.7854", "--target", "4")):
        outputs = []
        for root in (package.parent, copy.parent):
            out = tmp_path / f"{argv[0]}-{len(outputs)}.csv"
            path = os.pathsep.join(filter(None, [
                str(root), os.environ.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "hopf_flow.cli", *argv, "--out",
                 str(out)], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": path})
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], argv[0]


def test_field_and_trace_never_load_numpy(tmp_path):
    # A fresh interpreter: importing the package loads none of its
    # modules, and field and trace (without --dense) run on floats alone.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import hopf_flow\n"
        "print(sorted(m for m in sys.modules if m.startswith('hopf_flow.')))\n"
        "import hopf_flow.cli\n"
        "hopf_flow.cli.build_parser()\n"
        "assert hopf_flow.cli.main(['field', '--out', sys.argv[1]]) == 0\n"
        "assert hopf_flow.cli.main(['trace', '--start=1,0,0', '--span', '5', "
        "'--out', sys.argv[2]]) == 0\n"
        "print('numpy' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "f.csv"),
         str(tmp_path / "g.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "False"]
    assert len(read_csv(tmp_path / "f.csv")[1]) == 5
    assert len(read_csv(tmp_path / "g.csv")[1]) > 1


def test_no_subcommand_loads_numpy_random_or_numpy_ma(tmp_path):
    # The battery draws from random.Random and the dedups are Python's,
    # so a fresh interpreter that runs every subcommand loads neither.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [["field"], ["trace", "--start=1,0,0", "--span", "5"],
            ["trace", "--start=1,0,0", "--span", "5", "--dense", "20"],
            ["reduce", "--start", "1,0.7854", "--target", "4"],
            ["implicit", "--start", "1,0.5", "--rmin", "1", "--rmax", "4",
             "--bracket", "0.3,0.95", "--n", "8"],
            ["rho", "--grid", "4"], ["verify"]]
    code = (
        "import json, sys\n"
        "import hopf_flow.cli\n"
        "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    out = f'{sys.argv[2]}/{k}'\n"
        "    assert hopf_flow.cli.main([*argv, '--out', out]) == 0, argv\n"
        "print(sorted({'numpy', 'numpy.random', 'numpy.ma'} & "
        "set(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy']"


# Each count flag: the subcommand's other flags, the count's minimum and
# the rows x columns it asks for.
_COUNT_FLAGS = {
    "grid": (("rho",), 1, lambda n: n * n * 11),
    "dense": (("trace", "--start", "1,0,0", "--span", "1"), 0,
              lambda n: n * 4),
    "n": (("implicit", "--start", "1,0.5", "--rmin", "1", "--rmax", "4",
           "--bracket", "0.3,0.95"), 1, lambda n: n * 3),
}


def _first_refused(flag: str) -> int:
    _, n, numbers = _COUNT_FLAGS[flag]
    while numbers(n) <= cli.MAX_OUTPUT_NUMBERS:
        n += 1
    return n


def _run_count(flag: str, value, from_file: bool, tmp: str):
    """(exit code, stderr) of the flag's subcommand given value, on the
    command line or from a flag file."""
    # A few radii of the implicit sweep have two roots in the bracket.
    return run_quietly(*_COUNT_FLAGS[flag][0], "--out", os.path.join(tmp, "o"),
                       *given_flags({flag: value}, from_file, tmp))


@pytest.mark.parametrize("flag, value", [("grid", 2.7), ("grid", True),
                                         ("dense", 2.9), ("n", "3.0"),
                                         ("grid", [2]), ("n", False)])
def test_config_counts_must_be_integers(flag, value, tmp_path):
    code, err = _run_count(flag, value, True, str(tmp_path))
    assert code == 2
    assert (f"argument --{flag}: expected an integer count, "
            f"got {str(value)!r}") in err


@pytest.mark.parametrize("flag", list(_COUNT_FLAGS))
@pytest.mark.parametrize("from_file", [False, True])
def test_oversized_outputs_are_refused_before_allocating(flag, from_file,
                                                         tmp_path):
    n = _first_refused(flag)
    tracemalloc.start()
    try:
        code, err = _run_count(flag, n, from_file, str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"argument --{flag}: {n} asks for" in err
    assert f"more than the {cli.MAX_OUTPUT_NUMBERS}" in err
    assert peak < 1e6
    assert not (tmp_path / "o").exists()


def _expected_count(value):
    """The count a run reads from value, or None where it must refuse."""
    try:
        return int(str(value))
    except ValueError:
        return None


# Counts that run in a few milliseconds, or that pass the size cap.
_SMALL = st.integers(-3, 12)
_HUGE = st.integers(10 ** 5, 10 ** 30)


@settings(max_examples=120, deadline=None)
@given(flag=st.sampled_from(list(_COUNT_FLAGS)),
       value=(_SMALL | _HUGE | _SMALL.map(str) | _HUGE.map(str)
              | _SMALL.map(lambda n: f" {n}\t") | st.text(max_size=3)
              | st.floats() | st.booleans() | st.none()
              | st.lists(_SMALL, max_size=2)),
       from_file=st.booleans())
@example(flag="grid", value=2.7, from_file=False)
@example(flag="grid", value=True, from_file=False)
@example(flag="dense", value=2.9, from_file=False)
@example(flag="grid", value="1e9", from_file=False)
@example(flag="n", value=10 ** 30, from_file=True)
def test_count_flags_run_or_exit_2(flag, value, from_file):
    # A flag file holds one argument a line.
    assume(not from_file or len(f"-{value}-".splitlines()) == 1)
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_count(flag, value, from_file, tmp)
    count = _expected_count(value)
    _, low, numbers = _COUNT_FLAGS[flag]
    runs = (count is not None and count >= low
            and numbers(count) <= cli.MAX_OUTPUT_NUMBERS)
    assert code == (0 if runs else 2), (code, err)
    if code == 2:
        assert _refusal(err, _COUNT_FLAGS[flag][0][0], [flag]) == "parser", err


def test_reduce_and_implicit_meta_carry_no_form_key(tmp_path):
    out = str(tmp_path / "o.csv")
    assert run_cli("reduce", "--start", "1,0.7854", "--target", "3",
                   "--out", out) == 0
    assert "form" not in json.loads(Path(out + ".meta.json").read_text())
    assert run_cli(*_COUNT_FLAGS["n"][0], "--n", "3", "--out", out) == 0
    assert "form" not in json.loads(Path(out + ".meta.json").read_text())


def _readme_commands() -> list[list[str]]:
    """The arguments of each `hopf-flow` line in the sh block of the
    README's "Command line" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("hopf-flow ")]


def test_the_readme_command_line_examples_run(tmp_path):
    commands = _readme_commands()
    assert len(commands) >= 8
    for k, argv in enumerate(commands):
        assert run_cli(*argv, "--out", str(tmp_path / f"{k}")) == 0, argv
