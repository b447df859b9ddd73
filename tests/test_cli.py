"""Command-line interface: formats, exit codes, numeric round-trips."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
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
from hypothesis import example, given, settings
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
    with pytest.raises(SystemExit) as exc:
        run_cli("trace", "--start", "1,0,0", flags)
    assert exc.value.code == 2
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
    (("rho", "--grid", "2"), ("--xi=0.1",), "--xi: expected 2"),
    (("rho", "--grid", "2"), ("--psi", "0.5"), "--psi: expected 2"),
    (("rho", "--grid", "2"), ('--xi={"lo": 0.1}',), "--xi: expected 2"),
    (("reduce", "--target", "3"), ("--start=1,x",),
     "--start: expected a number"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2"),
     ("--bracket=0.3,[0.9]",), "--bracket: expected a number"),
    (("implicit", "--c1", "-4.9", "--rmin", "1", "--rmax", "2"),
     (f"--bracket=0.3,{10 ** 400}",), "--bracket must be finite"),
    (("field",), ("--point=5",), "--point: expected 3"),
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
    (("field",), "point"),
]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_COMMA_FLAGS),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                       | st.integers(), max_size=4))
def test_finite_comma_flag_values_run_or_exit_2(case, values):
    argv, flag = case
    with tempfile.TemporaryDirectory() as tmp:
        argv += (f"--{flag}=" + ",".join(map(repr, values)),)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(*argv, "--out", os.path.join(tmp, "o"))
    # An implicit sweep whose well-formed bracket holds no root anywhere
    # is a runtime failure by design (exit 1).
    no_roots = (argv[0] == "implicit" and code == 1
                and "found no roots" in err.getvalue())
    assert code in (0, 2) or no_roots, err.getvalue()


# Any finite number, or one where the sweep can find roots.
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(rmin=_ANY_FLOAT | st.floats(-1.0, 25.0),
       rmax=_ANY_FLOAT | st.floats(-1.0, 25.0),
       c1=_ANY_FLOAT | st.floats(-10.0, 2.0),
       bracket=st.tuples(_ANY_FLOAT | st.floats(-0.1, 1.1),
                         _ANY_FLOAT | st.floats(-0.1, 1.1)),
       n=st.integers(1, 8))
# H so small that z = sqrt(H) r / 2 is in the Bessel range while 4 + r^2
# is not a float.
@example(rmin=1e155, rmax=1e156, c1=-4.9, bracket=(1e-310, 1e-306), n=2)
# Roots whose residual terms c1 (4 + r^2) I0 pass the float range.
@example(rmin=1.0, rmax=12.0, c1=1e307, bracket=(0.01, 0.99), n=8)
# A scan point whose Bessel argument is the smallest subnormal.
@example(rmin=4.2629375274477494e-216, rmax=0.0, c1=0.0,
         bracket=(4.2629375274477494e-216, 1.0), n=1)
def test_finite_implicit_flags_run_or_exit_2(rmin, rmax, c1, bracket, n):
    values = {"rmin": rmin, "rmax": rmax, "c1": c1, "bracket": list(bracket),
              "n": n}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["implicit", "--out", os.path.join(tmp, "o")]
        argv += [f"--{flag}=" + (",".join(map(repr, value))
                                 if flag == "bracket" else repr(value))
                 for flag, value in values.items()]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(*argv)
    message = err.getvalue()
    assert (code == 0 or (code == 2 and message.startswith("hopf-flow: "))
            or (code == 1 and "found no roots" in message)), (code, message)


@settings(max_examples=150, deadline=None)
@given(start=st.tuples(*[_ANY_FLOAT | st.floats(-3.0, 3.0)
                         | st.floats(0.1, 3.0)] * 3),
       span=st.floats(-50.0, 50.0),
       tol=(_ANY_FLOAT | st.floats(1e-14, 1e-2)
            | st.sampled_from([1e-3, 1e-6, 1e-10])),
       dense=st.integers(0, 50),
       chart=st.sampled_from(["cartesian", "spherical"]))
# An escaping orbit whose state leaves the field's domain mid-run.
@example(start=(1.0, 0.0, 0.0), span=1e300, tol=1e-3, dense=0,
         chart="cartesian")
# An angle at the largest float, which the dense interpolant overflows.
@example(start=(1.25, 0.0, 1.7976931348623157e308), span=1.0,
         tol=0.0078125, dense=3, chart="spherical")
def test_finite_trace_flags_run_or_exit_2(start, span, tol, dense, chart):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["trace", "--start=" + ",".join(map(repr, start)),
                f"--span={span!r}", f"--tol={tol!r}", f"--dense={dense}",
                f"--chart={chart}", "--out", os.path.join(tmp, "o")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(*argv)
    message = err.getvalue()
    assert code == 0 or (code == 2 and message.startswith("hopf-flow: ")), (
        code, message)


# A number flag's value, spelt on the command line by _as_flag: numbers
# finite or not, their strings, other words, bools and lists.
_NUMBER_VALUES = (st.floats() | st.integers(-10 ** 400, 10 ** 400)
                  | st.floats().map(repr)
                  | st.sampled_from(["nan", "-inf", "1e999", "x", "", "1,2"])
                  | st.booleans() | st.lists(st.floats(-3.0, 3.0), max_size=3))
# Each subcommand with its two number flags; rho's grid is 2x2.
_NUMBER_FLAGS = {"rho": (("rho", "--grid", "2"), ("c2", "f1")),
                 "reduce": (("reduce", "--start", "1,0.7854"),
                            ("target", "tol"))}


def _as_flag(value) -> str:
    """value as the command line spells it."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(repr, value))
    return repr(value)


def _or_in(usual: st.SearchStrategy) -> st.SearchStrategy:
    """A value drawn from usual half of the time, else from
    _NUMBER_VALUES, so that runs with both flags usable are common."""
    return st.tuples(st.booleans(), usual, _NUMBER_VALUES).map(
        lambda t: t[1] if t[0] else t[2])


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(list(_NUMBER_FLAGS)),
       values=st.tuples(_or_in(st.floats(-5.0, 250.0)),
                        _or_in(st.floats(1e-14, 1e-2))))
@example(command="rho", values=(math.nan, ()))
@example(command="rho", values=(True, [math.inf]))
@example(command="reduce", values=(200.0, 1e-14))
@example(command="reduce", values=(-1.0, "nan"))
def test_number_flags_run_or_exit_2(command, values):
    argv, flags = _NUMBER_FLAGS[command]
    with tempfile.TemporaryDirectory() as tmp:
        argv += ("--out", os.path.join(tmp, "o"))
        argv += tuple(f"--{flag}={_as_flag(value)}"
                      for flag, value in zip(flags, values))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(*argv)
    message = err.getvalue()
    assert code == 0 or (code == 2 and message.startswith("hopf-flow: ")
                         and any(f"--{flag}" in message for flag in flags)), (
        code, message)


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
        with pytest.raises(SystemExit) as exc:
            run_cli("trace", "--start", "1,0,0", flags)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: {not json" in err
    assert "missing" in err


def test_unwritable_output_is_usage_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("trace", "--start", "1,0,0", "--span", "1",
                   "--out", str(missing)) == 2


@pytest.mark.parametrize("span", ["inf", "nan"])
def test_non_finite_span_is_usage_error(span, capsys):
    assert run_cli("trace", "--start", "1,0,0", "--span", span) == 2
    assert "--span must be finite" in capsys.readouterr().err


# Each case's flags, when given, are read from a flag file.
@pytest.mark.parametrize("argv, flags, message", [
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
     ("--rmin=1.0", "--rmax=inf"), "--rmax must be finite"),
    (("rho", "--grid", "2", "--f1", "nan"), None, "--f1 must be finite"),
    (("rho", "--grid", "2", "--f1", "0.5,inf"), None, "--f1 must be finite"),
    (("rho", "--grid", "2", "--f1", "0.5,x"), None,
     "--f1: expected a number"),
    (("rho", "--grid", "2"), ("--f1=0.25,inf",), "--f1 must be finite"),
    (("rho", "--grid", "2"), ("--f1=nan",), "--f1 must be finite"),
    (("rho", "--grid", "2", "--c2", "nan"), None, "--c2 must be finite"),
    (("rho", "--grid", "2", "--c2", "inf"), None, "--c2 must be finite"),
    (("rho", "--grid", "2"), ("--c2=[1]",), "--c2: expected a number"),
    (("trace", "--start", "1,0,0"), ("--tol=[1]",),
     "--tol: expected a number"),
    (("reduce", "--start", "1,0.7854", "--target", "3"), ("--tol=[1]",),
     "--tol: expected a number"),
    (("verify", "--only", "unit-norm"), ("--tol=[1]",),
     "--tol (the tolerance scale): expected a number"),
    (("trace", "--start", "1,0,0"), ("--chart=5",),
     "--chart: expected one of cartesian, spherical, got '5'"),
    (("trace", "--start", "1,0,0"), ("--format=xml",),
     "--format: expected one of csv, json, got 'xml'"),
    (("trace", "--start", "1,0,0"), ("--span=True",),
     "--span: expected a number, got 'True'"),
    (("verify",), ("--only=5",), "unknown checks: 5"),
    (("implicit", "--c1", "-4.9", "--start", "1,0.5", "--rmin", "1",
      "--rmax", "2", "--bracket", "0.3,0.9"), None,
     "exactly one of --c1 and --start"),
    (("trace", "--start", "1,0,0", "--tol", "1e-15"), None,
     "--tol must lie in [1e-14, 1e-2), got 1e-15"),
    (("reduce", "--start", "1,0.7854", "--target", "3", "--tol", "0.5"), None,
     "--tol must lie in [1e-14, 1e-2), got 0.5"),
    (("trace", "--start", "1,0,0"), ("--tol=0.01",),
     "--tol must lie in [1e-14, 1e-2), got 0.01"),
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
        assert run_cli(*argv, "--out", str(tmp_path / "o.csv")) == 2
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
    ("trace", "--start", "1,0,0", "--config", "x.json"),
], ids=["trace-c2", "rho-tol", "trace-config"])
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
    argv = [*_COUNT_FLAGS[flag][0], "--out", os.path.join(tmp, "o")]
    given = f"--{flag}={value}"
    argv.append(flag_file(os.path.join(tmp, "flags"), given) if from_file
                else given)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # A few radii of the implicit sweep have two roots in the bracket.
        warnings.filterwarnings("ignore", r"\d+ of \d+ radii have several")
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse refuses a flag's value
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("flag, value", [("grid", 2.7), ("grid", True),
                                         ("dense", 2.9), ("n", "3.0"),
                                         ("grid", [2]), ("n", False)])
def test_config_counts_must_be_integers(flag, value, tmp_path):
    code, err = _run_count(flag, value, True, str(tmp_path))
    assert code == 2
    assert f"--{flag}: expected an integer count, got {str(value)!r}" in err


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
    assert f"--{flag} {n} asks for" in err
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
              | st.lists(_SMALL, max_size=2)))
@example(flag="grid", value=2.7)
@example(flag="grid", value=True)
@example(flag="dense", value=2.9)
@example(flag="grid", value="1e9")
def test_count_flags_run_or_exit_2(flag, value):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_count(flag, value, False, tmp)
    count = _expected_count(value)
    _, low, numbers = _COUNT_FLAGS[flag]
    runs = (count is not None and count >= low
            and numbers(count) <= cli.MAX_OUTPUT_NUMBERS)
    assert code == (0 if runs else 2), (code, err)
    if code == 2:
        assert err.startswith(("hopf-flow: ", "usage: ")), err


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
