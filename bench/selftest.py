"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 bench/selftest.py

1. Runs every workload once at a tiny size, untraced and traced, and
   requires correct outputs and every metric of BENCHMARK.json with its unit.
2. Plants one wrong row in each kind of output and requires the checks to
   count exactly that operation as failed.
3. Leaves one rebinding in place after a traced pass and requires the run
   to report it, to be marked incorrect and to exit non-zero.
4. Runs the benchmark in a directory that holds only BENCHMARK.json and
   bench/, and requires a non-zero exit without a result line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench
import tracing
from env import ROOT
from workloads import WORKLOADS, invocations, load_references

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        FAILURES.append(what)


def tiny_runs() -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        if trace:
            want["bench.trace_overhead"] = "ratio"
        for workload in WORKLOADS:
            run = bench.measure(workload, 0, 0.01, trace, tiny=True,
                                setup_runs=1)
            got = {k: unit for k, (_, unit) in run.metrics.items()}
            expect(run.correct and run.attempted > 0,
                   f"{workload} trace={int(trace)}: correct, "
                   f"{run.failed}/{run.attempted} failed {run.problems}")
            expect(got == want, f"{workload} trace={int(trace)}: every "
                   f"{key} metric with its unit "
                   f"(missing {sorted(set(want) - set(got))}, "
                   f"extra {sorted(set(got) - set(want))})")


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="", encoding="ascii") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set(col: str, row: int, value: str):
    def edit(header, rows):
        rows[row][header.index(col)] = value
    return edit


def _shift_x(header, rows):
    # A row between the dense samples, off the orbit by 0.01 in x.
    row = next(r for r in rows[len(rows) // 2:] if float(r[0]) % 1.0)
    row[1] = repr(float(row[1]) + 0.01)


def _fail_verdict(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["checks"][0]["verdict"] = "fail"
    path.write_text(json.dumps(doc))


PLANTS = {
    "rho": _set("pde_parametric", 0, "1e-3"),
    "implicit-series": _set("resid", 0, "1e-6"),
    "implicit-cf": _set("H", 1, "nan"),
    "trace": _shift_x,
    "reduce": _set("C1_rel_dev", -1, "1e-3"),
}


def planted_rows() -> None:
    bench.add_src_to_path()
    from hopf_flow import cli
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        workdir = Path(tmp)
        for workload in WORKLOADS:
            invs = invocations(workload, 0, tiny=True)
            refs = load_references(invs, 0, tiny=True)
            _, _, codes = bench.run_pass(cli, invs, workdir)
            for inv, code in zip(invs, codes):
                path = inv.out_path(workdir)
                attempted, failed = inv.check(inv, path, code, refs[inv.name])
                expect(failed == 0, f"{inv.name}: clean output passes")
                if inv.name == "verify":
                    _fail_verdict(path)
                else:
                    _rewrite_csv(path, PLANTS[inv.name])
                attempted2, failed = inv.check(inv, path, code, refs[inv.name])
                expect(failed == 1 and attempted2 == attempted,
                       f"{inv.name}: planted wrong row counts 1 failed "
                       f"(got {failed} of {attempted2})")
        # Against the seed-0 reference: a value off by more than the
        # tolerance fails even though its residual column still passes.
        inv = invocations("sweep", 0)[2]
        ref = load_references([inv], 0, tiny=False)[inv.name]
        path = inv.out_path(workdir)
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ref["header"])
            writer.writerows([repr(v) for v in row] for row in ref["rows"])
        expect(inv.check(inv, path, 0, ref) == (inv.expected, 0),
               "implicit-cf: the reference itself passes")
        _rewrite_csv(path, lambda header, rows: rows[3].__setitem__(
            1, repr(float(rows[3][1]) + 1e-7)))
        expect(inv.check(inv, path, 0, ref) == (inv.expected, 1),
               "implicit-cf: H 1e-7 off the reference counts 1 failed")


def leaked_rebinding() -> None:
    original = tracing.Tracer.uninstall
    leaked = []

    def leaky(self):
        # Undo every rebinding but the first.
        first = self._saved.pop(0)
        original(self)
        self._saved.insert(0, first)
        leaked.append(self)

    bench.add_src_to_path()
    from hopf_flow import fields
    keep = fields.cartesian_ode
    tracing.Tracer.uninstall = leaky
    try:
        run = bench.measure("verify", 0, 0.01, True, tiny=True)
    finally:
        tracing.Tracer.uninstall = original
        # Each pass wrapped the wrapper the previous pass left behind.
        for tracer in reversed(leaked):
            tracer.uninstall()
    expect(not run.correct and any("rebinding not undone" in p
                                   for p in run.problems),
           f"a rebinding left in place is caught ({run.problems[:1]})")
    measure = bench.measure
    bench.measure = lambda *args, **kwargs: run
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = bench.main(["--workload", "verify", "--seconds", "1",
                               "--trace", "1"])
    finally:
        bench.measure = measure
    expect(code != 0 and '"correct": false' in out.getvalue(),
           f"an incorrect run prints its result and exits {code}")
    expect(fields.cartesian_ode is keep and leaked[0].leftovers() == [],
           "uninstall restores every rebinding")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([*SPEC["command"], "--workload", "verify",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True,
                              timeout=180)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               f"without the package: exit {proc.returncode}, no result")


def main() -> int:
    tiny_runs()
    planted_rows()
    leaked_rebinding()
    bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
