"""hopf-flow benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {sweep,chain,verify} --seed N \\
        --seconds S --trace {0,1}

A pass runs every invocation of the workload once, in this process, as
`hopf_flow.cli.main(argv)` calls writing to files in a temporary directory
inside the checkout.  After one warm-up pass, passes repeat until S seconds
have gone; every pass's outputs are checked (workloads.py).

--trace 0 prints setup_s (median wall time of fresh processes that import
hopf_flow.cli and build its parser), wall_s and cpu_s (measured medians
per pass), wall_ref_s and cpu_ref_s (the same passes normalised to a
reference host speed, calibration.py) and peak_rss_mb.  --trace 1
alternates untraced and traced passes, prints the per-layer metrics
(tracing.py) and bench.trace_overhead, requires traced outputs to be
bitwise identical to untraced ones and every rebinding to be undone, and
writes the last traced pass's spans to bench/out/.  Human-readable lines
come first; the last line is one JSON object {correct, attempted, failed,
metrics} whose metrics are those BENCHMARK.json lists.  The exit status is
1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from calibration import REFERENCE_S, Scaler
from env import ROOT, SRC, add_src_to_path, resolve_pool, stamp
from workloads import (REFERENCE_DIR, WORKLOADS, Invocation, invocations,
                       load_references)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 11
MIN_PASSES = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import hopf_flow.cli as cli; cli.build_parser()")


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    # Normalised to the reference host speed (calibration.py).
    ref_walls: list[float] = field(default_factory=list)
    ref_cpus: list[float] = field(default_factory=list)
    # Printed by name and unit, but not in the result line.
    shown: dict[str, tuple[float, str]] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure_setup(runs: int) -> list[float]:
    """Wall times of fresh processes importing hopf_flow.cli, after one
    untimed process that warms the file cache."""
    env = {k: v for k, v in os.environ.items()
           if k != "HOPF_FLOW_THREADS"}
    walls = []
    for k in range(runs + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        if k:
            walls.append(perf_counter() - t0)
    return walls


def run_pass(cli, invs: list[Invocation], workdir: Path,
             tracer=None) -> tuple[float, float, list[int]]:
    """One pass over the invocations: (wall s, process CPU s, exit codes)."""
    gc.collect()
    codes = []
    w0, c0 = perf_counter(), process_time()
    for inv in invs:
        argv = [*inv.argv, "--out", str(inv.out_path(workdir))]
        if tracer is None:
            codes.append(cli.main(argv))
        else:
            with tracer.span(f"cli.{inv.argv[0]}", "cli"):
                codes.append(cli.main(argv))
    return perf_counter() - w0, process_time() - c0, codes


def check_pass(run: Run, invs: list[Invocation], workdir: Path,
               codes: list[int], refs: dict) -> None:
    for inv, code in zip(invs, codes):
        try:
            attempted, failed = inv.check(inv, inv.out_path(workdir), code,
                                          refs[inv.name])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            # Output missing or malformed: every operation failed.
            attempted = failed = inv.expected
            run.problems.append(f"{inv.name}: unreadable output ({exc!r})")
        run.attempted += attempted
        run.failed += failed
        if failed:
            run.problems.append(f"{inv.name}: {failed} of {attempted} "
                                f"operations failed (exit {code})")


def digests(invs: list[Invocation], workdir: Path) -> dict[str, str]:
    out = {}
    for inv in invs:
        for path in inv.output_files(workdir):
            if path.exists():
                out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def emitted_bytes(invs: list[Invocation], workdir: Path) -> int:
    return sum(p.stat().st_size for inv in invs
               for p in inv.output_files(workdir) if p.exists())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_runs: int = SETUP_RUNS) -> Run:
    """Run one workload as the module docstring describes."""
    add_src_to_path()
    pool = resolve_pool()
    run = Run(workload, seed, trace)
    run.notes.append("env " + json.dumps(stamp(pool), sort_keys=True))
    if not trace:
        setup = measure_setup(setup_runs)
    from hopf_flow import cli
    invs = invocations(workload, seed, tiny)
    refs = load_references(invs, seed, tiny)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        workdir = Path(tmp)
        _, _, codes = run_pass(cli, invs, workdir)
        check_pass(run, invs, workdir, codes, refs)
        if trace:
            _traced_passes(run, cli, invs, workdir, refs, seconds)
            return run
        with Scaler(pool["pool"]) as scaler:
            deadline = perf_counter() + seconds
            while perf_counter() < deadline or len(run.walls) < MIN_PASSES:
                wall, cpu, codes = run_pass(cli, invs, workdir)
                wall_factor, cpu_factor = scaler.factors()
                run.walls.append(wall)
                run.cpus.append(cpu)
                run.ref_walls.append(wall * wall_factor)
                run.ref_cpus.append(cpu * cpu_factor)
                check_pass(run, invs, workdir, codes, refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.shown = {"wall_s": (median(run.walls), "s"),
                 "cpu_s": (median(run.cpus), "s")}
    run.metrics = {
        "setup_s": (median(setup), "s"),
        "wall_ref_s": (median(run.ref_walls), "s"),
        "cpu_ref_s": (median(run.ref_cpus), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    run.notes.append(f"setup_s over {len(setup)} fresh processes; pass times "
                     f"over {len(run.walls)} passes of {len(invs)} "
                     f"invocations")
    run.notes.append("pass wall_s " + " ".join(f"{w:.3f}" for w in run.walls))
    calib = [w for w, _ in scaler.samples]
    run.notes.append(f"calibration wall median {median(calib):.4f} s over "
                     f"{len(calib)} (reference {REFERENCE_S} s)")
    return run


def _traced_passes(run: Run, cli, invs: list[Invocation], workdir: Path,
                   refs: dict, seconds: float) -> None:
    from tracing import Tracer, layer_metrics, median_metrics
    expected = digests(invs, workdir)
    check_names = list(json.loads((REFERENCE_DIR / "verify.json")
                                  .read_text())["checks"])
    per_pass = []
    tracer = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(run.traced_walls) < MIN_PASSES:
        wall, _, codes = run_pass(cli, invs, workdir)
        run.walls.append(wall)
        check_pass(run, invs, workdir, codes, refs)
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, codes = run_pass(cli, invs, workdir, tracer)
        finally:
            tracer.uninstall()
        run.traced_walls.append(wall)
        left = tracer.leftovers()
        if left:
            run.problems.append("rebinding not undone: " + ", ".join(left))
        got = digests(invs, workdir)
        for name in sorted(set(expected) | set(got)):
            if expected.get(name) != got.get(name):
                run.problems.append(f"traced output {name} differs from "
                                    f"the untraced output")
        check_pass(run, invs, workdir, codes, refs)
        tracer.finish()
        per_pass.append(layer_metrics(tracer.spans, check_names,
                                      emitted_bytes(invs, workdir)))
    metrics = median_metrics(per_pass)
    metrics["bench.trace_overhead"] = (median(run.traced_walls)
                                       / median(run.walls) - 1.0)
    run.metrics = {k: (v, unit_of(k)) for k, v in metrics.items()}
    if tracer.missing:
        run.notes.append("not found, so not traced: " + ", ".join(tracer.missing))
    path = OUT_DIR / f"{run.workload}-seed{run.seed}-spans.csv.gz"
    tracer.write(path)
    run.notes.append(f"{len(per_pass)} traced and {len(run.walls)} untraced "
                     f"passes; spans of the last traced pass in "
                     f"{path.relative_to(ROOT)}")


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if ".us_per_" in metric:
        return "us"
    if metric.endswith("_bytes"):
        return "B"
    if (metric.endswith("_ratio") or metric.endswith("overlap")
            or ".overhead" in metric or metric.endswith("_overhead")
            or metric.endswith("_per_root") or metric.endswith("_per_solve")):
        return "ratio"
    return "count"


def report(run: Run) -> str:
    """Human-readable lines, then the one-line JSON result (returned)."""
    for note in run.notes:
        print(f"# {note}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in {**run.shown, **run.metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_ratio {ratio:.6g} ratio ({run.failed} of {run.attempted} "
          f"operations)")
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in run.metrics.items()}}
    line = json.dumps(result)
    print(line)
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(run)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
