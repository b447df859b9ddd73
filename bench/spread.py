"""Run-to-run spread of the end-to-end metrics, in two sets.

    python3 bench/spread.py

Makes two sets, one after the other, of ten --trace 0 runs of every
workload in BENCHMARK.json (seeds 1-10, run_seconds each), one process at
a time.  Prints per set, workload and metric the median and the spread
(interquartile range over median, statistics.quantiles with n=4) next to
the metric's bound, then the table of README.md "Measured spreads", which
adds the shift of the second set's median from the first.  Every run's
result, with its measured wall_s and cpu_s and its environment stamp, and
the summaries are written to bench/baseline.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SETS = ("set1", "set2")
MEASURED = ("wall_s", "cpu_s")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("# env "):]) for ln in lines
               if ln.startswith("# env "))
    measured = {ln.split()[0]: float(ln.split()[1]) for ln in lines
                if ln.startswith(tuple(f"{m} " for m in MEASURED))}
    return {**json.loads(lines[-1]), "measured": measured, "env": env}


def _stats(values: list[float], bound: float | None) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    med = median(values)
    return {"median": med, "iqr_share": (q3 - q1) / med, "bound": bound}


def summarize(results: list[dict], bounds: dict[str, float]) -> dict:
    """Bounded metrics with their bounds, then the measured pass times."""
    summary = {name: _stats([r["metrics"][name]["value"] for r in results],
                            bound) for name, bound in bounds.items()}
    for name in MEASURED:
        summary[name] = _stats([r["measured"][name] for r in results], None)
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    start = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M UTC")
    doc = {"note": f"Two sets of {RUNS} --trace 0 runs per workload, seeds "
                   f"1-{RUNS}, run_seconds {seconds}, made one after the "
                   f"other with bench/spread.py from {start}."}
    for name in SETS:
        doc[name] = {"runs": {}, "summary": {}}
        for workload in workloads:
            results = []
            for seed in range(1, RUNS + 1):
                res = one_run(workload, seed, seconds)
                results.append({"seed": seed, **res})
                print(f"{name} {workload} seed {seed}: "
                      f"correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.4f}"
                                 for k, v in res["metrics"].items())
                      + " " + " ".join(f"{k}={v:.4f}"
                                       for k, v in res["measured"].items()),
                      flush=True)
            summary = summarize(results, bounds)
            doc[name]["runs"][workload] = results
            doc[name]["summary"][workload] = summary
            for metric, s in summary.items():
                print(f"  {name} {workload} {metric}: median "
                      f"{s['median']:.5g}, spread {s['iqr_share']:.4f} "
                      f"(bound {s['bound']})", flush=True)
    (BENCH_DIR / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    print("| workload | metric | set 1 median | set 1 spread | set 2 median "
          "| set 2 spread | set 2 / set 1 − 1 | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in workloads:
        for metric, s1 in doc["set1"]["summary"][workload].items():
            s2 = doc["set2"]["summary"][workload][metric]
            bound = "—" if s1["bound"] is None else s1["bound"]
            print(f"| `{workload}` | `{metric}` | {s1['median']:.4g} | "
                  f"{s1['iqr_share']:.3f} | {s2['median']:.4g} | "
                  f"{s2['iqr_share']:.3f} | "
                  f"{s2['median'] / s1['median'] - 1:+.3f} | {bound} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
