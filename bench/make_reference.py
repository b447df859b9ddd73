"""Regenerate the seed-0 reference outputs in bench/reference/.

    python3 bench/make_reference.py

Runs each seed-0 invocation once and keeps what the output checks in
workloads.py compare against: every row of rho and implicit, the uniform
dense samples of trace, the NaN-row radii, first constant and fold count
of reduce, and the check names, verdicts and allowlist of verify.  Only
regenerate at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from env import git_sha, add_src_to_path
from workloads import REFERENCE_DIR, _read_csv, _read_meta, invocations


def _payload(name: str, argv: tuple[str, ...], path: Path) -> dict:
    if name == "verify":
        doc = json.loads(path.read_text())
        return {"checks": {c["name"]: c["verdict"] for c in doc["checks"]},
                "allowed_discrepancies": doc["allowed_discrepancies"],
                "passed": doc["passed"]}
    header, rows = _read_csv(path)
    if name == "trace":
        span = float(argv[argv.index("--span") + 1])
        dense = int(argv[argv.index("--dense") + 1])
        want = set(np.linspace(0.0, span, dense + 1).tolist())
        return {"header": header, "rows": [r for r in rows if r[0] in want]}
    if name == "reduce":
        meta = _read_meta(path)
        col = {h: i for i, h in enumerate(header)}
        finite = [r for r in rows if r[col["C1_rel_dev"]] == r[col["C1_rel_dev"]]]
        return {"turning_crossings": meta["turning_crossings"],
                "segments": meta["segments"], "rows": len(rows),
                "c1_re": finite[0][col["C1_re"]],
                "nan_r": [r[col["r"]] for r in rows
                          if r[col["C1_rel_dev"]] != r[col["C1_rel_dev"]]]}
    return {"header": header, "rows": rows}


def main() -> int:
    root = add_src_to_path()
    from hopf_flow import cli
    REFERENCE_DIR.mkdir(exist_ok=True)
    stamp = {"git_sha": git_sha(), "python": platform.python_version(),
             "numpy": np.__version__}
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench-") as tmp:
        for workload in ("sweep", "chain", "verify"):
            for inv in invocations(workload, 0):
                out = inv.out_path(Path(tmp))
                code = cli.main([*inv.argv, "--out", str(out)])
                if code != 0:
                    print(f"{inv.name}: exit {code}", file=sys.stderr)
                    return 1
                doc = {"argv": list(inv.argv), **stamp,
                       **_payload(inv.name, inv.argv, out)}
                target = REFERENCE_DIR / f"{inv.name}.json"
                target.write_text(json.dumps(doc) + "\n", encoding="ascii")
                print(f"wrote {target.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
