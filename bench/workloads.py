"""The benchmark's workloads and the checks on their outputs.

A workload is a list of hopf-flow CLI invocations run back to back in one
process (one "pass").  `invocations` derives them from the seed: seed 0
runs the fixed invocations the reference outputs in `reference/` were made
from; other seeds shift the inputs while keeping every invocation in the
same numerical regime (see README.md).

Every check returns `(attempted, failed)` counted in operations: one grid
point or sweep radius for `rho` and `implicit`, one output row for `trace`
and `reduce`, one named check for `verify`.  A non-zero exit fails every
operation of that invocation.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("sweep", "chain", "verify")

# Residual columns are held to the tolerance the tier-1 tests apply to the
# same quantity (tests/test_cli.py), never a looser one.
RHO_PDE_PARAMETRIC_TOL = 1e-8
IMPLICIT_RESID_TOL = 1e-9
REDUCE_C1_REL_DEV_TOL = 1e-6
# The trace has no residual column; its conserved quantity is the implicit
# Bessel constant of the reduced (r, H) curve, the quantity reduce's
# C1_rel_dev measures, so it gets the same tolerance.
TRACE_C_REL_DEV_TOL = REDUCE_C1_REL_DEV_TOL
# Closed-form values against the reference: round-off changes (a different
# summation order or libm) stay near 1e-14.
CLOSED_FORM_RTOL = 1e-10
# H against the reference: the tier-1 tolerance of H against a traced curve.
IMPLICIT_H_ATOL = 1e-8
# Dense trace samples against the reference, scaled by max(1, |y|).  At
# span 500 the rel_tol 1e-10 run differs from a rel_tol 1e-11 run by 3e-5
# (phase drift along the orbit), so a different but correct step sequence
# moves samples by about that much; 1e-3 leaves a 30x margin.
TRACE_SAMPLE_ATOL = 1e-3
# Bounded orbits from the z = 0 plane with 0.95 <= |p| <= 1.6 stay within
# |y| <= 5.72; nearby starts such as (0.8, 0, 0) escape.
TRACE_BOUND = 6.0
# reduce prints NaN constants where H is within 1e-10 of the fold H = 1.
FOLD_H_TOL = 1e-9


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `hopf-flow <argv> --out <name>.<ext>`."""

    name: str
    argv: tuple[str, ...]
    ext: str
    check: Callable[["Invocation", Path, int, dict | None], tuple[int, int]]
    expected: int  # operations this invocation performs

    def out_path(self, workdir: Path) -> Path:
        return workdir / f"{self.name}.{self.ext}"

    def output_files(self, workdir: Path) -> list[Path]:
        out = self.out_path(workdir)
        if self.ext == "csv":
            return [out, out.with_name(out.name + ".meta.json")]
        return [out]


def _num(x: float) -> str:
    return repr(float(x))


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _read_meta(path: Path) -> dict:
    return json.loads(path.with_name(path.name + ".meta.json").read_text())


def _close(value: float, ref: float, rtol: float) -> bool:
    if not math.isfinite(ref):
        return not math.isfinite(value) or value == ref
    return math.isfinite(value) and abs(value - ref) <= rtol * max(1.0, abs(ref))


# -- checks -------------------------------------------------------------------


def check_rho(inv: Invocation, path: Path, code: int,
              ref: dict | None) -> tuple[int, int]:
    if code != 0:
        return inv.expected, inv.expected
    header, rows = _read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    ref_rows = ref["rows"] if ref else None
    failed = abs(len(rows) - inv.expected)
    for k, row in enumerate(rows[:inv.expected]):
        ok = all(math.isfinite(v) for i, v in enumerate(row)
                 if header[i] not in ("pde_direct", "pde_parametric"))
        resid = row[col["pde_parametric"]]
        ok = ok and math.isfinite(resid) and resid <= RHO_PDE_PARAMETRIC_TOL
        if ref_rows is not None:
            ok = ok and all(_close(v, r, CLOSED_FORM_RTOL)
                            for name, v, r in zip(header, row, ref_rows[k])
                            if name != "pde_parametric")
        failed += not ok
    return inv.expected, failed


def check_implicit(inv: Invocation, path: Path, code: int,
                   ref: dict | None) -> tuple[int, int]:
    if code != 0:
        return inv.expected, inv.expected
    _, rows = _read_csv(path)
    ref_rows = ref["rows"] if ref else None
    failed = abs(len(rows) - inv.expected)
    for k, (r, h, resid) in enumerate(rows[:inv.expected]):
        ok = (math.isfinite(h) and math.isfinite(resid)
              and resid <= IMPLICIT_RESID_TOL)
        if ref_rows is not None:
            r_ref, h_ref, _ = ref_rows[k]
            ok = (ok and _close(r, r_ref, CLOSED_FORM_RTOL)
                  and abs(h - h_ref) <= IMPLICIT_H_ATOL)
        failed += not ok
    return inv.expected, failed


def _implicit_constant(r: float, h: float) -> float:
    from hopf_flow import reduced_system
    return reduced_system.implicit_constant(r, min(h, 1.0)).c_effective


def check_trace(inv: Invocation, path: Path, code: int,
                ref: dict | None) -> tuple[int, int]:
    """Every row must be finite, bounded and keep the implicit constant of
    the start; the uniform dense samples must match the reference."""
    if code != 0:
        return inv.expected, inv.expected
    _, rows = _read_csv(path)
    meta = _read_meta(path)
    span = float(inv.argv[inv.argv.index("--span") + 1])
    dense = int(inv.argv[inv.argv.index("--dense") + 1])
    if meta["stop_reason"] != "reached_end" or meta["t_end"] != span:
        return len(rows), len(rows)
    c0 = None
    bad = set()
    for t, x, y, z in rows:
        r = math.sqrt(x * x + y * y + z * z)
        try:
            c = _implicit_constant(r, 1.0 - (z / r) ** 2)
        except (ValueError, ZeroDivisionError):
            c = math.nan
        if c0 is None:
            c0 = c
        if not (math.isfinite(c) and r <= TRACE_BOUND
                and abs(c - c0) <= TRACE_C_REL_DEV_TOL * abs(c0)):
            bad.add(t)
    # The sample times the CLI computes for --dense.
    want = np.linspace(0.0, span, dense + 1).tolist()
    by_t = {row[0]: row[1:] for row in rows}
    missing = sum(1 for t in want if t not in by_t)
    if ref is not None:
        for t, ref_row in zip(want, ref["rows"]):
            y = by_t.get(t)
            if y is not None and not all(
                    abs(v - rv) <= TRACE_SAMPLE_ATOL * max(1.0, abs(rv))
                    for v, rv in zip(y, ref_row[1:])):
                bad.add(t)
    return len(rows) + missing, len(bad) + missing


def check_reduce(inv: Invocation, path: Path, code: int,
                 ref: dict | None) -> tuple[int, int]:
    """C1_rel_dev within tolerance on every row; NaN rows only where the
    reference has them (or, without one, at the H = 1 fold guard)."""
    if code != 0:
        return inv.expected, inv.expected
    header, rows = _read_csv(path)
    meta = _read_meta(path)
    col = {name: i for i, name in enumerate(header)}
    if not meta["reached"] or (
            ref and meta["turning_crossings"] != ref["turning_crossings"]):
        return len(rows), len(rows)
    nan_rs = ref["nan_r"] if ref else None
    failed = 0
    first = True
    for row in rows:
        r, h, dev = row[col["r"]], row[col["H"]], row[col["C1_rel_dev"]]
        if math.isnan(dev):
            if nan_rs is None:
                ok = abs(h - 1.0) <= FOLD_H_TOL
            else:
                ok = any(abs(r - nr) <= 1e-9 * nr for nr in nan_rs)
        else:
            ok = dev <= REDUCE_C1_REL_DEV_TOL
            if first and ref:
                ok = ok and _close(row[col["C1_re"]], ref["c1_re"],
                                   CLOSED_FORM_RTOL)
            first = False
        failed += not ok
    return len(rows), failed


def check_verify(inv: Invocation, path: Path, code: int,
                 ref: dict | None) -> tuple[int, int]:
    """Every expected check is present and passes, or is a documented
    discrepancy on the reference allowlist."""
    if "--only" in inv.argv:
        expected = {a for k, a in enumerate(inv.argv) if inv.argv[k - 1] == "--only"}
    else:
        expected = set(ref["checks"])
    if code not in (0, 1) or not path.exists():
        return len(expected), len(expected)
    doc = json.loads(path.read_text())
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    allowed = set(ref["allowed_discrepancies"])
    failed = len(expected - set(verdicts))
    failed += sum(1 for name, verdict in verdicts.items()
                  if not (verdict == "pass" or (
                      verdict == "documented-discrepancy" and name in allowed)))
    if failed == 0 and not (doc["passed"] and code == 0):
        failed = 1
    return max(len(expected), len(verdicts)), failed


# -- invocations --------------------------------------------------------------


def invocations(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """The invocations of one pass of `workload` at `seed`.

    tiny=True shrinks every size for the self-test; references then do
    not apply.
    """
    rng = random.Random(seed)
    if workload == "sweep":
        grid = 3 if tiny else 32
        n = 5 if tiny else 100
        rho = ["rho", "--grid", str(grid)]
        # Seed 0 is the reference run.  The shifts keep every Bessel call
        # of the first implicit sweep in the series region (z <= 2, also on
        # the bracket scan up to H = 0.95) and every root of the second in
        # the continued-fraction region (3.1 <= z <= 4.1); all rows solve
        # and the work per pass stays within 1%, measured over their range.
        if seed != 0:
            dxi = rng.uniform(-0.05, 0.05)
            dpsi = rng.uniform(-0.1, 0.1)
            rho += ["--xi", f"{_num(0.12 + dxi)},{_num(0.72 + dxi)}",
                    "--psi", f"{_num(0.3 + dpsi)},{_num(math.pi - 0.3 + dpsi)}"]
        d1 = rng.uniform(0.0, 0.1) if seed else 0.0
        d2 = rng.uniform(0.0, 1.0) if seed else 0.0
        return [
            Invocation("rho", tuple(rho), "csv", check_rho, grid * grid),
            Invocation("implicit-series", (
                "implicit", "--start", "1,0.5", "--rmin", _num(1 + d1),
                "--rmax", _num(4 + d1), "--n", str(n),
                "--bracket", "0.3,0.95"), "csv", check_implicit, n),
            Invocation("implicit-cf", (
                "implicit", "--start", "10,0.5", "--rmin", _num(8.5 + d2),
                "--rmax", _num(20 + d2), "--n", str(n),
                "--bracket", "0.05,0.99"), "csv", check_implicit, n),
        ]
    if workload == "chain":
        start = "1,0,0"
        if seed != 0:
            # Orbits from the z = 0 plane at 1.1 <= |p| <= 1.3 are bounded
            # and take 32.0k-32.5k RHS calls over span 500 (0.95 <= |p| <=
            # 1.6 is bounded too, but its cost varies by 25%).  The field
            # is symmetric about the z-axis, so the angle only changes bits.
            radius = rng.uniform(1.1, 1.3)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            start = (f"{_num(radius * math.cos(angle))},"
                     f"{_num(radius * math.sin(angle))},0")
        span, dense = ("20", "20") if tiny else ("500", "500")
        target = "3" if tiny else "200"
        return [
            Invocation("trace", ("trace", f"--start={start}", "--span", span,
                                 "--dense", dense), "csv", check_trace,
                       int(dense) + 1),
            Invocation("reduce", ("reduce", "--start", "1,0.7854",
                                  "--target", target), "csv", check_reduce, 1),
        ]
    if workload == "verify":
        argv = ("verify", "--only", "unit-norm", "--only",
                "implicit-inversion") if tiny else ("verify",)
        return [Invocation("verify", argv, "json", check_verify,
                           2 if tiny else 22)]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def load_references(invs: list[Invocation], seed: int,
                    tiny: bool) -> dict[str, dict | None]:
    """Reference data per invocation name, where it applies.

    rho, implicit and trace references hold only at seed 0 and full size;
    reduce and verify take no seeded input, so theirs always apply at full
    size, and verify's allowlist applies at any size.
    """
    refs: dict[str, dict | None] = {}
    for inv in invs:
        ref = None
        path = REFERENCE_DIR / f"{inv.name}.json"
        if inv.name == "verify":
            ref = json.loads(path.read_text())
        elif not tiny and (seed == 0 or inv.name == "reduce"):
            ref = json.loads(path.read_text())
        refs[inv.name] = ref
    return refs
