"""Command-line front end: tracing, probing, solving, and verification.

Subcommands
-----------
trace     integrate the Cartesian (or spherical) flow from an initial
          point; CSV columns t,x,y,z (or t,r,phi,psi).
field     evaluate the velocity field and derived rates at probe points.
reduce    trace the reduced (r, H) curve through folds; CSV columns
          r,H,psi,C1_re,C1_im plus a constancy-deviation column.
implicit  sweep r at a fixed effective constant, solving the implicit
          Bessel relation for H at each r; CSV columns r,H,resid.
rho       tabulate the closed-form generating function and its PDE
          residuals on a (xi, psi) grid.
verify    run the full check battery and emit one JSON document.

Every subcommand takes --config, a JSON file of defaults (explicit
flags override it), and --out, a file to write instead of stdout; all
but verify take --format csv|json.  Beyond its own flags, --tol (the
integration rel_tol) goes to trace and reduce and scales the check
tolerances for verify; --c2, --f1 and --grid go to rho alone.  A
subcommand refuses any flag it does not read, on the command line and
as a --config key.  Numbers in CSV carry 17 significant digits, so
re-parsing reproduces every float bit-exactly.  Exit codes: 0 all good,
1 check or runtime failure, 2 usage/config error.

Defaults: rel_tol 1e-10 (abs_tol follows at 1e-2 of it), c2 = 1,
F1 = 0, grids 20x20.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import checks, fields, first_integral, reduced_system
from .integrator import integrate
from .special_functions import Z_MAX

DEFAULTS = {
    "tol": 1e-10,
    "c2": 1.0,
    "f1": (),
    "grid": 20,
    "format": "csv",
}

_USAGE_ERROR = 2
_CHECK_ERROR = 1


def fmt(x: float) -> str:
    """17 significant digits: parses back to the identical float."""
    return f"{float(x):.17g}"


def write_csv(path: str | None, header: Sequence[str],
              rows: Sequence[Sequence[float]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _emit(ns, header, rows, meta) -> None:
    if ns.format == "json":
        doc = {"header": list(header), "rows": [list(map(float, r)) for r in rows],
               "meta": meta}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if ns.out is None:
            sys.stdout.write(text)
        else:
            with open(ns.out, "w", encoding="ascii") as fh:
                fh.write(text)
    else:
        write_csv(ns.out, header, rows)
        if ns.out is not None and meta is not None:
            with open(ns.out + ".meta.json", "w", encoding="ascii") as fh:
                fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _floats(text: str, n: int, what: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{what}: expected {n} comma-separated numbers, "
                         f"got {text!r}") from None
    if len(parts) != n:
        raise ValueError(f"{what}: expected {n} comma-separated numbers, "
                         f"got {text!r}")
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return parts


def _finite(ns, flag: str, default: float | None = None) -> float | None:
    """The scalar flag --<flag>, given on the command line or in
    --config, as a finite float; `default` when it is unset."""
    raw = getattr(ns, flag)
    if raw is None:
        return default
    try:
        val = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"--{flag}: expected a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ValueError(f"--{flag} must be finite, got {raw!r}")
    return val


def _merge_config(ns: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the --config JSON file, then from DEFAULTS.

    The file's keys must be flag names (argparse dests) of the
    subcommand, so a typo or a flag it does not take is a usage error.
    """
    config = {}
    if getattr(ns, "config", None):
        with open(ns.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("--config must contain a JSON object")
    flags = sorted(set(vars(ns)) - {"command", "config"})
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ValueError(f"--config: {ns.command} takes no "
                         f"{', '.join(map(repr, unknown))}; its keys are "
                         f"{', '.join(flags)}")
    for key, val in config.items():
        if getattr(ns, key) is None:
            setattr(ns, key, val)
    for key, val in DEFAULTS.items():
        if key == "tol" and ns.command == "verify":
            continue  # verify's --tol is a tolerance scale, default 1.0
        if hasattr(ns, key) and getattr(ns, key) is None:
            setattr(ns, key, val)
    return ns


def _f1_tuple(ns) -> tuple[float, ...]:
    raw = ns.f1
    if raw in ((), None):
        return ()
    if isinstance(raw, str):
        return tuple(float(p) for p in raw.split(","))
    return tuple(float(p) for p in raw)


# -- subcommands --------------------------------------------------------------


def cmd_trace(ns) -> int:
    start = _floats(ns.start, 3, "--start")
    span = _finite(ns, "span", 10.0)
    chart = ns.chart or "cartesian"
    dense = int(ns.dense or 0)
    if dense < 0:
        raise ValueError("--dense must be at least 0")
    if chart == "spherical":
        r, phi, psi = start
        if r <= 0.0:
            raise ValueError("spherical start needs r > 0")
        if abs(math.sin(psi)) < fields.SIN_PSI_FLOOR:
            raise ValueError("start lies on the z-axis where the spherical "
                             "chart is singular; use the cartesian chart")
        ode = fields.spherical_ode
        header = ["t", "r", "phi", "psi"]
    else:
        ode = fields.cartesian_ode
        header = ["t", "x", "y", "z"]
    traj = integrate(ode, np.asarray(start, float), (0.0, span),
                     rel_tol=float(ns.tol))
    ts = traj.ts
    if dense > 0 and span != 0.0:
        dense_ts = np.linspace(0.0, traj.t_end, dense + 1)
        ts = np.unique(np.concatenate([ts, dense_ts]))
    rows = np.column_stack([ts, traj.sample(ts)]).tolist()
    meta = {
        "chart": chart, "span": span, "t_end": traj.t_end,
        "rows": len(rows), "accepted_steps": int(traj.naccept),
        "rejected_steps": int(traj.nreject), "rhs_evaluations": int(traj.nfev),
        "stop_reason": traj.stop_reason, "rel_tol": traj.rel_tol,
        "abs_tol": traj.abs_tol, "dense_samples": dense,
    }
    _emit(ns, header, rows, meta)
    return 0


def cmd_field(ns) -> int:
    if ns.point:
        points = [_floats(p, 3, "--point") for p in ns.point]
    else:
        points = [(1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, -1.2, 2.0),
                  (3.0, 0.2, -0.4), (-2.0, 1.0, 0.3)]
    header = ["x", "y", "z", "vx", "vy", "vz", "norm",
              "rate_arctan", "rate_r2"]
    rows = []
    for p in points:
        vx, vy, vz = fields.cartesian_ode(0.0, p)
        rates = fields.derived_rates(p)
        rows.append([*p, vx, vy, vz, math.sqrt(vx * vx + vy * vy + vz * vz),
                     rates.rate_arctan, rates.rate_r2])
    _emit(ns, header, rows, {"points": len(rows)})
    return 0


def cmd_reduce(ns) -> int:
    if ns.start is None or ns.target is None:
        raise ValueError("reduce needs --start r0,psi0 and --target r1")
    r0, psi0 = _floats(ns.start, 2, "--start")
    curve = reduced_system.trace_reduced(r0, psi0, _finite(ns, "target"),
                                         rel_tol=float(ns.tol))
    header = ["r", "H", "psi", "C1_re", "C1_im", "C1_rel_dev"]
    rows = []
    c_ref = None
    for r, h, psi in zip(curve.rs, curve.hs, curve.psis):
        z = 0.5 * math.sqrt(max(h, 0.0)) * r
        if 1e-10 < h < 1.0 - 1e-10 and 0.0 < z <= Z_MAX:
            c = reduced_system.implicit_constant(float(r), float(h))
            if c_ref is None:
                c_ref = c.c_effective
            dev = abs(c.c_effective - c_ref) / abs(c_ref)
            rows.append([r, h, psi, c.c1.real, c.c1.imag, dev])
        else:
            rows.append([r, h, psi, math.nan, math.nan, math.nan])
    meta = {
        "reached": curve.reached, "stop_note": curve.stop_note,
        "turning_crossings": int(curve.turning_crossings),
        "segments": len(curve.segments), "rows": len(rows),
        "form": "continued",
        "rhs_evaluations": sum(seg.nfev for seg in curve.segments),
        "accepted_steps": sum(seg.naccept for seg in curve.segments),
        "rejected_steps": sum(seg.nreject for seg in curve.segments),
    }
    _emit(ns, header, rows, meta)
    return 0


def cmd_implicit(ns) -> int:
    if ns.bracket is None:
        raise ValueError("implicit needs --bracket lo,hi (an H bracket for "
                         "the root solve)")
    bracket = _floats(ns.bracket, 2, "--bracket")
    if ns.c1 is not None:
        c_eff = _finite(ns, "c1")
    elif ns.start is not None:
        r0, h0 = _floats(ns.start, 2, "--start")
        c_eff = reduced_system.implicit_constant(r0, h0).c_effective
    else:
        raise ValueError("implicit needs --c1 or --start r0,h0")
    if ns.rmin is None or ns.rmax is None:
        raise ValueError("implicit needs --rmin and --rmax for the sweep")
    n = 25 if ns.n is None else int(ns.n)
    if n < 1:
        raise ValueError("--n must be at least 1")
    rs = np.linspace(_finite(ns, "rmin"), _finite(ns, "rmax"), n)
    hs = reduced_system.solve_implicit(c_eff, rs, (bracket[0], bracket[1]))
    resids = reduced_system.implicit_residual(c_eff, rs, hs)
    rows = [list(row)
            for row in zip(rs.tolist(), hs.tolist(), resids.tolist())]
    solved = sum(1 for row in rows if math.isfinite(row[1]))
    if solved == 0:
        raise RuntimeError("implicit sweep found no roots anywhere in the "
                           "bracket; widen --bracket or the r range")
    meta = {"c_effective": c_eff, "form": "continued", "rows": len(rows),
            "solved": solved}
    _emit(ns, header=["r", "H", "resid"], rows=rows, meta=meta)
    return 0


def cmd_rho(ns) -> int:
    xi_lo, xi_hi = _floats(ns.xi, 2, "--xi") if ns.xi else (0.12, 0.72)
    psi_lo, psi_hi = (_floats(ns.psi, 2, "--psi") if ns.psi
                      else (0.3, math.pi - 0.3))
    n = int(ns.grid)
    if n < 1:
        raise ValueError("--grid must be at least 1")
    f1 = _f1_tuple(ns)
    c2 = float(ns.c2)
    xis = np.linspace(xi_lo, xi_hi, n) if n > 1 else np.array([xi_lo])
    psis = np.linspace(psi_lo, psi_hi, n) if n > 1 else np.array([psi_lo])
    # Rows run xi outer, psi inner.  log(tan(psi/2)) in the half-angle form
    # through math.log, which is exactly 0 at the floating-point pi/2.
    xi, psi = (g.ravel() for g in np.meshgrid(xis, psis, indexing="ij"))
    log_chi = np.tile([math.log(math.sin(q) / (1.0 + math.cos(q)))
                       for q in psis.tolist()], len(xis))
    table = first_integral.rho_table(xi, psi, c2, f1)
    rows = np.column_stack([
        xi, psi, table.rho.real, table.rho.imag, table.u.real, table.v.real,
        table.u.imag, table.v.imag, log_chi, table.pde_direct,
        table.pde_parametric]).tolist()
    header = ["xi", "psi", "rho_re", "rho_im", "u", "v", "u_im", "v_im",
              "log_chi", "pde_direct", "pde_parametric"]
    meta = {"grid": f"{n}x{n}", "c2": c2, "f1": list(f1),
            "xi_range": [xi_lo, xi_hi], "psi_range": [psi_lo, psi_hi]}
    _emit(ns, header, rows, meta)
    return 0


def cmd_verify(ns) -> int:
    tol_scale = float(ns.tol) if ns.tol is not None else 1.0
    doc = checks.run_battery(only=ns.only or None, tol_scale=tol_scale)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if ns.out is None:
        sys.stdout.write(text)
    else:
        with open(ns.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return 0 if doc["passed"] else _CHECK_ERROR


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopf-flow",
        description="Numerical laboratory for the unit-speed flow induced "
                    "by the Hopf fibration and its first integrals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, fmt: bool = True) -> None:
        p.add_argument("--config", help="JSON file of defaults; flags override")
        p.add_argument("--out", help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"))

    p_trace = sub.add_parser("trace", help="integrate the flow")
    common(p_trace)
    p_trace.add_argument("--tol", type=float, help="integration rel_tol")
    p_trace.add_argument("--start", required=True,
                         help="x,y,z (or r,phi,psi with --chart spherical)")
    p_trace.add_argument("--span", type=float)
    p_trace.add_argument("--chart", choices=("cartesian", "spherical"))
    p_trace.add_argument("--dense", type=int,
                         help="additional uniformly spaced output samples")

    p_field = sub.add_parser("field", help="probe the velocity field")
    common(p_field)
    p_field.add_argument("--point", action="append",
                         help="x,y,z probe (repeatable)")

    p_reduce = sub.add_parser("reduce", help="trace the reduced (r,H) curve")
    common(p_reduce)
    p_reduce.add_argument("--tol", type=float, help="integration rel_tol")
    p_reduce.add_argument("--start", help="r0,psi0")
    p_reduce.add_argument("--target", type=float, help="target radius")

    p_impl = sub.add_parser("implicit",
                            help="solve the implicit Bessel relation over r")
    common(p_impl)
    p_impl.add_argument("--c1", type=float, help="effective constant")
    p_impl.add_argument("--start", help="r0,h0 fixing the constant instead")
    p_impl.add_argument("--rmin", type=float)
    p_impl.add_argument("--rmax", type=float)
    p_impl.add_argument("--n", type=int, help="sweep points (default 25)")
    p_impl.add_argument("--bracket", help="H bracket lo,hi for the root solve")

    p_rho = sub.add_parser("rho", help="tabulate the generating function")
    common(p_rho)
    p_rho.add_argument("--c2", type=float, help="first-integral slope c2")
    p_rho.add_argument("--f1", help="comma-separated ascending F1 coefficients")
    p_rho.add_argument("--grid", type=int, help="points per grid axis")
    p_rho.add_argument("--xi", help="xi range lo,hi")
    p_rho.add_argument("--psi", help="psi range lo,hi")

    p_verify = sub.add_parser("verify", help="run the check battery")
    common(p_verify, fmt=False)  # the report is always JSON
    p_verify.add_argument("--tol", type=float,
                          help="scale applied to every check tolerance")
    p_verify.add_argument("--only", action="append",
                          help="run only this check (repeatable)")
    return parser


_DISPATCH = {
    "trace": cmd_trace,
    "field": cmd_field,
    "reduce": cmd_reduce,
    "implicit": cmd_implicit,
    "rho": cmd_rho,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        ns = _merge_config(ns)
        return _DISPATCH[ns.command](ns)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"hopf-flow: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (RuntimeError, ArithmeticError) as exc:
        print(f"hopf-flow: {exc}", file=sys.stderr)
        return _CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
