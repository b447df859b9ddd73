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
integration rel_tol, in [1e-14, 1e-2)) goes to trace and reduce and
scales the check tolerances for verify; --c2, --f1 and --grid go to rho
alone.  A subcommand refuses any flag it does not read, on the command
line and as a --config key.  Each flag has one reader, which takes its
value from the command line or from --config alike, and a subcommand reads
every value before it does any work: a number must be finite (not a
bool), a choice one of its words, a count an integer whose output
stays within MAX_OUTPUT_NUMBERS, or the run exits 2 naming the flag.
Numbers in CSV carry 17 significant digits, so re-parsing reproduces
every float bit-exactly.  Exit codes: 0 all good, 1 check or runtime
failure, 2 usage/config error.

Defaults: rel_tol 1e-10 (abs_tol follows at 1e-2 of it), c2 = 1,
F1 = 0, grids 20x20.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

# trace's and reduce's integration rel_tol when --tol is unset.
_REL_TOL = 1e-10

_USAGE_ERROR = 2
_CHECK_ERROR = 1

# Rows formatted per write: enough to amortise the call, few enough that
# the block's text stays a small fraction of a long trace's file.
_CSV_BLOCK = 1024

# The most numbers (rows x columns) a count flag may ask one output for,
# refused before anything is allocated.  It keeps the largest allowed
# request near 1 GB of working memory: `implicit` holds ~10 kB per
# radius while it scans (`rho` ~1.1 kB per grid point).  The first sizes
# refused are rho --grid 151, trace --dense 62501 and implicit --n 83334.
MAX_OUTPUT_NUMBERS = 250_000


@contextmanager
def _output(path: str | None) -> Iterator:
    """The text file at path for writing, or stdout when path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii") as fh:
            yield fh


def _write_json(path: str | None, doc) -> None:
    with _output(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path: str | None, header: Sequence[str],
              rows: Sequence[Sequence[float]]) -> None:
    """One line per row of floats, each number to 17 significant digits,
    so that it parses back to the identical float.

    Rows are formatted and written a block at a time, so the text of the
    whole file is never held at once.
    """
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            fh.write((row_fmt * len(block))
                     % tuple(itertools.chain.from_iterable(block)))


def _emit(sink: tuple[str | None, str], header: Sequence[str],
          rows: Sequence[Sequence[float]], meta) -> None:
    """rows of floats to the (--out, --format) sink: as CSV (with a
    .meta.json sidecar when writing to a file) or as one JSON document."""
    out, fmt = sink
    if fmt == "json":
        _write_json(out, {"header": list(header), "rows": rows,
                          "meta": meta})
    else:
        write_csv(out, header, rows)
        if out is not None:
            _write_json(out + ".meta.json", meta)


def _number(raw, what: str) -> float:
    """raw as a finite float; a ValueError naming `what` otherwise (a
    bool is no number here)."""
    try:
        if isinstance(raw, bool):
            raise TypeError
        val = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{what}: expected a number, got {raw!r}") from None
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ValueError(f"{what} must be finite, got {raw!r}")
    return val


def _floats(raw, what: str, n: int | None = None) -> tuple[float, ...]:
    """Finite floats, n of them when n is given, from a comma-separated
    string, or from a JSON list or number that --config gave; a
    ValueError naming `what` otherwise."""
    parts = (raw.split(",") if isinstance(raw, str)
             else raw if isinstance(raw, list) else [raw])
    if n is not None and len(parts) != n:
        raise ValueError(f"{what}: expected {n} comma-separated numbers, "
                         f"got {raw!r}")
    return tuple(_number(p, what) for p in parts)


def _finite(ns, flag: str, default: float | None = None) -> float | None:
    """The scalar flag --<flag>, given on the command line or in
    --config, as a finite float; `default` when it is unset."""
    raw = getattr(ns, flag)
    return default if raw is None else _number(raw, f"--{flag}")


def _rel_tol(ns) -> float:
    """--tol of trace and reduce, given on the command line or in
    --config, as the integration rel_tol: a finite float in the range
    `integrate` takes; _REL_TOL when it is unset."""
    from .integrator import check_rel_tol

    rel_tol = _finite(ns, "tol", _REL_TOL)
    check_rel_tol(rel_tol, "--tol")
    return rel_tol


def _choice(ns, flag: str, words: Sequence[str]) -> str:
    """The flag --<flag>, given on the command line or in --config, as
    one of words; the first of them when it is unset."""
    raw = getattr(ns, flag)
    if raw is None:
        return words[0]
    if raw not in words:
        raise ValueError(f"--{flag}: expected one of {', '.join(words)}, "
                         f"got {raw!r}")
    return raw


def _texts(ns, flag: str) -> list[str] | None:
    """The repeatable flag --<flag> as its strings: the command line gives
    a list, --config a list or one string alone.  None when unset."""
    raw = getattr(ns, flag)
    if raw is None:
        return None
    given = raw if isinstance(raw, list) else [raw]
    if not all(isinstance(t, str) for t in given):
        raise ValueError(f"--{flag}: expected strings, got {raw!r}")
    return given


def _out(ns) -> str | None:
    """--out as a file path; None (stdout) when it is unset."""
    if ns.out is not None and not isinstance(ns.out, str):
        raise ValueError(f"--out: expected a file path, got {ns.out!r}")
    return ns.out


def _sink(ns) -> tuple[str | None, str]:
    """The (--out, --format) pair that _emit writes to."""
    return _out(ns), _choice(ns, "format", ("csv", "json"))


def _count(ns, flag: str, least: int, numbers: Callable[[int], int],
           default: int | None = None) -> int:
    """The count flag --<flag>, given on the command line or in --config
    (`default` when unset): an int (not a bool) or an integer string, at
    least `least`, whose output of numbers(count) numbers stays within
    MAX_OUTPUT_NUMBERS.  A ValueError naming the flag otherwise."""
    raw = getattr(ns, flag)
    count = default if raw is None else raw
    if isinstance(count, str):
        try:
            count = int(count)
        except ValueError:
            pass
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"--{flag}: expected an integer count, got {raw!r}")
    if count < least:
        raise ValueError(f"--{flag} must be at least {least}")
    if numbers(count) > MAX_OUTPUT_NUMBERS:
        raise ValueError(f"--{flag} {count} asks for {numbers(count)} "
                         f"numbers, more than the {MAX_OUTPUT_NUMBERS} one "
                         f"output may hold")
    return count


def _merge_config(ns: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the --config JSON file.

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
    return ns


# -- subcommands --------------------------------------------------------------


def cmd_trace(ns) -> int:
    from . import fields
    from .integrator import integrate

    sink = _sink(ns)
    start = _floats(ns.start, "--start", 3)
    span = _finite(ns, "span", 10.0)
    rel_tol = _rel_tol(ns)
    chart = _choice(ns, "chart", ("cartesian", "spherical"))
    # A dense row is t and three coordinates.
    dense = _count(ns, "dense", 0, lambda n: n * 4, default=0)
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
    traj = integrate(ode, start, (0.0, span), rel_tol=rel_tol)
    # The accepted rows as they are, (t, *y) from the run's flat buffers
    # (the interpolant returns a node's own state there); only dense times
    # between nodes are sampled.
    ts, ys = traj.buffers[:2]
    rows = list(zip(ts, *[iter(ys)] * 3))
    if dense > 0 and span != 0.0:
        import numpy as np

        between = sorted(set(np.linspace(0.0, traj.t_end,
                                         dense + 1).tolist()).difference(ts))
        # An angle of the spherical chart may lie within an ulp or two of
        # the largest float, where the interpolant can pass it.
        with np.errstate(over="ignore", invalid="ignore"):
            samples = traj.sample(between)
        if not np.isfinite(samples).all():
            raise ValueError("--dense samples between the integrator's "
                             "nodes leave the float range")
        # No time between nodes is a node's time, so the order is unique.
        rows = sorted(rows + np.column_stack([between, samples]).tolist(),
                      key=lambda row: row[0])
    meta = {
        "chart": chart, "span": span, "t_end": traj.t_end,
        "rows": len(rows), "accepted_steps": int(traj.naccept),
        "rejected_steps": int(traj.nreject), "rhs_evaluations": int(traj.nfev),
        "stop_reason": traj.stop_reason, "rel_tol": traj.rel_tol,
        "abs_tol": traj.abs_tol, "dense_samples": dense,
    }
    _emit(sink, header, rows, meta)
    return 0


def cmd_field(ns) -> int:
    from . import fields

    sink = _sink(ns)
    if ns.point is not None:
        # Repeated flags give a list; --config may give one point alone.
        given = ns.point if isinstance(ns.point, list) else [ns.point]
        points = [_floats(p, "--point", 3) for p in given]
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
    _emit(sink, header, rows, {"points": len(rows)})
    return 0


def cmd_reduce(ns) -> int:
    import numpy as np

    from . import reduced_system

    sink = _sink(ns)
    if ns.start is None or ns.target is None:
        raise ValueError("reduce needs --start r0,psi0 and --target r1")
    r0, psi0 = _floats(ns.start, "--start", 2)
    target = _finite(ns, "target")
    if not target > 0.0:
        raise ValueError(f"--target must be positive, got {target!r}")
    rel_tol = _rel_tol(ns)
    curve = reduced_system.trace_reduced(r0, psi0, target, rel_tol=rel_tol)
    header = ["r", "H", "psi", "C1_re", "C1_im", "C1_rel_dev"]
    # No constant within 1e-10 of H = 0 or of the H = 1 fold.
    hs = np.where((curve.hs > 1e-10) & (curve.hs < 1.0 - 1e-10), curve.hs,
                  math.nan)
    c = reduced_system.implicit_constant(curve.rs, hs)
    known = np.flatnonzero(np.isfinite(c.c_effective))
    c_ref = c.c_effective[known[0]] if known.size else math.nan
    rows = np.column_stack([
        curve.rs, curve.hs, curve.psis, c.c1.real, c.c1.imag,
        np.abs(c.c_effective - c_ref) / abs(c_ref)])
    meta = {
        "reached": curve.reached, "stop_note": curve.stop_note,
        "turning_crossings": int(curve.turning_crossings),
        "segments": len(curve.segments), "rows": len(rows),
        "rhs_evaluations": sum(seg.nfev for seg in curve.segments),
        "accepted_steps": sum(seg.naccept for seg in curve.segments),
        "rejected_steps": sum(seg.nreject for seg in curve.segments),
    }
    _emit(sink, header, rows.tolist(), meta)
    return 0


def cmd_implicit(ns) -> int:
    import numpy as np

    from . import reduced_system

    sink = _sink(ns)
    if ns.bracket is None:
        raise ValueError("implicit needs --bracket lo,hi (an H bracket for "
                         "the root solve)")
    if (ns.c1 is None) == (ns.start is None):
        raise ValueError("implicit needs exactly one of --c1 and --start "
                         "r0,h0")
    if ns.rmin is None or ns.rmax is None:
        raise ValueError("implicit needs --rmin and --rmax for the sweep")
    bracket = _floats(ns.bracket, "--bracket", 2)
    c1 = _finite(ns, "c1")
    start = None if ns.start is None else _floats(ns.start, "--start", 2)
    header = ["r", "H", "resid"]
    n = _count(ns, "n", 1, lambda n: n * len(header), default=25)
    r_lo, r_hi = _finite(ns, "rmin"), _finite(ns, "rmax")
    c_eff = (c1 if start is None
             else reduced_system.implicit_constant(*start).c_effective)
    with np.errstate(over="ignore", invalid="ignore"):
        rs = np.linspace(r_lo, r_hi, n)
    if not np.isfinite(rs).all():
        raise ValueError(f"--rmin {r_lo!r} to --rmax {r_hi!r} in {n} radii "
                         f"leaves the float range")
    hs = reduced_system.solve_implicit(c_eff, rs, (bracket[0], bracket[1]))
    resids = reduced_system.implicit_residual(c_eff, rs, hs)
    rows = np.column_stack([rs, hs, resids])
    solved = int(np.count_nonzero(np.isfinite(hs)))
    if solved == 0:
        raise RuntimeError("implicit sweep found no roots anywhere in the "
                           "bracket; widen --bracket or the r range")
    meta = {"c_effective": c_eff, "rows": len(rows), "solved": solved}
    _emit(sink, header, rows.tolist(), meta)
    return 0


def cmd_rho(ns) -> int:
    import numpy as np

    from . import first_integral

    sink = _sink(ns)
    xi_lo, xi_hi = (_floats(ns.xi, "--xi", 2) if ns.xi is not None
                    else (0.12, 0.72))
    psi_lo, psi_hi = (_floats(ns.psi, "--psi", 2) if ns.psi is not None
                      else (0.3, math.pi - 0.3))
    header = ["xi", "psi", "rho_re", "rho_im", "u", "v", "u_im", "v_im",
              "log_chi", "pde_direct", "pde_parametric"]
    n = _count(ns, "grid", 1, lambda n: n * n * len(header), default=20)
    f1 = () if ns.f1 is None else _floats(ns.f1, "--f1")
    c2 = _finite(ns, "c2", 1.0)
    xis = np.linspace(xi_lo, xi_hi, n) if n > 1 else np.array([xi_lo])
    psis = np.linspace(psi_lo, psi_hi, n) if n > 1 else np.array([psi_lo])
    # Rows run xi outer, psi inner.  log(tan(psi/2)) in the half-angle form
    # through math.log, which is exactly 0 at the floating-point pi/2.
    xi, psi = (g.ravel() for g in np.meshgrid(xis, psis, indexing="ij"))
    try:
        log_chi = np.tile([math.log(math.sin(q) / (1.0 + math.cos(q)))
                           for q in psis.tolist()], len(xis))
    except (ValueError, ZeroDivisionError):  # tan(psi/2) <= 0 or infinite
        raise ValueError(f"--psi must lie in (0, pi), clear of its ends, "
                         f"got {psi_lo!r},{psi_hi!r}") from None
    def lost_at(c2: float, rows=slice(None)):
        """The rho_table of the grid points in rows at c2, and where its
        rho, u or v is not finite."""
        table = first_integral.rho_table(xi[rows], psi[rows], c2, f1)
        return table, ~(np.isfinite(table.rho) & np.isfinite(table.u)
                        & np.isfinite(table.v))

    table, lost = lost_at(c2)
    if lost.any():
        # Within 2e4 ulps of either root of the discriminant, it is exactly
        # 0 at DISC_XI_HIGH alone (at DISC_XI_LOW it rounds to a tiny
        # value): there s = 0 divides rho's atan terms by zero at any c2.
        on_root = lost & (xi == first_integral.DISC_XI_HIGH)
        if on_root.any():
            raise ValueError(
                f"--xi {xi_lo!r},{xi_hi!r} puts {int(on_root.sum())} of the "
                f"{len(xi)} grid points on the discriminant root "
                f"xi = {first_integral.DISC_XI_HIGH!r}, where rho divides "
                f"by zero")
        # The c2 terms' products can overflow where their sum would not: a
        # point that c2 = 1 keeps finite is lost to --c2 alone.  Past the
        # --psi guard above, a point that c2 = 1 loses too is lost to its
        # xi: above ~1e51 (x^6 overflows) or below ~1e-152.
        if c2 != 1.0 and not lost_at(1.0, lost)[1].all():
            flag = f"--c2 {c2!r}"
        else:
            flag = f"--xi {xi_lo!r},{xi_hi!r}"
        raise ValueError(f"{flag} takes rho, u or v past the float range "
                         f"at {int(lost.sum())} of the {len(xi)} grid points")
    rows = np.column_stack([
        xi, psi, table.rho.real, table.rho.imag, table.u.real, table.v.real,
        table.u.imag, table.v.imag, log_chi, table.pde_direct,
        table.pde_parametric])
    meta = {"grid": f"{n}x{n}", "c2": c2, "f1": list(f1),
            "xi_range": [xi_lo, xi_hi], "psi_range": [psi_lo, psi_hi]}
    _emit(sink, header, rows.tolist(), meta)
    return 0


def cmd_verify(ns) -> int:
    from . import checks

    out = _out(ns)
    tol_scale = (1.0 if ns.tol is None
                 else _number(ns.tol, "--tol (the tolerance scale)"))
    doc = checks.run_battery(only=_texts(ns, "only"), tol_scale=tol_scale)
    _write_json(out, doc)
    return 0 if doc["passed"] else _CHECK_ERROR


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing reads
    it and leaves it unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="hopf-flow",
        description="Numerical laboratory for the unit-speed flow induced "
                    "by the Hopf fibration and its first integrals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, fmt: bool = True) -> None:
        p.add_argument("--config", help="JSON file of defaults; flags override")
        p.add_argument("--out", help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", help="csv (default) or json")

    p_trace = sub.add_parser("trace", help="integrate the flow")
    common(p_trace)
    p_trace.add_argument("--tol", help="integration rel_tol")
    p_trace.add_argument("--start", required=True,
                         help="x,y,z (or r,phi,psi with --chart spherical)")
    p_trace.add_argument("--span")
    p_trace.add_argument("--chart", help="cartesian (default) or spherical")
    p_trace.add_argument("--dense",
                         help="additional uniformly spaced output samples")

    p_field = sub.add_parser("field", help="probe the velocity field")
    common(p_field)
    p_field.add_argument("--point", action="append",
                         help="x,y,z probe (repeatable)")

    p_reduce = sub.add_parser("reduce", help="trace the reduced (r,H) curve")
    common(p_reduce)
    p_reduce.add_argument("--tol", help="integration rel_tol")
    p_reduce.add_argument("--start", help="r0,psi0")
    p_reduce.add_argument("--target", help="target radius")

    p_impl = sub.add_parser("implicit",
                            help="solve the implicit Bessel relation over r")
    common(p_impl)
    p_impl.add_argument("--c1", help="effective constant")
    p_impl.add_argument("--start", help="r0,h0 fixing the constant instead")
    p_impl.add_argument("--rmin")
    p_impl.add_argument("--rmax")
    p_impl.add_argument("--n", help="sweep points (default 25)")
    p_impl.add_argument("--bracket", help="H bracket lo,hi for the root solve")

    p_rho = sub.add_parser("rho", help="tabulate the generating function")
    common(p_rho)
    p_rho.add_argument("--c2", help="first-integral slope c2")
    p_rho.add_argument("--f1", help="comma-separated ascending F1 coefficients")
    p_rho.add_argument("--grid", help="points per grid axis (default 20)")
    p_rho.add_argument("--xi", help="xi range lo,hi")
    p_rho.add_argument("--psi", help="psi range lo,hi")

    p_verify = sub.add_parser("verify", help="run the check battery")
    common(p_verify, fmt=False)  # the report is always JSON
    p_verify.add_argument("--tol",
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
