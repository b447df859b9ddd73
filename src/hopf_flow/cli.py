"""Command-line front end: tracing, probing, solving, and verification.

Subcommands
-----------
trace     integrate the Cartesian flow from an initial point, or the
          spherical chart's, whose time runs the orbit backward; CSV
          columns t,x,y,z (or t,r,phi,psi).
field     evaluate the velocity field and derived rates at probe points.
reduce    trace the reduced (r, H) curve through folds; CSV columns
          r,H,psi,C1_re,C1_im plus a constancy-deviation column.
implicit  sweep r at a fixed effective constant, solving the implicit
          Bessel relation for H at each r; CSV columns r,H,resid.
rho       tabulate the closed-form generating function and its PDE
          residuals on a (xi, psi) grid.
verify    run the full check battery and emit one JSON document.

Every subcommand takes --out, a file to write instead of stdout; all
but verify take --format csv|json.  `hopf-flow SUBCOMMAND --help` lists
a subcommand's flags, marks the required ones and gives every other
flag's default.  An argument @FILE stands for the arguments in FILE, one
per line, so a flag file placed first gives defaults that later flags
override (a repeatable flag adds to them); any argument that starts with
@ names such a file.  The parser reads each value, given or default,
with the flag's one reader before any work (a number must be finite, a
count an integer whose output stays within MAX_OUTPUT_NUMBERS) and
refuses a bad one with "hopf-flow SUBCOMMAND: error: argument --FLAG:
...", as it refuses a missing or unknown flag.  A rule that spans flags
or needs computing is stated once, by the library function that needs
it, and the subcommand names the flags around the call: "hopf-flow:
--FLAG VALUES: ...".  It returns its (header, rows, meta), and `main`
writes them to the (--out, --format) sink.  Numbers in CSV carry 17
significant digits, so re-parsing reproduces every float bit-exactly.
`main` returns the exit code and raises no SystemExit: 0 all good
(--help too), 1 check or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from argparse import ArgumentTypeError
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

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


def _flags(**flags: Sequence[float]) -> str:
    """Each of flags that is given values, as "--FLAG V1,V2", joined by
    spaces."""
    return " ".join(f"--{flag} {','.join(map(repr, values))}"
                    for flag, values in flags.items() if values)


@contextmanager
def _naming(**flags: Sequence[float]) -> Iterator[None]:
    """Within, a library's ValueError is re-raised as "--FLAG VALUES:
    message" for each of flags, the values the call was given: the one way
    a subcommand names the flags of a rule the library states."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{_flags(**flags)}: {exc}") from None


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


def _number(raw: str) -> float:
    """raw as a finite float."""
    try:
        val = float(raw)
    except ValueError:
        raise ArgumentTypeError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ArgumentTypeError(f"must be finite, got {raw!r}")
    return val


def _floats(raw: str, n: int | None = None) -> tuple[float, ...]:
    """Finite floats from a comma-separated string, n of them if given."""
    parts = raw.split(",")
    if n is not None and len(parts) != n:
        raise ArgumentTypeError(
            f"expected {n} comma-separated numbers, got {raw!r}")
    return tuple(map(_number, parts))


def _rel_tol(raw: str) -> float:
    """--tol of trace and reduce: a rel_tol that `integrate` takes."""
    from .integrator import check_rel_tol

    rel_tol = _number(raw)
    try:
        check_rel_tol(rel_tol)
    except ValueError as exc:
        raise ArgumentTypeError(str(exc)) from None
    return rel_tol


def _tol_scale(raw: str) -> float:
    """--tol of verify, the scale on every check tolerance: finite, > 0."""
    scale = _number(raw)
    if not scale > 0.0:
        raise ArgumentTypeError(
            f"the tolerance scale must be positive, got {raw!r}")
    return scale


def _check_name(raw: str) -> str:
    """--only of verify: the name of a check in the battery."""
    from .checks import CHECK_NAMES

    if raw not in CHECK_NAMES:
        raise ArgumentTypeError(
            f"unknown check {raw!r}; known: {', '.join(CHECK_NAMES)}")
    return raw


def _count(least: int, numbers: Callable[[int], int]) -> Callable[[str], int]:
    """The reader of a count: an integer, at least `least`, whose output
    of numbers(count) = rows x columns numbers stays within
    MAX_OUTPUT_NUMBERS (a trace row has 4 columns, a sweep's 3, a grid
    point's 11)."""
    def read(raw: str) -> int:
        try:
            count = int(raw)
        except ValueError:
            raise ArgumentTypeError(
                f"expected an integer count, got {raw!r}") from None
        if count < least:
            raise ArgumentTypeError(f"must be at least {least}, got {count}")
        if numbers(count) > MAX_OUTPUT_NUMBERS:
            raise ArgumentTypeError(
                f"{count} asks for {numbers(count)} numbers, more than the "
                f"{MAX_OUTPUT_NUMBERS} one output may hold")
        return count
    return read


# -- subcommands --------------------------------------------------------------


def cmd_trace(ns) -> tuple:
    from . import fields
    from .integrator import integrate

    span, dense = ns.span, ns.dense
    if ns.chart == "spherical":
        if abs(math.sin(ns.start[2])) < fields.SIN_PSI_FLOOR:
            raise ValueError("--start lies on the z-axis where the spherical "
                             "chart is singular; use the cartesian chart")
        ode = fields.spherical_ode
        header = ["t", "r", "phi", "psi"]
    else:
        ode = fields.cartesian_ode
        header = ["t", "x", "y", "z"]
    with _naming(start=ns.start):
        traj = integrate(ode, ns.start, (0.0, span), rel_tol=ns.tol)
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
        # Rows run in the direction of travel, as the nodes do.  No time
        # between nodes is a node's time, so the order is unique.
        sign = math.copysign(1.0, span)
        rows = sorted(rows + np.column_stack([between, samples]).tolist(),
                      key=lambda row: sign * row[0])
    meta = {
        "chart": ns.chart, "span": span, "t_end": traj.t_end,
        "rows": len(rows), "accepted_steps": int(traj.naccept),
        "rejected_steps": int(traj.nreject), "rhs_evaluations": int(traj.nfev),
        "interpolated_steps": traj.nformed, "stop_reason": traj.stop_reason,
        "rel_tol": traj.rel_tol, "abs_tol": traj.abs_tol,
        "dense_samples": dense,
    }
    return header, rows, meta


def cmd_field(ns) -> tuple:
    from . import fields

    points = ns.point or [(1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, -1.2, 2.0),
                          (3.0, 0.2, -0.4), (-2.0, 1.0, 0.3)]
    header = ["x", "y", "z", "vx", "vy", "vz", "norm",
              "rate_arctan", "rate_r2"]
    rows = []
    for p in points:
        vx, vy, vz = fields.cartesian_ode(0.0, p)
        # The slopes alone: on the z-axis rate_arctan is NaN by design.
        if not all(map(math.isfinite, (vx, vy, vz))):
            raise ValueError(f"{_flags(point=p)}: the field overflows there:"
                             f" (|p|^2 + 4)^2 exceeds the float range")
        rates = fields.derived_rates(p)
        rows.append([*p, vx, vy, vz, math.sqrt(vx * vx + vy * vy + vz * vz),
                     rates.rate_arctan, rates.rate_r2])
    return header, rows, {"points": len(rows)}


def cmd_reduce(ns) -> tuple:
    import numpy as np

    from . import reduced_system

    reduced_system.check_radius(ns.target, "--target")
    with _naming(start=ns.start):
        curve = reduced_system.trace_reduced(*ns.start, ns.target,
                                             rel_tol=ns.tol)
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
    return header, rows.tolist(), meta


def cmd_implicit(ns) -> tuple:
    import numpy as np

    from . import reduced_system

    reduced_system.check_radius(ns.rmin, "--rmin")
    reduced_system.check_radius(ns.rmax, "--rmax")
    c_eff = ns.c1  # the parser gives exactly one of --c1 and --start
    if ns.start is not None:
        with _naming(start=ns.start):
            c_eff = reduced_system.implicit_constant(*ns.start).c_effective
    rs = np.linspace(ns.rmin, ns.rmax, ns.n)
    with _naming(bracket=ns.bracket):
        hs = reduced_system.solve_implicit(c_eff, rs, ns.bracket)
    resids = reduced_system.implicit_residual(c_eff, rs, hs)
    rows = np.column_stack([rs, hs, resids])
    solved = int(np.count_nonzero(np.isfinite(hs)))
    if solved == 0:
        raise RuntimeError("implicit sweep found no roots anywhere in the "
                           "bracket; widen --bracket or the r range")
    meta = {"c_effective": c_eff, "rows": len(rows), "solved": solved}
    return ["r", "H", "resid"], rows.tolist(), meta


def cmd_rho(ns) -> tuple:
    import numpy as np

    from . import first_integral

    (xi_lo, xi_hi), (psi_lo, psi_hi) = ns.xi, ns.psi
    header = ["xi", "psi", "rho_re", "rho_im", "u", "v", "u_im", "v_im",
              "log_chi", "pde_direct", "pde_parametric"]
    n, c2, f1 = ns.grid, ns.c2, ns.f1 or ()
    xis = np.linspace(xi_lo, xi_hi, n) if n > 1 else np.array([xi_lo])
    psis = np.linspace(psi_lo, psi_hi, n) if n > 1 else np.array([psi_lo])
    # Rows run xi outer, psi inner.
    xi, psi = (g.ravel() for g in np.meshgrid(xis, psis, indexing="ij"))
    def lost_at(c2: float, f1: Sequence[float], rows=slice(None)):
        """The rho_table of the grid points in rows at c2 and f1, and where
        its rho, u or v is not finite."""
        table = first_integral.rho_table(xi[rows], psi[rows], c2, f1)
        return table, ~(np.isfinite(table.rho) & np.isfinite(table.u)
                        & np.isfinite(table.v))

    with _naming(xi=ns.xi, psi=ns.psi):
        table, lost = lost_at(c2, f1)
    if lost.any():
        # Within 2e4 ulps of either root of the discriminant, it is exactly
        # 0 at DISC_XI_HIGH alone (at DISC_XI_LOW it rounds to a tiny
        # value): there s = 0 divides rho's atan terms by zero at any c2.
        on_root = lost & (xi == first_integral.DISC_XI_HIGH)
        if on_root.any():
            raise ValueError(
                f"{_flags(xi=ns.xi)} puts {int(on_root.sum())} of the "
                f"{len(xi)} grid points on the discriminant root "
                f"xi = {first_integral.DISC_XI_HIGH!r}, where rho divides "
                f"by zero")
        # The c2 terms' products and the F1 polynomial can overflow where
        # the rest would not: a point that c2 = 1 without F1 keeps finite is
        # lost to --c2 or --f1, whichever is given.  With psi accepted by
        # rho_table, a point lost there too is lost to its xi: above ~1e51
        # (x^6 overflows) or below ~1e-152.
        if lost_at(1.0, (), lost)[1].all():
            flag = _flags(xi=ns.xi)
        else:
            flag = _flags(c2=(c2,) if c2 != 1.0 else (), f1=f1)
        raise ValueError(f"{flag} takes rho, u or v past the float range "
                         f"at {int(lost.sum())} of the {len(xi)} grid points")
    # log(tan(psi/2)) of half_angle_tan on the floats rho_table accepted,
    # through math.log, which is exactly 0 at the floating-point pi/2.
    log_chi = np.tile([math.log(first_integral.half_angle_tan(q))
                       for q in psis.tolist()], len(xis))
    rows = np.column_stack([
        xi, psi, table.rho.real, table.rho.imag, table.u.real, table.v.real,
        table.u.imag, table.v.imag, log_chi, table.pde_residual("direct"),
        table.pde_residual("parametric")])
    meta = {"grid": f"{n}x{n}", "c2": c2, "f1": list(f1),
            "xi_range": [xi_lo, xi_hi], "psi_range": [psi_lo, psi_hi]}
    return header, rows.tolist(), meta


def cmd_verify(ns) -> tuple:
    from . import checks

    return None, None, checks.run_battery(only=ns.only, tol_scale=ns.tol)


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing reads
    it and leaves it unchanged, so every `main` call shares it.  It holds
    each subcommand's contract: its flags, which of them are required,
    the default string of every other, and each flag's one reader."""
    parser = argparse.ArgumentParser(
        prog="hopf-flow", fromfile_prefix_chars="@",
        description="Numerical laboratory for the unit-speed flow induced "
                    "by the Hopf fibration and its first integrals.")
    sub = parser.add_subparsers(dest="command", required=True)
    pair, triple = (functools.partial(_floats, n=n) for n in (2, 3))

    def command(name: str, summary: str, run: Callable, *,
                fmt: bool = True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--out", help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", default="csv", metavar="FORMAT",
                           choices=("csv", "json"),
                           help="csv or json (default %(default)s)")
        else:  # the report is always JSON
            p.set_defaults(format="json")
        return p

    p = command("trace", "integrate the flow", cmd_trace)
    p.add_argument("--tol", default="1e-10", type=_rel_tol,
                   help="integration rel_tol (default %(default)s)")
    p.add_argument("--start", required=True, type=triple,
                   help="x,y,z (or r,phi,psi with --chart spherical)")
    p.add_argument("--span", default="10", type=_number,
                   help="time span (default %(default)s)")
    p.add_argument("--chart", default="cartesian", metavar="CHART",
                   choices=("cartesian", "spherical"),
                   help="cartesian or spherical, whose time runs the "
                   "orbit backward (default %(default)s)")
    p.add_argument("--dense", default="0", type=_count(0, lambda n: n * 4),
                   help="additional uniformly spaced output samples "
                        "(default %(default)s)")

    p = command("field", "probe the velocity field", cmd_field)
    p.add_argument("--point", action="append", type=triple,
                   help="x,y,z probe (repeatable; default five built-in "
                        "probes)")

    p = command("reduce", "trace the reduced (r,H) curve", cmd_reduce)
    p.add_argument("--tol", default="1e-10", type=_rel_tol,
                   help="integration rel_tol (default %(default)s)")
    p.add_argument("--start", required=True, type=pair, help="r0,psi0")
    p.add_argument("--target", required=True, type=_number,
                   help="target radius")

    p = command("implicit", "solve the implicit Bessel relation over r",
                cmd_implicit)
    constant = p.add_mutually_exclusive_group(required=True)
    constant.add_argument("--c1", type=_number, help="effective constant")
    constant.add_argument("--start", type=pair,
                          help="r0,h0 fixing the constant")
    p.add_argument("--rmin", required=True, type=_number,
                   help="first sweep radius")
    p.add_argument("--rmax", required=True, type=_number,
                   help="last sweep radius")
    p.add_argument("--n", default="25", type=_count(1, lambda n: n * 3),
                   help="sweep points (default %(default)s)")
    p.add_argument("--bracket", required=True, type=pair,
                   help="H bracket lo,hi for the root solve")

    p = command("rho", "tabulate the generating function", cmd_rho)
    p.add_argument("--c2", default="1", type=_number,
                   help="first-integral slope c2 (default %(default)s)")
    p.add_argument("--f1", type=_floats, help="comma-separated ascending "
                   "F1 coefficients (default none)")
    p.add_argument("--grid", default="20",
                   type=_count(1, lambda n: n * n * 11),
                   help="points per grid axis (default %(default)s)")
    p.add_argument("--xi", default="0.12,0.72", type=pair,
                   help="xi range lo,hi (default %(default)s)")
    p.add_argument("--psi", default="0.3,2.8415926535897933", type=pair,
                   help="psi range lo,hi (default %(default)s: 0.3 to "
                        "pi - 0.3)")

    p = command("verify", "run the check battery", cmd_verify, fmt=False)
    p.add_argument("--tol", default="1", type=_tol_scale, help="scale "
                   "applied to every check tolerance (default %(default)s)")
    p.add_argument("--only", action="append", type=_check_name,
                   help="run only this check (repeatable; default all)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the subcommand argv names and return its exit code: 2 for any
    usage error, the parser's too, and 0 for --help; no SystemExit."""
    try:
        ns = build_parser().parse_args(argv)
        header, rows, meta = ns.run(ns)
        # Rows of floats as CSV, with a .meta.json sidecar in a file, or as
        # one JSON document; verify's report, which has no rows, is its meta.
        if ns.format == "csv":
            write_csv(ns.out, header, rows)
            if ns.out is not None:
                _write_json(ns.out + ".meta.json", meta)
        else:
            _write_json(ns.out, meta if header is None else
                        {"header": list(header), "rows": rows, "meta": meta})
    except SystemExit as exc:  # the parser printed the help or a refusal
        return exc.code
    except (ValueError, OSError) as exc:  # a flag file that is no text too
        print(f"hopf-flow: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (RuntimeError, ArithmeticError) as exc:
        print(f"hopf-flow: {exc}", file=sys.stderr)
        return _CHECK_ERROR
    # Only verify's report says whether it passed.
    return 0 if meta.get("passed", True) else _CHECK_ERROR


if __name__ == "__main__":
    sys.exit(main())
