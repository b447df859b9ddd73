"""Spans at the public functions of hopf_flow's modules, for the traced run.

Nothing in the package changes.  For a traced pass, `Tracer.install`
rebinds each public name in `TARGETS` (and every `from ... import` alias of
it) to a timing wrapper, rebinds `Trajectory.sample` on the class and the
battery's `checks.CHECKS` table with wrapped check functions, and
`Tracer.uninstall` puts every original back.  Private helpers stay
unwrapped, so their work counts toward the public call above them.

A span records its name, layer (the module), wall start and end, the
thread's CPU time, the parent span and the thread.  Each thread keeps its
own parent stack; a span opened on a pool worker with an empty stack is
adopted by the span open on the main thread, which submitted the work.
Self time is thread CPU time minus that of same-thread children, so it
excludes time spent waiting for the interpreter lock.  Work is counted in
points: the array length of the call's point argument, 1 for a scalar.
A wrapper with an `inspect` function only keeps the call's arguments and
result; `Tracer.finish` inspects them after the pass, so that work is
charged to no span.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter, thread_time
from typing import Callable

import numpy as np


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "points", "start",
                 "end", "cpu", "child_cpu", "extra", "error")

    def __init__(self, name, layer, parent, thread, points):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.points = points
        self.child_cpu = 0.0
        self.extra = None
        self.error = None

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


def _size(x) -> int:
    """Points in a call argument: leading length of an array, else 1."""
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 0 else 1


def _lanes(y) -> int:
    """States in an ODE state argument: rows of a 2-d array, else 1."""
    shape = getattr(y, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _undual(x):
    depth = 0
    while type(x).__name__ == "Dual":
        x, depth = x.val, depth + 1
    return x, depth


def _rho_raw_points(args, kwargs) -> int:
    xi, _ = _undual(args[0])
    psi, _ = _undual(args[1])
    return max(_size(xi), _size(psi))


def _rho_raw_depth(args, kwargs, result) -> str:
    depth = max(_undual(args[0])[1], _undual(args[1])[1])
    return ("plain", "dual", "nested")[min(depth, 2)]


# Bessel evaluation regions in z, as special_functions documents them.
SERIES_TOP = 2.0
ASYMPTOTIC_BOTTOM = 16.0
REGIONS = ("series", "cf", "asymptotic")


def _bessel_regions(args, kwargs, result) -> tuple[int, int, int]:
    z = np.atleast_1d(np.asarray(args[0] if args else kwargs["z"], float))
    series = int(np.count_nonzero(z <= SERIES_TOP))
    asym = int(np.count_nonzero(z >= ASYMPTOTIC_BOTTOM))
    return series, z.size - series - asym, asym


def _integration_counts(args, kwargs, traj) -> tuple[int, int, int]:
    return (int(np.sum(getattr(traj, "nfev", 0))),
            int(np.sum(getattr(traj, "naccept", 0))),
            int(np.sum(getattr(traj, "nreject", 0))))


def _curve_counts(args, kwargs, curve) -> tuple[int, int]:
    return len(curve.segments), int(curve.turning_crossings)


def _first(args, kwargs) -> int:
    return _size(args[0]) if args else 1


def _second(args, kwargs) -> int:
    return _size(args[1]) if len(args) > 1 else 1


def _state(args, kwargs) -> int:
    return _lanes(args[1]) if len(args) > 1 else 1


def _point_xi(args, kwargs) -> int:
    return _size(args[0].xi)


def _rows(args, kwargs) -> int:
    return len(args[2])


@dataclasses.dataclass(frozen=True)
class Target:
    """A public function and the modules whose name for it is rebound."""

    layer: str
    name: str
    aliases: tuple[str, ...] = ()
    points: Callable = _first
    inspect: Callable | None = None
    # False: a call from inside the same layer opens no span.
    inner: bool = True


TARGETS = (
    Target("fields", "cartesian_ode", points=_state, inner=False),
    Target("fields", "spherical_ode", points=_state, inner=False),
    Target("fields", "eval_cartesian", inner=False),
    Target("fields", "eval_spherical", ("first_integral",), inner=False),
    Target("fields", "derived_rates", inner=False),
    Target("fields", "to_spherical", inner=False),
    Target("fields", "from_spherical", inner=False),
    Target("fields", "pushforward_sign", inner=False),
    Target("integrator", "integrate", ("cli", "checks", "reduced_system"),
           points=lambda a, k: _lanes(np.asarray(a[1])),
           inspect=_integration_counts),
    Target("integrator", "integrate_scalar", ("reduced_system",),
           points=lambda a, k: _size(a[2]) if len(a) > 2 else 1),
    Target("special_functions", "bessel_quad", ("reduced_system",),
           inspect=_bessel_regions),
    Target("dual", "derivative", ("first_integral",),
           points=lambda a, k: _size(_undual(a[1])[0])),
    Target("first_integral", "rho_raw", points=_rho_raw_points,
           inspect=_rho_raw_depth),
    Target("first_integral", "rho_eval", points=_point_xi),
    Target("first_integral", "rho_psi_partial", points=_point_xi),
    Target("first_integral", "uv_from_rho", points=_point_xi),
    Target("first_integral", "linear_pde_residual", points=_point_xi),
    Target("first_integral", "parametric_relation_residual", points=_point_xi),
    Target("first_integral", "reconstruct_H"),
    Target("first_integral", "h_pde_residual"),
    Target("first_integral", "phi_flow_derivative"),
    Target("first_integral", "xi_substitution_residual"),
    Target("reduced_system", "implicit_constant"),
    Target("reduced_system", "implicit_residual", points=_second),
    Target("reduced_system", "solve_implicit", points=_second),
    Target("reduced_system", "trace_h"),
    Target("reduced_system", "trace_reduced", inspect=_curve_counts),
    Target("reduced_system", "select_effective_form"),
    Target("reduced_system", "substitution_check"),
    Target("reduced_system", "h_rhs"),
    Target("reduced_system", "psi_rhs"),
    Target("reduced_system", "reduced_time_ode", points=_state),
    Target("diagnostics", "summarize", ("checks",)),
    Target("diagnostics", "relative_to_terms"),
    Target("checks", "run_battery"),
    Target("cli", "write_csv", points=_rows),
)


def _module(name: str):
    return importlib.import_module(f"hopf_flow.{name}")


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str, layer: str, points: int) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, layer, parent, threading.get_ident(), points)
        stack.append(span)
        span.start = perf_counter()
        span.cpu = thread_time()
        return span

    def _close(self, span: Span) -> None:
        span.cpu = thread_time() - span.cpu
        span.end = perf_counter()
        self._stack().pop()
        parent = span.parent
        if parent is not None and parent.thread == span.thread:
            parent.child_cpu += span.cpu
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, points: int = 1):
        """A span the benchmark opens itself."""
        span = self._open(name, layer, points)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, layer: str,
             points: Callable = _first, inspect: Callable | None = None,
             inner: bool = True) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not inner:
                stack = tracer._stack()
                if stack and stack[-1].layer == layer:
                    return fn(*args, **kwargs)
            span = tracer._open(name, layer, points(args, kwargs))
            try:
                result = fn(*args, **kwargs)
                if inspect is not None:
                    span.extra = (inspect, args, kwargs, result)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            return result

        return traced

    # -- rebinding ------------------------------------------------------------

    def _rebind(self, obj, attr: str, new) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        for t in TARGETS:
            home = _module(t.layer)
            fn = getattr(home, t.name, None)
            if fn is None:
                self.missing.append(f"{t.layer}.{t.name}")
                continue
            wrapped = self.wrap(fn, f"{t.layer}.{t.name}", t.layer, t.points,
                                t.inspect, t.inner)
            self._rebind(home, t.name, wrapped)
            for alias in t.aliases:
                mod = _module(alias)
                if getattr(mod, t.name, None) is fn:
                    self._rebind(mod, t.name, wrapped)
        integrator = _module("integrator")
        sample = getattr(integrator.Trajectory, "sample", None)
        if sample is None:
            self.missing.append("integrator.Trajectory.sample")
        else:
            self._rebind(integrator.Trajectory, "sample", self.wrap(
                sample, "integrator.sample", "integrator",
                points=lambda a, k: int(np.size(a[1]))))
        checks = _module("checks")
        table = getattr(checks, "CHECKS", None)
        if table is None:
            self.missing.append("checks.CHECKS")
        else:
            self._rebind(checks, "CHECKS", tuple(
                dataclasses.replace(c, fn=self.wrap(
                    c.fn, f"checks.{c.name}", "checks"))
                for c in table))

    def finish(self) -> None:
        """Inspect the calls whose arguments and result the wrappers kept."""
        for s in self.spans:
            if s.extra is not None:
                inspect, args, kwargs, result = s.extra
                s.extra = inspect(args, kwargs, result)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)

    def leftovers(self) -> list[str]:
        """Rebound names whose original is not back in place."""
        return [f"{getattr(obj, '__name__', obj)}.{attr}"
                for obj, attr, original in self._saved
                if getattr(obj, attr) is not original]

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: id, name, layer, thread, parent, times."""
        ids = {id(s): k for k, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "layer", "thread", "parent", "start_s",
                          "end_s", "cpu_s", "self_cpu_s", "points", "error"])
            t0 = min((s.start for s in self.spans), default=0.0)
            for k, s in enumerate(self.spans):
                parent = "" if s.parent is None else ids.get(id(s.parent), "")
                out.writerow([k, s.name, s.layer, s.thread, parent,
                              f"{s.start - t0:.9f}", f"{s.end - t0:.9f}",
                              f"{s.cpu:.9f}", f"{s.self_cpu:.9f}", s.points,
                              s.error or ""])


# -- per-layer metrics ----------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], check_names: list[str],
                  emit_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for each name)."""
    m: dict[str, float] = {}
    self_s = defaultdict(float)
    entry_points = defaultdict(int)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        self_s[s.layer] += s.self_cpu
        if s.parent is None or s.parent.layer != s.layer:
            entry_points[s.layer] += s.points
        by_name[s.name].append(s)

    def points(name: str) -> int:
        return sum(s.points for s in by_name[name])

    def incl_us(name: str) -> float:
        return 1e6 * _ratio(sum(s.cpu for s in by_name[name]), points(name))

    def overlap(pooled: list[Span], key: Callable) -> float:
        groups = defaultdict(list)
        for s in pooled:
            groups[key(s)].append(s)
        busy = sum(s.cpu for s in pooled)
        wall = sum(max(s.end for s in g) - min(s.start for s in g)
                   for g in groups.values())
        return _ratio(busy, wall)

    def root(s: Span) -> Span:
        while s.parent is not None:
            s = s.parent
        return s

    pooled = [s for s in spans if s.parent is not None
              and s.parent.thread != s.thread]
    m["cli.self_s"] = self_s["cli"]
    m["cli.emit_s"] = sum(s.cpu for s in by_name["cli.write_csv"])
    m["cli.emit_bytes"] = float(emit_bytes)
    m["cli.pool_overlap"] = overlap(pooled, lambda s: id(root(s)))

    m["fields.points"] = entry_points["fields"]
    m["fields.self_s"] = self_s["fields"]
    m["fields.us_per_point"] = 1e6 * _ratio(self_s["fields"],
                                            entry_points["fields"])

    integ = by_name["integrator.integrate"]
    nfev = sum(s.extra[0] for s in integ if s.extra)
    nacc = sum(s.extra[1] for s in integ if s.extra)
    nrej = sum(s.extra[2] for s in integ if s.extra)
    run_self = sum(s.self_cpu for name in ("integrator.integrate",
                                           "integrator.integrate_scalar")
                   for s in by_name[name])
    m["integrator.calls"] = len(integ)
    m["integrator.self_s"] = self_s["integrator"]
    m["integrator.rhs_calls"] = nfev
    m["integrator.steps_accepted"] = nacc
    m["integrator.step_accept_ratio"] = _ratio(nacc, nacc + nrej)
    m["integrator.us_per_rhs"] = 1e6 * _ratio(run_self, nfev)
    m["integrator.sample_points"] = points("integrator.sample")
    m["integrator.sample_s"] = sum(s.self_cpu
                                   for s in by_name["integrator.sample"])

    region_points = [0, 0, 0]
    region_s = [0.0, 0.0, 0.0]
    out_of_range = 0
    for s in by_name["special_functions.bessel_quad"]:
        if s.error is not None:
            out_of_range += s.points
            continue
        if s.parent is not None and s.parent.layer == "special_functions":
            continue
        counts = s.extra or (0, 0, 0)
        total = sum(counts) or 1
        for k, n in enumerate(counts):
            region_points[k] += n
            region_s[k] += s.self_cpu * n / total
    for k, region in enumerate(REGIONS):
        m[f"special_functions.points.{region}"] = region_points[k]
        m[f"special_functions.us_per_point.{region}"] = 1e6 * _ratio(
            region_s[k], region_points[k])
    m["special_functions.out_of_range"] = out_of_range

    m["dual.derivative.points"] = points("dual.derivative")
    m["dual.derivative.us_per_point"] = incl_us("dual.derivative")
    depth_points = defaultdict(int)
    depth_cpu = defaultdict(float)
    for s in by_name["first_integral.rho_raw"]:
        depth_points[s.extra] += s.points
        depth_cpu[s.extra] += s.cpu
    depth_us = {d: 1e6 * _ratio(depth_cpu[d], depth_points[d])
                for d in ("plain", "dual", "nested")}
    m["dual.overhead.dual"] = _ratio(depth_us["dual"], depth_us["plain"])
    m["dual.overhead.nested"] = _ratio(depth_us["nested"], depth_us["plain"])

    m["first_integral.self_s"] = self_s["first_integral"]
    for d in ("plain", "dual", "nested"):
        m[f"first_integral.rho_raw.points.{d}"] = depth_points[d]
    for d in ("plain", "dual", "nested"):
        m[f"first_integral.rho_raw.us_per_point.{d}"] = depth_us[d]
    for name in ("rho_eval", "uv_from_rho", "linear_pde_residual",
                 "h_pde_residual"):
        m[f"first_integral.{name}.us_per_point"] = incl_us(
            f"first_integral.{name}")
    solvers = {"first_integral.reconstruct_H", "first_integral.h_pde_residual",
               "first_integral.phi_flow_derivative"}
    m["first_integral.rho_raw_per_root"] = _ratio(
        sum(s.points for s in by_name["first_integral.rho_raw"]
            if s.parent is not None and s.parent.name in solvers),
        sum(len(by_name[n]) for n in solvers))

    solves = by_name["reduced_system.solve_implicit"]
    m["reduced_system.self_s"] = self_s["reduced_system"]
    m["reduced_system.solve_implicit.points"] = points(
        "reduced_system.solve_implicit")
    m["reduced_system.solve_implicit.us_per_point"] = incl_us(
        "reduced_system.solve_implicit")
    m["reduced_system.constants_per_solve"] = _ratio(
        sum(s.points for s in by_name["reduced_system.implicit_constant"]
            if s.parent is not None
            and s.parent.name == "reduced_system.solve_implicit"),
        points("reduced_system.solve_implicit"))
    m["reduced_system.solve_ok_ratio"] = _ratio(
        sum(s.points for s in solves if s.error is None),
        points("reduced_system.solve_implicit"))
    m["reduced_system.implicit_constant.us_per_point"] = incl_us(
        "reduced_system.implicit_constant")
    curves = [s.extra for s in by_name["reduced_system.trace_reduced"]
              if s.extra]
    m["reduced_system.trace_reduced.segments"] = sum(c[0] for c in curves)
    m["reduced_system.trace_reduced.turning_crossings"] = sum(
        c[1] for c in curves)

    m["diagnostics.self_s"] = self_s["diagnostics"]

    for name in check_names:
        m[f"checks.{name}.s"] = sum(s.cpu for s in by_name[f"checks.{name}"])
    battery = by_name["checks.run_battery"]
    m["checks.pool_overlap"] = _ratio(
        sum(s.cpu for s in spans if s.name.startswith("checks.")
            and s.parent is not None and s.parent.name == "checks.run_battery"),
        sum(s.end - s.start for s in battery))
    return {k: float(v) for k, v in m.items()}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
