"""Explicit Dormand-Prince 5(4) integrator with PI step control.

`integrate(field_fn, y0, t_span, rel_tol=, events=)` is the one way to
integrate: an embedded 7-stage pair with the first-same-as-last property,
a PI stepsize controller, and cubic Hermite dense output over accepted
steps.  Works in either time direction (t1 < t0 integrates backward); an
empty span returns the single initial sample.  Runs are deterministic:
identical inputs give bit-identical trajectories.

A run is one function generated from one template per state dimension
d and field, on Python floats: the state is d scalar locals, and
field_fn(t, y) receives the state as a list of d floats and returns d
numbers (a tuple, a list or a 1-D array; a wrong count raises ValueError
at any call).  Stage i is f(t + c_i h, y + sum_j (h a_ij) k_j); the new
state is y + sum_j (h b_j) k_j (stage 7 is evaluated there), and the
local error is h sum_j e_j k_j, each sum written out over the locals.  A
field that `inlined_field` defined from its text (the package's four:
`fields.cartesian_ode`, `fields.spherical_ode`,
`reduced_system.reduced_time_ode` and the dH/dr of `trace_h`) has its
body written into every stage in place of the call, over the same
locals and with the same bits; where one of its guards fails, the stage
calls the field.  Any other callable, a wrapper of one of those four
included, is called at every stage.  The error norm is
the RMS of that error over the scale abs_tol + rel_tol * max(|y0|, |y1|),
where abs_tol = rel_tol * 1e-2 and rel_tol must lie in [1e-14, 1e-2).  The
same function runs the accept/reject loop around the step: the PI
controller, the stop tests and the event sign test.  Each accepted step
extends three flat `array('d')` buffers of times, states and slopes; the
trajectory's arrays are numpy views of those buffers, made without a
copy.  A run makes 2 RHS calls to start, 6 per attempted step and 1 more
when an event stops it.

A run stops at the end of the span (`reached_end`), at an event
(`event`), when the step size falls below MIN_STEP or one ulp of t
(`step_underflow`), when STALL_WINDOW accepted steps in a row advance t
by less than STALL_FRACTION of the span (`stalled`), or after MAX_STEPS
attempted steps (`max_steps`); each returns the trajectory up to that
point.  A stall is tested once per window.

Every event stops the run.  When an event function changes sign over an
accepted step, the crossing is located on that step's Hermite interpolant
on floats by `diagnostics.float_roots`, the shared root refiner's
one-row path, with one scan interval (the step), to EVENT_T_TOL in t (or
to adjacent doubles where that is finer than one ulp); each refining
round evaluates the event function once.  The earliest crossing in the
step ends the trajectory there.
"""

from __future__ import annotations

import ast
import builtins
import functools
import linecache
import math
import re
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import float_roots

# Dormand-Prince 5(4) tableau; row i of _A weighs stages 1..i+1 to form
# stage i + 2, and the last row doubles as the 5th-order weights
# (first-same-as-last).  _E is the difference against the embedded
# 4th-order pair.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_BETA = 0.04
_EXPO = 0.2 - _BETA * 0.75

EVENT_T_TOL = 1e-12
MIN_STEP = 1e-14
MAX_STEPS = 1_000_000
# A run whose window of STALL_WINDOW accepted steps advances t by less
# than STALL_FRACTION of the span would need over 1e8 steps, 100 times
# MAX_STEPS, to cross the span at that pace.  Measured: dH/dr stuck on
# the turning locus advances ~8e-6 of its span per window; the longest
# run of the package, `trace --span 1e4` (116k steps), 8.5e-2.
STALL_WINDOW = 10_000
STALL_FRACTION = 1e-4

STOP_REACHED_END = "reached_end"
STOP_EVENT = "event"
STOP_UNDERFLOW = "step_underflow"
STOP_MAX_STEPS = "max_steps"
STOP_STALLED = "stalled"


@dataclass(frozen=True)
class Event:
    """Zero crossing of fn(t, y) that stops the integration.

    direction > 0 reacts only to rising crossings, < 0 only to falling
    ones, 0 to both.  fn sees y as a list of floats, at accepted steps and
    while a crossing is located.
    """

    fn: Callable[[float, Sequence[float]], float]
    direction: int = 0
    name: str = "event"


@dataclass(frozen=True)
class EventHit:
    name: str
    t: float
    y: np.ndarray
    index: int


@dataclass
class Trajectory:
    """Accepted-step skeleton of one integration run.

    ts, ys, fs hold the accepted times, states, and derivatives (one row
    per point), as views of the flat buffers the run filled; `sample`
    interpolates between rows with the cubic Hermite matching both
    endpoint values and slopes.  `event` is the crossing that stopped the
    run, if one did.
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    stop_reason: str
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    event: EventHit | None = None
    nfev: int = 0
    naccept: int = 0
    nreject: int = 0

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def y_end(self) -> np.ndarray:
        return self.ys[-1].copy()

    def sample(self, t: float | Sequence[float]) -> np.ndarray:
        """Dense output at time(s) t inside the integrated span."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        forward = self.ts[-1] >= self.ts[0]
        ts = self.ts if forward else self.ts[::-1]
        lo, hi = ts[0], ts[-1]
        pad = 1e-9 * (1.0 + abs(lo) + abs(hi))
        if np.any(t_arr < lo - pad) or np.any(t_arr > hi + pad):
            raise ValueError("sample time outside the integrated span")
        if len(self.ts) == 1:
            out = np.repeat(self.ys[:1], len(t_arr), axis=0)
            return out if np.ndim(t) else out[0]
        i = np.clip(np.searchsorted(ts, t_arr, side="right") - 1,
                    0, len(ts) - 2)
        if not forward:
            i = len(self.ts) - 2 - i
        out = _hermite(t_arr, self.ts[i], self.ts[i + 1], self.ys[i],
                       self.ys[i + 1], self.fs[i], self.fs[i + 1])
        return out if np.ndim(t) else out[0]


def _hermite(t, t0, t1, y0, y1, f0, f1):
    """Cubic Hermite through (t0, y0, y0') and (t1, y1, y1'), at time t.

    Either t, t0 and t1 are floats and y0, y1, f0 and f1 lists of d
    floats, giving a list (events), or t, t0 and t1 are arrays of one
    entry per query and y0, y1, f0 and f1 the matching (n, d) rows,
    giving (n, d) rows (`sample`).  Both write the same expressions, but
    a float's ** 2 is libm's pow and an array's numpy's square, which
    differ in the last bit at ~1 in 1,000 points.  A zero-length step
    returns y0.
    """
    h = t1 - t0
    rows = isinstance(h, np.ndarray)
    if rows:
        flat = h == 0.0
        th = (t - t0) / np.where(flat, 1.0, h)
    elif h == 0.0:
        return list(y0)
    else:
        th = (t - t0) / h
    h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
    h10 = th * (1.0 - th) ** 2
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0)
    if not rows:
        return [h00 * a + h01 * b + h * (h10 * p + h11 * q)
                for a, b, p, q in zip(y0, y1, f0, f1)]
    h00, h10, h01, h11, h = (w[..., None] for w in (h00, h10, h01, h11, h))
    out = h00 * y0 + h01 * y1 + h * (h10 * f0 + h11 * f1)
    return np.where(flat[..., None], y0, out)


def _rms(values: list[float]) -> float:
    """Root mean square, summed in order on Python floats."""
    acc = 0.0
    for v in values:
        acc += v * v
    return math.sqrt(acc / len(values))


def _initial_step(field_fn, t0: float, y0: list[float], f0: Sequence[float],
                  sign: float, rel_tol: float, abs_tol: float,
                  span: float) -> float:
    sc = [abs_tol + rel_tol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, sc)])
    d1 = _rms([v / s for v, s in zip(f0, sc)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not h0 > 0.0:  # d1 is NaN, or too large for any step to resolve
        raise ValueError(f"the slope at the start, {[float(v) for v in f0]}"
                         f", is not finite or too steep to take a step")
    h0 = min(h0, span)
    sh0 = sign * h0
    f1 = field_fn(t0 + sh0, [v + sh0 * p for v, p in zip(y0, f0)])
    d2 = _rms([(q - p) / s
               for q, p, s in zip(f1, f0, sc, strict=True)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


# The fields `inlined_field` defined, by the id of the function object:
# the source that the runs generated for that field write out in place
# of each field_fn call.
_INLINED: dict[int, str] = {}


def inlined_field(source: str, namespace: dict) -> Callable:
    """The field function that `source` defines, compiled in `namespace`.

    source is one `def name(t, y)`: an optional docstring, a statement
    unpacking y into one name per component, assignments (never to t or
    a component) and guards, and `return` of a tuple of one expression
    per component.  A guard is an `if` with no else; its body is the
    function's cold path (it returns or raises).  The function's globals
    are `namespace` (a module's globals), and its text is kept in
    linecache, so a traceback through it shows its line.

    `integrate` writes the body of the very function returned (not of a
    wrapper around it) into each stage of its run: where a guard's test
    holds, the stage calls the function instead, which takes its cold
    path.  The body is parsed, and the module-level names it reads are
    bound, when the first run for it is generated.
    """
    name = re.match(r"\s*def (\w+)", source).group(1)
    filename = f"<field {namespace['__name__']}.{name}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    local: dict = {}
    exec(compile(source, filename, "exec"), namespace, local)
    fn = local[name]
    _INLINED[id(fn)] = source
    return fn


def _inlined_stage(field: Callable) -> tuple[Callable, dict]:
    """(stage, names) for writing field's body into a run.

    stage(s, at, state) gives the lines that bind k{s}_0, k{s}_1, ... to
    the field's slope at time `at` and the state whose components are the
    expressions `state`.  The body's own names become f_<name>, and the
    module-level and builtin names it reads g_<name>, so none meets a
    name of the run; `names` binds the latter.
    """
    (fdef,) = ast.parse(_INLINED[id(field)]).body
    body = fdef.body[1:] if ast.get_docstring(fdef) is not None else fdef.body
    unpack, *statements, ret = body
    time, arg = (a.arg for a in fdef.args.args)
    target = unpack.targets[0] if isinstance(unpack, ast.Assign) else None
    components = [n.id for n in getattr(target, "elts", ())
                  if isinstance(n, ast.Name)]
    assigned = {n.id for st in statements if isinstance(st, ast.Assign)
                for t in st.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    if not (isinstance(target, (ast.Tuple, ast.List))
            and len(components) == len(target.elts)
            and isinstance(unpack.value, ast.Name)
            and unpack.value.id == arg
            and all(isinstance(st, ast.Assign)
                    or isinstance(st, ast.If) and not st.orelse
                    for st in statements)
            and not assigned & {time, *components}
            and isinstance(ret, ast.Return)
            and isinstance(ret.value, ast.Tuple)
            and len(ret.value.elts) == len(components)):
        raise ValueError(f"{fdef.name}: not a field integrate can inline")
    local = {time, *components, *assigned}
    names: dict = {}
    read: set[str] = set()

    def rename(node: ast.AST) -> str:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in local:
                read.add(n.id)
                n.id = f"f_{n.id}"
            elif isinstance(n, ast.Name):
                g = field.__globals__
                names[f"g_{n.id}"] = (g[n.id] if n.id in g
                                      else getattr(builtins, n.id))
                n.id = f"g_{n.id}"
        return ast.unparse(node)

    # A guard's test is written out, not its body: the cold path is the
    # field's own.
    lines = [(True, rename(st.test)) if isinstance(st, ast.If)
             else (False, rename(st)) for st in statements]
    slopes = [rename(e) for e in ret.value.elts]
    comps = [f"f_{c}" for c in components]

    def stage(s: int, at: str, state: list[str]) -> list[str]:
        ks = [f"k{s}_{i}" for i in range(len(comps))]
        call = f"[{', '.join(ks)}] = field_fn({at}, [{', '.join(comps)}])"
        out = [f"{c} = {v}" for c, v in zip(comps, state)]
        if time in read:
            out.append(f"f_{time} = {at}")
        indent = ""
        for guard, line in lines:
            if guard:
                out += [f"{indent}if {line}:", f"{indent}    {call}",
                        f"{indent}else:"]
                indent += "    "
            else:
                out.append(indent + line)
        return out + [f"{indent}{k} = {e}" for k, e in zip(ks, slopes)]

    return stage, names


@functools.cache
def _run_fn(d: int, field: Callable | None = None) -> Callable:
    """The run for states of d components, generated on first use.

    run(field_fn, t, t1, h, y, k1, sign, rel_tol, abs_tol, min_step,
    max_steps, window, stall_dt, ts, ys, fs, ev_fns, ev_dirs, gs) steps
    from (t, y, k1) toward t1, the first step of size h, appends each
    accepted one to ts, ys and fs, and returns (stop_reason, naccept,
    nreject, g_lo, g_hi): the event values ev_fns[i](t, y) (gs at the
    start) at the last two rows, of which one event changed sign in its
    direction ev_dirs[i] if the reason is STOP_EVENT.  With `field`, a
    function `inlined_field` defined, each stage is that field's body
    written over the run's locals, none of which starts with f_ or g_;
    without, each stage calls field_fn, and unpacking each slope into d
    locals refuses a wrong-length one.  The source is kept in linecache,
    so a traceback through a run shows its line.  Every sum keeps a fixed
    term order, and an inlined body every operation of the field's, on
    which trajectories' bits rest.
    """
    rows = [(f"a{s}", row) for s, row in enumerate(_A[:-1], start=2)]
    names = {f"{p}{j}": w for p, row in rows + [("b", _A[-1]), ("e", _E)]
             for j, w in enumerate(row, start=1)}
    names.update({f"c{s}": c for s, c in enumerate(_C, start=1)},
                 sqrt=math.sqrt)

    def every(expr: str) -> list[str]:
        """expr for every component, '#' standing for its index."""
        return [expr.replace("#", str(i)) for i in range(d)]

    def each(expr: str, sep: str = ", ") -> str:
        return sep.join(every(expr))

    def called(s: int, at: str, state: list[str]) -> list[str]:
        return [f"[{each(f'k{s}_#')}] = field_fn({at}, [{', '.join(state)}])"]

    stage = called
    if field is not None:
        stage, field_names = _inlined_stage(field)
        names.update(field_names)

    def weigh(prefix: str, row: Sequence[float]) -> tuple[list[str], str]:
        """q_j = hs * w_j over the row's nonzero weights, and the sum
        sum_j q_j k_j for component '#'."""
        js = [j for j, w in enumerate(row, start=1) if w != 0.0]
        terms = " + ".join(f"q{j} * k{j}_#" for j in js)
        return ([f"q{j} = hs * {prefix}{j}" for j in js],
                terms if len(js) == 1 else f"({terms})")

    step = []
    # Stages k2..k6 at t + c_s h (c6 = 1), from the h-scaled rows.
    for s, (prefix, row) in enumerate(rows, start=2):
        qs, incr = weigh(prefix, row)
        at = "t + hs" if _C[s - 1] == 1.0 else f"t + c{s} * hs"
        step += qs + stage(s, at, every(f"y# + {incr}"))
    # The 5th-order weights (b2 = 0); first-same-as-last: stage 7 sits
    # at (t + h, y_new).
    qs, incr = weigh("b", _A[-1])
    step += qs + every(f"n# = y# + {incr}") + stage(7, "t + hs", every("n#"))
    # Local error h sum_j e_j k_j (e2 = 0) over the scale
    # abs_tol + rel_tol * max(|y|, |y_new|).
    e_sum = " + ".join(f"e{j} * k{j}_#" for j, w in enumerate(_E, start=1)
                       if w != 0.0)
    step += every(f"u# = abs(y#)\nw# = abs(n#)\nr# = hs * ({e_sum}) / "
                  f"(abs_tol + rel_tol * (u# if u# > w# else w#))")
    step.append(f"err = sqrt(({each('r# * r#', ' + ')}) / {d})")

    def stop(reason: str, g_hi: str = "gs") -> str:
        return f"return {reason!r}, naccept, nreject, gs, {g_hi}"

    # The PI controller (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
    # each min and max written as the comparison the builtin makes.
    fac_lo, fac_hi = repr(1.0 / _FAC_MAX), repr(1.0 / _FAC_MIN)
    src = [
        "def run(field_fn, t, t1, h, y, k1, sign, rel_tol, abs_tol, "
        "min_step, max_steps, window, stall_dt, ts, ys, fs, ev_fns, "
        "ev_dirs, gs):",
        f"    [{each('y#')}] = y", f"    [{each('k1_#')}] = k1",
        "    add_t, add_y, add_f = ts.append, ys.append, fs.append",
        "    naccept = nreject = 0",
        "    facold = 1e-4",
        "    just_rejected = False",
        "    t_mark = t",
        "    mark = window",
        "    for _ in range(max_steps):",
        "        rem = abs(t1 - t)",
        "        if rem < h:",
        "            h = rem",
        "        last = h == rem",
        "        if not last and (h < min_step or t + sign * h == t):",
        "            " + stop(STOP_UNDERFLOW),
        "        hs = sign * h",
        *("        " + line for text in step for line in text.split("\n")),
        "        if err <= 1.0:",
        # Accept.  Land exactly on t1 when the step was clamped to it.
        "            facold = 1e-4 if err < 1e-4 else err",
        "            t_new = t1 if last else t + hs",
        "            add_t(t_new)",
        *(f"            {line}" for line in every("add_y(n#)")
          + every("add_f(k7_#)")),
        "            naccept += 1",
        "            if ev_fns:",
        f"                y_new = [{each('n#')}]",
        "                gs_new = [fn(t_new, y_new) for fn in ev_fns]",
        # A sign change (or a landing on 0) in an event's direction.
        "                for ga, gb, sense in zip(gs, gs_new, ev_dirs):",
        "                    if (ga != 0.0 and ga * gb <= 0.0",
        "                            and not sense * (gb - ga) < 0.0):",
        "                        " + stop(STOP_EVENT, "gs_new"),
        "                gs = gs_new",
        "            t = t_new",
        *(f"            {line}" for line in every("y# = n#")
          + every("k1_# = k7_#")),
        "            if last:",
        "                " + stop(STOP_REACHED_END),
        # Progress, once per window of accepted steps.
        "            if naccept == mark:",
        "                if abs(t - t_mark) < stall_dt:",
        "                    " + stop(STOP_STALLED),
        "                t_mark = t",
        "                mark += window",
        f"            fac = err ** {_EXPO!r} / facold ** {_BETA!r} / "
        f"{_SAFETY!r}",
        f"            if not fac < {fac_hi}:",
        f"                fac = {fac_hi}",
        f"            if not fac > {fac_lo}:",
        f"                fac = {fac_lo}",
        "            h_next = h / fac",
        "            if just_rejected and h < h_next:",
        "                h_next = h",
        "            h = h_next",
        "            just_rejected = False",
        "        else:",
        "            nreject += 1",
        "            just_rejected = True",
        f"            fac = err ** {_EXPO!r} / {_SAFETY!r}",
        f"            h = h / (fac if fac < {fac_hi} else {fac_hi})",
        "    " + stop(STOP_MAX_STEPS),
    ]
    filename = f"<dp5 step d={d}>" if field is None else (
        f"<dp5 step d={d} {field.__module__}.{field.__qualname__}>")
    text = "\n".join(src) + "\n"
    linecache.cache[filename] = (len(text), None, text.splitlines(True),
                                 filename)
    exec(compile(text, filename, "exec"), names)
    return names["run"]


def integrate(field_fn: Callable[[float, list[float]], Sequence[float]],
              y0: Sequence[float],
              t_span: tuple[float, float],
              *, rel_tol: float = 1e-10,
              events: Sequence[Event] = ()) -> Trajectory:
    """Integrate dy/dt = field_fn(t, y) over t_span from y0.

    field_fn(t, y) receives y as a list of d floats and returns d numbers
    (a tuple, a list or a 1-D array, not reused between calls).  Stops at
    the far end of the span, at the first event crossing, when the
    controller can no longer resolve a step or no longer advances, or when
    the step budget runs out; the stop reason is recorded on the
    trajectory.  A slope at y0 that is not finite, or too steep for a
    first step, raises ValueError.
    """
    if not 1e-14 <= rel_tol < 1e-2:
        raise ValueError(f"rel_tol must lie in [1e-14, 1e-2), got {rel_tol!r}")
    abs_tol = rel_tol * 1e-2
    t0, t1 = float(t_span[0]), float(t_span[1])
    y_arr = np.asarray(y0, dtype=float)
    if y_arr.ndim != 1:
        raise ValueError("state must be one-dimensional")
    y = y_arr.tolist()
    d = len(y)

    k1 = field_fn(t0, y)
    # Refused here with its shape; the run's unpacking refuses any later
    # wrong-length slope.
    if np.ndim(k1) != 1:
        raise ValueError(f"field_fn returned shape {np.shape(k1)}, not "
                         f"{d} components")
    if len(k1) != d:
        raise ValueError(f"field_fn returned {len(k1)} components for a "
                         f"state of {d}")
    ts, ys, fs = array("d", [t0]), array("d", y), array("d", k1)
    if t1 == t0:
        return Trajectory(ts=np.frombuffer(ts), ys=_rows(ys, d),
                          fs=_rows(fs, d), stop_reason=STOP_REACHED_END,
                          rel_tol=rel_tol, abs_tol=abs_tol, nfev=1)

    sign = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    events = tuple(events)
    h = _initial_step(field_fn, t0, y, k1, sign, rel_tol, abs_tol, span)
    run = _run_fn(d, field_fn if id(field_fn) in _INLINED else None)
    stop_reason, naccept, nreject, g_lo, g_hi = run(
        field_fn, t0, t1, h, y, k1, sign, rel_tol, abs_tol, MIN_STEP,
        MAX_STEPS, STALL_WINDOW, STALL_FRACTION * span, ts, ys, fs,
        tuple(ev.fn for ev in events), tuple(ev.direction for ev in events),
        [ev.fn(t0, y) for ev in events])

    hit: EventHit | None = None
    if stop_reason == STOP_EVENT:
        # Truncate at the crossing: overwrite the last row.
        hit = _first_crossing(events, g_lo, g_hi, ts[-2], ts[-1],
                              ys[-2 * d:-d].tolist(), ys[-d:].tolist(),
                              fs[-2 * d:-d].tolist(), fs[-d:].tolist())
        f_hit = array("d", field_fn(hit.t, hit.y.tolist()))
        if len(f_hit) != d:
            raise ValueError(f"field_fn returned {len(f_hit)} "
                             f"components for a state of {d}")
        ts[-1] = hit.t
        ys[-d:] = array("d", hit.y)
        fs[-d:] = f_hit
    # Two evaluations start the run, each attempted step makes six, and a
    # located event one more.
    nfev = 2 + 6 * (naccept + nreject) + (hit is not None)
    return Trajectory(ts=np.frombuffer(ts), ys=_rows(ys, d),
                      fs=_rows(fs, d), stop_reason=stop_reason,
                      rel_tol=rel_tol, abs_tol=abs_tol, event=hit,
                      nfev=nfev, naccept=naccept, nreject=nreject)


def _rows(buf: array, d: int) -> np.ndarray:
    """A flat buffer of d-entry rows as a (rows, d) view, without a copy."""
    return np.frombuffer(buf).reshape(-1, d)


def _first_crossing(events: Sequence[Event], g_lo: list, g_hi: list,
                    t_lo: float, t_hi: float, y_lo: list[float],
                    y_hi: list[float], f_lo: list[float],
                    f_hi: list[float]) -> EventHit:
    """The earliest event crossing inside one accepted step, which at
    least one event crosses."""
    first: EventHit | None = None
    for index, (ev, ga, gb) in enumerate(zip(events, g_lo, g_hi)):
        # A sign change (or a landing on 0) in the event's direction.
        if ga == 0.0 or not ga * gb <= 0.0 or ev.direction * (gb - ga) < 0.0:
            continue

        def g(t: float, fn=ev.fn) -> float:
            return fn(t, _hermite(t, t_lo, t_hi, y_lo, y_hi, f_lo, f_hi))

        roots = float_roots(g, t_lo, t_hi, 1, EVENT_T_TOL)
        # No root only when the scan's far end, lo + (hi - lo), rounds
        # past a crossing within one ulp of t_hi.
        t_ev = roots[0] if roots else t_hi
        if first is None or abs(t_ev - t_lo) < abs(first.t - t_lo):
            y_ev = _hermite(t_ev, t_lo, t_hi, y_lo, y_hi, f_lo, f_hi)
            first = EventHit(name=ev.name, t=t_ev, y=np.array(y_ev),
                             index=index)
    return first
