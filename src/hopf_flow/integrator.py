"""Explicit Dormand-Prince 5(4) integrator with PI step control.

`integrate(field_fn, y0, t_span, rel_tol=, events=)` is the one way to
integrate: an embedded 7-stage pair with the first-same-as-last property,
a PI stepsize controller, and cubic Hermite dense output over accepted
steps.  Works in either time direction (t1 < t0 integrates backward); an
empty span returns the single initial sample.  Runs are deterministic:
identical inputs give bit-identical trajectories.

A step runs on Python floats: the state is a list of d floats, and
field_fn(t, y) receives such a list and returns d numbers (a tuple, a
list or a 1-D array; a wrong count is refused on the first call).  Stage
i is f(t + c_i h, y + sum_j (h a_ij) k_j), each sum written out over the
zipped components with the tableau unpacked once per run; the new state
is y + sum_j (h b_j) k_j (stage 7 is evaluated there), and the local
error is h sum_j e_j k_j.  The error norm is the RMS of that error over
the scale abs_tol + rel_tol * max(|y0|, |y1|), where abs_tol =
rel_tol * 1e-2 and both must lie in [1e-16, 1e-2).  numpy enters only to
build the trajectory's arrays at the end and to locate an event.  A run
makes 2 RHS calls to start, 6 per attempted step and 1 more when an
event stops it.

A run stops at the end of the span (`reached_end`), at an event
(`event`), when the step size falls below MIN_STEP or one ulp of t
(`step_underflow`), or after MAX_STEPS attempted steps (`max_steps`);
each returns the trajectory up to that point.

Every event stops the run.  When an event function changes sign over an
accepted step, the crossing is located on that step's Hermite interpolant
by the package's shared root refiner, `diagnostics.bracketed_roots`, to
EVENT_T_TOL in t (or to adjacent doubles where that is finer than one
ulp); the earliest crossing in the step ends the trajectory there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagnostics import bracketed_roots

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

STOP_REACHED_END = "reached_end"
STOP_EVENT = "event"
STOP_UNDERFLOW = "step_underflow"
STOP_MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class Event:
    """Zero crossing of fn(t, y) that stops the integration.

    direction > 0 reacts only to rising crossings, < 0 only to falling
    ones, 0 to both.  fn sees y as a list of floats at accepted steps and
    as an array row while a crossing is located.
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
    per point); `sample` interpolates between rows with the cubic Hermite
    matching both endpoint values and slopes.  `event` is the crossing
    that stopped the run, if one did.
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


def _hermite(t, t0, t1, y0, y1, f0, f1) -> np.ndarray:
    """Cubic Hermite through (t0, y0, y0') and (t1, y1, y1'), at times t.

    t, t0 and t1 are scalars or arrays of one entry per query; y0, y1, f0
    and f1 hold the matching state rows.  A zero-length step returns y0.
    """
    h = np.asarray(t1 - t0)
    flat = h == 0.0
    th = (t - t0) / np.where(flat, 1.0, h)
    h00 = ((1.0 + 2.0 * th) * (1.0 - th) ** 2)[..., None]
    h10 = (th * (1.0 - th) ** 2)[..., None]
    h01 = (th * th * (3.0 - 2.0 * th))[..., None]
    h11 = (th * th * (th - 1.0))[..., None]
    out = (h00 * y0 + h01 * y1 + h[..., None] * (h10 * f0 + h11 * f1))
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
    h0 = min(h0, span)
    sh0 = sign * h0
    f1 = field_fn(t0 + sh0, [v + sh0 * p for v, p in zip(y0, f0)])
    d2 = _rms([(q - p) / s for q, p, s in zip(f1, f0, sc)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def integrate(field_fn: Callable[[float, list[float]], Sequence[float]],
              y0: Sequence[float],
              t_span: tuple[float, float],
              *, rel_tol: float = 1e-10,
              events: Sequence[Event] = ()) -> Trajectory:
    """Integrate dy/dt = field_fn(t, y) over t_span from y0.

    field_fn(t, y) receives y as a list of d floats and returns d numbers
    (a tuple, a list or a 1-D array, not reused between calls).  Stops at
    the far end of the span, at the first event crossing, when the
    controller can no longer resolve a step, or when the step budget runs
    out; the stop reason is recorded on the trajectory.
    """
    abs_tol = rel_tol * 1e-2
    if not (1e-16 <= rel_tol < 1e-2 and 1e-16 <= abs_tol < 1e-2):
        raise ValueError("tolerances must lie in [1e-16, 1e-2)")
    t0, t1 = float(t_span[0]), float(t_span[1])
    y_arr = np.asarray(y0, dtype=float)
    if y_arr.ndim != 1:
        raise ValueError("state must be one-dimensional")
    y = y_arr.tolist()
    d = len(y)

    t = t0
    k1 = field_fn(t, y)
    # zip would silently truncate a wrong-length slope; refuse it once.
    if np.ndim(k1) != 1:
        raise ValueError(f"field_fn returned shape {np.shape(k1)}, not "
                         f"{d} components")
    if len(k1) != d:
        raise ValueError(f"field_fn returned {len(k1)} components for a "
                         f"state of {d}")
    if t1 == t0:
        return Trajectory(ts=np.array([t0]), ys=np.array([y]),
                          fs=np.array([k1], dtype=float),
                          stop_reason=STOP_REACHED_END, rel_tol=rel_tol,
                          abs_tol=abs_tol, nfev=1)

    sign = 1.0 if t1 > t0 else -1.0
    events = tuple(events)
    h = _initial_step(field_fn, t, y, k1, sign, rel_tol, abs_tol,
                      abs(t1 - t0))

    ts = [t]
    ys = [y]
    fs = [k1]
    g_prev = [ev.fn(t, y) for ev in events]

    hit: EventHit | None = None
    stop_reason = STOP_MAX_STEPS
    naccept = 0
    nreject = 0
    facold = 1e-4
    just_rejected = False
    _, c2, c3, c4, c5, _, _ = _C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _A
    e1, _, e3, e4, e5, e6, e7 = _E

    for _ in range(MAX_STEPS):
        rem = abs(t1 - t)
        h = min(h, rem)
        last = h == rem
        if not last and (h < MIN_STEP or t + sign * h == t):
            stop_reason = STOP_UNDERFLOW
            break
        hs = sign * h

        # Stages k2..k6 at t + c_i h (c6 = 1), from the h-scaled rows.
        q1 = hs * a21
        k2 = field_fn(t + c2 * hs, [v + q1 * p1 for v, p1 in zip(y, k1)])
        q1, q2 = hs * a31, hs * a32
        k3 = field_fn(t + c3 * hs, [v + (q1 * p1 + q2 * p2)
                                    for v, p1, p2 in zip(y, k1, k2)])
        q1, q2, q3 = hs * a41, hs * a42, hs * a43
        k4 = field_fn(t + c4 * hs, [v + (q1 * p1 + q2 * p2 + q3 * p3)
                                    for v, p1, p2, p3 in zip(y, k1, k2, k3)])
        q1, q2, q3, q4 = hs * a51, hs * a52, hs * a53, hs * a54
        k5 = field_fn(t + c5 * hs,
                      [v + (q1 * p1 + q2 * p2 + q3 * p3 + q4 * p4)
                       for v, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
        q1, q2, q3, q4, q5 = hs * a61, hs * a62, hs * a63, hs * a64, hs * a65
        k6 = field_fn(t + hs,
                      [v + (q1 * p1 + q2 * p2 + q3 * p3 + q4 * p4 + q5 * p5)
                       for v, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4,
                                                        k5)])
        # The 5th-order weights skip k2 (b2 = 0).
        q1, q3, q4, q5, q6 = hs * b1, hs * b3, hs * b4, hs * b5, hs * b6
        y_new = [v + (q1 * p1 + q3 * p3 + q4 * p4 + q5 * p5 + q6 * p6)
                 for v, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
        # First-same-as-last: stage 7 sits at (t+h, y_new).
        k7 = field_fn(t + hs, y_new)
        acc = 0.0
        for v, w, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5,
                                                  k6, k7):
            v, w = abs(v), abs(w)
            r = (hs * (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6
                       + e7 * p7)
                 / (abs_tol + rel_tol * (v if v > w else w)))
            acc += r * r
        err = math.sqrt(acc / d)

        if err <= 1.0:
            # Accept.  Land exactly on t1 when the step was clamped to it.
            facold = max(err, 1e-4)
            t_new = t1 if last else t + hs
            ts.append(t_new)
            ys.append(y_new)
            fs.append(k7)
            naccept += 1

            if events:
                g_new = [ev.fn(t_new, y_new) for ev in events]
                hit = _first_crossing(events, g_prev, g_new, t, t_new,
                                      y, y_new, k1, k7)
                if hit is not None:
                    # Truncate at the crossing.
                    ts[-1] = hit.t
                    ys[-1] = hit.y
                    fs[-1] = field_fn(hit.t, hit.y.tolist())
                    stop_reason = STOP_EVENT
                    break
                g_prev = g_new

            t, y, k1 = t_new, y_new, k7
            if last:
                stop_reason = STOP_REACHED_END
                break

            fac11 = err ** _EXPO
            fac = fac11 / facold ** _BETA
            fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
            h_next = h / fac
            if just_rejected:
                h_next = min(h_next, h)
            h = h_next
            just_rejected = False
        else:
            nreject += 1
            just_rejected = True
            fac11 = err ** _EXPO
            h = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)

    # Two evaluations start the run, each attempted step makes six, and a
    # located event one more.
    nfev = 2 + 6 * (naccept + nreject) + (hit is not None)
    return Trajectory(ts=np.array(ts), ys=np.array(ys),
                      fs=np.array(fs, dtype=float), stop_reason=stop_reason,
                      rel_tol=rel_tol, abs_tol=abs_tol, event=hit,
                      nfev=nfev, naccept=naccept, nreject=nreject)


def _first_crossing(events: Sequence[Event], g_lo: list, g_hi: list,
                    t_lo: float, t_hi: float, y_lo: Sequence[float],
                    y_hi: Sequence[float], f_lo: Sequence[float],
                    f_hi: Sequence[float]) -> EventHit | None:
    """The earliest event crossing inside one accepted step, if any."""
    first: EventHit | None = None
    for index, (ev, ga, gb) in enumerate(zip(events, g_lo, g_hi)):
        # A sign change (or a landing on 0) in the event's direction.
        if ga == 0.0 or not ga * gb <= 0.0 or ev.direction * (gb - ga) < 0.0:
            continue
        # The step's end rows as arrays, once, for the Hermite interpolant.
        y_lo, y_hi, f_lo, f_hi = (np.asarray(v, dtype=float)
                                  for v in (y_lo, y_hi, f_lo, f_hi))

        def g(t: float, fn=ev.fn) -> float:
            return fn(t, _hermite(t, t_lo, t_hi, y_lo, y_hi, f_lo, f_hi))

        roots = bracketed_roots(g, t_lo, t_hi, 1, EVENT_T_TOL)
        # No root only when the scan's far end, lo + (hi - lo), rounds
        # past a crossing within one ulp of t_hi.
        t_ev = roots[0] if roots else t_hi
        if first is None or abs(t_ev - t_lo) < abs(first.t - t_lo):
            y_ev = _hermite(t_ev, t_lo, t_hi, y_lo, y_hi, f_lo, f_hi)
            first = EventHit(name=ev.name, t=t_ev, y=y_ev, index=index)
    return first
