"""Explicit Dormand-Prince 5(4) integrator with PI step control.

`integrate(field_fn, y0, t_span, rel_tol=, events=)` is the one way to
integrate: an embedded 7-stage pair with the first-same-as-last property,
a PI stepsize controller, and cubic Hermite dense output over accepted
steps.  Works in either time direction (t1 < t0 integrates backward); an
empty span returns the single initial sample.  Runs are deterministic:
identical inputs give bit-identical trajectories.

A step fills one (7, d) stage matrix K: stage i is
f(t + c_i h, y + (h A)[i, :i] @ K[:i]), the new state is
y + (h A)[6, :6] @ K[:6] (stage 7 is evaluated there), and the local
error is h (E @ K).  The error norm is the RMS of that error over the
scale abs_tol + rel_tol * max(|y0|, |y1|), where abs_tol = rel_tol * 1e-2
and both must lie in [1e-16, 1e-2).

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

# Dormand-Prince 5(4) tableau; row i of _A weighs the earlier stages of
# stage i, and the last row doubles as the 5th-order weights
# (first-same-as-last).  _E is the difference against the embedded
# 4th-order pair.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

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
    ones, 0 to both.
    """

    fn: Callable[[float, np.ndarray], float]
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


def _initial_step(f, t0: float, y0: np.ndarray, f0: np.ndarray, sign: float,
                  rel_tol: float, abs_tol: float, span: float) -> float:
    sc = abs_tol + rel_tol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = f(t0 + sign * h0, y0 + sign * h0 * f0)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def integrate(field_fn: Callable[[float, np.ndarray], np.ndarray],
              y0: Sequence[float],
              t_span: tuple[float, float],
              *, rel_tol: float = 1e-10,
              events: Sequence[Event] = ()) -> Trajectory:
    """Integrate dy/dt = field_fn(t, y) over t_span from y0.

    Stops at the far end of the span, at the first event crossing, when
    the controller can no longer resolve a step, or when the step budget
    runs out; the stop reason is recorded on the trajectory.
    """
    abs_tol = rel_tol * 1e-2
    if not (1e-16 <= rel_tol < 1e-2 and 1e-16 <= abs_tol < 1e-2):
        raise ValueError("tolerances must lie in [1e-16, 1e-2)")
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=float).copy()
    if y.ndim != 1:
        raise ValueError("state must be one-dimensional")

    nfev = 0

    def f(t: float, yy: np.ndarray) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        return np.asarray(field_fn(t, yy), dtype=float)

    if t1 == t0:
        f0 = f(t0, y)
        return Trajectory(ts=np.array([t0]), ys=np.array([y]),
                          fs=np.array([f0]), stop_reason=STOP_REACHED_END,
                          rel_tol=rel_tol, abs_tol=abs_tol, nfev=nfev)

    sign = 1.0 if t1 > t0 else -1.0
    events = tuple(events)
    t = t0
    k1 = f(t, y)
    h = _initial_step(f, t, y, k1, sign, rel_tol, abs_tol, abs(t1 - t0))

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
    # Stage matrix: row i holds stage i of the current attempt.
    K = np.empty((7, len(y)))

    for _ in range(MAX_STEPS):
        rem = abs(t1 - t)
        h = min(h, rem)
        last = h == rem
        if not last and (h < MIN_STEP or t + sign * h == t):
            stop_reason = STOP_UNDERFLOW
            break
        hs = sign * h

        hA = hs * _A
        K[0] = k1
        for i in range(1, 6):
            K[i] = f(t + _C[i] * hs, y + hA[i, :i] @ K[:i])
        y_new = y + hA[6, :6] @ K[:6]
        # First-same-as-last: stage 7 sits at (t+h, y_new).
        K[6] = f(t + hs, y_new)
        sc = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        r = hs * (_E @ K) / sc
        err = math.sqrt(r @ r / len(r))

        if err <= 1.0:
            # Accept.  Land exactly on t1 when the step was clamped to it.
            facold = max(err, 1e-4)
            t_new = t1 if last else t + hs
            # A copy: the next attempt overwrites K.
            k_new = K[6].copy()
            ts.append(t_new)
            ys.append(y_new)
            fs.append(k_new)
            naccept += 1

            if events:
                g_new = [ev.fn(t_new, y_new) for ev in events]
                hit = _first_crossing(events, g_prev, g_new, t, t_new,
                                      y, y_new, k1, k_new)
                if hit is not None:
                    # Truncate at the crossing.
                    ts[-1] = hit.t
                    ys[-1] = hit.y
                    fs[-1] = f(hit.t, hit.y)
                    stop_reason = STOP_EVENT
                    break
                g_prev = g_new

            t, y, k1 = t_new, y_new, k_new
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

    return Trajectory(ts=np.array(ts), ys=np.array(ys), fs=np.array(fs),
                      stop_reason=stop_reason, rel_tol=rel_tol,
                      abs_tol=abs_tol, event=hit,
                      nfev=nfev, naccept=naccept, nreject=nreject)


def _first_crossing(events: Sequence[Event], g_lo: list, g_hi: list,
                    t_lo: float, t_hi: float, y_lo: np.ndarray,
                    y_hi: np.ndarray, f_lo: np.ndarray,
                    f_hi: np.ndarray) -> EventHit | None:
    """The earliest event crossing inside one accepted step, if any."""
    first: EventHit | None = None
    for index, (ev, ga, gb) in enumerate(zip(events, g_lo, g_hi)):
        # A sign change (or a landing on 0) in the event's direction.
        if ga == 0.0 or not ga * gb <= 0.0 or ev.direction * (gb - ga) < 0.0:
            continue

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
