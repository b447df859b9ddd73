"""The verdict, the term-scaled residual and the shared root finder.

Every check in this package reduces to a set of per-sample residuals
that `summarize` folds into the check's entry of the verify document:
its name, the sample count, the largest absolute residual, the
root-mean-square residual, a verdict, the tolerance the check was held
to, and its details.  Verdicts are three-valued:

- "pass": every residual is finite and max_abs <= tolerance.
- "fail": max_abs > tolerance and the check is expected to pass, or any
  residual is NaN or infinite, documented checks included.  The count of
  those goes in details["non_finite"], and max_abs and rms are taken
  over the finite residuals (0.0 when there are none), so the entry
  stays standard JSON.
- "documented-discrepancy": max_abs > tolerance for a check that
  measures a relation known not to hold as printed; the number is
  reported honestly instead of being hidden or the tolerance widened.

Residuals of additive identities are scaled "relative to terms": the
absolute value of the sum divided by the largest additive term, so a
residual of 1e-16 means cancellation to machine precision regardless of
the raw magnitudes involved.

Every root solve of the package (the implicit Bessel relation for H, the
parameter elimination v(xi, psi) = r and the integrator's events) runs
one Illinois rule.  `bracketed_roots` scans many rows in one evaluation,
refines all brackets in lockstep as numpy lanes, one evaluation per
round, and returns each row's root nearest its midpoint and root count;
`refine` is the float loop for one bracket whose ends' values the caller
holds (an event's step).  Both do the same float operations, so a root
does not depend on the other rows.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

# Refining rounds per bracket at most.
_MAX_ROUNDS = 200


def relative_to_terms(terms: Sequence) -> float | np.ndarray:
    """|sum| / max|term|: cancellation quality of an additive identity.

    Terms are numbers or broadcastable arrays; arrays give the ratio
    elementwise.  The terms are summed one after another in list order,
    as `sum` does, so scalar terms give a float with the same bits.  The
    ratio is 0 where every term is 0, and NaN where a term is NaN.
    """
    terms = list(terms)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    mags = [abs(t) for t in terms]
    # Where scale is 0 every term, and so the sum, is 0: dividing by 1
    # gives that 0 without a 0/0.  A NaN term makes the sum NaN, whichever
    # magnitude the builtin max keeps.
    if not any(isinstance(m, np.ndarray) for m in mags):
        return abs(total) / (max(mags) or 1.0)
    scale = np.maximum.reduce(np.broadcast_arrays(*mags))
    return abs(total) / np.where(scale == 0.0, 1.0, scale)


def summarize(name: str, residuals: Sequence[float], tolerance: float,
              documented: bool = False,
              details: Mapping[str, object] | None = None) -> dict:
    """The check's entry of the verify document: the residuals folded
    into the three-valued verdict."""
    arr = np.asarray([float(r) for r in residuals], dtype=float)
    if arr.size == 0:
        raise ValueError("no residual samples")
    finite = arr[np.isfinite(arr)]
    details = dict(details or {})
    max_abs = float(np.max(np.abs(finite), initial=0.0))
    rms = float(np.sqrt(np.mean(finite * finite))) if finite.size else 0.0
    if finite.size < arr.size:
        details["non_finite"] = arr.size - finite.size
        verdict = "fail"
    elif max_abs <= tolerance:
        verdict = "pass"
    elif documented:
        verdict = "documented-discrepancy"
    else:
        verdict = "fail"
    return {"name": name, "samples": arr.size, "max_abs": max_abs,
            "rms": rms, "verdict": verdict, "tolerance": tolerance,
            "details": details}


def bracketed_roots(fn: Callable[[np.ndarray, np.ndarray], Sequence[float]],
                    lo, hi, n_scan: int,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's root nearest its midpoint, and its number of roots.

    Row k (of float or 1-d lo and hi) is scanned at lo + (hi - lo) * i /
    n_scan for i = 0..n_scan (inf or NaN where the width overflows).
    fn(rows, x) evaluates the functions: `rows` holds row indices and `x`
    points, two 1-d arrays of one length, and it returns the value of row
    rows[j] at x[j] for every j (an array or a sequence of floats).  One
    call evaluates the whole scan.  A sample where the value is exactly 0
    is a root; each interval whose ends' values have opposite signs is a
    bracket, refined by `refine`'s rule with its bits.  Intervals with a
    NaN end never count as changing sign.  All brackets are refined
    together as numpy lanes, one call of fn per round over the lanes
    still live.  Returns two arrays, one entry per row: the root nearest
    0.5 * (lo + hi) (the first in scan order on a tie, NaN where there is
    none) and the number of roots.  An n_scan that is not an integer of
    at least 1 raises ValueError naming it.
    """
    if not (isinstance(n_scan, (int, np.integer)) and n_scan >= 1):
        raise ValueError(f"need an integer n_scan >= 1, got n_scan={n_scan!r}")
    lo = np.atleast_1d(np.asarray(lo, dtype=float))[:, None]
    hi = np.atleast_1d(np.asarray(hi, dtype=float))[:, None]
    with np.errstate(all="ignore"):
        xs = lo + (hi - lo) * np.arange(n_scan + 1) / n_scan
        mids = (0.5 * (lo + hi)).ravel().tolist()
    n_rows, width = xs.shape
    fs = np.asarray(fn(np.repeat(np.arange(n_rows), width), xs.ravel()),
                    dtype=float).reshape(xs.shape)
    # Slot 2i of a row is scan point i, slot 2i + 1 the interval after it,
    # so nonzero() lists each row's roots in scan order.
    found = np.zeros((n_rows, 2 * width), dtype=bool)
    found[:, 0::2] = fs == 0.0
    fa, fb = fs[:, :-1], fs[:, 1:]
    found[:, 1:-1:2] = (fa < 0.0) & (0.0 < fb) | (fa > 0.0) & (0.0 > fb)
    row, slot = np.nonzero(found)
    roots = xs[row, slot // 2]
    brackets = np.flatnonzero(slot % 2)
    k, i = row[brackets], slot[brackets] // 2
    roots[brackets] = _refine_lanes(fn, k, xs[k, i], xs[k, i + 1], fs[k, i],
                                    fs[k, i + 1], tol)
    nearest, counts = [np.nan] * n_rows, [0] * n_rows
    for k, x in zip(row.tolist(), roots.tolist()):
        if not counts[k] or abs(x - mids[k]) < abs(nearest[k] - mids[k]):
            nearest[k] = x
        counts[k] += 1
    return np.array(nearest), np.array(counts)


def refine(fn: Callable[[float], float], a: float, b: float, fa: float,
           fb: float, tol: float) -> float:
    """The root of fn in [a, b], whose ends' values fa and fb do not share
    a sign: an end where the value is 0, else the bracket refined until it
    is at most tol wide, one call of fn per round."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    # Illinois rule (Dowell & Jarratt 1971, BIT 11:168): regula falsi on
    # the bracket [a, b], whose ends keep f of opposite signs, but an end
    # kept twice in a row has its stored f halved, so the next secant
    # step lands beyond the root and the stale end moves too.  A step
    # stays tol/2 clear of both ends: once an end sits on the root to
    # round-off, the secant step would land on it again, while the tol/2
    # step closes the bracket at once.  Where tol is below one ulp of the
    # ends, the bracket stops at adjacent doubles, where even the midpoint
    # rounds onto an end.  Where fb * (b - a) underflows, the secant step
    # would stall on b, so the step is the midpoint; an end's value is
    # never halved to 0, so the ends keep their signs.
    kept = None
    for _ in range(_MAX_ROUNDS):
        lo, hi = min(a, b), max(a, b)
        if hi - lo <= tol:
            break
        step = fb * (b - a)
        x = b - step / (fb - fa) if step != 0.0 else 0.5 * (a + b)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            x = 0.5 * (a + b)  # NaN from overflow, or tol below round-off
            if not lo < x < hi:
                break
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            if kept == "b":
                fb = fb * 0.5 or fb
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa = fa * 0.5 or fa
            kept = "a"
    return 0.5 * (a + b)


def _refine_lanes(fn: Callable[[np.ndarray, np.ndarray], Sequence[float]],
                  rows: np.ndarray, a: np.ndarray, b: np.ndarray,
                  fa: np.ndarray, fb: np.ndarray, tol: float) -> np.ndarray:
    """The root in each bracket [a[j], b[j]] of row rows[j], its ends'
    values fa[j] and fb[j] of opposite signs: `refine`'s operations on
    every lane at once, one call of fn per round over the live lanes."""
    roots = np.empty(len(a))
    live = np.arange(len(a))
    # Whether a moved last round (-1, neither, before the first round).
    moved_a = np.full(len(a), -1)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ROUNDS):
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            step, mid = fb * (b - a), 0.5 * (a + b)
            x = np.where(step == 0.0, mid, b - step / (fb - fa))
            x = np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol)
            x = np.where((lo < x) & (x < hi), x, mid)
            # A NaN width leaves no x inside, so it ends its lane too.
            going = (hi - lo > tol) & (lo < x) & (x < hi)
            n_going = np.count_nonzero(going)
            if n_going < len(live):
                roots[live[~going]] = mid[~going]
                live, rows, a, b, fa, fb, moved_a, x = (
                    v[going] for v in (live, rows, a, b, fa, fb, moved_a, x))
            if not n_going:
                return roots
            fx = np.asarray(fn(rows, x), dtype=float)
            zero = fx == 0.0
            if np.count_nonzero(zero):
                roots[live[zero]] = x[zero]
                live, rows, a, b, fa, fb, moved_a, x, fx = (v[~zero] for v in (
                    live, rows, a, b, fa, fb, moved_a, x, fx))
            # Where fx has fa's sign a moves to x, else b; an end kept
            # twice in a row is halved (times 1.0 keeps the others' bits)
            # unless that makes it 0.
            moves_a = (fx > 0.0) == (fa > 0.0)
            halve = np.where(moved_a == moves_a, 0.5, 1.0)
            half_a, half_b = halve * fa, halve * fb
            fa = np.where(moves_a, fx, np.where(half_a == 0.0, fa, half_a))
            fb = np.where(moves_a, np.where(half_b == 0.0, fb, half_b), fx)
            a, b = np.where(moves_a, x, a), np.where(moves_a, b, x)
            moved_a = moves_a
    roots[live] = 0.5 * (a + b)
    return roots
