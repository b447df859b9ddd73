"""Residual reporting, the term-scaled residual and the shared root finder.

Every check in this package reduces to a set of per-sample residuals
that are summarized in a ResidualReport: the sample count, the largest
absolute residual, the root-mean-square residual, the tolerance the
check was held to, and a verdict.  Verdicts are three-valued:

- "pass": max_abs <= tolerance.
- "fail": max_abs > tolerance and the check is expected to pass.
- "documented-discrepancy": max_abs > tolerance for a check that
  measures a relation known not to hold as printed; the number is
  reported honestly instead of being hidden or the tolerance widened.

Residuals of additive identities are scaled "relative to terms": the
absolute value of the sum divided by the largest additive term, so a
residual of 1e-16 means cancellation to machine precision regardless of
the raw magnitudes involved.

Both root solves of the package (the implicit Bessel relation for H and
the parameter elimination v(xi, psi) = r) go through `bracketed_roots`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

VERDICTS = ("pass", "fail", "documented-discrepancy")


def relative_to_terms(terms: Sequence) -> float | np.ndarray:
    """|sum| / max|term|: cancellation quality of an additive identity.

    Terms are numbers or broadcastable arrays; arrays give the ratio
    elementwise.  The terms are summed one after another in list order,
    as `sum` does, so scalar terms give a float with the same bits.  The
    ratio is 0 where every term is 0.
    """
    terms = list(terms)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    mags = [abs(t) for t in terms]
    if not any(isinstance(m, np.ndarray) for m in mags):
        scale = max(mags)
        return 0.0 if scale == 0.0 else abs(total) / scale
    scale = np.maximum.reduce(np.broadcast_arrays(*mags))
    # Where scale is 0 every term, and so the sum, is 0: dividing by 1
    # gives that 0 without a 0/0.
    return abs(total) / np.where(scale == 0.0, 1.0, scale)


@dataclass(frozen=True)
class ResidualReport:
    """Summary of one residual battery over a sample set."""

    name: str
    samples: int
    max_abs: float
    rms: float
    verdict: str
    tolerance: float
    details: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.samples > 0 and self.max_abs < self.rms * (1.0 - 1e-12):
            raise ValueError("max_abs must dominate rms")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_abs": self.max_abs,
            "rms": self.rms,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "details": dict(self.details),
        }


def summarize(name: str, residuals: Sequence[float], tolerance: float,
              documented: bool = False,
              details: Mapping[str, object] | None = None) -> ResidualReport:
    """Fold raw residuals into a report with the three-valued verdict."""
    arr = np.asarray([float(r) for r in residuals], dtype=float)
    if arr.size == 0:
        raise ValueError("no residual samples")
    if not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(f"{bad} non-finite residuals in {name!r}")
    max_abs = float(np.max(np.abs(arr)))
    rms = float(np.sqrt(np.mean(arr * arr)))
    if max_abs <= tolerance:
        verdict = "pass"
    elif documented:
        verdict = "documented-discrepancy"
    else:
        verdict = "fail"
    return ResidualReport(name=name, samples=int(arr.size), max_abs=max_abs,
                          rms=rms, verdict=verdict, tolerance=tolerance,
                          details=dict(details or {}))


def bracketed_roots(fn: Callable[[float], float], lo: float, hi: float,
                    n_scan: int, tol: float,
                    fs: Sequence[float] | None = None) -> list[float]:
    """Every root of fn that a sign-change scan of [lo, hi] brackets.

    fn is sampled at the n_scan + 1 points lo + (hi - lo) * i / n_scan,
    unless `fs` already holds those samples (a caller may compute them in
    one array pass).  A sample where fn is exactly 0 is a root; each
    interval whose ends change sign is refined by safeguarded
    secant/bisection until it is at most tol wide.  Intervals with a NaN
    end never count as changing sign.  Roots come back in scan order.
    """
    xs = [lo + (hi - lo) * i / n_scan for i in range(n_scan + 1)]
    if fs is None:
        fs = [fn(x) for x in xs]
    elif len(fs) != n_scan + 1:
        raise ValueError(f"need {n_scan + 1} scan values, got {len(fs)}")
    roots = []
    for i in range(n_scan + 1):
        if fs[i] == 0.0:
            roots.append(xs[i])
        elif i < n_scan and fs[i] * fs[i + 1] < 0.0:
            roots.append(_refine_root(fn, xs[i], xs[i + 1], fs[i], fs[i + 1],
                                      tol))
    return roots


def _refine_root(fn: Callable[[float], float], a: float, b: float,
                 fa: float, fb: float, tol: float) -> float:
    # Illinois rule (Dowell & Jarratt 1971, BIT 11:168): regula falsi on
    # the bracket [a, b], whose ends keep f of opposite signs, but an end
    # kept twice in a row has its stored f halved, so the next secant
    # step lands beyond the root and the stale end moves too.  A step
    # stays tol/2 clear of both ends: once an end sits on the root to
    # round-off, the secant step would land on it again, while the tol/2
    # step closes the bracket at once.  Where tol is below one ulp of the
    # ends, the bracket stops at adjacent doubles, where even the midpoint
    # rounds onto an end.
    kept = None
    for _ in range(200):
        lo, hi = min(a, b), max(a, b)
        if hi - lo <= tol:
            break
        x = b - fb * (b - a) / (fb - fa)
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
                fb *= 0.5
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"
    return 0.5 * (a + b)
