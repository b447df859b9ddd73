"""Modified Bessel functions I0, I1, K0, K1 in double precision.

Supported argument range is z in (0, 300]: there I, K and the ratio K/I
(~ pi e**(-2z), the scale of the implicit constant) are all normal
doubles.  The range leaves out the smallest subnormal, 5e-324, whose
half, inside K's log(z/2), rounds to 0.  Each function is a Chebyshev
series on each of three intervals, one region pair (I, K) each: Cephes
splits K at z = 2 and I at z = 8 (Moshier 1989), and here both splits
serve both functions:

* on (0, 2], t = z**2/2 - 1: I0 and I1 / z, and K0 + log(z/2) I0 and
  z (K1 - log(z/2) I1), regular series in z**2 (Abramowitz & Stegun
  9.8), 10 and 11 terms;
* on (2, 8]: I0 e**-z and I1 e**-z / z, t = (z - 5)/3, 25 terms, and
  K0 e**z sqrt(z) and K1 e**z sqrt(z), t = (16/z - 5)/3, 17 terms;
* on (8, 300], t = 16/z - 1: I0 e**-z sqrt(z) and I1 e**-z sqrt(z),
  25 terms, and K0 e**z sqrt(z) and K1 e**z sqrt(z), 14 terms.

The coefficients in `_bessel_tables` are written by
tools/make_bessel_tables.py from 40-digit mpmath values; each series is
summed by the Clenshaw recurrence (Clenshaw 1955), 42, 84 and 78 steps a
point on the three intervals.  Each region pair is stated once:
`_region` gives its four series and their Chebyshev variables, `_finish`
its scaling, for a float or an array alike.  A float sums its four
series in Python float arithmetic.  An ndarray groups its points by
region pair: a pair of at most _STACK_MAX = 1024 points sums its four
series as the rows of one 2-d pass, a row joining when its series
begins, and a larger one sums them one at a time.  Both array passes
write in place and do the float recurrence's operations in its order,
and both paths take exp, sqrt and log from numpy, so an array element
equals the float result bit for bit.  Against 40-digit mpmath the
largest relative error over 2000 log-spaced points in [1e-3, 300] is
4.3e-16 for I0, 3.9e-16 for I1, 1.12e-15 for K0 and 7.0e-16 for K1
(tools/bessel_accuracy.py prints them per region pair).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._bessel_tables import (I0_LARGE, I0_LOW, I0_MID, I1_LARGE, I1_LOW,
                             I1_MID, K0_HIGH, K0_MID, K0_SMALL, K1_HIGH,
                             K1_MID, K1_SMALL)

Z_MAX = 300.0
# The region pairs' joins.
_SPLITS = (2.0, 8.0)
# A small array is bound by numpy's per-call cost, which one stacked pass
# pays once for four series; a large one by memory traffic, where stacked
# rows lose.  Stacking measured faster up to 1024 points, slower from 3072.
_STACK_MAX = 1024


class BesselQuad(NamedTuple):
    """The four modified Bessel values at one argument, or elementwise at
    an array of arguments."""

    z: float | np.ndarray
    i0: float | np.ndarray
    i1: float | np.ndarray
    k0: float | np.ndarray
    k1: float | np.ndarray

    def wronskian_defect(self) -> float | np.ndarray:
        """Relative defect of I0*K1 + I1*K0 against 1/z."""
        return abs(self.i0 * self.k1 + self.i1 * self.k0 - 1.0 / self.z) * self.z


def _clenshaw(coeffs, t):
    """sum_k a_k T_k(t) by the Clenshaw recurrence, for coeffs listing
    a_n, ..., a_1, a_0 and t a float or an array."""
    t2 = t + t
    b1 = b2 = 0.0
    for a in coeffs:
        b1, b2 = t2 * b1 - b2 + a, b1
    return b1 - t * b2


def _apply(ufunc, x):
    # numpy's exp, sqrt and log on both paths: their results do not depend
    # on an array's length or layout, so a float and an array element agree
    # bit for bit (math.exp and numpy's exp differ by an ulp at some points).
    y = ufunc(x)
    return y if isinstance(x, np.ndarray) else float(y)


def _region(z, pair):
    """The four series (I0, I1, K0, K1) of region pair 0, 1 or 2, z in
    (0, 2], (2, 8] or (8, 300], and the Chebyshev variable of each at z,
    a float or an array."""
    if pair == 0:
        t = 0.5 * z * z - 1.0
        return (I0_LOW, I1_LOW, K0_SMALL, K1_SMALL), (t, t, t, t)
    if pair == 1:
        t_i, t_k = (z - 5.0) / 3.0, (16.0 / z - 5.0) / 3.0
        return (I0_MID, I1_MID, K0_MID, K1_MID), (t_i, t_i, t_k, t_k)
    t = 16.0 / z - 1.0
    return (I0_LARGE, I1_LARGE, K0_HIGH, K1_HIGH), (t, t, t, t)


def _finish(z, pair, sums):
    """I0, I1, K0 and K1 at z from the region pair's four sums."""
    s0, s1, s2, s3 = sums
    if pair == 0:
        i1 = s1 * z
        log = _apply(np.log, 0.5 * z)
        return s0, i1, s2 - log * s0, log * i1 + s3 / z
    ez, root = _apply(np.exp, z), _apply(np.sqrt, z)
    if pair == 1:
        i0, i1 = s0 * ez, s1 * z * ez
    else:
        scale = ez / root
        i0, i1 = s0 * scale, s1 * scale
    scale = _apply(np.exp, -z) / root
    return i0, i1, s2 * scale, s3 * scale


def _quad_scalar(z: float) -> BesselQuad:
    if not (0.0 < 0.5 * z and z <= Z_MAX):
        raise ValueError(f"argument {z!r} outside supported range (0, {Z_MAX}]")
    pair = 0 if z <= _SPLITS[0] else 1 if z <= _SPLITS[1] else 2
    series, ts = _region(z, pair)
    return BesselQuad(z, *_finish(z, pair, map(_clenshaw, series, ts)))


@functools.lru_cache(maxsize=32)
def _phases(*series):
    """The Clenshaw steps of series as (rows, block) phases: step j of a
    phase adds block[j], a (rows, 1) column of coefficients, to the first
    rows, up to the last whose series has begun.  A row within them whose
    series has not begun adds 0.0, which leaves its zeroed buffers +0.0 at
    a finite t, so any order of series gives the float recurrence's bits;
    longest first, a shorter series just starts late."""
    phases = {}
    for left in range(max(map(len, series)), 0, -1):
        rows = max(r for r, s in enumerate(series, 1) if len(s) >= left)
        col = [s[-left] if len(s) >= left else 0.0 for s in series[:rows]]
        phases.setdefault(rows, []).append(col)
    return tuple((rows, np.array(cols)[:, :, None])
                 for rows, cols in phases.items())


def _clenshaw_rows(series, t):
    """Row r of sum_k a_k T_k(t[r]) for coefficients series[r] and a 2-d
    t: `_clenshaw`'s operations in its order, in three zeroed buffers
    written in place."""
    width = t.shape[1]
    t2 = t + t
    b1, b2, tmp = (np.zeros(t.shape) for _ in range(3))
    mul, sub, add = np.multiply, np.subtract, np.add
    for rows, block in _phases(*series):
        b1, b2, tmp, t2_rows = b1[:rows], b2[:rows], tmp[:rows], t2[:rows]
        # A narrow pass is bound by numpy's per-call cost, and adding a
        # (rows, 1) column costs it ~3x adding a full-width block.
        for a in (np.repeat(block, width, axis=2) if width <= _STACK_MAX
                  else block):
            mul(t2_rows, b1, tmp)
            sub(tmp, b2, tmp)
            add(tmp, a, tmp)
            b1, b2, tmp = tmp, b1, b2
        # The phase's views turned roles at each step; their bases are the
        # whole buffers, in the roles they ended in.
        b1, b2, tmp = b1.base, b2.base, tmp.base
    return sub(b1, mul(t, b2, tmp), tmp)


def _quad_array(z: np.ndarray) -> BesselQuad:
    flat = z.ravel()
    quad = np.full((4, flat.size), math.nan)
    ok = (0.5 * flat > 0.0) & (flat <= Z_MAX)
    low, high = ok & (flat <= _SPLITS[0]), ok & (flat > _SPLITS[1])
    # A region pair's points run its own branch only: the float path's
    # operations, and so its bits.
    for pair, mask in enumerate((low, ok & ~low & ~high, high)):
        if not mask.any():
            continue
        x = flat[mask]
        series, ts = _region(x, pair)
        sums = (_clenshaw_rows(series, np.stack(ts)) if x.size <= _STACK_MAX
                else [_clenshaw_rows((a,), t[None])[0]
                      for a, t in zip(series, ts)])
        # K1 ~ 1/z passes the float range below z ~ 5.6e-309: inf, as on
        # the float path.
        with np.errstate(over="ignore"):
            values = _finish(x, pair, sums)
        for row, value in zip(quad, values):
            row[mask] = value
    i0, i1, k0, k1 = quad.reshape((4,) + z.shape)
    return BesselQuad(z=z, i0=i0, i1=i1, k0=k0, k1=k1)


def bessel_quad(z: float | np.ndarray) -> BesselQuad:
    """I0, I1, K0 and K1 at z.

    A float outside (0, Z_MAX] raises ValueError; an ndarray gives the
    values elementwise, with NaN where a float would raise.
    """
    if isinstance(z, np.ndarray):
        return _quad_array(z.astype(float, copy=False))
    return _quad_scalar(float(z))

