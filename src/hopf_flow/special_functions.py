"""Modified Bessel functions I0, I1, K0, K1 in double precision.

Supported argument range is z in (0, 300]: there I, K and the ratio K/I
(~ pi e**(-2z), the scale of the implicit constant) are all normal
doubles.  The range leaves out the smallest subnormal, 5e-324, whose
half, inside K's log(z/2), rounds to 0.  Each function is an
exponentially scaled Chebyshev series on two intervals, with the
interval split of Cephes (Moshier 1989):

* I0 e**-z and I1 e**-z / z on (0, 8], t = z/4 - 1;
* I0 e**-z sqrt(z) and I1 e**-z sqrt(z) on (8, 300], t = 16/z - 1;
* K0 + log(z/2) I0 and z (K1 - log(z/2) I1), regular series in z**2,
  on (0, 2], t = z**2/2 - 1;
* K0 e**z sqrt(z) and K1 e**z sqrt(z) on (2, 300], t = 4/z - 1.

The coefficients in `_bessel_tables` are written by
tools/make_bessel_tables.py from 40-digit mpmath values; each series is
summed by the Clenshaw recurrence (Clenshaw 1955).  The same code serves
a float (Python float arithmetic) and an ndarray (array arithmetic, one
masked pass per interval); both take exp and log from numpy, so an array
element equals the float result bit for bit.  Against 40-digit mpmath
the largest relative error over 2000 log-spaced points in [1e-3, 300] is
7.8e-16 for I0, 1.4e-15 for I1, 1.2e-15 for K0 and 6.2e-16 for K1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._bessel_tables import (I0_LARGE, I0_SMALL, I1_LARGE, I1_SMALL,
                             K0_LARGE, K0_SMALL, K1_LARGE, K1_SMALL)

Z_MAX = 300.0
_I_SPLIT = 8.0
_K_SPLIT = 2.0


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
    # numpy's exp and log on both paths: their results do not depend on an
    # array's length or layout, so a float and an array element agree bit
    # for bit (math.exp and numpy's exp differ by an ulp at some points).
    y = ufunc(x)
    return y if isinstance(x, np.ndarray) else float(y)


def _i_small(z):
    t = 0.25 * z - 1.0
    ez = _apply(np.exp, z)
    return _clenshaw(I0_SMALL, t) * ez, _clenshaw(I1_SMALL, t) * z * ez


def _i_large(z):
    t = 16.0 / z - 1.0
    scale = _apply(np.exp, z) / _apply(np.sqrt, z)
    return _clenshaw(I0_LARGE, t) * scale, _clenshaw(I1_LARGE, t) * scale


def _k_small(z, i0, i1):
    t = 0.5 * z * z - 1.0
    log = _apply(np.log, 0.5 * z)
    return (_clenshaw(K0_SMALL, t) - log * i0,
            log * i1 + _clenshaw(K1_SMALL, t) / z)


def _k_large(z):
    t = 4.0 / z - 1.0
    scale = _apply(np.exp, -z) / _apply(np.sqrt, z)
    return _clenshaw(K0_LARGE, t) * scale, _clenshaw(K1_LARGE, t) * scale


def _quad_scalar(z: float) -> BesselQuad:
    if not (0.0 < 0.5 * z and z <= Z_MAX):
        raise ValueError(f"argument {z!r} outside supported range (0, {Z_MAX}]")
    i0, i1 = _i_small(z) if z <= _I_SPLIT else _i_large(z)
    k0, k1 = _k_small(z, i0, i1) if z <= _K_SPLIT else _k_large(z)
    return BesselQuad(z=z, i0=i0, i1=i1, k0=k0, k1=k1)


def _quad_array(z: np.ndarray) -> BesselQuad:
    i0, i1, k0, k1 = (np.full(z.shape, math.nan) for _ in range(4))
    ok = (0.5 * z > 0.0) & (z <= Z_MAX)
    small_i = ok & (z <= _I_SPLIT)
    small_k = ok & (z <= _K_SPLIT)
    for mask, fn in ((small_i, _i_small), (ok & ~small_i, _i_large)):
        if mask.any():
            i0[mask], i1[mask] = fn(z[mask])
    if small_k.any():
        # K1 ~ 1/z passes the float range below z ~ 5.6e-309: inf, as on
        # the float path.
        with np.errstate(over="ignore"):
            k0[small_k], k1[small_k] = _k_small(z[small_k], i0[small_k],
                                                i1[small_k])
    large_k = ok & ~small_k
    if large_k.any():
        k0[large_k], k1[large_k] = _k_large(z[large_k])
    return BesselQuad(z=z, i0=i0, i1=i1, k0=k0, k1=k1)


def bessel_quad(z: float | np.ndarray) -> BesselQuad:
    """I0, I1, K0 and K1 at z.

    A float outside (0, Z_MAX] raises ValueError; an ndarray gives the
    values elementwise, with NaN where a float would raise.
    """
    if isinstance(z, np.ndarray):
        return _quad_array(z.astype(float, copy=False))
    return _quad_scalar(float(z))

