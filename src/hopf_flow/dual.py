"""Forward-mode automatic differentiation on scalars and numpy arrays.

A :class:`Dual` carries a value and the derivative of that value with
respect to one seed variable.  Components may be real or complex
numbers, real or complex numpy arrays (one independent point per
element, so a whole grid is differentiated in one pass), or other
Duals; nesting Duals therefore yields exact second and mixed partial
derivatives without any finite differencing.

The module-level math functions (`sqrt`, `log`, `sin`, ...) dispatch on
their argument: Duals get the differentiation rule, numpy arrays the
matching numpy ufunc (principal branches for complex dtypes), complex
numbers go through :mod:`cmath` (principal branches), and plain floats
through :mod:`math`.  A scalar is never promoted to an array, so scalar
results are exactly the :mod:`math`/:mod:`cmath` ones; array results
agree with them to round-off but not necessarily bitwise, and real
arrays outside a function's real domain give NaN where :mod:`math`
raises.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_NUMBERS = (int, float, complex, np.ndarray)


class Dual:
    """Number of the form a + b*eps with eps**2 = 0."""

    __slots__ = ("val", "eps")
    # ndarray (+-*/) Dual must reach the reflected Dual operators instead
    # of numpy broadcasting the Dual over an object array.
    __array_ufunc__ = None

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        if isinstance(other, _NUMBERS):
            return Dual(self.val + other, self.eps)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.eps * other.val + self.val * other.eps)
        if isinstance(other, _NUMBERS):
            return Dual(self.val * other, self.eps * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.val / other.val
            return Dual(q, (self.eps - q * other.eps) / other.val)
        if isinstance(other, _NUMBERS):
            return Dual(self.val / other, self.eps / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBERS):
            q = other / self.val
            return Dual(q, -q * self.eps / self.val)
        return NotImplemented


def _lift(fn_real, fn_cplx, fn_array, x):
    if isinstance(x, np.ndarray):
        return fn_array(x)
    if isinstance(x, complex):
        return fn_cplx(x)
    return fn_real(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.eps / (2.0 * s))
    return _lift(math.sqrt, cmath.sqrt, np.sqrt, x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val)
    return _lift(math.log, cmath.log, np.log, x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), cos(x.val) * x.eps)
    return _lift(math.sin, cmath.sin, np.sin, x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.eps)
    return _lift(math.cos, cmath.cos, np.cos, x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.val), x.eps / (1.0 + x.val * x.val))
    return _lift(math.atan, cmath.atan, np.arctan, x)


def value(x):
    """Innermost plain value of a possibly nested Dual."""
    while isinstance(x, Dual):
        x = x.val
    return x


def derivative(fn, x0):
    """d fn / dx at x0 for a scalar-to-scalar fn built from Dual-aware ops."""
    one = 1.0 if not isinstance(x0, complex) else complex(1.0)
    out = fn(Dual(x0, one))
    return out.eps if isinstance(out, Dual) else 0.0 * x0
