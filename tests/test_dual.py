"""Forward-mode dual number arithmetic against analytic derivatives."""

import cmath
import math

import numpy as np
import pytest

from hopf_flow import dual
from hopf_flow.dual import Dual, derivative, value


def test_arithmetic_ops_propagate_derivatives():
    x = Dual(3.0, 1.0)
    assert (x + 2.0).val == 5.0 and (x + 2.0).eps == 1.0
    assert (2.0 + x).eps == 1.0
    assert (x - 1.5).val == 1.5 and (x - 1.5).eps == 1.0
    assert (1.5 - x).eps == -1.0
    assert (-x).val == -3.0 and (-x).eps == -1.0
    y = x * x
    assert y.val == 9.0 and y.eps == 6.0
    q = x / Dual(2.0, 0.0)
    assert q.val == 1.5 and q.eps == 0.5
    # d/dx (c/x) = -c/x^2
    r = 6.0 / x
    assert r.val == 2.0
    np.testing.assert_allclose(r.eps, -6.0 / 9.0, rtol=1e-15)


def test_integer_power_rule():
    x = Dual(1.7, 1.0)
    for n in range(0, 6):
        p = x ** n
        np.testing.assert_allclose(p.val, 1.7 ** n, rtol=1e-15)
        expect = 0.0 if n == 0 else n * 1.7 ** (n - 1)
        np.testing.assert_allclose(p.eps, expect, rtol=1e-15)


def test_non_integer_power_rejected():
    with pytest.raises(TypeError):
        Dual(2.0, 1.0) ** 0.5


@pytest.mark.parametrize("fn, dfn", [
    (dual.sqrt, lambda x: 0.5 / math.sqrt(x)),
    (dual.log, lambda x: 1.0 / x),
    (dual.exp, math.exp),
    (dual.sin, math.cos),
    (dual.cos, lambda x: -math.sin(x)),
    (dual.tan, lambda x: 1.0 / math.cos(x) ** 2),
    (dual.atan, lambda x: 1.0 / (1.0 + x * x)),
])
def test_elementary_functions_match_analytic_slope(fn, dfn):
    for x0 in (0.3, 0.9, 1.4):
        out = fn(Dual(x0, 1.0))
        np.testing.assert_allclose(out.eps, dfn(x0), rtol=1e-14)


def test_complex_arguments_use_principal_branches():
    z0 = complex(-0.5, 0.8)
    out = dual.log(Dual(z0, 1.0 + 0.0j))
    assert out.val == cmath.log(z0)
    np.testing.assert_allclose(
        abs(out.eps - 1.0 / z0), 0.0, atol=1e-16)
    s = dual.sqrt(Dual(z0, 1.0 + 0.0j))
    assert s.val == cmath.sqrt(z0)


def test_derivative_helper_seeds_by_type():
    assert derivative(lambda x: x * x, 2.0) == 4.0
    d = derivative(lambda z: z * z, 1.0 + 1.0j)
    np.testing.assert_allclose(abs(d - (2.0 + 2.0j)), 0.0, atol=1e-16)
    # A function that drops its argument has zero slope.
    assert derivative(lambda x: 7.0, 3.0) == 0.0


def test_value_unwraps_nested_duals():
    assert value(3.25) == 3.25
    assert value(Dual(2.5, 9.0)) == 2.5
    assert value(Dual(Dual(1.5, 2.0), Dual(3.0, 4.0))) == 1.5


def test_two_level_seeding_extracts_mixed_partials():
    # f(x, y) = sin(x) * y**2 with hierarchical seeds: the outer level
    # carries d/dx, the inner level d/dy, and eps.eps is the cross term.
    x0, y0 = 0.6, 1.3

    def f(x, y):
        return dual.sin(x) * y * y

    x = Dual(Dual(x0, 1.0), Dual(0.0, 0.0))
    y = Dual(Dual(y0, 0.0), Dual(1.0, 0.0))
    out = f(x, y)
    np.testing.assert_allclose(out.val.val, math.sin(x0) * y0 ** 2, rtol=1e-15)
    np.testing.assert_allclose(out.val.eps, math.cos(x0) * y0 ** 2, rtol=1e-15)
    np.testing.assert_allclose(out.eps.val, math.sin(x0) * 2 * y0, rtol=1e-15)
    np.testing.assert_allclose(out.eps.eps, math.cos(x0) * 2 * y0, rtol=1e-15)


_FLOATS = np.array([0.05, 0.3, 0.9, 1.4, 2.5, 7.0])
_COMPLEX = np.array([0.3 + 0.4j, -0.5 + 0.8j, 1.7 - 0.2j, -2.0 - 1.1j,
                     0.1 + 3.0j])


def _close_rel(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


@pytest.mark.parametrize("name, scalar_real, scalar_cplx", [
    ("sqrt", math.sqrt, cmath.sqrt),
    ("log", math.log, cmath.log),
    ("exp", math.exp, cmath.exp),
    ("sin", math.sin, cmath.sin),
    ("cos", math.cos, cmath.cos),
    ("tan", math.tan, cmath.tan),
    ("atan", math.atan, cmath.atan),
])
def test_elementary_functions_on_arrays_match_scalars(name, scalar_real,
                                                      scalar_cplx):
    fn = getattr(dual, name)
    for arr, scalar in ((_FLOATS, scalar_real), (_COMPLEX, scalar_cplx)):
        out = fn(arr)
        assert isinstance(out, np.ndarray) and out.dtype == arr.dtype
        seeded = fn(Dual(arr, np.ones_like(arr)))
        for k, x in enumerate(arr.tolist()):
            assert _close_rel(out[k], scalar(x), 1e-15)
            one = Dual(x, 1.0 + 0.0j if isinstance(x, complex) else 1.0)
            assert _close_rel(seeded.eps[k], fn(one).eps, 1e-15)


def test_array_on_the_left_of_a_dual_gives_a_dual():
    arr = np.array([1.0, 2.0, 3.0])
    x = Dual(2.0, 1.0)
    for out, val, eps in ((arr * x, arr * 2.0, arr), (arr + x, arr + 2.0, 1.0),
                          (arr - x, arr - 2.0, -1.0),
                          (arr / x, arr / 2.0, -arr / 4.0)):
        assert isinstance(out, Dual)
        np.testing.assert_array_equal(out.val, val)
        np.testing.assert_array_equal(out.eps, np.broadcast_to(eps, arr.shape))
