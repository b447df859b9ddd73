"""Modified Bessel functions against an arbitrary-precision oracle."""

import importlib.util
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hopf_flow import _bessel_tables, reduced_system
from hopf_flow import special_functions as sf

TOOLS = Path(__file__).resolve().parents[1] / "tools"

mp.mp.dps = 40

# Values frozen from mpmath at 40 digits.
FROZEN = {
    ("i0", 1.0): 1.2660658777520083356,
    ("i1", 1.0): 0.5651591039924850272,
    ("k0", 0.5): 0.9244190712276659404,
    ("k1", 0.5): 1.6564411200033008937,
    ("i0", 10.0): 2815.7166284662544715,
    ("k0", 10.0): 1.7780062316167651811e-5,
}


def test_frozen_point_values():
    for (name, z), ref in FROZEN.items():
        np.testing.assert_allclose(getattr(sf.bessel_quad(z), name), ref,
                                   rtol=5e-15)


def test_accuracy_against_mpmath_grid():
    # Max relative error measured over 2000 points of the same range:
    # I0 7.8e-16, I1 1.4e-15, K0 1.2e-15, K1 6.2e-16.
    zs = np.geomspace(1e-3, sf.Z_MAX, 120)
    for z in zs:
        z = float(z)
        q = sf.bessel_quad(z)
        np.testing.assert_allclose(q.i0, float(mp.besseli(0, z)), rtol=5e-15)
        np.testing.assert_allclose(q.i1, float(mp.besseli(1, z)), rtol=5e-15)
        np.testing.assert_allclose(q.k0, float(mp.besselk(0, z)), rtol=5e-15)
        np.testing.assert_allclose(q.k1, float(mp.besselk(1, z)), rtol=5e-15)


def test_wronskian_identity_on_1000_points():
    # I0(z) K1(z) + I1(z) K0(z) = 1/z, scaled by the largest product.
    zs = np.geomspace(1e-3, sf.Z_MAX, 1000)
    worst = 0.0
    for z in zs:
        z = float(z)
        q = sf.bessel_quad(z)
        terms = (q.i0 * q.k1, q.i1 * q.k0, -1.0 / z)
        worst = max(worst, abs(sum(terms)) / max(abs(t) for t in terms))
    print(f"wronskian max scaled defect {worst:.3e}")
    assert worst <= 1e-12


def _around(z: float) -> list[float]:
    """z, its neighbours a few ulps away, and points up to 1e-3 off."""
    pts = [z]
    for direction in (-math.inf, math.inf):
        x = z
        for _ in range(3):
            x = math.nextafter(x, direction)
            pts.append(x)
    pts += [z + d for d in (-1e-3, -1e-6, -1e-12, 1e-12, 1e-6, 1e-3)]
    return pts


def _scalar_quads(zs) -> np.ndarray:
    """The float path at each point of zs, rows I0, I1, K0, K1: NaN where
    it raises."""
    values = []
    for z in zs:
        try:
            values.append(sf.bessel_quad(z)[1:])
        except ValueError:
            values.append((math.nan,) * 4)
    return np.array(values).T


def _assert_float_bits(zs: np.ndarray) -> None:
    """bessel_quad(zs) keeps zs's shape, is NaN exactly where the float
    path raises, and has the float path's bits everywhere else."""
    batch = sf.bessel_quad(zs)
    assert batch.z.shape == zs.shape and batch.k1.shape == zs.shape
    got = np.array(batch[1:]).reshape(4, -1)
    want = _scalar_quads(zs.ravel().tolist())
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.array_equal(got[ok].view(np.uint64), want[ok].view(np.uint64))


def test_array_quad_matches_scalar_quad():
    n = sf._STACK_MAX
    rng = np.random.default_rng(7)
    # Each region pair alone, at sizes either side of the stacked pass's
    # limit: (I small, K small), (I small, K large), (I large, K large).
    for lo, hi in ((1e-3, 2.0), (2.0, 8.0), (8.0, sf.Z_MAX)):
        for size in (1, 12, 100, n, n + 1, 6500):
            _assert_float_bits(rng.uniform(lo, hi, size))
    # The joins and their neighbours, every pair in one array.
    _assert_float_bits(np.array(
        _around(2.0) + _around(8.0) + [1e-3, 0.7, 3.0, 42.0, 300.0]
        + np.geomspace(1e-3, sf.Z_MAX, 200).tolist()))
    # Refused points among accepted ones, on both sides of the limit.
    refused = [-1.0, 0.0, 5e-324, 300.5, math.nan, math.inf]
    for size in (12, n + 1):
        zs = rng.uniform(1e-3, sf.Z_MAX, size)
        zs[rng.permutation(size)[:len(refused)]] = refused
        _assert_float_bits(zs)
    # Shape is kept.
    _assert_float_bits(np.array([[0.5, -1.0], [300.5, math.nan]]))


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 2 * sf._STACK_MAX),
                  elements=st.one_of(st.floats(0.0, 310.0), st.floats())))
def test_array_quad_keeps_the_float_bits_on_any_array(zs):
    # Arrays up to twice the stacked pass's limit, half their points drawn
    # near the range and half from every float: no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _assert_float_bits(zs)


def test_a_planted_chebyshev_fault_reaches_every_array_size(monkeypatch):
    # a_0 of the small-z I1 series off by a relative 1e-10, read at call
    # time by the stacked pass and by the one-series-at-a-time pass.
    small = np.linspace(0.3, 1.9, 12)
    large = np.linspace(0.3, 1.9, 6500)
    before = [sf.bessel_quad(zs).i1 for zs in (small, large)]
    *rest, a0 = sf.I1_SMALL
    monkeypatch.setattr(sf, "I1_SMALL", (*rest, a0 * (1.0 + 1e-10)))
    for zs, i1 in zip((small, large), before):
        after = sf.bessel_quad(zs)
        assert (after.i1 != i1).all()
        assert np.array_equal(after.i1, _scalar_quads(zs.tolist())[1])


def _region_quad(z: float, i_small: bool, k_small: bool) -> tuple:
    """I0, I1, K0 and K1 at z from the given region pair's series."""
    series, ts = sf._region(z, i_small, k_small)
    sums = [sf._clenshaw(a, t) for a, t in zip(series, ts)]
    return sf._finish(z, i_small, k_small, sums)


def test_interval_joins_are_continuous():
    # Both region pairs of an interval join evaluated at the join itself:
    # the K series at z = 2, the I series at z = 8.
    for z, below, above in ((2.0, (True, True), (True, False)),
                            (8.0, (True, False), (False, False))):
        for left, right in zip(_region_quad(z, *below),
                               _region_quad(z, *above)):
            assert abs(left - right) <= 2e-15 * abs(left)


def test_tables_are_what_the_generator_writes():
    spec = importlib.util.spec_from_file_location(
        "make_bessel_tables", TOOLS / "make_bessel_tables.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    fresh = gen.tables()
    committed = {name: getattr(_bessel_tables, name)
                 for name in dir(_bessel_tables) if name.isupper()}
    assert fresh.keys() == committed.keys()
    for name, table in fresh.items():
        assert np.array_equal(np.array(table), np.array(committed[name])), name


def test_package_import_leaves_mpmath_alone():
    # The tables are literals: importing the package computes nothing and
    # never loads mpmath, which is only a test dependency.
    src = str(Path(sf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hopf_flow; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_domain_guards():
    for bad in (0.0, 5e-324, -1.0, sf.Z_MAX + 1e-9, math.nan):
        with pytest.raises(ValueError):
            sf.bessel_quad(bad)
    # At the smallest subnormal z / 2 rounds to 0: refused, NaN in an
    # array, and no numpy warning from log(0).
    assert math.isnan(sf.bessel_quad(np.array([5e-324])).k0[0])
    q = sf.bessel_quad(sf.Z_MAX)
    assert all(math.isfinite(v) and v > 0.0 for v in (q.i0, q.i1, q.k0, q.k1))
    # K1 ~ 1/z passes the float range at a subnormal z: inf on both
    # paths, and no numpy overflow warning from the array.
    assert sf.bessel_quad(1e-313).k1 == math.inf
    assert sf.bessel_quad(np.array([1e-313])).k1[0] == math.inf


def test_negative_axis_continuation_matches_oracle():
    # The implicit constant as printed carries K at -z, continued through
    # the upper half plane; mpmath's besselk at negative argument takes
    # that branch.
    for r, h in ((0.3, 0.9), (1.0, 0.5), (2.0, 0.45), (3.0, 0.2),
                 (5.0, 0.8), (8.0, 0.3), (15.0, 0.7), (40.0, 0.6)):
        got = reduced_system.implicit_constant(r, h).c1
        sqrt_h = mp.sqrt(h)
        z, a, b = sqrt_h * r / 2, 4 + mp.mpf(r) ** 2, 8 * sqrt_h * r
        ref = complex(-(a * mp.besselk(0, -z) - b * mp.besselk(1, -z))
                      / (a * mp.besseli(0, z) - b * mp.besseli(1, z)))
        np.testing.assert_allclose(got.real, ref.real, rtol=1e-12)
        np.testing.assert_allclose(got.imag, ref.imag, rtol=1e-12)
