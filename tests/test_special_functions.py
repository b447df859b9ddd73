"""Modified Bessel functions against an arbitrary-precision oracle."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

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


def test_array_quad_matches_scalar_quad():
    zs = np.array(_around(2.0) + _around(8.0) + [1e-3, 0.7, 3.0, 42.0, 300.0]
                  + np.geomspace(1e-3, sf.Z_MAX, 200).tolist())
    batch = sf.bessel_quad(zs)
    assert batch.z.shape == zs.shape
    for name in ("i0", "i1", "k0", "k1"):
        scalar = np.array([getattr(sf.bessel_quad(float(z)), name)
                           for z in zs])
        ulps = (np.abs(getattr(batch, name) - scalar)
                / np.spacing(np.abs(scalar)))
        assert ulps.max() <= 2.0, name
    # Shape is kept, and a refused element is NaN where a float raises.
    grid = sf.bessel_quad(np.array([[0.5, -1.0], [300.5, math.nan]]))
    assert grid.k1.shape == (2, 2)
    assert math.isfinite(grid.i0[0, 0])
    assert np.isnan([grid.i0[0, 1], grid.k0[1, 0], grid.k1[1, 1]]).all()


def test_interval_joins_are_continuous():
    # Both series of an interval join evaluated at the join itself.
    i0, i1 = sf._i_small(2.0)
    for left, right in zip(sf._k_small(2.0, i0, i1), sf._k_large(2.0)):
        assert abs(left - right) <= 2e-15 * abs(left)
    for left, right in zip(sf._i_small(8.0), sf._i_large(8.0)):
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
