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


# float.hex of I0, I1, K0 and K1, frozen from this module, at three points
# of each region pair: (0, 2], (2, 8] and (8, 300].  The float path and
# both array passes share `_finish`, so comparing them with each other
# cannot see a change in its arithmetic; these bits can (forming I1 on
# (8, 300] as s1 * e**z / sqrt(z) moves it at 10 and 42 by an ulp).
EXACT_BITS = {
    0.1: ("0x1.00a3f142fda6dp+0", "0x1.9a1cba0413c0dp-5",
          "0x1.36aa32a31d695p+1", "0x1.3b52b24a36628p+3"),
    0.7: ("0x1.20556505038abp+0", "0x1.7cce06b865a71p-2",
          "0x1.522fa8b963420p-1", "0x1.0cdf61bbb23d2p+0"),
    2.0: ("0x1.23c97380fce32p+1", "0x1.9733fa167ac95p+0",
          "0x1.d28261aac8d50p-4", "0x1.1e7200e1d3484p-3"),
    3.0: ("0x1.385ee7ddb65f1p+2", "0x1.fa0809085cc04p+1",
          "0x1.1c960566fc75fp-5", "0x1.48f623cd6df0bp-5"),
    5.5: ("0x1.558ea21e0c16fp+5", "0x1.34b48fa67e530p+5",
          "0x1.185326b15f79ap-9", "0x1.30d125acd9982p-9"),
    7.25: ("0x1.a91ddee49473fp+7", "0x1.8a9a66d755036p+7",
           "0x1.550dc094aaff7p-12", "0x1.6bdb453f15d86p-12"),
    10.0: ("0x1.5ff6ee9ed23e3p+11", "0x1.4ddfa02f156cfp+11",
           "0x1.2a4cc9425b783p-16", "0x1.38dfdf41990d2p-16"),
    42.0: ("0x1.7d863809d59e3p+56", "0x1.78f462c921acep+56",
           "0x1.05c504fe5ffa7p-63", "0x1.08de27690aaa7p-63"),
    300.0: ("0x1.4a9a6ce9552ffp+427", "0x1.4a0d4007baf76p+427",
            "0x1.5250d1dcd3a99p-437", "0x1.52e10c4454569p-437"),
}


def test_every_path_gives_the_frozen_bits():
    zs = list(EXACT_BITS)
    want = [EXACT_BITS[z] for z in zs]
    assert [tuple(map(float.hex, sf.bessel_quad(z)[1:])) for z in zs] == want
    # A stacked pass per region pair, and past _STACK_MAX points in each
    # pair, the pass of one series at a time.
    for copies in (1, sf._STACK_MAX):
        quad = sf.bessel_quad(np.tile(zs, copies))
        got = [tuple(map(float.hex, col)) for col in zip(*quad[1:])]
        assert got == want * copies


def test_accuracy_against_mpmath_grid():
    # Max relative error over 2000 points of the same range, as
    # tools/bessel_accuracy.py prints it: I0 4.3e-16, I1 3.9e-16,
    # K0 1.12e-15, K1 7.0e-16.
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
    # a_0 of the I1 series on (0, 2] off by a relative 1e-10, read at call
    # time by the stacked pass and by the one-series-at-a-time pass.
    small = np.linspace(0.3, 1.9, 12)
    large = np.linspace(0.3, 1.9, 6500)
    before = [sf.bessel_quad(zs).i1 for zs in (small, large)]
    *rest, a0 = sf.I1_LOW
    monkeypatch.setattr(sf, "I1_LOW", (*rest, a0 * (1.0 + 1e-10)))
    for zs, i1 in zip((small, large), before):
        after = sf.bessel_quad(zs)
        assert (after.i1 != i1).all()
        assert np.array_equal(after.i1, _scalar_quads(zs.tolist())[1])


def _region_quad(z: float, pair: int) -> tuple:
    """I0, I1, K0 and K1 at z from the given region pair's series."""
    series, ts = sf._region(z, pair)
    sums = [sf._clenshaw(a, t) for a, t in zip(series, ts)]
    return sf._finish(z, pair, sums)


def test_interval_joins_are_continuous():
    # Both region pairs of an interval join evaluated at the join itself:
    # z = 2 and z = 8.
    for z, below, above in ((2.0, 0, 1), (8.0, 1, 2)):
        for left, right in zip(_region_quad(z, below),
                               _region_quad(z, above)):
            assert abs(left - right) <= 2e-15 * abs(left)


def test_a_pair_whose_first_series_is_not_its_longest_keeps_the_bits():
    # On (0, 2] the I series (10 terms) come before the K series (11), so
    # test_array_quad_matches_scalar_quad's (0, 2] arrays cover this order;
    # the stacked pass adds zeros to the rows whose series has not begun.
    series, _ = sf._region(1.0, 0)
    assert len(series[0]) < max(map(len, series))
    # Any order of lengths, a short series between longer ones included,
    # in both the narrow and the wide stacked pass.
    rng = np.random.default_rng(11)
    tables = (sf.K0_SMALL[:3], sf.I0_MID, sf.K1_HIGH[:5], sf.I1_MID)
    for width in (12, sf._STACK_MAX + 1):
        t = rng.uniform(-1.0, 1.0, (4, width))
        want = [[sf._clenshaw(a, x) for x in row]
                for a, row in zip(tables, t.tolist())]
        assert np.array_equal(sf._clenshaw_rows(tables, t), want)


def _tool(name: str):
    """The script tools/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tables_are_what_the_generator_writes():
    fresh = _tool("make_bessel_tables").tables()
    committed = {name: getattr(_bessel_tables, name)
                 for name in dir(_bessel_tables) if name.isupper()}
    assert fresh.keys() == committed.keys()
    for name, table in fresh.items():
        assert np.array_equal(np.array(table), np.array(committed[name])), name


def test_accuracy_tool_measures_each_function():
    # The script behind the docstring's error figures, on a few points of
    # each region pair.
    err = _tool("bessel_accuracy").errors(np.array([0.5, 1.7, 3.0, 7.9,
                                                    8.1, 250.0]))
    assert err.shape == (4, 6)
    assert (err < 2e-15).all()


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
