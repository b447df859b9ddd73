"""Parametric first-integral chain: rho, (u, v), transport residuals."""

import cmath
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopf_flow import checks
from hopf_flow import first_integral as fi
from hopf_flow.dual import Dual
from hopf_flow.first_integral import (DISC_XI_HIGH, DISC_XI_LOW,
                                      reconstruct_H, rho_table, uv_table,
                                      xi_substitution_residual)

# The discriminant is positive below DISC_XI_LOW and above DISC_XI_HIGH;
# the band in between is the complexified region.
REAL_POINTS = [(0.2, 1.1), (0.35, 0.8), (0.5, 1.4), (0.65, 2.1), (0.3, 2.6)]
OUTER_REAL_POINTS = [(6.0, 0.6), (7.5, 1.9)]
COMPLEX_POINTS = [(1.5, 0.9), (3.0, 1.7), (4.0, 0.6)]


def test_param_point_validation_and_half_angle():
    # A float point is validated as an array is: xi > 0, psi in (0, pi).
    for table_fn in (rho_table, uv_table):
        for xi, psi in ((-0.5, 1.0), (0.0, 1.0)):
            with pytest.raises(ValueError, match="xi"):
                table_fn(xi, psi)
        for xi, psi in ((0.5, 0.0), (0.5, math.pi)):
            with pytest.raises(ValueError, match="psi"):
                table_fn(xi, psi)
    # Stable half-angle tangent: exactly 1 at the equator.
    assert fi.half_angle_tan(math.pi / 2.0) == 1.0
    np.testing.assert_allclose(fi.half_angle_tan(0.8), math.tan(0.4),
                               rtol=1e-15)


@pytest.mark.parametrize("psi", [math.inf, -math.inf, complex(math.inf, 0.0),
                                 Dual(math.inf, 1.0)],
                         ids=["inf", "-inf", "complex-inf", "dual-inf"])
def test_half_angle_tan_refuses_an_infinite_psi_naming_it(psi):
    # math.sin and cmath.sin raised a bare "math domain error" there.
    with pytest.raises(ValueError, match=re.escape(f"got psi={psi!r}")):
        fi.half_angle_tan(psi)


def test_rho_is_real_when_transport_only():
    # With the source coefficient switched off the solution stays real
    # in both real regions (inner and outer).
    for xi, psi in REAL_POINTS + OUTER_REAL_POINTS:
        out = rho_table(xi, psi, c2=0.0)
        assert abs(out.rho.imag) <= 1e-13 * max(1.0, abs(out.rho.real))


def test_linear_pde_parametric_variant_is_roundoff():
    worst = max(rho_table(xi, psi).pde_parametric for xi, psi in REAL_POINTS)
    print(f"parametric variant max residual {worst:.3e}")
    assert worst <= 1e-12


def test_linear_pde_direct_variant_fails_order_one():
    # The direct reading is the recorded discrepancy: it misses by O(1).
    worst = max(rho_table(xi, psi).pde_direct for xi, psi in REAL_POINTS)
    assert worst > 1e-2


def test_linear_pde_indeterminate_where_transport_vanishes():
    # On the equator the transport coefficient has a zero exactly at the
    # lower discriminant boundary; the residual is 0/0 there.
    with pytest.raises(ValueError, match="indeterminate"):
        rho_table(DISC_XI_LOW, math.pi / 2.0)


def test_gauge_polynomial_does_not_move_residuals():
    f1 = (0.7, -0.3, 0.11, 2.0)
    for xi, psi in REAL_POINTS:
        bare = rho_table(xi, psi).pde_parametric
        gauged = rho_table(xi, psi, f1=f1).pde_parametric
        assert abs(bare - gauged) <= 1e-11
        rel_bare = uv_table(xi, psi).relation_residual("xi")
        rel_gauged = uv_table(xi, psi, f1=f1).relation_residual("xi")
        assert abs(rel_bare - rel_gauged) <= 1e-11


def test_parametric_relation_readings_split():
    for xi, psi in REAL_POINTS:
        uv = uv_table(xi, psi)
        assert uv.relation_residual("xi") <= 1e-12
        # The alternative coefficient reading misses by many orders.
        assert (uv.relation_residual("v")
                > 1e8 * uv.relation_residual("xi"))
    with pytest.raises(ValueError):
        uv_table(0.5, 1.0).relation_residual("w")


def test_legendre_pairing_of_uv():
    # v_xi = xi * u_xi everywhere the pair is defined.
    for xi, psi in REAL_POINTS + COMPLEX_POINTS:
        uv = uv_table(xi, psi)
        defect = abs(uv.v_xi - xi * uv.u_xi)
        assert defect <= 1e-12 * max(1.0, abs(uv.v_xi))


def test_uv_partials_match_finite_differences():
    h = 1e-6
    for xi, psi in REAL_POINTS:
        uv = uv_table(xi, psi)
        up = uv_table(xi + h, psi)
        um = uv_table(xi - h, psi)
        np.testing.assert_allclose(uv.u_xi.real, (up.u - um.u).real / (2 * h),
                                   rtol=2e-5, atol=2e-6)
        vp = uv_table(xi, psi + h)
        vm = uv_table(xi, psi - h)
        np.testing.assert_allclose(uv.u_psi.real, (vp.u - vm.u).real / (2 * h),
                                   rtol=2e-5, atol=2e-6)
        np.testing.assert_allclose(uv.v_psi.real, (vp.v - vm.v).real / (2 * h),
                                   rtol=2e-5, atol=2e-6)


def test_rho_xi_dual_matches_finite_differences():
    h = 1e-6
    for xi, psi in REAL_POINTS + COMPLEX_POINTS:
        rho_xi = rho_table(xi, psi).u
        fd = (rho_table(xi + h, psi).rho - rho_table(xi - h, psi).rho) / (2 * h)
        assert abs(rho_xi - fd) <= 1e-6 * max(1.0, abs(rho_xi))


def test_psi_partial_continuous_across_discriminant_boundaries():
    # rho itself has an integrable square-root divergence at the
    # boundary; the transported quantity is its psi-partial, which must
    # come out continuous under complexification.
    delta = 1e-9
    for xi_b in (DISC_XI_LOW, DISC_XI_HIGH):
        for psi in (0.7, 1.2, 1.9):
            lo = rho_table(xi_b * (1.0 - delta), psi).rho_psi
            hi = rho_table(xi_b * (1.0 + delta), psi).rho_psi
            assert abs(hi - lo) <= 1e-6 * max(1.0, abs(lo))


def test_h_pde_readings_split_at_physical_states():
    # Points picked so the reconstructed radius is positive and the
    # parameter root is unique inside the bracket.
    for xi0, psi in ((0.2, 1.1), (0.65, 1.8), (0.65, 2.1)):
        v = uv_table(xi0, psi).v
        assert v.real > 0.0
        bracket = (0.7 * xi0, min(1.3 * xi0, 0.8))
        rec = reconstruct_H(v.real, psi, bracket=bracket)
        assert rec.h_pde_residual("xi") <= 1e-10
        assert rec.h_pde_residual("v") > 1e-2


def _reconstructed_h(r, psi, bracket):
    xi_star, _, _ = fi._reconstruct_xi(r, psi, 1.0, (), bracket, 60)
    return uv_table(xi_star, psi).u.real


def test_reconstruction_roundtrip():
    cases = ((0.2, 1.1), (0.65, 1.8))
    for xi0, psi in cases:
        uv = uv_table(xi0, psi)
        bracket = (0.7 * xi0, min(1.3 * xi0, 0.8))
        got = _reconstructed_h(uv.v.real, psi, bracket)
        np.testing.assert_allclose(got, uv.u.real, rtol=1e-9, atol=1e-12)
    # One array call scans both brackets and finds the same roots.
    xi0, psi = np.transpose(cases)
    roots, _, _ = fi._reconstruct_xi(
        uv_table(xi0, psi).v.real, psi, 1.0, (),
        (0.7 * xi0, np.minimum(1.3 * xi0, 0.8)), 60)
    np.testing.assert_allclose(roots, xi0, rtol=1e-9)


def test_battery_parameters_keep_their_bits():
    # The parameters the h-pde and phi-flow checks reconstruct at their 12
    # states: nine are scan points where v - r is exactly 0, three are
    # refined; all equal the values of the scalar refiner.
    r, psi, bracket = checks._h_pde_states()
    with pytest.warns(UserWarning, match="2 parameter roots"):
        xi_star, _, _ = fi._reconstruct_xi(r, psi, 1.0, (), bracket, 60)
    assert xi_star.tolist() == [
        0.2, 0.2, 0.2, 0.35, 0.35, 0.35, 0.5, 0.5, 0.5,
        0.6500000000248873, 0.6500000000249552, 0.6500000000249644]


def test_reconstruction_warns_on_two_parameter_roots():
    # v(., 0.8) takes the radius v(0.35, 0.8) twice in this bracket; the
    # root nearest the bracket midpoint is the one the radius came from.
    uv = uv_table(0.35, 0.8)
    with pytest.warns(UserWarning, match="2 parameter roots"):
        got = _reconstructed_h(uv.v.real, 0.8, (0.245, 0.455))
    np.testing.assert_allclose(got, uv.u.real, rtol=1e-9, atol=1e-12)


def test_reconstruction_refuses_complex_bracket():
    # A bracket inside the complexified band has no real radius map.
    with pytest.raises(ValueError, match="real region"):
        reconstruct_H(1.0, 0.9, bracket=(2.0, 3.0))
    # A real bracket that never attains the requested radius.
    with pytest.raises(ValueError, match="no root"):
        reconstruct_H(1.0, 0.9, bracket=(5.0, 6.0))
    # Both scan points are real, but the refiner steps into the band.
    with pytest.raises(ValueError, match="real region"):
        reconstruct_H(-100.0, 0.9, bracket=(0.5, 5.0), n_scan=1)


def test_an_array_row_without_a_root_is_nan():
    # Row 0's bracket holds its root xi = 0.2, row 1's none: row 1 is NaN,
    # row 0 has the bits of the same array call without row 1 and the
    # float call's root, and the float call at row 1 raises.
    psi = np.array([1.1, 0.8])
    r = rho_table([0.2, 0.35], psi).v.real
    rec = reconstruct_H(r, psi, bracket=([0.14, 0.6], [0.26, 0.7]))
    alone = reconstruct_H(r[:1], psi[:1], bracket=([0.14], [0.26]))
    one = reconstruct_H(float(r[0]), 1.1, bracket=(0.14, 0.26))
    assert rec.xi_star[0] == one.xi_star == 0.2
    for name in ("xi_star", "h_r", "h_psi"):
        got = getattr(rec, name)
        assert cmath.isnan(got[1]), name
        assert got[:1].tobytes() == getattr(alone, name).tobytes(), name
        assert abs(got[0] - getattr(one, name)) <= 1e-12 * abs(got[0])
    with pytest.raises(ValueError, match="no root"):
        reconstruct_H(float(r[1]), 0.8, bracket=(0.6, 0.7))


def test_a_row_where_v_xi_vanishes_is_nan(monkeypatch):
    # v_xi planted at 0 at row 1's root, xi = 0.5: that row is NaN, and
    # the float call raises.
    def planted(xi, psi, c2=1.0, f1=()):
        uv = uv_table(xi, psi, c2, f1)
        return dataclasses.replace(uv, v_xi=np.where(
            np.abs(np.asarray(xi) - 0.5) < 1e-9, 0.0, uv.v_xi))

    monkeypatch.setattr(fi, "uv_table", planted)
    psi = np.array([1.1, 1.8])
    r = rho_table([0.2, 0.5], psi).v.real
    rec = reconstruct_H(r, psi, bracket=([0.14, 0.35], [0.26, 0.65]))
    assert [cmath.isnan(getattr(rec, name)[k]) for name in
            ("xi_star", "h_r", "h_psi") for k in (0, 1)] == [
        False, True] * 3
    with pytest.raises(ValueError, match="v_xi vanishes"):
        reconstruct_H(float(r[1]), 1.8, bracket=(0.35, 0.65))


@pytest.mark.parametrize("bracket", [(0.5, 0.2), (0.0, 0.5)])
def test_reconstruction_refuses_a_bracket_not_ordered_above_0(bracket):
    with pytest.raises(ValueError, match="bracket must satisfy 0 < lo < hi"):
        reconstruct_H(1.0, 0.9, bracket=bracket)


def test_xi_substitution_is_exact_below_equator():
    def probe(r, phi, x):
        return r * r * x + 0.3 * phi

    for psi in (0.4, 0.9, 1.3):
        res = xi_substitution_residual(1.5, 0.7, psi, probe)
        assert res <= 1e-12


def test_xi_substitution_warns_above_equator():
    def probe(r, phi, x):
        return r * r * x + 0.3 * phi

    with pytest.warns(UserWarning):
        res = xi_substitution_residual(1.5, 0.7, 2.0, probe)
    assert res > 1e-2


def test_polynomial_helpers_match_numpy():
    coeffs = (2.0, -1.5, 0.25, 3.0)  # ascending order
    xs = np.linspace(-2.0, 2.0, 9)
    for x in xs:
        np.testing.assert_allclose(fi.poly_eval(coeffs, float(x)),
                                   np.polyval(coeffs[::-1], x), rtol=1e-14)


def _three_bands():
    # xi spans the inner real band, the complex band and the outer real
    # band; the last point is where the transport coefficient vanishes.
    xi, psi = (g.ravel() for g in np.meshgrid(
        np.linspace(0.05, 6.0, 12), np.linspace(0.05, math.pi - 0.05, 11),
        indexing="ij"))
    return np.append(xi, DISC_XI_LOW), np.append(psi, math.pi / 2.0)


def _physical_states():
    # Radii v(xi0, psi) > 0, their psi and parameter brackets around xi0;
    # (0.35, 0.8)'s bracket holds two roots.
    xi0, psi = np.array([(0.2, 1.1), (0.2, 2.4), (0.35, 0.8), (0.35, 1.4),
                         (0.5, 1.8), (0.65, 2.1)]).T
    return (uv_table(xi0, psi).v.real, psi, 0.7 * xi0,
            np.minimum(1.3 * xi0, 0.8))


_UV_FIELDS = ("u", "v", "u_xi", "u_psi", "v_xi", "v_psi")
# name: (call, points, fields of the result or None, float calls that raise)
_PARITY_CASES = {
    "rho_table": (rho_table, _three_bands,
                  ("rho", "u", "v", "rho_psi", "pde_direct",
                   "pde_parametric"), 1),
    "uv_table": (uv_table, _three_bands, _UV_FIELDS, 0),
    "relation_residual-xi": (
        lambda xi, psi: uv_table(xi, psi).relation_residual("xi"),
        _three_bands, None, 0),
    "relation_residual-v": (
        lambda xi, psi: uv_table(xi, psi).relation_residual("v"),
        _three_bands, None, 0),
    "h_pde_residual-xi": (
        lambda r, psi, lo, hi: reconstruct_H(
            r, psi, bracket=(lo, hi)).h_pde_residual("xi"),
        _physical_states, None, 0),
    "h_pde_residual-v": (
        lambda r, psi, lo, hi: reconstruct_H(
            r, psi, bracket=(lo, hi)).h_pde_residual("v"),
        _physical_states, None, 0),
    "phi_flow_derivative": (
        lambda r, psi, lo, hi: reconstruct_H(
            r, psi, bracket=(lo, hi)).phi_flow_derivative(),
        _physical_states, None, 0),
}


@pytest.mark.filterwarnings("ignore:2 parameter roots")
@pytest.mark.parametrize("name", list(_PARITY_CASES))
def test_float_calls_match_array_entries(name):
    # A float call returns Python numbers equal to the array entries
    # within 1e-10 relative, and the array holds NaN exactly where the
    # float call raises.
    fn, points, fields, want_raised = _PARITY_CASES[name]
    args = points()

    def entries(out):
        return [out] if fields is None else [getattr(out, f) for f in fields]

    arrays = entries(fn(*args))
    raised = 0
    for k in range(args[0].size):
        nan = any(cmath.isnan(a[k]) for a in arrays)
        try:
            want = entries(fn(*(float(a[k]) for a in args)))
        except ValueError:
            raised += 1
            assert nan, (name, k)
            continue
        assert not nan, (name, k)
        for a, w in zip(arrays, want):
            assert type(w) in (float, complex), (name, type(w))
            assert abs(a[k] - w) <= 1e-10 * max(1.0, abs(w)), (name, k, a[k], w)
    assert raised == want_raised


def test_rho_table_broadcasts_and_validates_like_param_point():
    table = fi.rho_table(np.array([[0.2], [0.5]]), np.array([1.1, 1.4, 2.1]))
    assert table.rho.shape == table.pde_parametric.shape == (2, 3)
    uv = fi.uv_table(np.array([[0.2], [0.5]]), np.array([1.1, 1.4, 2.1]))
    assert uv.u.shape == uv.v_xi.shape == (2, 3)
    for table_fn in (fi.rho_table, fi.uv_table):
        with pytest.raises(ValueError, match="psi"):
            table_fn([0.3, 0.4], [1.0, math.pi])
        with pytest.raises(ValueError, match="xi"):
            table_fn([0.3, 0.0], 1.0)


def test_rho_table_reproduces_coarse_nodes_bitwise_inside_a_refined_grid():
    # linear-pde-direct's documented discrepancy is certified by the
    # residual map reproducing at the shared nodes of a nested grid.  The
    # refined linspace holds the coarse nodes bitwise; whether numpy's
    # vector loops give those nodes the same bits at another array length
    # and position is measured here, not assumed.
    axes = ((0.12, 0.72), (0.3, math.pi - 0.3))
    coarse = [np.linspace(a, b, 20) for a, b in axes]
    fine = [np.linspace(a, b, 39) for a, b in axes]
    assert all(np.array_equal(c, f[::2]) for c, f in zip(coarse, fine))
    want = fi.rho_table(*np.meshgrid(*coarse, indexing="ij"))
    got = fi.rho_table(*np.meshgrid(*fine, indexing="ij"))
    for name in ("rho", "rho_psi", "pde_direct", "pde_parametric"):
        assert (getattr(got, name)[::2, ::2].tobytes()
                == getattr(want, name).tobytes()), name


# Scalar results as computed before the dual engine took arrays, as
# (real, imag) float.hex pairs: the scalar path must keep every bit.
_FROZEN_SCALARS = [
    ((0.35, 0.8, 1.0, ()),
     ('-0x1.2fbf575068200p-2', '0x0.0p+0'),
     (('-0x1.03aaaedcb34e6p-1', '0x0.0p+0'),
      ('0x1.e7ec4071440b0p-4', '0x0.0p+0'),
      ('-0x1.81826b28ec06bp-3', '0x0.0p+0'),
      ('0x1.f5bd02851f41ep+0', '0x0.0p+0'),
      ('-0x1.0ddb4b030b9e0p-4', '0x0.0p+0'),
      ('0x1.c764a7d82bd98p-4', '0x0.0p+0')),
     ('0x1.b08967b89633ep+0', '0x1.263d025e06283p-59')),
    ((3.0, 1.7, 1.0, ()),
     ('0x1.9b4fc6da83507p+1', '0x1.7c2036d5888bcp+1'),
     (('0x1.4d2f43fb29a2bp-1', '0x1.6aa8897603ac0p-1'),
      ('-0x1.42d8a7bc482cep+0', '-0x1.b0873ef4172b0p-1'),
      ('-0x1.9fd4c55f4845cp-2', '-0x1.484e987a0a891p-2'),
      ('0x1.1aa14a3f005b9p+2', '0x0.0p+0'),
      ('-0x1.37df940776345p+0', '-0x1.ec75e4b70fcdap-1'),
      ('0x1.6b17b04ff9b21p+3', '0x0.0p+0')),
     ('0x1.19245cf55b4f4p-2', '0x1.948b0fcd6e9e0p-52')),
    ((6.0, 0.6, 0.5, (0.7, -0.3)),
     ('0x1.11120f9335526p+3', '0x0.0p+0'),
     (('-0x1.2ee076315bf17p+1', '0x0.0p+0'),
      ('-0x1.6bb1606e9f9e4p+4', '0x0.0p+0'),
      ('0x1.caf7384d9c90cp+0', '0x0.0p+0'),
      ('0x1.06551ad5810e6p+0', '0x0.0p+0'),
      ('0x1.58396a3a356c9p+3', '0x0.0p+0'),
      ('0x1.9b9bf6bdbc4dep+2', '0x0.0p+0')),
     ('0x1.47672ee4076bep-1', '0x1.46c54abd5a869p-53')),
]


@pytest.mark.parametrize("point, rho, uv, pde", _FROZEN_SCALARS,
                         ids=["real", "complex", "outer-real-gauged"])
def test_scalar_path_is_bit_identical_to_frozen_values(point, rho, uv, pde):
    xi, psi, c2, f1 = point

    def bits(z):
        z = complex(z)
        return (z.real.hex(), z.imag.hex())

    assert bits(fi.rho_raw(complex(xi), psi, c2, f1)) == rho
    got = uv_table(xi, psi, c2, f1)
    assert tuple(bits(getattr(got, name)) for name in
                 ("u", "v", "u_xi", "u_psi", "v_xi", "v_psi")) == uv
    table = rho_table(xi, psi, c2, f1)
    assert (table.pde_direct.hex(), table.pde_parametric.hex()) == pde


def _nested_rho(xi, psi, c2=1.0, f1=()):
    """rho, rho_xi and rho_psi from one nested (mixed-partial) dual pass,
    complex xi seeded at the inner level and psi at the outer."""
    with np.errstate(all="ignore"):
        mixed = fi.rho_raw(Dual(Dual(xi + 0.0j, 1.0 + 0.0j),
                                Dual(0.0j, 0.0j)),
                           Dual(Dual(psi, 0.0), Dual(1.0, 0.0)), c2, f1)
    return mixed.val.val, mixed.val.eps, mixed.eps.val


def _has_the_bits_of_a_nested_pass(names, index):
    """rho_table's columns `names` are the nested pass's entries `index`,
    bit for bit: on the battery's rho grid, on dual-vs-fd's probes, on
    branch-continuity's points, which straddle both discriminant
    boundaries, and at float points."""
    probes = checks._dual_vs_fd_probes()
    straddle = np.broadcast_arrays(
        np.multiply.outer((1.0 - 1e-9, 1.0 + 1e-9),
                          (DISC_XI_LOW, DISC_XI_HIGH))[..., None],
        np.array([0.7, 1.2, 1.9, 2.5]))
    for xi, psi in (checks._real_region_grid(checks._RHO_GRID), probes,
                    straddle):
        table = rho_table(xi, psi)
        want = _nested_rho(xi, psi)
        assert [getattr(table, name).tobytes() for name in names] == \
            [want[i].tobytes() for i in index]
    for xi, psi in REAL_POINTS + OUTER_REAL_POINTS + COMPLEX_POINTS:
        table = rho_table(xi, psi, 0.5, (0.1, -0.2))
        want = _nested_rho(xi, psi, 0.5, (0.1, -0.2))
        assert all(type(want[i]) is complex for i in index)
        assert [repr(getattr(table, name)) for name in names] == \
            [repr(want[i]) for i in index]


def test_rho_psi_has_the_bits_of_rho_table():
    # The psi-seeded pass gives the nested pass's rho_psi.
    _has_the_bits_of_a_nested_pass(("rho_psi",), (2,))


def test_rho_xi_has_the_bits_of_rho_table():
    # The xi-seeded pass gives the nested pass's rho and u = rho_xi, so
    # dual-vs-fd's figure is the nested pass's too.
    _has_the_bits_of_a_nested_pass(("rho", "u"), (0, 1))


@pytest.mark.parametrize("table_fn, xi, psi", [
    (uv_table, 3.06e-187, 3.06e-187),
    (rho_table, 1e-170, 1.0),
    (rho_table, DISC_XI_HIGH, 1.0),
    (rho_table, 2.2e221, 2.4e-123),
    (rho_table, 1e60, 1.0),
    (uv_table, 1e60, 1.0),
], ids=["uv-tiny", "rho-tiny", "rho-disc-root", "rho-huge-tiny-psi",
        "rho-huge", "uv-huge"])
def test_float_pairs_past_the_float_range_are_refused(table_fn, xi, psi):
    # These raised ZeroDivisionError or OverflowError, or (uv-huge) gave
    # u = v = nan+nanj; arrays keep their NaN there.
    message = re.escape(f"not finite at xi={xi!r}")
    with pytest.raises(ValueError, match=message):
        table_fn(xi, psi)
    table = table_fn(np.array([xi]), psi)
    assert not (np.isfinite(table.u) & np.isfinite(table.v)).any()


_FINITE_XI = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_OPEN_PSI = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True,
                      exclude_max=True)


@pytest.mark.parametrize("table_fn", [rho_table, uv_table])
@settings(max_examples=200, deadline=None)
@given(xi=_FINITE_XI | st.floats(0.01, 10.0), psi=_OPEN_PSI)
@example(xi=0.5, psi=5e-324)  # tan(psi/2) rounds to 0
def test_a_float_pair_gives_a_finite_table_or_a_value_error(table_fn, xi,
                                                           psi):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            table = table_fn(xi, psi)
        except ValueError:
            return
    assert cmath.isfinite(table.u) and cmath.isfinite(table.v)
    if table_fn is rho_table:
        assert cmath.isfinite(table.rho)


@pytest.mark.parametrize("xi, psi", [
    (0.0, 0.0), (0j, 1.0), (1e-170 + 0j, 1.0), (0.5 + 0j, math.pi - 1e-9),
    (2.0, 1.0), (1e60, 1.0),
], ids=["zero", "complex-zero", "tiny", "psi-near-pi", "real-xi-past-disc",
        "huge"])
def test_rho_raw_refuses_a_number_pair_where_rho_is_not_finite(xi, psi):
    # These raised ZeroDivisionError, a bare "math domain error" (a real xi
    # where the discriminant is negative) or gave nan.
    with pytest.raises(ValueError, match=re.escape(f"xi={xi!r}, psi={psi!r}")):
        fi.rho_raw(xi, psi)


_NUMBER = (st.floats(allow_nan=False, allow_infinity=False) | st.integers()
           | st.complex_numbers(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(xi=_NUMBER | st.floats(0.01, 10.0), psi=_NUMBER | _OPEN_PSI)
@example(xi=0.0, psi=0.0)
def test_rho_raw_on_numbers_is_finite_or_a_value_error(xi, psi):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rho = fi.rho_raw(xi, psi)
        except ValueError as exc:
            assert f"xi={xi!r}, psi={psi!r}" in str(exc)
            return
    assert cmath.isfinite(rho)


def test_residuals_of_a_result_in_hand_keep_their_bits():
    # The battery forms these from one uv_table and one reconstruct_H,
    # each of which carries the points it was computed at.
    xi, psi = checks._real_region_grid(10)
    uv = uv_table(xi, psi)
    assert (uv.xi.tobytes(), uv.psi.tobytes()) == (xi.tobytes(),
                                                   psi.tobytes())
    r, psi, bracket = checks._h_pde_states()
    with pytest.warns(UserWarning, match="2 parameter roots"):
        rec = fi.reconstruct_H(r, psi, bracket=bracket)
    with pytest.raises(ValueError, match="reading"):
        rec.h_pde_residual("w")
    with pytest.raises(ValueError, match="reading"):
        uv.relation_residual("w")
    # A float point gives Python numbers.
    one = fi.reconstruct_H(float(r[0]), float(psi[0]),
                           bracket=(float(bracket[0][0]),
                                    float(bracket[1][0])))
    assert type(one.xi_star) is float and type(one.h_r) is complex
    assert type(one.h_pde_residual()) is float
    assert type(one.phi_flow_derivative()) is float
    assert type(uv_table(0.35, 0.8).relation_residual()) is float
