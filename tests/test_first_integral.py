"""Parametric first-integral chain: rho, (u, v), transport residuals."""

import cmath
import math

import numpy as np
import pytest

from hopf_flow import first_integral as fi
from hopf_flow.first_integral import (DISC_XI_HIGH, DISC_XI_LOW, ParamPoint,
                                      h_pde_residual, linear_pde_residual,
                                      parametric_relation_residual,
                                      rho_eval, uv_from_rho,
                                      xi_substitution_residual)

# The discriminant is positive below DISC_XI_LOW and above DISC_XI_HIGH;
# the band in between is the complexified region.
REAL_POINTS = [(0.2, 1.1), (0.35, 0.8), (0.5, 1.4), (0.65, 2.1), (0.3, 2.6)]
OUTER_REAL_POINTS = [(6.0, 0.6), (7.5, 1.9)]
COMPLEX_POINTS = [(1.5, 0.9), (3.0, 1.7), (4.0, 0.6)]


def test_param_point_validation_and_half_angle():
    with pytest.raises(ValueError):
        ParamPoint(-0.5, 1.0)
    with pytest.raises(ValueError):
        ParamPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        ParamPoint(0.5, 0.0)
    with pytest.raises(ValueError):
        ParamPoint(0.5, math.pi)
    # Stable half-angle tangent: exactly 1 at the equator.
    assert ParamPoint(0.5, math.pi / 2.0).chi == 1.0
    p = ParamPoint(0.5, 0.8)
    np.testing.assert_allclose(p.chi, math.tan(0.4), rtol=1e-15)


def test_region_flags_follow_discriminant_sign():
    for xi, psi in REAL_POINTS + OUTER_REAL_POINTS:
        assert rho_eval(ParamPoint(xi, psi)).region == "real"
    for xi, psi in COMPLEX_POINTS:
        assert rho_eval(ParamPoint(xi, psi)).region == "complex"
    near = rho_eval(ParamPoint(DISC_XI_LOW + 1e-12, 1.0))
    assert near.near_branch_cut


def test_rho_is_real_when_transport_only():
    # With the source coefficient switched off the solution stays real
    # in both real regions (inner and outer).
    for xi, psi in REAL_POINTS + OUTER_REAL_POINTS:
        out = rho_eval(ParamPoint(xi, psi, c2=0.0))
        assert abs(out.rho.imag) <= 1e-13 * max(1.0, abs(out.rho.real))


def test_linear_pde_parametric_variant_is_roundoff():
    worst = max(linear_pde_residual(ParamPoint(xi, psi), variant="parametric")
                for xi, psi in REAL_POINTS)
    print(f"parametric variant max residual {worst:.3e}")
    assert worst <= 1e-12


def test_linear_pde_direct_variant_fails_order_one():
    # The direct reading is the recorded discrepancy: it misses by O(1).
    worst = max(linear_pde_residual(ParamPoint(xi, psi), variant="direct")
                for xi, psi in REAL_POINTS)
    assert worst > 1e-2


def test_linear_pde_unknown_variant_rejected():
    with pytest.raises(ValueError):
        linear_pde_residual(ParamPoint(0.5, 1.0), variant="sideways")


def test_linear_pde_indeterminate_where_transport_vanishes():
    # On the equator the transport coefficient has a zero exactly at the
    # lower discriminant boundary; the residual is 0/0 there.
    with pytest.raises(ValueError, match="indeterminate"):
        linear_pde_residual(ParamPoint(DISC_XI_LOW, math.pi / 2.0),
                            variant="parametric")


def test_gauge_polynomial_does_not_move_residuals():
    f1 = (0.7, -0.3, 0.11, 2.0)
    for xi, psi in REAL_POINTS:
        p = ParamPoint(xi, psi)
        bare = linear_pde_residual(p, variant="parametric")
        gauged = linear_pde_residual(p, f1=f1, variant="parametric")
        assert abs(bare - gauged) <= 1e-11
        rel_bare = parametric_relation_residual(p, reading="xi")
        rel_gauged = parametric_relation_residual(p, f1=f1, reading="xi")
        assert abs(rel_bare - rel_gauged) <= 1e-11


def test_parametric_relation_readings_split():
    for xi, psi in REAL_POINTS:
        p = ParamPoint(xi, psi)
        assert parametric_relation_residual(p, reading="xi") <= 1e-12
        # The alternative coefficient reading misses by many orders.
        assert (parametric_relation_residual(p, reading="v")
                > 1e8 * parametric_relation_residual(p, reading="xi"))
    with pytest.raises(ValueError):
        parametric_relation_residual(ParamPoint(0.5, 1.0), reading="w")


def test_parametric_relation_accepts_precomputed_pair():
    p = ParamPoint(0.35, 1.4)
    uv = uv_from_rho(p)
    assert (parametric_relation_residual(p, reading="xi", uv=uv)
            == parametric_relation_residual(p, reading="xi"))


def test_legendre_pairing_of_uv():
    # v_xi = xi * u_xi everywhere the pair is defined.
    for xi, psi in REAL_POINTS + COMPLEX_POINTS:
        uv = uv_from_rho(ParamPoint(xi, psi))
        defect = abs(uv.v_xi - xi * uv.u_xi)
        assert defect <= 1e-12 * max(1.0, abs(uv.v_xi))


def test_uv_partials_match_finite_differences():
    h = 1e-6
    for xi, psi in REAL_POINTS:
        uv = uv_from_rho(ParamPoint(xi, psi))
        up = uv_from_rho(ParamPoint(xi + h, psi))
        um = uv_from_rho(ParamPoint(xi - h, psi))
        np.testing.assert_allclose(uv.u_xi.real, (up.u - um.u).real / (2 * h),
                                   rtol=2e-5, atol=2e-6)
        vp = uv_from_rho(ParamPoint(xi, psi + h))
        vm = uv_from_rho(ParamPoint(xi, psi - h))
        np.testing.assert_allclose(uv.u_psi.real, (vp.u - vm.u).real / (2 * h),
                                   rtol=2e-5, atol=2e-6)
        np.testing.assert_allclose(uv.v_psi.real, (vp.v - vm.v).real / (2 * h),
                                   rtol=2e-5, atol=2e-6)


def test_rho_xi_dual_matches_finite_differences():
    h = 1e-6
    for xi, psi in REAL_POINTS + COMPLEX_POINTS:
        out = rho_eval(ParamPoint(xi, psi))
        fd = (rho_eval(ParamPoint(xi + h, psi)).rho
              - rho_eval(ParamPoint(xi - h, psi)).rho) / (2 * h)
        assert abs(out.rho_xi - fd) <= 1e-6 * max(1.0, abs(out.rho_xi))


def test_psi_partial_continuous_across_discriminant_boundaries():
    # rho itself has an integrable square-root divergence at the
    # boundary; the transported quantity is its psi-partial, which must
    # come out continuous under complexification.
    delta = 1e-9
    for xi_b in (DISC_XI_LOW, DISC_XI_HIGH):
        for psi in (0.7, 1.2, 1.9):
            lo = fi.rho_psi_partial(ParamPoint(xi_b * (1.0 - delta), psi))
            hi = fi.rho_psi_partial(ParamPoint(xi_b * (1.0 + delta), psi))
            assert abs(hi - lo) <= 1e-6 * max(1.0, abs(lo))


def test_h_pde_readings_split_at_physical_states():
    # Points picked so the reconstructed radius is positive and the
    # parameter root is unique inside the bracket.
    for xi0, psi in ((0.2, 1.1), (0.65, 1.8), (0.65, 2.1)):
        v = uv_from_rho(ParamPoint(xi0, psi)).v
        assert v.real > 0.0
        bracket = (0.7 * xi0, min(1.3 * xi0, 0.8))
        assert h_pde_residual(v.real, psi, bracket=bracket) <= 1e-10
        assert h_pde_residual(v.real, psi, reading="v",
                              bracket=bracket) > 1e-2


def _reconstructed_h(r, psi, bracket):
    xi_star = float(fi._reconstruct_xi(r, psi, 1.0, (), bracket, 60))
    return uv_from_rho(ParamPoint(xi_star, psi)).u.real


def test_reconstruction_roundtrip():
    cases = ((0.2, 1.1), (0.65, 1.8))
    for xi0, psi in cases:
        uv = uv_from_rho(ParamPoint(xi0, psi))
        bracket = (0.7 * xi0, min(1.3 * xi0, 0.8))
        got = _reconstructed_h(uv.v.real, psi, bracket)
        np.testing.assert_allclose(got, uv.u.real, rtol=1e-9, atol=1e-12)
    # One array call scans both brackets and finds the same roots.
    xi0, psi = np.transpose(cases)
    roots = fi._reconstruct_xi(fi.uv_table(xi0, psi).v.real, psi, 1.0, (),
                               (0.7 * xi0, np.minimum(1.3 * xi0, 0.8)), 60)
    np.testing.assert_allclose(roots, xi0, rtol=1e-9)


def test_reconstruction_warns_on_two_parameter_roots():
    # v(., 0.8) takes the radius v(0.35, 0.8) twice in this bracket; the
    # root nearest the bracket midpoint is the one the radius came from.
    uv = uv_from_rho(ParamPoint(0.35, 0.8))
    with pytest.warns(UserWarning, match="2 parameter roots"):
        got = _reconstructed_h(uv.v.real, 0.8, (0.245, 0.455))
    np.testing.assert_allclose(got, uv.u.real, rtol=1e-9, atol=1e-12)


def test_reconstruction_refuses_complex_bracket():
    # A bracket inside the complexified band has no real radius map.
    with pytest.raises(ValueError, match="real region"):
        h_pde_residual(1.0, 0.9, bracket=(2.0, 3.0))
    # A real bracket that never attains the requested radius.
    with pytest.raises(ValueError, match="no root"):
        h_pde_residual(1.0, 0.9, bracket=(5.0, 6.0))
    # Both scan points are real, but the refiner steps into the band.
    with pytest.raises(ValueError, match="real region"):
        h_pde_residual(-100.0, 0.9, bracket=(0.5, 5.0), n_scan=1)


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


def _scalar_pde(p, variant):
    try:
        return linear_pde_residual(p, variant=variant)
    except ValueError:
        return math.nan


def test_rho_table_matches_the_scalar_functions_across_both_regions():
    # xi spans the inner real band, the complex band and the outer real
    # band; the last point is where the transport coefficient vanishes.
    xi, psi = (g.ravel() for g in np.meshgrid(
        np.linspace(0.05, 6.0, 12), np.linspace(0.05, math.pi - 0.05, 11),
        indexing="ij"))
    xi = np.append(xi, DISC_XI_LOW)
    psi = np.append(psi, math.pi / 2.0)
    table = fi.rho_table(xi, psi)
    uv_table = fi.uv_table(xi, psi)
    assert np.isnan(table.pde_direct[-1]) and np.isnan(table.pde_parametric[-1])
    for k in range(xi.size - 1):
        p = ParamPoint(float(xi[k]), float(psi[k]))
        uv = uv_from_rho(p)
        want = {"rho": rho_eval(p).rho, "u": uv.u, "v": uv.v,
                "rho_psi": fi.rho_psi_partial(p),
                "pde_direct": _scalar_pde(p, "direct"),
                "pde_parametric": _scalar_pde(p, "parametric")}
        want.update({f"uv.{name}": getattr(uv, name) for name in
                     ("u", "v", "u_xi", "u_psi", "v_xi", "v_psi")})
        for name, scalar in want.items():
            got = (getattr(uv_table, name[3:]) if name.startswith("uv.")
                   else getattr(table, name))[k]
            assert cmath.isnan(got) == cmath.isnan(scalar), (name, p)
            if not cmath.isnan(scalar):
                assert abs(got - scalar) <= 1e-10 * max(1.0, abs(scalar)), \
                    (name, p, got, scalar)


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

    p = ParamPoint(xi, psi, c2)
    assert bits(fi.rho_raw(complex(xi), psi, c2, f1)) == rho
    got = uv_from_rho(p, f1)
    assert tuple(bits(getattr(got, name)) for name in
                 ("u", "v", "u_xi", "u_psi", "v_xi", "v_psi")) == uv
    assert (linear_pde_residual(p, f1, "direct").hex(),
            linear_pde_residual(p, f1, "parametric").hex()) == pde
