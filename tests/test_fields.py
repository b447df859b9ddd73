"""Velocity field evaluation, chart transforms, and derived rates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_flow import fields
from hopf_flow.fields import (CartesianState, SphericalState, derived_rates,
                              eval_cartesian, eval_spherical, from_spherical,
                              pushforward_sign, to_spherical)

INTEGER_POINTS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 1, 0), (1, 2, 3),
    (-1, 2, 0), (3, -1, 2), (-2, -2, 1), (4, 0, -3), (0, -3, -1),
    (5, 5, 5), (-4, 1, 2), (2, -3, 4),
]


def rational_velocity(x, y, z):
    """Exact rational evaluation of the velocity components."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    s = x * x + y * y + z * z
    d = (s + 4) ** 2
    vx = 8 * (4 * z * x - y * s + 4 * y) / d
    vy = 8 * (4 * z * y + x * s - 4 * x) / d
    vz = (24 * x * x + 24 * y * y - 8 * z * z - s * s - 16) / d
    return vx, vy, vz


def test_exact_rational_oracle_at_integer_points():
    for x, y, z in INTEGER_POINTS:
        v = eval_cartesian(CartesianState(float(x), float(y), float(z)))
        ex, ey, ez = rational_velocity(x, y, z)
        np.testing.assert_allclose(v.vx, float(ex), rtol=5e-16, atol=1e-18)
        np.testing.assert_allclose(v.vy, float(ey), rtol=5e-16, atol=1e-18)
        np.testing.assert_allclose(v.vz, float(ez), rtol=5e-16, atol=1e-18)


def test_rational_oracle_unit_norm():
    # The squared norm is exactly 1 in rational arithmetic.
    for x, y, z in INTEGER_POINTS:
        vx, vy, vz = rational_velocity(x, y, z)
        assert vx * vx + vy * vy + vz * vz == 1


@settings(max_examples=300, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
def test_unit_norm_everywhere(x, y, z):
    v = eval_cartesian(CartesianState(x, y, z))
    norm = math.sqrt(v.vx ** 2 + v.vy ** 2 + v.vz ** 2)
    assert abs(norm - 1.0) <= 1e-12


def test_derived_rates_match_gradient_contraction():
    # rate_arctan must equal V . grad arctan(y/x), rate_r2 likewise for
    # x^2 + y^2, using the analytic gradients.
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y, z = rng.uniform(-4, 4, size=3)
        if x * x + y * y < 1e-2:
            continue
        p = CartesianState(float(x), float(y), float(z))
        v = eval_cartesian(p)
        rates = derived_rates(p)
        rho2 = x * x + y * y
        expect_atan = (-y * v.vx + x * v.vy) / rho2
        expect_r2 = 2.0 * (x * v.vx + y * v.vy)
        np.testing.assert_allclose(rates.rate_arctan, expect_atan, rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(rates.rate_r2, expect_r2, rtol=1e-12,
                                   atol=1e-15)


def test_phase_rate_vanishes_on_radius_two_sphere():
    pts = [(2.0, 0.0, 0.0), (1.2, 1.6, 0.0), (1.0, 1.0, math.sqrt(2.0)),
           (0.5, 0.5, math.sqrt(3.5))]
    for x, y, z in pts:
        r = derived_rates(CartesianState(x, y, z))
        assert abs(r.rate_arctan) <= 1e-14


def test_chart_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y, z = rng.uniform(-5, 5, size=3)
        p = CartesianState(float(x), float(y), float(z))
        s = to_spherical(p)
        if s.on_axis:
            continue
        q = from_spherical(s)
        np.testing.assert_allclose((q.x, q.y, q.z), (p.x, p.y, p.z),
                                   rtol=1e-14, atol=1e-14)
    # And the reverse direction.
    for _ in range(100):
        r = float(rng.uniform(0.1, 8.0))
        phi = float(rng.uniform(-math.pi, math.pi))
        psi = float(rng.uniform(0.05, math.pi - 0.05))
        s = SphericalState(r, phi, psi)
        s2 = to_spherical(from_spherical(s))
        np.testing.assert_allclose((s2.r, s2.phi, s2.psi), (r, phi, psi),
                                   rtol=1e-13, atol=1e-13)


def test_axis_handling():
    # The chart flags axis points; the azimuth rate is undefined there
    # (NaN) and the origin has no chart at all.
    s = to_spherical(CartesianState(0.0, 0.0, 3.0))
    assert s.on_axis and s.psi == 0.0
    below = to_spherical(CartesianState(0.0, 0.0, -2.0))
    assert below.on_axis and below.psi == math.pi
    assert math.isnan(derived_rates(CartesianState(0.0, 0.0, 3.0)).rate_arctan)
    with pytest.raises(ValueError):
        to_spherical(CartesianState(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        eval_spherical(SphericalState(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        eval_cartesian(CartesianState(math.inf, 0.0, 0.0))


def test_spherical_rates_have_known_signs_and_values():
    # On psi = pi/2 the radial rate vanishes; dphi depends only on r.
    for r in (1.0, 2.0, 3.5):
        v = eval_spherical(SphericalState(r, 0.3, math.pi / 2.0))
        assert abs(v.dr) <= 1e-15
        q = (r * r + 4.0) ** 2
        np.testing.assert_allclose(v.dphi, -8.0 * (r * r - 4.0) / q,
                                   rtol=1e-15, atol=1e-18)
    # dphi changes sign exactly at r = 2.
    assert eval_spherical(SphericalState(1.0, 0.0, 1.0)).dphi > 0.0
    assert eval_spherical(SphericalState(3.0, 0.0, 1.0)).dphi < 0.0
    assert abs(eval_spherical(SphericalState(2.0, 0.0, 1.0)).dphi) <= 1e-16


def test_pushforward_sign_is_consistent_minus_one():
    rpt = pushforward_sign()
    assert rpt.sigma == -1
    assert rpt.consistent
    assert rpt.samples == 100
    assert rpt.max_residual <= 1e-10
    print(f"sigma={rpt.sigma} max residual {rpt.max_residual:.3e}")


def test_pushforward_relates_chart_odes_pointwise():
    # d/dt of the spherical coordinates along the Cartesian flow equals
    # sigma times the spherical system, checked by finite differences.
    rng = np.random.default_rng(23)
    h = 1e-7
    for _ in range(20):
        x, y, z = rng.uniform(-3, 3, size=3)
        p = CartesianState(float(x), float(y), float(z))
        s = to_spherical(p)
        if s.on_axis or s.r < 0.3 or min(s.psi, math.pi - s.psi) < 0.2:
            continue
        v = eval_cartesian(p)
        plus = to_spherical(CartesianState(p.x + h * v.vx, p.y + h * v.vy,
                                           p.z + h * v.vz))
        minus = to_spherical(CartesianState(p.x - h * v.vx, p.y - h * v.vy,
                                            p.z - h * v.vz))
        dphi = (plus.phi - minus.phi)
        dphi = math.atan2(math.sin(dphi), math.cos(dphi)) / (2 * h)
        fd = np.array([(plus.r - minus.r) / (2 * h), dphi,
                       (plus.psi - minus.psi) / (2 * h)])
        sv = eval_spherical(s)
        np.testing.assert_allclose(fd, -np.array([sv.dr, sv.dphi, sv.dpsi]),
                                    rtol=2e-6, atol=2e-6)


def test_ode_wrappers_agree_with_dataclass_forms():
    y = np.array([0.7, -1.2, 2.1])
    v = eval_cartesian(CartesianState(*y))
    np.testing.assert_array_equal(fields.cartesian_ode(0.0, y),
                                  [v.vx, v.vy, v.vz])
    s = np.array([1.5, 0.4, 1.1])
    sv = eval_spherical(SphericalState(*s))
    np.testing.assert_array_equal(fields.spherical_ode(0.0, s),
                                  [sv.dr, sv.dphi, sv.dpsi])
    # The wrappers refuse what the dataclass forms refuse, with the same
    # message.
    for bad in ([1e200, 0.0, 0.0], [math.nan, 0.0, 0.0]):
        with pytest.raises(ValueError) as want:
            eval_cartesian(CartesianState(*bad))
        with pytest.raises(ValueError) as got:
            fields.cartesian_ode(0.0, np.array(bad))
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as want:
        eval_spherical(SphericalState(-1.0, 0.4, 1.1))
    with pytest.raises(ValueError) as got:
        fields.spherical_ode(0.0, np.array([-1.0, 0.4, 1.1]))
    assert str(got.value) == str(want.value)


def test_overflow_message_is_the_same_for_a_list_or_an_array_state():
    bad = [1e200, -2.5, 0.0]
    with pytest.raises(ValueError) as from_list:
        fields.cartesian_ode(0.0, bad)
    with np.errstate(over="ignore"), pytest.raises(ValueError) as from_array:
        fields.cartesian_ode(0.0, np.array(bad))
    assert str(from_list.value) == str(from_array.value)
    assert "(1e+200, -2.5, 0.0)" in str(from_list.value)
