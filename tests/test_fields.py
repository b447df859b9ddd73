"""Velocity field evaluation, chart transforms, and derived rates."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopf_flow import fields, reduced_system
from hopf_flow.fields import (cartesian_ode, derived_rates, from_spherical,
                              pushforward_sign, spherical_ode, to_spherical)
from hopf_flow.integrator import integrate

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
        vx, vy, vz = cartesian_ode(0.0, (float(x), float(y), float(z)))
        ex, ey, ez = rational_velocity(x, y, z)
        np.testing.assert_allclose(vx, float(ex), rtol=5e-16, atol=1e-18)
        np.testing.assert_allclose(vy, float(ey), rtol=5e-16, atol=1e-18)
        np.testing.assert_allclose(vz, float(ez), rtol=5e-16, atol=1e-18)


def test_rational_oracle_unit_norm():
    # The squared norm is exactly 1 in rational arithmetic.
    for x, y, z in INTEGER_POINTS:
        vx, vy, vz = rational_velocity(x, y, z)
        assert vx * vx + vy * vy + vz * vz == 1


@settings(max_examples=300, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
def test_unit_norm_everywhere(x, y, z):
    vx, vy, vz = cartesian_ode(0.0, (x, y, z))
    norm = math.sqrt(vx ** 2 + vy ** 2 + vz ** 2)
    assert abs(norm - 1.0) <= 1e-12


def test_derived_rates_match_gradient_contraction():
    # rate_arctan must equal V . grad arctan(y/x), rate_r2 likewise for
    # x^2 + y^2, using the analytic gradients.
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y, z = rng.uniform(-4, 4, size=3)
        if x * x + y * y < 1e-2:
            continue
        p = (float(x), float(y), float(z))
        vx, vy, _ = cartesian_ode(0.0, p)
        rates = derived_rates(p)
        rho2 = x * x + y * y
        expect_atan = (-y * vx + x * vy) / rho2
        expect_r2 = 2.0 * (x * vx + y * vy)
        np.testing.assert_allclose(rates.rate_arctan, expect_atan, rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(rates.rate_r2, expect_r2, rtol=1e-12,
                                   atol=1e-15)


def test_phase_rate_vanishes_on_radius_two_sphere():
    pts = [(2.0, 0.0, 0.0), (1.2, 1.6, 0.0), (1.0, 1.0, math.sqrt(2.0)),
           (0.5, 0.5, math.sqrt(3.5))]
    for x, y, z in pts:
        r = derived_rates((x, y, z))
        assert abs(r.rate_arctan) <= 1e-14


def test_chart_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y, z = rng.uniform(-5, 5, size=3)
        p = (float(x), float(y), float(z))
        if x * x + y * y == 0.0:
            continue
        q = from_spherical(to_spherical(p))
        np.testing.assert_allclose(q, p, rtol=1e-14, atol=1e-14)
    # And the reverse direction.
    for _ in range(100):
        r = float(rng.uniform(0.1, 8.0))
        phi = float(rng.uniform(-math.pi, math.pi))
        psi = float(rng.uniform(0.05, math.pi - 0.05))
        s2 = to_spherical(from_spherical((r, phi, psi)))
        np.testing.assert_allclose(s2, (r, phi, psi), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("state, name", [
    ((1.0, math.inf, 0.0), "phi"), ((1.0, 0.3, -math.inf), "psi"),
], ids=["phi", "psi"])
def test_from_spherical_refuses_an_infinite_angle_naming_it(state, name):
    # math.cos raised a bare "math domain error" there.
    with pytest.raises(ValueError, match=f"got {name}=-?inf$"):
        from_spherical(state)


def test_axis_handling():
    # The chart puts axis points at phi = 0 and psi exactly 0 or pi; the
    # azimuth rate is undefined there (NaN) and the origin has no chart at
    # all.  Off each field's domain its slopes are NaN.
    assert to_spherical((0.0, 0.0, 3.0)) == (3.0, 0.0, 0.0)
    assert to_spherical((0.0, 0.0, -2.0)) == (2.0, 0.0, math.pi)
    assert math.isnan(derived_rates((0.0, 0.0, 3.0)).rate_arctan)
    with pytest.raises(ValueError):
        to_spherical((0.0, 0.0, 0.0))
    for bad in ((0.0, 0.0, 1.0), (-1.0, 0.4, 1.1), (1.0, 0.4, math.inf)):
        assert all(map(math.isnan, spherical_ode(0.0, bad)))
    for bad in ((math.inf, 0.0, 0.0), (0.0, math.nan, 0.0)):
        assert all(map(math.isnan, cartesian_ode(0.0, bad)))


def test_spherical_rates_have_known_signs_and_values():
    # On psi = pi/2 the radial rate vanishes; dphi depends only on r.
    for r in (1.0, 2.0, 3.5):
        dr, dphi, _ = spherical_ode(0.0, (r, 0.3, math.pi / 2.0))
        assert abs(dr) <= 1e-15
        q = (r * r + 4.0) ** 2
        np.testing.assert_allclose(dphi, -8.0 * (r * r - 4.0) / q,
                                   rtol=1e-15, atol=1e-18)
    # dphi changes sign exactly at r = 2.
    assert spherical_ode(0.0, (1.0, 0.0, 1.0))[1] > 0.0
    assert spherical_ode(0.0, (3.0, 0.0, 1.0))[1] < 0.0
    assert abs(spherical_ode(0.0, (2.0, 0.0, 1.0))[1]) <= 1e-16


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
        p = (float(x), float(y), float(z))
        s = to_spherical(p)
        r, _, psi = s
        if x * x + y * y == 0.0 or r < 0.3 or min(psi, math.pi - psi) < 0.2:
            continue
        v = cartesian_ode(0.0, p)
        plus = to_spherical([c + h * vc for c, vc in zip(p, v)])
        minus = to_spherical([c - h * vc for c, vc in zip(p, v)])
        dphi = (plus[1] - minus[1])
        dphi = math.atan2(math.sin(dphi), math.cos(dphi)) / (2 * h)
        fd = np.array([(plus[0] - minus[0]) / (2 * h), dphi,
                       (plus[2] - minus[2]) / (2 * h)])
        sv = spherical_ode(0.0, s)
        np.testing.assert_allclose(fd, -np.array(sv), rtol=2e-6, atol=2e-6)


def test_overflow_message_is_the_same_for_a_list_or_an_array_state():
    # Past the float range the field says so the same way for a list and
    # an array state: NaN slopes, with no numpy overflow warning.
    bad = [1e200, -2.5, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        from_list = fields.cartesian_ode(0.0, bad)
        from_array = fields.cartesian_ode(0.0, np.array(bad))
    assert all(map(math.isnan, from_list + from_array))


def _array_row(coords):
    return np.array([coords])[0]


def _point_results(form):
    cart, sph = form((0.7, -1.2, 2.1)), form((1.5, 0.4, 1.1))
    rates = derived_rates(cart)
    return [cartesian_ode(0.0, cart), spherical_ode(0.0, sph),
            to_spherical(cart), from_spherical(sph),
            (rates.rate_arctan, rates.rate_r2)]


@pytest.mark.parametrize("form", [tuple, list, _array_row],
                         ids=["tuple", "list", "ndarray-row"])
def test_a_point_is_any_sequence_of_three_floats(form):
    # Every point function reads a tuple, a list or an array row alike and
    # returns a tuple; Python floats in give Python floats out.
    got = _point_results(form)
    assert got == _point_results(tuple)
    assert all(type(g) is tuple for g in got[:4])
    if form is not _array_row:
        assert all(type(c) is float for g in got for c in g)
    # derived_rates gives NaN where the field does; at (1e80, 0, 1) its
    # float `**` once raised OverflowError.
    for bad in ((1e200, 0.0, 0.0), (1e80, 0.0, 1.0), (9e76, 9e76, 9e76),
                (math.nan, 0.0, 0.0)):
        rates = derived_rates(form(bad))
        assert all(map(math.isnan, cartesian_ode(0.0, form(bad))
                       + (rates.rate_arctan, rates.rate_r2)))
    assert all(map(math.isnan, spherical_ode(0.0, form((-1.0, 0.4, 1.1)))))


def test_a_stage_through_the_origin_rejects_its_step():
    # The spherical run from r = 1e-12 has trial stages at r <= 0; their
    # NaN slopes reject those steps, and the run ends where the Cartesian
    # field's backward run from the same point does.
    s0 = (1e-12, 0.0, 3.0)
    sph = integrate(spherical_ode, s0, (0.0, 10.0))
    cart = integrate(cartesian_ode, from_spherical(s0), (0.0, -10.0))
    assert sph.stop_reason == cart.stop_reason == "reached_end"
    assert sph.nreject > 0
    np.testing.assert_allclose(from_spherical(sph.ys[-1]), cart.ys[-1],
                               rtol=0.0, atol=1e-12)


def test_an_escaping_orbit_stops_on_step_underflow():
    # Stages past the float range of (|p|^2 + 4)^2 get NaN slopes, and the
    # run stops where its steps no longer move t, not on a refusal.
    traj = integrate(cartesian_ode, (10.0, 0.0, 0.0), (0.0, 1e100))
    assert traj.stop_reason == "step_underflow" and traj.nreject > 0
    assert traj.t_end == pytest.approx(1e77, rel=1e-12)


# Extreme floats: each is an example as t and the first component, and as
# the other components, of each package field; hypothesis draws them often.
_EXTREMES = (0.0, -0.0, 1.0, -1.0, 1e-320, 1e-200, 1e77, -1e77, 1e154,
             1e200, 1.7e308, math.inf, -math.inf, math.nan, 3.0, 1e30)
_ANY_FLOAT = st.sampled_from(_EXTREMES) | st.floats()


def _at_every_extreme(test):
    for v in _EXTREMES:
        test = example(t=v, state=(v, 1.0, 1.0))(test)
        test = example(t=1.0, state=(1.0, v, v))(test)
    return test


@settings(max_examples=300, deadline=None)
@given(t=_ANY_FLOAT, state=st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT))
@_at_every_extreme
def test_no_package_field_raises_on_any_float_state(t, state):
    # Off its domain a field's slopes are not finite; it never raises or
    # warns.  _trace_h's dH/dr reads r as its time.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for field, d in ((cartesian_ode, 3), (spherical_ode, 3),
                         (reduced_system.reduced_time_ode, 2),
                         (reduced_system._dh_dr, 1)):
            slopes = field(t, state[:d])
            assert len(slopes) == d
