"""Reduced radial ODE, its Bessel first integral, and curve tracing."""

import math
import warnings

import numpy as np
import pytest

from hopf_flow import reduced_system as rs

# Effective constants frozen from the continued form; regression anchors.
FROZEN_C = {
    (1.0, 0.5): -4.93143600817705,
    (3.0, 0.2): -1.9608658043984772,
    (5.0, 0.8): -0.8225566958329765,
    (2.0, 0.25): -3.203693175885282,
    (1.2, 0.7): -4.921185337749794,
}


def test_turning_locus_closed_form():
    assert rs.turning_locus(2.0) == 0.25
    for r in (0.5, 1.0, 3.7):
        np.testing.assert_allclose(rs.turning_locus(r),
                                   (r * r + 4.0) ** 2 / (64.0 * r * r),
                                   rtol=1e-16)


def test_slope_at_equator_anchor_point():
    # dH/dr at (r, H) = (2, 1) is exactly -1/3.
    np.testing.assert_allclose(rs.h_rhs(2.0, 1.0), -1.0 / 3.0, rtol=1e-15)


def test_h_and_psi_forms_agree_through_chain_rule():
    # H = sin(psi)^2 makes dH/dr = sin(2 psi) dpsi/dr.
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        r = float(rng.uniform(0.4, 8.0))
        psi = float(rng.uniform(0.1, math.pi - 0.1))
        try:
            lhs = rs.h_rhs(r, math.sin(psi) ** 2)
            rhs_val = math.sin(2.0 * psi) * rs.psi_rhs(r, psi)
        except rs.TurningPointError:
            continue
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs_val) / scale <= 1e-12
        checked += 1


def test_turning_point_guards_raise():
    with pytest.raises(rs.TurningPointError) as info:
        rs.h_rhs(2.0, rs.turning_locus(2.0))
    assert info.value.r == 2.0
    assert info.value.locus == 0.25
    with pytest.raises(rs.TurningPointError):
        rs.psi_rhs(3.0, math.pi / 2.0)
    with pytest.raises(ValueError):
        rs.h_rhs(-1.0, 0.5)
    with pytest.raises(ValueError):
        rs.psi_rhs(0.0, 1.0)


def test_residual_terms_sum_to_zero_on_the_slope():
    for r, h in ((1.0, 0.5), (2.5, 0.7), (4.0, 0.2)):
        terms = rs.h_residual_terms(r, h, rs.h_rhs(r, h))
        assert abs(sum(terms)) / max(abs(t) for t in terms) <= 1e-15


def test_implicit_constant_frozen_values():
    for (r, h), ref in FROZEN_C.items():
        ic = rs.implicit_constant(r, h)
        np.testing.assert_allclose(ic.c_effective, ref, rtol=1e-14)
        assert ic.form == "continued"
        assert ic.c1 == complex(ic.c_effective, math.pi)
        np.testing.assert_allclose(ic.z, 0.5 * math.sqrt(h) * r, rtol=1e-16)


def test_implicit_constant_domain_and_form_guards():
    with pytest.raises(ValueError):
        rs.implicit_constant(1.0, 0.5, form="other")
    with pytest.raises(ValueError):
        rs.implicit_constant(-1.0, 0.5)
    with pytest.raises(ValueError):
        rs.implicit_constant(1.0, 0.0)
    with pytest.raises(ValueError):
        rs.implicit_constant(1.0, 1.2)
    with pytest.raises(ValueError):
        rs.implicit_constant(130.0, 1.0)  # Bessel argument out of range


def test_implicit_residual_zero_at_own_constant():
    for (r, h) in FROZEN_C:
        ic = rs.implicit_constant(r, h)
        assert rs.implicit_residual(ic.c_effective, r, h) <= 1e-15
        assert rs.implicit_residual(ic.c_effective * (1.0 + 1e-6), r, h) > 1e-8


def test_constant_is_conserved_along_traced_curve():
    traj = rs.trace_h(1.0, 0.5, 4.0)
    assert traj.stop_reason == "reached_end"
    r_grid = np.linspace(1.0, 4.0, 25)
    vals = [rs.implicit_constant(float(r), float(traj.sample(float(r))[0]))
            .c_effective for r in r_grid]
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    print(f"continued-form spread {spread:.3e}")
    assert spread <= 1e-8


def test_naive_form_is_not_conserved():
    traj = rs.trace_h(1.0, 0.5, 4.0)
    r_grid = np.linspace(1.0, 4.0, 25)
    vals = [rs.implicit_constant(float(r), float(traj.sample(float(r))[0]),
                                 form="naive").c_effective for r in r_grid]
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    assert spread > 1e-2


def test_select_effective_form_measures_and_chooses():
    sel = rs.select_effective_form()
    assert sel.chosen == "continued"
    assert sel.samples == 24
    assert sel.spreads["continued"] <= 1e-8
    assert sel.spreads["naive"] > 1e-2


def test_solve_implicit_roundtrip_and_input_forms():
    for (r, h) in ((1.0, 0.5), (3.0, 0.2), (1.2, 0.7)):
        ic = rs.implicit_constant(r, h)
        bracket = (max(0.01, h - 0.12), min(0.999, h + 0.12))
        for c1 in (ic, ic.c1, ic.c_effective):
            got = rs.solve_implicit(c1, r, bracket)
            np.testing.assert_allclose(got, h, atol=1e-10)


def test_solve_implicit_reports_tangency_at_turning_locus():
    # At r = 2 the locus sits at H = 0.25; the level curve through that
    # point touches without crossing, so no bracket in H can work.
    ic = rs.implicit_constant(2.0, 0.25)
    with pytest.raises(ValueError, match="tangent"):
        rs.solve_implicit(ic, 2.0, (0.1, 0.45))


def test_solve_implicit_warns_on_multiple_roots():
    # Below the fold value the level curve cuts twice at the same r.
    ic = rs.implicit_constant(2.0, 0.2)
    with pytest.warns(UserWarning, match="roots"):
        root = rs.solve_implicit(ic, 2.0, (0.1, 0.45))
    # Nearest the bracket midpoint: the upper intersection.
    np.testing.assert_allclose(root, 0.3035981138271814, atol=1e-9)
    assert rs.implicit_residual(ic.c_effective, 2.0, root) <= 1e-9


def test_solve_implicit_rejects_empty_bracket():
    with pytest.raises(ValueError, match="bracket"):
        rs.solve_implicit(-3.0, 2.0, (0.5, 0.5))


def test_substitution_check_on_tightly_sampled_solution():
    # Implicitly solved H at radius triples; FD truncation stays below
    # the acceptance tolerance because the triples are tight.
    delta = 1e-4
    worst = 0.0
    for r0, h0 in ((1.2, 0.7), (2.5, 0.55)):
        ic = rs.implicit_constant(r0, h0)
        for r in np.linspace(0.92 * r0, 1.08 * r0, 5):
            bracket = (max(0.01, h0 - 0.12), min(0.9999, h0 + 0.12))
            hs = [rs.solve_implicit(ic, float(rc), bracket, n_scan=8)
                  for rc in (r - delta, r, r + delta)]
            psis = np.arcsin(np.sqrt(hs))
            worst = max(worst, rs.substitution_check(
                np.array([r - delta, r, r + delta]), psis))
    print(f"substitution residual {worst:.3e}")
    assert worst <= 1e-6


def test_substitution_check_input_validation():
    with pytest.raises(ValueError):
        rs.substitution_check([1.0, 2.0], [0.3, 0.4])
    with pytest.raises(ValueError):
        rs.substitution_check([1.0, 2.0, 3.0], [0.3, 0.4])


def test_trace_h_stops_at_turning_guard():
    traj = rs.trace_h(2.0, 0.4, 1.5)
    assert traj.stop_reason == "event"
    assert traj.event.name == "turning-locus"
    np.testing.assert_allclose(traj.t_end, 1.9207650650284926, atol=1e-6)
    # The guard keeps a margin: the rhs is still evaluable at the stop.
    rs.h_rhs(traj.t_end, float(traj.y_end[0]))


def test_trace_h_stops_at_equator_ceiling():
    traj = rs.trace_h(1.0, 0.98, 0.5)
    assert traj.stop_reason == "event"
    assert traj.event.name == "h-ceiling"
    np.testing.assert_allclose(traj.y_end[0], 1.0, atol=1e-9)
    np.testing.assert_allclose(traj.t_end, 0.9307, atol=1e-3)


def test_trace_h_rejects_nonpositive_radii():
    with pytest.raises(ValueError):
        rs.trace_h(-1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        rs.trace_h(1.0, 0.5, 0.0)


def test_reduced_state_hemispheres():
    low = rs.ReducedState(1.0, 0.5)
    high = rs.ReducedState(1.0, 0.5, upper=True)
    np.testing.assert_allclose(low.psi(), math.asin(math.sqrt(0.5)),
                               rtol=1e-15)
    np.testing.assert_allclose(high.psi(), math.pi - low.psi(), rtol=1e-15)


def test_trace_reduced_crosses_folds_and_reaches_target():
    curve = rs.trace_reduced(1.0, math.asin(math.sqrt(0.5)), 6.0)
    assert curve.reached
    assert curve.turning_crossings >= 1
    assert len(curve.segments) > 1
    np.testing.assert_allclose(curve.rs[-1], 6.0, atol=1e-8)
    np.testing.assert_allclose(curve.hs, np.sin(curve.psis) ** 2, atol=1e-12)
    # The conserved combination survives the fold hand-overs.
    vals = []
    for r, h in zip(curve.rs[:: len(curve.rs) // 40 + 1],
                    curve.hs[:: len(curve.hs) // 40 + 1]):
        if 1e-6 < h < 1.0 - 1e-6:
            vals.append(rs.implicit_constant(float(r), float(h)).c_effective)
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    print(f"spread across folds {spread:.3e} over {len(vals)} samples")
    assert spread <= 1e-6


def test_trace_reduced_reports_unreachable_target():
    curve = rs.trace_reduced(1.0, 0.5, 0.2)
    assert not curve.reached
    assert curve.stop_note != ""
    assert curve.rs.min() > 0.2


def test_trace_reduced_validates_psi0():
    with pytest.raises(ValueError):
        rs.trace_reduced(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        rs.trace_reduced(1.0, math.pi, 2.0)
