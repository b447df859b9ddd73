"""Reduced radial ODE, its Bessel first integral, and curve tracing."""

import hashlib
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopf_flow import integrator
from hopf_flow import reduced_system as rs
from hopf_flow.diagnostics import relative_to_terms

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


def test_radii_past_the_float_range_are_refused_naming_r():
    # At the largest radius both slopes are finite and on their asymptotes
    # -2H/r and -tan(psi)/r; one double further, and at the radii where
    # r (r^4 + ...) overflowed into a TurningPointError or an
    # OverflowError, the shared guard refuses r by name.
    assert rs.h_rhs(rs._R_MAX, 0.5) == -1.0 / rs._R_MAX
    np.testing.assert_allclose(rs.psi_rhs(rs._R_MAX, 0.3),
                               -math.tan(0.3) / rs._R_MAX, rtol=1e-15)
    assert math.isfinite(rs.turning_locus(rs._R_MAX))
    first = math.nextafter(rs._R_MAX, math.inf)
    for fn, r, other in ((rs.h_rhs, 1.1e77, 0.5), (rs.h_rhs, 1.2e77, 0.5),
                         (rs.h_rhs, 2.07e82, 2.07e82), (rs.psi_rhs, 1e80, 0.3),
                         (rs.h_rhs, first, 0.5), (rs.psi_rhs, first, 0.3)):
        with pytest.raises(ValueError, match=re.escape(f"got r={r!r}")):
            fn(r, other)
    with pytest.raises(ValueError, match=re.escape(f"got r={first!r}")):
        rs.turning_locus(first)


def test_radii_whose_turning_locus_is_past_the_float_range_are_refused():
    # 64 r^2 <= 2^-1020 at r <= 2^-513, so the locus was inf there, and a
    # ZeroDivisionError once r^2 underflowed to 0; the slopes keep their
    # values at such radii.
    first = 2.0 ** -513  # the largest refused double
    for r in (first, 1e-170):
        with pytest.raises(ValueError, match=re.escape(f"got r={r!r}")):
            rs.turning_locus(r)
    assert math.isfinite(rs.turning_locus(math.nextafter(first, 1.0)))
    assert math.isfinite(rs.turning_locus(3.8e-155))
    assert rs.turning_locus(2.0) == 0.25
    assert rs.h_rhs(1e-170, 0.5) == -1e170
    assert math.isfinite(rs.psi_rhs(1e-170, 0.3))


def test_slope_at_a_huge_h_is_the_finite_slope():
    # The numerator's 128 H^2 r^2 term leaves the float range first (at
    # |H| ~ 1.2e153 for r = 1), where the slope is still ~ -2H/r; from
    # there on the slope is formed without an H^2 term.  Against a
    # 50-digit evaluation, on both sides of that switch and at every
    # radius; a slope past the float range is an infinity of its sign.
    assert rs.h_rhs(1.0, 1e300) == -2e300
    assert rs.h_rhs(1.0, -1e300) == 2e300
    assert rs.h_rhs(1.0, 1e150) == -2e150
    for r in (0.5, 1.0, 7.0, 1e3, rs._R_MAX):
        for h in np.geomspace(1e100, 1.7e308, 60).tolist():
            for h in (h, -h):
                with mpmath.workdps(50):
                    rr, big_h = mpmath.mpf(r) ** 2, mpmath.mpf(h)
                    num = -2 * big_h * (rr * rr + 40 * rr - 64 * big_h * rr
                                        + 16)
                    want = num / (r * (rr * rr + 8 * rr - 64 * rr * big_h
                                       + 16))
                got = rs.h_rhs(r, h)
                if abs(want) > sys.float_info.max:
                    assert got == (math.inf if want > 0 else -math.inf)
                else:
                    assert abs(got - want) <= 1e-15 * abs(want)


def test_residual_terms_sum_to_zero_on_the_slope():
    for r, h in ((1.0, 0.5), (2.5, 0.7), (4.0, 0.2)):
        terms = rs.h_residual_terms(r, h, rs.h_rhs(r, h))
        assert abs(sum(terms)) / max(abs(t) for t in terms) <= 1e-15


def test_implicit_constant_frozen_values():
    for (r, h), ref in FROZEN_C.items():
        ic = rs.implicit_constant(r, h)
        np.testing.assert_allclose(ic.c_effective, ref, rtol=1e-14)
        assert ic.c1 == complex(ic.c_effective, math.pi)


def test_implicit_constant_domain_and_form_guards():
    refused = [(-1.0, 0.5), (1.0, 0.0), (1.0, 1.2),
               (602.0, 1.0)]  # Bessel argument z = 301 > Z_MAX
    for r, h in refused:
        with pytest.raises(ValueError):
            rs.implicit_constant(r, h)
    assert math.isfinite(rs.implicit_constant(600.0, 1.0).c_effective)
    # An array gives NaN at the same points instead of raising.
    r, h = np.array(refused + [(600.0, 1.0)]).T
    arr = rs.implicit_constant(r, h)
    assert np.isnan(arr.c_effective[:-1]).all()
    assert np.isnan(arr.c1[:-1].real).all() and np.isnan(arr.c1[:-1].imag).all()
    assert arr.c_effective[-1] == rs.implicit_constant(600.0, 1.0).c_effective


def test_radii_whose_terms_leave_the_float_range_are_refused():
    # z = 50 is in the Bessel range, but 4 + r^2 is not a float; at
    # r = 1e150, z = 5 and (4 + r^2) I0(z) is.
    with pytest.raises(ValueError, match="float range"):
        rs.implicit_constant(1e155, 1e-306)
    inside = rs.implicit_constant(1e150, 1e-298).c_effective
    assert math.isfinite(inside)
    arr = rs.implicit_constant(np.array([1e155, 1e150]),
                               np.array([1e-306, 1e-298]))
    assert np.isnan(arr.c_effective[0]) and arr.c_effective[1] == inside
    assert np.isnan(rs.implicit_residual(-4.9, np.array([1e155]), 1e-306)[0])
    hs = rs.solve_implicit(-4.9, np.array([1e155, 1e156]), (1e-310, 1e-306))
    assert np.isnan(hs).all()


def test_out_of_range_inputs_are_refused_without_a_numpy_warning():
    with pytest.raises(ValueError, match=r"got r0=0\.0$"):
        rs.trace_reduced(0.0, 1e-300, 2.0)  # planar flow at r = 0 before
    # An H bracket whose width overflows scans inf/NaN points: no root.
    hs = rs.solve_implicit(-4.9, np.array([1.0, 2.0]), (0.5, 1.7e308))
    assert np.isnan(hs).all()
    # A radius past the Bessel range is NaN before it is squared.
    assert np.isnan(rs.implicit_constant(np.array([1e300]), 0.5).c_effective)


def test_array_implicit_constant_is_the_float_path_bit_for_bit():
    # The (r, H) points `reduce --start 1,0.7854 --target 200` writes.
    curve = rs.trace_reduced(1.0, 0.7854, 200.0, rel_tol=1e-10)
    assert len(curve.rs) == 275
    arr = rs.implicit_constant(curve.rs, curve.hs)
    # Every point is in the float path's domain, the two on the H = 1 fold
    # (which reduce leaves blank) too; refused points are NaN by the guards
    # test above.
    for k, (r, h) in enumerate(zip(curve.rs.tolist(), curve.hs.tolist())):
        one = rs.implicit_constant(r, h)
        assert arr.c_effective[k].tobytes() == np.float64(
            one.c_effective).tobytes()
        assert arr.c1[k] == one.c1


def test_implicit_residual_zero_at_own_constant():
    for (r, h) in FROZEN_C:
        ic = rs.implicit_constant(r, h)
        assert rs.implicit_residual(ic.c_effective, r, h) <= 1e-15
        assert rs.implicit_residual(ic.c_effective * (1.0 + 1e-6), r, h) > 1e-8


def test_residual_scaling_keeps_the_bits_of_small_constants():
    # Terms are divided by max(1, |C|): by 1 for |C| <= 1, so bit for bit
    # the unscaled ratio; a larger C gives the same ratio to round-off.
    r, h = np.array([1.5, 3.0, 9.0]), np.array([0.3, 0.7, 0.9])
    a, b, q = rs._bessel_terms(r, h)
    for c in (-0.9, 0.0, 1.0, -1.0):
        plain = relative_to_terms([c * a * q.i0, -c * b * q.i1, a * q.k0,
                                   b * q.k1])
        assert rs.implicit_residual(c, r, h).tobytes() == plain.tobytes()
    c = -4.931436008177052
    plain = relative_to_terms([c * a * q.i0, -c * b * q.i1, a * q.k0,
                               b * q.k1])
    np.testing.assert_allclose(rs.implicit_residual(c, r, h), plain,
                               rtol=1e-12)


def test_the_chain_reduce_curve_keeps_its_bits():
    # The curve `reduce --start 1,0.7854 --target 200` writes: SHA-256 of
    # its rs, hs and psis bytes.  A change to the integrator's event
    # location moves it here before it moves the benchmark's reduce rows.
    # The 3 crossings and 6 segments include the known double count of one
    # fold (a second, 2.5e-13 planar segment after a "fold-cleared" stop a
    # hair short); ROADMAP item 1 fixes it together with
    # bench/reference/reduce.json, and then these read 2 and 5.
    curve = rs.trace_reduced(1.0, 0.7854, 200.0)
    got = hashlib.sha256(curve.rs.tobytes() + curve.hs.tobytes()
                         + curve.psis.tobytes()).hexdigest()
    assert got == ("49013076ef187bb407285bfaa96f99f3"
                   "fa7a8f27b8fa7f5c8b10aa5e762ab726")
    assert curve.reached and len(curve.rs) == 439
    assert curve.turning_crossings == 3 and len(curve.segments) == 6


def test_constant_is_conserved_along_traced_curve():
    traj = rs.trace_h(1.0, 0.5, 4.0)
    assert traj.stop_reason == "reached_end"
    r_grid = np.linspace(1.0, 4.0, 25)
    vals = [rs.implicit_constant(float(r), float(traj.sample(float(r))[0]))
            .c_effective for r in r_grid]
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    print(f"continued-form spread {spread:.3e}")
    assert spread <= 1e-8


def test_select_effective_form_measures_and_chooses():
    curves = ((1.0, 0.5, 4.0), (3.0, 0.2, 6.0), (5.0, 0.8, 5.6))
    sel = rs.select_effective_form(curves)
    assert sel.chosen == "continued"
    # The continued form holds to round-off on every curve; the naive one
    # (K1 entering with a minus sign) drifts by O(1e-1..1).
    assert all(s <= 1e-8 for s in sel.spreads["continued"])
    np.testing.assert_allclose(sel.spreads["naive"], [0.44, 2.27, 0.091],
                               rtol=1e-2)
    # The continued spreads are those of the scalar constants, bit for bit.
    for (r0, h0, r1), spread in zip(curves, sel.spreads["continued"]):
        traj = rs.trace_h(r0, h0, r1)
        r_grid = np.linspace(r0, traj.t_end, 24)
        h_grid = traj.sample(r_grid)[:, 0]
        vals = np.array([rs.implicit_constant(r, h).c_effective for r, h in
                         zip(r_grid.tolist(), h_grid.tolist())])
        assert spread == (vals.max() - vals.min()) / abs(vals.mean())


def test_solve_implicit_roundtrip_and_input_forms():
    for (r, h) in ((1.0, 0.5), (3.0, 0.2), (1.2, 0.7)):
        c = rs.implicit_constant(r, h).c_effective
        bracket = (max(0.01, h - 0.12), min(0.999, h + 0.12))
        np.testing.assert_allclose(rs.solve_implicit(c, r, bracket), h,
                                   atol=1e-10)


def test_solve_implicit_reports_tangency_at_turning_locus():
    # At r = 2 the locus sits at H = 0.25; the level curve through that
    # point touches without crossing, so no bracket in H can work.
    c = rs.implicit_constant(2.0, 0.25).c_effective
    with pytest.raises(ValueError, match="tangent"):
        rs.solve_implicit(c, 2.0, (0.1, 0.45))


def test_solve_implicit_warns_on_multiple_roots():
    # Below the fold value the level curve cuts twice at the same r.
    c = rs.implicit_constant(2.0, 0.2).c_effective
    with pytest.warns(UserWarning, match="roots"):
        root = rs.solve_implicit(c, 2.0, (0.1, 0.45))
    # Nearest the bracket midpoint: the upper intersection.
    np.testing.assert_allclose(root, 0.3035981138271814, atol=1e-9)
    assert rs.implicit_residual(c, 2.0, root) <= 1e-9


def test_solve_implicit_rejects_empty_bracket():
    with pytest.raises(ValueError, match="bracket"):
        rs.solve_implicit(-3.0, 2.0, (0.5, 0.5))


# The two seed-0 benchmark sweeps (start, r range, bracket), and one whose
# bracket misses the curve at most radii and cuts it twice at some.
SWEEPS = {
    "series": ((1.0, 0.5), (1.0, 4.0), (0.3, 0.95)),
    "cf": ((10.0, 0.5), (8.5, 20.0), (0.05, 0.99)),
    "gaps": ((2.0, 0.2), (0.5, 12.0), (0.01, 0.99)),
}


@pytest.mark.parametrize("sweep", list(SWEEPS))
def test_array_solve_matches_scalar_solves(sweep):
    start, (r_lo, r_hi), bracket = SWEEPS[sweep]
    c = rs.implicit_constant(*start).c_effective
    radii = np.linspace(r_lo, r_hi, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = rs.solve_implicit(c, radii, bracket)
        singles = []
        for r in radii.tolist():
            try:
                singles.append(rs.solve_implicit(c, r, bracket))
            except ValueError:
                singles.append(math.nan)
    singles = np.array(singles)
    assert np.array_equal(batch, singles, equal_nan=True)
    assert np.isnan(batch).any() == (sweep == "gaps")


def _recording_solver(monkeypatch):
    """Record each call of solve_implicit's evaluator: its (rows, h), its
    values and the Bessel calls it made (an array's size, None for a
    float); returns the records and the list of all Bessel calls."""
    quad, roots_fn = rs.bessel_quad, rs.bracketed_roots
    bessel, evals = [], []

    def counting_quad(z):
        bessel.append(z.size if isinstance(z, np.ndarray) else None)
        return quad(z)

    def recording_roots(fn, *args):
        def recorded(rows, h):
            before = len(bessel)
            values = fn(rows, h)
            evals.append((rows, h, fn, values, bessel[before:]))
            return values

        return roots_fn(recorded, *args)

    monkeypatch.setattr(rs, "bessel_quad", counting_quad)
    monkeypatch.setattr(rs, "bracketed_roots", recording_roots)
    return evals, bessel


def test_array_solve_scans_in_one_bessel_call(monkeypatch):
    # One array call covers every radius' scan; then all roots are refined
    # together, each round one evaluation of the live brackets: one array
    # Bessel call while at least 32 are live, float calls below that.
    evals, _ = _recording_solver(monkeypatch)
    start, (r_lo, r_hi), bracket = SWEEPS["cf"]
    c = rs.implicit_constant(*start).c_effective
    evals.clear()
    hs = rs.solve_implicit(c, np.linspace(r_lo, r_hi, 100), bracket)
    assert np.count_nonzero(np.isfinite(hs)) == 100
    (_, h, _, _, scan_bessel), *rounds = evals
    assert h.size == 100 * 65 and scan_bessel == [100 * 65]
    assert 1 <= len(rounds) <= 12
    for _, h, _, _, bessel in rounds:
        assert bessel == ([h.size] if h.size >= 32 else [None] * h.size)
    # Each root is live in at most every round: <= 12 evaluations apiece.
    assert rounds[0][1].size == 100
    assert sum(h.size for _, h, _, _, _ in rounds) <= 12 * 100


def test_array_scan_holds_the_refiner_values_at_the_scan_points(monkeypatch):
    # The scan's array values are, bit for bit, what the float path gives
    # at each scan point (one point at a time goes the float path).
    evals, bessel = _recording_solver(monkeypatch)
    start, (r_lo, r_hi), _ = SWEEPS["gaps"]
    c = rs.implicit_constant(*start).c_effective
    # H > 1 and r < 0 are refused points: NaN on both paths.
    radii = np.append(np.linspace(r_lo, r_hi, 11), -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rs.solve_implicit(c, radii, (0.01, 1.2))
    rows, h, fn, values, scan_bessel = evals[0]
    assert h.size == 12 * 65 and scan_bessel == [12 * 65]
    before = len(bessel)
    direct = [fn(rows[j:j + 1], h[j:j + 1])[0] for j in range(h.size)]
    # Float calls only (a refused point raises before it reaches one).
    assert set(bessel[before:]) == {None}
    assert np.array_equal(values, direct, equal_nan=True)
    assert np.isnan(values).any()


def test_array_solve_warns_once_for_rows_with_several_roots():
    c = rs.implicit_constant(2.0, 0.2).c_effective
    with pytest.warns(UserWarning, match="1 of 2 radii have several roots"):
        hs = rs.solve_implicit(c, np.array([2.0, 1.0]), (0.1, 0.45))
    np.testing.assert_allclose(hs[0], 0.3035981138271814, atol=1e-9)
    assert np.isnan(hs[1])
    with pytest.raises(ValueError, match="1-d"):
        rs.solve_implicit(c, np.ones((2, 2)), (0.1, 0.45))


# Per-row (c_effective, r, lo, hi): two curves, a row whose bracket
# misses its curve and a row whose bracket cuts its curve twice.
PER_ROW = [
    (rs.implicit_constant(1.0, 0.5).c_effective, 1.3, 0.6, 0.85),
    (rs.implicit_constant(1.2, 0.7).c_effective, 1.1, 0.55, 0.75),
    (rs.implicit_constant(1.0, 0.5).c_effective, 1.3, 0.05, 0.4),
    (rs.implicit_constant(2.0, 0.2).c_effective, 2.0, 0.1, 0.45),
]


@pytest.mark.parametrize("n_scan", [64, 3])  # array and float scans
def test_per_row_targets_and_brackets_are_each_rows_scalar_solve(n_scan):
    # The scan of 3 steps evaluates 4 x 4 points one by one, that of 64
    # steps 4 x 65 points as one array.
    assert 4 * (3 + 1) < rs._ARRAY_MIN_POINTS <= 4 * (64 + 1)
    c, r, lo, hi = (np.array(col) for col in zip(*PER_ROW))
    with pytest.warns(UserWarning, match="1 of 4 radii have several roots"):
        batch = rs.solve_implicit(c, r, (lo, hi), n_scan=n_scan)
    singles = []
    for row in PER_ROW:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                singles.append(rs.solve_implicit(row[0], row[1], row[2:],
                                                 n_scan=n_scan))
            except ValueError:
                singles.append(math.nan)
        assert len(caught) == (row is PER_ROW[3])
    assert np.array_equal(batch, singles, equal_nan=True)
    assert np.isnan(batch).tolist() == [False, False, True, False]
    # A float end broadcasts like an array of it.
    same = rs.solve_implicit(c[:2], r[:2], (lo[:2], 0.9), n_scan=n_scan)
    assert np.array_equal(same, [rs.solve_implicit(c_k, r_k, (lo_k, 0.9),
                                                   n_scan=n_scan)
                                 for c_k, r_k, lo_k in zip(c[:2], r[:2],
                                                           lo[:2])])


def test_per_row_inputs_are_checked():
    c, r = np.array([-4.9, -2.0]), np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="empty bracket"):
        rs.solve_implicit(c, r, (np.array([0.1, 0.5]), np.array([0.4, 0.5])))
    with pytest.raises(ValueError, match="empty bracket"):
        rs.solve_implicit(-4.9, r, (np.array([0.1, math.nan]), 0.9))
    with pytest.raises(ValueError, match="broadcast"):
        rs.solve_implicit(np.array([-4.9, -2.0, -1.0]), r, (0.1, 0.9))
    with pytest.raises(ValueError, match="broadcast"):
        rs.solve_implicit(c, r, (np.array([0.1, 0.2, 0.3]), 0.9))
    with pytest.raises(ValueError, match="1-d"):
        rs.solve_implicit(np.ones((2, 2)), r, (0.1, 0.9))
    with pytest.raises(ValueError, match="1-d"):
        rs.solve_implicit(c, r, (0.1, np.ones((1, 2))))


def test_implicit_residual_on_arrays_matches_scalars():
    radii = np.array([1.0, 2.5, 4.0, -1.0])
    hs = np.array([0.5, 0.7, 0.2, 0.5])
    c = FROZEN_C[(1.0, 0.5)]
    got = rs.implicit_residual(c, radii, hs)
    want = [rs.implicit_residual(c, r, h) for r, h in zip(radii[:3], hs[:3])]
    assert got[:3].tolist() == want
    assert np.isnan(got[3])


def test_substitution_check_on_tightly_sampled_solution():
    # Implicitly solved H at radius triples; FD truncation stays below
    # the acceptance tolerance because the triples are tight.
    delta = 1e-4
    residuals = []
    for r0, h0 in ((1.2, 0.7), (2.5, 0.55)):
        c = rs.implicit_constant(r0, h0).c_effective
        for r in np.linspace(0.92 * r0, 1.08 * r0, 5):
            bracket = (max(0.01, h0 - 0.12), min(0.9999, h0 + 0.12))
            hs = [rs.solve_implicit(c, float(rc), bracket, n_scan=8)
                  for rc in (r - delta, r, r + delta)]
            psis = np.arcsin(np.sqrt(hs))
            residuals.append(rs.substitution_check(
                np.array([r - delta, r, r + delta]), psis))
    print(f"substitution residual {max(residuals):.3e}")
    assert all(map(math.isfinite, residuals))
    assert max(residuals) <= 1e-6


@pytest.mark.parametrize("radii, psis", [
    ([1.0, 1.1, 1.2], [math.nan] * 3),
    ([1.0, 1.1, 1.2], [0.8, math.nan, 0.9]),
    ([1.0, 1.1, 1.2, 1.3], [0.8, 0.85, 0.9, math.nan]),
], ids=["all-nan", "tested-point-nan", "end-point-nan"])
def test_substitution_check_is_nan_where_a_tested_point_is(radii, psis):
    # Each returned 0.0 or the finite points' worst: max dropped the NaN.
    assert math.isnan(rs.substitution_check(radii, psis))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _near_a_curve(r0, h0, ratio, *ends):
    """(c_effective, r, *ends): the constant of the curve through (r0, h0)
    at a radius near r0."""
    return (rs.implicit_constant(r0, h0).c_effective, r0 * ratio, *ends)


# (c_effective, r, bracket end, bracket end)
_SOLVE_ROW = st.builds(_near_a_curve, st.floats(0.05, 12.0),
                       st.floats(0.01, 1.0), st.floats(0.8, 1.25),
                       st.floats(0.0, 1.0), st.floats(0.0, 1.0)) | st.tuples(
    _FINITE, _FINITE, _FINITE, _FINITE)


@settings(max_examples=60, deadline=5000)
@given(rows=st.lists(_SOLVE_ROW, min_size=1, max_size=40),
       n_scan=st.sampled_from([2, 8, 64]))
# A bracket whose width overflows, refused as holding no root.
@example(rows=[(0.0, 0.0, 1.7976931348623157e308, -9.9792015476736e291)],
         n_scan=2)
def test_an_array_solve_is_each_rows_float_solve(rows, n_scan):
    rows = [(c, r, *sorted(ends)) for c, r, *ends in rows]
    assume(all(lo < hi for *_, lo, hi in rows))
    singles = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        for c, r, lo, hi in rows:
            try:
                singles.append(rs.solve_implicit(c, r, (lo, hi), n_scan))
            except ValueError:
                singles.append(math.nan)
        several = len(caught)
        caught.clear()
        c, r, lo, hi = (np.array(col) for col in zip(*rows))
        batch = rs.solve_implicit(c, r, (lo, hi), n_scan)
    assert np.array_equal(batch, singles, equal_nan=True)
    # One warning counts the rows whose float solve warned.
    assert len(caught) == (several > 0)
    assert all(str(w.message).startswith(f"{several} of {len(rows)} radii")
               for w in caught)


_RADIUS = st.floats(min_value=0.0, max_value=rs._R_MAX, exclude_min=True)


@settings(max_examples=200, deadline=5000)
@given(points=st.lists(st.tuples(_RADIUS | st.floats(0.5, 8.0),
                                 _FINITE | st.floats(0.0, math.pi)),
                       min_size=3, max_size=8, unique_by=lambda p: p[0]))
@example(points=[(5e-324, 0.1), (1e-323, 0.5), (1.0, 1.0)])  # dH/dr = inf
def test_substitution_check_is_nan_only_where_terms_are_not_finite(points):
    radii, psis = (list(col) for col in zip(*points))
    tested = []
    terms_of = rs.h_residual_terms

    def recorded(*args):
        tested.append(terms_of(*args))
        return tested[-1]

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
        warnings.simplefilter("error")
        mp.setattr(rs, "h_residual_terms", recorded)
        try:
            worst = rs.substitution_check(radii, psis)
        except ValueError as exc:
            assert "got r=" in str(exc)
            return
    assert type(worst) is float
    assert math.isnan(worst) == any(not math.isfinite(t)
                                    for terms in tested for t in terms)


def test_substitution_check_input_validation():
    with pytest.raises(ValueError):
        rs.substitution_check([1.0, 2.0], [0.3, 0.4])
    with pytest.raises(ValueError):
        rs.substitution_check([1.0, 2.0, 3.0], [0.3, 0.4])
    # Radii the slopes refuse; those of 1e186 overflowed numpy scalars
    # with a RuntimeWarning.
    first = math.nextafter(rs._R_MAX, math.inf)
    for radii, bad in (([1.2e186, 1.3e186, 1.4e186], 1.2e186),
                       ([1.0, 2.0, -3.0], -3.0), ([1.0, first, 3.0], first)):
        with pytest.raises(ValueError, match=re.escape(f"got r={bad!r}")):
            rs.substitution_check(radii, [0.5] * 3)
    # Repeated radii leave the central difference nothing to divide by.
    for radii in ([1.0, 1.0, 1.0], [1.0, 2.0, 2.0]):
        with pytest.raises(ValueError, match=re.escape(f"got r={radii!r}")):
            rs.substitution_check(radii, [0.5] * 3)


def test_trace_h_stops_at_turning_guard():
    traj = rs.trace_h(2.0, 0.4, 1.5)
    assert traj.stop_reason == "event"
    assert traj.event == "turning-locus"
    np.testing.assert_allclose(traj.t_end, 1.9207650650284926, atol=1e-6)
    # The guard keeps a margin: the rhs is still evaluable at the stop.
    rs.h_rhs(traj.t_end, float(traj.y_end[0]))


def test_trace_h_stops_at_equator_ceiling():
    traj = rs.trace_h(1.0, 0.98, 0.5)
    assert traj.stop_reason == "event"
    assert traj.event == "h-ceiling"
    np.testing.assert_allclose(traj.y_end[0], 1.0, atol=1e-9)
    np.testing.assert_allclose(traj.t_end, 0.9307, atol=1e-3)


@pytest.mark.parametrize("r0, h0, r1", [
    (1.0, 2.0, 3.0), (1.0, -0.5, 3.0), (9.7e-46, -2.2e230, 9.7e-46),
    (1.0, math.nan, 3.0)])
def test_trace_h_refuses_h0_outside_0_1_before_integrating(
        monkeypatch, r0, h0, r1):
    # Each once integrated and then raised "H left [0, 1]".
    monkeypatch.setattr(rs, "integrate", None)
    with pytest.raises(ValueError, match="h0="):
        rs.trace_h(r0, h0, r1)


@pytest.mark.parametrize("r0, r1", [(1e62, 2.0), (1.0, math.inf),
                                    (math.nan, 2.0)])
def test_trace_h_takes_its_radii_through_the_radius_guard(r0, r1):
    with pytest.raises(ValueError, match="need 0 < r <= "):
        rs.trace_h(r0, 0.5, r1)


def test_trace_h_rejects_nonpositive_radii():
    with pytest.raises(ValueError):
        rs.trace_h(-1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        rs.trace_h(1.0, 0.5, 0.0)


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


def test_exhausted_step_budget_ends_the_trace(monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 5)
    traj = rs.trace_h(1.0, 0.5, 4.0)
    assert traj.stop_reason == "max_steps" and traj.t_end < 4.0
    curve = rs.trace_reduced(1.0, math.asin(math.sqrt(0.5)), 6.0)
    assert not curve.reached
    assert curve.stop_note == "max steps in r-parametrization"
    assert len(curve.segments) == 1 and curve.rs.max() < 6.0


def test_trace_reduced_validates_psi0():
    with pytest.raises(ValueError):
        rs.trace_reduced(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        rs.trace_reduced(1.0, math.pi, 2.0)
    for r0, r_target, name in ((math.nan, 2.0, "r0=nan"),
                               (1.0, math.inf, "r_target=inf")):
        with pytest.raises(ValueError, match=f"got {name}$"):
            rs.trace_reduced(r0, 0.5, r_target)


@pytest.mark.parametrize("r0, r_target, message", [
    (1.0, 1e62, "need 0 < r <= 1e+61, got r_target=1e+62"),
    (0.0, 2.0, "need 0 < r <= 1e+61, got r0=0.0"),
    (1e62, 2.0, "need 0 < r <= 1e+61, got r0=1e+62"),
    (1.0, -1.0, "need 0 < r <= 1e+61, got r_target=-1.0"),
], ids=["far-target", "zero-start", "far-start", "negative-target"])
def test_trace_reduced_checks_its_radii_as_trace_h_does(r0, r_target,
                                                        message):
    with pytest.raises(ValueError) as exc:
        rs.trace_reduced(r0, 0.7854, r_target)
    assert str(exc.value) == message
