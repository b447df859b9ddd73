"""Check battery orchestration: naming, scaling, result schema."""

import dataclasses
import inspect
import math
import random
import warnings
from itertools import islice

import numpy as np
import pytest

from hopf_flow import (checks, fields, first_integral, reduced_system,
                       special_functions)
from hopf_flow.diagnostics import summarize
from hopf_flow.dual import Dual, atan

# Every check's verdict; the four documented discrepancies are the
# allowlisted relations that do not hold as printed.
BATTERY_VERDICTS = {
    "unit-norm": "pass",
    "rate-identities": "pass",
    "pushforward-sign": "pass",
    "pushforward-trajectories": "pass",
    "bessel-wronskian": "pass",
    "implicit-constant": "pass",
    "implicit-inversion": "pass",
    "reduced-substitution": "pass",
    "turning-slope": "pass",
    "legendre-identity": "pass",
    "linear-pde-parametric": "pass",
    "linear-pde-direct": "documented-discrepancy",
    "parametric-relation-xi": "pass",
    "parametric-relation-v": "documented-discrepancy",
    "h-pde-xi": "pass",
    "h-pde-v": "documented-discrepancy",
    "phi-flow-derivative": "documented-discrepancy",
    "gauge-invariance": "pass",
    "dual-vs-fd": "pass",
    "branch-continuity": "pass",
    "xi-substitution": "pass",
    "integrator-order": "pass",
}


def test_check_names_are_unique_and_stable():
    names = [c.name for c in checks.CHECKS]
    assert len(names) == len(set(names))
    assert "unit-norm" in names
    assert checks.ALLOWED_DISCREPANCIES <= set(names)


def test_run_battery_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown"):
        checks.run_battery(only=["no-such-check"])


@pytest.mark.parametrize("tol_scale", [0.0, -1.0, math.nan, math.inf])
def test_run_battery_refuses_a_tolerance_scale_not_finite_and_positive(
        tol_scale):
    with pytest.raises(ValueError,
                       match="tolerance scale must be finite and positive"):
        checks.run_battery(tol_scale=tol_scale)


def test_run_battery_single_check_document():
    doc = checks.run_battery(only=["legendre-identity"])
    assert doc["schema"] == "hopf-flow-verify/1"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 1
    rpt = doc["checks"][0]
    assert rpt["name"] == "legendre-identity"
    assert rpt["verdict"] == "pass"
    assert rpt["max_abs"] <= rpt["tolerance"]


def test_tol_scale_multiplies_every_tolerance():
    base = checks.run_battery(only=["turning-slope"])
    loose = checks.run_battery(only=["turning-slope"], tol_scale=100.0)
    assert loose["checks"][0]["tolerance"] == 100.0 * base["checks"][0]["tolerance"]
    assert loose["tol_scale"] == 100.0
    tight = checks.run_battery(only=["turning-slope"], tol_scale=1e-10)
    assert tight["checks"][0]["verdict"] == "fail"
    assert tight["passed"] is False


def test_documented_discrepancy_does_not_fail_battery():
    doc = checks.run_battery(only=["linear-pde-direct"])
    assert doc["checks"][0]["verdict"] == "documented-discrepancy"
    assert doc["passed"] is True
    assert "linear-pde-direct" in doc["allowed_discrepancies"]


def test_implicit_inversion_fails_on_a_planted_wrong_root(monkeypatch):
    rpt = checks.run_battery(only=["implicit-inversion"])["checks"][0]
    assert rpt["verdict"] == "pass"
    # Off-centre brackets keep the scan off the root, so the refiner runs
    # and the residual is measured rather than exactly 0.
    assert 0.0 < rpt["max_abs"] <= rpt["tolerance"]
    solve = reduced_system.solve_implicit
    monkeypatch.setattr(reduced_system, "solve_implicit",
                        lambda *args, **kw: solve(*args, **kw) * (1.0 + 1e-6))
    rpt = checks.run_battery(only=["implicit-inversion"])["checks"][0]
    assert rpt["verdict"] == "fail"


def test_implicit_constant_fails_when_conservation_breaks(monkeypatch):
    # A 1e-4 fault in dH/dr moves the traced curves off the level sets:
    # neither form is conserved, and the check says so with a verdict.
    rhs = reduced_system._dh_dr
    monkeypatch.setattr(reduced_system, "_dh_dr",
                        lambda r, y: (rhs(r, y)[0] * (1.0 + 1e-4),))
    rpt = checks.run_battery(only=["implicit-constant"])["checks"][0]
    assert rpt["verdict"] == "fail"
    assert rpt["max_abs"] > 1e-5
    assert rpt["details"]["form"] is None


def test_whole_battery_keeps_every_verdict():
    doc = checks.run_battery()
    assert ([(c["name"], c["verdict"]) for c in doc["checks"]]
            == list(BATTERY_VERDICTS.items()))
    assert doc["passed"] is True
    # The checks that evaluate on tables measure a residual, never a
    # structural 0.
    on_tables = {"legendre-identity", "linear-pde-parametric",
                 "parametric-relation-xi", "h-pde-xi", "gauge-invariance",
                 "dual-vs-fd"}
    assert all(c["max_abs"] > 0.0 for c in doc["checks"]
               if c["name"] in on_tables)


def test_run_battery_records_each_checks_warnings():
    # Two of the twelve H-equation brackets hold two parameter roots.
    names = ["turning-slope", "h-pde-xi", "h-pde-v", "phi-flow-derivative"]
    doc = checks.run_battery(only=names)
    warned = {c["name"]: c["details"]["warnings"] for c in doc["checks"]}
    assert warned.pop("turning-slope") == []
    for name, messages in warned.items():
        assert len(messages) == 2, name
        assert all("2 parameter roots" in m for m in messages), name


def test_h_pde_states_are_reached_by_refinement_not_the_scan():
    # A scan node at xi0 is an exact zero of v - r, returned without
    # refinement: then xi* == xi0 tests nothing of the inversion.
    r, psi, (lo, hi) = checks._h_pde_states()
    xi0 = checks._H_PDE_POINTS[:, 0]
    n = inspect.signature(first_integral.reconstruct_H).parameters[
        "n_scan"].default
    nodes = lo[:, None] + (hi - lo)[:, None] * np.arange(n + 1) / n
    assert not (nodes == xi0[:, None]).any()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recon = first_integral.reconstruct_H(r, psi, bracket=(lo, hi))
    assert np.all(np.abs(recon.xi_star - xi0) <= 1e-10)


def test_the_h_pde_xi_zero_is_a_measured_cancellation(monkeypatch):
    # At (xi0, psi) = (0.2, 1.1) the refined xi* is xi0 itself, and the
    # residual's four terms (6.4811..., -12.8171..., -0.064 and 6.4)
    # cancel exactly in floating point: the entry's 0.0 is measured, not
    # the zero of terms that all vanish.
    seen = []
    relative = first_integral.relative_to_terms

    def recorded(terms):
        seen.append(terms)
        return relative(terms)

    monkeypatch.setattr(first_integral, "relative_to_terms", recorded)
    r, psi, bracket = checks._h_pde_states()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recon = first_integral.reconstruct_H(r, psi, bracket=bracket)
    residual = recon.h_pde_residual("xi")
    assert checks._H_PDE_POINTS[0].tolist() == [0.2, 1.1]
    assert recon.xi_star[0] == 0.2 and residual[0] == 0.0
    (terms,) = seen
    first = [abs(np.broadcast_to(t, residual.shape)[0]) for t in terms]
    assert len(first) == 4 and max(first) > 1.0


# legendre-identity moves by the relative fault itself; h-pde-xi by ~3.4
# times it, so a 1e-6 fault lands ~6.5 decades above its 1e-12 tolerance.
@pytest.mark.parametrize("name, fault", [("legendre-identity", 1e-9),
                                         ("h-pde-xi", 1e-6)])
def test_table_checks_fail_on_a_planted_u_xi_fault(monkeypatch, name, fault):
    rpt = checks.run_battery(only=[name])["checks"][0]
    assert rpt["verdict"] == "pass"
    assert 0.0 < rpt["max_abs"] <= rpt["tolerance"]
    table = first_integral.uv_table

    def faulty(*args, **kw):
        uv = table(*args, **kw)
        return dataclasses.replace(uv, u_xi=uv.u_xi * (1.0 + fault))

    monkeypatch.setattr(first_integral, "uv_table", faulty)
    rpt = checks.run_battery(only=[name])["checks"][0]
    assert rpt["verdict"] == "fail"


def test_each_check_alone_reports_what_the_battery_does():
    # Shared intermediates change where a value is computed, not what a
    # check reports: run alone, each check gives its entry of the whole
    # battery, warnings included.
    whole = checks.run_battery()["checks"]
    for name, entry in zip(checks.CHECK_NAMES, whole):
        assert checks.run_battery(only=[name])["checks"][0] == entry, name


def test_a_check_called_directly_computes_what_it_reads():
    # Outside run_battery nothing is shared, and the report is the same.
    by_name = {c.name: c for c in checks.CHECKS}
    for entry in checks.run_battery(only=["h-pde-v", "parametric-relation-v",
                                          "linear-pde-direct"])["checks"]:
        c = by_name[entry["name"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            residuals, details = c.fn()
        details["warnings"] = [str(w.message) for w in caught]
        assert summarize(c.name, residuals, c.tol, c.documented,
                         details) == entry, c.name


def _count_calls(monkeypatch, name):
    """Record the point count of every call of first_integral.<name>."""
    sizes = []
    fn = getattr(first_integral, name)

    def counted(*args, **kw):
        sizes.append(int(np.size(args[0])))
        return fn(*args, **kw)

    monkeypatch.setattr(first_integral, name, counted)
    return sizes


def test_shared_intermediates_are_computed_once_per_battery_run(monkeypatch):
    rebuilt = {name: _count_calls(monkeypatch, name)
               for name in ("reconstruct_H", "uv_table", "rho_table")}
    for run in (1, 2):
        doc = checks.run_battery()
        assert doc["passed"] is True
        # Each run computes its own: nothing carries over between calls.
        assert rebuilt["reconstruct_H"] == [12] * run
        assert rebuilt["uv_table"].count(100) == run  # the 10x10 grid
        assert rebuilt["rho_table"].count(400) == run  # the 20x20 grid
        # The twelve H-equation states come from one rho_table call.
        assert rebuilt["rho_table"].count(12) == run
    assert checks._RUN_SHARED.get() is None


def test_a_shared_computation_that_raises_leaves_nothing_behind(monkeypatch):
    names = ["h-pde-xi", "h-pde-v", "phi-flow-derivative"]
    clean = checks.run_battery(only=names)
    reconstruct = first_integral.reconstruct_H

    def broken(*args, **kw):
        raise ArithmeticError("planted")

    monkeypatch.setattr(first_integral, "reconstruct_H", broken)
    with pytest.raises(ArithmeticError, match="planted"):
        checks.run_battery(only=names)
    assert checks._RUN_SHARED.get() is None
    monkeypatch.setattr(first_integral, "reconstruct_H", reconstruct)
    assert checks.run_battery(only=names) == clean


def _spy_solve_implicit(monkeypatch):
    """Record the H that every solve_implicit call returns."""
    calls = []
    solve = reduced_system.solve_implicit

    def spied(*args, **kw):
        calls.append(solve(*args, **kw))
        return calls[-1]

    monkeypatch.setattr(reduced_system, "solve_implicit", spied)
    return calls


def test_reduced_substitution_gives_a_per_triple_loops_residuals(
        monkeypatch):
    # One float solve per radius, each bracket centred on the tangent of
    # its curve at the anchor, as the one call's rows are.
    calls = _spy_solve_implicit(monkeypatch)
    residuals, details = checks._check_reduced_substitution()
    assert details == {"curves": 3, "delta": 1e-4}
    (hs,) = calls
    assert hs.shape == (81,) and np.isfinite(hs).all()
    delta = 1e-4
    loop = []
    for r0, h0 in ((1.2, 0.7), (2.5, 0.55), (4.0, 0.65)):
        c1 = reduced_system.implicit_constant(r0, h0).c_effective
        slope = reduced_system.h_rhs(r0, h0)
        for r in np.linspace(0.9 * r0, 1.1 * r0, 9).tolist():
            h_mid = h0 + slope * (r - r0)
            bracket = (max(0.01, h_mid - 0.12), min(0.9999, h_mid + 0.12))
            triple = [r - delta, r, r + delta]
            h = [reduced_system.solve_implicit(c1, rc, bracket, n_scan=8)
                 for rc in triple]
            loop.append(reduced_system.substitution_check(
                triple, np.arcsin(np.sqrt(h))))
    assert residuals.tolist() == loop
    assert len(residuals) == 27 and 0.0 < max(residuals) <= 1e-6


def test_battery_solves_the_implicit_relation_in_two_calls(monkeypatch):
    # implicit-inversion's three points, then reduced-substitution's 27
    # radius triples, one call each.
    calls = _spy_solve_implicit(monkeypatch)
    doc = checks.run_battery()
    assert doc["passed"] is True
    assert [h.size for h in calls] == [3, 81]
    assert all(np.isfinite(h).all() for h in calls)
    (entry,) = [c for c in doc["checks"]
                if c["name"] == "reduced-substitution"]
    assert entry["details"]["warnings"] == []


def test_reduced_substitution_fails_on_a_root_it_did_not_find(monkeypatch):
    # One radius of one triple without a root (NaN, as solve_implicit
    # gives a row it finds none in) is a NaN residual, not a pass.
    solve = reduced_system.solve_implicit

    def missed(*args, **kw):
        hs = solve(*args, **kw).copy()
        hs[-1] = math.nan
        return hs

    monkeypatch.setattr(reduced_system, "solve_implicit", missed)
    rpt = checks.run_battery(only=["reduced-substitution"])["checks"][0]
    assert rpt["verdict"] == "fail"
    assert rpt["details"]["non_finite"] == 1


def test_reduced_substitution_fails_on_a_planted_h_fault(monkeypatch):
    # H off its level curve by a relative 1e-3 r no longer solves dH/dr.
    solve = reduced_system.solve_implicit
    monkeypatch.setattr(reduced_system, "solve_implicit",
                        lambda c, r, *args, **kw:
                        solve(c, r, *args, **kw) * (1.0 + 1e-3 * r))
    rpt = checks.run_battery(only=["reduced-substitution"])["checks"][0]
    assert rpt["verdict"] == "fail"


def test_integrator_order_reports_a_measured_margin():
    rpt = checks.run_battery(only=["integrator-order"])["checks"][0]
    assert rpt["verdict"] == "pass"
    # 2^(3.5 - slope) at the DOP853 slope of ~10.
    slope = rpt["details"]["slope"]
    assert slope > 8.0
    assert rpt["max_abs"] == 2.0 ** (3.5 - slope) > 0.0


@pytest.mark.parametrize("slope, verdict", [
    (3.5, "pass"), (float(np.nextafter(3.5, 0.0)), "fail"), (3.0, "fail"),
    (-500.0, "fail"), (math.nan, "fail")])
def test_integrator_order_fails_below_slope_3_5(monkeypatch, slope, verdict):
    monkeypatch.setattr(checks, "_fit_slope", lambda *args: slope)
    rpt = checks.run_battery(only=["integrator-order"])["checks"][0]
    assert rpt["verdict"] == verdict


def test_fit_slope_is_polyfits_slope_on_the_batterys_points():
    details = checks.run_battery(only=["integrator-order"])["checks"][0][
        "details"]
    xs, ys = np.log(details["steps"]), np.log(details["errors"])
    assert len(xs) == 4
    want = np.polyfit(xs, ys, 1)[0]
    assert abs(checks._fit_slope(xs.tolist(), ys.tolist()) - want) <= 1e-12
    assert math.isnan(checks._fit_slope([1.0, 1.0], [2.0, 3.0]))


def test_the_batterys_first_draws_are_pinned(monkeypatch):
    # Each sampled check draws from a random.Random stream, which Python
    # keeps from version to version; the first row of each, by seed.
    first = {}
    uniform_rows = checks._uniform_rows

    def recording(seed, *bounds):
        rows = uniform_rows(seed, *bounds)
        row = next(rows)
        first.setdefault(seed, [x.hex() for x in row])
        yield row
        yield from rows

    monkeypatch.setattr(checks, "_uniform_rows", recording)
    checks.run_battery(only=["unit-norm", "rate-identities", "turning-slope",
                             "dual-vs-fd"])
    assert first == {
        314159: ["-0x1.c0e71ad115b65p+1", "-0x1.370a1c5accc78p+1",
                 "-0x1.16980a37297edp+2"],
        271828: ["0x1.7a0b32ced9068p-2", "0x1.e50b8f938c42ap-1",
                 "0x1.a2d7288c9bb86p-1"],
        987654: ["0x1.62749116c0b66p+0", "0x1.3ea2f24bce112p+0"],
        55555: ["0x1.81dffb80338fap-3", "0x1.c845bb127ebd0p-1"]}
    # The first sphere probe is the first cube point in the unit ball,
    # scaled to radius 2.
    assert [x.hex() for x in next(checks._sphere_points(271828, 2.0))] == [
        "-0x1.f291d2953e508p-2", "0x1.c970aaf71c031p+0",
        "0x1.828ee8af4badfp-1"]
    assert [x.hex() for x in fields.default_probes()[0]] == [
        "-0x1.5e03d905ebdc0p-4", "0x1.268107bc9c150p-2",
        "0x1.e96b304bf09b0p-1"]


def test_uniform_rows_are_the_streams_draws_in_order():
    # Row by row, each bound takes the stream's next draw.
    bounds = [(-5.7, 5.7), (0.15, 0.7), (0.5, 2.6)]
    rng = random.Random(271828)
    want = [tuple(lo + (hi - lo) * rng.random() for lo, hi in bounds)
            for _ in range(4)]
    got = list(islice(checks._uniform_rows(271828, *bounds), 4))
    assert [[x.hex() for x in row] for row in got] == [
        [x.hex() for x in row] for row in want]


def test_integrator_order_fails_on_a_planted_third_order_error(monkeypatch):
    # An error of h^3 on every run but the reference fits a slope of ~3.
    run = checks.integrate

    def third_order(fn, y0, span, rel_tol):
        traj = run(fn, y0, span, rel_tol=rel_tol)
        if rel_tol > 1e-13:
            traj.ys[-1] += (span[1] / traj.naccept) ** 3
        return traj

    monkeypatch.setattr(checks, "integrate", third_order)
    rpt = checks.run_battery(only=["integrator-order"])["checks"][0]
    assert rpt["verdict"] == "fail"
    assert rpt["details"]["slope"] < 3.5


def test_integrator_order_fails_on_a_planted_nan_end_point(monkeypatch):
    # A NaN end point is no exact one: the fit keeps it and fails.
    run = checks.integrate

    def nan_end(fn, y0, span, rel_tol):
        traj = run(fn, y0, span, rel_tol=rel_tol)
        if rel_tol == 1e-8:
            traj.ys[-1, 0] = math.nan
        return traj

    monkeypatch.setattr(checks, "integrate", nan_end)
    rpt = checks.run_battery(only=["integrator-order"])["checks"][0]
    assert rpt["verdict"] == "fail"
    assert len(rpt["details"]["errors"]) == 4
    assert math.isnan(rpt["details"]["slope"])


def test_pushforward_sign_fails_on_a_planted_nan_probe(monkeypatch):
    # One probe's spherical rate NaN, in a component the builtin max
    # would pass over: the report's worst mismatch is NaN.
    field = fields.spherical_ode
    probe = fields.to_spherical(fields.default_probes()[3])

    def one_nan(t, s):
        v = field(t, s)
        return (v[0], math.nan, v[2]) if tuple(s) == tuple(probe) else v

    monkeypatch.setattr(fields, "spherical_ode", one_nan)
    assert math.isnan(fields.pushforward_sign().max_residual)
    rpt = checks.run_battery(only=["pushforward-sign"])["checks"][0]
    assert rpt["verdict"] == "fail"
    assert rpt["details"]["non_finite"] == 1


def test_pushforward_sign_fails_when_the_probes_disagree(monkeypatch):
    # The spherical field negated where phi > 0: each probe still fits one
    # sign, but not the one most probes pick, and shows its mismatch.
    field = fields.spherical_ode

    def flipped(t, s):
        v = field(t, s)
        return tuple(-c for c in v) if s[1] > 0.0 else v

    monkeypatch.setattr(fields, "spherical_ode", flipped)
    rpt = checks.run_battery(only=["pushforward-sign"])["checks"][0]
    assert rpt["verdict"] == "fail"
    assert rpt["max_abs"] > 0.5
    assert rpt["details"]["sigma"] == 0
    assert rpt["details"]["consistent"] is False


def _plant_field_term(monkeypatch, eps):
    # The 4 y term of the Cartesian vx off by a relative eps; integrate
    # calls a wrapped field at every stage.
    field = fields.cartesian_ode

    def faulty(t, p):
        vx, vy, vz = field(t, p)
        x, y, z = p
        return vx + 32.0 * eps * y / (x * x + y * y + z * z + 4.0) ** 2, vy, vz

    monkeypatch.setattr(fields, "cartesian_ode", faulty)


def _plant_rho_term(monkeypatch, eps, gauged_only=False):
    # rho's term -xi log(chi^2 + 1) off by a relative eps (only where a
    # gauge F1 is given, if gauged_only).
    raw = first_integral.rho_raw

    def faulty(xi, psi, c2=1.0, f1=()):
        rho = raw(xi, psi, c2, f1)
        if gauged_only and not f1:
            return rho
        chi = first_integral.half_angle_tan(psi)
        return rho - eps * xi * first_integral.log(chi * chi + 1.0)

    monkeypatch.setattr(first_integral, "rho_raw", faulty)


def _plant_atan_rule(monkeypatch, denominator):
    # The dual atan rule d atan(q) = dq / (1 + q^2) with denominator(q)
    # in place of 1 + q^2, on the outer dual level.
    def faulty(q):
        if not isinstance(q, Dual):
            return atan(q)
        return Dual(atan(q.val), q.eps / denominator(q.val))

    monkeypatch.setattr(first_integral, "atan", faulty)


def _plant_dh_dr_term(monkeypatch, eps):
    # The constant 16 of dH/dr's numerator off by a relative eps.
    rhs = reduced_system._dh_dr

    def faulty(r, y):
        (h,) = y
        rr = r * r
        den = r * (rr * rr + 8.0 * rr - 64.0 * rr * h + 16.0)
        return (rhs(r, y)[0] - 32.0 * eps * h / den,)

    monkeypatch.setattr(reduced_system, "_dh_dr", faulty)


def _plant_sqrt(monkeypatch, eps):
    # xi-substitution's root sqrt(1 - xi^2), its only square root, off by
    # a relative eps.
    sqrt = math.sqrt
    monkeypatch.setattr(math, "sqrt", lambda x: sqrt(x) * (1.0 + eps))


def _plant_chebyshev(monkeypatch, eps):
    # a_0 of the I1 series on (0, 2] off by a relative eps.
    *rest, a0 = special_functions.I1_LOW
    monkeypatch.setattr(special_functions, "I1_LOW",
                        (*rest, a0 * (1.0 + eps)))


# The smallest natural fault in each check's own target, at a size the
# check's tolerance catches with a margin of at least ~3.
_PLANTED_FAULTS = {
    "unit-norm": lambda mp: _plant_field_term(mp, 1e-10),
    "rate-identities": lambda mp: _plant_field_term(mp, 1e-4),
    "pushforward-trajectories": lambda mp: _plant_field_term(mp, 1e-6),
    "bessel-wronskian": lambda mp: _plant_chebyshev(mp, 1e-10),
    "turning-slope": lambda mp: _plant_dh_dr_term(mp, 1e-10),
    "linear-pde-parametric": lambda mp: _plant_rho_term(mp, 1e-10),
    "parametric-relation-xi": lambda mp: _plant_rho_term(mp, 1e-9),
    "gauge-invariance": lambda mp: _plant_rho_term(mp, 1e-10,
                                                   gauged_only=True),
    "dual-vs-fd": lambda mp: _plant_atan_rule(
        mp, lambda q: 1.0 + 1e-5 + q * q),
    # 1 + |q|^2 is 1 + q^2 for real q only: rho_psi jumps where the
    # discriminant's root turns imaginary.
    "branch-continuity": lambda mp: _plant_atan_rule(
        mp, lambda q: 1.0 + abs(q) ** 2),
    "xi-substitution": lambda mp: _plant_sqrt(mp, 1e-10),
}


@pytest.mark.parametrize("name", sorted(_PLANTED_FAULTS))
def test_each_check_fails_on_a_planted_fault(monkeypatch, name):
    _PLANTED_FAULTS[name](monkeypatch)
    rpt = checks.run_battery(only=[name])["checks"][0]
    assert rpt["verdict"] == "fail"
    assert rpt["max_abs"] > 3.0 * rpt["tolerance"]
