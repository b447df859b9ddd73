"""Check battery orchestration: naming, scaling, result schema."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hopf_flow import checks, first_integral, reduced_system
from hopf_flow.diagnostics import summarize

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


# legendre-identity moves by the relative fault itself; h-pde-xi by ~3.4
# times it, so 1e-6 is the smallest decade its 1e-6 tolerance catches.
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
        got = summarize(c.name, residuals, c.tol, c.documented, details)
        assert got.to_dict() == entry, c.name


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


def _serial_substitution_walk():
    """reduced-substitution's residuals from the walk test_A5 makes: one
    radius at a time, outward from each anchor, each bracket centred on
    the nearest radius already solved, one float solve per point."""
    delta = 1e-4
    residuals = []
    for r0, h0 in ((1.2, 0.7), (2.5, 0.55), (4.0, 0.65)):
        c1 = reduced_system.implicit_constant(r0, h0).c_effective
        solved = {}
        radii = np.linspace(0.9 * r0, 1.1 * r0, 9)
        for r in sorted(map(float, radii), key=lambda r: abs(r - r0)):
            near = min(solved, key=lambda s: abs(s - r)) if solved else None
            h_mid = solved[near] if near is not None else h0
            bracket = (max(0.01, h_mid - 0.12), min(0.9999, h_mid + 0.12))
            hs = [reduced_system.solve_implicit(c1, rc, bracket, n_scan=8)
                  for rc in (r - delta, r, r + delta)]
            solved[r] = hs[1]
            residuals.append(reduced_system.substitution_check(
                np.array([r - delta, r, r + delta]), np.arcsin(np.sqrt(hs))))
    return residuals


def test_reduced_substitution_rings_give_the_serial_walks_bits():
    residuals, details = checks._check_reduced_substitution()
    assert details == {"curves": 3, "delta": 1e-4}
    assert list(residuals) == _serial_substitution_walk()
    assert len(residuals) == 27 and 0.0 < max(residuals) <= 1e-6


def test_battery_solves_the_implicit_relation_in_six_calls(monkeypatch):
    # One call per continuation ring of reduced-substitution (the anchors,
    # then 1..4 steps out) and one for implicit-inversion's three points.
    rows = []
    solve = reduced_system.solve_implicit

    def counted(c, r, *args, **kw):
        rows.append(np.size(r))
        return solve(c, r, *args, **kw)

    monkeypatch.setattr(reduced_system, "solve_implicit", counted)
    assert checks.run_battery()["passed"] is True
    assert rows == [3, 9, 18, 18, 18, 18]


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
    monkeypatch.setattr(np, "polyfit", lambda *args: np.array([slope, 0.0]))
    rpt = checks.run_battery(only=["integrator-order"])["checks"][0]
    assert rpt["verdict"] == verdict


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
