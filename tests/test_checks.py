"""Check battery orchestration: naming, scaling, result schema."""

import dataclasses

import pytest

from hopf_flow import checks, first_integral, reduced_system

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
    rhs = reduced_system._h_rhs_raw
    monkeypatch.setattr(reduced_system, "_h_rhs_raw",
                        lambda r, h: rhs(r, h) * (1.0 + 1e-4))
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
