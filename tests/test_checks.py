"""Check battery orchestration: naming, scaling, result schema."""

import pytest

from hopf_flow import checks, reduced_system


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
