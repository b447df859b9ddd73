"""Residual reports, the term-scaled residual, and the shared root finder."""

import json
import math

import numpy as np
import pytest

from hopf_flow.diagnostics import (ResidualReport, bracketed_roots,
                                   relative_to_terms, summarize)


def test_summarize_verdict_thresholds():
    rpt = summarize("demo", [1e-9, 5e-10], 1e-6)
    assert rpt.verdict == "pass"
    assert rpt.samples == 2
    np.testing.assert_allclose(rpt.max_abs, 1e-9)
    np.testing.assert_allclose(rpt.rms, math.sqrt((1e-18 + 25e-20) / 2))
    assert summarize("demo", [1e-3], 1e-6).verdict == "fail"
    doc = summarize("demo", [1e-3], 1e-6, documented=True)
    assert doc.verdict == "documented-discrepancy"
    # A documented check that actually meets tolerance still passes.
    assert summarize("demo", [1e-9], 1e-6, documented=True).verdict == "pass"


def test_summarize_rejects_bad_input():
    with pytest.raises(ValueError):
        summarize("demo", [], 1e-6)
    with pytest.raises(ValueError):
        summarize("demo", [math.nan], 1e-6)
    with pytest.raises(ValueError):
        summarize("demo", [math.inf], 1e-6)


def test_report_validation_and_serialization():
    rpt = summarize("demo", [2e-7, 1e-7], 1e-6, details={"grid": 5})
    doc = rpt.to_dict()
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc
    assert list(doc) == ["name", "samples", "max_abs", "rms", "verdict",
                         "tolerance", "details"]
    assert doc["details"] == {"grid": 5}
    with pytest.raises(ValueError):
        ResidualReport(name="x", samples=1, max_abs=1.0, rms=2.0,
                       verdict="pass", tolerance=1e-6)
    with pytest.raises(ValueError):
        ResidualReport(name="x", samples=1, max_abs=1.0, rms=0.5,
                       verdict="sideways", tolerance=1e-6)


def test_relative_to_terms_scaling():
    # Exact cancellation scores zero; imbalance scores near one.
    assert relative_to_terms([1.0, -1.0]) == 0.0
    np.testing.assert_allclose(relative_to_terms([2.0, -1.0]), 0.5)
    assert relative_to_terms([0.0, 0.0]) == 0.0


def test_relative_to_terms_is_elementwise_on_arrays():
    terms = [np.array([1.0, 2.0, 0.0]), np.array([-1.0, -1.0, 0.0]), 0.5j]
    got = relative_to_terms(terms)
    want = [relative_to_terms([t[k] if np.ndim(t) else t for t in terms])
            for k in range(3)]
    np.testing.assert_array_equal(got, want)


def test_bracketed_roots_finds_every_sign_change():
    roots = bracketed_roots(math.sin, 1.0, 10.0, 64, 1e-12)
    assert len(roots) == 3
    for k, root in enumerate(roots, start=1):
        assert abs(root - k * math.pi) <= 1e-12


def test_bracketed_roots_refines_each_root_in_few_calls():
    # After the 65 scan samples, every call refines the root inside its
    # 9/64-wide scan interval; bisection to 1e-12 would take ~37 calls.
    calls = []

    def f(x):
        calls.append(x)
        return math.sin(x)

    roots = bracketed_roots(f, 1.0, 10.0, 64, 1e-12)
    assert len(roots) == 3
    per_root = [sum(1 for x in calls[65:] if abs(x - k * math.pi) < 9.0 / 64)
                for k in (1, 2, 3)]
    assert sum(per_root) == len(calls) - 65
    assert max(per_root) <= 12, per_root
    for k, root in enumerate(roots, start=1):
        assert abs(root - k * math.pi) <= 1e-12

    # Near t = 9000 one ulp (1.8e-12) exceeds the 1e-12 tolerance, so the
    # bracket has to end at adjacent doubles instead.
    calls.clear()

    def g(t):
        calls.append(t)
        return math.cos(t - 9000.0) - 0.3

    roots = bracketed_roots(g, 9001.0, 9001.5, 1, 1e-12)
    assert len(roots) == 1
    assert len(calls) - 2 <= 12, len(calls)
    assert abs(roots[0] - (9000.0 + math.acos(0.3))) <= 4e-12


def test_bracketed_roots_without_sign_change_is_empty():
    assert bracketed_roots(lambda x: x * x + 1.0, -2.0, 2.0, 16, 1e-12) == []


def test_bracketed_roots_counts_exact_zeros_and_skips_nan_ends():
    # Samples at 0, 1, ..., 4: f(2) is exactly 0, and f is NaN at 3, so
    # the sign changes around it are not roots.
    def f(x):
        if x == 3.0:
            return math.nan
        return {0.0: -1.0, 1.0: -1.0, 2.0: 0.0, 4.0: -1.0}.get(x, 1.0)

    assert bracketed_roots(f, 0.0, 4.0, 4, 1e-12) == [2.0]


def test_bracketed_roots_takes_scan_values_computed_in_one_array_pass():
    lo, hi, n = 1.0, 10.0, 64
    # numpy reproduces the scan points bit for bit.
    xs = lo + (hi - lo) * np.arange(n + 1) / n
    assert xs.tolist() == [lo + (hi - lo) * i / n for i in range(n + 1)]
    calls = []

    def f(x):
        calls.append(x)
        return math.sin(x)

    roots = bracketed_roots(f, lo, hi, n, 1e-12, fs=np.sin(xs).tolist())
    assert roots == bracketed_roots(math.sin, lo, hi, n, 1e-12)
    assert len(calls) <= 3 * 12  # refinement only: no scan calls
    with pytest.raises(ValueError, match="65 scan values"):
        bracketed_roots(f, lo, hi, n, 1e-12, fs=[0.0] * n)
