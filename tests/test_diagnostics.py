"""The verdict, the term-scaled residual, and the shared root finder."""

import json
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopf_flow import reduced_system
from hopf_flow.diagnostics import (bracketed_roots, refine, relative_to_terms,
                                   summarize)
from hopf_flow.first_integral import reconstruct_H, uv_table


def test_summarize_verdict_thresholds():
    entry = summarize("demo", [1e-9, 5e-10], 1e-6)
    assert entry["verdict"] == "pass"
    assert entry["samples"] == 2
    np.testing.assert_allclose(entry["max_abs"], 1e-9)
    np.testing.assert_allclose(entry["rms"], math.sqrt((1e-18 + 25e-20) / 2))
    assert summarize("demo", [1e-3], 1e-6)["verdict"] == "fail"
    doc = summarize("demo", [1e-3], 1e-6, documented=True)
    assert doc["verdict"] == "documented-discrepancy"
    # A documented check that actually meets tolerance still passes.
    assert summarize("demo", [1e-9], 1e-6, documented=True)["verdict"] == \
        "pass"


def test_summarize_rejects_bad_input():
    with pytest.raises(ValueError):
        summarize("demo", [], 1e-6)


@pytest.mark.parametrize("documented", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_summarize_fails_a_non_finite_residual(bad, documented):
    # Counted in the details, and max_abs and rms come from the finite
    # residuals, so the entry stays standard JSON.
    entry = summarize("demo", [2e-7, bad, bad, 1e-7], 1e-6, documented,
                      {"grid": 5})
    assert entry["verdict"] == "fail"
    assert entry["samples"] == 4
    assert entry["details"] == {"grid": 5, "non_finite": 2}
    finite = summarize("demo", [2e-7, 1e-7], 1e-6, documented)
    assert (entry["max_abs"], entry["rms"]) == (finite["max_abs"],
                                                finite["rms"])
    json.dumps(entry, allow_nan=False)
    alone = summarize("demo", [bad], 1e-6, documented)
    assert (alone["verdict"], alone["max_abs"], alone["rms"]) == \
        ("fail", 0.0, 0.0)
    assert alone["details"] == {"non_finite": 1}


def test_summarize_gives_the_documents_entry():
    details = {"grid": 5}
    entry = summarize("demo", [2e-7, 1e-7], 1e-6, details=details)
    assert json.loads(json.dumps(entry, sort_keys=True)) == entry
    assert list(entry) == ["name", "samples", "max_abs", "rms", "verdict",
                           "tolerance", "details"]
    assert entry["details"] == {"grid": 5}
    assert entry["details"] is not details


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


def test_relative_to_terms_keeps_a_nan_term_on_floats():
    # The builtin max keeps 0.0 over a later NaN; the ratio stays NaN.
    assert math.isnan(relative_to_terms([0.0, math.nan]))
    assert math.isnan(relative_to_terms([math.nan, 0.0]))
    assert math.isnan(relative_to_terms([0.0, math.inf]))


# Any float, the zeros and the non-finite ones drawn often.
_TERM = st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]) \
    | st.floats()


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_TERM, min_size=n, max_size=n), min_size=1, max_size=4)))
@example(rows=[[0.0], [math.nan]])
def test_relative_to_terms_on_floats_is_the_array_path_elementwise(rows):
    # rows[k] holds term k at every element, NaN and inf included.
    with np.errstate(all="ignore"):
        got = relative_to_terms([np.array(row) for row in rows])
    want = [relative_to_terms([row[j] for row in rows])
            for j in range(len(rows[0]))]
    np.testing.assert_array_equal(got, want)


def _refine_root(fn, a, b, fa, fb, tol):
    # The Illinois rule on floats, one bracket at a time: the oracle for
    # the bits of `refine` and of each lane of `bracketed_roots`.
    kept = None
    for _ in range(200):
        lo, hi = min(a, b), max(a, b)
        if hi - lo <= tol:
            break
        step = fb * (b - a)
        x = b - step / (fb - fa) if step != 0.0 else 0.5 * (a + b)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:
            x = 0.5 * (a + b)
            if not lo < x < hi:
                break
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            if kept == "b":
                fb = fb * 0.5 or fb
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa = fa * 0.5 or fa
            kept = "a"
    return 0.5 * (a + b)


def _scalar_roots(fn, lo, hi, n_scan, tol):
    """The scan and per-bracket refinement, one root after another."""
    xs = [lo + (hi - lo) * i / n_scan for i in range(n_scan + 1)]
    fs = [fn(x) for x in xs]
    roots = []
    for i in range(n_scan + 1):
        if fs[i] == 0.0:
            roots.append(xs[i])
        elif i < n_scan and (fs[i] < 0.0 < fs[i + 1]
                             or fs[i] > 0.0 > fs[i + 1]):
            roots.append(_refine_root(fn, xs[i], xs[i + 1], fs[i], fs[i + 1],
                                      tol))
    return roots


def _rows_of(fns):
    """An evaluator over (rows, x) from one float function per row,
    recording the number of points of each call."""
    sizes = []

    def fn(rows, x):
        sizes.append(len(x))
        return [fns[k](t) for k, t in zip(rows.tolist(), x.tolist())]

    return fn, sizes


def _steps_and_nan(x):
    # Samples at 0, 1, ..., 4: f(2) is exactly 0, and f is NaN at 3, so
    # the sign changes around it are not roots.
    if x == 3.0:
        return math.nan
    return {0.0: -1.0, 1.0: -1.0, 2.0: 0.0, 4.0: -1.0}.get(x, 1.0)


def _nan_inside(x):
    # A bracket whose f is NaN inside: the refiner steps to midpoints.
    return math.nan if 0.3 < x < 0.7 else x - 0.5


# (f, lo, hi, n_scan): a row each.
_ROWS = [
    (math.sin, 1.0, 10.0, 64),
    (lambda x: (x - 0.3) * (x + 1.2) * (x - 2.0 / 3.0), -2.0, 2.0, 7),
    (lambda t: math.cos(t - 9000.0) - 0.3, 9001.0, 9001.5, 1),
    (_steps_and_nan, 0.0, 4.0, 4),
    (_nan_inside, 0.0, 1.0, 1),
    (lambda x: x * x + 1.0, -2.0, 2.0, 16),
    # Values near 1e-301, whose neighbours' products underflow to 0.
    (lambda x: (x - 0.5) * 1e-300, 0.0, 1.0, 3),
] + [(lambda x, k=k: math.sin(k * x) - 0.02 * k, 0.1, 3.0, 9)
     for k in range(1, 41)]


def _nearest(roots, lo, hi):
    """The pick of bracketed_roots from every root of a row: the one
    nearest the midpoint, the first on a tie, NaN where there is none."""
    mid = 0.5 * (lo + hi)
    return min(roots, key=lambda x: abs(x - mid)) if roots else math.nan


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_lockstep_roots_are_the_scalar_refiners_bit_for_bit(tol):
    # Rows of one scan size share a call; between them they hold 157
    # roots, among them the exact zero at 2.
    counted, picked = 0, []
    for n_scan in sorted({n for *_, n in _ROWS}):
        rows = [row for row in _ROWS if row[3] == n_scan]
        fn, sizes = _rows_of([f for f, *_ in rows])
        roots, counts = bracketed_roots(fn, [lo for _, lo, _, _ in rows],
                                        [hi for _, _, hi, _ in rows],
                                        n_scan, tol)
        every = [_scalar_roots(f, lo, hi, n_scan, tol)
                 for f, lo, hi, _ in rows]
        want = [_nearest(r, lo, hi) for r, (_, lo, hi, _) in zip(every, rows)]
        assert [x.hex() for x in roots.tolist()] == [x.hex() for x in want]
        assert counts.tolist() == [len(r) for r in every]
        # One call scans every row; each later call is one round.
        assert sizes[0] == len(rows) * (n_scan + 1)
        counted += int(counts.sum())
        picked += roots.tolist()
    assert counted == 157 and 2.0 in picked


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_event_refiner_is_the_scalar_refiner_bit_for_bit(tol):
    # `refine` on every bracket the scans of _ROWS find, against the same
    # oracle as the lockstep lanes.
    brackets = 0
    for f, lo, hi, n_scan in _ROWS:
        xs = [lo + (hi - lo) * i / n_scan for i in range(n_scan + 1)]
        fs = [f(x) for x in xs]
        for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
            if fa < 0.0 < fb or fa > 0.0 > fb:
                want = _refine_root(f, a, b, fa, fb, tol)
                assert refine(f, a, b, fa, fb, tol).hex() == want.hex()
                brackets += 1
    assert brackets == 156


def _smallest_step(x):
    # The smallest subnormal, of opposite signs either side of 0.3: half
    # of it rounds to 0, so every secant product fb * (b - a) below a
    # width of 1 underflows.
    return 5e-324 if x > 0.3 else -5e-324


def test_a_root_whose_values_underflow_is_still_found():
    # Secant steps alone stall on an end and stop at the midpoint 0.25 of
    # a still-wide bracket.
    f = _smallest_step
    assert abs(refine(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12) - 0.3) <= 1e-12
    roots, counts = bracketed_roots(
        lambda rows, x: [f(t) for t in x.tolist()], 0.0, 1.0, 1, 1e-12)
    assert counts.tolist() == [1]
    assert abs(roots[0] - 0.3) <= 1e-12


def test_refine_returns_an_end_whose_value_is_0_without_a_call():
    def fn(x):
        raise AssertionError(f"called at {x}")

    assert refine(fn, 0.25, 0.75, 0.0, 1.0, 1e-12) == 0.25
    assert refine(fn, 0.25, 0.75, -1.0, 0.0, 1e-12) == 0.75


def test_bracketed_roots_finds_every_sign_change():
    # Roots at pi, 2 pi and 3 pi: 2 pi is nearest the midpoint 5.5.
    roots, counts = bracketed_roots(lambda rows, x: np.sin(x), 1.0, 10.0,
                                    64, 1e-12)
    assert counts.tolist() == [3]
    assert abs(roots[0] - 2.0 * math.pi) <= 1e-12
    # Exact zeros at 1 and 3 lie 1 from the midpoint 2 each: the first in
    # scan order wins the tie.
    roots, counts = bracketed_roots(lambda rows, x: (x - 1.0) * (x - 3.0),
                                    0.0, 4.0, 4, 1e-12)
    assert roots.tolist() == [1.0] and counts.tolist() == [2]


def test_bracketed_roots_refines_each_root_in_few_calls():
    # After the one 65-point scan, each call is a round over the brackets
    # still live, at most three here; bisection to 1e-12 would take ~37
    # rounds.
    fn, sizes = _rows_of([math.sin])
    roots, counts = bracketed_roots(fn, 1.0, 10.0, 64, 1e-12)
    assert counts.tolist() == [3]
    assert sizes[0] == 65
    assert 1 <= len(sizes) - 1 <= 12, sizes
    assert all(0 < n <= 3 for n in sizes[1:])
    assert sum(sizes[1:]) <= 12 * 3
    assert abs(roots[0] - 2.0 * math.pi) <= 1e-12

    # Near t = 9000 one ulp (1.8e-12) exceeds the 1e-12 tolerance, so the
    # bracket has to end at adjacent doubles instead.
    fn, sizes = _rows_of([lambda t: math.cos(t - 9000.0) - 0.3])
    roots, counts = bracketed_roots(fn, 9001.0, 9001.5, 1, 1e-12)
    assert counts.tolist() == [1]
    assert sizes[0] == 2 and len(sizes) - 1 <= 12, sizes
    assert abs(roots[0] - (9000.0 + math.acos(0.3))) <= 4e-12


def test_bracketed_roots_without_sign_change_is_empty():
    roots, counts = bracketed_roots(lambda rows, x: x * x + 1.0, -2.0, 2.0,
                                    16, 1e-12)
    assert np.isnan(roots).all() and counts.tolist() == [0]


def test_bracketed_roots_counts_exact_zeros_and_skips_nan_ends():
    fn, sizes = _rows_of([_steps_and_nan])
    roots, counts = bracketed_roots(fn, 0.0, 4.0, 4, 1e-12)
    assert roots.tolist() == [2.0] and counts.tolist() == [1]
    assert sizes == [5]  # the scan only: nothing to refine


def test_bracketed_roots_takes_scan_values_computed_in_one_array_pass():
    # Two rows with brackets of their own: one call evaluates both scans,
    # at the points lo + (hi - lo) * i / n_scan of float arithmetic.
    lo, hi, n = np.array([1.0, 0.5]), np.array([10.0, 4.0]), 64
    calls = []

    def fn(rows, x):
        calls.append((rows, x))
        return np.sin(x) - 0.5 * rows

    roots, counts = bracketed_roots(fn, lo, hi, n, 1e-12)
    rows, xs = calls[0]
    assert rows.tolist() == [0] * (n + 1) + [1] * (n + 1)
    assert xs.tolist() == [a + (b - a) * i / n for a, b in zip(lo, hi)
                           for i in range(n + 1)]
    every = [_scalar_roots(math.sin, 1.0, 10.0, n, 1e-12),
             _scalar_roots(lambda x: math.sin(x) - 0.5, 0.5, 4.0, n, 1e-12)]
    assert roots.tolist() == [_nearest(r, a, b)
                              for r, a, b in zip(every, lo, hi)]
    assert counts.tolist() == [len(r) for r in every]
    assert len(calls) <= 1 + 12


@pytest.mark.parametrize("n_scan", [1.5, 0, -2, "8", None])
def test_both_root_solves_refuse_a_bad_n_scan_by_name(n_scan):
    # Each bracket with a root and one without, on a float and on an
    # array.  n_scan = 1.5 once scanned past the bracket's end and
    # returned a root outside it, and n_scan = 0 gave NaN rows.
    c = reduced_system.implicit_constant(1.0, 0.5).c_effective
    r = float(uv_table(0.2, 1.1).v.real)
    solves = [partial(reduced_system.solve_implicit, c, radius, bracket)
              for radius in (2.0, [2.0, 2.5])
              for bracket in ((0.7, 0.8), (0.30, 0.42))]
    solves += [partial(reconstruct_H, radius, 1.1, bracket=bracket)
               for radius in (r, [r, r])
               for bracket in ((0.14, 0.26), (0.5, 0.6))]
    for solve in solves:
        with pytest.raises(ValueError, match=re.escape(
                f"n_scan={n_scan!r}")):
            solve(n_scan=n_scan)
    # The same calls with n_scan = 1 solve.
    assert solves[0](n_scan=1) == pytest.approx(0.7534637310470002)
    assert solves[4](n_scan=1).xi_star == pytest.approx(0.2)
