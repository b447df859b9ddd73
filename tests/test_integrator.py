"""Adaptive Runge-Kutta integration: accuracy, events, dense output."""

import hashlib
import importlib.util
import linecache
import math
import os
import subprocess
import sys
import time
import traceback
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopf_flow import cli, diagnostics, fields, integrator, reduced_system
from hopf_flow.diagnostics import refine
from hopf_flow.fields import inlined_field
from hopf_flow.integrator import Event, integrate


def decay(t, y):
    return [-v for v in y]


def oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_zero_span_returns_single_node():
    traj = integrate(decay, [2.0], (1.5, 1.5))
    assert traj.stop_reason == "reached_end"
    assert len(traj.ts) == 1 and traj.ts[0] == 1.5
    np.testing.assert_array_equal(traj.ys[0], [2.0])
    np.testing.assert_array_equal(traj.sample(1.5), [2.0])


def test_exponential_decay_accuracy_tracks_tolerance():
    for rel in (1e-6, 1e-9, 1e-12):
        traj = integrate(decay, [1.0], (0.0, 5.0), rel_tol=rel)
        err = abs(traj.y_end[0] - math.exp(-5.0))
        assert err <= 50.0 * rel * math.exp(-5.0) + 1e-15


def test_convergence_order_exceeds_four():
    # Global error versus mean step size over a tolerance ladder; the
    # pair is eighth order, so the slope should clear 4 comfortably.
    errs, hbars = [], []
    y_ref = np.array([math.cos(4.0), -math.sin(4.0)])
    for rel in (1e-5, 1e-7, 1e-9, 1e-11):
        traj = integrate(oscillator, [1.0, 0.0], (0.0, 4.0), rel_tol=rel)
        errs.append(max(float(np.max(np.abs(traj.y_end - y_ref))), 1e-16))
        hbars.append(4.0 / traj.naccept)
    slope = np.polyfit(np.log(hbars), np.log(errs), 1)[0]
    print(f"order slope {slope:.2f}")
    assert slope >= 4.0


def test_energy_drift_small_at_tight_tolerance():
    traj = integrate(oscillator, [1.0, 0.0], (0.0, 20.0), rel_tol=1e-12)
    energy = traj.ys[:, 0] ** 2 + traj.ys[:, 1] ** 2
    assert float(np.max(np.abs(energy - 1.0))) <= 1e-10


def test_dense_output_matches_analytic_solution():
    traj = integrate(decay, [1.0], (0.0, 3.0), rel_tol=1e-10)
    ts = np.linspace(0.0, 3.0, 57)
    got = traj.sample(ts)[:, 0]
    np.testing.assert_allclose(got, np.exp(-ts), rtol=1e-8, atol=1e-12)
    # Scalar query keeps scalar-shaped output.
    assert traj.sample(1.234).shape == (1,)


def test_sample_rejects_times_outside_span():
    traj = integrate(decay, [1.0], (0.0, 1.0))
    with pytest.raises(ValueError):
        traj.sample(1.5)
    with pytest.raises(ValueError):
        traj.sample(-0.5)


def test_a_nan_sample_time_is_refused_and_forms_nothing():
    traj = integrate(fields.cartesian_ode, (1, 0, 0), (0, 5))
    made = traj.nfev
    for t in (math.nan, [1.0, math.nan]):
        with pytest.raises(ValueError, match="sample time nan"):
            traj.sample(t)
    assert (traj.nfev, traj.nformed) == (made, 0)


def test_backward_integration():
    traj = integrate(decay, [1.0], (0.0, -2.0), rel_tol=1e-10)
    assert traj.t_end == -2.0
    np.testing.assert_allclose(traj.y_end[0], math.exp(2.0), rtol=1e-9)
    np.testing.assert_allclose(traj.sample(-1.0)[0], math.exp(1.0), rtol=1e-8)


def test_event_crossing_located_and_terminal():
    # y' = 1 from 0; event at y = 2.5 must stop the run at t = 2.5.
    ev = Event(fn=lambda t, y: y[0] - 2.5, name="level")
    traj = integrate(lambda t, y: np.ones(1), [0.0], (0.0, 10.0),
                     events=(ev,))
    assert traj.stop_reason == "event"
    assert traj.event == "level"
    np.testing.assert_allclose(traj.t_end, 2.5, atol=1e-10)


def test_event_direction_filtering():
    # sin(t) rises through zero at 2*pi and falls at pi; with a falling
    # filter the first recorded hit is at pi.
    ev = Event(fn=lambda t, y: y[0], direction=-1, name="fall")
    traj = integrate(oscillator, [0.0, 1.0], (0.0, 10.0), rel_tol=1e-10,
                     events=(ev,))
    assert traj.stop_reason == "event"
    np.testing.assert_allclose(traj.t_end, math.pi, atol=1e-8)


@pytest.mark.parametrize("t0", [9000.0, 1e5])
def test_event_located_at_large_times(t0):
    # Past |t| = 8192 the 1e-12 time tolerance is below one ulp, so the
    # refiner has to stop at adjacent doubles instead of at the tolerance.
    ev = Event(fn=lambda t, y: y[0] - 0.3, direction=-1, name="level")
    traj = integrate(oscillator, [1.0, 0.0], (t0, t0 + 10.0), events=(ev,))
    assert traj.stop_reason == "event"
    t_want = t0 + math.acos(0.3)
    assert abs(traj.t_end - t_want) <= 1e-9
    np.testing.assert_allclose(traj.ys[-1, 0], 0.3, atol=1e-9)


def test_backward_event_located():
    # Backward from t = 0 the oscillator's y[0] = cos(t) falls along the
    # run and first crosses 0.3 at t = -acos(0.3).
    ev = Event(fn=lambda t, y: y[0] - 0.3, direction=-1, name="level")
    traj = integrate(oscillator, [1.0, 0.0], (0.0, -10.0), events=(ev,))
    assert traj.stop_reason == "event"
    np.testing.assert_allclose(traj.t_end, -math.acos(0.3), atol=1e-9)
    assert np.all(np.diff(traj.ts) < 0.0)


@pytest.mark.parametrize("slope, y0", [(0.0, 1e-200), (-1e-200, 3e-200)],
                         ids=["constant", "falling"])
def test_tiny_event_values_of_one_sign_are_no_crossing(slope, y0):
    # y stays positive over the span, but the product of two event values
    # near 1e-200 underflows to 0: a crossing is decided by signs, so the
    # run neither divides by fb - fa = 0 nor stops early.
    ev = Event(fn=lambda t, y: y[0])
    traj = integrate(lambda t, y: [slope], [y0], (0.0, 1.0), events=(ev,))
    assert traj.stop_reason == "reached_end" and traj.event is None
    assert traj.t_end == 1.0 and traj.y_end[0] > 0.0


def test_events_are_refined_from_the_flagged_step_without_a_scan(
        monkeypatch, tmp_path):
    # Event location refines the bracket the run flagged; the scanning
    # root finder is never called, wherever it is bound.
    def no_scan(*args, **kwargs):
        raise AssertionError("an event was located by a scan")

    monkeypatch.setattr(diagnostics, "bracketed_roots", no_scan)
    monkeypatch.setattr(integrator, "bracketed_roots", no_scan, raising=False)
    refined = []

    def counted(*args):
        refined.append(args)
        return refine(*args)

    # integrate imports the refiner when an event must be located.
    monkeypatch.setattr(diagnostics, "refine", counted)
    traj = reduced_system._trace_h(2.0, 0.4, 1.5, 1e-12)
    assert (traj.stop_reason, traj.event) == ("event", "turning-locus")
    assert len(refined) == 1
    out = tmp_path / "reduce.csv"
    assert cli.main(["reduce", "--start", "1,0.7854", "--target", "200",
                     "--out", str(out)]) == 0
    assert len(refined) == 1 + 5


def test_bitwise_determinism():
    a = integrate(oscillator, [1.0, 0.0], (0.0, 7.0), rel_tol=1e-9)
    b = integrate(oscillator, [1.0, 0.0], (0.0, 7.0), rel_tol=1e-9)
    np.testing.assert_array_equal(a.ts, b.ts)
    np.testing.assert_array_equal(a.ys, b.ys)
    assert a.nfev == b.nfev and a.naccept == b.naccept


@pytest.mark.parametrize("span", [(0.0, 3.0), (0.0, -3.0)],
                         ids=["forward", "backward"])
def test_sample_on_an_array_matches_scalar_samples_bitwise(span):
    traj = integrate(oscillator, [1.0, 0.0], span, rel_tol=1e-8)
    ts = np.linspace(span[0], span[1], 41)
    stacked = np.array([traj.sample(float(t)) for t in ts])
    assert traj.sample(ts).tobytes() == stacked.tobytes()
    # At a row's time the step that starts there gives its state itself
    # (th = 0); at the last, the last step gives it within an ulp (th = 1).
    at_rows = traj.sample(traj.ts)
    assert at_rows[:-1].tobytes() == traj.ys[:-1].tobytes()
    assert np.all(np.abs(at_rows[-1] - traj.ys[-1])
                  <= np.spacing(np.abs(traj.ys[-1])))


def test_config_validation():
    with pytest.raises(ValueError):
        integrate(decay, [1.0], (0.0, 1.0), rel_tol=0.5)
    with pytest.raises(ValueError):
        integrate(decay, [1.0], (0.0, 1.0), rel_tol=1e-15)
    # The accepted range is [1e-14, 1e-2), as the message states.
    assert integrate(decay, [1.0], (0.0, 1.0),
                     rel_tol=1e-14).stop_reason == "reached_end"
    below = math.nextafter(1e-14, 0.0)
    with pytest.raises(ValueError, match=r"rel_tol must lie in \[1e-14, "
                       r"1e-2\), got 9\.99"):
        integrate(decay, [1.0], (0.0, 1.0), rel_tol=below)
    with pytest.raises(ValueError):
        integrate(decay, [[1.0, 2.0]], (0.0, 1.0))


@pytest.mark.parametrize("y0", [[[1.0, 2.0]], np.ones((2, 2)), 1.0,
                                np.float64(1.0)],
                         ids=["nested-list", "2-d-array", "float", "scalar"])
def test_a_state_that_is_not_one_dimensional_is_refused(y0):
    with pytest.raises(ValueError, match="state must be one-dimensional"):
        integrate(decay, y0, (0.0, 1.0))


def test_a_nested_slope_is_refused_with_its_shape():
    with pytest.raises(ValueError, match=r"returned shape \(1, 2\), not 2 "
                       r"components"):
        integrate(lambda t, y: [y], [1.0, 0.0], (0.0, 1.0))


def test_the_initial_state_container_does_not_change_the_bits():
    runs = [integrate(fields.cartesian_ode, y0, (0.0, 5.0))
            for y0 in ([1.0, 0.5, 0.0], (1.0, 0.5, 0.0),
                       np.array([1.0, 0.5, 0.0]))]
    for other in runs[1:]:
        for name in ("ts", "ys", "steps", "dense"):
            assert (getattr(other, name).tobytes()
                    == getattr(runs[0], name).tobytes()), name


def test_step_counters_are_consistent():
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 50.0))
    assert traj.stop_reason == "reached_end"
    assert traj.naccept == len(traj.ts) - 1 == len(traj.steps)
    assert traj.nreject > 0
    # Two evaluations start a run (k1 and the initial-step probe), every
    # attempted step makes 11 fresh ones, and every accepted one 1 more
    # (the next k1); forming a step's interpolant makes 3 (the dense
    # output's stages), and locating an event none.
    run = 2 + 11 * (traj.naccept + traj.nreject) + traj.naccept
    assert (traj.nfev, traj.nformed) == (run, 0)
    traj.dense
    assert (traj.nfev, traj.nformed) == (run + 3 * traj.naccept, traj.naccept)
    calls = []

    def counted(t, y):
        calls.append(t)
        return oscillator(t, y)

    ev = Event(fn=lambda t, y: y[0] - 0.3, direction=-1, name="level")
    stopped = integrate(counted, [1.0, 0.0], (0.0, 5.0), events=(ev,))
    assert stopped.stop_reason == "event"
    # The crossing is located on the last step's interpolant, formed then.
    run = 2 + 11 * (stopped.naccept + stopped.nreject) + stopped.naccept
    assert stopped.nfev == len(calls) == run + 3
    stopped.dense
    assert stopped.nfev == len(calls) == run + 3 * stopped.naccept
    assert integrate(oscillator, [1.0, 0.0], (2.0, 2.0)).nfev == 1


def test_interpolants_are_formed_only_where_read():
    calls = []

    def counted(t, y):
        calls.append(t)
        return oscillator(t, y)

    traj = integrate(counted, [1.0, 0.0], (0.0, 10.0), rel_tol=1e-8)
    made = len(calls)
    assert traj.nfev == made
    traj.ts, traj.ys, traj.steps, traj.y_end
    assert (len(calls), traj.nformed) == (made, 0)
    # A sample forms each step its times fall in once, and no other.
    ts = np.linspace(0.5, 4.0, 50)
    spanned = len(set(np.searchsorted(traj.ts, ts, side="right") - 1))
    assert 1 < spanned < traj.naccept
    traj.sample(ts)
    assert len(calls) == traj.nfev == made + 3 * spanned
    assert traj.nformed == spanned
    traj.sample(ts[::-1])
    traj.sample(float(ts[7]))
    assert len(calls) == traj.nfev == made + 3 * spanned

    ev = Event(fn=lambda t, y: y[0] - 0.3, direction=-1)
    stopped = integrate(counted, [1.0, 0.0], (0.0, 10.0), events=(ev,))
    made = len(calls)
    # The last step was formed before its end row became the crossing.
    assert stopped.sample(stopped.t_end).tobytes() == \
        stopped.ys[-1].tobytes()
    assert (len(calls), stopped.nformed) == (made, 1)


def test_hopf_orbit_keeps_its_step_counts():
    # Accepted, rejected and RHS counts of a fixed run: a change to the
    # step arithmetic that moves the controller shows here first.
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 50.0))
    assert (traj.naccept, traj.nreject, traj.nfev) == (86, 11, 1155)
    traj.dense
    assert traj.nfev == 1413


def test_rhs_return_container_does_not_change_the_bits():
    def as_tuple(t, y):
        return (y[1], -y[0] + 0.1 * math.sin(t))

    def as_list(t, y):
        return list(as_tuple(t, y))

    def as_array(t, y):
        return np.array(as_tuple(t, y))

    runs = [integrate(fn, [1.0, 0.0], (0.0, 6.0), rel_tol=1e-9)
            for fn in (as_tuple, as_list, as_array)]
    for other in runs[1:]:
        assert other.ts.tobytes() == runs[0].ts.tobytes()
        assert other.ys.tobytes() == runs[0].ys.tobytes()
        assert other.dense.tobytes() == runs[0].dense.tobytes()


@pytest.mark.parametrize("span", [(0.0, 1.0), (0.0, 0.0)],
                         ids=["run", "zero-span"])
@pytest.mark.parametrize("bad", [(1.0, 2.0), [1.0, 2.0, 3.0, 4.0], 1.0],
                         ids=["short", "long", "scalar"])
def test_wrong_length_rhs_is_refused(span, bad):
    calls = []

    def field(t, y):
        calls.append(t)
        return bad

    got = len(bad) if np.ndim(bad) else "shape ()"
    with pytest.raises(ValueError, match="3") as err:
        integrate(field, [1.0, 0.0, 0.0], span)
    assert f"returned {got}" in str(err.value)
    # Refused on the first call, before any step.
    assert len(calls) == 1


@pytest.mark.parametrize("short_from", [2, 4, 100],
                         ids=["initial-step-probe", "stage-3", "later-step"])
def test_wrong_length_rhs_mid_run_is_refused(short_from):
    # Right at first, one component short from call `short_from` on: the
    # run must stop at that call rather than step on a shortened state.
    calls = []

    def field(t, y):
        calls.append(t)
        slope = [y[1], -y[0], -0.5 * y[2]]
        return slope if len(calls) < short_from else slope[:-1]

    with pytest.raises(ValueError):
        integrate(field, [1.0, 0.0, 2.0], (0.0, 10.0))
    assert len(calls) == short_from


@pytest.mark.parametrize("min_steps", [10**9, 1], ids=["scalar", "columns"])
@pytest.mark.parametrize("wrong", [
    lambda slope, y: slope[:-1],
    lambda slope, y: slope[:-1] if y[0] > 0.0 else slope,
    lambda slope, y: slope[:1],
], ids=["short", "ragged", "one"])
def test_wrong_length_rhs_while_forming_is_refused(monkeypatch, min_steps,
                                                   wrong):
    # Right during the run, wrong once the interpolants are formed: every
    # slope one short, only some, or every slope of one component.
    formed = []

    def field(t, y):
        slope = [y[1], -y[0], -0.5 * y[2]]
        return wrong(slope, y) if formed else slope

    monkeypatch.setattr(integrator, "_ARRAY_MIN_STEPS", min_steps)
    traj = integrate(field, [1.0, 0.0, 2.0], (0.0, 10.0))
    formed.append(True)
    with pytest.raises(ValueError):
        traj.dense


@pytest.mark.parametrize("field, y0", [
    (lambda t, y: [math.nan], [1.0]),
    (lambda t, y: [1e300], [1.0]),
], ids=["nan-slope", "slope-beyond-the-float-range"])
def test_a_slope_no_step_can_resolve_is_refused(field, y0):
    # A NaN first step would loop to MAX_STEPS; a zero one divided by 0.
    with pytest.raises(ValueError, match="not finite or too steep"):
        integrate(field, y0, (0.0, 1.0))


# Starts of 1-3 finite components, zeros and subnormals among them, where
# the scaled norm of the start may fall below the 1e-5 that picks a fixed
# first trial step; slope components that are NaN or infinite half the time.
_STARTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308])
_SLOPES = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(_STARTS, min_size=d, max_size=d),
    st.lists(_SLOPES, min_size=d, max_size=d))))
@example(case=([0.0], [math.nan]))
@example(case=([0.0], [math.inf]))
@example(case=([0.0, 0.0], [math.inf, 1.0]))
def test_a_slope_that_is_not_finite_is_refused_at_any_start(case):
    y0, slope = case
    assume(not all(map(math.isfinite, slope)))
    with pytest.raises(ValueError, match="is not finite"):
        integrate(lambda t, y: tuple(slope), y0, (0.0, 1.0))


def test_traceback_through_a_step_shows_the_stage_line():
    calls = []

    def field(t, y):
        calls.append(t)
        if len(calls) == 4:  # k1, the initial-step probe, k2, then k3
            raise ZeroDivisionError("planted")
        return [-v for v in y]

    with pytest.raises(ZeroDivisionError) as err:
        integrate(field, [1.0, 2.0], (0.0, 1.0))
    text = "".join(traceback.format_exception(err.value))
    assert '"<dop853 step d=2>"' in text
    assert ("[k3_0, k3_1] = field_fn(t + 0.0789002279381516 * hs, "
            "[y0 + hs * (0.0197250569845379 * k1_0 + 0.0591751709536137 "
            "* k2_0)" in text)


# A field integrate inlines whose guard raises: x' = x^2 escapes from
# x = 1 at t = 1, and the field refuses a state past |x| = 1e3.
@inlined_field
def escaping(t, y):
    (x,) = y
    if not abs(x) < 1e3:
        raise ValueError("escaping: |x| reached 1e3")
    return (x * x,)


def test_traceback_through_an_inlined_step_shows_the_stage_line():
    # The orbit leaves the field's domain inside a step: the inlined
    # stage's guard fails, and the stage calls the field, which raises.
    with pytest.raises(ValueError, match="reached 1e3") as err:
        integrate(escaping, [1.0], (0.0, 2.0), rel_tol=1e-3)
    text = "".join(traceback.format_exception(err.value))
    assert f'"<dop853 step d=1 {__name__}.escaping>"' in text
    assert ("[k11_0] = field_fn(t + 0.8571428571428571 * hs, [f_x])"
            in text)
    # The field's own frame, in this file.
    frames = [(f.filename, f.line) for f in traceback.extract_tb(
        err.value.__traceback__) if f.name == "escaping"]
    assert frames == [(__file__, 'raise ValueError("escaping: |x| reached '
                       '1e3")')]


def chain5(t, y):
    a, b, c, d, e = y
    return (b - 0.1 * a, c - a, d - b + 0.2 * e, e - c, -d - 0.3 * e)


_LEVEL = Event(fn=lambda t, y: y[0] - 0.3, direction=-1)


# SHA-256 of the ts, ys, steps and dense bytes of fixed runs, one per state
# dimension in use (d = 5 is used nowhere in the package), both time
# directions and an event stop, and one run of each of the package's four
# fields, whose bodies the steps inline: their digests are those the step
# that calls the field gave.  Any change to the arithmetic or the order of
# a step's operations moves them; the spherical and reduced digests also
# rest on the platform's libm sin and cos.
@pytest.mark.parametrize("run, stop, digest", [
    (lambda: integrate(decay, [1.0], (0.0, 5.0), rel_tol=1e-9),
     "reached_end",
     "9b9d31361b832ef7962fe1d99dda1940bb7722997b2a8f08b2bb6a698e010852"),
    (lambda: integrate(oscillator, [1.0, 0.0], (0.0, 7.0), rel_tol=1e-9),
     "reached_end",
     "d5a21bef8c2cc353cb6942256f9248a5a39c9c5907096b4d023d319d9d878d43"),
    (lambda: integrate(oscillator, [1.0, 0.0], (0.0, -7.0), rel_tol=1e-9),
     "reached_end",
     "c0ea582be50371750b0ccad9791ceb1ab345574cf717994e87d1738394700221"),
    (lambda: integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 50.0)),
     "reached_end",
     "df66bdb879c36c5fab1523a3e27702f85135d191b32a19cdf98756195338bc6a"),
    (lambda: integrate(fields.spherical_ode, [1.2, 0.3, 1.0], (0.0, 20.0)),
     "reached_end",
     "56ce4d597abc14277f10e42628b626387eab0d34ba5104514537d14228b4e181"),
    (lambda: integrate(chain5, [1.0, 0.5, -0.25, 0.0, 2.0], (0.0, 10.0),
                       rel_tol=1e-8),
     "reached_end",
     "00d64ae49651e55ec23552e7d10f149acaf9cf2402ce273f5ac7ac3be2770558"),
    (lambda: integrate(oscillator, [1.0, 0.0], (0.0, 10.0),
                       events=(_LEVEL,)),
     "event",
     "69768d09a6b514e55edcdf039ad3ca867e8cb1804692c1eb106840eeed33e53b"),
    (lambda: reduced_system._trace_h(1.0, 0.5, 200.0, 1e-12),
     "event",
     "8de6c25af2ded6dd9f561534f74c851fe94faa353328f4290c31fdf743be33e3"),
    (lambda: integrate(reduced_system.reduced_time_ode, [1.0, 0.7854],
                       (0.0, 0.05)),
     "reached_end",
     "6aa11aa3bc09b1b60278384184950538460cb01639fdb9ea8b7051957f5aa3aa"),
], ids=["decay-d1", "oscillator-d2", "oscillator-d2-backward",
        "cartesian-d3", "spherical-d3", "linear-d5", "event-stop",
        "trace-h-d1", "reduced-time-d2"])
def test_trajectories_keep_their_bits(run, stop, digest):
    traj = run()
    assert traj.stop_reason == stop
    got = hashlib.sha256(traj.ts.tobytes() + traj.ys.tobytes()
                         + traj.steps.tobytes()
                         + traj.dense.tobytes()).hexdigest()
    assert got == digest


def test_dense_trace_samples_keep_their_bits():
    # The samples `trace --span 500 --dense 500` takes between the nodes of
    # the orbit from (1, 0, 0): one call forms their 459 steps on columns.
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 500.0))
    between = sorted(set(np.linspace(0.0, traj.t_end, 501).tolist())
                     .difference(traj.buffers[0]))
    samples = traj.sample(between)
    assert (len(between), traj.nformed) == (499, 459)
    got = hashlib.sha256(np.array(between).tobytes()
                         + samples.tobytes()).hexdigest()
    assert got == \
        "0c7f67619938d19503a3528e4743720dc8268a2e74f9e7b5ebd3810269dc5320"


def test_step_budget_is_a_stop_reason(monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 10)
    traj = integrate(oscillator, [1.0, 0.0], (0.0, 100.0), rel_tol=1e-12)
    assert traj.stop_reason == integrator.STOP_MAX_STEPS == "max_steps"
    assert traj.naccept + traj.nreject == 10
    assert 0.0 < traj.t_end < 100.0
    mid = traj.sample(0.5 * traj.t_end)
    np.testing.assert_allclose(mid, [math.cos(0.5 * traj.t_end),
                                     -math.sin(0.5 * traj.t_end)], atol=1e-8)


def test_a_run_that_no_longer_advances_stops_stalled():
    # dH/dr across the turning locus, without _trace_h's guard events: H
    # chatters on the locus near r = 8.17 at steps of ~1e-10, and each
    # window of accepted steps advances r by ~2e-7 of the span of 5.  The
    # budget alone would take ~1M steps and seconds.
    start = time.perf_counter()
    traj = integrate(reduced_system._dh_dr, [0.5], (10.0, 5.0), rel_tol=1e-6)
    elapsed = time.perf_counter() - start
    assert traj.stop_reason == integrator.STOP_STALLED == "stalled"
    assert traj.naccept == 2 * integrator.STALL_WINDOW
    assert 8.1 < traj.t_end < 8.2
    assert elapsed < 1.0


_TIMES = st.floats(-1e4, 1e4)
_VALUES = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(t_lo=_TIMES, h=st.floats(1e-9, 10.0), backward=st.booleans(),
       rows=st.lists(_VALUES, min_size=16, max_size=16),
       frac=st.floats(0.0, 1.0), tilt=_VALUES,
       direction=st.sampled_from([-1, 0, 1]))
def test_float_event_location_is_the_one_row_refiner_bit_for_bit(
        t_lo, h, backward, rows, frac, tilt, direction):
    # One accepted step of a 2-component state, its start and the 7 x 2
    # coefficients of its interpolant drawn, and a linear event that the
    # step crosses (or touches); the located crossing must be the shared
    # refiner's root from the bracket of the step's ends and the event
    # values there, at the interpolant's state there.
    t_hi = t_lo - h if backward else t_lo + h
    step = t_hi - t_lo
    y_lo, coefficients = rows[:2], rows[2:]

    def state(t):
        return integrator._state_at(t, t_lo, step, y_lo, coefficients)

    y_hi = state(t_hi)
    level = (1.0 - frac) * (y_lo[0] + tilt * y_lo[1]) + frac * (
        y_hi[0] + tilt * y_hi[1])
    ev = Event(fn=lambda t, y: y[0] + tilt * y[1] - level,
               direction=direction)

    def g(t):
        return ev.fn(t, state(t))

    g_lo, g_hi = ev.fn(t_lo, y_lo), ev.fn(t_hi, y_hi)
    if (not (g_lo < 0.0 <= g_hi or g_lo > 0.0 >= g_hi)
            or direction * (g_hi - g_lo) < 0):
        return
    want = refine(g, t_lo, t_hi, g_lo, g_hi, integrator.EVENT_T_TOL)
    assert integrator._first_crossing(
        (ev,), [g_lo], [g_hi], t_lo, t_hi, step, y_lo, coefficients) == (
            "event", want, state(want))


def _stability_coefficients() -> list[Fraction]:
    """b A^(k-1) 1 for k = 1..12, exactly, over the tableau's doubles."""
    rows = [{}] + list(integrator._A[:11])
    a = [[Fraction(row.get(j, 0.0)) for j in range(1, 13)] for row in rows]
    b = [Fraction(integrator._B.get(j, 0.0)) for j in range(1, 13)]
    v = [Fraction(1)] * 12
    out = []
    for _ in range(12):
        out.append(sum(x * y for x, y in zip(b, v)))
        v = [sum(x * y for x, y in zip(row, v)) for row in a]
    return out


def test_accepted_steps_follow_the_dop853_stability_polynomial():
    # On y' = -y one step multiplies y by R(z) = 1 + sum_k g_k z^k at
    # z = -h (in exact arithmetic), g_k = b A^(k-1) 1 over the 12 stages:
    # g_k = 1/k! through k = 8, and g_9..g_12 are particular to this
    # tableau.
    g = _stability_coefficients()
    for k in range(1, 9):
        assert abs(float(g[k - 1]) * math.factorial(k) - 1.0) <= 1e-14
    traj = integrate(decay, [1.0], (0.0, 8.0), rel_tol=1e-6)
    assert traj.naccept >= 10
    z = -traj.steps
    want = 1.0 + sum(float(c) * z ** k for k, c in enumerate(g, start=1))
    got = traj.ys[1:, 0] / traj.ys[:-1, 0]
    # Steps long enough for the 9th-order term's departure from e^z to
    # register.
    assert np.max(np.abs((float(g[8]) - 1 / math.factorial(9)) * z ** 9)
                  / np.abs(want)) > 1e-11
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_tableau_rows_sum_to_their_nodes():
    # sum_j a_sj = c_s for each of the 16 stages, to the rounding of the
    # 30-digit literals to doubles; stage 13 (the new state) sits at c = 1.
    assert len(integrator._A) == 15 and len(integrator._C) == 16
    assert integrator._C[12] == 1.0
    for s, row in enumerate(integrator._A, start=2):
        assert max(row) < s
        size = math.fsum(abs(w) for w in row.values())
        assert abs(math.fsum(row.values()) - integrator._C[s - 1]) <= (
            4e-16 * size)


def test_weights_meet_the_quadrature_conditions_through_order_8():
    # sum_j b_j c_j^(k-1) = 1/k for k <= 8: the weights integrate
    # polynomials of degree 7 exactly, as an 8th-order method's must.
    c, b = integrator._C, integrator._B
    for k in range(1, 9):
        got = math.fsum(w * c[j - 1] ** (k - 1) for j, w in b.items())
        assert abs(got - 1.0 / k) <= 1e-15


def test_error_estimates_vanish_on_polynomials_of_their_order():
    # The 5th-order estimate's weights annihilate c^(k-1) for k <= 5, and
    # the 3rd-order one's (b less the embedded weights) for k <= 3.
    c, b, bhh = integrator._C, integrator._B, integrator._BHH
    e3 = {j: w - bhh.get(j, 0.0) for j, w in b.items()}
    for e, order in ((integrator._E5, 5), (e3, 3)):
        size = math.fsum(abs(w) for w in e.values())
        for k in range(1, order + 1):
            got = math.fsum(w * c[j - 1] ** (k - 1) for j, w in e.items())
            assert abs(got) <= 1e-15 * size


def test_interpolant_meets_the_step_at_both_ends():
    # At th = 1 each step's interpolant gives the new state to an ulp of
    # the larger end; its slopes at th = 0 and 1 are h times the field at
    # the step's two rows.
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 100.0))
    y0, y1 = traj.ys[:-1], traj.ys[1:]
    f0, f1, f2, *rest = traj.dense.transpose(1, 0, 2)
    at_one = integrator._interpolant(1.0, y0, f0, f1, f2, *rest)
    ulp = np.spacing(np.maximum(np.abs(y0), np.abs(y1)))
    assert np.all(np.abs(at_one - y1) <= ulp)
    slopes = np.array([fields.cartesian_ode(t, y) for t, y in
                       zip(traj.ts.tolist(), traj.ys.tolist())])
    h = traj.steps[:, None]
    np.testing.assert_allclose((f0 + f1) / h, slopes[:-1], rtol=0.0,
                               atol=1e-13)
    np.testing.assert_allclose((f0 - f1 - f2) / h, slopes[1:], rtol=0.0,
                               atol=1e-13)


def test_mid_step_interpolation_error_falls_like_h8():
    # One step of y' = -y from 1 (the span is within the first step the
    # controller picks); the interpolant's error at mid-step is O(h^8),
    # one order below the step's own.
    hs, errs = [0.3, 0.25, 0.2, 0.15], []
    for h in hs:
        traj = integrate(decay, [1.0], (0.0, h), rel_tol=9e-3)
        assert traj.naccept == 1 and traj.nreject == 0
        errs.append(abs(traj.sample(0.5 * h)[0] - math.exp(-0.5 * h)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 7.5 <= slope <= 8.5


def test_sample_and_event_location_share_the_bits():
    # The array path of `sample` and the float path events are located on
    # evaluate the same interpolant with the same operations.
    level = Event(fn=lambda t, y: y[0] - 0.3, direction=-1)
    traj = integrate(oscillator, [1.0, 0.0], (0.0, 10.0), rel_tol=1e-8,
                     events=(level,))
    assert traj.stop_reason == "event"
    assert traj.sample(traj.t_end).tobytes() == traj.ys[-1].tobytes()
    ts = np.linspace(0.0, traj.t_end, 97)
    i = np.clip(np.searchsorted(traj.ts, ts, side="right") - 1, 0,
                len(traj.steps) - 1)
    floats = [integrator._state_at(t, traj.ts[k], traj.steps[k],
                                   traj.ys[k].tolist(),
                                   traj.dense[k].ravel().tolist())
              for t, k in zip(ts.tolist(), i.tolist())]
    assert traj.sample(ts).tobytes() == np.array(floats).tobytes()


def test_integrating_never_loads_scipy(tmp_path):
    # The method's coefficients are literals of the source: integrating,
    # tracing and the order check import nothing of scipy, which is no
    # dependency.
    src = str(Path(integrator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import hopf_flow\n"
        "from hopf_flow import cli, fields\n"
        "hopf_flow.integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], "
        "(0.0, 5.0))\n"
        "assert cli.main(['trace', '--start', '1,0,0', '--span', '5', "
        "'--dense', '10', '--out', sys.argv[1]]) == 0\n"
        "doc = hopf_flow.run_battery(only=['integrator-order'])\n"
        "assert doc['passed']\n"
        "print('scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_stored_slopes_are_the_field_at_the_stored_states():
    # Each step's interpolant is formed from the field at its own two rows,
    # F1 = h f(t0, y0) - F0 and F2 = F0 - h f(t1, y1) - F1 with
    # F0 = y1 - y0, not from a stage of a later attempt left in a reused
    # local.
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 500.0))
    assert len(traj.ts) > 800 and traj.nreject > 0
    f = np.array([fields.cartesian_ode(t, y) for t, y in
                  zip(traj.ts.tolist(), traj.ys.tolist())])
    h = traj.steps[:, None]
    f0, f1, f2 = (traj.dense[:, k] for k in range(3))
    assert f0.tobytes() == (traj.ys[1:] - traj.ys[:-1]).tobytes()
    assert f1.tobytes() == (h * f[:-1] - f0).tobytes()
    assert f2.tobytes() == (f0 - h * f[1:] - f1).tobytes()


def _outcome(field, y0, span, rel_tol, fractions, sample_first):
    """A run's bits, its samples at the fractions of its span, stop reason
    and counters, or its exception.  The steps the samples fall in are
    formed before the rest with sample_first, after them without."""
    try:
        traj = integrate(field, y0, span, rel_tol=rel_tol)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if not sample_first:
        traj.dense
    t0, t1 = traj.ts[0], traj.t_end
    # Interpolants of states near the float range may overflow.
    with np.errstate(all="ignore"):
        samples = traj.sample([t0 + f * (t1 - t0) for f in fractions])
    return (traj.ts.tobytes(), traj.ys.tobytes(), traj.steps.tobytes(),
            traj.dense.tobytes(), samples.tobytes(), traj.stop_reason,
            traj.nfev, traj.naccept, traj.nreject)


_COORD = (st.floats(-10.0, 10.0)
          | st.sampled_from([0.0, 1e77, -2e77, 8e76, 1e300, -1e-300]))
# Each field of the package with a strategy for its starting states.
_FIELDS = {
    "cartesian": (fields.cartesian_ode, st.tuples(_COORD, _COORD, _COORD)),
    "spherical": (fields.spherical_ode, st.tuples(
        st.floats(1e-3, 10.0) | st.sampled_from([0.0, -1.0, 1e200]),
        st.floats(-4.0, 4.0), st.floats(0.0, math.pi))),
    "reduced-time": (reduced_system.reduced_time_ode, st.tuples(
        st.floats(1e-3, 10.0) | st.sampled_from([0.0, 1e200]),
        st.floats(-4.0, 4.0))),
    "dh-dr": (reduced_system._dh_dr, st.tuples(st.floats(0.0, 1.0))),
}


@pytest.mark.parametrize("name", list(_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), t0=st.floats(0.1, 10.0), span=st.floats(-20.0, 20.0),
       rel_tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
# An escaping Cartesian orbit at a loose tolerance, and a spherical one that
# runs into r = 0, where the inlined guard hands a stage to the field.
@example(data=None, t0=1.0, span=20.0, rel_tol=1e-3)
def test_inlined_steps_give_the_bits_of_a_field_call(name, data, t0, span,
                                                     rel_tol):
    field, starts = _FIELDS[name]
    if data is None:
        y0 = {"cartesian": (0.8, 0.0, 0.0), "spherical": (0.1, 0.0, 3.1),
              "reduced-time": (0.5, 3.0), "dh-dr": (0.5,)}[name]
        fractions = [0.9, 0.1, 0.5, 1.0]
    else:
        y0 = data.draw(starts, label="y0")
        fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                       max_size=8), label="fractions")
    t_span = (t0, t0 + span) if name == "dh-dr" else (0.0, span)
    # Across the turning locus dH/dr alternates accepted and rejected steps
    # until the budget runs out; a small budget keeps every example short.
    # The inlined run forms the sampled steps first, the called one every
    # step in order: the order of forming moves no bit.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrator, "MAX_STEPS", 3000)
        called = _outcome(lambda t, y: field(t, y), y0, t_span, rel_tol,
                          fractions, sample_first=False)
        assert _outcome(field, y0, t_span, rel_tol, fractions,
                        sample_first=True) == called


# Runs that take more steps than one call needs to form on columns: each
# of the package's four fields (the reduced one runs into its singularity
# and stops on step_underflow, the dH/dr one on its event), and a called
# field stopped by an event.
_PAST_EVENT = Event(fn=lambda t, y: t - 77.7, direction=1)
_LONG_RUNS = {
    "cartesian": lambda: integrate(fields.cartesian_ode, [1.0, 0.0, 0.0],
                                   (0.0, 50.0)),
    "spherical": lambda: integrate(fields.spherical_ode, [1.2, 0.3, 1.0],
                                   (0.0, -50.0)),
    "reduced-time": lambda: integrate(reduced_system.reduced_time_ode,
                                      [1.0, 0.7854], (0.0, 5.0)),
    "dh-dr": lambda: reduced_system._trace_h(1.0, 0.5, 200.0, 1e-12),
    "called": lambda: integrate(lambda t, y: (y[1], -y[0]), [1.0, 0.0],
                                (0.0, 100.0), events=(_PAST_EVENT,)),
}


def _read_in_batches(run, batches, min_steps, patch):
    """run's sample bits and counters after each batch of fractions of its
    span, then its dense bits, with _form_columns used from min_steps
    steps a call."""
    patch.setattr(integrator, "_ARRAY_MIN_STEPS", min_steps)
    traj = run()
    t0, t1 = traj.ts[0], traj.t_end
    out = [traj.sample(t1).tobytes() == traj.ys[-1].tobytes()]
    for batch in batches:
        samples = traj.sample([t0 + f * (t1 - t0) for f in batch])
        out.append((samples.tobytes(), traj.nfev, traj.nformed))
    out.append((traj.dense.tobytes(), traj.nfev, traj.nformed))
    return traj, out


@pytest.mark.parametrize("name", list(_LONG_RUNS))
@settings(max_examples=25, deadline=None)
@given(fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=150),
       cuts=st.lists(st.integers(1, 149), max_size=4))
def test_forming_on_columns_gives_the_bits_of_the_scalar_form(name,
                                                              fractions,
                                                              cuts):
    # Batches of random sizes: at the default threshold some calls form
    # fewer steps than it and some more.
    bounds = [0, *sorted(c for c in cuts if c < len(fractions)),
              len(fractions)]
    batches = [fractions[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    default = integrator._ARRAY_MIN_STEPS
    with pytest.MonkeyPatch.context() as patch:
        traj, scalar = _read_in_batches(_LONG_RUNS[name], batches, 10**9,
                                        patch)
        assert len(traj.steps) > default
        for min_steps in (1, default):
            # An event-stopped run's last step, formed on columns too at a
            # threshold of 1, keeps the coefficients it had before its end
            # row became the crossing: sample(t_end) is that row.
            assert _read_in_batches(_LONG_RUNS[name], batches, min_steps,
                                    patch)[1] == scalar
    if name in ("dh-dr", "called"):
        assert traj.stop_reason == "event" and scalar[0]


def test_forming_on_columns_overflows_quietly_as_floats_do(monkeypatch):
    # A field whose slopes become huge after the run: the dense output's
    # stages and sums overflow to inf and NaN, on floats without a
    # warning, and so on columns (pytest turns a RuntimeWarning into a
    # failure).
    huge = []

    def field(t, y):
        return (1e307, 1e308) if huge else (y[1], -y[0])

    formed, default = [], integrator._ARRAY_MIN_STEPS
    for min_steps in (10**9, default):
        monkeypatch.setattr(integrator, "_ARRAY_MIN_STEPS", min_steps)
        huge.clear()
        traj = integrate(field, [1.0, 0.0], (0.0, 30.0))
        huge.append(True)
        formed.append(traj.dense)
    assert len(traj.steps) >= default
    scalar, columns = formed
    assert np.isnan(scalar).any() and np.isinf(scalar).any()
    assert np.array_equal(columns, scalar, equal_nan=True)


# One run of each of the package's four fields in a fresh interpreter,
# then the module the fields came from and what linecache holds: the
# inlined runs, and no module's text.  A field whose run silently calls
# it registers no such name.
_RUN_EACH_FIELD = """
import linecache
from hopf_flow import fields, reduced_system
from hopf_flow.integrator import integrate
integrate(fields.cartesian_ode, [1.0, 0.2, 0.3], (0.0, 1.0))
integrate(fields.spherical_ode, [1.2, 0.3, 1.0], (0.0, 1.0))
integrate(reduced_system.reduced_time_ode, [1.0, 0.7854], (0.0, 0.05))
integrate(reduced_system._dh_dr, [0.5], (1.0, 1.1))
print(fields.__file__)
print(sorted(linecache.cache))
"""


@pytest.mark.parametrize("install", ["source", "zip"])
def test_each_package_field_is_inlined(install, tmp_path):
    # A zip on PYTHONPATH has no file to open; linecache reads the
    # field's text through the zip's loader, so its runs inline too.
    package = Path(integrator.__file__).resolve().parent
    root = str(package.parent)
    if install == "zip":
        root = str(tmp_path / "hopf_flow.zip")
        with zipfile.ZipFile(root, "w") as archive:
            for path in sorted(package.glob("*.py")):
                archive.write(path, f"hopf_flow/{path.name}")
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_EACH_FIELD],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    where, names = proc.stdout.splitlines()
    assert where.startswith(root)
    assert names == str([
        "<dop853 step d=1 hopf_flow.reduced_system._dh_dr>",
        "<dop853 step d=2 hopf_flow.reduced_system.reduced_time_ode>",
        "<dop853 step d=3 hopf_flow.fields.cartesian_ode>",
        "<dop853 step d=3 hopf_flow.fields.spherical_ode>"])


def test_an_edit_of_the_fields_file_after_import_changes_no_run(tmp_path):
    # The def's text is read as its module is imported, so a line inserted
    # above it and a changed coefficient, written after, leave the inlined
    # run on the function Python compiled.
    source = tmp_path / "edited_field.py"
    text = ("from hopf_flow.fields import inlined_field\n\n\n"
            "@inlined_field\n"
            "def field(t, y):\n"
            "    a, b = y\n"
            "    if a > 1e300:\n"
            "        raise ValueError('escaped')\n"
            "    return (b + 0.5 * a * t, -8.0 * a)\n")
    source.write_text(text, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("edited_field", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source.write_text(text.replace("@inlined_field", "# A new line.\n@"
                                   "inlined_field").replace("-8.0", "-9.0"),
                      encoding="utf-8")
    called = integrate(lambda t, y: module.field(t, y), [1.0, 0.2],
                       (0.0, 1.0))
    inlined = integrate(module.field, [1.0, 0.2], (0.0, 1.0))
    assert [a.tobytes() for a in inlined.buffers] == \
        [a.tobytes() for a in called.buffers]
    assert any(name.endswith("edited_field.field>")
               for name in linecache.cache)
