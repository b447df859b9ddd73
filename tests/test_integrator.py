"""Adaptive Runge-Kutta integration: accuracy, events, dense output."""

import math

import numpy as np
import pytest

from hopf_flow import fields, integrator
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
    # pair is fifth order, so the slope should clear 4 comfortably.
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
    hit = traj.event
    assert hit is not None
    assert hit.name == "level"
    np.testing.assert_allclose(hit.t, 2.5, atol=1e-10)
    np.testing.assert_allclose(traj.t_end, 2.5, atol=1e-10)


def test_event_direction_filtering():
    # sin(t) rises through zero at 2*pi and falls at pi; with a falling
    # filter the first recorded hit is at pi.
    ev = Event(fn=lambda t, y: y[0], direction=-1, name="fall")
    traj = integrate(oscillator, [0.0, 1.0], (0.0, 10.0), rel_tol=1e-10,
                     events=(ev,))
    assert traj.stop_reason == "event"
    np.testing.assert_allclose(traj.event.t, math.pi, atol=1e-8)


@pytest.mark.parametrize("t0", [9000.0, 1e5])
def test_event_located_at_large_times(t0):
    # Past |t| = 8192 the 1e-12 time tolerance is below one ulp, so the
    # refiner has to stop at adjacent doubles instead of at the tolerance.
    ev = Event(fn=lambda t, y: y[0] - 0.3, direction=-1, name="level")
    traj = integrate(oscillator, [1.0, 0.0], (t0, t0 + 10.0), events=(ev,))
    assert traj.stop_reason == "event"
    t_want = t0 + math.acos(0.3)
    assert abs(traj.event.t - t_want) <= 1e-9
    np.testing.assert_allclose(traj.event.y[0], 0.3, atol=1e-9)
    assert traj.t_end == traj.event.t


def test_backward_event_located():
    # Backward from t = 0 the oscillator's y[0] = cos(t) falls along the
    # run and first crosses 0.3 at t = -acos(0.3).
    ev = Event(fn=lambda t, y: y[0] - 0.3, direction=-1, name="level")
    traj = integrate(oscillator, [1.0, 0.0], (0.0, -10.0), events=(ev,))
    assert traj.stop_reason == "event"
    np.testing.assert_allclose(traj.event.t, -math.acos(0.3), atol=1e-9)
    assert traj.t_end == traj.event.t
    assert np.all(np.diff(traj.ts) < 0.0)


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
    # At the knots the interpolant returns the accepted states themselves.
    assert traj.sample(traj.ts).tobytes() == traj.ys.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        integrate(decay, [1.0], (0.0, 1.0), rel_tol=0.5)
    with pytest.raises(ValueError):
        # abs_tol = rel_tol * 1e-2 = 1e-17 falls below 1e-16.
        integrate(decay, [1.0], (0.0, 1.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        integrate(decay, [[1.0, 2.0]], (0.0, 1.0))


def test_step_counters_are_consistent():
    traj = integrate(oscillator, [1.0, 0.0], (0.0, 5.0))
    assert traj.stop_reason == "reached_end"
    assert traj.naccept == len(traj.ts) - 1
    # Two evaluations start a run (k1 and the initial-step probe), every
    # attempted step makes six fresh ones, and a located event one more.
    assert traj.nfev == 2 + 6 * (traj.naccept + traj.nreject)
    ev = Event(fn=lambda t, y: y[0] - 0.3, direction=-1, name="level")
    stopped = integrate(oscillator, [1.0, 0.0], (0.0, 5.0), events=(ev,))
    assert stopped.stop_reason == "event"
    assert stopped.nfev == 3 + 6 * (stopped.naccept + stopped.nreject)
    assert integrate(oscillator, [1.0, 0.0], (2.0, 2.0)).nfev == 1


def test_hopf_orbit_keeps_its_step_counts():
    # Accepted, rejected and RHS counts of a fixed run: a change to the
    # step arithmetic that moves the controller shows here first.
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 50.0))
    assert (traj.naccept, traj.nreject, traj.nfev) == (562, 2, 3386)


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
        assert other.fs.tobytes() == runs[0].fs.tobytes()


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


def test_step_budget_is_a_stop_reason(monkeypatch):
    monkeypatch.setattr(integrator, "MAX_STEPS", 10)
    traj = integrate(oscillator, [1.0, 0.0], (0.0, 100.0), rel_tol=1e-12)
    assert traj.stop_reason == integrator.STOP_MAX_STEPS == "max_steps"
    assert traj.naccept + traj.nreject == 10
    assert 0.0 < traj.t_end < 100.0
    mid = traj.sample(0.5 * traj.t_end)
    np.testing.assert_allclose(mid, [math.cos(0.5 * traj.t_end),
                                     -math.sin(0.5 * traj.t_end)], atol=1e-8)


def test_accepted_steps_follow_the_dp5_stability_polynomial():
    # On y' = -y one Dormand-Prince step multiplies y by
    # R(z) = sum_{k<=5} z^k / k! + z^6 / 600 at z = -h (in exact
    # arithmetic); the z^6 coefficient is particular to this tableau.
    traj = integrate(decay, [1.0], (0.0, 8.0), rel_tol=1e-6)
    assert traj.naccept >= 10
    z = -np.diff(traj.ts)
    want = sum(z ** k / math.factorial(k) for k in range(6)) + z ** 6 / 600.0
    got = traj.ys[1:, 0] / traj.ys[:-1, 0]
    assert np.max(z * z) > 0.1  # steps long enough for z^6 to register
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_stored_slopes_are_the_field_at_the_stored_states():
    # Every fs row must be the field at its own (t, y) row, not a stage of
    # a later attempt left in a reused buffer.
    traj = integrate(fields.cartesian_ode, [1.0, 0.0, 0.0], (0.0, 100.0))
    assert len(traj.ts) > 1000 and traj.nreject > 0
    for t, y, f in zip(traj.ts, traj.ys, traj.fs):
        assert np.asarray(fields.cartesian_ode(t, y)).tobytes() == f.tobytes()
