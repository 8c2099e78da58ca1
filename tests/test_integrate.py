"""Integrator accuracy, dense output, events, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circular_two_body
from qhnbody.errors import DegenerateStateError, FieldError, StiffnessError
from qhnbody.integrate import Event, Trajectory, integrate
from qhnbody.mcgehee import renormalize_mcgehee
from qhnbody.model import (
    MassSystem,
    PotentialParams,
    cartesian_field,
    hamiltonian,
    pack_phase,
    unpack_phase,
)


def harmonic(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_accuracy():
    tr = integrate(harmonic, np.array([1.0, 0.0]), (0.0, 10.0))
    assert tr.termination == "time-budget"
    exact = np.array([np.cos(10.0), -np.sin(10.0)])
    assert np.abs(tr.final_state - exact).max() < 1e-8


def test_tolerance_controls_error():
    errs = []
    for rtol in (1e-5, 1e-8, 1e-11):
        tr = integrate(
            harmonic, np.array([1.0, 0.0]), (0.0, 10.0), rel_tol=rtol, abs_tol=rtol
        )
        errs.append(abs(tr.final_state[0] - np.cos(10.0)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < 1e-3 * max(errs[0], 1e-30) or errs[0] < 1e-9


def test_dense_output_matches_analytic_solution():
    tr = integrate(harmonic, np.array([1.0, 0.0]), (0.0, 10.0))
    for t in np.linspace(0.3, 9.7, 23):
        y = tr.sample(t)
        assert abs(y[0] - np.cos(t)) < 1e-8
        assert abs(y[1] + np.sin(t)) < 1e-8
    with pytest.raises(ValueError):
        tr.sample(11.0)


def test_exponential_decay_event_location():
    # y = exp(-t) crosses 0.5 exactly at ln 2.
    tr = integrate(
        lambda t, y: -y,
        np.array([1.0]),
        (0.0, 5.0),
        rel_tol=1e-12,
        abs_tol=1e-14,
        events=[Event("half", lambda t, y: y[0] - 0.5, direction=-1, terminal=True)],
    )
    assert tr.termination == "event:half"
    t_hit, y_hit = tr.events["half"][0]
    assert abs(t_hit - np.log(2.0)) < 1e-9
    assert abs(y_hit[0] - 0.5) < 1e-9
    assert abs(tr.times[-1] - t_hit) < 1e-15


def test_event_direction_filtering():
    # sin crosses zero both ways; a rising-only event must skip t = pi.
    tr = integrate(
        harmonic,
        np.array([0.0, 1.0]),  # y = sin t
        (0.5, 9.0),
        events=[Event("up", lambda t, y: y[0], direction=1, terminal=False)],
    )
    hits = [t for t, _ in tr.events["up"]]
    assert len(hits) == 1
    assert abs(hits[0] - (0.5 + 2.0 * np.pi)) < 1e-8


def test_nonterminal_events_record_all_crossings():
    tr = integrate(
        harmonic,
        np.array([0.0, 1.0]),
        (0.5, 13.0),
        events=[Event("zero", lambda t, y: y[0], direction=0, terminal=False)],
    )
    hits = [t for t, _ in tr.events["zero"]]
    expected = [0.5 + k * np.pi for k in (1, 2, 3)]  # y = sin(t - 0.5)
    assert len(hits) == len(expected)
    assert np.abs(np.array(hits) - expected).max() < 1e-7


def test_manev_plane_crossing_timing():
    # Circular two-body orbit: body 1 crosses the x-axis after half a period.
    ms = MassSystem(np.array([1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=2.0)
    state, omega = circular_two_body(ms, pp, 1.1)
    tr = integrate(
        cartesian_field(ms, pp, 2),
        pack_phase(state),
        (0.0, 2.0 * np.pi / omega),
        rel_tol=1e-12,
        abs_tol=1e-14,
        events=[Event("axis", lambda t, y: y[1], direction=0, terminal=True)],
    )
    assert tr.termination == "event:axis"
    t_hit, _ = tr.events["axis"][0]
    assert abs(t_hit - np.pi / omega) < 1e-8


def test_energy_conservation_two_body():
    ms = MassSystem(np.array([1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=2.0)
    state, omega = circular_two_body(ms, pp, 1.3)
    h0 = hamiltonian(state, ms, pp)
    tr = integrate(
        cartesian_field(ms, pp, 2),
        pack_phase(state),
        (0.0, 6.0 * np.pi / omega),
        monitors={
            "energy": lambda ts, ys: [
                abs(hamiltonian(unpack_phase(y, 2, 2), ms, pp) - h0) for y in ys
            ]
        },
    )
    assert len(tr.conserved_residuals["energy"]) == len(tr.times)
    assert max(tr.conserved_residuals["energy"]) < 1e-9


def test_monitors_include_initial_point():
    tr = integrate(
        harmonic,
        np.array([1.0, 0.0]),
        (0.0, 1.0),
        monitors={"y0": lambda ts, ys: ys[:, 0]},
    )
    assert tr.conserved_residuals["y0"][0] == 1.0
    assert len(tr.conserved_residuals["y0"]) == len(tr.times)


def test_each_monitor_runs_once_on_the_whole_grid():
    calls = []

    def monitor(ts, ys):
        calls.append((ts.copy(), ys.copy()))
        return np.hypot(ys[:, 0], ys[:, 1])

    tr = integrate(
        harmonic,
        np.array([1.0, 0.0]),
        (0.0, 10.0),
        events=[Event("down", lambda t, y: y[0] + 0.5, direction=-1, terminal=True)],
        monitors={"radius": monitor},
    )
    assert tr.termination == "event:down"
    assert len(calls) == 1
    ts, ys = calls[0]
    n = len(tr.times)
    assert ts.shape == (n,) and ys.shape == (n, 2)
    assert np.array_equal(ts, tr.times) and np.array_equal(ys, tr.states)
    # the grid runs from t0 to the located terminal event point
    assert ts[0] == 0.0
    t_hit, y_hit = tr.events["down"][0]
    assert ts[-1] == t_hit and np.array_equal(ys[-1], y_hit)
    assert abs(t_hit - 2.0 * np.pi / 3.0) < 1e-8
    assert tr.conserved_residuals["radius"].shape == (n,)
    assert np.abs(tr.conserved_residuals["radius"] - 1.0).max() < 1e-8


@pytest.mark.parametrize("bad", [lambda ts, ys: ys[1:, 0], lambda ts, ys: ys, lambda ts, ys: 1.0])
def test_a_monitor_of_the_wrong_shape_is_rejected(bad):
    with pytest.raises(ValueError, match="monitor 'bad'"):
        integrate(harmonic, np.array([1.0, 0.0]), (0.0, 1.0), monitors={"bad": bad})


def test_max_step_is_honored():
    tr = integrate(harmonic, np.array([1.0, 0.0]), (0.0, 5.0), max_step=0.05)
    assert np.diff(tr.times).max() <= 0.05 + 1e-12


def test_field_error_at_start():
    def broken(t, y):
        raise RuntimeError("no field here")

    with pytest.raises(FieldError):
        integrate(broken, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(FieldError):
        integrate(lambda t, y: np.array([np.nan]), np.array([1.0]), (0.0, 1.0))


def test_programming_errors_in_the_field_propagate():
    calls = []

    def field(t, y):
        calls.append(t)
        if len(calls) > 1:
            return y.reshape(1, 1) + None  # TypeError, not a numerical failure
        return -y

    with pytest.raises(TypeError):
        integrate(field, np.array([1.0]), (0.0, 1.0))
    assert len(calls) == 2


def test_stiffness_error_on_blowup():
    # y' = y^2 from 1 blows up at t = 1; the step size must underflow.
    with pytest.raises(StiffnessError) as info:
        integrate(lambda t, y: y * y, np.array([1.0]), (0.0, 2.0))
    # the error carries the last accepted point, just short of the blow-up
    t, y = info.value.t, info.value.state
    assert 1.0 - 1e-6 < t < 1.0 and y.shape == (1,)
    assert y[0] > 1e6


def test_span_validation():
    with pytest.raises(ValueError):
        integrate(harmonic, np.array([1.0, 0.0]), (1.0, 1.0))
    with pytest.raises(ValueError):
        integrate(harmonic, np.array([[1.0], [0.0]]), (0.0, 1.0))


# each bad argument raises before the first field call; rel_tol = 0 is legal
@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"span": (0.0, np.inf)}, "span"),
        ({"span": (-np.inf, 0.0)}, "span"),
        ({"abs_tol": 0.0}, "abs_tol"),
        ({"abs_tol": -1e-12}, "abs_tol"),
        ({"abs_tol": np.inf}, "abs_tol"),
        ({"rel_tol": -1.0}, "rel_tol"),
        ({"rel_tol": np.nan}, "rel_tol"),
        ({"max_step": 0.0}, "max_step"),
        ({"max_step": -1.0}, "max_step"),
        ({"rel_tol": 0.0}, None),
    ],
)
def test_arguments_it_cannot_honour_are_rejected_up_front(kwargs, name):
    calls = []

    def field(t, y):
        calls.append(t)
        return harmonic(t, y)

    args = {"span": (0.0, 1.0), "abs_tol": 1e-10, **kwargs}
    if name is None:
        tr = integrate(field, np.array([1.0, 0.0]), **args)
        assert abs(tr.final_state[0] - np.cos(1.0)) < 1e-8
        return
    with pytest.raises(ValueError, match=name):
        integrate(field, np.array([1.0, 0.0]), **args)
    assert calls == []


def test_exact_span_end_is_reached():
    tr = integrate(lambda t, y: np.array([1.0]), np.array([0.0]), (0.0, 0.7))
    assert abs(tr.times[-1] - 0.7) < 1e-12
    assert abs(tr.final_state[0] - 0.7) < 1e-12


def test_renormalizer_applied_to_stored_states(rng):
    masses = np.array([1.0, 2.0, 3.0])

    def renorm(y):
        s = y[2:8].reshape(3, 2)
        u = y[8:14].reshape(3, 2)
        s, u = renormalize_mcgehee(s, u, masses)
        out = y.copy()
        out[2:8] = s.ravel()
        out[8:14] = u.ravel()
        return out

    # a field that slowly inflates s off the sphere
    def drift(t, y):
        f = np.zeros_like(y)
        f[2:8] = 0.1 * y[2:8]
        return f

    s0 = rng.standard_normal((3, 2))
    s0 /= np.sqrt(np.sum(masses[:, None] * s0 * s0))
    y0 = np.concatenate([[0.0, 0.0], s0.ravel(), np.zeros(6)])
    tr = integrate(drift, y0, (0.0, 2.0), renormalizer=renorm)
    for y in tr.states:
        s = y[2:8].reshape(3, 2)
        assert abs(np.sum(masses[:, None] * s * s) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m1=st.floats(0.1, 8.0),
    m2=st.floats(0.1, 8.0),
    m3=st.floats(0.1, 8.0),
)
def test_renormalize_mcgehee_projects_and_is_idempotent(seed, m1, m2, m3):
    rng = np.random.default_rng(seed)
    masses = np.array([m1, m2, m3])
    s = rng.standard_normal((3, 2)) * rng.uniform(0.5, 2.0)
    u = rng.standard_normal((3, 2))
    s1, u1 = renormalize_mcgehee(s, u, masses)
    assert abs(np.sum(masses[:, None] * s1 * s1) - 1.0) < 1e-13
    assert abs(np.sum(s1 * u1)) < 1e-12 * max(1.0, np.abs(u1).max())
    s2, u2 = renormalize_mcgehee(s1, u1, masses)
    assert np.abs(s2 - s1).max() < 1e-13
    assert np.abs(u2 - u1).max() < 1e-12


def test_renormalize_mcgehee_rejects_a_collapsed_shape():
    masses = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateStateError):
        renormalize_mcgehee(np.zeros((3, 2)), np.ones((3, 2)), masses)


def test_trajectory_sample_between_segments():
    tr = integrate(harmonic, np.array([1.0, 0.0]), (0.0, 3.0))
    # segment joints are the accepted times; sampling there must agree
    for k in range(1, len(tr.times) - 1):
        y = tr.sample(tr.times[k])
        assert np.abs(y - tr.states[k]).max() < 1e-9
