"""Integrator accuracy, dense output, events, and failure modes."""

import functools
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circular_two_body, every_class, random_masses
from qhnbody import collision_flow, homothetic
from qhnbody import integrate as integrate_module
from qhnbody.central_config import (
    CCQuery,
    Ordering,
    equilateral_cc,
    equilateral_configuration,
    solve_collinear_batch,
)
from qhnbody.errors import CollisionError, DegenerateStateError, FieldError, StiffnessError
from qhnbody.integrate import (
    _A,
    _B,
    _C,
    _D,
    _E3,
    _E5,
    Event,
    Trajectory,
    _dense_coef,
    _dense_value,
    _float_kernel,
    integrate,
)
from qhnbody.mcgehee import (
    mcgehee_field,
    mcgehee_renormalizer,
    pack_mcgehee,
    renormalize_mcgehee,
    to_mcgehee,
)
from qhnbody.model import (
    MassSystem,
    PotentialParams,
    angular_momentum_series,
    cartesian_field,
    energy_series,
    hamiltonian,
    lift_to_plane,
    pack_phase,
    split_phase,
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
    # each error is below its tolerance, and each 1000x tighter tolerance
    # cuts the error at least 100x
    assert all(err < rtol for err, rtol in zip(errs, (1e-5, 1e-8, 1e-11)))
    assert errs[1] < 1e-2 * errs[0] and errs[2] < 1e-2 * errs[1]


def _one_step(field, t, y, h):
    """(y1, k) of one step of size h from (t, y) in the float kernel, on
    field's values as lists: y1 an array and k the (13, dim) stage rows,
    k[12] = field(t + h, y1)."""
    floats = _on_lists(field)
    y1, rows = _float_kernel(y.size)[0](floats, t, y.tolist(), h, floats(t, y.tolist()))
    y1 = np.array(y1)
    return y1, np.array([*rows, field(t + h, y1)])


def harmonic_segment(t0=0.3, h=0.25):
    """One step of the harmonic oscillator y = (cos t, -sin t): (t0, h, y0, y1)
    and its dense output as a function of t."""
    y0 = np.array([np.cos(t0), -np.sin(t0)])
    y1, k = _one_step(harmonic, t0, y0, h)
    coef = _dense_coef(_on_lists(harmonic), t0, h, y0, y1, k)
    return t0, h, y0, y1, lambda t: _dense_value(coef, t0, h, y0, t)


def test_dense_output_matches_analytic_solution():
    t0, h, _, _, dense = harmonic_segment()
    for t in t0 + h * np.linspace(0.05, 0.95, 19):
        y = dense(t)
        assert abs(y[0] - np.cos(t)) < 1e-10
        assert abs(y[1] + np.sin(t)) < 1e-10


def test_exponential_decay_event_location():
    # y = exp(-t) crosses 0.5 exactly at ln 2.
    tr = integrate(
        lambda t, y: -y,
        np.array([1.0]),
        (0.0, 5.0),
        rel_tol=1e-12,
        abs_tol=1e-14,
        events=[Event("half", lambda t, y: y[0] - 0.5, terminal=True)],
    )
    assert tr.termination == "event:half"
    t_hit, y_hit = tr.events["half"][0]
    assert abs(t_hit - np.log(2.0)) < 1e-9
    assert abs(y_hit[0] - 0.5) < 1e-9
    assert abs(tr.times[-1] - t_hit) < 1e-15


def test_an_event_state_is_a_real_step_to_the_event_time():
    # not the interpolant: one step of size te - t from the last grid point
    def field(t, y):
        return np.array([y[1], -y[0] - 0.1 * y[1] ** 3])

    tr = integrate(
        field,
        np.array([1.0, 0.0]),
        (0.0, 10.0),
        events=[Event("turn", lambda t, y: -y[1], terminal=True)],
    )
    t_hit, y_hit = tr.events["turn"][0]
    t_prev, y_prev = tr.times[-2], tr.states[-2]
    assert np.array_equal(y_hit, _one_step(field, t_prev, y_prev, t_hit - t_prev)[0])
    assert np.array_equal(tr.states[-1], y_hit)
    assert abs(y_hit[1]) < 1e-9


def test_event_direction_filtering():
    # sin(t - 0.5) falls through zero at 0.5 + pi and rises at 0.5 + 2 pi;
    # only the falling crossing is an event
    tr = integrate(
        harmonic,
        np.array([0.0, 1.0]),
        (0.5, 9.0),
        events=[Event("down", lambda t, y: y[0], terminal=False)],
    )
    hits = [t for t, _ in tr.events["down"]]
    assert len(hits) == 1
    assert abs(hits[0] - (0.5 + np.pi)) < 1e-8


def test_nonterminal_events_record_all_crossings():
    tr = integrate(
        harmonic,
        np.array([0.0, 1.0]),
        (0.5, 20.0),
        events=[Event("zero", lambda t, y: y[0], terminal=False)],
    )
    hits = [t for t, _ in tr.events["zero"]]
    expected = [0.5 + k * np.pi for k in (1, 3, 5)]  # the falling zeros of sin(t - 0.5)
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
        events=[Event("axis", lambda t, y: y[1], terminal=True)],
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
        events=[Event("down", lambda t, y: y[0] + 0.5, terminal=True)],
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
    assert abs(t - 1.0) < 1e-9 and y.shape == (1,)
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


def _numpy_renormalized(s, u, masses):
    """The numpy composition renormalize_mcgehee's float body replaces, kept as its reference."""
    m = masses[:, None]
    mtot = float(m.sum())
    s = s - (m * s).sum(axis=0) / mtot
    c2 = float(np.sum(m * s * s))
    if not np.isfinite(c2) or c2 <= 0.0:
        raise DegenerateStateError(f"s^T M s = {c2!r}, cannot renormalize")
    s_out = s / np.sqrt(c2)
    u = u - m * (u.sum(axis=0) / mtot)
    return s_out, u - float(np.sum(u * s_out)) * (m * s_out)


def _renormalizer_scales(s, u, masses):
    """(S_s, S_u): what the rounding of the renormalizer's sums scales in each output, in
    the numpy composition's values.  A sum of k terms in another order moves by at most
    about k eps times the sum of its terms' magnitudes; s's sums are divided by sqrt(c2),
    and u's enter as the mass-weighted shift and the dot product with s."""
    m = masses[:, None]
    c = s - (m * s).sum(axis=0) / m.sum()
    scale_s = np.abs(s).max() / np.sqrt(np.sum(m * c * c))
    s_out = c / np.sqrt(np.sum(m * c * c))
    u1 = u - m * (u.sum(axis=0) / m.sum())
    m_s = np.abs(m * s_out).max()
    scale_u = (np.abs(u).max() + m.max() * np.abs(u).sum() / m.sum()
               + (np.abs(u1 * s_out).sum() + np.abs(u1).sum() * scale_s) * m_s
               + abs(np.sum(u1 * s_out)) * m.max() * scale_s)
    return scale_s, scale_u


@pytest.mark.parametrize("d", [1, 2])
def test_the_renormalizer_is_its_numpy_composition_to_rounding(rng, d):
    # n = 2...6, and 8, 9 and 65, past numpy's 8-term pairwise sums; shifted
    # shapes, masses over 6 decades, u of any scale, signed zeros, one axis flat.
    # Below 8 coordinates numpy sums left to right from +0 as the float body
    # does, bit for bit; from 8 numpy sums pairwise, and each output stays
    # within n d eps of its scale (_renormalizer_scales; at most half of that
    # over 1,800 seeded draws)
    eps = np.finfo(float).eps
    for n in [2, 3, 4, 5, 6] * 80 + [8, 9, 65] * 10:
        masses = 10.0 ** rng.uniform(-3.0, 3.0, n)
        s = rng.standard_normal((n, d)) + rng.choice([0.0, 1.0, 1e3]) * rng.standard_normal(d)
        u = rng.choice([0.0, 1e-8, 1.0, 1e4]) * rng.standard_normal((n, d))
        if rng.random() < 0.1:
            u = -0.0 * u  # zeros of both signs
        if d == 2 and rng.random() < 0.1:
            s[:, 1] = 0.0
        want = _numpy_renormalized(s, u, masses)
        got = renormalize_mcgehee(s, u, masses)
        assert [x.shape for x in got] == [(n, d)] * 2
        if n * d < 8:
            assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()
        else:
            for g, w, scale in zip(got, want, _renormalizer_scales(s, u, masses)):
                assert np.abs(g - w).max() <= n * d * eps * scale
        tail = [0.7] * int(rng.integers(2))  # a trailing physical time, kept as it is
        y = np.concatenate([[0.0, rng.standard_normal()], s.ravel(), u.ravel(), tail])
        out = mcgehee_renormalizer(MassSystem(masses), d)(y)
        ref = np.concatenate([y[:2], got[0].ravel(), got[1].ravel(), tail])
        assert out.tobytes() == ref.tobytes() and out is not y
    with pytest.raises(ValueError):
        mcgehee_renormalizer(MassSystem(masses), d)(y[: 1 + 2 * n * d])
    for bad in (np.zeros((3, d)), np.full((3, d), np.nan), np.full((3, d), np.inf)):
        with pytest.raises(DegenerateStateError) as want, np.errstate(invalid="ignore"):
            _numpy_renormalized(bad, np.ones((3, d)), np.ones(3))
        with pytest.raises(DegenerateStateError) as got:
            renormalize_mcgehee(bad, np.ones((3, d)), np.ones(3))
        assert str(got.value) == str(want.value)


def test_dense_output_meets_the_step_at_both_ends():
    t0, h, y0, y1, dense = harmonic_segment()
    assert np.array_equal(dense(t0), y0)
    assert np.abs(dense(t0 + h) - y1).max() < 1e-15


# ---------------------------------------------------------------------------
# relative equilibria: a central configuration with multiplier sigma rotates
# rigidly at omega = sqrt(-2 sigma) with momenta p = omega M J q


def rotation_defect(q, sigma, ms, pp):
    """Relative mismatch, after an eighth of a turn, between the orbit of the
    rigid-rotation initial state built from (q, sigma) and R(pi/4) q."""
    omega = np.sqrt(-2.0 * sigma)
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])  # J, rotation by +pi/2
    p = omega * ms.masses[:, None] * (q @ turn.T)
    t8 = 0.25 * np.pi / omega
    tr = integrate(cartesian_field(ms, pp, 2), np.concatenate([q.ravel(), p.ravel()]), (0.0, t8))
    rot = np.cos(np.pi / 4) * np.eye(2) + np.sin(np.pi / 4) * turn
    end = unpack_phase(tr.final_state, ms.n, 2)
    return max(
        np.abs(end.config.positions - q @ rot.T).max() / np.abs(q).max(),
        np.abs(end.momenta - p @ rot.T).max() / np.abs(p).max(),
    )


def relative_equilibria():
    """(label, q, sigma, ms): every collinear class of one seeded mass draw
    at n = 3, 4 and 5, 24 seeded classes at n = 6, and the equilateral."""
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    rng = np.random.default_rng(8)
    out = []
    for n in (3, 4, 5, 6):
        ms = random_masses(rng, n)
        results = solve_collinear_batch(*every_class(ms), pp).results()
        if n == 6:
            results = [results[i] for i in rng.choice(len(results), 24, replace=False)]
        out += [(f"n={n} {cc.ordering.perm}", lift_to_plane(cc.config), cc.sigma, ms) for cc in results]
    ms = MassSystem(np.array([1.0, 2.0, 3.0]))
    for cc in equilateral_cc(CCQuery(ms, pp)):
        out.append(("equilateral", cc.config.positions, cc.sigma, ms))
    return pp, out


def test_central_configurations_rotate_rigidly_for_an_eighth_turn():
    pp, cases = relative_equilibria()
    assert len(cases) == 3 + 12 + 60 + 24 + 2
    worst, label = max((rotation_defect(q, sigma, ms, pp), label) for label, q, sigma, ms in cases)
    assert worst < 1e-8, label
    # a multiplier off by 1% is not a relative equilibrium, and the check sees it
    for label, q, sigma, ms in cases[:1] + cases[3:4] + cases[15:16] + cases[75:76] + cases[-1:]:
        assert rotation_defect(q, 1.01 * sigma, ms, pp) > 1e-6, label


# ---------------------------------------------------------------------------
# the DOP853 tableau


def test_tableau_rows_sum_to_their_nodes():
    assert np.abs(_A.sum(axis=1) - _C).max() < 1e-14
    # row 12 is the step's result at t + h, so its stage is the next step's first
    assert _C[12] == 1.0


def test_tableau_order_conditions():
    a, b, c = _A[:12, :12], _B, _C[:12]
    # quadrature conditions through order 8
    for k in range(1, 9):
        assert abs(b @ c ** (k - 1) - 1.0 / k) < 1e-15, k
    # the remaining trees through order 4
    assert abs(b @ (a @ c) - 1.0 / 6.0) < 1e-15
    assert abs(b @ (c * (a @ c)) - 1.0 / 8.0) < 1e-15
    assert abs(b @ (a @ c**2) - 1.0 / 12.0) < 1e-15
    assert abs(b @ (a @ (a @ c)) - 1.0 / 24.0) < 1e-15
    # both error weights annihilate constants: they are differences of
    # consistent weight vectors
    assert abs(_E5.sum()) < 1e-14 and abs(_E3.sum()) < 1e-14


def test_a_degree_six_integrand_is_integrated_exactly():
    # y' = p(t) with deg p = 6: the step (order 8) and the dense output
    # (order 7) both reproduce the degree-7 solution to rounding
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 1.1, -0.9])
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()

    def field(t, y):
        return np.array([poly(t)])

    t0, h, y0 = 0.3, 0.7, np.array([exact(0.3)])
    y1, k = _one_step(field, t0, y0, h)
    assert abs(y1[0] - exact(t0 + h)) < 1e-14
    coef = _dense_coef(_on_lists(field), t0, h, y0, y1, k)
    for x in (0.1, 0.37, 0.5, 0.81, 1.0):
        assert abs(_dense_value(coef, t0, h, y0, t0 + x * h)[0] - exact(t0 + x * h)) < 1e-14, x


def test_tableau_literals_match_the_scipy_copy():
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert np.array_equal(_C, ref.C) and np.array_equal(_A, ref.A)
    assert np.array_equal(_B, ref.B) and np.array_equal(_D, ref.D)
    assert np.array_equal(_E5, ref.E5[:12]) and ref.E5[12] == 0.0
    assert np.array_equal(_E3, ref.E3[:12]) and ref.E3[12] == 0.0


def _literal_stages(field, t, y, h, k, stages):
    """k[s] for s in stages, from the tableau formula as written."""
    for s in stages:
        k[s] = field(t + _C[s] * h, y + h * (k[:s].T @ _A[s, :s]))


def _linear_fields(sizes, per_size=4):
    rng = np.random.default_rng(4242)
    for size in sizes:
        for _ in range(per_size):
            m = rng.standard_normal((size, size)) / np.sqrt(size)
            yield (lambda t, y, m=m: m @ y), rng.standard_normal(size), rng.uniform(1e-3, 0.5)


def _on_lists(field, seen=None):
    """A float body of an array field: field's values on a list, as a list.
    Each list it is given is appended to seen, when given."""

    def floats(t, z):
        if seen is not None:
            seen.append(z)
        return field(t, np.array(z)).tolist()

    return floats


def _float_bodied(field, seen=None):
    """field with a float body, _on_lists(field, seen)."""

    def twin(t, y):
        return field(t, y)

    twin.floats = _on_lists(field, seen)
    return twin


def _weighted_sum(weights, values):
    """w_j0 * v_j0 + w_j1 * v_j1 + ... over the nonzero weights w_j, left to right."""
    return functools.reduce(operator.add, [w * v for w, v in zip(weights.tolist(), values) if w])


def _literal_float_state(y, h, weights, rows):
    """A float-bodied stage state as written, one Python float at a time."""
    return [y_i + h * _weighted_sum(weights, [row[i] for row in rows]) for i, y_i in enumerate(y)]


def _literal_float_step(floats, t, y, h, k0):
    """(y1, rows) of one float-bodied step, stage by stage from the tableau."""
    rows = [k0]
    for s in range(1, 12):
        rows.append(floats(t + float(_C[s]) * h, _literal_float_state(y, h, _A[s, :s], rows)))
    return _literal_float_state(y, h, _B, rows), rows


def _literal_float_error(h, rows, y, y1, abs_tol, rel_tol):
    """The error norm of a float-bodied step, coordinate by coordinate."""
    e5 = e3 = 0.0
    for i, (a, b) in enumerate(zip(y, y1)):
        scale = abs_tol + rel_tol * max(abs(a), abs(b))
        x5, x3 = (_weighted_sum(w, [row[i] for row in rows]) / scale for w in (_E5, _E3))
        e5, e3 = e5 + x5 * x5, e3 + x3 * x3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _bytes(values):
    """The bytes of a list of Python floats, each checked to be one."""
    assert type(values) is list and all(type(x) is float for x in values)
    return np.array(values).tobytes()


def test_the_stage_loop_is_the_tableau_formula_bit_for_bit():
    # the compiled stages are the tableau's scalar formula, and the dense
    # output's numpy stages its matrix formula, bit for bit
    for field, y, h in _linear_fields(range(2, 31)):
        step, error = _float_kernel(y.size)
        floats, args = _on_lists(field), (0.3, y.tolist(), h, field(0.3, y).tolist())
        y1, rows = step(floats, *args)
        want_y1, want_rows = _literal_float_step(floats, *args)
        assert len(rows) == 12 and rows[0] is args[3]
        assert [_bytes(row) for row in rows] == [_bytes(row) for row in want_rows]
        assert _bytes(y1) == _bytes(want_y1)
        for tols in ((1e-12, 1e-10), (1e-3, 0.0), (1e-300, 1.0)):
            got = error(h, rows, args[1], y1, *tols)
            assert got.hex() == _literal_float_error(h, rows, args[1], y1, *tols).hex()
        # the dense output's three extra stages, on the step's rows
        k, ref = np.array([*rows, field(0.3 + h, np.array(y1))]), np.empty((16, y.size))
        coef = _dense_coef(floats, 0.3, h, y, np.array(y1), k)
        ref[:13] = k
        _literal_stages(field, 0.3, y, h, ref, range(13, 16))
        assert coef[3:].tobytes() == (h * (_D @ ref)).tobytes()


def test_the_float_kernels_kept_are_bounded():
    # one more state size than the bound evicts the least recently used kernel
    bound = _float_kernel.cache_info().maxsize
    for dim in range(1, bound + 2):
        _float_kernel(dim)
    assert 0 < bound < 32 and _float_kernel.cache_info().currsize == bound


def test_the_float_kernel_of_a_large_state_sums_left_to_right_across_lines():
    # 150 values: the error norm's sums of squares span three source lines
    field, y, h = next(_linear_fields([150], per_size=1))
    floats, args = _on_lists(field), (0.3, y.tolist(), h, field(0.3, y).tolist())
    step, error = _float_kernel(y.size)
    y1, rows = step(floats, *args)
    assert _bytes(y1) == _bytes(_literal_float_step(floats, *args)[0])
    got = error(h, rows, args[1], y1, 1e-12, 1e-10)
    assert got.hex() == _literal_float_error(h, rows, args[1], y1, 1e-12, 1e-10).hex()
    assert step.__code__.co_filename == "<float step dim=150>"
    assert error.__code__.co_filename == "<float error dim=150>"


def test_a_field_may_keep_every_state_it_is_given():
    # no stage state is a buffer that a later stage overwrites, nor a list
    # written again once a float body has it; a field without a float body
    # gets a fresh array of each list
    for field, y, h in _linear_fields((2, 12, 29), per_size=2):
        for lists in (False, True):
            seen = []

            def keeping(t, z, field=field):
                seen.append(z)
                return field(t, z)

            floats = _on_lists(field, seen) if lists else integrate_module._on_lists(keeping)
            k = np.empty((16, y.size))
            k[0] = field(0.0, y)
            y1, rows = _float_kernel(y.size)[0](floats, 0.0, y.tolist(), h, k[0].tolist())
            y1, k[1:12] = np.array(y1), rows[1:]
            k[12] = field(h, y1)
            # the dense output's states, handed on as lists as integrate does
            _dense_coef(floats, 0.0, h, y, y1, k[:13])
            # the dense stages' rows, recovered from the states the field kept
            k[13:] = [field(0.0, np.array(z)) for z in seen[11:]]
            assert len(seen) == 14
            for s, z in zip([*range(1, 12), *range(13, 16)], seen):
                assert type(z) is (list if lists else np.ndarray)
                if s < 12:
                    want = np.array(_literal_float_state(y.tolist(), h, _A[s, :s], k[:s].tolist()))
                else:
                    want = y + h * (k[:s].T @ _A[s, :s])
                assert np.array(z).tobytes() == want.tobytes(), s


def test_a_float_body_may_keep_every_list_it_is_given():
    # a whole run, with an event's dense output and its step: each list
    # the float body is given reads as it did on arrival
    kept = []

    def floats(t, z):
        kept.append((z, z.copy()))
        return [z[1], -z[0]]

    def field(t, y):
        return np.array(floats(t, y.tolist()))

    field.floats = floats
    down = Event("down", lambda t, y: y[0] + 0.5, terminal=True)
    tr = integrate(field, np.array([1.0, 0.0]), (0.0, 3.0), events=[down], max_step=1.0)
    assert tr.termination == "event:down"
    assert len(kept) > 100
    assert all(type(z) is list and z == copy for z, copy in kept)


def _count_errors(monkeypatch, record):
    """Call record() at each call of the error norm."""
    float_kernel = integrate_module._float_kernel

    def counted_kernel(dim):
        step, error = float_kernel(dim)

        def counted(*args):
            record()
            return error(*args)

        return step, counted

    monkeypatch.setattr(integrate_module, "_float_kernel", counted_kernel)


def _counted_run(monkeypatch, fn, y0, span, float_body, **options):
    """(trajectory, field calls, attempted steps) of one run with the given
    events or renormalizer, through fn's float body (fn's own or fn on
    lists) or through fn's array call alone; every attempt whose stages
    succeed reaches the error test once."""
    calls, attempts = [], []

    def field(t, y):
        calls.append(t)
        return fn(t, y)

    if float_body:
        body = getattr(fn, "floats", None) or _on_lists(fn)

        def floats(t, z):
            calls.append(t)
            return body(t, z)

        field.floats = floats
    _count_errors(monkeypatch, lambda: attempts.append(1))
    return integrate(field, y0, span, **options), calls, len(attempts)


@pytest.mark.parametrize("float_body", [False, True])
def test_dense_output_is_built_once_and_only_when_asked(monkeypatch, float_body):
    y0 = np.array([1.0, 0.0])
    tr, calls, attempts = _counted_run(monkeypatch, harmonic, y0, (0.0, 3.0), float_body)
    # f at t0, one probe for the first step size, 11 stages per attempted
    # step and f(t + h, y1) per accepted one: no dense output
    assert len(calls) == 2 + 11 * attempts + (len(tr.times) - 1)
    # cos t falls through -1/2 in one step: that step's dense output costs 3
    # calls however often bisection reads it, and the event's own step 11
    down = Event("down", lambda t, y: y[0] + 0.5, terminal=True)
    tr, calls, attempts = _counted_run(monkeypatch, harmonic, y0, (0.0, 3.0), float_body,
                                       events=[down])
    assert tr.termination == "event:down"
    assert len(calls) == 2 + 11 * attempts + (len(tr.times) - 1) + 3 + 11


@pytest.mark.parametrize("float_body", [False, True])
def test_a_renormalized_step_makes_one_field_call_at_its_end(monkeypatch, float_body):
    # a bound circular pair in blow-up coordinates: the end point of each
    # accepted step is projected before its one field call
    ms = MassSystem(np.array([1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    state, _ = circular_two_body(ms, pp, 1.2)
    tr, calls, attempts = _counted_run(
        monkeypatch, mcgehee_field(ms, pp), pack_mcgehee(to_mcgehee(state, ms, pp)), (0.0, 2.0),
        float_body, renormalizer=mcgehee_renormalizer(ms),
    )
    accepted = len(tr.times) - 1
    assert accepted > 10
    assert len(calls) == 2 + 11 * attempts + accepted


@pytest.mark.parametrize("float_body", [False, True])
def test_a_rejected_step_skips_the_field_call_at_its_end(monkeypatch, float_body):
    # an eccentric two-body orbit, whose pericentre passages reject steps
    ms = MassSystem(np.array([1.0, 1.0]))
    field = cartesian_field(ms, PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=0.01), 2)
    y0 = np.array([0.5, 0.0, -0.5, 0.0, 0.0, 0.3, 0.0, -0.3])
    tr, calls, attempts = _counted_run(monkeypatch, field, y0, (0.0, 3.0), float_body)
    accepted = len(tr.times) - 1
    assert attempts > accepted + 10
    assert len(calls) == 2 + 11 * attempts + accepted


@pytest.mark.parametrize(
    "failure", ["stage", "nan y1", "end raises", "nan end", "renormalizer raises"]
)
def test_each_failed_attempt_quarters_the_step(monkeypatch, failure):
    _quarters_the_step(monkeypatch, failure, lists=False)


@pytest.mark.parametrize(
    "failure", ["stage", "nan y1", "end raises", "nan end", "renormalizer raises"]
)
def test_each_failed_attempt_of_a_float_body_quarters_the_step(monkeypatch, failure):
    # the same failures through a float body, whose stages and end point
    # reach the field as lists
    _quarters_the_step(monkeypatch, failure, lists=True)


def _quarters_the_step(monkeypatch, failure, lists):
    # the third attempt fails one way; the fourth is a quarter as long
    attempts, norms = [], []
    float_kernel = integrate_module._float_kernel

    def recorded_kernel(dim):
        float_step, error = float_kernel(dim)

        def recorded_step(floats, t, y, h, f0):
            assert (floats is getattr(field, "floats", None)) == lists
            attempts.append([h, None])
            y1, rows = float_step(floats, t, y, h, f0)
            if len(attempts) == 3 and failure == "nan y1":
                y1 = [math.nan] * len(y1)
            attempts[-1][1] = y1
            return y1, rows

        return recorded_step, error

    def field(t, y):
        if len(attempts) != 3:
            return harmonic(t, y)
        y1 = attempts[2][1]
        if failure == "stage" and y1 is None:
            raise CollisionError("stage")
        if y1 is not None and np.array_equal(y, y1):
            if failure == "end raises":
                raise CollisionError("end point")
            if failure == "nan end":
                return np.full_like(y, np.nan)
        return harmonic(t, y)

    def renormalizer(y):
        if len(attempts) == 3:
            raise CollisionError("projection")
        return y

    if lists:
        field.floats = lambda t, z: field(t, np.array(z)).tolist()
    monkeypatch.setattr(integrate_module, "_float_kernel", recorded_kernel)
    _count_errors(monkeypatch, lambda: norms.append(len(attempts)))
    projected = {"renormalizer": renormalizer} if failure == "renormalizer raises" else {}
    tr = integrate(field, np.array([1.0, 0.0]), (0.0, 3.0), **projected)
    assert attempts[3][0] == 0.25 * attempts[2][0]
    # a non-finite y1 never reaches the error test; a failed end point does
    assert (3 in norms) == (failure in ("end raises", "nan end", "renormalizer raises"))
    assert tr.times[-1] == 3.0


def test_events_after_a_terminal_one_in_the_same_step_are_dropped():
    # y' = 1 from 0: one accepted step crosses y = 0.5 and y = 0.7.  The
    # terminal event at 0.5 comes first, so the tie at the same time is
    # recorded and the event at 0.7, located in that step, is not
    later_values = []

    def later(t, y):
        later_values.append(0.7 - y[0])
        return later_values[-1]

    events = [Event("stop", lambda t, y: 0.5 - y[0], terminal=True),
              Event("tie", lambda t, y: 0.5 - y[0], terminal=False),
              Event("later", later, terminal=False)]
    tr = integrate(lambda t, y: np.ones(1), np.zeros(1), (0.0, 10.0), max_step=10.0,
                   events=events)
    assert tr.termination == "event:stop"
    assert min(later_values) <= 0.0  # the step that ended the run crossed 0.7 too
    (te, ye), = tr.events["stop"]
    assert abs(te - 0.5) <= 1e-9 and tr.times[-1] == te
    assert [hit[0] for hit in tr.events["tie"]] == [te]
    assert tr.events["later"] == []


@pytest.mark.parametrize("float_body", [False, True])
def test_each_accepted_step_ends_with_the_field_at_the_projected_state(float_body):
    # a spiral pulled back onto the unit circle at each step: the one field
    # call at t + h reads the stored, projected state, not the raw y1
    calls = set()

    def field(t, y):
        calls.add((t, y.tobytes()))
        return np.array([y[1] + 0.1 * y[0], 0.1 * y[1] - y[0]])

    fn = _float_bodied(field) if float_body else field
    tr = integrate(fn, np.array([1.0, 0.0]), (0.0, 2.0),
                   renormalizer=lambda y: y / np.linalg.norm(y))
    assert len(tr.times) > 10
    for t, y in zip(tr.times[1:], tr.states[1:]):
        assert (t, y.tobytes()) in calls


def test_a_stage_state_past_the_float_range_ends_alike_with_or_without_a_float_body():
    # y' = 1e300 from 0 in steps that grow tenfold: once the stage states
    # pass the float range each attempt fails as a non-finite step and is
    # quartered until the step underflows.  The stage states are Python
    # floats with or without a float body, which overflow to inf without a
    # word, so both runs end alike, with an array state, and neither warns
    def field(t, y):
        return np.full(1, 1e300)

    ends = []
    for fn in (field, _float_bodied(field)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StiffnessError, match="h underflow: non-finite step$") as info:
                integrate(fn, np.zeros(1), (0.0, 1e10), rel_tol=0.0, abs_tol=1e300)
        state = info.value.state
        assert type(state) is np.ndarray and state.shape == (1,) and np.isfinite(state).all()
        ends.append((info.value.t.hex(), state.tobytes(), [str(w.message) for w in caught]))
    assert ends[0] == ends[1]
    assert ends[0][2] == []


def test_a_scalar_field_value_broadcasts_to_the_state():
    # as numpy broadcasts it into a stage row
    tr = integrate(lambda t, y: -y[0], np.array([1.0]), (0.0, 1.0))
    assert tr.states.shape == (len(tr.times), 1) and len(tr.times) > 3
    assert abs(tr.final_state[0] - np.exp(-1.0)) < 1e-9


def _bodies_called(field_fn, y0, **options):
    """The entry of field_fn that each field call of a run reached, "array"
    (the array call) or "list" (the float body), in call order, and how
    the run ended."""
    calls = []

    def field(t, y):
        calls.append("array")
        return field_fn(t, y)

    if hasattr(field_fn, "floats"):
        def floats(t, z):
            calls.append("list")
            return field_fn.floats(t, z)

        field.floats = floats
    return calls, integrate(field, y0, (0.0, 0.1), **options).termination


@pytest.mark.parametrize("n, d", [(2, 1), (2, 2), (3, 2), (4, 2), (4, 1), (5, 2), (6, 1)])
def test_every_field_steps_in_the_float_kernel_on_its_float_body_when_it_has_one(
        monkeypatch, n, d):
    # the Cartesian field has a float body at every shape.  A float body
    # gets every call, f at t0 and the first step's probe included; a field
    # without one gets each call on an array; an event's step and dense
    # output go the same way
    ms = MassSystem(np.arange(1.0, n + 1.0))
    field = cartesian_field(ms, PotentialParams(a=1.0, b=1.5, alpha=1.0, beta=0.5), d)
    y0 = np.concatenate([np.arange(n * d, dtype=float), np.zeros(n * d)])
    assert callable(field.floats)
    down = Event("down", lambda t, y: y[0] - 0.999, terminal=True)
    runs = [(field, y0, {}), (harmonic, np.array([1.0, 0.0]), {"events": [down]}),
            (_float_bodied(harmonic), np.array([1.0, 0.0]), {"events": [down]})]
    kernels, float_kernel = [], integrate_module._float_kernel
    monkeypatch.setattr(integrate_module, "_float_kernel",
                        lambda dim: kernels.append(dim) or float_kernel(dim))
    for fn, start, options in runs:
        calls, end = _bodies_called(fn, start, **options)
        body = "list" if hasattr(fn, "floats") else "array"
        assert len(calls) > 20 and calls == [body] * len(calls)
        assert end == ("time-budget" if fn is field else "event:down")
    assert kernels == [2 * n * d, 2, 2]


def test_a_float_bodied_run_that_fails_raises_with_an_array_state(monkeypatch):
    # the float kernel carries lists, but StiffnessError.state is an array,
    # as in the array kernel (qh simulate reads it with split_phase)
    ends = []
    for fn in (lambda t, y: y * y, _float_bodied(lambda t, y: y * y)):
        with pytest.raises(StiffnessError, match="^step size underflow at t = ") as info:
            integrate(fn, np.array([1.0]), (0.0, 2.0))
        ends.append(info.value)
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 3)
    with pytest.raises(StiffnessError, match="^step budget exhausted at t = ") as info:
        integrate(_float_bodied(harmonic), np.array([1.0, 0.0]), (0.0, 10.0))
    ends.append(info.value)
    for end in ends:
        assert type(end.state) is np.ndarray and end.state.dtype == float
    assert ends[0].state.shape == ends[1].state.shape == (1,) and ends[2].state.shape == (2,)
    # y' = y^2 from 1 blows up at t = 1 in either kernel
    assert all(abs(end.t - 1.0) < 1e-9 and end.state[0] > 1e6 for end in ends[:2])


def test_a_step_budget_that_runs_out_is_a_stiffness_error(monkeypatch):
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 3)
    with pytest.raises(StiffnessError, match="^step budget exhausted at t = ") as info:
        integrate(harmonic, np.array([1.0, 0.0]), (0.0, 10.0))
    assert 0.0 < info.value.t < 10.0 and info.value.state.shape == (2,)


def test_a_field_that_keeps_failing_is_a_stiffness_error():
    # past t = 0.5 every evaluation raises a numerical error, so each
    # attempt quarters the step until it underflows at the last accepted t
    def field(t, y):
        if t > 0.5:
            raise CollisionError("too close")
        return -y

    with pytest.raises(StiffnessError, match="with h underflow: too close$") as info:
        integrate(field, np.array([1.0]), (0.0, 1.0))
    assert 0.5 - 1e-12 <= info.value.t <= 0.5


# ---------------------------------------------------------------------------
# a field's float body against its array entry, whole runs


def _array_path(field_fn):
    """field_fn's array entry alone, without its float body: integrate calls
    it at an array of each list, so a run through each compares body and
    entry."""
    assert callable(field_fn.floats)
    return lambda t, y: field_fn(t, y)


def _run_bytes(tr):
    """Everything a trajectory holds, as bytes and strings."""
    events = {name: [(te.hex(), ye.tobytes()) for te, ye in hits]
              for name, hits in tr.events.items()}
    residuals = {name: series.tobytes() for name, series in tr.conserved_residuals.items()}
    return tr.times.tobytes(), tr.states.tobytes(), tr.termination, events, residuals


def _simulate_starts():
    """The orbits of qh simulate: two bodies at apocentre, e = 0.25, and a
    circular inner binary with a third body on a wide circular orbit."""
    speed = np.sqrt(2.0 * 0.75)
    yield [1.0, 1.0], [[0.5, 0.0], [-0.5, 0.0]], [[0.0, 0.5 * speed], [0.0, -0.5 * speed]]
    m, dist = np.array([0.8, 1.2, 0.9]), 6.0
    inner, big = m[0] + m[1], m.sum()
    p_in = m[0] * m[1] / inner * np.array([0.0, np.sqrt(inner)])
    p_out = inner * m[2] / big * np.array([0.0, np.sqrt(big / dist)])
    c_in = -m[2] / big * np.array([dist, 0.0])
    pos = [c_in + [m[1] / inner, 0.0], c_in - [m[0] / inner, 0.0], [inner / big * dist, 0.0]]
    yield m, pos, [p_in - p_out * m[0] / inner, -p_in - p_out * m[1] / inner, p_out]


def test_simulate_orbits_are_the_array_path_s_bit_for_bit():
    pp = PotentialParams(a=1.0, b=1.5, alpha=1.0, beta=0.5)
    for masses, pos, mom in _simulate_starts():
        ms = MassSystem(np.array(masses))
        r, p = np.array(pos), np.array(mom)
        n = ms.n
        h0, l0 = energy_series(r, p, ms, pp), angular_momentum_series(r, p)

        def energy(times, states):
            return np.abs(energy_series(*split_phase(states, n, 2), ms, pp) - h0)

        def angmom(times, states):
            return np.abs(angular_momentum_series(*split_phase(states, n, 2)) - l0)

        field = cartesian_field(ms, pp, 2)
        runs = [_run_bytes(integrate(fn, np.concatenate([r.ravel(), p.ravel()]), (0.0, 4.0),
                                     monitors={"energy": energy, "angular_momentum": angmom}))
                for fn in (field, _array_path(field))]
        assert runs[0] == runs[1]
        assert len(runs[0][0]) > 8 * 50


@pytest.fixture
def array_path_of(monkeypatch):
    """Make the integrate calls of a module use their fields' array entries alone."""

    def strip(module):
        def stripped(field_fn, *args, **kwargs):
            return integrate(_array_path(field_fn), *args, **kwargs)

        monkeypatch.setattr(module, "integrate", stripped)

    return strip


def test_a_four_body_collision_flow_is_the_array_path_s_bit_for_bit(array_path_of):
    # renormalized steps and both events, until separation ends the flow
    ms = MassSystem(np.array([1.0, 2.0, 3.0, 4.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    shape = collision_flow.pure_b_shapes(ms, pp.b, [("collinear", Ordering((1, 2, 3, 4)))])[0]
    st0 = collision_flow.manifold_start(shape.config, ms, pp, 0.05, seed=3)
    fast = collision_flow.integrate_on_C(st0, ms, pp, tau_max=1.0)
    array_path_of(collision_flow)
    slow = collision_flow.integrate_on_C(st0, ms, pp, tau_max=1.0)
    assert fast.termination == "event:separation"
    assert _run_bytes(fast) == _run_bytes(slow)


def test_a_homothetic_orbit_is_the_array_path_s_bit_for_bit(array_path_of):
    ms = MassSystem(np.array([1.0, 1.0, 1.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    s0 = equilateral_configuration(ms)[0]
    fast = homothetic.heteroclinic_orbit(s0, ms, pp, -1.0)
    array_path_of(homothetic)
    slow = homothetic.heteroclinic_orbit(s0, ms, pp, -1.0)
    assert fast.termination == "event:floor" and len(fast.trajectory.events["turn"]) == 1
    assert _run_bytes(fast.trajectory) == _run_bytes(slow.trajectory)


def _fails_at(call, error):
    """The field -y, whose call number call raises error."""
    calls = []

    def field(t, y):
        calls.append(t)
        if len(calls) == call:
            raise error
        return -y

    return field


@pytest.mark.parametrize("field, error, quantity", [
    # the initial step's probe, the second call, collides: the probe is read as an
    # infinite second derivative, which leaves no step to take
    (_fails_at(2, CollisionError("probe inside the guard")), StiffnessError,
     "step size underflow at t = 0.0"),
    # a FieldError at t0 passes through as raised, not wrapped
    (_fails_at(1, FieldError("the field's own message")), FieldError, "the field's own message"),
], ids=["initial step probe", "field error at t0"])
def test_a_field_error_at_the_start_raises_its_error_naming_its_quantity(field, error, quantity):
    with pytest.raises(error, match=f"^{re.escape(quantity)}") as exc:
        integrate(field, np.array([1.0, 2.0]), (0.0, 1.0))
    assert exc.value.__cause__ is None
