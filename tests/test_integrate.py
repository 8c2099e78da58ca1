"""Integrator accuracy, dense output, events, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circular_two_body, every_class, random_masses
from qhnbody import integrate as integrate_module
from qhnbody.central_config import CCQuery, equilateral_cc, solve_collinear_batch
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
    _step,
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
    cartesian_field,
    hamiltonian,
    lift_to_plane,
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
    # each error is below its tolerance, and each 1000x tighter tolerance
    # cuts the error at least 100x
    assert all(err < rtol for err, rtol in zip(errs, (1e-5, 1e-8, 1e-11)))
    assert errs[1] < 1e-2 * errs[0] and errs[2] < 1e-2 * errs[1]


def harmonic_segment(t0=0.3, h=0.25):
    """One step of the harmonic oscillator y = (cos t, -sin t): (t0, h, y0, y1)
    and its dense output as a function of t."""
    y0 = np.array([np.cos(t0), -np.sin(t0)])
    k = np.empty((13, 2))
    k[0] = harmonic(t0, y0)
    y1 = _step(harmonic, t0, y0, h, k)
    k[12] = harmonic(t0 + h, y1)
    coef = _dense_coef(harmonic, t0, h, y0, y1, k)
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
    k = np.empty((12, 2))
    k[0] = field(t_prev, y_prev)
    assert np.array_equal(y_hit, _step(field, t_prev, y_prev, t_hit - t_prev, k))
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


@pytest.mark.parametrize("d", [1, 2])
def test_the_renormalizer_is_its_numpy_composition_bit_for_bit(rng, d):
    # n = 2...6, and 9 and 65 past numpy's 8-term pairwise sums; shifted
    # shapes, masses over 6 decades, u of any scale, signed zeros, one axis flat
    for n in [2, 3, 4, 5, 6] * 80 + [9, 65] * 10:
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
        assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()
        tail = [0.7] * int(rng.integers(2))  # a trailing physical time, kept as it is
        y = np.concatenate([[0.0, rng.standard_normal()], s.ravel(), u.ravel(), tail])
        out = mcgehee_renormalizer(MassSystem(masses), d)(y)
        ref = np.concatenate([y[:2], want[0].ravel(), want[1].ravel(), tail])
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
    k = np.empty((13, 1))
    k[0] = field(t0, y0)
    y1 = _step(field, t0, y0, h, k)
    assert abs(y1[0] - exact(t0 + h)) < 1e-14
    k[12] = field(t0 + h, y1)
    coef = _dense_coef(field, t0, h, y0, y1, k)
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


def test_the_stage_loop_is_the_tableau_formula_bit_for_bit():
    for field, y, h in _linear_fields(range(2, 31)):
        k, ref = np.empty((13, y.size)), np.empty((16, y.size))
        k[0] = ref[0] = field(0.3, y)
        y1 = _step(field, 0.3, y, h, k)
        _literal_stages(field, 0.3, y, h, ref, range(1, 12))
        assert k[:12].tobytes() == ref[:12].tobytes()
        assert y1.tobytes() == (y + h * (ref[:12].T @ _B)).tobytes()
        # the dense output's three extra stages use the same loop
        k[12] = ref[12] = field(0.3 + h, y1)
        coef = _dense_coef(field, 0.3, h, y, y1, k)
        _literal_stages(field, 0.3, y, h, ref, range(13, 16))
        assert coef[3:].tobytes() == (h * (_D @ ref)).tobytes()


def test_a_field_may_keep_every_state_it_is_given():
    # no stage state is a buffer that a later stage overwrites
    for field, y, h in _linear_fields((2, 12, 29), per_size=2):
        seen = []

        def keeping(t, z, field=field):
            seen.append(z)
            return field(t, z)

        k = np.empty((16, y.size))
        k[0] = field(0.0, y)
        y1 = _step(keeping, 0.0, y, h, k[:13])
        k[12] = field(h, y1)
        _dense_coef(keeping, 0.0, h, y, y1, k[:13])
        # the dense stages' rows, recovered from the states the field kept
        k[13:] = [field(0.0, z) for z in seen[11:]]
        assert len(seen) == 14
        for s, z in zip([*range(1, 12), *range(13, 16)], seen):
            assert np.array_equal(z, y + h * (k[:s].T @ _A[s, :s])), s


def _counted_run(monkeypatch, fn, y0, span, **options):
    """(trajectory, field calls, attempted steps) of one run with the given
    events or renormalizer; every attempt whose stages succeed reaches the
    error test once."""
    calls, attempts = [], []
    error_norm = integrate_module._error_norm

    def counted_norm(*args):
        attempts.append(1)
        return error_norm(*args)

    def field(t, y):
        calls.append(t)
        return fn(t, y)

    monkeypatch.setattr(integrate_module, "_error_norm", counted_norm)
    return integrate(field, y0, span, **options), calls, len(attempts)


def test_dense_output_is_built_once_and_only_when_asked(monkeypatch):
    y0 = np.array([1.0, 0.0])
    tr, calls, attempts = _counted_run(monkeypatch, harmonic, y0, (0.0, 3.0))
    # f at t0, one probe for the first step size, 11 stages per attempted
    # step and f(t + h, y1) per accepted one: no dense output
    assert len(calls) == 2 + 11 * attempts + (len(tr.times) - 1)
    # cos t falls through -1/2 in one step: that step's dense output costs 3
    # calls however often bisection reads it, and the event's own step 11
    down = Event("down", lambda t, y: y[0] + 0.5, terminal=True)
    tr, calls, attempts = _counted_run(monkeypatch, harmonic, y0, (0.0, 3.0), events=[down])
    assert tr.termination == "event:down"
    assert len(calls) == 2 + 11 * attempts + (len(tr.times) - 1) + 3 + 11


def test_a_renormalized_step_makes_one_field_call_at_its_end(monkeypatch):
    # a bound circular pair in blow-up coordinates: the end point of each
    # accepted step is projected before its one field call
    ms = MassSystem(np.array([1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    state, _ = circular_two_body(ms, pp, 1.2)
    tr, calls, attempts = _counted_run(
        monkeypatch, mcgehee_field(ms, pp), pack_mcgehee(to_mcgehee(state, ms, pp)), (0.0, 2.0),
        renormalizer=mcgehee_renormalizer(ms),
    )
    accepted = len(tr.times) - 1
    assert accepted > 10
    assert len(calls) == 2 + 11 * attempts + accepted


def test_a_rejected_step_skips_the_field_call_at_its_end(monkeypatch):
    # an eccentric two-body orbit, whose pericentre passages reject steps
    ms = MassSystem(np.array([1.0, 1.0]))
    field = cartesian_field(ms, PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=0.01), 2)
    y0 = np.array([0.5, 0.0, -0.5, 0.0, 0.0, 0.3, 0.0, -0.3])
    tr, calls, attempts = _counted_run(monkeypatch, field, y0, (0.0, 3.0))
    accepted = len(tr.times) - 1
    assert attempts > accepted + 10
    assert len(calls) == 2 + 11 * attempts + accepted


@pytest.mark.parametrize(
    "failure", ["stage", "nan y1", "end raises", "nan end", "renormalizer raises"]
)
def test_each_failed_attempt_quarters_the_step(monkeypatch, failure):
    # the third attempt fails one way; the fourth is a quarter as long
    attempts, norms = [], []
    step, error_norm = integrate_module._step, integrate_module._error_norm

    def recorded_step(fn, t, y, h, k):
        attempts.append([h, None])
        y1 = step(fn, t, y, h, k)
        if len(attempts) == 3 and failure == "nan y1":
            y1 = np.full_like(y1, np.nan)
        attempts[-1][1] = y1
        return y1

    def counted_norm(*args):
        norms.append(len(attempts))
        return error_norm(*args)

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

    monkeypatch.setattr(integrate_module, "_step", recorded_step)
    monkeypatch.setattr(integrate_module, "_error_norm", counted_norm)
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
