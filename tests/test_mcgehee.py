"""Blow-up coordinates: round trips, constraints, field consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_config, random_masses
from qhnbody.errors import ManevOnlyError, ZeroSizeError
from qhnbody.integrate import integrate
from qhnbody.mcgehee import (
    McGeheeState,
    collision_manifold_residual,
    energy_residual,
    from_mcgehee,
    mcgehee_field,
    mcgehee_renormalizer,
    pack_mcgehee,
    split_mcgehee,
    to_mcgehee,
    unpack_mcgehee,
    vector_field,
)
from qhnbody.central_config import equilateral_configuration
from qhnbody.model import (
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    cartesian_field,
    hamiltonian,
    mass_inner,
    pack_phase,
    pair_terms,
    potential_terms,
    unpack_phase,
)

MS = MassSystem(np.array([1.0, 2.0, 3.0]))
PP = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)


def random_phase(rng, ms, dim=2, momentum_scale=1.0):
    r = random_config(rng, ms.n, dim=dim)
    p = momentum_scale * rng.standard_normal((ms.n, dim))
    p -= p.mean(axis=0)
    return PhaseState(config=Configuration(r), momenta=p)


# ---------------------------------------------------------------------------
# transform and its inverse


def test_blowup_satisfies_constraints(rng):
    for _ in range(10):
        st_ = to_mcgehee(random_phase(rng, MS), MS, PP)
        assert abs(mass_inner(st_.s, st_.s, MS) - 1.0) < 1e-13
        assert abs(float(np.sum(st_.u * st_.s))) < 1e-12


def test_round_trip_is_identity(rng):
    for dim in (1, 2):
        for _ in range(8):
            z = random_phase(rng, MS, dim=dim)
            back = from_mcgehee(to_mcgehee(z, MS, PP), MS, PP)
            assert np.abs(back.config.positions - z.config.positions).max() < 1e-12
            assert np.abs(back.momenta - z.momenta).max() < 1e-12


def test_reverse_round_trip_from_blown_up_side(rng):
    s = random_config(rng, 3)
    s = s / np.sqrt(mass_inner(s, s, MS))
    u = rng.standard_normal((3, 2))
    u -= np.sum(u * s) / np.sum(s * s) * s  # plain-dot orthogonalization
    st_ = McGeheeState(rho=0.7, v=-0.3, s=s, u=u)
    again = to_mcgehee(from_mcgehee(st_, MS, PP), MS, PP)
    assert abs(again.rho - st_.rho) < 1e-13
    assert abs(again.v - st_.v) < 1e-12
    assert np.abs(again.s - st_.s).max() < 1e-13
    assert np.abs(again.u - st_.u).max() < 1e-12


def test_purely_radial_motion_has_zero_u(rng):
    r = random_config(rng, 3)
    # momenta proportional to M s give a homothetic (shape-frozen) velocity
    p = 0.8 * MS.masses[:, None] * r
    st_ = to_mcgehee(PhaseState(config=Configuration(r), momenta=p), MS, PP)
    assert np.abs(st_.u).max() < 1e-12
    assert st_.v > 0.0


def test_rho_is_the_mass_norm_of_positions(rng):
    z = random_phase(rng, MS)
    st_ = to_mcgehee(z, MS, PP)
    assert abs(st_.rho - np.sqrt(mass_inner(z.config.positions, z.config.positions, MS))) < 1e-13


# ---------------------------------------------------------------------------
# energy relation


def test_energy_relation_holds_after_blowup(rng):
    for _ in range(10):
        z = random_phase(rng, MS)
        h = hamiltonian(z, MS, PP)
        st_ = to_mcgehee(z, MS, PP)
        assert abs(energy_residual(st_, h, MS, PP)) < 1e-11


def test_energy_residual_detects_wrong_level(rng):
    z = random_phase(rng, MS)
    h = hamiltonian(z, MS, PP)
    st_ = to_mcgehee(z, MS, PP)
    wrong = energy_residual(st_, h + 1.0, MS, PP)
    assert abs(wrong + st_.rho**PP.b) < 1e-12


def test_collision_manifold_membership():
    config, _ = equilateral_configuration(MS)
    s = config.positions
    _, v_s = potential_terms(s, MS, PP)
    st_ = McGeheeState(rho=0.0, v=-np.sqrt(2.0 * v_s), s=s, u=np.zeros_like(s))
    assert abs(collision_manifold_residual(st_, MS, PP)) < 1e-13
    off = McGeheeState(rho=0.0, v=0.0, s=s, u=np.zeros_like(s))
    assert abs(collision_manifold_residual(off, MS, PP)) > 1e-9


# ---------------------------------------------------------------------------
# the blown-up field is the pushforward of the Cartesian one


def test_field_matches_pushforward_of_cartesian_flow(rng):
    n, dim = 3, 2
    cart = cartesian_field(MS, PP)
    mc_field = mcgehee_field(MS, PP, dim=dim)
    for _ in range(5):
        z = random_phase(rng, MS)
        y = pack_phase(z)
        f = cart(0.0, y)
        dt = 1e-6
        plus = to_mcgehee(unpack_phase(y + dt * f, n, dim), MS, PP)
        minus = to_mcgehee(unpack_phase(y - dt * f, n, dim), MS, PP)
        ddt = (pack_mcgehee(plus) - pack_mcgehee(minus)) / (2.0 * dt)
        st_ = to_mcgehee(z, MS, PP)
        # d/dtau = rho^(1 + b/2) d/dt
        expected = st_.rho ** (1.0 + PP.b / 2.0) * ddt
        got = mc_field(0.0, pack_mcgehee(st_))
        scale = np.abs(expected).max() + 1.0
        assert np.abs(got - expected).max() / scale < 1e-7


def test_field_vector_form_agrees_with_flat_form(rng):
    z = random_phase(rng, MS)
    st_ = to_mcgehee(z, MS, PP)
    rho_d, v_d, s_d, u_d = vector_field(st_, MS, PP)
    flat = mcgehee_field(MS, PP)(0.0, pack_mcgehee(st_))
    assert abs(flat[0] - rho_d) < 1e-15
    assert abs(flat[1] - v_d) < 1e-15
    assert np.abs(flat[2:8].reshape(3, 2) - s_d).max() < 1e-15
    assert np.abs(flat[8:14].reshape(3, 2) - u_d).max() < 1e-15


def test_with_time_component_integrates_physical_time(rng):
    z = random_phase(rng, MS)
    st_ = to_mcgehee(z, MS, PP)
    field = mcgehee_field(MS, PP, with_time=True)
    out = field(0.0, pack_mcgehee(st_, t=5.0))
    assert abs(out[-1] - st_.rho ** (1.0 + PP.b / 2.0)) < 1e-14
    zero = McGeheeState(rho=0.0, v=st_.v, s=st_.s, u=st_.u)
    assert field(0.0, pack_mcgehee(zero, t=0.0))[-1] == 0.0


# ---------------------------------------------------------------------------
# guard rails


def test_blowup_requires_unit_inner_exponent():
    bad = PotentialParams(a=0.5, b=3.0, alpha=1.0, beta=1.0)
    z = PhaseState(
        config=Configuration(np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])),
        momenta=np.zeros((3, 2)),
    )
    with pytest.raises(ManevOnlyError):
        to_mcgehee(z, MS, bad)
    st_ = to_mcgehee(z, MS, PP)
    with pytest.raises(ManevOnlyError):
        from_mcgehee(st_, MS, bad)
    with pytest.raises(ManevOnlyError):
        vector_field(st_, MS, bad)
    with pytest.raises(ManevOnlyError):
        mcgehee_field(MS, bad)


def test_zero_size_rejected_both_ways():
    z = PhaseState(config=Configuration(np.zeros((3, 2))), momenta=np.zeros((3, 2)))
    with pytest.raises(ZeroSizeError):
        to_mcgehee(z, MS, PP)
    config, _ = equilateral_configuration(MS)
    st_ = McGeheeState(
        rho=0.0, v=0.0, s=config.positions, u=np.zeros((3, 2))
    )
    with pytest.raises(ZeroSizeError):
        from_mcgehee(st_, MS, PP)


def test_state_validation():
    s = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError):
        McGeheeState(rho=-0.1, v=0.0, s=s, u=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        McGeheeState(rho=0.0, v=np.nan, s=s, u=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        McGeheeState(rho=0.0, v=0.0, s=s, u=np.zeros((2, 2)))
    st_ = McGeheeState(rho=0.0, v=0.0, s=s, u=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        st_.s[0, 0] = 1.0


def test_pack_unpack_round_trip(rng):
    z = random_phase(rng, MS)
    st_ = to_mcgehee(z, MS, PP)
    back = unpack_mcgehee(pack_mcgehee(st_), 3, 2)
    assert back.rho == st_.rho and back.v == st_.v
    assert np.array_equal(back.s, st_.s) and np.array_equal(back.u, st_.u)


@pytest.mark.parametrize("n, dim, t", [(2, 1, None), (3, 2, None), (4, 2, 0.7)])
def test_split_mcgehee_inverts_pack_mcgehee_and_reads_a_series_row_by_row(rng, n, dim, t):
    states = [McGeheeState(rho=float(rng.uniform(0.0, 2.0)), v=float(rng.standard_normal()),
                           s=rng.standard_normal((n, dim)), u=rng.standard_normal((n, dim)))
              for _ in range(6)]
    series = np.stack([pack_mcgehee(st_, t) for st_ in states])
    whole = split_mcgehee(series, n, dim)
    assert [part.shape for part in whole] == [(6,), (6,), (6, n, dim), (6, n, dim)]
    assert all(np.shares_memory(part, series) for part in whole)
    for k, (st_, y) in enumerate(zip(states, series)):
        rho, v, s, u = split_mcgehee(y, n, dim)  # a trailing t is not read
        assert rho == st_.rho and v == st_.v
        assert np.array_equal(s, st_.s) and np.array_equal(u, st_.u)
        assert np.shares_memory(s, y) and np.shares_memory(u, y)
        for part, row_part in zip(whole, (rho, v, s, u)):
            assert np.array_equal(part[k], row_part)


# ---------------------------------------------------------------------------
# the boundary rho = 0 is invariant, exactly, under the discrete flow


def test_rho_zero_is_exactly_invariant():
    config, _ = equilateral_configuration(MS)
    s = config.positions
    _, v_s = potential_terms(s, MS, PP)
    # start on the collision manifold but away from equilibrium
    rng = np.random.default_rng(7)
    u = rng.standard_normal((3, 2)) * 0.05
    u -= MS.masses[:, None] * (u.sum(axis=0) / MS.masses.sum())
    u -= float(np.sum(u * s)) * (MS.masses[:, None] * s)
    u_m_u = float(np.sum(u * u / MS.masses[:, None]))
    v = -np.sqrt(2.0 * v_s - u_m_u)
    st0 = McGeheeState(rho=0.0, v=v, s=s, u=u)
    rhos = []
    tr = integrate(
        mcgehee_field(MS, PP),
        pack_mcgehee(st0),
        (0.0, 0.4),
        renormalizer=mcgehee_renormalizer(MS),
        monitors={"rho": lambda ts, ys: ys[:, 0]},
    )
    rhos = tr.conserved_residuals["rho"]
    assert len(rhos) > 5
    assert all(r == 0.0 for r in rhos)
    assert tr.final_state[0] == 0.0


def test_renormalizer_bounds_constraint_drift():
    # a safely bound circular pair keeps the blown-up flow smooth for a while
    from conftest import circular_two_body

    ms2 = MassSystem(np.array([1.0, 2.0]))
    z, _ = circular_two_body(ms2, PP, 1.2)
    st0 = to_mcgehee(z, ms2, PP)

    def sphere_defect(t, y):
        s = y[2:6].reshape(2, 2)
        return abs(mass_inner(s, s, ms2) - 1.0)

    def ortho_defect(t, y):
        s = y[2:6].reshape(2, 2)
        u = y[6:10].reshape(2, 2)
        return abs(float(np.sum(u * s)))

    tr = integrate(
        mcgehee_field(ms2, PP),
        pack_mcgehee(st0),
        (0.0, 2.0),
        renormalizer=mcgehee_renormalizer(ms2),
        monitors={
            "sphere": lambda ts, ys: [sphere_defect(t, y) for t, y in zip(ts, ys)],
            "ortho": lambda ts, ys: [ortho_defect(t, y) for t, y in zip(ts, ys)],
        },
    )
    assert tr.termination == "time-budget"
    assert max(tr.conserved_residuals["sphere"]) < 1e-12
    assert max(tr.conserved_residuals["ortho"]) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=2.1, max_value=4.0))
def test_energy_relation_is_invariant_of_the_transform(seed, b):
    rng = np.random.default_rng(seed)
    ms = random_masses(rng, 3)
    pp = PotentialParams(a=1.0, b=b, alpha=1.0, beta=1.0)
    z = random_phase(rng, ms)
    h = hamiltonian(z, ms, pp)
    assert abs(energy_residual(to_mcgehee(z, ms, pp), h, ms, pp)) < 1e-9


def _centred_state(rng, n):
    """Masses, s and u on dyadic grids with sum m s = 0 and sum u = 0 exactly:
    the last body's mass is a power of 2 and its s and u close the sums."""
    while True:
        m = np.append(rng.integers(1, 17, n - 1) / 4.0, 2.0 ** rng.integers(-1, 2))
        s = np.round(random_config(rng, n, 2) * 1024.0) / 1024.0
        u = np.round(rng.standard_normal((n, 2)) * 1024.0) / 1024.0
        s[-1] = -(m[:-1, None] * s[:-1]).sum(axis=0) / m[-1]
        u[-1] = -u[:-1].sum(axis=0)
        i, j = np.triu_indices(n, 1)
        if np.linalg.norm(s[i] - s[j], axis=1).min() >= 0.1:
            return MassSystem(m), s, u


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_blown_up_field_keeps_its_symmetries(rng, n):
    # oracle-free checks on both sides of the float pass (n <= 3), at rho = 0
    # and rho > 0.  Tolerances count ulps of L, the largest sum of the
    # magnitudes of the terms that make one entry of v' or u' (for the
    # gradients, the pair-force sums), the scale of the entry's rounding.
    for _ in range(10):
        ms, s, u = _centred_state(rng, n)
        m = ms.masses[:, None]
        b = float(rng.choice([1.5, 3.0, 7.0]))
        pp = PotentialParams(a=1.0, b=b, alpha=1.0, beta=0.5)
        rho, v = float(rng.choice([0.0, rng.uniform(0.1, 2.0)])), float(rng.standard_normal())
        field = mcgehee_field(ms, pp, 2)
        out = field(0.0, np.concatenate([[rho, v], s.ravel(), u.ravel()]))
        s_d, u_d = out[2 : 2 + 2 * n].reshape(n, 2), out[2 + 2 * n :].reshape(n, 2)
        t = pair_terms(s, ms, pp)
        u_m_u = float(np.sum(u * u / m))
        rho_pow = rho ** (b - 1.0) if rho > 0.0 else 0.0
        l_v = 0.5 * b * v * v + u_m_u + rho_pow * t.W + b * t.V
        m_s, force = m * np.abs(s), t.force_sum[:, None]
        l_u = float((abs((0.5 * b - 1.0) * v) * np.abs(u) + u_m_u * m_s
                     + rho_pow * (t.W * m_s + force) + b * t.V * m_s + force).max())
        # sum m s = 0 and sum u = 0 make the u' sum to zero (the gradients
        # cancel in pairs); each entry rounds at the size of its own L
        net = max(abs(math.fsum(u_d[:, k])) for k in range(2))
        assert net <= n * np.spacing(l_u)
        # rotation by theta: rho' is rho v, bit for bit; s' = M^-1 u turns
        # within 4 ulps; v' and u' move by the rounding of the turned s and
        # u times the condition (b + 2) max|s| / d_min, within 8 ulps of L
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        turned = field(0.0, np.concatenate([[rho, v], (s @ rot.T).ravel(), (u @ rot.T).ravel()]))
        i, j = np.triu_indices(n, 1)
        condition = (b + 2.0) * np.abs(s).max() / np.linalg.norm(s[i] - s[j], axis=1).min()
        assert turned[0] == out[0]
        assert abs(turned[1] - out[1]) <= 8.0 * condition * np.spacing(l_v)
        s_turned = turned[2 : 2 + 2 * n].reshape(n, 2)
        assert np.abs(s_turned - s_d @ rot.T).max() <= 4.0 * np.spacing(np.abs(s_d).max())
        u_turned = turned[2 + 2 * n :].reshape(n, 2)
        assert np.abs(u_turned - u_d @ rot.T).max() <= 8.0 * condition * np.spacing(l_u)
