"""Acceptance gate: the package's headline guarantees, one test each.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
numbered guarantee.  The tolerances here are part of the contract; do
not loosen them to make a regression pass.
"""

import json
import time

import numpy as np
import pytest

from conftest import circular_two_body
from qhnbody import cli
from qhnbody.central_config import (
    CCQuery,
    CCResult,
    Ordering,
    cc_index,
    cc_residual,
    equilateral_cc,
    equilateral_configuration,
    equilateral_side,
    euler_collinear_homogeneous,
    f_root,
    simultaneous_gap,
    solve_collinear_ordering,
)
from qhnbody.collision_flow import (
    eigen_closed_form,
    find_equilibria,
    gradient_like_rate,
    integrate_on_C,
)
from qhnbody.errors import EnergySignError
from qhnbody.homothetic import (
    energy_curve_v2,
    heteroclinic_orbit,
    rho_max_bisection,
)
from qhnbody.integrate import integrate
from qhnbody.mcgehee import (
    McGeheeState,
    energy_residual,
    from_mcgehee,
    mcgehee_field,
    mcgehee_renormalizer,
    pack_mcgehee,
    to_mcgehee,
    unpack_mcgehee,
)
from qhnbody.model import (
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    cartesian_field,
    centered,
    grad_U,
    hamiltonian,
    hess_U_matrix,
    mass_inner,
    pack_phase,
    potential_U,
    potential_V,
    unpack_phase,
)


def random_mass_vector(rng, n):
    return MassSystem(rng.uniform(0.2, 5.0, size=n))


def spaced_positions(rng, n, min_sep=0.3):
    for _ in range(200):
        r = rng.standard_normal((n, 2)) * 1.5
        d = min(
            float(np.linalg.norm(r[i] - r[j]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        if d > min_sep:
            return r
    raise AssertionError("could not draw a well-separated configuration")


def tangential_u(rng, s, ms, scale):
    # net sum removed in mass proportion, then the M s direction: the
    # result satisfies sum u = 0 and u . s = 0 like any physical state
    u = rng.standard_normal(s.shape) * scale
    u -= ms.masses[:, None] * (u.sum(axis=0) / ms.masses.sum())
    u -= float(np.sum(u * s)) * (ms.masses[:, None] * s)
    return u


def manifold_state(shape, ms, pp, rng, scale, v_sign=-1):
    s = shape.positions
    u = tangential_u(rng, s, ms, scale)
    u_m_u = float(np.sum(u * u / ms.masses[:, None]))
    v2 = 2.0 * potential_V(shape, ms, pp) - u_m_u
    assert v2 > 0.0
    return McGeheeState(rho=0.0, v=v_sign * np.sqrt(v2), s=s, u=u)


def two_body_shape(ms):
    m1, m2 = ms.masses
    mtot = m1 + m2
    x1 = np.sqrt(m2 / (m1 * mtot))
    x2 = -np.sqrt(m1 / (m2 * mtot))
    return Configuration(np.array([[x1, 0.0], [x2, 0.0]]))


def pure_b_ccs(ms, b):
    """Equilateral and all collinear CCs of the strong-force term."""
    ppb = PotentialParams(a=0.0, b=b, alpha=0.0, beta=1.0)
    config = equilateral_configuration(ms)[0]
    sigma, res = cc_residual(config, ms, ppb)
    report = cc_index(config, ms, ppb, ambient="planar")
    out = [
        CCResult(
            config=config,
            kind="equilateral",
            sigma=sigma,
            residual=res,
            index=report.index,
            hess_eigs=report.eigenvalues,
            inertia_I0=1.0,
        )
    ]
    for ordering in Ordering.all_canonical(ms.n):
        out.append(euler_collinear_homogeneous(ms, b, ordering))
    return out


# ---------------------------------------------------------------------------
# 1. collinear classes: exactly n!/2 of them, one per ordering class


def test_criterion_1_moulton_count(tmp_path):
    rng = np.random.default_rng(101)
    expected = {2: 1, 3: 3, 4: 12}
    pairs = [(1.0, 2.0), (1.0, 3.0), (0.5, 2.5)]
    case = 0
    for n, want in expected.items():
        vectors = [random_mass_vector(rng, n) for _ in range(5)]
        for ms in vectors:
            for a, b in pairs:
                cfg = tmp_path / f"case{case}.json"
                cfg.write_text(json.dumps({
                    "schema": 1,
                    "masses": ms.masses.tolist(),
                    "potential": {"a": a, "b": b, "alpha": 1.0, "beta": 0.7},
                }))
                out = tmp_path / f"out{case}"
                started = time.monotonic()
                code = cli.main(
                    ["cc-collinear", "--config", str(cfg), "--out", str(out)]
                )
                elapsed = time.monotonic() - started
                assert code == 0
                assert elapsed < 10.0
                doc = json.loads((out / "cc_collinear.json").read_text())
                assert doc["count"] == want
                assert doc["max_residual"] < 1e-10
                case += 1


# ---------------------------------------------------------------------------
# 2. the equilateral triangle is central for every mass triple, with a
#    certified scalar equation for its side


def test_criterion_2_equilateral_side_certificate(tmp_path):
    rng = np.random.default_rng(202)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.3, beta=0.6)
    unit_pp = PotentialParams(a=1.0, b=pp.b, alpha=1.0, beta=1.0)
    for _ in range(20):
        ms = random_mass_vector(rng, 3)
        plus, minus = equilateral_cc(CCQuery(ms=ms, pp=pp))
        assert plus.residual < 1e-10
        assert minus.residual < 1e-10
        m = ms.masses
        pair_sum = m[0] * m[1] + m[0] * m[2] + m[1] * m[2]
        analytic_side = np.sqrt(ms.total_mass / pair_sum)
        assert abs(equilateral_side(ms) - analytic_side) < 1e-12
        unit_sigma, _ = cc_residual(plus.config, ms, unit_pp)
        fr = f_root(unit_sigma, pp.b, ms.total_mass)
        assert fr.sign_changes == 1
        assert abs(fr.root - analytic_side) < 1e-10


# ---------------------------------------------------------------------------
# 3. analytic derivatives agree with finite differences; the collinear
#    restricted Hessian is positive definite at every solved CC


def test_criterion_3_derivative_oracles():
    rng = np.random.default_rng(303)
    pps = [
        PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5),
        PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=1.0),
        PotentialParams(a=0.5, b=2.5, alpha=0.8, beta=1.2),
    ]
    h = 1e-6
    for k in range(50):
        pp = pps[k % len(pps)]
        ms = random_mass_vector(rng, 3)
        r = spaced_positions(rng, 3)
        grad = grad_U(r, ms, pp)
        fd_grad = np.zeros_like(r)
        for idx in np.ndindex(r.shape):
            bump = np.zeros_like(r)
            bump[idx] = h
            fd_grad[idx] = (
                potential_U(r + bump, ms, pp) - potential_U(r - bump, ms, pp)
            ) / (2.0 * h)
        assert np.linalg.norm(fd_grad - grad) < 1e-6 * np.linalg.norm(grad)

        hess = hess_U_matrix(r, ms, pp)
        fd_hess = np.zeros_like(hess)
        flat = r.reshape(-1)
        for j in range(flat.size):
            bump = np.zeros_like(flat)
            bump[j] = h
            gp = grad_U((flat + bump).reshape(r.shape), ms, pp).reshape(-1)
            gm = grad_U((flat - bump).reshape(r.shape), ms, pp).reshape(-1)
            fd_hess[:, j] = (gp - gm) / (2.0 * h)
        assert np.linalg.norm(fd_hess - hess) < 1e-6 * np.linalg.norm(hess)

    for n in (3, 4):
        for draw in range(3):
            ms = random_mass_vector(rng, n)
            pp = pps[draw % 2]
            for ordering in Ordering.all_canonical(n):
                cc = solve_collinear_ordering(ordering, CCQuery(ms=ms, pp=pp))
                assert cc.hess_eigs.min() > 0.0


# ---------------------------------------------------------------------------
# 4. the blow-up transform inverts exactly and pushes the flow forward


def test_criterion_4_blowup_round_trip_and_pushforward():
    rng = np.random.default_rng(404)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)

    ms3 = MassSystem(np.array([1.0, 2.0, 3.0]))
    for _ in range(10):
        r = centered(spaced_positions(rng, 3, min_sep=0.5), ms3)
        p = rng.standard_normal((3, 2)) * 0.7
        p -= p.sum(axis=0) / 3.0
        state = PhaseState(Configuration(r), p)
        z = to_mcgehee(state, ms3, pp)
        back = from_mcgehee(z, ms3, pp)
        assert np.abs(back.config.positions - r).max() < 1e-12
        assert np.abs(back.momenta - p).max() < 1e-12

    # integration agreement needs orbits that survive a whole rescaled
    # unit: escaping states blow up in finite tau and plunging ones hit
    # the collision, so use near-circular pairs in the outer well of the
    # effective potential (stable exactly when d^2 > 3 beta / alpha)
    n, dim = 2, 2
    for _ in range(10):
        ms = random_mass_vector(rng, 2)
        m1, m2 = ms.masses
        mu = m1 * m2 / ms.total_mass
        d = rng.uniform(1.3, 1.8)
        r = np.array([[d * m2 / ms.total_mass, 0.0],
                      [-d * m1 / ms.total_mass, 0.0]])
        force = m1 * m2 * (pp.alpha / d ** 2 + 3.0 * pp.beta / d ** 4)
        pt = np.sqrt(mu * d * force) * rng.uniform(1.0, 1.02)
        p1 = np.array([rng.uniform(-0.05, 0.05) * pt, pt])
        state = PhaseState(Configuration(r), np.stack([p1, -p1]))

        z = to_mcgehee(state, ms, pp)
        field = mcgehee_field(ms, pp, dim=dim, with_time=True)
        tr = integrate(
            field,
            pack_mcgehee(z, t=0.0),
            (0.0, 1.0),
            rel_tol=1e-11,
            abs_tol=1e-13,
            renormalizer=mcgehee_renormalizer(ms, dim=dim),
        )
        t1 = tr.final_state[-1]
        z1 = unpack_mcgehee(tr.final_state[:-1], n, dim)
        blown = from_mcgehee(z1, ms, pp)

        tc = integrate(
            cartesian_field(ms, pp, dim),
            pack_phase(state),
            (0.0, t1),
            rel_tol=1e-11,
            abs_tol=1e-13,
        )
        plain = unpack_phase(tc.final_state, n, dim)
        assert np.abs(
            blown.config.positions - plain.config.positions
        ).max() < 1e-6
        assert np.abs(blown.momenta - plain.momenta).max() < 1e-6


# ---------------------------------------------------------------------------
# 5. the rescaled energy relation holds along integrated orbits, off and
#    on the collision manifold


def test_criterion_5_energy_relation_on_and_off_manifold():
    ms = MassSystem(np.array([1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    n, dim = 2, 2

    state, _ = circular_two_body(ms, pp, separation=1.2)
    h0 = hamiltonian(state, ms, pp)
    z0 = to_mcgehee(state, ms, pp)

    def res(tau, y):
        return abs(energy_residual(unpack_mcgehee(y, n, dim), h0, ms, pp))

    tr = integrate(
        mcgehee_field(ms, pp, dim=dim),
        pack_mcgehee(z0),
        (0.0, 20.0),
        renormalizer=mcgehee_renormalizer(ms, dim=dim),
    )
    assert tr.termination == "time-budget"
    assert max(res(tau, y) for tau, y in zip(tr.times, tr.states)) < 1e-8

    rng = np.random.default_rng(505)
    st0 = manifold_state(two_body_shape(ms), ms, pp, rng, scale=0.3)
    tc = integrate_on_C(st0, ms, pp, tau_max=20.0)
    worst = max(
        abs(energy_residual(unpack_mcgehee(y, n, dim), -0.7, ms, pp))
        for y in tc.states
    )
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# 6. on the manifold the flow is gradient-like in v for b > 2 and the
#    decay rate vanishes identically at b = 2


def test_criterion_6_gradient_like_flow():
    ms = MassSystem(np.array([1.0, 2.0, 3.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=1.0)
    shape = equilateral_configuration(ms)[0]
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        st0 = manifold_state(
            shape, ms, pp, rng,
            scale=0.05 + 0.03 * seed,
            v_sign=-1 if seed % 2 else 1,
        )
        tr = integrate_on_C(st0, ms, pp, tau_max=3.0)
        v = np.asarray(tr.conserved_residuals["v"])
        slack = 1e-9 * max(1.0, float(np.abs(v).max()))
        assert np.all(np.diff(v) <= slack)
        assert v[0] - v[-1] > 0.0

    pp2 = PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=1.0)
    rng = np.random.default_rng(660)
    for _ in range(20):
        st = manifold_state(shape, ms, pp2, rng, scale=0.2)
        assert abs(gradient_like_rate(st, ms, pp2)) <= 1e-14


# ---------------------------------------------------------------------------
# 7. closed-form exponents match the assembled linearization and the
#    stable/unstable dimensions at every n = 3 equilibrium


def test_criterion_7_equilibrium_spectra_and_dimensions():
    ms = MassSystem(np.array([1.0, 2.0, 3.0]))
    n = 3
    for b in (2.5, 3.0, 4.0):
        pp = PotentialParams(a=1.0, b=b, alpha=1.0, beta=1.0)
        reports = find_equilibria(ms, pp, pure_b_ccs(ms, b))
        assert len(reports) == 8
        for rep in reports:
            closed = np.concatenate([
                eigen_closed_form(rep.lam, rep.v_value, b).ravel(),
                [rep.v_value, 0.0],
            ])
            gap = np.abs(
                np.sort_complex(closed) - np.sort_complex(rep.spectrum)
            ).max()
            assert gap <= 1e-8

            if rep.ambient == "planar":
                up, down = 2 * n - 2 - rep.index, 2 * n - 4 + rep.index
            else:
                up, down = n - 1, n - 2
            if rep.v_sign < 0:
                up, down = down, up
            assert (rep.dim_unstable, rep.dim_stable) == (up, down)


# ---------------------------------------------------------------------------
# 8. the fixed-shape orbit over the equilateral triangle connects the
#    ejection and collision equilibria, and only simultaneous shapes
#    stay fixed


def test_criterion_8_homothetic_heteroclinic():
    ms = MassSystem(np.array([1.0, 1.0, 1.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=1.0)
    shape = equilateral_configuration(ms)[0]
    v_star = np.sqrt(2.0 * potential_V(shape, ms, pp))

    orbit = heteroclinic_orbit(shape, ms, pp, h=-1.0)
    assert orbit.termination == "event:floor"
    assert orbit.k_drift < 1e-9
    assert abs(orbit.vs[0] - v_star) < 1e-6
    assert abs(orbit.vs[-1] + v_star) < 1e-6
    assert abs(orbit.rho_max_orbit - orbit.rho_max_bisect) < 1e-6

    floor = 2.0 * potential_V(shape, ms, pp)
    rhos = np.geomspace(1e-8, 100.0, 200)
    assert np.all(energy_curve_v2(rhos, shape, ms, pp, h=1.0) >= floor - 1e-12)
    with pytest.raises(EnergySignError):
        rho_max_bisection(shape, ms, pp, h=1.0)

    # converse: over a collinear CC of the full potential that is not
    # simultaneous, the shape cannot stay fixed
    ms2 = MassSystem(np.array([1.0, 2.0, 3.0]))
    cc = solve_collinear_ordering(
        Ordering.identity(3), CCQuery(ms=ms2, pp=pp)
    )
    line = cc.config.positions[:, :1]
    s0 = Configuration(line)
    probe = McGeheeState(
        rho=1e-8,
        v=np.sqrt(2.0 * potential_V(s0, ms2, pp)),
        s=line,
        u=np.zeros_like(line),
    )
    tr = integrate(
        mcgehee_field(ms2, pp, dim=1),
        pack_mcgehee(probe),
        (0.0, 0.02),
        renormalizer=mcgehee_renormalizer(ms2, dim=1),
    )
    drifted = unpack_mcgehee(tr.final_state, 3, 1)
    diff = drifted.s - line
    assert np.sqrt(mass_inner(diff, diff, ms2)) > 1e-4


# ---------------------------------------------------------------------------
# 9. the simultaneous locus contains the symmetric collinear triples and
#    excludes generic ones


def test_criterion_9_simultaneous_locus_probe():
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=1.0)
    for middle in (0.5, 1.0, 2.0, 5.0):
        ms = MassSystem(np.array([1.0, middle, 1.0]))
        assert simultaneous_gap(ms, pp, Ordering.identity(3)) < 1e-12
    generic = MassSystem(np.array([1.0, 2.0, 3.0]))
    assert simultaneous_gap(generic, pp, Ordering.identity(3)) > 1e-3
