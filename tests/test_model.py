"""Potential, derivative, and phase-space invariant tests.

The finite-difference comparisons are the ground truth for every
analytic derivative used elsewhere; the homogeneity identities pin the
signs and exponents independently of any discretization.
"""

import functools
import math
import operator
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    circular_two_body,
    count_gradient_passes,
    count_kernel_bindings,
    count_kernel_passes,
    fd_directional_second,
    fd_gradient,
    random_config,
    random_masses,
)
from qhnbody.central_config import restricted_hessian, tangent_basis
from qhnbody.errors import CollisionError, FieldError, NotOnSphereError, StiffnessError
from qhnbody.integrate import integrate
from qhnbody.mcgehee import McGeheeState, mcgehee_field, vector_field
from qhnbody.model import (
    GUARD_FACTOR,
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    _FLOAT_BODIES,
    _PairKernel,
    _first_fault,
    _float_body,
    _float_pass,
    _incidence,
    _kernel,
    _pair_constants,
    angular_momentum,
    angular_momentum_series,
    cartesian_field,
    center_of_mass,
    centered,
    energy_series,
    float_domain_fault,
    grad_U,
    grad_V,
    grad_W,
    hamiltonian,
    hess_U_matrix,
    lift_to_plane,
    mass_inner,
    pack_phase,
    potential_U,
    pair_terms,
    potential_terms,
    split_phase,
    unpack_phase,
)

PP_CASES = [
    PotentialParams(a=1.0, b=2.0),
    PotentialParams(a=1.0, b=3.0, alpha=2.0, beta=0.5),
    PotentialParams(a=0.5, b=2.5),
    PotentialParams(a=0.0, b=2.0, alpha=0.0, beta=1.0),
]


def test_mass_system_validation():
    with pytest.raises(ValueError):
        MassSystem(np.array([1.0]))
    with pytest.raises(ValueError):
        MassSystem(np.array([1.0, -2.0]))
    ms = MassSystem(np.array([1.0, 2.0]))
    assert ms.n == 2 and ms.total_mass == 3.0
    with pytest.raises(ValueError):
        ms.masses[0] = 5.0  # read-only view


def test_potential_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(a=2.0, b=1.0)  # needs a < b
    with pytest.raises(ValueError):
        PotentialParams(a=1.0, b=2.0, alpha=-1.0)
    with pytest.raises(ValueError):
        PotentialParams(a=1.0, b=2.0, alpha=0.0, beta=0.0)


def test_two_body_closed_form():
    ms = MassSystem(np.array([2.0, 3.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.5, beta=0.25)
    d = 1.7
    config = Configuration(np.array([[0.0, 0.0], [d, 0.0]]))
    w, v = potential_terms(config, ms, pp)
    assert np.isclose(w, 1.5 * 6.0 / d, rtol=1e-15)
    assert np.isclose(v, 0.25 * 6.0 / d**3, rtol=1e-15)
    assert np.isclose(potential_U(config, ms, pp), w + v, rtol=1e-15)


def test_mass_inner_is_an_inner_product(rng):
    ms = random_masses(rng, 4)
    x = rng.standard_normal((4, 2))
    y = rng.standard_normal((4, 2))
    assert np.isclose(mass_inner(x, y, ms), mass_inner(y, x, ms))
    assert mass_inner(x, x, ms) > 0.0
    z = 2.0 * x + 3.0 * y
    assert np.isclose(
        mass_inner(z, y, ms), 2.0 * mass_inner(x, y, ms) + 3.0 * mass_inner(y, y, ms)
    )


def test_moment_of_inertia_and_centering(rng):
    ms = random_masses(rng, 5)
    r = random_config(rng, 5)
    c = centered(r, ms)
    assert np.abs(center_of_mass(c, ms)).max() < 1e-14
    config = Configuration(c)
    assert np.isclose(np.sum(ms.masses[:, None] * config.positions**2), mass_inner(c, c, ms))


@pytest.mark.parametrize("pp", PP_CASES)
def test_gradient_matches_finite_differences(pp, rng):
    for _ in range(8):
        n = int(rng.integers(2, 5))
        ms = random_masses(rng, n)
        r = random_config(rng, n)
        terms = pair_terms(Configuration(r), ms, pp)
        for g, value in (
            (terms.grad_W, lambda x: pair_terms(x, ms, pp).W),
            (terms.grad_V, lambda x: pair_terms(x, ms, pp).V),
            (grad_U(Configuration(r), ms, pp), lambda x: potential_U(x, ms, pp)),
        ):
            fd = fd_gradient(value, r)
            scale = max(1.0, np.abs(g).max())
            assert np.abs(g - fd).max() < 1e-6 * scale


def test_euler_homogeneity_identity(rng):
    # r . grad of a degree -k homogeneous sum is -k times the sum.
    for pp in PP_CASES:
        n = 4
        ms = random_masses(rng, n)
        r = random_config(rng, n)
        config = Configuration(r)
        w, v = potential_terms(config, ms, pp)
        assert np.isclose(
            float(np.sum(r * grad_W(config, ms, pp))), -pp.a * w, atol=1e-10
        )
        assert np.isclose(
            float(np.sum(r * grad_V(config, ms, pp))), -pp.b * v, atol=1e-10
        )


def test_scaling_law(rng):
    ms = random_masses(rng, 3)
    pp = PotentialParams(a=1.0, b=2.5)
    r = random_config(rng, 3)
    lam = 1.7
    w1, v1 = potential_terms(Configuration(r), ms, pp)
    w2, v2 = potential_terms(Configuration(lam * r), ms, pp)
    assert np.isclose(w2, lam ** (-pp.a) * w1, rtol=1e-13)
    assert np.isclose(v2, lam ** (-pp.b) * v1, rtol=1e-13)


def test_euclidean_equivariance(rng):
    ms = random_masses(rng, 4)
    pp = PotentialParams(a=1.0, b=3.0)
    r = random_config(rng, 4)
    g = grad_U(Configuration(r), ms, pp)
    # translation leaves the gradient unchanged
    shifted = r + np.array([0.3, -1.2])
    assert np.allclose(grad_U(Configuration(shifted), ms, pp), g, atol=1e-12)
    # rotation acts row-wise
    th = 0.83
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    g_rot = grad_U(Configuration(r @ rot.T), ms, pp)
    assert np.allclose(g_rot, g @ rot.T, atol=1e-12)


@pytest.mark.parametrize("pp", PP_CASES[:3])
def test_hessian_matches_finite_differences(pp, rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        ms = random_masses(rng, n)
        r = random_config(rng, n)
        config = Configuration(r)
        vdir = rng.standard_normal(r.shape)
        wdir = rng.standard_normal(r.shape)
        hm = hess_U_matrix(config, ms, pp)
        assert np.allclose(hm, hm.T, atol=1e-12)
        h_vw = float(vdir.ravel() @ hm @ wdir.ravel())
        # directional derivative of the gradient along wdir
        eps = 1e-6
        gp = grad_U(Configuration(r + eps * wdir), ms, pp)
        gm = grad_U(Configuration(r - eps * wdir), ms, pp)
        fd = float(np.sum(vdir * (gp - gm) / (2.0 * eps)))
        assert abs(h_vw - fd) < 1e-5 * max(1.0, abs(h_vw))


def test_restricted_hessian_is_the_geodesic_second_derivative(rng):
    # Radial retraction of the inertia sphere: the correction term must
    # reproduce d^2/dt^2 U(c(t)) for the retracted curve c.
    ms = random_masses(rng, 3)
    pp = PotentialParams(a=1.0, b=2.0)
    r = centered(random_config(rng, 3), ms)
    inertia = mass_inner(r, r, ms)
    config = Configuration(r)
    v = rng.standard_normal(r.shape)
    v -= center_of_mass(v, ms)  # tangent to the centered sphere
    v -= (mass_inner(v, r, ms) / inertia) * r

    def on_sphere(t):
        x = r + t * v
        x = x * np.sqrt(inertia / mass_inner(x, x, ms))
        return potential_U(Configuration(x), ms, pp)

    second = fd_directional_second(lambda x: on_sphere(x), 0.0, 1.0, h=1e-4)
    a_mat, _ = restricted_hessian(config, ms, pp, inertia_I0=inertia)
    # coordinates of v in the mass-orthonormal tangent basis
    coords = tangent_basis(r, ms).T @ (np.repeat(ms.masses, 2) * v.ravel())
    restricted = float(coords @ a_mat @ coords)
    assert abs(second - restricted) < 1e-5 * max(1.0, abs(restricted))


def test_restricted_hessian_rejects_off_sphere_points(rng):
    ms = random_masses(rng, 3)
    pp = PotentialParams(a=1.0, b=2.0)
    r = centered(random_config(rng, 3), ms)
    with pytest.raises(NotOnSphereError):
        restricted_hessian(Configuration(r), ms, pp, inertia_I0=123.0)


def _field_inputs(config, ms, pp):
    """The pair_terms call and both vector-field closures at one configuration."""
    r = np.asarray(config.positions)
    zeros = np.zeros(r.size)
    cart = cartesian_field(ms, pp, r.shape[1])
    blown_up = mcgehee_field(ms, pp, r.shape[1])
    return [
        lambda: pair_terms(config, ms, pp),
        lambda: cart(0.0, np.concatenate([r.ravel(), zeros])),
        lambda: blown_up(0.0, np.concatenate([[0.5, 0.1], r.ravel(), zeros])),
    ]


def test_collision_guard():
    # The guard is relative to the system size, so a wide third body
    # sets the scale that the close pair violates.
    ms = MassSystem(np.array([1.0, 1.0, 1.0]))
    pp = PotentialParams(a=1.0, b=2.0)
    config = Configuration(
        np.array([[0.0, 0.0], [1e-13, 0.0], [1.0, 0.0]])
    )
    with pytest.raises(CollisionError):
        potential_U(config, ms, pp)
    with pytest.raises(CollisionError):
        grad_U(config, ms, pp)
    with pytest.raises(CollisionError):
        hess_U_matrix(config, ms, pp)
    # pair_terms and the two vector fields that bind the kernel
    for evaluate in _field_inputs(config, ms, pp):
        with pytest.raises(CollisionError):
            evaluate()
    # a lone pair at the same absolute distance defines its own scale
    lone = Configuration(np.array([[0.0, 0.0], [1e-13, 0.0]]))
    assert potential_U(lone, MassSystem(np.array([1.0, 1.0])), pp) > 0.0


@pytest.mark.parametrize("side", ["at", "below", "above"])
def test_guard_edge_is_the_same_for_pair_terms_and_both_fields(side):
    # mass fractions 1/4, 1/4, 1/2 and a far body at unit distance from
    # both close bodies make I_cm / M = 1/4 exactly, so the guard is
    # GUARD_FACTOR / 2 and its square GUARD_FACTOR^2 / 4 without rounding
    ms = MassSystem(np.array([1.0, 1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    r = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])

    def size_guard(r):
        c = centered(r, ms)
        return GUARD_FACTOR * np.sqrt(mass_inner(c, c, ms) / ms.total_mass)

    guard = size_guard(r)
    assert guard == 0.5 * GUARD_FACTOR
    # the close pair sits at the guard, or one ulp either side of it
    sep = {"at": guard, "below": np.nextafter(guard, 0.0), "above": np.nextafter(guard, 1.0)}
    r[1, 1] = sep[side]
    # the close pair is too small to move the system's size
    assert size_guard(r) == guard
    raised = []
    for evaluate in _field_inputs(Configuration(r), ms, pp):
        try:
            evaluate()
            raised.append(False)
        except CollisionError:
            raised.append(True)
    assert raised == [side != "above"] * 3


def test_a_binary_far_from_the_origin_is_no_collision():
    # the guard reads the system's size from its pair distances, so two
    # bodies 0.05 apart are as far from colliding at 1e9 as at the origin
    ms = MassSystem(np.array([1.0, 1.0]))
    pp = PotentialParams(a=1.0, b=2.0)
    far = np.array([[0.0, 0.0], [0.05, 0.0]]) + 1e9
    got = pair_terms(far, ms, pp)
    # moved back to the origin exactly (Sterbenz), the pair reads the same values
    want = pair_terms(far - far[0], ms, pp)
    for a, b in zip(got[:5], want[:5]):
        assert np.array_equal(a, b)
    y = np.concatenate([far.ravel(), np.zeros(4)])
    pdot = cartesian_field(ms, pp, 2)(0.0, y)[4:]
    assert pdot.tobytes() == (want.grad_W + want.grad_V).ravel().tobytes()


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_the_guard_decision_does_not_move_with_the_origin(factor):
    # a pair at half or twice the guard distance, with the far body
    # setting the size; translations up to 1e9 in any direction keep the
    # decision (the close pair's distance moves by rounding only)
    ms = MassSystem(np.array([1.0, 1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=2.0)
    scale = 2.0**20
    guard = 0.5 * GUARD_FACTOR * scale  # I_cm / M = scale^2 / 4, as in the edge test
    r = np.array([[0.0, 0.0], [0.0, factor * guard], [scale, 0.0]])
    shifts = [(0.0, 0.0), (1e9, 0.0), (0.0, -1e9), (-1e9, 1e9), (3.7e5, -2.9e8), (1e3, 1e3)]
    for shift in shifts:
        for evaluate in _field_inputs(Configuration(r + np.array(shift)), ms, pp):
            if factor < 1.0:
                with pytest.raises(CollisionError):
                    evaluate()
            else:
                evaluate()


def test_the_guard_fires_for_a_close_pair_of_huge_mass():
    # the weights (m_i / M)(m_j / M) stay in [0, 1/4]; m_i m_j / M^2 would
    # read 1e308 / inf = 0 here, a zero guard that no pair 1e-15 apart is below
    ms = MassSystem(np.array([1e154, 1e154, 1e154]))
    r = np.array([[0.0, 0.0], [1e-15, 0.0], [1.0, 0.0]])
    with pytest.raises(CollisionError):
        pair_terms(r, ms, PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=0.5))


@pytest.mark.parametrize("d", [1, 2])
def test_the_size_weights_give_the_inertia_about_the_centre_of_mass(rng, d):
    # Lagrange's identity I_cm / M = sum_{i<j} (m_i / M)(m_j / M) d_ij^2,
    # for one configuration and for a batch with per-member masses
    for n in range(2, 8):
        masses = np.array([random_masses(rng, n).masses for _ in range(3)])
        r = np.array([random_config(rng, n, dim=d, scale=3.0) for _ in range(3)]) + 10.0
        batch = _PairKernel(masses, PotentialParams())
        d2 = batch.pairs(r)[1]
        for k in range(3):
            ms = MassSystem(masses[k])
            c = centered(r[k], ms)
            want = mass_inner(c, c, ms) / ms.total_mass
            one = _PairKernel(ms.masses, PotentialParams())
            assert np.vecdot(one.weights, one.pairs(r[k])[1]) == pytest.approx(want, rel=1e-12)
            assert np.vecdot(batch.weights[k], d2[k]) == pytest.approx(want, rel=1e-12)


def _bound_kernel_cases():
    """Seeded (ms, pp, r, p, rng) for the field tests."""
    rng = np.random.default_rng(77)
    for n in range(2, 8):
        for d in (1, 2):
            for b in (1.5, 2.0, 3.0):
                ms = random_masses(rng, n)
                pp = PotentialParams(a=1.0, b=b, alpha=rng.uniform(0.5, 2.0), beta=0.5)
                r = random_config(rng, n, d, scale=float(n))
                yield ms, pp, r, rng.standard_normal((n, d)), rng
    # harder inputs for the compiled bodies: masses over 12 decades, alpha =
    # 0, a = 0, b = 7, a pair 1.5 guards apart (n >= 3: a lone pair sets the
    # size, so it is never near the guard), unit separations 1e6 from the
    # origin, and a plane's bodies on its x-axis, where each y-force is a sum
    # of zeros and must read +0.  Four bodies come twice, with the near pair
    # first and last.
    pps = [PotentialParams(a=1.0, b=7.0, alpha=0.0, beta=0.5),
           PotentialParams(a=1.0, b=7.0, alpha=1.3, beta=0.5),
           PotentialParams(a=0.0, b=2.0, alpha=1.3, beta=0.7)]
    for n, (i, j) in ((2, (0, 1)), (3, (0, 1)), (4, (0, 1)), (4, (3, 2)), (5, (0, 1))):
        for d in (1, 2):
            ms = MassSystem(rng.permutation(np.geomspace(1e-6, 1e6, n)))
            near = random_config(rng, n, d)
            near[j] = near[i]
            c = centered(near, ms)
            size = np.sqrt(mass_inner(c, c, ms) / ms.total_mass)
            direction = rng.standard_normal(d)
            near[j] += 1.5 * GUARD_FACTOR * size * direction / np.linalg.norm(direction)
            shift = rng.standard_normal(d)
            far = random_config(rng, n, d, min_sep=1.0, scale=float(n))
            far += 1e6 * shift / np.linalg.norm(shift)
            on_axis = lift_to_plane(random_config(rng, n, 1, scale=float(n)))
            configs = [far] + [near] * (n > 2) + [on_axis] * (d == 2)
            for pp in pps:
                for r in configs:
                    yield ms, pp, r, rng.standard_normal((n, d)), rng
    # 65 bodies, above the size cutoff (the numpy pass), and 130 coordinates,
    # past numpy's 128-term block of pairwise summation
    ms = random_masses(rng, 65)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.3, beta=0.5)
    yield ms, pp, random_config(rng, 65, 2, scale=65.0), rng.standard_normal((65, 2)), rng


def _pair_order_pass(r, masses, pp):
    """(W, V, grad_W, grad_V) of the (n, d) positions r by the float bodies' rule, written
    as plain loops in Python floats: the pairs i < j in order, each sum left to right
    from +0; the guard and a power past the float range raise as the bodies do."""
    n, d = r.shape
    x, m, total = r.tolist(), masses.tolist(), float(np.add.reduce(masses))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    diff = [[x[i][k] - x[j][k] for k in range(d)] for i, j in pairs]
    q = [dx[0] * dx[0] + dx[1] * dx[1] if d == 2 else dx[0] * dx[0] for dx in diff]
    guard = 0.0
    for (i, j), qp in zip(pairs, q):
        guard += (m[i] / total) * (m[j] / total) * qp
    guard *= GUARD_FACTOR * GUARD_FACTOR
    if min(q) <= guard:
        raise CollisionError(f"minimum pairwise distance {math.sqrt(min(q)):.3e} at or below "
                             f"guard {math.sqrt(guard):.3e}")
    w = v = 0.0
    gw, gv = ([[0.0] * d for _ in range(n)] for _ in range(2))
    for (i, j), dx, qp in zip(pairs, diff, q):
        pw, pv = qp ** (-0.5 * (pp.a + 2.0)), qp ** (-0.5 * (pp.b + 2.0))
        cw, cv = pp.alpha * (m[i] * m[j]), pp.beta * (m[i] * m[j])
        w += cw * (pw * qp)
        v += cv * (pv * qp)
        for g, f in ((gw, -pp.a * cw * pw), (gv, -pp.b * cv * pv)):
            for k in range(d):
                g[i][k] += f * dx[k]
                g[j][k] -= f * dx[k]
    return w, v, np.array(gw), np.array(gv)


def _field_reference(ms, pp, d):
    """The Cartesian field's values at a flat state: the pair-order rule up to
    _FLOAT_BODIES bodies, the kernel's gradients (the numpy pass) above it."""
    n = ms.n

    def reference(rp):
        r = np.asarray(rp[: n * d], dtype=float).reshape(n, d)
        if n <= _FLOAT_BODIES:
            _, _, gw, gv = _pair_order_pass(r, ms.masses, pp)
        else:
            t = pair_terms(r, ms, pp)
            gw, gv = t.grad_W, t.grad_V
        return np.concatenate([np.asarray(rp[n * d :]) / np.repeat(ms.masses, d), (gw + gv).ravel()])

    return reference


def test_cartesian_field_is_its_reference_bit_for_bit():
    for ms, pp, r, p, _ in _bound_kernel_cases():
        field = cartesian_field(ms, pp, r.shape[1])
        y = np.concatenate([r.ravel(), p.ravel()])
        assert field(0.0, y).tobytes() == _field_reference(ms, pp, r.shape[1])(y).tobytes()


def _pass_bytes(w, v, g_w, g_v):
    return np.array([w, v, *np.ravel(g_w), *np.ravel(g_v)]).tobytes()


def _outcome(fn, *args):
    """fn(*args) as bytes, or the type and message of the error it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(*args)
    except (CollisionError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return _pass_bytes(*out) if isinstance(out, tuple) else np.array(out).tobytes()


# the shapes the float bodies are pinned at: every compiled shape of the seed's
# set, the line from four bodies, and the cutoff on both
_COMPILED_SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2), (6, 1), (6, 2),
                    (_FLOAT_BODIES, 1), (_FLOAT_BODIES, 2)]


def _fuzz_draws(rng, n, d, draws):
    """(masses, pp, r, rp) of seeded draws: masses over 12 decades, alpha = 0 or
    a = 0 at times, one plane axis all zeros in one draw in five, and one draw
    in four near 1e-70, where b = 3 and 7 take a power past the float range."""
    for draw in range(draws):
        a = float(rng.choice([0.0, 0.5, 1.0]))
        pp = PotentialParams(a=a, b=a + float(rng.choice([0.5, 2.0, 6.0])),
                             alpha=float(rng.choice([0.0, 1.3])), beta=float(rng.uniform(0.1, 2.0)))
        masses = 10.0 ** rng.uniform(-6.0, 6.0, n)
        r = random_config(rng, n, d, scale=float(n)) * (1e-70 if draw % 4 == 0 else 1.0)
        if d == 2 and rng.random() < 0.2:
            r[:, int(rng.integers(2))] = 0.0
        yield masses, pp, r, [*r.ravel().tolist(), *rng.standard_normal(n * d).tolist()]


def _blown_up_outcome(ms, pp, d, with_time):
    """_outcome of _blown_up_reference at a flat blown-up state given as a list."""
    def reference(y):
        return _blown_up_reference(np.array(y), ms, pp, ms.n, d, with_time)
    return lambda y: _outcome(reference, y)


@pytest.mark.parametrize("n, d", _COMPILED_SHAPES)
def test_the_float_bodies_are_the_pair_order_reference_bit_for_bit(rng, n, d):
    # both field bodies, the Cartesian one and the blown-up one with and
    # without time, give their references' values, or raise their errors
    # with their messages, at rho = 0 and rho > 0
    for draw, (masses, pp, r, rp) in enumerate(_fuzz_draws(rng, n, d, draws=1200 // n)):
        kernel, ms = _PairKernel(masses, pp), MassSystem(masses)
        field = _float_pass(kernel, d)
        assert _outcome(field, 0.3, rp) == _outcome(_field_reference(ms, pp, d), rp)
        head = [0.0 if draw % 2 else float(rng.uniform(0.1, 2.0)), float(rng.standard_normal())]
        for with_time in (False, True):
            y = [*head, *rp, *[0.7] * with_time]
            got = _outcome(_float_pass(kernel, d, blown_up=True, with_time=with_time), 0.3, y)
            assert got == _blown_up_outcome(ms, pp, d, with_time)(y)


@pytest.mark.parametrize("n, d", _COMPILED_SHAPES)
def test_the_float_bodies_are_within_rounding_of_the_kernel_pass(rng, n, d):
    # the kernel sums in a matmul's order: each coordinate of grad_W and of
    # grad_V differs by at most n ulps of the largest force sum, so the
    # Cartesian field's forces by 2 n + 1 of them; W and V each by P ulps of
    # themselves, read from the blown-up field at rest (v = 0, u = 0), where
    # v' = -b V at rho = 0 and -(a W + b V) at rho = 1
    eps = np.finfo(float).eps
    for masses, pp, r, rp in _fuzz_draws(rng, n, d, draws=600 // n):
        if abs(r).max() < 1e-60:
            continue
        kernel = _PairKernel(masses, pp)
        t = kernel.terms(r)[0]
        force = _float_pass(kernel, d)(0.3, rp)[n * d :]
        bound = (2 * n + 1) * eps * t.force_sum.max()
        assert np.abs(np.subtract(force, (t.grad_W + t.grad_V).ravel())).max() <= bound
        blown_up, pairs = _float_pass(kernel, d, blown_up=True), n * (n - 1) // 2
        for rho, want in ((0.0, pp.b * t.V), (1.0, pp.a * t.W + pp.b * t.V)):
            v_dot = blown_up(0.3, [rho, 0.0, *rp[: n * d], *[0.0] * (n * d)])[1]
            assert abs(v_dot + want) <= (pairs + 3) * eps * want


def _last_ulp_inside_the_guard(r, j, masses, pp):
    """(inside, outside): r with body j's first coordinate walked by ulps to the last
    value at which the reference's q_min <= guard holds, and one ulp further out."""
    def raises(x):
        return type(_outcome(_pair_order_pass, x, masses, pp)) is tuple

    edge, inside = r.copy(), raises(r)
    toward = math.copysign(math.inf, r[j, 0]) if inside else 0.0
    while True:
        step = edge.copy()
        step[j, 0] = np.nextafter(edge[j, 0], toward)
        if raises(step) != inside:
            return (edge, step) if inside else (step, edge)
        edge = step


@pytest.mark.parametrize("n, d", [(3, 1), (3, 2), (4, 1), (5, 2), (_FLOAT_BODIES, 2)])
def test_the_float_bodies_raise_at_the_guard_and_not_past_it(rng, n, d):
    # a pair at (1 - 1e-12), 1 and (1 + 1e-12) times the guard G^2 sum_p w_p q_p:
    # both field bodies raise where the reference's q_min <= guard does, below
    # the guard with the kernel's message too, and nothing past it; at the guard,
    # walked to the last ulp where q_min <= guard holds, both raise there and
    # not one ulp out: no margin.  A lone pair sets the size itself, so n >= 3
    for _ in range(20):
        kernel = _PairKernel(random_masses(rng, n).masses, PotentialParams(a=1.0, b=3.0, beta=0.5))
        masses = kernel.m_col[:, 0]
        field, blown_up = _float_pass(kernel, d), _float_pass(kernel, d, blown_up=True)
        blown_up_reference = _blown_up_outcome(MassSystem(masses), kernel.pp, d, False)
        for ratio in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
            r = random_config(rng, n, d, scale=float(n))
            i, j = rng.choice(n, size=2, replace=False)
            r -= r[i]  # body i at the origin, so body j's offset is exact
            step = rng.standard_normal(d)
            step /= np.linalg.norm(step)
            for _ in range(3):  # the size moves with body j, by 1e-10 relative at the second step
                diff = kernel.e.T @ r
                r[j] = np.sqrt(ratio * np.vecdot(kernel.weights, np.sum(diff * diff, axis=1)))
                r[j] *= GUARD_FACTOR * step
            rp = [*r.ravel().tolist(), *np.linspace(-1.0, 1.0, n * d).tolist()]
            want = _outcome(_pair_order_pass, r, masses, kernel.pp)
            assert _outcome(blown_up, 0.0, [0.5, -0.1, *rp]) == blown_up_reference([0.5, -0.1, *rp])
            got = _outcome(field, 0.0, rp)
            assert got == want if type(want) is tuple else type(got) is bytes
            if ratio < 1.0:
                with pytest.raises(CollisionError) as exc:
                    kernel.terms(r)
                assert want == (CollisionError, str(exc.value))
            elif ratio > 1.0:
                assert type(want) is bytes
            else:
                for x, raised in zip(_last_ulp_inside_the_guard(r, j, masses, kernel.pp),
                                     (True, False)):
                    rp = [*x.ravel().tolist(), *rp[n * d :]]
                    assert (type(_outcome(field, 0.0, rp)) is tuple) == raised
                    assert (type(_outcome(blown_up, 0.0, [0.5, -0.1, *rp])) is tuple) == raised


# the exponents -(exp + 2) / 2 the kernel raises squared distances to, at
# the edges of the exponent table: a in {0, 1, 2.5} and b in {1.5, 2, 3, 7}
_HALF_EXPS = sorted({-(e + 2.0) / 2.0 for e in (0.0, 1.0, 2.5, 1.5, 2.0, 3.0, 7.0)})


def _python_pow(q, e):
    """q ** e in Python floats, inf where it passes the float range (Python raises there)."""
    try:
        return q ** e
    except OverflowError:
        return math.inf


def test_numpy_s_float_power_is_python_s_float_pow_bit_for_bit(rng):
    # the kernel's numpy pass forms d^(-exp-2) with np.float_power and its
    # float pass with **; both must be libm's pow for the passes to agree
    q = 10.0 ** rng.uniform(-150.0, 150.0, 20_000)
    with np.errstate(over="ignore"):
        for e in _HALF_EXPS:
            got, want = np.float_power(q, e), np.array([_python_pow(x, e) for x in q.tolist()])
            assert got.tobytes() == want.tobytes(), (
                f"np.float_power(q, {e}) differs from q ** {e} in {np.count_nonzero(got != want)} "
                f"of {q.size} values: suspect numpy's pow dispatch (a SIMD loop in place of "
                "libm's pow), which parts the kernel's numpy pass from its float pass")


@pytest.mark.parametrize("n, d", _COMPILED_SHAPES)
def test_a_power_past_the_float_range_raises_overflow_error(rng, monkeypatch, n, d):
    # the first pair at q = 1e-200 with b = 3: q ** -2.5 raises OverflowError in
    # Python floats, where the numpy pass's float_power gives inf; both field
    # bodies let it propagate, and no numpy pass runs
    passes = count_gradient_passes(monkeypatch)
    masses = random_masses(rng, n).masses
    kernel = _PairKernel(masses, PotentialParams(a=1.0, b=3.0, beta=0.5))
    r = random_config(rng, n, d, scale=float(n))
    r *= 1e-100 / np.linalg.norm(r[0] - r[1])
    rp = [*r.ravel().tolist(), *rng.standard_normal(n * d).tolist()]
    with pytest.raises(OverflowError):
        _float_pass(kernel, d)(0.0, rp)
    for with_time in (False, True):
        with pytest.raises(OverflowError):
            _float_pass(kernel, d, blown_up=True, with_time=with_time)(0.0, [0.5, -0.1, *rp, *[0.7] * with_time])
    assert passes == []


def test_a_stage_past_the_float_range_is_rejected_as_a_non_finite_one(monkeypatch):
    # two bodies closing from just above the separation where d^-5 passes the
    # float range: the float body raises OverflowError in stage after stage,
    # and integrate rejects each such step with h / 4 as it rejects the numpy
    # pass's inf, to the same end; from a start past it, both runs end alike
    # at t0
    passes = count_gradient_passes(monkeypatch)
    ms, pp = MassSystem(np.array([1.0, 1.0])), PotentialParams(a=1.0, b=3.0, alpha=0.0, beta=1e-300)
    kernel = _kernel(ms.masses, pp)

    def numpy_field(t, y):
        g = kernel.gradients(y[:2])[-1]
        return np.concatenate([y[2:] / ms.masses, g[0] + g[1]])

    ends = []
    for field in (cartesian_field(ms, pp, 1), numpy_field):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StiffnessError) as exc:
            integrate(field, np.array([0.0, 3.2e-62, 0.0, -1e-63]), (0.0, 1.0))
        ends.append((str(exc.value), exc.value.t, exc.value.state.tobytes()))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FieldError) as exc:
            integrate(field, np.array([0.0, 1e-70, 0.0, 0.0]), (0.0, 1.0))
        ends.append(str(exc.value))
        if field is not numpy_field:
            assert passes == []
    assert "non-finite step" in ends[0][0] and ends[:2] == ends[2:]
    assert ends[1] == "field not finite at t = 0.0"


def _numpy_calls(fn, *args):
    """The numpy functions and methods that fn(*args) calls, read from
    sys.setprofile's c_call events.  A ufunc called by itself makes no such
    event, but the arrays it takes and the numpy values it returns do."""
    called = []

    def profile(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or type(owner).__module__
            if module.partition(".")[0] == "numpy":
                called.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    _float_bytes(out)
    return called


@pytest.mark.parametrize("n, d", _COMPILED_SHAPES)
def test_the_float_bodies_make_no_numpy_call(rng, n, d):
    ms, pp = random_masses(rng, n), PotentialParams(a=0.5, b=2.5, alpha=1.3, beta=0.7)
    y = [*random_config(rng, n, d, scale=float(n)).ravel().tolist(),
         *rng.standard_normal(n * d).tolist()]
    assert _numpy_calls(cartesian_field(ms, pp, d).floats, 0.3, y) == []
    for with_time in (False, True):
        field = mcgehee_field(ms, pp, d, with_time=with_time)
        state = [0.4, -0.2, *y, *[0.7] * with_time]
        assert _numpy_calls(field.floats, 0.3, state) == []
    # the probe sees the calls of a numpy pow line, power(array(q), e).tolist()
    assert _numpy_calls(lambda: np.array(y).tolist()) == ["array", "ndarray.tolist"]


def test_a_second_kernel_of_a_compiled_shape_compiles_nothing(rng):
    # the kernel's values are arguments of the compiled body, so a new
    # kernel of a compiled shape reuses it and still gets its own values
    for n, d in _COMPILED_SHAPES:
        for blown_up in (False, True):
            _float_pass(_PairKernel(random_masses(rng, n).masses, PotentialParams()), d, blown_up)
            misses = _float_body.cache_info().misses
            ms, pp = random_masses(rng, n), PotentialParams(a=0.5, b=2.5, alpha=1.3)
            rp = [*random_config(rng, n, d, scale=float(n)).ravel().tolist(),
                  *rng.standard_normal(n * d).tolist()]
            y, want = ([0.5, -0.1, *rp], _blown_up_outcome(ms, pp, d, False)) if blown_up else (
                rp, functools.partial(_outcome, _field_reference(ms, pp, d)))
            assert _outcome(_float_pass(_PairKernel(ms.masses, pp), d, blown_up), 0.3, y) == want(y)
            assert _float_body.cache_info().misses == misses


def test_the_compile_cache_compiles_the_least_recently_used_body_again_after_16_others(rng):
    # the cache keeps the last 16 bodies; the 17th distinct one evicts the
    # least recently used, which then compiles anew to the same bits
    kernel = _PairKernel(random_masses(rng, 2).masses, PotentialParams(a=1.0, b=3.0, beta=0.5))
    y = rng.standard_normal(4).tolist()
    want, first = _outcome(_float_pass(kernel, 1), 0.3, y), _float_body(2, 1)
    for n in range(2, 10):
        for d in (1, 2):  # 16 blown-up bodies, other than the Cartesian (2, 1)
            _float_pass(_PairKernel(random_masses(rng, n).masses, kernel.pp), d, blown_up=True)
    misses = _float_body.cache_info().misses
    assert _outcome(_float_pass(kernel, 1), 0.3, y) == want
    assert _float_body.cache_info().misses == misses + 1 and _float_body(2, 1) is not first


@pytest.mark.parametrize("d", [1, 2])
def test_a_shape_above_the_cutoff_writes_no_pair_term_and_runs_the_kernel_s_numpy_pass(
        rng, monkeypatch, d):
    # above the cutoff each body's pair section is one call of the kernel's
    # numpy pass, gradients for the Cartesian field and terms for the blown-up
    # one: no pair difference, squared distance, power or force is written out
    pair_term = re.compile(r"x\d+_\d+|q\d+|p[wv]\d+|f[wv]\d+")
    passes, terms = count_gradient_passes(monkeypatch), count_kernel_passes(monkeypatch)
    for k, (field, y, reference) in enumerate(_field_states(_FLOAT_BODIES + 1, d, rng)):
        local_names = field.floats.__code__.co_varnames
        assert local_names and not [x for x in local_names if pair_term.fullmatch(x)]
        before = len(passes), len(terms)
        got = field.floats(0.0, y.tolist())
        assert (len(passes) - before[0], len(terms) - before[1]) == (1, min(k, 1))
        assert _float_bytes(got) == reference(y).tobytes()


def _pass_of(s, ms, pp):
    """(W, V, grad_W, grad_V) of the positions s as the fields compute them."""
    if ms.n <= _FLOAT_BODIES:
        return _pair_order_pass(s, ms.masses, pp)
    return pair_terms(s, ms, pp)[:4]


def _blown_up_reference(y, ms, pp, n, d, with_time):
    """The blown-up field composed from _pass_of, one array per part, with u^T M^-1 u
    summed left to right from +0."""
    a, b, m, sz = pp.a, pp.b, ms.masses[:, None], n * d
    rho, v = y[0], y[1]
    s, u = y[2 : 2 + sz].reshape(n, d), y[2 + sz : 2 + 2 * sz].reshape(n, d)
    w_s, v_s, gw, gv = _pass_of(s, ms, pp)
    u_m_u = functools.reduce(operator.add, (u * u / m).ravel().tolist(), 0.0)
    rho_pow = rho ** (b - a) if rho > 0.0 else 0.0
    v_dot = 0.5 * b * v * v + u_m_u - rho_pow * (a * w_s) - b * v_s
    u_dot = (
        (0.5 * b - 1.0) * v * u
        - u_m_u * (m * s)
        + rho_pow * ((a * w_s) * (m * s) + gw)
        + b * v_s * (m * s)
        + gv
    )
    parts = [np.array([rho * v, v_dot]), (u / m).ravel(), u_dot.ravel()]
    if with_time:
        parts.append(np.array([rho ** (1.0 + b / 2.0) if rho > 0.0 else 0.0]))
    return np.concatenate(parts)


@pytest.mark.parametrize("with_time", [False, True])
def test_mcgehee_field_is_its_reference_composition_bit_for_bit(with_time):
    for ms, pp, s, u, rng in _bound_kernel_cases():
        n, d = s.shape
        field = mcgehee_field(ms, pp, d, with_time=with_time)
        for rho in (0.0, rng.uniform(0.1, 2.0)):
            y = np.concatenate([[rho, rng.standard_normal()], s.ravel(), u.ravel()])
            if with_time:
                y = np.append(y, 0.7)
            expected = _blown_up_reference(y, ms, pp, n, d, with_time)
            assert field(0.0, y).tobytes() == expected.tobytes()
            parts = vector_field(McGeheeState(rho, y[1], s, u), ms, pp)
            got = np.concatenate([[parts[0], parts[1]], parts[2].ravel(), parts[3].ravel()])
            assert got.tobytes() == expected[: 2 + 2 * n * d].tobytes()


def _field_states(n, d, rng):
    """(field, flat state, the field's reference) for the Cartesian field and the
    blown-up one without and with time, of one seeded system with a = 1."""
    ms = random_masses(rng, n)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    y = np.concatenate([random_config(rng, n, d, scale=float(n)).ravel(), rng.standard_normal(n * d)])
    y_blown_up = np.concatenate([[0.5, -0.1], y])
    return [
        (cartesian_field(ms, pp, d), y, _field_reference(ms, pp, d)),
        (mcgehee_field(ms, pp, d), y_blown_up,
         lambda y: _blown_up_reference(y, ms, pp, n, d, False)),
        (mcgehee_field(ms, pp, d, with_time=True), np.append(y_blown_up, 0.7),
         lambda y: _blown_up_reference(y, ms, pp, n, d, True)),
    ]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 6, _FLOAT_BODIES, _FLOAT_BODIES + 1])
def test_the_fields_take_the_float_pass_up_to_the_cutoff(rng, monkeypatch, n, d):
    # every numpy pass starts with _PairKernel.pairs; the float pass never
    # calls it.  Above the cutoff the fields take the numpy pass, which for
    # the Cartesian field is gradients alone, no terms call summing W and V.
    # Every field offers integrate its float body
    calls, passes = [], count_kernel_passes(monkeypatch)
    pairs = _PairKernel.pairs
    monkeypatch.setattr(_PairKernel, "pairs", lambda self, *a: calls.append(1) or pairs(self, *a))
    float_pass = n <= _FLOAT_BODIES
    for k, (field, y, _) in enumerate(_field_states(n, d, rng)):
        before, terms_before = len(calls), len(passes)
        field(0.0, y)
        assert len(calls) - before == (0 if float_pass else 1)
        assert len(passes) - terms_before == (0 if float_pass or k == 0 else 1)
        assert callable(field.floats)


def _float_bytes(out):
    """The bytes of a float body's output, which must be a list of Python floats."""
    assert type(out) is list and all(type(x) is float for x in out)
    return np.array(out).tobytes()


def test_the_float_bodies_are_the_array_calls_bit_for_bit():
    # integrate calls field.floats on its states as lists in place of
    # field; the two entries must agree bit for bit at every shape, and
    # neither may write into the state it is given
    for ms, pp, r, p, rng in _bound_kernel_cases():
        n, d = r.shape
        y = np.concatenate([r.ravel(), p.ravel()])
        fields = [(mcgehee_field(ms, pp, d, with_time=wt), wt) for wt in (False, True)]
        fields.append((cartesian_field(ms, pp, d), None))
        for field, with_time in fields:
            states = [y] if with_time is None else [
                np.concatenate([[rho, rng.standard_normal()], y, [0.7] * with_time])
                for rho in (0.0, rng.uniform(0.1, 2.0))]
            for state in states:
                given = state.tolist()
                got = field.floats(0.3, given)
                assert given == state.tolist()
                assert _float_bytes(got) == field(0.3, state).tobytes()


@pytest.mark.parametrize("defect", ["short", "long", "nan position", "nan momentum", "overflow"])
@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (4, 2), (4, 1), (5, 2), (_FLOAT_BODIES + 1, 2)])
def test_a_malformed_state_gives_what_its_reference_gives(rng, n, d, defect):
    # no field reads a state of the wrong size as some other state, as an
    # array or as a list; a NaN coordinate gives NaN where the reference
    # does, and forces past the float range raise OverflowError from a
    # compiled body, and give the matmul's NaN (0 * inf) above the cutoff
    sz = n * d
    for k, (field, y, reference) in enumerate(_field_states(n, d, rng)):
        blown_up = k > 0
        if defect in ("short", "long"):
            wrong = y[:-2] if defect == "short" else np.append(y, 1.0)
            with pytest.raises(ValueError):
                field(0.0, wrong)
            with pytest.raises(ValueError):
                field.floats(0.0, wrong.tolist())
            if k == 2:  # the blown-up state with time, without its t
                with pytest.raises(ValueError):
                    field(0.0, y[:-1])
            continue
        y = y.copy()
        if defect == "overflow":  # d^-(b+2) of separations near 1e-70
            y[2 * blown_up : 2 * blown_up + sz] *= 1e-70
            if n <= _FLOAT_BODIES:
                for entry in (field, field.floats):
                    with pytest.raises(OverflowError):
                        entry(0.0, y if entry is field else y.tolist())
                continue
        else:  # the last coordinate of body 0, or of its momentum (u when blown up)
            y[2 * blown_up + sz * (defect == "nan momentum") + d - 1] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = field(0.0, y), reference(y)
        assert np.isnan(got).any()
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n", [2, 3, 4, 5, _FLOAT_BODIES + 1])
def test_the_cartesian_field_keeps_its_symmetries(rng, n):
    # oracle-free checks on both sides of the size cutoff.  Each
    # body's force is a sum of pair terms that cancel exactly in pairs, so
    # the forces sum to the rounding of the sums, under n ulps of the
    # largest force sum.  A rotation or translation rounds the positions;
    # the forces, of degree -(b + 1) in the separations, move by about
    # (b + 2) times that rounding over the smallest separation d_min.
    for _ in range(10):
        ms = random_masses(rng, n)
        pp = PotentialParams(a=1.0, b=float(rng.choice([1.5, 3.0, 7.0])), alpha=1.0, beta=0.5)
        r, p = random_config(rng, n, 2, scale=float(n)), rng.standard_normal((n, 2))
        field = cartesian_field(ms, pp, 2)
        out = field(0.0, np.concatenate([r.ravel(), p.ravel()])).reshape(2, n, 2)
        force = out[1]
        i, j = np.triu_indices(n, 1)
        d_min = np.linalg.norm(r[i] - r[j], axis=1).min()
        largest = np.abs(out).max()
        # momentum: exactly zero for a lone pair
        net = [abs(math.fsum(force[:, k])) for k in range(2)]
        assert max(net) <= n * np.spacing(pair_terms(r, ms, pp).force_sum.max())
        if n == 2:
            assert max(net) == 0.0
        # rotation by theta: 8 ulps of the largest entry, times the condition
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        turned = field(0.0, np.concatenate([(r @ rot.T).ravel(), (p @ rot.T).ravel()]))
        condition = (pp.b + 2.0) * np.abs(r).max() / d_min
        turn_error = np.abs(turned.reshape(2, n, 2) - out @ rot.T).max()
        assert turn_error <= 8.0 * condition * np.spacing(largest)
        # translation by c: twice the condition times the rounding of |r + c|,
        # plus 4 ulps of the force itself
        c = rng.standard_normal(2) * 10.0 ** rng.uniform(0.0, 4.0)
        moved = field(0.0, np.concatenate([(r + c).ravel(), p.ravel()])).reshape(2, n, 2)[1]
        rounding = np.spacing(np.abs(r + c).max()) / d_min
        strongest = np.abs(force).max()
        tol = strongest * 2.0 * (pp.b + 2.0) * rounding + 4.0 * np.spacing(strongest)
        assert np.abs(moved - force).max() <= tol


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_fields_are_time_reversible_bit_for_bit(rng, n, d):
    # reversing time flips every velocity: the blown-up field satisfies
    # f(R y) = -R f(y) with R: (rho, v, s, u) -> (rho, -v, s, -u), and the
    # Cartesian one f(r, -p) = (-rdot, pdot), exactly, since each flipped
    # term either changes sign alone or enters as a product of two flips.
    # Both sides of the float pass, at rho = 0 and rho > 0.
    sz = n * d
    flip = np.r_[np.ones(sz), -np.ones(sz)]
    flip_blown_up = np.r_[1.0, -1.0, flip]
    for _ in range(100):
        ms = random_masses(rng, n)
        pp = PotentialParams(a=1.0, b=float(rng.choice([1.5, 3.0, 7.0])),
                             alpha=float(rng.choice([0.0, 1.3])), beta=float(rng.uniform(0.1, 2.0)))
        y = np.concatenate([random_config(rng, n, d, scale=float(n)).ravel(), rng.standard_normal(sz)])
        field = cartesian_field(ms, pp, d)
        assert field(0.0, flip * y).tobytes() == (-flip * field(0.0, y)).tobytes()
        field = mcgehee_field(ms, pp, d)
        for rho in (0.0, rng.uniform(0.1, 2.0)):
            y_blown_up = np.concatenate([[rho, rng.standard_normal()], y])
            reversed_ = field(0.0, flip_blown_up * y_blown_up)
            assert reversed_.tobytes() == (-flip_blown_up * field(0.0, y_blown_up)).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # m_i m_j overflows to inf
def test_a_pair_coefficient_past_the_float_range_is_refused_when_the_kernel_is_bound():
    ms = MassSystem(np.array([1e200, 1e200]))
    pp = PotentialParams(a=1.0, b=2.0)
    message = r"^alpha term of pair \(1, 2\): -a alpha m_i m_j = -inf is not finite$"
    with pytest.raises(ValueError, match=message):
        pair_terms(np.array([[0.0, 0.0], [1.0, 0.0]]), ms, pp)
    with pytest.raises(ValueError, match=message):
        cartesian_field(ms, pp, 2)
    with pytest.raises(ValueError, match=message):
        mcgehee_field(ms, pp, 2)
    # a coefficient that is finite until the exponent multiplies it, and a
    # batch names its member; 0 * inf is not finite either
    with pytest.raises(ValueError, match=r"^beta term of pair \(1, 3\): -b beta m_i m_j = -inf "):
        _PairKernel(np.array([1e154, 1.0, 1e154]), PotentialParams(a=1.0, b=3.0, beta=1.0))
    masses = np.array([[1.0, 1.0, 1.0], [1.0, 1e200, 1e200]])
    batch = r"^alpha term of pair \(2, 3\) in batch member 1: -a alpha m_i m_j = nan is not finite$"
    with pytest.raises(ValueError, match=batch):
        _PairKernel(masses, PotentialParams(a=0.0, b=2.0))
    # m_1 m_3 underflows to zero: pair (1, 3) would exert no force at all
    tiny = r"^alpha term of pair \(1, 3\): -a alpha m_i m_j = -0\.0 is zero or subnormal$"
    with pytest.raises(ValueError, match=tiny):
        _PairKernel(np.array([1e-300, 1.0, 1e-200]), PotentialParams(a=1.0, b=1.51))


# the bind check reads the smallest and largest |m_i m_j|, in which every |coef| and
# |kc| rounds monotonically, and searches the pairs in order only on a fault there:
# it finds what the full ordered search finds, with alpha, beta or a zero, products
# that are subnormal or past the float range, at either end
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # m_i m_j over- or underflows
@settings(max_examples=100, deadline=None, derandomize=True)
@given(base=st.lists(st.floats(0.2, 5.0), min_size=2, max_size=5),
       low=st.sampled_from([None, 1e-150, 1e-160, 1e-170, 1e-320]),
       high=st.sampled_from([None, 1e150, 1e154, 1e160, math.inf]),
       member=st.sampled_from([None, 0, 2]), a=st.sampled_from([0.0, 0.5, 2.0]),
       alpha=st.sampled_from([0.0, 1e-10, 1.0, 1e10]), beta=st.sampled_from([0.0, 1e-10, 1.0]))
def test_the_bind_check_finds_what_the_ordered_search_finds(base, low, high, member, a, alpha,
                                                             beta):
    assume(alpha > 0.0 or beta > 0.0)
    m = np.array(base)
    if low is not None:  # the smallest products
        m[0] = low
    if high is not None:  # the largest products
        m[-1] = high
    if member is not None:  # the row member of a batch of three; the others are base
        m = np.stack([m if k == member else np.array(base) for k in range(3)])
    pp = PotentialParams(a=a, b=a + 1.5, alpha=alpha, beta=beta)
    i, j = _incidence(m.shape[-1])[:2]
    with np.errstate(all="ignore"):
        coef, kc = _pair_constants(m.take(i, axis=-1) * m.take(j, axis=-1), pp)[:2]
    full = _first_fault(m, pp, ("kc", "coef"), (kc, coef))
    assert repr(float_domain_fault(m, pp)) == repr(full)
    if full is None:
        _PairKernel(m, pp)
    else:
        with pytest.raises(ValueError, match=f" = {re.escape(repr(full[-1]))} is "):
            _PairKernel(m, pp)


def test_the_kernel_binds_once_per_bits_of_masses_and_potential(monkeypatch):
    bindings = count_kernel_bindings(monkeypatch)
    m, pp = np.array([1.0, 2.0, 3.0]), PotentialParams(a=1.0, b=3.0, alpha=0.0, beta=0.5)
    kernel = _kernel(m, pp)
    assert _kernel(m.copy(), PotentialParams(a=1.0, b=3.0, alpha=0.0, beta=0.5)) is kernel
    assert len(bindings) == 1
    # one ulp of one mass, alpha = -0.0 for 0.0 (an equal PotentialParams) and
    # the masses as a one-member batch each bind apart
    ulp = m.copy()
    ulp[1] = np.nextafter(2.0, 3.0)
    signed = PotentialParams(a=1.0, b=3.0, alpha=-0.0, beta=0.5)
    assert signed == pp
    apart = [_kernel(ulp, pp), _kernel(m, signed), _kernel(m[None], pp)]
    assert len(bindings) == 4 and all(k is not kernel for k in apart)
    assert apart[1].coef[0].tobytes() != kernel.coef[0].tobytes()  # -0.0 m_i m_j
    # every bound array is read-only
    for name in _PairKernel.__slots__[1:]:
        with pytest.raises(ValueError, match="read-only"):
            getattr(kernel, name)[...] = 0.0


def test_a_bound_kernel_keeps_the_masses_it_was_bound_from(rng, monkeypatch):
    m, pp = rng.uniform(0.5, 2.0, 4), PotentialParams(a=1.0, b=2.5, alpha=0.7, beta=1.3)
    r, original = random_config(rng, 4), m.copy()
    bindings = count_kernel_bindings(monkeypatch)
    before = pair_terms(r, m, pp)
    kernel = _kernel(m, pp)
    m[:] = 9.0  # the caller's array, after the bind
    assert np.array_equal(kernel.m_col[:, 0], original)
    for a, b in zip(pair_terms(r, original, pp), before):
        assert np.array_equal(a, b)
    assert len(bindings) == 1
    assert pair_terms(r, m, pp).W != before.W and len(bindings) == 2


def test_a_bind_that_faults_raises_at_every_call(monkeypatch):
    bindings = count_kernel_bindings(monkeypatch)
    tiny = r"^alpha term of pair \(1, 3\): -a alpha m_i m_j = -0\.0 is zero or subnormal$"
    for _ in range(3):
        with pytest.raises(ValueError, match=tiny):
            pair_terms(np.eye(3, 2), np.array([1e-300, 1.0, 1e-200]), PotentialParams(a=1.0, b=1.51))
    assert len(bindings) == 3


def _decades(lo, hi, zero=False):
    powers = st.floats(lo, hi).map(lambda e: 10.0 ** e)
    return st.one_of(st.just(0.0), powers) if zero else powers


# two bodies at distance L on the line: the rule at L^2 passes exactly where
# every value the kernel's own pass forms there for an active term, coef (pw
# L^2), and where exp > 0 also c and (exp + 2) c / L^2, is a normal float.  An
# edge draw puts L within a few ulps of where one b-term value, k L^-p, crosses
# the smallest normal float or the largest float, so rounding decides there; an
# edge past the largest float (k / tiny)^(1 / p), p = b < 1, is no length.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(m1=_decades(-150.0, 150.0), m2=_decades(-150.0, 150.0),
       a=st.one_of(st.just(0.0), st.floats(0.0, 3.0)), gap=st.floats(0.1, 30.0),
       alpha=_decades(-300.0, 300.0, zero=True), beta=_decades(-300.0, 300.0, zero=True),
       length=_decades(-150.0, 150.0), edge=st.sampled_from([None, 0, 1, 2]),
       huge=st.booleans(), ulps=st.integers(-3, 3))
def test_the_size_rule_passes_where_the_kernel_s_values_at_that_size_are_normal(
        m1, m2, a, gap, alpha, beta, length, edge, huge, ulps):
    assume(alpha > 0.0 or beta > 0.0)
    m, pp = np.array([m1, m2]), PotentialParams(a=a, b=a + gap, alpha=alpha, beta=beta)
    assume(float_domain_fault(m, pp) is None)
    kernel = _PairKernel(m, pp)
    tiny, big = float(np.finfo(float).tiny), float(np.finfo(float).max)
    if edge is not None and beta > 0.0:  # value, c and Hessian factor: k = coef, b coef, ...
        k = kernel.coef[1, 0].item() * math.prod([pp.b, pp.b + 2.0][:edge])
        edge_length = _python_pow(k / (big if huge else tiny), 1.0 / (pp.b + 2.0 * edge))
        length = edge_length * (1.0 + ulps * 2.0**-52)
    assume(0.0 < length * length < math.inf)
    with np.errstate(all="ignore"):
        _, d2, _, pw, c, _ = kernel.gradients(np.array([0.0, length]))
        d2, pw, c = d2.item(), pw[:, 0].tolist(), c[:, 0].tolist()
        normal = True
        for t, (coeff, exp) in enumerate(((alpha, pp.a), (beta, pp.b))):
            values = [kernel.coef[t, 0].item() * (pw[t] * d2)] if coeff > 0.0 else []
            values += [c[t], (exp + 2.0) * c[t] / d2] if coeff > 0.0 and exp > 0.0 else []
            normal &= all(tiny <= abs(x) <= big for x in values)
    assert (float_domain_fault(m, pp, d2) is None) == normal


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 2), (9, 2)])
def test_batched_energy_and_angular_momentum_match_each_state(rng, n, d):
    ms = random_masses(rng, n)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    r = np.stack([random_config(rng, n, d) for _ in range(6)])
    p = rng.standard_normal(r.shape)
    h = energy_series(r, p, ms, pp)
    ell = angular_momentum_series(r, p)
    assert h.shape == ell.shape == (6,)
    for k in range(6):
        state = PhaseState(Configuration(r[k]), p[k])
        kinetic = 0.5 * float(np.sum(p[k] * p[k] / ms.masses[:, None]))
        pot = potential_U(state.config, ms, pp)
        assert abs(h[k] - (kinetic - pot)) <= 1e-15 * max(kinetic, pot)
        assert h[k] == hamiltonian(state, ms, pp)
        ref = sum(r[k, i, 0] * p[k, i, 1] - r[k, i, 1] * p[k, i, 0] for i in range(n)) if d == 2 else 0.0
        scale = float(np.abs(r[k]).max() * np.abs(p[k]).max() * n)
        assert abs(ell[k] - ref) <= 1e-15 * scale
        assert ell[k] == angular_momentum(state, ms)


def test_phase_state_energy_and_momentum(rng):
    ms = random_masses(rng, 3)
    pp = PotentialParams(a=1.0, b=2.0)
    r = random_config(rng, 3)
    p = rng.standard_normal(r.shape)
    state = PhaseState(config=Configuration(r), momenta=p)
    t = 0.5 * float(np.sum(p * p / ms.masses[:, None]))
    assert t >= 0.0
    assert np.isclose(
        hamiltonian(state, ms, pp), t - potential_U(state.config, ms, pp)
    )
    line = PhaseState(
        config=Configuration(np.array([[0.0], [1.0]])),
        momenta=np.array([[0.5], [-0.5]]),
    )
    assert angular_momentum(line, MassSystem(np.array([1.0, 1.0]))) == 0.0


def test_cartesian_field_conserves_energy_to_first_order(rng):
    ms = random_masses(rng, 3)
    pp = PotentialParams(a=1.0, b=3.0)
    r = random_config(rng, 3)
    p = rng.standard_normal(r.shape)
    state = PhaseState(config=Configuration(r), momenta=p)
    y = pack_phase(state)
    f = cartesian_field(ms, pp, 2)(0.0, y)
    eps = 1e-7
    h_plus = hamiltonian(unpack_phase(y + eps * f, 3, 2), ms, pp)
    h_minus = hamiltonian(unpack_phase(y - eps * f, 3, 2), ms, pp)
    assert abs(h_plus - h_minus) / (2.0 * eps) < 1e-6


def test_cartesian_field_signs_on_circular_orbit():
    ms = MassSystem(np.array([1.0, 2.0]))
    pp = PotentialParams(a=1.0, b=2.0)
    state, omega = circular_two_body(ms, pp, 1.3)
    y = pack_phase(state)
    f = cartesian_field(ms, pp, 2)(0.0, y)
    # rdot = M^{-1} p
    assert np.allclose(
        f[:4].reshape(2, 2), state.momenta / ms.masses[:, None], atol=1e-14
    )
    # centripetal: pdot = -m omega^2 r for uniform rotation
    assert np.allclose(
        f[4:].reshape(2, 2),
        -(omega**2) * ms.masses[:, None] * state.config.positions,
        rtol=1e-12,
    )


def test_pack_unpack_round_trip(rng):
    r = random_config(rng, 4)
    p = rng.standard_normal(r.shape)
    state = PhaseState(config=Configuration(r), momenta=p)
    back = unpack_phase(pack_phase(state), 4, 2)
    assert np.array_equal(back.config.positions, r)
    assert np.array_equal(back.momenta, p)


@pytest.mark.parametrize("n, dim", [(2, 1), (3, 2), (5, 2)])
def test_split_phase_inverts_pack_phase_and_reads_a_series_row_by_row(rng, n, dim):
    states = [PhaseState(config=Configuration(random_config(rng, n, dim)),
                         momenta=rng.standard_normal((n, dim))) for _ in range(6)]
    series = np.stack([pack_phase(state) for state in states])
    whole = split_phase(series, n, dim)
    assert all(part.shape == (6, n, dim) and np.shares_memory(part, series) for part in whole)
    for k, (state, y) in enumerate(zip(states, series)):
        r, p = split_phase(y, n, dim)
        assert np.array_equal(r, state.config.positions) and np.array_equal(p, state.momenta)
        assert np.shares_memory(r, y) and np.shares_memory(p, y)
        assert np.array_equal(whole[0][k], r) and np.array_equal(whole[1][k], p)


@settings(max_examples=40, deadline=None)
@given(
    m1=st.floats(0.1, 10.0),
    m2=st.floats(0.1, 10.0),
    d=st.floats(0.2, 5.0),
    a=st.floats(0.0, 1.5),
    gap=st.floats(0.5, 2.0),
)
def test_two_body_potential_properties(m1, m2, d, a, gap):
    """U decreases with separation; both terms positive for positive coefs."""
    ms = MassSystem(np.array([m1, m2]))
    pp = PotentialParams(a=a, b=a + gap)
    if float_domain_fault(ms.masses, pp) is not None:  # a draw of a or alpha near 0
        return
    near = Configuration(np.array([[0.0, 0.0], [d, 0.0]]))
    far = Configuration(np.array([[0.0, 0.0], [d * 1.5, 0.0]]))
    u_near = potential_U(near, ms, pp)
    u_far = potential_U(far, ms, pp)
    assert u_near > u_far > 0.0


def _pair_loop(r, masses, pp):
    """Reference for pair_terms: one plain Python pass per pair i < j."""
    n, d = r.shape
    w = v = 0.0
    gw, gv, force_sum = np.zeros((n, d)), np.zeros((n, d)), np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            diff = r[i] - r[j]
            dist = float(np.sqrt(diff @ diff))
            mm = masses[i] * masses[j]
            w += pp.alpha * mm * dist ** (-pp.a)
            v += pp.beta * mm * dist ** (-pp.b)
            fw = -pp.a * pp.alpha * mm * dist ** (-pp.a - 2.0) * diff
            fv = -pp.b * pp.beta * mm * dist ** (-pp.b - 2.0) * diff
            gw[i] += fw
            gw[j] -= fw
            gv[i] += fv
            gv[j] -= fv
            force_sum[[i, j]] += float(np.linalg.norm(fw + fv))
    return w, v, gw, gv, force_sum


def _hess_loop(r, masses, pp):
    """Reference for hess_U_matrix: the d x d block of each pair, added in place."""
    n, d = r.shape
    h = np.zeros((n * d, n * d))
    for i in range(n):
        for j in range(i + 1, n):
            u = r[i] - r[j]
            dist = float(np.sqrt(u @ u))
            for exp, coef in ((pp.a, pp.alpha), (pp.b, pp.beta)):
                c = exp * coef * masses[i] * masses[j] * dist ** (-exp - 2.0)
                block = c * ((exp + 2.0) / dist**2 * np.outer(u, u) - np.eye(d))
                bi, bj = i * d, j * d
                h[bi : bi + d, bi : bi + d] += block
                h[bj : bj + d, bj : bj + d] += block
                h[bi : bi + d, bj : bj + d] -= block
                h[bj : bj + d, bi : bi + d] -= block
    return h


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 7),
    d=st.sampled_from([1, 2]),
    a=st.floats(0.0, 2.0),
    gap=st.floats(0.1, 3.0),
    alpha=st.floats(0.0, 2.0),
    beta=st.floats(0.1, 2.0),
)
def test_pair_kernel_matches_the_per_pair_loop(seed, n, d, a, gap, alpha, beta):
    rng = np.random.default_rng(seed)
    ms = random_masses(rng, n)
    r = random_config(rng, n, dim=d, min_sep=0.3 / n, scale=float(n))
    pp = PotentialParams(a=a, b=a + gap, alpha=alpha, beta=beta)
    if float_domain_fault(ms.masses, pp) is not None:  # a draw of a or alpha near 0
        return
    terms = pair_terms(Configuration(r), ms, pp)
    w, v, gw, gv, force_sum = _pair_loop(r, ms.masses, pp)
    # gradients cancel between pairs, so compare them against the size of
    # the pair forces summed into them
    scale = float(force_sum.max())
    assert terms.W == pytest.approx(w, rel=1e-12, abs=0.0)
    assert terms.V == pytest.approx(v, rel=1e-12, abs=0.0)
    assert np.abs(terms.grad_W - gw).max() <= 1e-12 * scale
    assert np.abs(terms.grad_V - gv).max() <= 1e-12 * scale
    assert np.abs(terms.force_sum - force_sum).max() <= 1e-12 * scale
    h = hess_U_matrix(Configuration(r), ms, pp)
    ref = _hess_loop(r, ms.masses, pp)
    assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()


def test_incidence_matrix_gives_exact_pair_differences(rng):
    # one +1 and one -1 per column: E^T r is r_i - r_j to the last bit,
    # whatever the scales of the positions
    for n in range(2, 8):
        i, j, e, e_abs = _incidence(n)
        r = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-8, 9, (n, 1))
        assert np.array_equal(e.T @ r, r[i] - r[j])
        assert np.array_equal(e_abs, np.abs(e)) and (e.sum(axis=0) == 0.0).all()
        assert not any(a.flags.writeable for a in (i, j, e, e_abs))


@pytest.mark.parametrize("d", [1, 2])
def test_batched_kernel_is_the_per_member_kernel(rng, d):
    # per-member masses and positions: each member of the batch gets the
    # values a single-configuration call gives it
    n, size = 4, 5
    masses = np.array([random_masses(rng, n).masses for _ in range(size)])
    r = np.array([random_config(rng, n, dim=d) for _ in range(size)])
    pp = PotentialParams(a=1.0, b=2.5, alpha=0.7, beta=1.3)
    batch = pair_terms(r, masses, pp)
    hess = hess_U_matrix(r, masses, pp)
    assert batch.W.shape == (size,) and hess.shape == (size, n * d, n * d)
    for k in range(size):
        one = pair_terms(r[k], MassSystem(masses[k]), pp)
        for got, want in zip(batch[:5], one[:5]):
            assert np.array_equal(got[k], want)
        assert np.array_equal(hess[k], hess_U_matrix(r[k], MassSystem(masses[k]), pp))


@pytest.mark.parametrize("n", range(2, 8))
def test_a_line_pass_equals_the_planar_pass_bit_for_bit(rng, n):
    # a (B, n) array of the masses' shape is the kernel's d = 1 case: W, V,
    # the force sums and the Hessian equal the planar pass over the same
    # bodies on the x-axis to the bit, the Hessian as the planar rows and
    # columns 0::2, and so do the collision flags.  The gradients are only
    # close: E @ (c diff) rounds differently with one column and with two;
    # they equal those of the (B, n, 1) configuration, summed the same way
    size = 50
    masses = rng.uniform(0.2, 5.0, (size, n))
    x = rng.uniform(-2.0, 2.0, (size, n))
    x[0, 1] = x[0, 0]  # a collided member, whose values mean nothing but match
    for pp in (PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5),
               PotentialParams(a=0.0, b=2.5, alpha=0.7, beta=1.3)):
        kernel = _PairKernel(masses, pp)
        line, collided = kernel.terms(x, strict=False, hess=True)
        grad = line.grad_W + line.grad_V
        planar, planar_collided = kernel.terms(lift_to_plane(x[..., None]), strict=False, hess=True)
        assert collided.tolist() == planar_collided.tolist() == [True] + [False] * (size - 1)
        for got, want in ((line.W, planar.W), (line.V, planar.V),
                          (line.force_sum, planar.force_sum),
                          (line.hess, planar.hess[:, 0::2, 0::2])):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        planar_grad = (planar.grad_W + planar.grad_V)[..., 0]
        assert (np.abs(grad - planar_grad).max(axis=-1)
                <= 4e-16 * line.force_sum.max(axis=-1)).all()
        column = kernel.terms(x[..., None], strict=False)[0]
        assert grad.tobytes() == (column.grad_W + column.grad_V)[..., 0].tobytes()
        # one line of (n,) masses gives the batch's row, W and V as floats
        one, hit = _PairKernel(masses[1], pp).terms(x[1], hess=True)
        assert (one.W, one.V) == (line.W[1], line.V[1]) and isinstance(one.W, float) and not hit
        for got, want in ((one.grad_W + one.grad_V, grad[1]),
                          (one.force_sum, line.force_sum[1]), (one.hess, line.hess[1])):
            assert got.tobytes() == want.tobytes()


def test_a_taken_kernel_equals_a_fresh_binding_of_its_members(rng, monkeypatch):
    # take() slices the bound arrays of some batch members without
    # binding again, and its pass equals that of a fresh binding
    masses = rng.uniform(0.2, 5.0, (6, 4))
    r = np.cumsum(rng.uniform(0.3, 1.0, (6, 4, 2)), axis=1)
    pp = PotentialParams(a=1.0, b=2.5, alpha=0.7, beta=1.3)
    kernel = _PairKernel(masses, pp)
    bindings = count_kernel_bindings(monkeypatch)
    for rows in (np.array([4, 1, 2]), masses[:, 0] > 1.0, np.array([5])):
        taken = kernel.take(rows)
        assert not bindings
        fresh = _PairKernel(masses[rows], pp)
        bindings.clear()
        # every bound array, kc included, is sliced to the bit
        for name in set(_PairKernel.__slots__) - {"pp"}:
            assert getattr(taken, name).tobytes() == getattr(fresh, name).tobytes(), name
        got = taken.terms(r[rows], hess=True)[0]
        want = fresh.terms(r[rows], hess=True)[0]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [1, 2])
def test_an_a_term_of_exponent_zero_is_a_constant(rng, d):
    # at a = 0 the a-term is alpha * sum m_i m_j whatever the positions:
    # no gradient and no Hessian, though W passes through d^-2 * d^2
    n = 5
    ms = random_masses(rng, n)
    r = random_config(rng, n, dim=d, scale=3.0)
    pp = PotentialParams(a=0.0, b=2.0, alpha=1.3, beta=0.7)
    terms = pair_terms(r, ms, pp)
    i, j = np.triu_indices(n, 1)
    constant = pp.alpha * float(np.sum(ms.masses[i] * ms.masses[j]))
    assert np.array_equal(terms.grad_W, np.zeros((n, d)))
    assert terms.W == pytest.approx(constant, rel=1e-15, abs=0.0)
    b_only = PotentialParams(a=0.0, b=2.0, alpha=0.0, beta=0.7)
    assert np.array_equal(hess_U_matrix(r, ms, pp), hess_U_matrix(r, ms, b_only))
    assert np.array_equal(terms.grad_V, pair_terms(r, ms, b_only).grad_V)


def test_masked_kernel_flags_a_colliding_member_only(rng):
    masses = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    r = np.array([[[0.0], [1e-13], [1.0]], [[-1.0], [0.0], [1.0]]])
    pp = PotentialParams(a=1.0, b=2.0)
    with pytest.raises(CollisionError, match="batch member 0"):
        pair_terms(r, masses, pp)
    terms, collided = _PairKernel(masses, pp).terms(r, strict=False, hess=True)
    assert collided.tolist() == [True, False]
    alone = pair_terms(r[1], MassSystem(masses[1]), pp)
    assert terms.W[1] == alone.W and np.array_equal(terms.grad_V[1], alone.grad_V)


_CONFIG = Configuration(np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("call, quantity", [
    (lambda: PotentialParams(a=math.nan), "a must be finite"),
    (lambda: PotentialParams(beta=math.inf), "beta must be finite"),
    (lambda: Configuration(np.zeros((1, 2))), "positions must be (n, d)"),
    (lambda: Configuration(np.zeros((2, 3))), "positions must be (n, d)"),
    (lambda: Configuration(np.array([[0.0, math.nan], [1.0, 0.0]])), "positions must be finite"),
    (lambda: PhaseState(_CONFIG, np.zeros((2, 1))), "momenta must have the same shape"),
    (lambda: PhaseState(_CONFIG, np.array([[0.0, 0.0], [math.inf, 0.0]])), "momenta must be finite"),
], ids=["a", "beta", "one body", "three axes", "nan position", "momenta shape", "inf momentum"])
def test_an_input_check_raises_value_error_naming_its_quantity(call, quantity):
    with pytest.raises(ValueError, match=re.escape(quantity)):
        call()
