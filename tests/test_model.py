"""Potential, derivative, and phase-space invariant tests.

The finite-difference comparisons are the ground truth for every
analytic derivative used elsewhere; the homogeneity identities pin the
signs and exponents independently of any discretization.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    circular_two_body,
    count_kernel_bindings,
    fd_directional_second,
    fd_gradient,
    random_config,
    random_masses,
)
from qhnbody.central_config import restricted_hessian, tangent_basis
from qhnbody.cli import ConfigError, _check_pair_coefficients
from qhnbody.errors import CollisionError, NotOnSphereError
from qhnbody.mcgehee import McGeheeState, mcgehee_field, vector_field
from qhnbody.model import (
    GUARD_FACTOR,
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    _PairKernel,
    _float_pass,
    _incidence,
    angular_momentum,
    angular_momentum_series,
    cartesian_field,
    center_of_mass,
    centered,
    energy_series,
    grad_U,
    grad_V,
    grad_W,
    hamiltonian,
    hess_U_matrix,
    lift_to_plane,
    mass_inner,
    moment_of_inertia,
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
    pp = PotentialParams(a=1.0, b=2.0)
    pp.require_manev()
    from qhnbody.errors import ManevOnlyError

    with pytest.raises(ManevOnlyError):
        PotentialParams(a=0.5, b=2.0).require_manev()
    with pytest.raises(ManevOnlyError):
        PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=0.0).require_manev()


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
    assert np.isclose(moment_of_inertia(config, ms), mass_inner(c, c, ms))


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
        return GUARD_FACTOR * np.sqrt(moment_of_inertia(centered(r, ms), ms) / ms.total_mass)

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
            want = moment_of_inertia(centered(r[k], ms), ms) / ms.total_mass
            one = _PairKernel(ms.masses, PotentialParams())
            assert np.vecdot(one.weights, one.pairs(r[k])[1]) == pytest.approx(want, rel=1e-12)
            assert np.vecdot(batch.weights[k], d2[k]) == pytest.approx(want, rel=1e-12)


def _bound_kernel_cases(blow_up=False):
    """Seeded (ms, pp, r, p, rng) for the field tests; blow_up leaves out a != 1."""
    rng = np.random.default_rng(77)
    for n in range(2, 8):
        for d in (1, 2):
            for b in (1.5, 2.0, 3.0):
                ms = random_masses(rng, n)
                pp = PotentialParams(a=1.0, b=b, alpha=rng.uniform(0.5, 2.0), beta=0.5)
                r = random_config(rng, n, d, scale=float(n))
                yield ms, pp, r, rng.standard_normal((n, d)), rng
    # harder inputs on both sides of the fields' float pass (n <= 3, and
    # n = 4 in the plane): masses over 12 decades, alpha = 0, a = 0, b = 7,
    # a pair 1.5 guards apart (n >= 3: a lone pair sets the size, so it is
    # never near the guard), unit separations 1e6 from the origin, and a
    # plane's bodies on its x-axis, where each y-force is a sum of zeros and
    # must read +0.  Four bodies come twice, with the near pair first and last.
    pps = [PotentialParams(a=1.0, b=7.0, alpha=0.0, beta=0.5),
           PotentialParams(a=1.0, b=7.0, alpha=1.3, beta=0.5)]
    if not blow_up:
        pps.append(PotentialParams(a=0.0, b=2.0, alpha=1.3, beta=0.7))
    for n, (i, j) in ((2, (0, 1)), (3, (0, 1)), (4, (0, 1)), (4, (3, 2)), (5, (0, 1))):
        for d in (1, 2):
            ms = MassSystem(rng.permutation(np.geomspace(1e-6, 1e6, n)))
            near = random_config(rng, n, d)
            near[j] = near[i]
            size = np.sqrt(moment_of_inertia(centered(near, ms), ms) / ms.total_mass)
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
    # 130 coordinates, past numpy's 128-term block of pairwise summation
    ms = random_masses(rng, 65)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.3, beta=0.5)
    yield ms, pp, random_config(rng, 65, 2, scale=65.0), rng.standard_normal((65, 2)), rng


def test_cartesian_field_is_pair_terms_bit_for_bit():
    for ms, pp, r, p, _ in _bound_kernel_cases():
        field = cartesian_field(ms, pp, r.shape[1])
        y = np.concatenate([r.ravel(), p.ravel()])
        t = pair_terms(r, ms, pp)
        rdot, pdot = p / ms.masses[:, None], t.grad_W + t.grad_V
        expected = np.concatenate([rdot.ravel(), pdot.ravel()])
        assert field(0.0, y).tobytes() == expected.tobytes()


def test_the_float_pass_is_the_kernel_pass_bit_for_bit():
    # the fields show W and V only through the blown-up one, and at rho = 0
    # W not at all, so the float pass's sums are checked here on their own:
    # a sum of three terms in another order differs in about 1 case in 10
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n, d = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        a = float(rng.choice([0.0, 0.5, 1.0]))
        pp = PotentialParams(a=a, b=a + float(rng.choice([0.5, 1.0, 2.0, 6.0])),
                             alpha=float(rng.choice([0.0, 1.3])), beta=float(rng.uniform(0.1, 2.0)))
        kernel = _PairKernel(10.0 ** rng.uniform(-3.0, 3.0, n), pp)
        r = random_config(rng, n, d, scale=float(n))
        if d == 2 and rng.random() < 0.2:
            r[:, 1] = 0.0
        w, v, g_w, g_v = _float_pass(kernel, d)(r.ravel().tolist())
        t = kernel.terms(r, force=False)[0]
        assert np.array([w, v]).tobytes() == np.array([t.W, t.V]).tobytes()
        assert np.array(g_w + g_v).tobytes() == np.concatenate([t.grad_W, t.grad_V]).tobytes()


def float_pass_fuzz(seed, draws, n=4, d=2):
    """The number of seeded draws at which _float_pass and kernel.terms differ in any bit."""
    rng, differ = np.random.default_rng(seed), 0
    for _ in range(draws):
        a = float(rng.choice([0.0, 0.5, 1.0]))
        pp = PotentialParams(a=a, b=a + float(rng.choice([0.5, 1.0, 2.0, 6.0])),
                             alpha=float(rng.choice([0.0, 1.3])), beta=float(rng.uniform(0.1, 2.0)))
        kernel = _PairKernel(10.0 ** rng.uniform(-6.0, 6.0, n), pp)
        r = random_config(rng, n, d, scale=float(n))
        if d == 2 and rng.random() < 0.2:
            r[:, int(rng.integers(2))] = 0.0
        w, v, g_w, g_v = _float_pass(kernel, d)(r.ravel().tolist())
        t = kernel.terms(r, force=False)[0]
        differ += (np.array([w, v, *g_w, *g_v]).tobytes()
                   != np.concatenate([[t.W, t.V], t.grad_W.ravel(), t.grad_V.ravel()]).tobytes())
    return differ


def test_the_float_pass_of_four_bodies_in_the_plane_is_the_kernel_pass_bit_for_bit():
    # each body's three pair terms in pair order, as the plane's batched
    # matmul adds them; masses over 12 decades, and one axis all zeros
    assert float_pass_fuzz(seed=44, draws=2000) == 0


def _blown_up_reference(y, ms, pp, n, d, with_time):
    """The blown-up field composed from pair_terms, one array per part."""
    b, m, sz = pp.b, ms.masses[:, None], n * d
    rho, v = y[0], y[1]
    s, u = y[2 : 2 + sz].reshape(n, d), y[2 + sz : 2 + 2 * sz].reshape(n, d)
    w_s, v_s, gw, gv = pair_terms(s, ms, pp)[:4]
    u_m_u = float(np.sum(u * u / m))
    rho_pow = rho ** (b - 1.0) if rho > 0.0 else 0.0
    v_dot = 0.5 * b * v * v + u_m_u - rho_pow * w_s - b * v_s
    u_dot = (
        (0.5 * b - 1.0) * v * u
        - u_m_u * (m * s)
        + rho_pow * (w_s * (m * s) + gw)
        + b * v_s * (m * s)
        + gv
    )
    parts = [np.array([rho * v, v_dot]), (u / m).ravel(), u_dot.ravel()]
    if with_time:
        parts.append(np.array([rho ** (1.0 + b / 2.0) if rho > 0.0 else 0.0]))
    return np.concatenate(parts)


@pytest.mark.parametrize("with_time", [False, True])
def test_mcgehee_field_is_its_pair_terms_composition_bit_for_bit(with_time):
    for ms, pp, s, u, rng in _bound_kernel_cases(blow_up=True):
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
    """(field, flat state, the field's numpy pass composed from pair_terms) for the
    Cartesian field and the blown-up one without and with time, of one seeded
    system with a = 1, where both are defined."""
    ms = random_masses(rng, n)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    y = np.concatenate([random_config(rng, n, d).ravel(), rng.standard_normal(n * d)])
    y_blown_up = np.concatenate([[0.5, -0.1], y])

    def cartesian(y):
        t = pair_terms(y[: n * d].reshape(n, d), ms, pp)
        rdot = y[n * d :].reshape(n, d) / ms.masses[:, None]
        return np.concatenate([rdot.ravel(), (t.grad_W + t.grad_V).ravel()])

    return [
        (cartesian_field(ms, pp, d), y, cartesian),
        (mcgehee_field(ms, pp, d), y_blown_up,
         lambda y: _blown_up_reference(y, ms, pp, n, d, False)),
        (mcgehee_field(ms, pp, d, with_time=True), np.append(y_blown_up, 0.7),
         lambda y: _blown_up_reference(y, ms, pp, n, d, True)),
    ]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_fields_take_the_float_pass_up_to_three_bodies_and_four_in_the_plane(
        rng, monkeypatch, n, d):
    # every numpy pass starts with _PairKernel.pairs; the float pass never
    # calls it.  The Cartesian field keeps its numpy body from four bodies,
    # and four bodies on the line keep the numpy pass in the blown-up one.
    calls = []
    pairs = _PairKernel.pairs
    monkeypatch.setattr(_PairKernel, "pairs", lambda self, *a: calls.append(1) or pairs(self, *a))
    for k, (field, y, _) in enumerate(_field_states(n, d, rng)):
        before = len(calls)
        field(0.0, y)
        float_pass = n <= 3 or n == 4 and d == 2 and k > 0
        assert len(calls) - before == (0 if float_pass else 1)


@pytest.mark.parametrize("defect", ["short", "long", "nan position", "nan momentum", "overflow"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_malformed_state_gives_what_the_numpy_pass_gives(rng, n, defect):
    # no field reads a state of the wrong size as some other state; at n = 4
    # the Cartesian field runs the numpy pass itself, and the float pass must
    # give NaN where numpy does: for a NaN coordinate, or for forces past
    # the float range, where the matmul's 0 * inf is NaN
    for k, (field, y, numpy_pass) in enumerate(_field_states(n, 2, rng)):
        blown_up = k > 0
        if defect in ("short", "long"):
            with pytest.raises(ValueError):
                field(0.0, y[:-2] if defect == "short" else np.append(y, 1.0))
            if k == 2:  # the blown-up state with time, without its t
                with pytest.raises(ValueError):
                    field(0.0, y[:-1])
        else:
            y = y.copy()
            if defect == "overflow":  # d^-(b+2) of separations near 1e-70
                y[2 * blown_up : 2 * blown_up + 2 * n] *= 1e-70
            else:  # the second coordinate of body 0, or of its momentum (u when blown up)
                y[2 * blown_up + 2 * n * (defect == "nan momentum") + 1] = np.nan
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = field(0.0, y), numpy_pass(y)
            assert np.isnan(got).any() or defect == "overflow" and n == 2
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_cartesian_field_keeps_its_symmetries(rng, n):
    # oracle-free checks on both sides of the float pass (n <= 3).  Each
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
    if not _binds(ms, pp):
        return
    near = Configuration(np.array([[0.0, 0.0], [d, 0.0]]))
    far = Configuration(np.array([[0.0, 0.0], [d * 1.5, 0.0]]))
    u_near = potential_U(near, ms, pp)
    u_far = potential_U(far, ms, pp)
    assert u_near > u_far > 0.0


def _binds(ms, pp):
    """Whether the pair kernel of (ms, pp) binds; it must refuse exactly the
    zero, subnormal or non-finite coefficients that the command line refuses
    (a draw of a or alpha near 0 gives one)."""
    try:
        _check_pair_coefficients(ms, pp)
    except ConfigError:
        with pytest.raises(ValueError, match=r" is (zero or subnormal|not finite)$"):
            _PairKernel(ms.masses, pp)
        return False
    return True


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
    if not _binds(ms, pp):
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
