"""Central configuration solvers: counts, certificates, oracles.

The collinear solver is cross-checked against a derivative-free nested
grid search over the gap ratio, so the Newton implementation is never
its own referee.
"""

import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    KernelPass,
    count_kernel_bindings,
    count_kernel_passes,
    every_class,
    fail_linalg,
    random_masses,
)
from qhnbody import central_config, cli, model
from qhnbody.central_config import (
    CCQuery,
    Ordering,
    cc_index,
    cc_residual,
    count_modes,
    equilateral_cc,
    equilateral_configuration,
    equilateral_side,
    euler_collinear_homogeneous,
    f_root,
    index_report,
    SimultaneousReport,
    require_on_sphere,
    restricted_hessian,
    simultaneous_gap,
    simultaneous_gaps,
    simultaneous_residual,
    solve_collinear_batch,
    solve_collinear_ordering,
    tangent_basis,
)
from qhnbody.collision_flow import linearize_at_equilibrium, transversality_necessary
from qhnbody.errors import (
    BracketError,
    DegenerateError,
    DegenerateTermError,
    NoConvergenceError,
    NotOnSphereError,
)
from qhnbody.model import (
    Configuration,
    MassSystem,
    PotentialParams,
    centered,
    grad_U,
    hess_U_matrix,
    mass_inner,
    pair_terms,
    potential_U,
    potential_terms,
)

MS123 = MassSystem(np.array([1.0, 2.0, 3.0]))
PP12 = PotentialParams(a=1.0, b=2.0)
PP13 = PotentialParams(a=1.0, b=3.0)


# ---------------------------------------------------------------------------
# ordering classes


def test_ordering_validation():
    with pytest.raises(ValueError):
        Ordering((1, 1, 2))
    with pytest.raises(ValueError):
        Ordering((0, 1, 2))
    with pytest.raises(ValueError):
        Ordering((2, 3, 4))


def test_ordering_canonical_identifies_reversal():
    o = Ordering((3, 1, 2))
    assert o.reversed_().perm == (2, 1, 3)
    assert o.canonical().perm == (2, 1, 3)
    assert Ordering((1, 2, 3)).is_canonical
    assert not Ordering((3, 2, 1)).is_canonical


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 12), (5, 60)])
def test_canonical_class_count(n, count):
    classes = Ordering.all_canonical(n)
    assert len(classes) == count
    assert len({o.perm for o in classes}) == count
    for o in classes:
        assert o.is_canonical


# ---------------------------------------------------------------------------
# collinear solver


def test_two_body_closed_form_positions():
    ms = MassSystem(np.array([2.0, 3.0]))
    pp = PP12
    res = solve_collinear_ordering(Ordering((1, 2)), CCQuery(ms=ms, pp=pp))
    x = res.config.positions[:, 0]
    d_expected = np.sqrt(ms.total_mass / (2.0 * 3.0))  # I0 = 1
    assert abs((x[1] - x[0]) - d_expected) < 1e-12
    assert abs(2.0 * x[0] + 3.0 * x[1]) < 1e-12  # CoM
    w, v = potential_terms(res.config, ms, pp)
    assert np.isclose(res.sigma, -(pp.a * w + pp.b * v) / 2.0, rtol=1e-12)
    assert res.residual < 1e-12


def test_collinear_counts_and_residuals():
    for n, count in ((2, 1), (3, 3), (4, 12)):
        ms = MassSystem(np.linspace(1.0, 2.0, n))
        results = solve_collinear_batch(*every_class(ms), PP13).results()
        assert len(results) == count
        for res in results:
            assert res.residual < 1e-10
            assert res.index == 0  # minimum on its ordering component
            assert res.config.positions.shape == (n, 2)
            gaps = np.diff(np.sort(res.config.positions[:, 0]))
            assert np.all(gaps > 0.0)


def test_six_body_ordering_converges_at_its_rounding_floor():
    # This ordering used to stall a few ulps above a floor taken from the
    # net gradient, well below what rounding in the pair sums allows.
    ms = MassSystem(np.linspace(1.0, 2.0, 6))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    res = solve_collinear_ordering(Ordering((1, 2, 6, 4, 5, 3)), CCQuery(ms=ms, pp=pp))
    force_sum = pair_terms(res.config.positions[:, :1], ms, pp).force_sum
    assert res.index == 0
    assert res.residual < max(1e-10, 32.0 * np.finfo(float).eps * force_sum.max())


def test_seeded_census_at_five_and_six_bodies():
    # every class converges, to its own ordering and a minimum, on random
    # masses at the sizes the acceptance suite does not reach
    rng = np.random.default_rng(5)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    started = time.monotonic()
    for n in (5, 5, 6):
        ms = random_masses(rng, n)
        for res in solve_collinear_batch(*every_class(ms), pp).results():
            x = res.config.positions[:, 0]
            assert np.all(np.diff(x[list(res.ordering.zero_based)]) > 0.0)
            assert res.index == 0
            force_sum = pair_terms(res.config.positions[:, :1], ms, pp).force_sum
            assert res.residual < max(1e-10, 32.0 * np.finfo(float).eps * force_sum.max())
            assert res.fallbacks == 0
            assert res.backtracks <= 1
    assert time.monotonic() - started < 30.0


def test_solver_reports_an_exhausted_iteration_budget():
    q = CCQuery(ms=MassSystem(np.linspace(1.0, 2.0, 4)), pp=PP13, max_iter=1)
    with pytest.raises(NoConvergenceError) as err:
        solve_collinear_ordering(Ordering.identity(4), q)
    assert err.value.residual > q.grad_tol


def _counters(res):
    return res.newton_iters, res.backtracks, res.fallbacks, res.residual_floor


def _bits(res):
    return (res.config.positions.tobytes(), res.hess_eigs.tobytes(), repr(res.sigma),
            repr(res.residual), res.index, *map(repr, _counters(res)))


def test_lockstep_batch_equals_one_member_solves():
    # each class of a batched census is the B = 1 solve of its ordering,
    # work counters included; with ones_first, the one-member solves of the
    # same masses also run before the batch in this process, which binds
    # the kernel of those masses first, and before and after it give its bits
    rng = np.random.default_rng(17)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    for n, ones_first in ((3, False), (4, False), (5, False), (6, False), (5, True)):
        ms = random_masses(rng, n)
        q = CCQuery(ms=ms, pp=pp)
        first = [solve_collinear_ordering(o, q) for o in Ordering.all_canonical(n) if ones_first]
        batch = solve_collinear_batch(*every_class(ms), pp).results()
        assert [r.ordering for r in batch] == Ordering.all_canonical(n)
        for k, res in enumerate(batch):
            one = solve_collinear_ordering(res.ordering, q)
            assert res.index == one.index
            assert _counters(res) == _counters(one)
            assert np.abs(res.config.positions - one.config.positions).max() <= 1e-12
            if ones_first:
                assert _bits(first[k]) == _bits(one) == _bits(res)


def test_the_six_body_census_takes_at_most_four_rounds_bit_for_bit():
    # tension-balanced gaps start every class near its CC: the 360 classes
    # at masses 1..6 take at most 4 Newton rounds, and a member of the
    # batch is its one-member solve to the last bit
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    ms = MassSystem(np.arange(1.0, 7.0))
    batch = solve_collinear_batch(*every_class(ms), pp)
    assert batch.newton_iters.max() <= 4 and not batch.index.any()
    for k in range(0, 360, 12):
        one = solve_collinear_batch([batch.orderings[k]], ms.masses[None], pp)
        for name in ("x", "sigma", "residual", "hess_eigs", "newton_iters", "backtracks",
                     "fallbacks", "residual_floor"):
            assert np.array_equal(getattr(batch, name)[k], getattr(one, name)[0]), name


def test_the_census_benchmark_ops_take_about_three_rounds(monkeypatch, tmp_path):
    # the ops of the census workload at seed 3, each solved in the batch of
    # its mass draw (a member's rounds are those of its own solve), take
    # about 3 rounds on average from balanced gaps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = pytest.importorskip("workloads")
    draws = {}

    def record(ordering, q):
        draws.setdefault(q.ms.masses.tobytes(), (q, []))[1].append(ordering)

    with monkeypatch.context() as patch:
        patch.setattr(central_config, "solve_collinear_ordering", record)
        for op in workloads.build("census", 3, 20, tmp_path):
            op.run()
    rounds = []
    for q, orderings in draws.values():
        masses = np.tile(q.ms.masses, (len(orderings), 1))
        rounds.extend(solve_collinear_batch(orderings, masses, q.pp).newton_iters)
    assert len(rounds) > 1000
    assert np.mean(rounds) <= 3.3


# potentials the start must handle: a = 0, alpha = 0, beta = 0, a small beta, b = 7
START_POTENTIALS = [
    PotentialParams(a=0.0, b=2.0, alpha=1.0, beta=1.0),
    PotentialParams(a=1.0, b=3.0, alpha=0.0, beta=1.0),
    PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.0),
    PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=1e-6),
    PotentialParams(a=0.5, b=7.0, alpha=1.0, beta=3.0),
]


def _start(orderings, masses, pp):
    kernel = model._PairKernel(masses, pp)
    slots = np.array([o.zero_based for o in orderings])
    x = central_config._line_start(kernel, masses, masses.sum(-1, keepdims=True), slots)[0]
    equal = np.argsort(slots, axis=-1).astype(float)  # each body's place in its ordering
    return x, central_config._project_line(equal, masses, masses.sum(-1, keepdims=True))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 7),
    pp=st.sampled_from(START_POTENTIALS),
    inertia_I0=st.sampled_from([0.01, 100.0]),
)
def test_the_start_is_finite_ordered_centred_and_on_the_sphere(seed, n, pp, inertia_I0):
    # the solver starts the normal form of (pp, I0) on the unit sphere
    rng = np.random.default_rng(seed)
    masses = rng.uniform(0.1, 10.0, (4, n))
    orderings = [Ordering(tuple(rng.permutation(n) + 1)) for _ in masses]
    x, equal = _start(orderings, masses, central_config._normal_form(pp, inertia_I0)[0])
    assert np.isfinite(x).all()
    for o, row in zip(orderings, x):
        assert np.all(np.diff(row[list(o.zero_based)]) > 0.0)
    scale = np.sqrt(masses.sum(-1))
    assert (np.abs((masses * x).sum(-1)) <= 1e-14 * scale).all()
    np.testing.assert_allclose((masses * x * x).sum(-1), 1.0, rtol=1e-14)
    if n > 2:  # two bodies have one shape on the sphere
        assert not (x == equal).all(axis=-1).any()


def test_a_start_that_fails_keeps_equal_gaps(monkeypatch):
    # the light pass reads NaN forces for the first member and a collision
    # for the second: both start from equal gaps, the third as before
    rng = np.random.default_rng(7)
    masses = rng.uniform(0.1, 10.0, (3, 5))
    orderings = [Ordering((2, 5, 1, 4, 3))] * 3
    clean, equal = _start(orderings, masses, PP13)
    kernel_terms = model._PairKernel.terms

    def broken(self, r, force=True, strict=True, hess=False):
        terms, collided = kernel_terms(self, r, force, strict, hess)
        if hess:
            return terms, collided
        terms.grad_W[0] = np.nan
        return terms, collided | (np.arange(len(r)) == 1)

    monkeypatch.setattr(model._PairKernel, "terms", broken)
    x = _start(orderings, masses, PP13)[0]
    np.testing.assert_array_equal(x[:2], equal[:2])
    np.testing.assert_array_equal(x[2], clean[2])
    assert not (clean[:2] == equal[:2]).all(axis=-1).any()


@pytest.mark.parametrize("pp", START_POTENTIALS)
def test_a_seeded_stall_sweep_converges_everywhere(pp):
    # random masses in [0.1, 10] and random orderings at n = 2..7 on two
    # sphere sizes: every member converges to a minimum of its class below
    # a goal that counts the rounding of x itself (b = 7 stalled without it)
    rng = np.random.default_rng(2029)
    for n in range(2, 8):
        for inertia_I0 in (1.0, 0.3):
            masses = rng.uniform(0.1, 10.0, (50, n))
            orderings = [Ordering(tuple(rng.permutation(n) + 1)) for _ in masses]
            batch = solve_collinear_batch(orderings, masses, pp, inertia_I0)
            assert (batch.residual <= batch.residual_floor).all() and not batch.index.any()


def test_the_b7_class_that_stalled_converges():
    # rounding x to floats can move this class's residual by about 2.45e-5,
    # twice the 8-ulp floor of its force sums (about 1.2e-5): the goal must
    # count both for the solve to converge
    masses = np.array([4.770119463397014, 3.3909771643083935, 0.7677028567232934,
                       1.4055820087715427, 5.720888877600102, 2.7181153188320955])
    pp = PotentialParams(a=0.5, b=7.0, alpha=1.0, beta=3.0)
    ms = MassSystem(masses)
    res = solve_collinear_ordering(Ordering((1, 6, 4, 2, 3, 5)), CCQuery(ms=ms, pp=pp))
    assert res.index == 0 and res.residual <= res.residual_floor
    force_sum = pair_terms(res.config.positions[:, :1], ms, pp).force_sum
    assert res.residual_floor > 8.0 * np.finfo(float).eps * force_sum.max()


def test_solver_counts_its_work():
    q = CCQuery(ms=MassSystem(np.linspace(1.0, 2.0, 6)), pp=PotentialParams(1.0, 3.0, 1.0, 0.5))
    res = solve_collinear_ordering(Ordering((1, 2, 6, 4, 5, 3)), q)
    assert 0 < res.newton_iters < q.max_iter
    assert res.backtracks >= 0 and res.fallbacks >= 0
    # the goal is grad_tol or the rounding floor above it, and was met
    assert q.grad_tol <= res.residual_floor and res.residual <= res.residual_floor
    forced = solve_collinear_ordering(Ordering((1, 2, 3)), CCQuery(ms=MS123, pp=PP13, grad_tol=1e-300))
    assert forced.residual_floor > 1e-300


def _light_start_then_hessian_passes(passes):
    """The passes after the start's one light pass, which sums no Hessian and no force."""
    assert passes[0] == KernelPass(hess=False, force=False)
    assert all(p == KernelPass(hess=True, force=True) for p in passes[1:])
    return passes[1:]


def test_each_newton_iterate_costs_one_kernel_pass(monkeypatch):
    # one light pass balances the start's gaps; then the pass that accepts
    # a trial step also evaluates the next iterate, Hessian included, and
    # the final spectrum reads the pass at the last iterate; besides the
    # first iterate, only rejected trials cost passes.  The kernel is bound
    # once per solve, and once per batch.
    bindings, passes = count_kernel_bindings(monkeypatch), count_kernel_passes(monkeypatch)
    ms = MassSystem(np.linspace(1.0, 2.0, 6))
    res = solve_collinear_ordering(Ordering((1, 2, 6, 4, 5, 3)), CCQuery(ms=ms, pp=PP13))
    assert res.newton_iters > 0
    hessian_passes = _light_start_then_hessian_passes(passes)
    assert 1 + res.newton_iters <= len(hessian_passes) <= 1 + res.newton_iters + res.backtracks
    assert len(bindings) == 1
    bindings.clear()
    passes.clear()
    batch = solve_collinear_batch(*every_class(ms), PP13).results()
    assert len(bindings) == 1
    rounds = max(r.newton_iters for r in batch)
    hessian_passes = _light_start_then_hessian_passes(passes)
    assert 1 + rounds <= len(hessian_passes) <= 1 + rounds + sum(r.backtracks for r in batch)


def test_restricted_hessian_costs_one_kernel_pass(monkeypatch):
    res = solve_collinear_ordering(Ordering((1, 3, 2)), CCQuery(ms=MS123, pp=PP13))
    passes = count_kernel_passes(monkeypatch)
    a_mat, lam = restricted_hessian(res.config, MS123, PP13, "planar")
    assert len(passes) == 1
    # the caller's terms spare the pass and give the same matrix
    terms = model._PairKernel(MS123.masses, PP13).terms(res.config.positions, hess=True)[0]
    passes.clear()
    again = restricted_hessian(res.config, MS123, PP13, "planar", terms=terms)
    assert not passes
    assert np.array_equal(again[0], a_mat) and np.array_equal(again[1], lam)


def _reference_directions(x, masses, pp, terms, sigma):
    """Newton directions built member by member in the tangent basis."""
    out, slopes, uphill = [], [], []
    for b in range(len(x)):
        ms, r1 = MassSystem(masses[b]), x[b][:, None]
        basis = tangent_basis(r1, ms)
        a_mat = restricted_hessian(r1, ms, pp, "collinear")[0]
        # basis^T grad U in exact arithmetic; projecting the residual
        # instead keeps the normal part of grad U, of order 1e5 at n = 6,
        # from eating the digits of a step taken near a CC
        residual = (terms.grad_W[b] + terms.grad_V[b])[:, 0] - 2.0 * sigma[b] * masses[b] * x[b]
        g = basis.T @ residual
        step = np.linalg.solve(a_mat, -g)
        uphill.append(g @ step >= 0.0)
        if uphill[-1]:
            step = -g
        out.append(basis @ step)
        slopes.append(g @ step)
    return np.array(out), np.array(slopes), np.array(uphill)


def _iterates_near_ccs(rng, pp, n, size=8):
    """Random (x, masses) batch: CCs of random orderings, kicked by 1e-9 to 5e-2."""
    masses = rng.uniform(0.2, 5.0, (size, n))
    orderings = [Ordering(tuple(rng.permutation(n) + 1)) for _ in masses]
    x = solve_collinear_batch(orderings, masses, pp).x
    kick = np.geomspace(1e-9, 5e-2, size)[rng.permutation(size)][:, None]
    kicked = x + kick * rng.standard_normal((size, n))
    return central_config._project_line(kicked, masses, masses.sum(-1, keepdims=True)), masses


@pytest.mark.parametrize("flip", [False, True])
def test_bordered_newton_step_is_the_tangent_basis_step(monkeypatch, flip):
    # the bordered solve gives the restricted-Hessian step of the tangent
    # basis; with the Hessian's sign flipped for members whose first body
    # is heavy, those go uphill and must fall back to the projected gradient
    rng = np.random.default_rng(29)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    batches = [_iterates_near_ccs(rng, pp, n) for n in (3, 4, 5, 6)]
    if flip:
        kernel_terms = model._PairKernel.terms

        def flipped(self, r, *args, **kwargs):
            terms, collided = kernel_terms(self, r, *args, **kwargs)
            sign = np.where(self.m_col[..., :1, :] > 2.6, -1.0, 1.0)
            return terms._replace(hess=terms.hess * sign), collided

        monkeypatch.setattr(model._PairKernel, "terms", flipped)
    fell = []
    for x, masses in batches:
        terms = model._PairKernel(masses, pp).terms(x[..., None], hess=True)[0]
        sigma = cc_residual(x[..., None], masses, pp, terms)[0]
        # the bordered system as the solver builds it: -r and two zero border rows
        residual = (terms.grad_W + terms.grad_V)[..., 0] - 2.0 * sigma[:, None] * masses * x
        rhs = np.concatenate([-residual, np.zeros((len(x), 2))], axis=-1)
        shift = (pp.a * terms.W + pp.b * terms.V)[:, None] * masses
        direction, slope, fallback = central_config._newton_directions(
            central_config._border(masses), masses * x, terms.hess, shift, rhs)
        want_direction, want_slope, want_fallback = _reference_directions(x, masses, pp, terms, sigma)
        error = np.abs(direction - want_direction).max(axis=-1)
        assert (error <= 1e-10 * np.abs(want_direction).max(axis=-1)).all()
        np.testing.assert_allclose(slope, want_slope, rtol=1e-10, atol=0.0)
        assert (slope < 0.0).all()
        np.testing.assert_array_equal(fallback, want_fallback)
        fell.extend(fallback)
    assert any(fell) == flip and not all(fell)


def test_a_newton_step_that_climbs_falls_back_once_inside_a_solve(monkeypatch):
    # the Hessian's sign flipped as above, on a batch's first pass with a
    # Hessian only: the members whose first body is heavy take one gradient
    # step in place of a Newton step, then converge to the clean CC; the
    # others do not notice
    rng = np.random.default_rng(29)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    kernel_terms = model._PairKernel.terms
    for n in (3, 4, 5, 6):
        masses = rng.uniform(0.2, 5.0, (8, n))
        orderings = [Ordering(tuple(rng.permutation(n) + 1)) for _ in masses]
        clean = solve_collinear_batch(orderings, masses, pp)
        passes = []

        def flipped_once(self, r, *args, **kwargs):
            terms, collided = kernel_terms(self, r, *args, **kwargs)
            if terms.hess is None:  # the start's light pass
                return terms, collided
            passes.append(r.shape)
            if len(passes) > 1:
                return terms, collided
            sign = np.where(self.m_col[..., :1, :] > 2.6, -1.0, 1.0)
            return terms._replace(hess=terms.hess * sign), collided

        with monkeypatch.context() as patch:
            patch.setattr(model._PairKernel, "terms", flipped_once)
            got = solve_collinear_batch(orderings, masses, pp)
        flipped = masses[:, 0] > 2.6
        assert flipped.any() and not flipped.all() and not clean.fallbacks.any()
        assert got.fallbacks.tolist() == flipped.astype(int).tolist()
        assert np.abs(got.x - clean.x).max() <= 1e-12 and not got.index.any()
        for name in ("newton_iters", "backtracks", "fallbacks"):
            assert getattr(got, name)[~flipped].tolist() == getattr(clean, name)[~flipped].tolist()


def test_a_singular_newton_system_is_flagged_per_member():
    a_mat = np.array([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    rhs = np.ones((3, 3))
    out, singular = central_config._solve_each(a_mat, rhs)
    assert singular.tolist() == [False, True, False]
    np.testing.assert_array_equal(out, [[1.0] * 3, [0.0] * 3, [0.5] * 3])


def test_a_gradient_step_with_no_solve_is_a_degenerate_error(monkeypatch):
    # every solve fails, so each member falls back to the gradient step,
    # whose system fails too: a numerical failure naming that system
    fail_linalg(monkeypatch, "solve")
    with pytest.raises(DegenerateError, match="^gradient-step system of the collinear Newton step "
                                              "is singular: solve failed$"):
        solve_collinear_ordering(Ordering((1, 3, 2)), CCQuery(ms=MS123, pp=PP13))


def test_a_stall_names_the_goal_it_missed(monkeypatch):
    # one round cannot converge from the start; the goal named is grad_tol
    # when that is above the rounding floor, and the floor at the first
    # iterate otherwise: a few ulps of the largest force sum, plus what
    # rounding x to floats moves the residual by, max_i sum_j |H_ij| ulp(x_j)
    ms = MassSystem(np.linspace(1.0, 2.0, 4))
    ordering = Ordering((2, 4, 1, 3))
    goal_named = r"stalled at residual \S+ above its goal 1\.000e-06$"
    with pytest.raises(NoConvergenceError, match=goal_named):
        solve_collinear_ordering(ordering, CCQuery(ms=ms, pp=PP13, grad_tol=1e-6, max_iter=1))
    # the first iterate is the position of the first pass with a Hessian
    kernel_terms, firsts = model._PairKernel.terms, []

    def recording(self, r, force=True, strict=True, hess=False):
        if hess and not firsts:
            firsts.append(r[0].copy())
        return kernel_terms(self, r, force, strict, hess)

    monkeypatch.setattr(model._PairKernel, "terms", recording)
    with pytest.raises(NoConvergenceError) as info:
        solve_collinear_ordering(ordering, CCQuery(ms=ms, pp=PP13, grad_tol=1e-300, max_iter=1))
    x = firsts[0][:, None]
    assert np.all(np.diff(x[list(ordering.zero_based), 0]) > 0.0)
    assert abs(ms.masses @ x[:, 0]) < 1e-15 and mass_inner(x, x, ms) == pytest.approx(1.0)
    terms = pair_terms(x, ms, PP13)
    sigma = cc_residual(x, ms, PP13, terms)[0]
    scale = np.max(terms.force_sum + np.abs(2.0 * sigma * ms.masses * x[:, 0]))
    moved = np.abs(hess_U_matrix(x, ms, PP13)) @ np.spacing(np.abs(x[:, 0]))
    floor = 8.0 * np.finfo(float).eps * scale + moved.max()
    assert str(info.value).endswith(f" above its goal {floor:.3e}")
    assert f"stalled at residual {info.value.residual:.3e} above" in str(info.value)


def test_mass_grid_batch_equals_per_cell_gaps():
    m1s, m2s = np.linspace(0.5, 1.5, 4), np.linspace(0.7, 1.9, 4)
    ordering = Ordering((2, 1, 3))
    cells = np.array([[m1, m2, 1.2] for m1 in m1s for m2 in m2s])
    gaps = simultaneous_gaps([ordering] * len(cells), cells, PP13)
    for m, gap in zip(cells, gaps):
        assert gap == pytest.approx(simultaneous_gap(MassSystem(m), PP13, ordering), abs=1e-12)


def test_batch_raises_the_first_failure_in_input_order():
    ms = MassSystem(np.linspace(1.0, 2.0, 4))
    orderings, masses = (a[::-1] for a in every_class(ms))
    with pytest.raises(NoConvergenceError) as batch_err:
        solve_collinear_batch(orderings, masses, PP13, max_iter=1)
    with pytest.raises(NoConvergenceError) as one_err:
        solve_collinear_ordering(orderings[0], CCQuery(ms=ms, pp=PP13, max_iter=1))
    assert str(orderings[0].perm) in str(batch_err.value)
    assert str(batch_err.value) == str(one_err.value)
    assert batch_err.value.residual == one_err.value.residual
    with pytest.raises(NoConvergenceError, match="stalled at residual inf"):
        solve_collinear_batch(orderings, masses, PP13, max_iter=0)


def _poison_kernel(monkeypatch, bad_masses):
    # trial steps of the members with these masses read as collisions
    trial_pass = central_config._trial_pass

    def masked(kernel, r):
        terms, collided = trial_pass(kernel, r)
        return terms, collided | (kernel.m_col[..., 0] == bad_masses).all(axis=-1)

    monkeypatch.setattr(central_config, "_trial_pass", masked)


def test_a_line_search_that_rejects_every_trial_stalls(monkeypatch):
    ms = MassSystem(np.linspace(1.0, 2.0, 4))
    _poison_kernel(monkeypatch, ms.masses)
    orderings = Ordering.all_canonical(4)
    with pytest.raises(NoConvergenceError, match="stalled at residual") as one_err:
        solve_collinear_ordering(orderings[0], CCQuery(ms=ms, pp=PP13))
    with pytest.raises(NoConvergenceError, match="stalled at residual") as batch_err:
        solve_collinear_batch(*every_class(ms), PP13)
    assert str(batch_err.value) == str(one_err.value)
    assert batch_err.value.residual == one_err.value.residual


def test_a_collision_rejects_the_colliding_member_only(monkeypatch):
    good, bad = MassSystem(np.linspace(1.0, 2.0, 4)), MassSystem(np.linspace(2.0, 3.0, 4))
    ordering = Ordering.identity(4)
    clean = solve_collinear_ordering(ordering, CCQuery(ms=good, pp=PP13))
    _poison_kernel(monkeypatch, bad.masses)
    res = solve_collinear_ordering(ordering, CCQuery(ms=good, pp=PP13))
    assert _counters(res) == _counters(clean)
    with pytest.raises(NoConvergenceError) as one_err:
        solve_collinear_ordering(ordering, CCQuery(ms=bad, pp=PP13))
    with pytest.raises(NoConvergenceError) as batch_err:
        solve_collinear_batch([ordering] * 2, np.array([good.masses, bad.masses]), PP13)
    assert str(batch_err.value) == str(one_err.value)
    assert batch_err.value.residual == one_err.value.residual


def test_a_step_that_swaps_two_bodies_is_rejected_for_its_member_only(monkeypatch):
    # the first direction of the second member carries its leftmost body
    # half a gap past its right neighbour, with a slope so steep that the
    # Armijo test passes any trial: only the ordering test can turn the
    # full step down, and the half step, back in order, is then taken
    ordering = Ordering((2, 4, 1, 3))
    left, right = ordering.zero_based[:2]
    members = [(ordering, MassSystem(np.linspace(lo, lo + 1.0, 4))) for lo in (1.0, 2.0)]
    clean = [solve_collinear_ordering(o, CCQuery(ms=ms, pp=PP13)) for o, ms in members]
    directions, trial_pass, trials = central_config._newton_directions, central_config._trial_pass, []

    def swapping(border, mx, *args):
        direction, slope, fallback = directions(border, mx, *args)
        if not trials:
            x = mx / border[:, -2, :-2]  # the iterates, to rounding: mx = m x, and the row is m
            direction[1] = 0.0
            direction[1, left] = 1.5 * (x[1, right] - x[1, left])
            slope[1] = 1e12
        return direction, slope, fallback

    def recording(kernel, x):
        trials.append(x.copy())
        return trial_pass(kernel, x)

    monkeypatch.setattr(central_config, "_newton_directions", swapping)
    monkeypatch.setattr(central_config, "_trial_pass", recording)
    res = solve_collinear_batch([o for o, _ in members], np.array([ms.masses for _, ms in members]),
                                PP13).results()
    full, half = trials[:2]
    assert full[0, left] < full[0, right] and full[1, left] > full[1, right]
    assert half.shape[0] == 1 and half[0, left] < half[0, right]
    assert _counters(res[0]) == _counters(clean[0])
    assert res[1].backtracks >= 1 and res[1].index == 0
    assert np.abs(res[1].config.positions - clean[1].config.positions).max() <= 1e-10


def test_the_pair_difference_order_test_matches_the_adjacent_gaps():
    # finite trials in order, out of order, with ties and with neighbours
    # one ulp apart either way: the signs of E^T x decide as the gaps do
    rng = np.random.default_rng(41)
    size = 400
    at = np.arange(size)
    for n in range(2, 7):
        e = model._incidence(n)[2]
        perms = np.array([rng.permutation(n) for _ in range(size)])
        ranks = np.empty((size, n))
        ranks[at[:, None], perms] = np.arange(n)
        values = np.sort(rng.uniform(-2.0, 2.0, (size, n)), axis=1)
        k, kind = rng.integers(0, n - 1, size), rng.integers(0, 4, size)
        v = values[at, k]
        nudged = [values[at, k + 1], v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
        values[at, k + 1] = np.choose(kind, nudged)
        shuffled = rng.random(size) < 0.3
        values[shuffled] = rng.permuted(values[shuffled], axis=1)
        trial = np.empty((size, n))
        trial[at[:, None], perms] = values
        gaps = (np.diff(trial[at[:, None], perms], axis=-1) > 0.0).all(axis=-1)
        ordered = central_config._in_order(trial, e, np.sign(ranks @ e))
        np.testing.assert_array_equal(ordered, gaps)
        assert ordered.any() and not ordered.all()
        assert not ordered[(kind % 2 == 1) & ~shuffled].any()
        assert ordered[(kind % 2 == 0) & ~shuffled].all()


def test_batch_members_must_share_the_body_count():
    # every ordering has as many bodies as each mass row; the masses are finite and positive
    for orderings, masses in (
        ([Ordering.identity(3), Ordering.identity(4)], np.ones((2, 4))),
        ([Ordering.identity(4)], MS123.masses[None]),
        ([Ordering.identity(3)] * 2, MS123.masses[None]),
        ([Ordering.identity(3)], MS123.masses),
        ([Ordering.identity(3)], np.array([[1.0, -2.0, 3.0]])),
        ([Ordering.identity(3)], np.array([[1.0, np.nan, 3.0]])),
    ):
        with pytest.raises(ValueError):
            solve_collinear_batch(orderings, masses, PP13)
    assert solve_collinear_batch([], np.empty((0, 3)), PP13).results() == []


def test_solver_respects_requested_ordering():
    res = solve_collinear_ordering(Ordering((2, 1, 3)), CCQuery(ms=MS123, pp=PP13))
    x = res.config.positions[:, 0]
    assert x[1] < x[0] < x[2]  # body 2 leftmost, then 1, then 3


def _gap_ratio_oracle(ms, pp, inertia_I0=1.0, levels=12, points=41):
    """Derivative-free minimizer of U over the 3-body gap ratio."""

    def value(t):
        x = np.array([0.0, t, 1.0])
        x = x - (ms.masses @ x) / ms.total_mass
        x = x * np.sqrt(inertia_I0 / float(np.sum(ms.masses * x * x)))
        config = Configuration(np.column_stack([x, np.zeros(3)]))
        return potential_U(config, ms, pp)

    lo, hi = 0.02, 0.98
    for _ in range(levels):
        grid = np.linspace(lo, hi, points)
        vals = [value(t) for t in grid]
        k = int(np.argmin(vals))
        width = grid[1] - grid[0]
        lo = max(grid[k] - 2.0 * width, 0.001)
        hi = min(grid[k] + 2.0 * width, 0.999)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("pp", [PP12, PP13, PotentialParams(a=0.5, b=2.5)])
def test_collinear_solution_matches_grid_search(pp):
    res = solve_collinear_ordering(Ordering((1, 2, 3)), CCQuery(ms=MS123, pp=pp))
    x = np.sort(res.config.positions[:, 0])
    solver_ratio = (x[1] - x[0]) / (x[2] - x[0])
    oracle_ratio = _gap_ratio_oracle(MS123, pp)
    assert abs(solver_ratio - oracle_ratio) < 1e-4


def test_collinear_shape_depends_on_sphere_size():
    # Two-term potentials break scale invariance: the gap ratio moves
    # with I0 (single-term shapes do not).
    def ratio(inertia):
        res = solve_collinear_ordering(
            Ordering((1, 2, 3)), CCQuery(ms=MS123, pp=PP13, inertia_I0=inertia)
        )
        x = np.sort(res.config.positions[:, 0])
        return (x[1] - x[0]) / (x[2] - x[0])

    assert abs(ratio(1.0) - ratio(100.0)) > 1e-4
    assert ratio(np.array(100.0)) == ratio(100.0)  # a size as a 0-d array


def test_single_term_shapes_scale_exactly():
    small = euler_collinear_homogeneous(MS123, 3.0, Ordering((1, 2, 3)), 1.0)
    large = euler_collinear_homogeneous(MS123, 3.0, Ordering((1, 2, 3)), 4.0)
    assert np.allclose(
        large.config.positions, 2.0 * small.config.positions, atol=1e-10
    )


def test_collinear_restricted_hessian_positive_definite(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        ms = random_masses(rng, n)
        res = solve_collinear_ordering(
            Ordering.identity(n).canonical(), CCQuery(ms=ms, pp=PP13)
        )
        report = cc_index(res.config, ms, PP13, ambient="collinear")
        assert report.zero_modes == 0
        assert report.index == 0
        if report.eigenvalues.size:
            assert report.eigenvalues.min() > 0.0


def test_a_collinear_ambient_needs_a_shape_on_the_x_axis():
    # an (n, 1) shape or one with zero y lies on the line; the triangle does not
    res = solve_collinear_ordering(Ordering.identity(3), CCQuery(ms=MS123, pp=PP13))
    column = Configuration(res.config.positions[:, :1])
    lam = restricted_hessian(column, MS123, PP13, "collinear")[1]
    assert lam.tobytes() == restricted_hessian(res.config, MS123, PP13, "collinear")[1].tobytes()
    triangle, _ = equilateral_configuration(MS123)
    with pytest.raises(ValueError, match="^configuration is not on the x-axis$"):
        restricted_hessian(triangle, MS123, PP13, "collinear")
    with pytest.raises(ValueError, match="^unknown ambient 'spatial'$"):
        restricted_hessian(triangle, MS123, PP13, "spatial")


def test_cc_residual_measures_the_defect():
    # A scalene non-equilateral triangle is not a CC: residual is O(1).
    r = centered(np.array([[0.7, 0.1], [-0.4, 0.3], [0.0, -0.5]]), MS123)
    r /= np.sqrt(mass_inner(r, r, MS123))
    _, res = cc_residual(Configuration(r), MS123, PP12)
    assert res > 1e-2
    # while the equilateral satisfies the full equation
    config, _ = equilateral_configuration(MS123)
    _, res_eq = cc_residual(config, MS123, PP12)
    assert res_eq < 1e-12


def test_tangent_basis_orthonormal_and_tangent(rng):
    ms = random_masses(rng, 4)
    r = centered(rng.standard_normal((4, 2)), ms)
    r = r / np.sqrt(mass_inner(r, r, ms))
    basis = tangent_basis(r, ms)
    k = basis.shape[1]
    assert k == 2 * 4 - 3  # CoM (2) and radial (1) removed
    for i in range(k):
        vi = basis[:, i].reshape(4, 2)
        assert abs(mass_inner(vi, r, ms)) < 1e-10
        assert np.abs(ms.masses @ vi).max() < 1e-10
        for j in range(i, k):
            vj = basis[:, j].reshape(4, 2)
            target = 1.0 if i == j else 0.0
            assert abs(mass_inner(vi, vj, ms) - target) < 1e-10


@pytest.mark.parametrize("d", [1, 2])
def test_a_stack_of_tangent_bases_equals_each_members_own_bit_for_bit(rng, d):
    masses = rng.uniform(0.2, 5.0, (6, 4))
    r = rng.standard_normal((6, 4, d))
    stack = tangent_basis(r, masses)
    assert stack.shape == (6, 4 * d, 3 * d - 1)
    for member, x, m in zip(stack, r, masses):
        assert np.array_equal(member, tangent_basis(x, MassSystem(m)))


def test_a_planar_spectrum_holds_its_digits_as_one_mass_vanishes():
    # pure-b, b = 21, at the equilateral triangle of masses [m, 1, 1]: the
    # spectrum moves by about 17 m of its largest |eigenvalue|, so
    # consecutive ones agree to that and rounding, even where m^2 is below
    # the smallest float
    pp = PotentialParams(a=1.0, b=21.0, alpha=0.0, beta=1.0)
    masses = (1e-9, 1e-12, 1e-15, 1e-300)
    spectra = []
    for m in masses:
        ms = MassSystem(np.array([m, 1.0, 1.0]))
        spectra.append(restricted_hessian(equilateral_configuration(ms)[0], ms, pp)[1])
    for m, lam, nxt in zip(masses, spectra, spectra[1:]):
        assert np.all(np.isfinite(nxt))
        assert np.abs(nxt - lam).max() <= (50.0 * m + 1e-13) * np.abs(lam).max()


# ---------------------------------------------------------------------------
# equilateral


def test_equilateral_side_formula(rng):
    for _ in range(5):
        ms = random_masses(rng, 3)
        m = ms.masses
        pair_sum = m[0] * m[1] + m[0] * m[2] + m[1] * m[2]
        assert np.isclose(
            equilateral_side(ms), np.sqrt(ms.total_mass / pair_sum), rtol=1e-14
        )
    assert np.isclose(equilateral_side(MS123), np.sqrt(6.0 / 11.0), rtol=1e-14)


def test_equilateral_configuration_geometry(rng):
    ms = random_masses(rng, 3)
    plus, minus = equilateral_configuration(ms)
    for config in (plus, minus):
        r = config.positions
        assert np.abs(ms.masses @ r).max() < 1e-12
        assert abs(mass_inner(r, r, ms) - 1.0) < 1e-12
        d01 = np.linalg.norm(r[0] - r[1])
        d02 = np.linalg.norm(r[0] - r[2])
        d12 = np.linalg.norm(r[1] - r[2])
        assert np.isclose(d01, d02, rtol=1e-12)
        assert np.isclose(d01, d12, rtol=1e-12)
        assert np.isclose(d01, equilateral_side(ms), rtol=1e-12)
    assert np.allclose(minus.positions, plus.positions * [1.0, -1.0])


def test_equilateral_cc_certificates(rng):
    for _ in range(5):
        ms = random_masses(rng, 3)
        plus, minus = equilateral_cc(CCQuery(ms=ms, pp=PP12))
        for res in (plus, minus):
            assert res.residual < 1e-10
            assert res.kind == "equilateral"
            # simultaneous: both multipliers combine to the total
            assert np.isclose(res.sigma1 + res.sigma2, res.sigma, rtol=1e-10)
            w, v = potential_terms(res.config, ms, PP12)
            assert np.isclose(res.sigma1, -PP12.a * w / 2.0, rtol=1e-10)
            assert np.isclose(res.sigma2, -PP12.b * v / 2.0, rtol=1e-10)


def test_equilateral_cc_is_one_batch_with_each_triangles_own_values(rng, monkeypatch):
    for inertia_i0, pp in ((1.0, PP12), (7.3, PotentialParams(a=1.0, b=3.5, alpha=0.6, beta=2.0))):
        ms = random_masses(rng, 3)
        bindings, passes = count_kernel_bindings(monkeypatch), count_kernel_passes(monkeypatch)
        plus, minus = equilateral_cc(CCQuery(ms=ms, pp=pp, inertia_I0=inertia_i0))
        assert (len(bindings), len(passes)) == (1, 1)
        monkeypatch.undo()
        # each value as a pass, a residual and a spectrum of the unit-size triangle
        # alone give it in the normal form, mapped back
        unit, root, curvature, force = central_config._normal_form(pp, inertia_i0)
        for res, config in zip((plus, minus), equilateral_configuration(ms)):
            sigma, residual = cc_residual(config, ms, unit)
            report = cc_index(config, ms, unit, "planar")
            sim = simultaneous_residual(config, ms, unit)
            assert res.config.positions.tobytes() == (config.positions * root).tobytes()
            assert (res.sigma, res.residual, res.index) == (sigma * curvature, residual * force,
                                                            report.index)
            assert (res.sigma1, res.sigma2) == (sim.sigma1 * curvature, sim.sigma2 * curvature)
            assert res.hess_eigs.tobytes() == (report.eigenvalues * curvature).tobytes()
            assert res.inertia_I0 == inertia_i0
            # and the triangle at its size, read directly with the run's potential
            sigma, residual = cc_residual(res.config, ms, pp)
            report = cc_index(res.config, ms, pp, "planar", inertia_i0)
            sim = simultaneous_residual(res.config, ms, pp)
            np.testing.assert_allclose([res.sigma, res.sigma1, res.sigma2],
                                       [sigma, sim.sigma1, sim.sigma2], rtol=1e-13, atol=0.0)
            # the rotation's zero mode, at rounding level of the largest
            np.testing.assert_allclose(res.hess_eigs, report.eigenvalues, rtol=1e-13,
                                       atol=1e-13 * np.abs(report.eigenvalues).max())
            assert res.index == report.index
            assert max(res.residual, residual) < 1e-13 * abs(sigma)


def test_a_batch_of_simultaneous_residuals_is_each_members_own(rng):
    r = rng.standard_normal((4, 3, 2))
    batch = simultaneous_residual(r, MS123, PP13)
    for k in range(4):
        one = simultaneous_residual(r[k], MS123, PP13)
        assert type(one.sigma1) is float
        assert [a[k] for a in (batch.sigma1, batch.sigma2, batch.residual_W, batch.residual_V)] \
            == [one.sigma1, one.sigma2, one.residual_W, one.residual_V]


def test_equilateral_is_simultaneous(rng):
    ms = random_masses(rng, 3)
    config, _ = equilateral_configuration(ms)
    report = simultaneous_residual(config, ms, PP13)
    assert report.max_residual < 1e-10


def test_a_nan_in_either_residual_is_the_maximum():
    for w, v in ((np.nan, 1e-3), (1e-3, np.nan), (np.nan, np.nan)):
        assert np.isnan(SimultaneousReport(-1.0, -1.0, w, v).max_residual)
    assert SimultaneousReport(-1.0, -1.0, 1e-3, 2e-3).max_residual == 2e-3


def test_a_nan_fails_the_equilateral_residual_gate(monkeypatch):
    computed = central_config.cc_residual

    def nan_residual(*args):
        sigma, residual = computed(*args)
        return sigma, np.full_like(residual, np.nan)

    monkeypatch.setattr(central_config, "cc_residual", nan_residual)
    with pytest.raises(NoConvergenceError, match="residual nan"):
        equilateral_cc(CCQuery(ms=MS123, pp=PP12))


def test_a_nan_is_off_the_sphere():
    config, _ = equilateral_configuration(MS123)
    with pytest.raises(NotOnSphereError):
        require_on_sphere(config, MS123, inertia_I0=np.nan)
    with pytest.raises(NotOnSphereError):
        require_on_sphere(np.full((3, 2), np.nan), MS123)


# the equilateral triangle is a CC of each term alone; the multipliers of
# the simultaneous test are written only when both terms are active
def test_equilateral_cc_takes_either_term_alone():
    for alpha, beta in ((0.0, 1.0), (1.0, 0.0)):
        pp = PotentialParams(a=1.0, b=2.0, alpha=alpha, beta=beta)
        for cc in equilateral_cc(CCQuery(ms=MS123, pp=pp)):
            assert cc.residual <= 1e-12 * max(1.0, abs(cc.sigma))
            assert (cc.sigma1, cc.sigma2) == (None, None)


# a = 0 with beta = 0 leaves U = alpha sum m_i m_j, a constant with no isolated
# CC: the query and the batch solve refuse it before any kernel pass
def test_a_constant_potential_is_refused_by_name():
    pp = PotentialParams(a=0.0, b=2.0, alpha=1.0, beta=0.0)
    why = ("^a = 0 with beta = 0 makes U = alpha sum m_i m_j constant: "
           "it has no isolated central configuration$")
    with pytest.raises(ValueError, match=why):
        CCQuery(ms=MS123, pp=pp)
    with pytest.raises(ValueError, match=why):
        solve_collinear_batch([Ordering.identity(3)], MS123.masses[None], pp)


# ---------------------------------------------------------------------------
# the scalar root certificate


def test_f_root_plug_in_solution():
    # With sigma = -m(a+b)/2 the equation is solved by r = 1 exactly.
    mtotal = 6.0
    for b in (2.0, 2.5, 3.0):
        fr = f_root(-mtotal * (1.0 + b) / 2.0, b, mtotal)
        assert abs(fr.root - 1.0) < 1e-13
        assert fr.sign_changes == 1
    for a in (0.0, 0.5, 1.7):
        fr = f_root(-mtotal * (a + 3.0) / 2.0, 3.0, mtotal, a)
        assert abs(fr.root - 1.0) < 1e-13
        assert fr.sign_changes == 1


def test_f_root_matches_equilateral_side(rng):
    for _ in range(5):
        ms = random_masses(rng, 3)
        for b in (2.0, 2.5, 3.0):
            pp = PotentialParams(a=1.0, b=b)  # unit coefficients
            plus, _ = equilateral_cc(CCQuery(ms=ms, pp=pp))
            fr = f_root(plus.sigma, b, ms.total_mass)
            assert abs(fr.root - equilateral_side(ms)) < 1e-10
            assert fr.sign_changes == 1


@settings(max_examples=80, deadline=None)
@given(
    sigma=st.floats(-500.0, -1e-3),
    b=st.floats(1.1, 4.0),
    mtotal=st.floats(0.1, 100.0),
    a_frac=st.floats(0.0, 0.999),
)
def test_f_root_properties(sigma, b, mtotal, a_frac):
    fr = f_root(sigma, b, mtotal, a_frac * b)
    assert fr.root > 0.0
    assert fr.bracket[0] <= fr.root <= fr.bracket[1]
    # residual small relative to the dominant term at the root
    scale = max(abs(2.0 * sigma * fr.root ** (b + 2.0)), mtotal * b)
    assert abs(fr.f_at_root) < 1e-10 * scale
    assert fr.sign_changes == 1


def test_f_root_requires_negative_sigma():
    with pytest.raises(BracketError):
        f_root(0.0, 2.0, 6.0)
    with pytest.raises(BracketError):
        f_root(1.0, 2.0, 6.0)
    for b, a in ((0.5, 1.0), (2.0, 2.0), (2.0, -0.5), (2.0, np.nan)):
        with pytest.raises(ValueError, match=r"^f_root needs 0 <= a < b$"):
            f_root(-1.0, b, 6.0, a)


@pytest.mark.parametrize("sigma, b, size", [(-5e-324, 1.0000001, "8.959e+102"),
                                            (-1e-320, 1.5, "1.591e+88")])
def test_a_root_where_f_overflows_is_a_bracket_error(sigma, b, size):
    # the root lies where f is not representable: bracket expansion meets
    # the overflow of r^(b + 2) first, and the error names where
    with pytest.raises(BracketError, match=f"^no sign change found during bracket expansion: "
                                           f"f overflowed at size {re.escape(size)}$"):
        f_root(sigma, b, 1.0)


def test_a_large_root_is_certified_without_overflow():
    # the root lies near 1e85, so the scan's grid reaches 1e91, where both
    # powers of f overflow; each point still gets the sign of f, with no
    # floating-point warning (the suite turns one into an error)
    res = f_root(-5e-256, 1.5, 1.0)
    assert res.root == pytest.approx(1e85, rel=1e-12)
    assert res.grid_hi > 1e90
    assert res.sign_changes == 1


# ---------------------------------------------------------------------------
# simultaneous configurations


def test_symmetric_masses_are_simultaneous():
    for m2 in (0.5, 1.0, 2.0, 5.0):
        ms = MassSystem(np.array([1.0, m2, 1.0]))
        gap = simultaneous_gap(ms, PP13, Ordering((1, 2, 3)))
        assert gap < 1e-12


def test_generic_masses_are_not_simultaneous():
    gap = simultaneous_gap(MS123, PP13, Ordering((1, 2, 3)))
    assert gap > 1e-3


def test_simultaneous_gap_reads_only_the_exponents():
    # each term is solved alone at coefficient 1, so a zero coefficient changes no gap
    gaps = [simultaneous_gap(MS123, PotentialParams(a=1.0, b=2.0, alpha=alpha, beta=beta),
                             Ordering((1, 2, 3)))
            for alpha, beta in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0))]
    assert gaps == [gaps[0]] * 3
    # the a-term of exponent 0 is a constant with no CC shape
    with pytest.raises(DegenerateTermError, match="^simultaneous gap needs a > 0; a = 0 has no"):
        simultaneous_gaps([Ordering((1, 2, 3))], MS123.masses[None],
                          PotentialParams(a=0.0, b=2.0, alpha=1.0, beta=1.0))


def test_a_zero_term_passes_its_own_simultaneous_equation():
    # a term of coefficient 0 vanishes with its gradient: its multiplier and its
    # residual are exactly 0, and the report reads the other term's CC equation
    pure_v = PotentialParams(a=1.0, b=2.0, alpha=0.0, beta=1.0)
    config = solve_collinear_ordering(Ordering((1, 2, 3)), CCQuery(ms=MS123, pp=pure_v)).config
    report = simultaneous_residual(config, MS123, pure_v)
    assert (report.sigma1, report.residual_W) == (0.0, 0.0)
    assert report.max_residual == report.residual_V < 1e-10
    report = simultaneous_residual(config, MS123, dataclasses.replace(pure_v, alpha=1.0, beta=0.0))
    assert (report.sigma2, report.residual_V) == (0.0, 0.0)
    assert report.max_residual == report.residual_W > 1e-3


def test_simultaneous_residual_splits_the_multiplier(rng):
    ms = random_masses(rng, 3)
    config, _ = equilateral_configuration(ms)
    report = simultaneous_residual(config, ms, PP12)
    sigma, _ = cc_residual(config, ms, PP12)
    assert np.isclose(report.sigma1 + report.sigma2, sigma, rtol=1e-10)


# ---------------------------------------------------------------------------
# index bookkeeping


def test_cc_index_planar_has_one_rotational_zero():
    config, _ = equilateral_configuration(MS123)
    report = cc_index(config, MS123, PP12, ambient="planar")
    assert report.zero_modes == 1
    assert report.ambient == "planar"


def test_cc_index_rejects_off_sphere_input():
    config, _ = equilateral_configuration(MS123)
    with pytest.raises(NotOnSphereError):
        cc_index(config, MS123, PP12, ambient="planar", inertia_I0=7.0)


def test_cc_index_flags_degenerate_input():
    # A non-CC point generically has no zero mode in the collinear
    # ambient, but a segment with an exact mirror symmetry can be tuned
    # badly; instead check the planar ambient on a non-CC shape, where
    # the rotational zero mode is absent (the gradient is not radial).
    # The collision-flow spectra read it through the same index_report.
    r = np.array([[0.4, 0.1], [-0.2, -0.3], [0.05, 0.25]])
    ms = MassSystem(np.array([1.0, 1.0, 1.0]))
    r = centered(r, ms)
    s0 = Configuration(r / np.sqrt(mass_inner(r, r, ms)))
    pp3 = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    callers = [
        lambda: cc_index(s0, ms, PP12, ambient="planar"),
        lambda: linearize_at_equilibrium(s0, -1.0, ms, pp3, "planar"),
        lambda: transversality_necessary(s0, ms, pp3),
    ]
    messages = set()
    for call in callers:
        with pytest.raises(DegenerateError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {
        "planar restricted Hessian has 0 near-zero eigenvalues, expected 1; CC looks degenerate"
    }


def test_batched_sign_counts_equal_the_row_by_row_ones(rng):
    # real and complex (B, k) spectra whose largest modulus is 10, so the zero
    # band is exactly zero_tol = 1e-8 * 10; some entries sit on +-zero_tol or at 0
    size, k = 240, 6
    zero_tol = central_config._ZERO_TOL_FACTOR * 10.0
    for eigs in (rng.standard_normal((size, k)),
                 rng.standard_normal((size, k)) + 1j * rng.standard_normal((size, k))):
        eigs[:, 0] = 10.0
        eigs[::3, 1] = zero_tol
        eigs[1::3, 2] = -zero_tol
        eigs[::4, 3] = 0.5 * zero_tol
        eigs[::5, 4] = 0.0
        counts = count_modes(eigs)
        rows = np.array([count_modes(row) for row in eigs])
        for batched, one in zip(counts, rows.T):
            np.testing.assert_array_equal(batched, one)
        assert rows[:, 1].min() == 0 and rows[:, 1].max() >= 2  # both sides of the band
        assert rows.sum(axis=1).min() < k  # entries on the band edge fall in no count
    real = rng.standard_normal((size, k))
    real[:, 0] = 10.0
    clean = real[np.array(count_modes(real)[1]) == 0]
    report = index_report(clean, "collinear")
    assert report.index.tolist() == [index_report(row, "collinear").index for row in clean]
    assert report.zero_modes.tolist() == [0] * len(clean)
    # two degenerate members: the first in input order is the one named
    bad = [clean[0].copy(), clean[1].copy()]
    bad[0][1:3] = 0.0
    bad[1][1] = 0.0
    batch = np.array([clean[2], bad[0], clean[3], bad[1]])
    with pytest.raises(DegenerateError) as one:
        index_report(bad[0], "collinear")
    with pytest.raises(DegenerateError) as many:
        index_report(batch, "collinear")
    assert str(many.value) == str(one.value) == (
        "collinear restricted Hessian has 2 near-zero eigenvalues, expected 0; CC looks degenerate"
    )


def test_index_report_rejects_a_spectrum_its_counts_do_not_cover():
    # count_modes reads a NaN as no sign, so [nan, nan] counts (0, 0, 0): the
    # collinear ambient, which expects no zero mode, would certify it as index 0
    nan = np.array([np.nan, np.nan])
    assert count_modes(nan) == (0, 0, 0)
    for eigs, ambient in ((nan, "collinear"), (np.array([1.0, np.inf]), "collinear"),
                          (np.array([np.nan, 0.0, 2.0]), "planar")):
        with pytest.raises(DegenerateError, match=r"restricted Hessian spectrum .* is not finite"):
            index_report(eigs, ambient)
    # in a batch, the first such member in input order is the one named
    batch = np.array([[1.0, 2.0], [3.0, np.nan], [-1.0, 2.0], [np.inf, 1.0]])
    with pytest.raises(DegenerateError) as many:
        index_report(batch, "collinear")
    assert str(many.value) == (
        "collinear restricted Hessian spectrum [ 3. nan] is not finite "
        "or sits on the zero band's edge"
    )


def test_a_spectrum_over_many_decades_of_mass_reads_its_signature_by_congruence(
        monkeypatch, tmp_path, capsys):
    # masses over 300 decades put the restricted Hessian's eigenvalues of
    # classes (2, 3, 1, 4) and (1, 2, 3, 4) near 5.2e54 and 3.0e81, right to 6
    # digits against 80-digit arithmetic, so the smaller falls in the larger's
    # 1e-8 zero band.  D^-1 A D^-1, D = sqrt|diag A|, has A's inertia and reads
    # index 0 with no zero mode; the reported eigenvalues stay A's.  Class
    # (2, 1, 4, 3) stalls in Newton, and a batch with it names it
    reads = []
    congruent = central_config._congruent_modes
    monkeypatch.setattr(central_config, "_congruent_modes",
                        lambda a_mat: reads.append(len(a_mat)) or congruent(a_mat))
    pp = PotentialParams(a=2.0, b=3.0, alpha=0.0, beta=1.0)
    masses = [1e50, 1.0, 1e-250, 25.0]
    orderings = [Ordering((2, 3, 1, 4)), Ordering((1, 2, 3, 4))]
    batch = solve_collinear_batch(orderings, np.tile(masses, (2, 1)), pp)
    assert batch.index.tolist() == [0, 0] and reads == [2]
    assert count_modes(batch.hess_eigs)[1].tolist() == [1, 1]  # the band alone reads a zero mode
    assert (batch.hess_eigs > 0.0).all()
    with pytest.raises(NoConvergenceError, match=r"ordering \(2, 1, 4, 3\) stalled"):
        solve_collinear_batch(orderings + [Ordering((2, 1, 4, 3))], np.tile(masses, (3, 1)), pp)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"schema": 1, "masses": masses, "potential": {
        "a": 2.0, "b": 3.0, "alpha": 0.0, "beta": 1.0}}))
    assert cli.main(["cc-collinear", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "NoConvergenceError: collinear solve for ordering (2, 1, 4, 3)" in capsys.readouterr().err
    # masses of a few decades read no spectrum again, so a census pays nothing
    reads.clear()
    orderings, rows = every_class(MassSystem(np.array([1.0, 2.0, 3.0, 4.0])))
    solve_collinear_batch(orderings, rows, pp)
    assert reads == []


def test_the_array_readers_equal_the_cc_result_list_bit_for_bit(tmp_path):
    # the gaps of an 11 x 11 grid from the solver's arrays, against the planar
    # positions of the CCResult lists of the same two batches
    m1, m2 = np.meshgrid(np.linspace(0.3, 1.7, 11), np.linspace(0.6, 2.1, 11), indexing="ij")
    cells = np.column_stack([m1.ravel(), m2.ravel(), np.full(m1.size, 1.2)])
    orderings = [Ordering((2, 1, 3))] * len(cells)
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    gaps = simultaneous_gaps(orderings, cells, pp)
    s_w, s_v = (central_config.euler_collinear_batch(orderings, cells, e, 1.0, 1e-13).results()
                for e in (pp.a, pp.b))
    diff = np.array([v.config.positions - w.config.positions for w, v in zip(s_w, s_v)])
    expected = np.sqrt(np.sum(cells[:, :, None] * diff * diff, axis=(-2, -1)))
    assert np.array_equal(gaps, expected)
    # the census rows of masses 1...5 and 3 draws, against the rows built one
    # CCResult at a time from the same batch
    config = tmp_path / "census.json"
    config.write_text(json.dumps({
        "schema": 1, "masses": [1.0, 2.0, 3.0, 4.0, 5.0],
        "potential": {"a": 1.0, "b": 3.0, "alpha": 1.0, "beta": 0.5},
        "options": {"mass_draws": {"trials": 3}}}))
    cfg = cli.RunConfig.from_file(str(config), "cc-collinear")
    payload, [(_, _, rows)] = cli.cmd_cc_collinear(cfg)
    drawn = np.random.default_rng(7).uniform(0.2, 5.0, size=(3, 5))
    masses = np.vstack([cfg.ms.masses, drawn])
    classes = Ordering.all_canonical(5)
    results = solve_collinear_batch(classes * 4, np.repeat(masses, 60, axis=0), pp).results()
    expected = np.array([
        [k // 60, int("".join(map(str, r.ordering.perm))), r.sigma, r.residual,
         min(r.hess_eigs, default=0.0), r.index, *drawn[k // 60]]
        for k, r in enumerate(results[60:])
    ])
    assert np.array_equal(rows, expected)
    assert payload["max_residual"] == max(r.residual for r in results[:60])


# U(sqrt(I0) s) = I0^(-a/2) alpha W_1(s) + I0^(-b/2) beta V_1(s), so the CC at
# size I0 with (alpha, beta) has the shape of the CC at size 1 with
# (alpha I0^(-a/2), beta I0^(-b/2)), at every 0 <= a < b (b - a at least 1%
# of 7 - a).  Sizes past 1e2 meet rounding floors that grow with the size.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.sampled_from([0.0, 0.5, 1.0, 1.7]),
    b_over=st.floats(0.01, 1.0),
    masses=st.integers(3, 5).flatmap(lambda n: st.lists(st.floats(0.2, 5.0), min_size=n,
                                                        max_size=n)),
    coefs=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    inertia_I0=st.floats(1e-2, 1e2),
)
def test_a_cc_at_another_size_is_the_unit_size_cc_of_rescaled_coefficients(a, b_over, masses,
                                                                           coefs, inertia_I0):
    b = a + b_over * (7.0 - a)
    alpha, beta = coefs
    classes = Ordering.all_canonical(len(masses))
    rows = np.tile(masses, (len(classes), 1))
    sized = solve_collinear_batch(classes, rows, PotentialParams(a, b, alpha, beta), inertia_I0)
    unit = solve_collinear_batch(classes, rows, PotentialParams(
        a, b, alpha * inertia_I0 ** (-a / 2.0), beta * inertia_I0 ** (-b / 2.0)))
    assert np.abs(sized.x / np.sqrt(inertia_I0) - unit.x).max() <= 1e-11 * np.abs(unit.x).max()
    assert np.array_equal(sized.index, unit.index)


PP13_HALF = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
_MASSES = st.integers(3, 5).flatmap(lambda n: st.lists(st.floats(0.2, 5.0), min_size=n,
                                                       max_size=n))


def _classes_and_rows(masses):
    classes = Ordering.all_canonical(len(masses))
    return classes, np.tile(masses, (len(classes), 1))


# The normal form: a CC at size I0 is solved at unit size with the larger
# coefficient 1 and the other mu = (alpha / beta) I0^((b - a)/2) or its inverse.
# Where min(mu, 1 / mu) < 1e-10, every shape x / sqrt(I0) lies within a few
# times that of the dominant term's homogeneous CC; an absolute grad_tol read
# at the size I0 left the shapes of I0 = 1e20 8.9e-3 from it.
def test_a_size_sweep_lands_on_the_dominant_terms_homogeneous_cc():
    classes, rows = _classes_and_rows(np.array([1.0, 2.0, 3.0, 4.0]))
    limits = {e: central_config.euler_collinear_batch(classes, rows, e).x for e in (1.0, 3.0)}
    checked = []
    for inertia_I0 in (1e-20, 1e-10, 1.0, 1e10, 1e20):
        batch = solve_collinear_batch(classes, rows, PP13_HALF, inertia_I0)
        assert not batch.index.any()
        mu = 2.0 * inertia_I0  # (alpha / beta) I0^((b - a) / 2)
        eps = min(mu, 1.0 / mu)
        if eps < 1e-10:
            shapes = batch.x / np.sqrt(inertia_I0)
            assert np.abs(shapes - limits[1.0 if mu > 1.0 else 3.0]).max() <= 4.0 * eps + 1e-14
            checked.append(inertia_I0)
    assert checked == [1e-20, 1e10, 1e20]


# the exponent edges: at alpha = 0 or beta = 0 the live term is homogeneous, so
# the shape x / sqrt(I0) is its unit-size CC at coefficient 1 at every size
@settings(max_examples=40, deadline=None, derandomize=True)
@given(masses=_MASSES, a=st.floats(0.1, 3.0), b_over=st.floats(0.1, 4.0),
       live=st.sampled_from(["alpha", "beta"]), coef=st.floats(0.2, 5.0),
       log_i0=st.floats(-20.0, 20.0))
def test_a_single_term_shape_does_not_depend_on_the_size(masses, a, b_over, live, coef, log_i0):
    b, inertia_I0 = a + b_over, 10.0 ** log_i0
    classes, rows = _classes_and_rows(masses)
    coefs = {"alpha": 0.0, "beta": 0.0, live: coef}
    sized = solve_collinear_batch(classes, rows, PotentialParams(a, b, **coefs), inertia_I0)
    unit = central_config.euler_collinear_batch(classes, rows, a if live == "alpha" else b)
    shapes = sized.x / np.sqrt(inertia_I0)
    assert np.abs(shapes - unit.x).max() <= 1e-14 * np.abs(unit.x).max()
    assert np.array_equal(sized.index, unit.index)


# at a = 0 the a-term is the constant alpha sum m_i m_j: every class is its
# pure-b class, bit for bit, at any alpha and size
@settings(max_examples=40, deadline=None, derandomize=True)
@given(masses=_MASSES, b=st.floats(0.5, 7.0), alpha=st.floats(0.0, 1e3),
       beta=st.floats(1e-3, 1e3), log_i0=st.floats(-20.0, 20.0))
def test_a_constant_a_term_leaves_every_class_its_pure_b_class(masses, b, alpha, beta, log_i0):
    inertia_I0 = 10.0 ** log_i0
    classes, rows = _classes_and_rows(masses)
    both = solve_collinear_batch(classes, rows, PotentialParams(0.0, b, alpha, beta), inertia_I0)
    pure_b = central_config.euler_collinear_batch(classes, rows, b, inertia_I0)
    assert both.x.tobytes() == pure_b.x.tobytes()
    assert np.array_equal(both.index, pure_b.index)


# reflection: an ordering and its reverse name one class, and their CCs are
# mirror images x -> -x, with one index
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 6),
       pp=st.sampled_from([PP13_HALF, PotentialParams(0.5, 7.0, 1.0, 3.0),
                           PotentialParams(1.0, 2.0, 0.0, 1.0)]),
       log_i0=st.floats(-3.0, 3.0))
def test_a_reversed_ordering_gives_the_mirror_image(seed, n, pp, log_i0):
    rng = np.random.default_rng(seed)
    masses = rng.uniform(0.2, 5.0, n)
    classes = [Ordering(tuple(rng.permutation(n) + 1)) for _ in range(6)]
    rows = np.tile(masses, (12, 1))
    batch = solve_collinear_batch(classes + [o.reversed_() for o in classes], rows, pp,
                                  10.0 ** log_i0)
    x, mirrored = batch.x[:6], batch.x[6:]
    assert np.abs(mirrored + x).max() <= 1e-14 * np.abs(x).max()
    assert np.array_equal(batch.index[:6], batch.index[6:])


@pytest.mark.parametrize("call, error, quantity", [
    (lambda: CCQuery(MS123, PP13, grad_tol=-1.0), ValueError, "grad_tol"),
    (lambda: CCQuery(MS123, PP13, inertia_I0=float("nan")), ValueError, "inertia_I0"),
    (lambda: equilateral_configuration(MassSystem(np.ones(4))), ValueError, "three bodies"),
    (lambda: central_config.bisect_sign_change(lambda r: 1.0, 1e-14, BracketError, "no sign change of f"),
     BracketError, "no sign change of f"),
    (lambda: f_root(-1.0, 3.0, 0.0), ValueError, "total mass"),
    (lambda: central_config.euler_collinear_batch([Ordering((1, 2, 3))], np.ones((1, 3)), -1.0),
     ValueError, "exponent"),
    (lambda: simultaneous_gaps([Ordering((1, 2, 3))], np.ones((1, 3)), PP13, inertia_I0=0.0),
     ValueError, "inertia_I0"),
], ids=["grad_tol", "normal form size", "equilateral of four", "f never negative",
        "f_root total mass", "euler exponent", "gaps size"])
def test_an_input_guard_raises_its_error_naming_its_quantity(call, error, quantity):
    with pytest.raises(error, match=re.escape(quantity)):
        call()
