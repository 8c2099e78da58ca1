"""Collision-manifold flow: equilibria, spectra, dimensions, monotone v."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import count_kernel_bindings, count_kernel_passes, fail_linalg
from qhnbody import collision_flow
from qhnbody.central_config import (
    CCResult,
    Ordering,
    cc_index,
    cc_residual,
    count_modes,
    equilateral_configuration,
    euler_collinear_homogeneous,
    index_report,
    restricted_hessian,
    tangent_basis,
)
from qhnbody.collision_flow import (
    eigen_closed_form,
    find_equilibria,
    gradient_like_rate,
    integrate_on_C,
    linearize_at_equilibrium,
    manifold_dimensions,
    manifold_start,
    RestPointMatch,
    min_separation,
    nearest_equilibrium,
    pure_b_cases,
    pure_b_shapes,
    transversality_necessary,
)
from qhnbody.errors import (
    CollisionError,
    DegenerateError,
    MismatchError,
    NotOnSphereError,
    OffManifoldError,
)
from qhnbody.integrate import Event, integrate
from qhnbody.mcgehee import (
    McGeheeState,
    collision_manifold_residual,
    mcgehee_field,
    mcgehee_renormalizer,
    pack_mcgehee,
    unpack_mcgehee,
    vector_field,
)
from qhnbody.model import (
    Configuration,
    MassSystem,
    PotentialParams,
    lift_to_plane,
    mass_inner,
    potential_V,
    potential_terms,
)

MS = MassSystem(np.array([1.0, 2.0, 3.0]))
PP = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
PPB = PotentialParams(a=0.0, b=3.0, alpha=0.0, beta=1.0)


def equilateral_cc_of_b_term(ms, b):
    ppb = PotentialParams(a=0.0, b=b, alpha=0.0, beta=1.0)
    config = equilateral_configuration(ms)[0]
    sigma, res = cc_residual(config, ms, ppb)
    report = cc_index(config, ms, ppb, ambient="planar", inertia_I0=1.0)
    return CCResult(
        config=config,
        kind="equilateral",
        sigma=sigma,
        residual=res,
        index=report.index,
        hess_eigs=report.eigenvalues,
        inertia_I0=1.0,
    )


def perturbed_manifold_state(ms, pp, scale=0.05, seed=7):
    """Equilateral shape, tangential kick, v < 0 chosen to sit on C."""
    config, _ = equilateral_configuration(ms)
    s = config.positions
    _, v_s = potential_terms(s, ms, pp)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(s.shape) * scale
    u -= ms.masses[:, None] * (u.sum(axis=0) / ms.masses.sum())
    u -= float(np.sum(u * s)) * (ms.masses[:, None] * s)
    u_m_u = float(np.sum(u * u / ms.masses[:, None]))
    v = -np.sqrt(2.0 * v_s - u_m_u)
    return McGeheeState(rho=0.0, v=v, s=s, u=u)


# ---------------------------------------------------------------------------
# the restricted field


def test_gradient_like_rate_matches_radial_field():
    st = perturbed_manifold_state(MS, PP)
    rate = gradient_like_rate(st, MS, PP)
    v_d = vector_field(st, MS, PP)[1]
    assert abs(rate - v_d) < 1e-12
    assert rate < 0.0
    with pytest.raises(OffManifoldError):
        gradient_like_rate(
            McGeheeState(rho=0.0, v=0.0, s=st.s, u=st.u), MS, PP
        )


def test_rate_vanishes_identically_at_the_threshold_exponent():
    pp2 = PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=0.5)
    st = perturbed_manifold_state(MS, pp2)
    assert gradient_like_rate(st, MS, pp2) == 0.0
    v_d = vector_field(st, MS, pp2)[1]
    assert abs(v_d) < 1e-14


# ---------------------------------------------------------------------------
# equilibria and spectra


def all_pure_b_ccs(ms, b):
    ccs = [equilateral_cc_of_b_term(ms, b)] if ms.n == 3 else []
    for o in Ordering.all_canonical(ms.n):
        ccs.append(euler_collinear_homogeneous(ms, b, o))
    return ccs


@pytest.mark.parametrize("masses", [(1.0, 2.0, 3.0), (0.7, 1.0, 2.5, 1.6)])
def test_pure_b_catalog_matches_the_reference(masses):
    ms = MassSystem(np.array(masses))
    catalog = pure_b_shapes(ms, PP.b, pure_b_cases(ms.n))
    reference = all_pure_b_ccs(ms, PP.b)
    assert len(catalog) == len(reference) == (4 if ms.n == 3 else 12)
    for cc, ref in zip(catalog, reference):
        assert cc.kind == ref.kind
        assert cc.ordering == ref.ordering
        assert cc.index == ref.index
        assert np.abs(cc.config.positions - ref.config.positions).max() < 1e-12
        assert cc.residual < 1e-10


def test_pure_b_shapes_keeps_the_order_of_its_cases_and_solves_a_repeat_once():
    cases = [("collinear", Ordering((2, 1, 3))), ("equilateral", None),
             ("collinear", Ordering((2, 1, 3)))]
    shapes = pure_b_shapes(MS, PP.b, cases)
    assert [(cc.kind, cc.ordering) for cc in shapes] == cases
    assert shapes[0] is shapes[2]
    x = shapes[0].config.positions[:, 0]
    assert x[1] < x[0] < x[2]  # the reversed class keeps its own ordering


@pytest.mark.parametrize("which", range(4))
def test_nearest_equilibrium_ignores_rotations(which):
    # rest shapes come in rotation orbits, so turning the plane may change
    # neither the label nor the distance of a state near one of them
    catalog = pure_b_shapes(MS, PP.b, pure_b_cases(MS.n))
    sign = 1 if which % 2 == 0 else -1
    st0 = manifold_start(catalog[which].config, MS, PP, 0.05, seed=which, v_sign=sign)
    st = unpack_mcgehee(integrate_on_C(st0, MS, PP, tau_max=0.05).final_state, 3, 2)
    ref = nearest_equilibrium(st.s, st.v, catalog, MS, PP)
    assert ref.cc is catalog[which] and ref.v_sign == sign
    assert 0.0 < ref.shape_distance < 0.01
    rng = np.random.default_rng(19)
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=4):
        c, s = np.cos(theta), np.sin(theta)
        got = nearest_equilibrium(st.s @ np.array([[c, s], [-s, c]]), st.v, catalog, MS, PP)
        assert got.cc is ref.cc and got.v_sign == ref.v_sign
        assert abs(got.shape_distance - ref.shape_distance) < 1e-10
        assert got.v_distance == ref.v_distance


def _nearest_per_shape(s, v, catalog, ms, pp):
    """nearest_equilibrium with a kernel binding and pass per catalog shape, its reference."""
    s, w, best = lift_to_plane(s), ms.masses[:, None], None
    for cc in catalog:
        r = lift_to_plane(cc.config)
        target = r / np.sqrt(mass_inner(r, r, ms))
        v_star = float(np.sqrt(2.0 * potential_V(Configuration(target), ms, pp)))
        dots = float(np.sum(w * s * target))
        cross = float(np.sum(ms.masses * (target[:, 0] * s[:, 1] - target[:, 1] * s[:, 0])))
        dist = float(np.sqrt(max(2.0 - 2.0 * float(np.hypot(dots, cross)), 0.0)))
        for sign in (1, -1):
            score = float(np.hypot(dist, v - sign * v_star))
            if best is None or score < best[0]:
                best = (score, (cc, sign, sign * v_star, dist, abs(v - sign * v_star)))
    return best[1]


def _match_fields(m):
    return (m.cc, m.v_sign, np.array([m.v_value, m.shape_distance, m.v_distance]).tobytes())


@pytest.mark.parametrize("n", [3, 4])
def test_nearest_equilibrium_is_its_per_shape_reference_bit_for_bit(n):
    # the batched V and the row sums give each shape's own distances: the
    # whole catalog and each shape alone, at rotated and perturbed states
    rng = np.random.default_rng(40 + n)
    for _ in range(12):
        ms = MassSystem(10.0 ** rng.uniform(-1.0, 1.0, n))
        pp = PotentialParams(a=1.0, b=float(rng.uniform(2.2, 5.0)), alpha=1.0,
                             beta=float(rng.uniform(0.2, 2.0)))
        catalog = pure_b_shapes(ms, pp.b, pure_b_cases(n))
        for _ in range(4):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            turn = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
            shape = catalog[rng.integers(len(catalog))].config.positions
            s = lift_to_plane(shape) @ turn + rng.choice([0.0, 1e-3]) * rng.standard_normal((n, 2))
            s = shape if rng.random() < 0.25 else s / np.sqrt(mass_inner(s, s, ms))
            v = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 3.0))
            got = nearest_equilibrium(s, v, catalog, ms, pp)
            assert _match_fields(got) == _match_fields(RestPointMatch(
                *_nearest_per_shape(s, v, catalog, ms, pp)))
            for cc in catalog:
                got = nearest_equilibrium(s, v, [cc], ms, pp)
                want = RestPointMatch(*_nearest_per_shape(s, v, [cc], ms, pp))
                assert _match_fields(got) == _match_fields(want)
    # a collided shape raises its own CollisionError, as the first to fail
    r = lift_to_plane(catalog[0].config).copy()
    r[1] = r[0]
    collided = dataclasses.replace(catalog[0], config=Configuration(r))
    for shapes in ([collided], catalog + [collided, collided]):
        with pytest.raises(CollisionError) as want:
            _nearest_per_shape(s, v, shapes, ms, pp)
        with pytest.raises(CollisionError) as got:
            nearest_equilibrium(s, v, shapes, ms, pp)
        assert str(got.value) == str(want.value)


def test_manifold_start_lies_on_the_manifold_in_the_centered_reduction():
    catalog = pure_b_shapes(MS, PP.b, pure_b_cases(MS.n))
    for cc in catalog:
        st = manifold_start(cc.config, MS, PP, 0.05, seed=3)
        assert st.s.shape == (3, 2)
        assert abs(mass_inner(st.s, st.s, MS) - 1.0) < 1e-12
        assert abs(collision_manifold_residual(st, MS, PP)) < 1e-12
        assert np.abs(st.u.sum(axis=0)).max() < 1e-14
        assert abs(float(np.sum(st.s * st.u))) < 1e-14
        assert abs(np.linalg.norm(st.u) - 0.05) < 1e-14
        assert st.v < 0.0
    with pytest.raises(ValueError):
        manifold_start(catalog[0].config, MS, PP, 50.0, seed=3)


def test_find_equilibria_binds_once_and_makes_one_kernel_pass_per_ambient(monkeypatch):
    ccs = all_pure_b_ccs(MS, PP.b)
    bindings, passes = count_kernel_bindings(monkeypatch), count_kernel_passes(monkeypatch)
    reports = find_equilibria(MS, PP, ccs)
    assert (len(bindings), len(passes)) == (1, 2)  # the triangle, then the three lines
    # the shared pass gives the spectrum that a pass of its own gives
    ppb = PotentialParams(a=PP.a, b=PP.b, alpha=0.0, beta=PP.beta)
    for rep in reports:
        assert np.array_equal(rep.lam, restricted_hessian(rep.s0, MS, ppb, rep.ambient)[1])
    # a repeated shape rides in its ambient's pass, and one ambient makes one pass;
    # the kernel of these masses is bound already, so no call binds it again
    for shapes, count in ((ccs[:2] * 3, 2), (ccs[1:], 1), (ccs[:1] * 4, 1)):
        bindings.clear(), passes.clear()
        assert len(find_equilibria(MS, PP, shapes)) == 2 * len(shapes)
        assert (len(bindings), len(passes)) == (0, count)


def _one_shape_reports(ms, pp, cc):
    """The two EquilibriumReport field sets of one shape, from linearize_at_equilibrium
    and a one-shape restricted_hessian, with the shape's own kernel pass."""
    ppb = PotentialParams(a=pp.a, b=pp.b, alpha=0.0, beta=pp.beta)
    ambient = "collinear" if cc.kind == "collinear" else "planar"
    r = cc.config.positions[:, :1] if ambient == "collinear" else cc.config.positions
    _, defect = cc_residual(r, ms, ppb)
    v_star = float(np.sqrt(2.0 * potential_terms(r, ms, ppb)[1]))
    lam = restricted_hessian(cc.config, ms, ppb, ambient)[1]
    report = index_report(lam, ambient)
    out = []
    for sign in (1, -1):
        v0 = sign * v_star
        _, spectrum, lam_lin = linearize_at_equilibrium(cc.config, v0, ms, pp, ambient)
        assert lam_lin.tobytes() == lam.tobytes()
        dims = manifold_dimensions(ms.n, ambient, report.index, v0, spectrum)
        out.append({"s0": cc.config, "ambient": ambient, "v_sign": sign, "v_value": v0,
                    "cc_defect": defect, "lam": lam, "mu": eigen_closed_form(lam, v0, pp.b),
                    "spectrum": spectrum, "index": report.index, "zero_modes": report.zero_modes,
                    "dim_unstable": dims[0], "dim_stable": dims[1], "dim_energy_surface": dims[2],
                    "kind": cc.kind, "ordering": cc.ordering})
    return out


def _mixed_cases(n):
    """Every class once, then repeats, a reversed ordering and the triangle more than once."""
    orderings = Ordering.all_canonical(n)
    repeats = [orderings[-1], orderings[0], orderings[1].reversed_(), orderings[0]]
    cases = [("collinear", o) for o in orderings + repeats]
    if n == 3:
        cases = [cases[1], ("equilateral", None), *cases[2:], ("equilateral", None), cases[0]]
    return cases


@pytest.mark.parametrize("masses", [(1.0, 2.0, 3.0), (0.7, 1.0, 2.5, 1.6),
                                    (0.4, 1.3, 2.2, 0.9, 3.1)])
@pytest.mark.parametrize("mixed", [False, True])
def test_the_batch_reports_are_the_one_shape_reports_bit_for_bit(masses, mixed):
    ms = MassSystem(np.array(masses))
    pp = PotentialParams(a=1.0, b=3.5, alpha=0.8, beta=1.7)
    cases = _mixed_cases(ms.n) if mixed else pure_b_cases(ms.n)
    ccs = pure_b_shapes(ms, pp.b, cases)
    reports = find_equilibria(ms, pp, ccs)
    assert len(reports) == 2 * len(ccs)
    for k, cc in enumerate(ccs):
        for rep, want in zip(reports[2 * k:2 * k + 2], _one_shape_reports(ms, pp, cc)):
            for name, value in want.items():
                got = getattr(rep, name)
                assert type(got) is type(value), name
                if isinstance(value, np.ndarray):
                    assert (got.dtype, got.shape) == (value.dtype, value.shape), name
                    assert got.tobytes() == value.tobytes(), name
                else:
                    assert got is value if name in ("s0", "ordering") else got == value, name


def test_a_complex_spectrum_in_the_stack_leaves_the_real_ones_real(monkeypatch):
    ccs = all_pure_b_ccs(MS, PP.b)[1:]  # the three lines: one stack of six linearizations
    want = [rep.spectrum for rep in find_equilibria(MS, PP, ccs)]
    assert all(z.dtype == float for z in want)
    eigvals = np.linalg.eigvals

    def first_complex(a):
        w = eigvals(a).astype(complex)
        w[0, -1] += 1e-3j  # the stack's first member, and so the whole stack, complex
        return w

    monkeypatch.setattr(np.linalg, "eigvals", first_complex)
    got = [rep.spectrum for rep in find_equilibria(MS, PP, ccs)]
    assert got[0].dtype == complex
    for z, ref in zip(got[1:], want[1:]):
        assert z.dtype == float and z.tobytes() == ref.tobytes()


def test_a_bad_shape_after_good_ones_raises_its_own_error(monkeypatch):
    good = all_pure_b_ccs(MS, PP.b)
    triangle, line = good[0], good[1]
    # a line in the planar ambient is a rest point of planar index 1; the
    # closed form is handed index 2 for it, so it fails the last check
    flat = dataclasses.replace(line, kind="planar-embedded")
    flat_v = find_equilibria(MS, PP, [flat])[0].v_value
    dimensions = collision_flow.manifold_dimensions

    def off_by_one(n, ambient, index, v0, spectra):
        if ambient == "planar":
            index = np.where(np.abs(v0) == flat_v, index + 1, index)
        return dimensions(n, ambient, index, v0, spectra)

    monkeypatch.setattr(collision_flow, "manifold_dimensions", off_by_one)
    off_sphere = dataclasses.replace(triangle, config=Configuration(1.1 * triangle.config.positions))
    r = triangle.config.positions.copy()
    r[0] *= 1.2
    r -= (MS.masses[:, None] * r).sum(axis=0) / MS.masses.sum()
    not_a_cc = dataclasses.replace(triangle, config=Configuration(r / np.sqrt(mass_inner(r, r, MS))))
    line_off_sphere = dataclasses.replace(line, config=Configuration(0.9 * line.config.positions))
    r = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    r -= (MS.masses[:, None] * r).sum(axis=0) / MS.masses.sum()
    collided = dataclasses.replace(line, config=Configuration(r / np.sqrt(mass_inner(r, r, MS))))
    for bad, error in ((off_sphere, NotOnSphereError), (not_a_cc, OffManifoldError),
                       (flat, MismatchError), (line_off_sphere, NotOnSphereError),
                       (collided, CollisionError)):
        with pytest.raises(error) as alone:
            find_equilibria(MS, PP, [bad])
        for shapes in (good + [bad], [line, bad] + good, good[::-1] + [bad, triangle] + good):
            with pytest.raises(error) as batch:
                find_equilibria(MS, PP, shapes)
            assert str(batch.value) == str(alone.value)
    # the first bad shape in input order wins, whatever check the later ones fail first
    cases = (([flat, off_sphere], MismatchError, "planar ambient"),
             ([line, not_a_cc, flat], OffManifoldError, "defect"),
             ([triangle, line_off_sphere, not_a_cc], NotOnSphereError, "<r, r> = 0.81"),
             ([line, flat, line_off_sphere, triangle], MismatchError, "planar ambient"))
    for shapes, error, text in cases:
        with pytest.raises(error, match=text):
            find_equilibria(MS, PP, shapes)


def test_find_equilibria_two_per_shape():
    ccs = all_pure_b_ccs(MS, PP.b)
    reports = find_equilibria(MS, PP, ccs)
    assert len(reports) == 2 * len(ccs) == 8
    for rep in reports:
        _, v_pot = potential_terms(rep.s0, MS, PP)
        assert abs(abs(rep.v_value) - np.sqrt(2.0 * v_pot)) < 1e-12
        assert rep.cc_defect < 1e-9
    # sign pairs share the restricted-Hessian eigenvalues
    for k in range(0, len(reports), 2):
        plus, minus = reports[k], reports[k + 1]
        assert plus.v_sign == 1 and minus.v_sign == -1
        assert np.abs(plus.lam - minus.lam).max() < 1e-12


@pytest.mark.parametrize("b", [2.5, 3.0, 4.0])
def test_closed_form_exponents_assemble_the_spectrum(b):
    pp = PotentialParams(a=1.0, b=b, alpha=1.0, beta=0.5)
    for rep in find_equilibria(MS, pp, all_pure_b_ccs(MS, b)):
        expected = np.concatenate([[rep.v_value, 0.0], rep.mu.ravel()])
        got = np.sort_complex(rep.spectrum.astype(complex))
        want = np.sort_complex(expected.astype(complex))
        assert np.abs(got - want).max() < 1e-8


def test_exponent_formula_special_values():
    # lam = 0 gives the pair {(b - 2) v / 2, 0}
    mu = eigen_closed_form(0.0, 1.5, 3.0)
    assert np.abs(np.sort(mu.real.ravel()) - [0.0, 0.75]).max() < 1e-14
    # strongly negative lam gives a complex pair with real part (b-2)v/4
    mu = eigen_closed_form(-100.0, 1.5, 3.0)
    assert np.abs(mu.real - 0.375).max() < 1e-12
    assert mu.imag[0, 0] == -mu.imag[0, 1] != 0.0


def test_dimension_counts_planar_and_collinear():
    reports = find_equilibria(MS, PP, all_pure_b_ccs(MS, PP.b))
    for rep in reports:
        if rep.ambient == "planar":
            assert rep.index == 0 and rep.zero_modes == 1
            assert rep.dim_energy_surface == 7
            expect = (4, 2) if rep.v_sign > 0 else (2, 4)
        else:
            assert rep.index == 0 and rep.zero_modes == 0
            assert rep.dim_energy_surface == 3
            expect = (2, 1) if rep.v_sign > 0 else (1, 2)
        assert (rep.dim_unstable, rep.dim_stable) == expect


def _planar_shape(config, kind="planar-embedded"):
    """A CCResult of a shape that find_equilibria treats in the planar ambient."""
    return CCResult(config=Configuration(config), kind=kind, sigma=0.0, residual=0.0, index=0,
                    hess_eigs=np.zeros(0), inertia_I0=1.0)


def test_collinear_shape_in_planar_ambient_has_the_planar_counts_of_its_index():
    # in the plane a collinear CC of three bodies is a saddle of planar
    # index 1: each rest point has 2n - 2 + 1 exponents with the sign of v
    # and 2n - 4 - 1 against it, and the rotation and radial-energy zeros
    cc = euler_collinear_homogeneous(MS, PP.b, Ordering.identity(3))
    up, down = find_equilibria(MS, PP, [_planar_shape(cc.config.positions)])
    for rep, sign in ((up, 1), (down, -1)):
        n_neg, n_zero, n_pos = count_modes(rep.spectrum)
        assert (rep.ambient, rep.index, rep.zero_modes, n_zero) == ("planar", 1, 1, 2)
        assert (rep.dim_unstable, rep.dim_stable) == (n_pos, n_neg) == ((5, 1) if sign > 0 else (1, 5))
        assert rep.dim_energy_surface == 7


def test_a_centred_triangle_of_four_bodies_has_the_counts_of_planar_index_two():
    # unit masses at the vertices of an equilateral triangle and its centre
    # are a CC of the b-term with planar index 2 (b = 3)
    ms = MassSystem(np.ones(4))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=1.0)
    angles = 2.0 * np.pi * np.arange(3) / 3.0
    shape = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]) / np.sqrt(3.0), [0, 0]])
    up, down = find_equilibria(ms, pp, [_planar_shape(shape)])
    for rep, counts in ((up, (8, 2)), (down, (2, 8))):
        n_neg, n_zero, n_pos = count_modes(rep.spectrum)
        assert rep.index == 2 and n_zero == 2
        assert (rep.dim_unstable, rep.dim_stable) == counts == (n_pos, n_neg)
        assert rep.dim_energy_surface == 11


def test_a_spectrum_that_disagrees_with_the_planar_counts_raises():
    # the closed form reads the index; a spectrum built for another index
    # has other sign counts, and the mismatch must raise, not pass
    lam = np.array([-2.0, 0.0, 3.0])  # index 1 and the rotation, the planar sphere of three bodies
    v0 = 1.2
    spectrum = np.concatenate([[v0, 0.0], eigen_closed_form(lam, v0, 3.0).ravel()])
    assert manifold_dimensions(3, "planar", 1, v0, spectrum) == (5, 1, 7)
    for index in (0, 2):
        with pytest.raises(MismatchError, match="disagree with spectrum sign counts"):
            manifold_dimensions(3, "planar", index, v0, spectrum)


def test_manifold_dimensions_validates_against_spectrum():
    lam = np.array([3.0])  # the collinear shape sphere of 3 bodies is 1-d
    v0 = 1.2
    mu = eigen_closed_form(lam, v0, 3.0)
    spectrum = np.concatenate([[v0, 0.0], mu.ravel()])
    up, down, dim = manifold_dimensions(3, "collinear", 0, v0, spectrum)
    assert (up, down, dim) == (2, 1, 3)
    with pytest.raises(MismatchError):
        manifold_dimensions(3, "collinear", 0, -v0, spectrum)
    # the counts read real parts, with the zero band 1e-8 |2 + 3j| = 3.6e-8
    # taken from the largest modulus, not from the largest real part
    assert count_modes(np.array([2 + 3j, 2 - 3j, 0.0, -1.0, 1e-12j])) == (1, 2, 2)
    assert count_modes(np.array([2 + 3j, 2 - 3j, 3e-8, -3e-8, -4e-8])) == (1, 2, 2)
    # a center pair has real part in the band however large its modulus
    assert count_modes(np.array([2 + 3j, 2 - 3j, 1e-9 + 0.5j, 1e-9 - 0.5j])) == (0, 2, 2)


def test_equilibrium_spectra_need_supercritical_exponent():
    pp2 = PotentialParams(a=1.0, b=2.0, alpha=1.0, beta=0.5)
    with pytest.raises(ValueError):
        find_equilibria(MS, pp2, [equilateral_cc_of_b_term(MS, 2.0)])
    # the rest points are those of the b-term, whatever a is: beta = 0 leaves none
    with pytest.raises(ValueError, match="^collision manifold needs an active b-term$"):
        find_equilibria(
            MS, PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.0),
            [equilateral_cc_of_b_term(MS, 3.0)],
        )


def test_find_equilibria_rejects_non_cc_shapes():
    cc = equilateral_cc_of_b_term(MS, PP.b)
    r = cc.config.positions.copy()
    r[0] *= 1.2
    r -= (MS.masses[:, None] * r).sum(axis=0) / MS.masses.sum()
    r /= np.sqrt(mass_inner(r, r, MS))
    bad = CCResult(
        config=Configuration(r),
        kind="equilateral",
        sigma=cc.sigma,
        residual=cc.residual,
        index=cc.index,
        hess_eigs=cc.hess_eigs,
        inertia_I0=1.0,
    )
    with pytest.raises(OffManifoldError):
        find_equilibria(MS, PP, [bad])


# ---------------------------------------------------------------------------
# finite-difference cross-validation of the linearization


def _planar_chart(ms, pp, s0, sign):
    """On-manifold flow in tangent coordinates (xi, eta) around s0."""
    basis = tangent_basis(s0, ms)
    k = basis.shape[1]
    m = ms.masses[:, None]

    def chart_field(z):
        xi, eta = z[:k], z[k:]
        s = s0 + (basis @ xi).reshape(s0.shape)
        s = s / np.sqrt(mass_inner(s, s, ms))
        u = (np.repeat(ms.masses, s0.shape[1]) * (basis @ eta)).reshape(s0.shape)
        u = u - np.sum(u * s) / np.sum(s * s) * s
        _, v_pot = potential_terms(s, ms, pp)
        u_m_u = float(np.sum(u * u / m))
        v = sign * np.sqrt(2.0 * v_pot - u_m_u)
        _, _, s_d, u_d = vector_field(McGeheeState(rho=0.0, v=v, s=s, u=u), ms, pp)
        xi_d = basis.T @ (m * s_d).ravel()
        eta_d = basis.T @ u_d.ravel()
        return np.concatenate([xi_d, eta_d])

    return chart_field, k


@pytest.mark.parametrize("sign", [+1, -1])
def test_fd_jacobian_matches_linearization_planar(sign):
    config, _ = equilateral_configuration(MS)
    _, v_pot = potential_terms(config, MS, PP)
    v0 = sign * np.sqrt(2.0 * v_pot)
    mat, _, _ = linearize_at_equilibrium(config, v0, MS, PP, "planar")
    chart_field, k = _planar_chart(MS, PP, config.positions, sign)
    block = mat[2:, 2:]
    h = 1e-6
    jac = np.zeros((2 * k, 2 * k))
    for j in range(2 * k):
        e = np.zeros(2 * k)
        e[j] = h
        jac[:, j] = (chart_field(e) - chart_field(-e)) / (2.0 * h)
    assert np.abs(jac - block).max() < 1e-6 * max(1.0, np.abs(block).max())


@pytest.mark.parametrize("sign", [+1, -1])
def test_fd_jacobian_matches_linearization_collinear(sign):
    cc = euler_collinear_homogeneous(MS, PP.b, Ordering.identity(3))
    x = cc.config.positions[:, :1]
    _, v_pot = potential_terms(x, MS, PP)
    v0 = sign * np.sqrt(2.0 * v_pot)
    mat, _, _ = linearize_at_equilibrium(
        Configuration(x), v0, MS, PP, "collinear"
    )
    chart_field, k = _planar_chart(MS, PP, x, sign)
    block = mat[2:, 2:]
    h = 1e-6
    jac = np.zeros((2 * k, 2 * k))
    for j in range(2 * k):
        e = np.zeros(2 * k)
        e[j] = h
        jac[:, j] = (chart_field(e) - chart_field(-e)) / (2.0 * h)
    assert np.abs(jac - block).max() < 1e-6 * max(1.0, np.abs(block).max())


def test_transversality_condition_by_shape():
    config, _ = equilateral_configuration(MS)
    assert transversality_necessary(config, MS, PP) is True
    cc = euler_collinear_homogeneous(MS, PP.b, Ordering.identity(3))
    assert transversality_necessary(cc.config, MS, PP) is False


def test_equilibrium_reports_carry_the_transversality_verdict():
    # the verdict is the planar index 0, which each planar report carries
    reports = find_equilibria(MS, PP, all_pure_b_ccs(MS, PP.b))
    assert {rep.ambient for rep in reports} == {"planar", "collinear"}
    for rep in reports:
        if rep.ambient == "planar":
            assert transversality_necessary(rep.s0, MS, PP) is (rep.index == 0)


def test_transversality_rejects_a_shape_that_is_not_central():
    # away from a central configuration the rotation is not the only
    # near-zero mode of the shape matrix
    r = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])
    r -= MS.masses @ r / MS.total_mass
    s0 = Configuration(r / np.sqrt(mass_inner(r, r, MS)))
    with pytest.raises(DegenerateError):
        transversality_necessary(s0, MS, PP)


def test_a_linearization_with_no_spectrum_is_a_degenerate_error(monkeypatch):
    config, _ = equilateral_configuration(MS)
    fail_linalg(monkeypatch, "eigvals")
    with pytest.raises(DegenerateError, match="^linearization spectrum at the rest point failed: "
                                              "eigvals failed$"):
        linearize_at_equilibrium(config, -1.0, MS, PP, "planar")


def test_a_start_whose_constraints_have_no_solve_is_a_degenerate_error(monkeypatch):
    config, _ = equilateral_configuration(MS)
    fail_linalg(monkeypatch, "solve")
    with pytest.raises(DegenerateError, match=r"^momentum and s \. u constraints of the start are "
                                              "singular: solve failed$"):
        manifold_start(config, MS, PP, 0.05, seed=3)


def test_spectra_reject_a_shape_off_the_unit_sphere():
    config, _ = equilateral_configuration(MS)
    off = Configuration(1.1 * config.positions)
    with pytest.raises(NotOnSphereError):
        linearize_at_equilibrium(off, -1.0, MS, PP)
    with pytest.raises(NotOnSphereError):
        transversality_necessary(off, MS, PP)


# ---------------------------------------------------------------------------
# flow on the manifold


def test_two_body_flow_follows_the_closed_form():
    # with two bodies the shape potential is constant, so on the manifold
    # v' = -(b/2 - 1)(2 V0 - v^2): v(tau) = -w tanh((b/2 - 1) w tau)
    ms2 = MassSystem(np.array([1.0, 2.0]))
    pp2 = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    x1 = np.sqrt(1.0 / (ms2.masses[0] * (1.0 + ms2.masses[0] / ms2.masses[1])))
    r = np.array([[x1, 0.0], [-ms2.masses[0] * x1 / ms2.masses[1], 0.0]])
    _, v0_pot = potential_terms(r, ms2, pp2)
    w = np.sqrt(2.0 * v0_pot)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    u = w * ms2.masses[:, None] * (r @ rot.T)
    tr = integrate_on_C(
        McGeheeState(rho=0.0, v=0.0, s=r, u=u), ms2, pp2, tau_max=50.0
    )
    assert tr.termination == "event:equilibrium"
    vs = np.array(tr.conserved_residuals["v"])
    pred = -w * np.tanh((pp2.b / 2.0 - 1.0) * w * tr.times)
    assert np.abs(vs - pred).max() < 1e-9
    assert abs(tr.final_state[1] + w) < 1e-10
    assert max(abs(x) for x in tr.conserved_residuals["manifold"]) < 1e-9


def test_settle_gives_the_same_equilibrium_stop_as_the_full_field_check():
    # the settle event skips the field while |u| > tol; its sign, and so
    # the located stop, must match the event that always takes the field.
    # A mass below 1 makes |s'| = |u| / m exceed |u|, so the field, not u,
    # decides when the orbit has settled.
    ms2 = MassSystem(np.array([0.5, 1.0]))
    x1 = np.sqrt(1.0 / (ms2.masses[0] * (1.0 + ms2.masses[0] / ms2.masses[1])))
    r = np.array([[x1, 0.0], [-ms2.masses[0] * x1 / ms2.masses[1], 0.0]])
    _, v0_pot = potential_terms(r, ms2, PP)
    w = np.sqrt(2.0 * v0_pot)
    u = 0.8 * w * ms2.masses[:, None] * (r @ np.array([[0.0, 1.0], [-1.0, 0.0]]))
    v = -np.sqrt(2.0 * v0_pot - float(np.sum(u * u / ms2.masses[:, None])))
    st0 = McGeheeState(rho=0.0, v=v, s=r, u=u)
    tr = integrate_on_C(st0, ms2, PP, tau_max=200.0)
    assert tr.termination == "event:equilibrium"
    assert np.abs(tr.final_state[6:]).max() < 0.6e-9  # |u| < tol: the field decided

    field = mcgehee_field(ms2, PP, dim=2)

    def settle(t, y):
        u_norm = float(np.abs(y[6:]).max())
        return max(u_norm, float(np.abs(field(t, y)).max())) - 1e-9

    def separation(t, y):
        return min_separation(y[2:6].reshape(2, 2)) - 0.05

    ref = integrate(
        field,
        pack_mcgehee(st0),
        (0.0, 200.0),
        events=[
            Event("equilibrium", settle, terminal=True),
            Event("separation", separation, terminal=True),
        ],
        renormalizer=mcgehee_renormalizer(ms2, 2),
    )
    assert ref.termination == "event:equilibrium"
    assert tr.times[-1] == ref.times[-1]
    assert np.array_equal(tr.final_state, ref.final_state)
    assert np.array_equal(tr.states, ref.states)


def test_flow_monitors_equal_the_per_state_residuals():
    st0 = perturbed_manifold_state(MS, PP)
    tr = integrate_on_C(st0, MS, PP, tau_max=1.0)
    per_state = [collision_manifold_residual(unpack_mcgehee(y, 3, 2), MS, PP) for y in tr.states]
    assert np.array_equal(tr.conserved_residuals["manifold"], per_state)
    assert np.array_equal(tr.conserved_residuals["v"], tr.states[:, 1])


def test_manifold_residual_stays_small_along_the_flow():
    st0 = perturbed_manifold_state(MS, PP)
    tr = integrate_on_C(st0, MS, PP, tau_max=5.0, rel_tol=1e-12, abs_tol=1e-14)
    assert tr.termination == "event:separation"
    assert max(abs(x) for x in tr.conserved_residuals["manifold"]) < 1e-7
    vs = np.array(tr.conserved_residuals["v"])
    assert np.diff(vs).max() < 1e-10
    assert vs[0] - vs[-1] > 0.0


def test_saddle_departure_from_a_resting_equilibrium():
    # exactly at the equilibrium the field is zero up to rounding, but the
    # unstable directions amplify that rounding until the binary-collision
    # arms end the run; v decreases monotonically the whole way
    config, _ = equilateral_configuration(MS)
    s = config.positions
    _, v_pot = potential_terms(s, MS, PP)
    st0 = McGeheeState(
        rho=0.0, v=-np.sqrt(2.0 * v_pot), s=s, u=np.zeros_like(s)
    )
    tr = integrate_on_C(st0, MS, PP, tau_max=50.0)
    assert tr.termination == "event:separation"
    vs = np.array(tr.conserved_residuals["v"])
    assert np.diff(vs).max() < 1e-9
    assert vs[0] - vs[-1] > 1.0


def test_integrate_on_C_requires_the_boundary_exactly():
    st = perturbed_manifold_state(MS, PP)
    off = McGeheeState(rho=1e-12, v=st.v, s=st.s, u=st.u)
    with pytest.raises(OffManifoldError):
        integrate_on_C(off, MS, PP)
    bad = McGeheeState(rho=0.0, v=st.v + 0.3, s=st.s, u=st.u)
    with pytest.raises(OffManifoldError):
        integrate_on_C(bad, MS, PP)


def test_integrate_on_C_rejects_an_uncentered_start():
    # on C (V does not see a translation) but off the centered reduction
    st = perturbed_manifold_state(MS, PP)
    shifted = McGeheeState(rho=0.0, v=st.v, s=st.s + np.array([0.1, 0.0]), u=st.u)
    with pytest.raises(OffManifoldError, match=r"outside the centered reduction \(\|sum m s\| = 6"):
        integrate_on_C(shifted, MS, PP)


def test_min_separation_is_the_smallest_pair_distance():
    s = np.array([[0.0, 0.0], [3.0, 4.0], [0.3, 0.4]])
    assert abs(min_separation(s) - 0.5) < 1e-15


@pytest.mark.parametrize("n, dim", [(2, 1), (3, 2), (4, 1), (6, 2)])
def test_min_separation_of_a_series_is_its_rows_bit_for_bit(rng, n, dim):
    series = rng.standard_normal((50, n, dim)) * rng.uniform(1e-3, 1e3, (50, 1, 1))
    seps = min_separation(series)
    assert seps.shape == (50,)
    assert seps.tobytes() == np.array([min_separation(s) for s in series]).tobytes()
    assert min_separation(series[None]).tobytes() == seps[None].tobytes()


def test_a_nan_fails_the_manifold_gate(monkeypatch):
    st = perturbed_manifold_state(MS, PP)
    monkeypatch.setattr(collision_flow, "collision_manifold_residual", lambda *args: np.nan)
    with pytest.raises(OffManifoldError):
        gradient_like_rate(st, MS, PP)


def test_a_nan_defect_fails_the_equilibrium_gate(monkeypatch):
    monkeypatch.setattr(collision_flow, "cc_residual", lambda *args: (0.0, np.nan))
    with pytest.raises(OffManifoldError, match="defect nan"):
        find_equilibria(MS, PP, [equilateral_cc_of_b_term(MS, PP.b)])


@pytest.mark.parametrize("call, quantity", [
    (lambda: linearize_at_equilibrium(Configuration(np.eye(3, 2)), 1.0, MS,
                                      PotentialParams(a=1.0, b=2.0)), "b > 2"),
    (lambda: manifold_dimensions(3, "spatial", 0, 1.0, np.zeros(6)), "ambient 'spatial'"),
], ids=["b at most 2", "unknown ambient"])
def test_an_input_guard_raises_value_error_naming_its_quantity(call, quantity):
    with pytest.raises(ValueError, match=re.escape(quantity)):
        call()
