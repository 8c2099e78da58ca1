"""The flow on the collision manifold and its equilibria.

At rho = 0 the blown-up equations restrict to the collision manifold
C = {u^T M^{-1} u + v^2 = 2 V(s)}.  For b > 2 the flow on C is
gradient-like with respect to -v: along solutions
v' = (1 - b/2) u^T M^{-1} u <= 0.  Equilibria are the points u = 0,
v = +/- sqrt(2 V(s0)) with s0 a central configuration of the b-term
alone; the linearization there block-triangularizes over the tangent
space of the unit shape sphere, with the quadratic
mu^2 - (b/2 - 1) v mu - lambda = 0 tying each restricted-Hessian
eigenvalue lambda to a pair of exponents mu.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .central_config import (
    CCResult,
    Ordering,
    cc_index,
    cc_residual,
    count_modes,
    equilateral_results,
    euler_collinear_batch,
    index_report,
    restricted_hessian,
)
from .errors import DegenerateError, MismatchError, OffManifoldError, QHError
from .integrate import Event, Trajectory, integrate
from .mcgehee import (
    McGeheeState,
    collision_manifold_residual,
    manifold_residual_series,
    mcgehee_field,
    mcgehee_renormalizer,
    pack_mcgehee,
    split_mcgehee,
)
from .model import (
    Configuration,
    MassSystem,
    PotentialParams,
    _incidence,
    _kernel,
    _PairKernel,
    lift_to_plane,
    mass_inner,
    potential_V,
)


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """One equilibrium of the collision-manifold flow with its spectrum.

    lam holds the eigenvalues of the restricted Hessian of the b-term on
    the shape sphere (the ambient decides which sphere), mu the exponent
    pairs from the closed form, spectrum the eigenvalues of the
    assembled linearization including the radial and v directions.
    """

    s0: Configuration
    ambient: str
    v_sign: int
    v_value: float
    cc_defect: float
    lam: np.ndarray
    mu: np.ndarray
    spectrum: np.ndarray
    index: int
    zero_modes: int
    dim_unstable: int
    dim_stable: int
    dim_energy_surface: int
    kind: str = ""
    ordering: Ordering | None = None


def _pure_b(pp: PotentialParams) -> PotentialParams:
    if pp.beta <= 0.0:
        raise ValueError("collision manifold needs an active b-term")
    return PotentialParams(a=pp.a, b=pp.b, alpha=0.0, beta=pp.beta)


def _require_on_C(st: McGeheeState, ms: MassSystem, pp: PotentialParams, tol: float):
    defect = collision_manifold_residual(st, ms, pp)
    if not abs(defect) <= tol:
        raise OffManifoldError(
            f"state is off the collision manifold by {defect:.3e} (tol {tol:.1e})"
        )


def gradient_like_rate(st: McGeheeState, ms: MassSystem, pp: PotentialParams,
                       tol: float = 1e-9) -> float:
    """dv/dtau on the manifold: (1 - b/2) u^T M^{-1} u.

    Nonpositive for b >= 2 and identically zero at b = 2.  The state
    must be on the collision manifold within tol.
    """
    _require_on_C(st, ms, pp, tol)
    u_m_u = float(np.sum(st.u * st.u / ms.masses[:, None]))
    return (1.0 - pp.b / 2.0) * u_m_u


def eigen_closed_form(lam, v, b: float) -> np.ndarray:
    """Exponent pairs mu = [(b-2) v +/- sqrt((2-b)^2 v^2 + 16 lam)] / 4.

    One pair per restricted-Hessian eigenvalue; complex when the
    discriminant is negative.  Returns a (K, 2) complex array, or
    (B, K, 2) for (B, K) eigenvalues with (B,) values v.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    v = np.asarray(v, dtype=float)[..., None]
    disc = np.sqrt((2.0 - b) ** 2 * v**2 + 16.0 * lam)
    base = (b - 2.0) * v
    return np.stack([(base + disc) / 4.0, (base - disc) / 4.0], axis=-1)


def linearize_at_equilibrium(
    s0: Configuration,
    v0: float,
    ms: MassSystem,
    pp: PotentialParams,
    ambient: str = "planar",
):
    """Linearization of the restricted flow at an equilibrium, for b > 2.

    Returns (matrix, spectrum, lam): the assembled block matrix in
    coordinates (drho, dv, xi, eta), its eigenvalues, and the
    restricted-Hessian eigenvalues lam.  The block structure is

        drho' = v0 drho,  dv' = 0,  xi' = eta,
        eta'  = A xi + (b/2 - 1) v0 eta,

    so the spectrum is {v0, 0} plus the exponent pairs.  A is the
    restricted Hessian of the b-term on the unit shape sphere.  Raises
    NotOnSphereError unless <s0, s0> = 1, and DegenerateError when A
    shows other zero modes than its ambient's (index_report).
    """
    if pp.b <= 2.0:
        raise ValueError("linearization at equilibria needs b > 2")
    a_mat, lam = restricted_hessian(s0, ms, _pure_b(pp), ambient)
    index_report(lam, ambient, a_mat)
    return (*_linearization(a_mat, v0, pp.b), lam)


def _linearization(a_mat: np.ndarray, v0, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The block matrix of linearize_at_equilibrium from A, and its eigenvalues.

    (B, K, K) matrices A with (B,) values v0 give a (B, 2 + 2K, 2 + 2K)
    stack and its spectra, in one eigvals call.
    """
    k = a_mat.shape[-1]
    v0 = np.asarray(v0, dtype=float)
    mat = np.zeros(v0.shape + (2 + 2 * k, 2 + 2 * k))
    mat[..., 0, 0] = v0
    su = mat[..., 2:, 2:]  # the (s, u) block, a view
    su[..., :k, k:] = np.eye(k)
    su[..., k:, :k] = a_mat
    su[..., k:, k:] = ((b / 2.0 - 1.0) * v0)[..., None, None] * np.eye(k)
    try:
        return mat, np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(f"linearization spectrum at the rest point failed: {exc}") from None


def manifold_dimensions(
    n: int,
    ambient: str,
    index,
    v_value,
    spectrum: np.ndarray,
) -> tuple:
    """Closed-form stable/unstable dimensions, cross-checked numerically.

    Planar ambient: the energy surface has dimension 4n - 5 and the
    counts are (2n - 2 + index, 2n - 4 - index) for v > 0, swapped for
    v < 0: the exponents of an eigenvalue lam have product -lam, so each
    of the index negative lam gives two with the sign of v (complex ones
    have real part (b - 2) v / 4), and each positive one a pair of
    opposite signs.  Collinear ambient: surface dimension 2n - 3 with counts
    (n - 1, n - 2) for v > 0, swapped for v < 0.  The closed form must
    agree with the sign counts of the assembled spectrum (count_modes);
    disagreement raises MismatchError.  (B,) indices and values v with a
    (B, k) stack of spectra give (B,) counts, and the first member that
    disagrees raises.
    """
    if ambient == "planar":
        dim_eh = 4 * n - 5
        up, down = 2 * n - 2 + np.asarray(index), 2 * n - 4 - np.asarray(index)
        expected_zeros = 2  # radial energy direction plus the rotation
    elif ambient == "collinear":
        dim_eh = 2 * n - 3
        up, down = n - 1, n - 2
        expected_zeros = 1  # radial energy direction only
    else:
        raise ValueError(f"unknown ambient {ambient!r}")
    flip = np.asarray(v_value) < 0.0
    up, down = np.where(flip, down, up), np.where(flip, up, down)
    n_neg, n_zero, n_pos = count_modes(spectrum)
    wrong = np.flatnonzero((n_pos != up) | (n_neg != down) | (n_zero != expected_zeros))
    if wrong.size:
        at = (np.ravel(np.broadcast_to(x, flip.shape))[wrong[0]].item()
              for x in (up, down, n_pos, n_neg, n_zero, index, v_value))
        up, down, n_pos, n_neg, n_zero, index, v_value = at
        raise MismatchError(
            f"closed-form dimensions ({up}, {down}, {expected_zeros} zeros) "
            f"disagree with spectrum sign counts ({n_pos}, {n_neg}, {n_zero}) "
            f"for {ambient} ambient, index {index}, v = {v_value!r}"
        )
    return (up, down, dim_eh) if flip.ndim else (int(up), int(down), dim_eh)


def find_equilibria(
    ms: MassSystem,
    pp: PotentialParams,
    ccs_of_V: list[CCResult],
    tol: float = 1e-9,
) -> list[EquilibriumReport]:
    """Both equilibria (v = +/- sqrt(2 V(s0))) over each given CC of V, in order.

    ccs_of_V must be central configurations of the b-term alone on the
    unit sphere (alpha = 0 solves).  Each shape is verified against the
    equilibrium condition b V(s0) M s0 + grad V(s0) = 0, the cc_residual
    of the b-term on the unit sphere, before its reports are built; the
    shape's restricted Hessian then serves both of its linearizations.
    The pair kernel is bound once per call, and the shapes of each
    ambient (collinear shapes as (B, n, 1), planar ones as (B, n, 2)) run
    as one batch: one kernel pass yields every defect, V and Hessian, one
    stacked spectrum every restricted Hessian, and one eigvals call the
    2B linearizations.  When the batch fails, each shape runs alone in
    input order and the first to fail raises its own error; if none does,
    the batch's error is raised.
    """
    if pp.b <= 2.0:
        raise ValueError("equilibrium spectra need b > 2")
    kernel = _kernel(ms.masses, _pure_b(pp))
    try:
        return _rest_points(kernel, ms, pp, ccs_of_V, tol)
    except (QHError, ValueError):
        for cc in ccs_of_V:
            _rest_points(kernel, ms, pp, [cc], tol)
        raise


def _rest_points(kernel: _PairKernel, ms: MassSystem, pp: PotentialParams, ccs: list[CCResult],
                 tol: float) -> list[EquilibriumReport]:
    """find_equilibria's reports on the bound pure-b kernel, one batch per ambient.

    Each check raises for the first shape of its batch that fails it.
    """
    ppb = kernel.pp
    out = [None] * (2 * len(ccs))
    ambients = ["collinear" if cc.kind == "collinear" else "planar" for cc in ccs]
    for ambient, d in (("planar", 2), ("collinear", 1)):
        rows = [k for k, a in enumerate(ambients) if a == ambient]
        if not rows:
            continue
        s0 = np.stack([lift_to_plane(ccs[k].config) for k in rows])
        r = s0[..., :d]
        terms, collided = kernel.terms(r, force=False, strict=False, hess=True)
        if collided.any():
            kernel.pairs(r[collided.argmax()])  # raises that shape's CollisionError
        defect = np.broadcast_to(cc_residual(r, ms, ppb, terms)[1], len(rows))
        passed = defect <= tol * np.maximum(1.0, pp.b * terms.V)
        if not passed.all():
            worst = defect[passed.argmin()]
            raise OffManifoldError(f"shape is not a CC of the b-term: defect {worst:.3e}")
        a_mat, lam = restricted_hessian(s0, ms, ppb, ambient, 1.0, terms)
        report = index_report(lam, ambient, a_mat)
        # the rest points v = +sqrt(2 V) and -sqrt(2 V) of each shape, in turn
        v0 = np.multiply.outer(np.sqrt(2.0 * terms.V), [1.0, -1.0]).ravel()
        index = np.repeat(report.index, 2)
        spectra = _linearization(np.repeat(a_mat, 2, axis=0), v0, pp.b)[1]
        mu = eigen_closed_form(np.repeat(lam, 2, axis=0), v0, pp.b)
        dim_u, dim_s, dim_eh = manifold_dimensions(ms.n, ambient, index, v0, spectra)
        if np.iscomplexobj(spectra):
            # eigvals gives real spectra only when every member's is real, and
            # one shape's own call a real one whenever its own is
            spectra = [z if z.imag.any() else z.real for z in spectra]
        defects, zeros = defect.tolist(), report.zero_modes.tolist()
        fields = zip(v0.tolist(), index.tolist(), mu, spectra, dim_u.tolist(), dim_s.tolist())
        for q, (v, k, mu_q, spectrum, up, down) in enumerate(fields):
            j, second = divmod(q, 2)
            cc = ccs[rows[j]]
            out[2 * rows[j] + second] = EquilibriumReport(
                cc.config, ambient, -1 if second else 1, v, defects[j], lam[j], mu_q, spectrum, k,
                zeros[j], up, down, dim_eh, cc.kind, cc.ordering)
    return out


def transversality_necessary(
    s0: Configuration, ms: MassSystem, pp: PotentialParams
) -> bool:
    """Necessary spectral condition for transverse connections at s0.

    True when the shape is a nondegenerate minimum of the b-term on the
    planar shape sphere: planar index 0, with the rotation its one zero
    mode (cc_index raises DegenerateError otherwise).  Each planar
    EquilibriumReport of find_equilibria carries that index.
    """
    return cc_index(s0, ms, _pure_b(pp), "planar").index == 0


def min_separation(s: np.ndarray):
    """Smallest pairwise distance of an (n, d) shape, or (...) values of an (..., n, d) series."""
    diff = _incidence(s.shape[-2])[2].T @ s
    return np.sqrt((diff**2).sum(axis=-1)).min(axis=-1)


def integrate_on_C(
    st0: McGeheeState,
    ms: MassSystem,
    pp: PotentialParams,
    tau_max: float = 1e3,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    equilibrium_tol: float = 1e-9,
    separation_floor: float = 0.05,
) -> Trajectory:
    """Run the collision-manifold flow from a state with rho = 0.

    Stops at tau_max, when the orbit settles onto an equilibrium
    (both the tangential velocity u and the field drop below
    equilibrium_tol), or when the shape approaches a partial collision
    (minimum separation hits separation_floor, where the manifold ends
    in a singularity of V).
    """
    if st0.rho != 0.0:
        raise OffManifoldError(f"rho = {st0.rho!r}, expected exactly 0 on C")
    _require_on_C(st0, ms, pp, 1e-9)
    # the manifold theory lives in the centered reduction; states with a
    # net s or u component are silently reshaped by the renormalizer, so
    # reject them up front instead
    com = float(np.abs((ms.masses[:, None] * st0.s).sum(axis=0)).max())
    net_u = float(np.abs(st0.u.sum(axis=0)).max())
    scale = max(1.0, float(np.abs(st0.u).max()))
    if com > 1e-9 or net_u > 1e-9 * scale:
        raise OffManifoldError(
            f"state is outside the centered reduction "
            f"(|sum m s| = {com:.3e}, |sum u| = {net_u:.3e})"
        )
    n, dim = st0.n, st0.dim
    field = mcgehee_field(ms, pp, dim=dim)

    def settle(t, y):
        # integrate reads only the sign of g, which is the sign of
        # u_norm - tol while u_norm > tol: the field is needed only below
        u_norm = float(np.abs(split_mcgehee(y, n, dim)[3]).max())
        if u_norm > equilibrium_tol:
            return u_norm - equilibrium_tol
        f_norm = float(np.abs(field(t, y)).max())
        return max(u_norm, f_norm) - equilibrium_tol

    def separation(t, y):
        return min_separation(split_mcgehee(y, n, dim)[2]) - separation_floor

    events = [
        Event("equilibrium", settle, terminal=True),
        Event("separation", separation, terminal=True),
    ]

    def manifold(times, states):
        _, v, s, u = split_mcgehee(states, n, dim)
        return manifold_residual_series(v, s, u, ms, pp)

    monitors = {"manifold": manifold, "v": lambda t, y: split_mcgehee(y, n, dim)[1]}
    return integrate(
        field,
        pack_mcgehee(st0),
        (0.0, tau_max),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        events=events,
        renormalizer=mcgehee_renormalizer(ms, dim),
        monitors=monitors,
    )


def pure_b_cases(n: int) -> list[tuple[str, Ordering | None]]:
    """The pure-b shapes whose rest points the flow on C is known to have.

    The equilateral triangle when there are three bodies, then one
    collinear case per canonical ordering: n!/2 of them, one per class
    by the Moulton-type theorem.  A case is ("equilateral", None) or
    ("collinear", ordering), as pure_b_shapes takes it.
    """
    triangle = [("equilateral", None)] if n == 3 else []
    return triangle + [("collinear", o) for o in Ordering.all_canonical(n)]


def pure_b_shapes(ms: MassSystem, b: float, cases: Sequence[tuple[str, Ordering | None]],
                  grad_tol: float = 1e-12) -> list[CCResult]:
    """A central configuration of the b-term alone on the unit sphere per case, in order.

    Case ("equilateral", None) is the positively oriented triangle of
    three bodies, certified by its residual and planar index; case
    ("collinear", ordering) is the class of the ordering, solved to
    grad_tol.  Every collinear case is solved in one lockstep batch, and
    a repeated case once.  Over each such shape s0 the collision-manifold
    flow has the two rest points u = 0, v = +/- sqrt(2 V(s0)).
    """
    orderings = list(dict.fromkeys(o for kind, o in cases if kind == "collinear"))
    batch = euler_collinear_batch(orderings, np.tile(ms.masses, (len(orderings), 1)), b, 1.0,
                                  grad_tol)
    solved = {("collinear", o): cc for o, cc in zip(orderings, batch.results())}
    if ("equilateral", None) in cases:
        ppb = PotentialParams(a=0.0, b=b, alpha=0.0, beta=1.0)
        solved["equilateral", None] = equilateral_results(ms, ppb)[0]
    return [solved[case] for case in cases]


def manifold_start(
    shape,
    ms: MassSystem,
    pp: PotentialParams,
    scale: float,
    seed: int,
    v_sign: int = -1,
) -> McGeheeState:
    """A planar state on the collision manifold near a rest point.

    s is the shape lifted into the plane and scaled onto the unit
    sphere; u is a seeded random direction with zero total momentum and
    s . u = 0, of Euclidean norm scale; v = v_sign sqrt(2 V(s) - u M^-1 u)
    completes the manifold relation.  Raises ValueError when scale is
    too large for v to be real, and DegenerateError when the constraint
    rows have no solve.
    """
    r = lift_to_plane(shape)
    s = r / np.sqrt(mass_inner(r, r, ms))
    n, dim = s.shape
    flat = np.random.default_rng(seed).standard_normal(s.shape).ravel()
    # rows: the total momentum along each axis, then s . u
    cmat = np.vstack([np.tile(np.eye(dim), n), s.ravel()])
    try:
        flat = flat - cmat.T @ np.linalg.solve(cmat @ cmat.T, cmat @ flat)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(
            f"momentum and s . u constraints of the start are singular: {exc}") from None
    norm = np.linalg.norm(flat)
    u = np.zeros_like(s) if norm == 0.0 else scale * (flat / norm).reshape(n, dim)
    v2 = 2.0 * potential_V(Configuration(s), ms, pp) - float(
        np.sum(u * u / ms.masses[:, None])
    )
    if v2 < 0.0:
        raise ValueError(f"perturbation scale {scale!r} too large: no real v on the manifold")
    return McGeheeState(rho=0.0, v=v_sign * float(np.sqrt(v2)), s=s, u=u)


@dataclass(frozen=True, eq=False)
class RestPointMatch:
    """The catalog rest point nearest a state on the collision manifold.

    shape_distance is the mass-metric distance between the unit shapes,
    minimized over rotations of the catalog shape; v_distance is
    |v - v_value|.
    """

    cc: CCResult
    v_sign: int
    v_value: float
    shape_distance: float
    v_distance: float


def nearest_equilibrium(
    s, v: float, catalog: list[CCResult], ms: MassSystem, pp: PotentialParams
) -> RestPointMatch:
    """The rest point (s0, +/- sqrt(2 V(s0))) nearest (s, v) over the catalog.

    Nearest means the smallest hypot(shape_distance, v_distance), the
    first such in catalog order with +sqrt(2 V) before -sqrt(2 V); s may
    be collinear (n x 1) or planar (n x 2) and lies on the unit sphere.
    The kernel is bound once and V of every catalog shape, lifted into
    the plane and scaled onto the unit sphere, read from one batched pass;
    every other sum runs over one shape's own row, in the order of that
    shape's own numpy call, so the match, its distances and v_value are
    bit for bit those of a call per shape.
    """
    s = lift_to_plane(s)
    w = ms.masses[:, None]
    r = np.stack([lift_to_plane(cc.config) for cc in catalog])
    rows = (len(catalog), -1)  # each shape's (n, 2) products as one row, summed as np.sum sums them
    targets = r / np.sqrt(np.add.reduce((w * r * r).reshape(rows), axis=-1))[:, None, None]
    kernel = _kernel(ms.masses, pp)
    terms, collided = kernel.terms(targets, force=False, strict=False)
    if collided.any():
        kernel.pairs(targets[collided.argmax()])  # raises that shape's CollisionError
    v_star = np.sqrt(2.0 * terms.V)
    # the rotation by theta turns the overlap <s, R target> into
    # dots cos(theta) + cross sin(theta), at most hypot(dots, cross)
    dots = np.add.reduce((w * s * targets).reshape(rows), axis=-1)
    cross = np.add.reduce(
        ms.masses * (targets[..., 0] * s[:, 1] - targets[..., 1] * s[:, 0]), axis=-1)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * np.hypot(dots, cross), 0.0))
    # v - sign v_star per shape and sign, +1 first
    v_gap = v - np.multiply.outer(v_star, [1.0, -1.0])
    scores = np.hypot(dist[:, None], v_gap).ravel().tolist()
    # min keeps the first of equal scores, as a loop over shapes and signs would
    j, second = divmod(min(range(len(scores)), key=scores.__getitem__), 2)
    sign = -1 if second else 1
    return RestPointMatch(catalog[j], sign, sign * v_star[j].item(), dist[j].item(),
                          abs(v_gap[j, second].item()))
