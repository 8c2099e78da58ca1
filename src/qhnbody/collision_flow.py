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

from dataclasses import dataclass

import numpy as np

from .central_config import (
    CCResult,
    Ordering,
    _restricted_hessian_matrix,
    tangent_basis,
)
from .errors import (
    DegenerateError,
    MismatchError,
    OffManifoldError,
)
from .integrate import Event, Trajectory, integrate
from .mcgehee import (
    McGeheeState,
    collision_manifold_residual,
    mcgehee_field,
    mcgehee_renormalizer,
    pack_mcgehee,
    unpack_mcgehee,
)
from .model import (
    Configuration,
    MassSystem,
    PotentialParams,
    _pair_index,
    moment_of_inertia,
    pair_terms,
)

_ZERO_TOL_FACTOR = 1e-8


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


def field_on_C(s, v, u, ms: MassSystem, pp: PotentialParams, tol: float = 1e-9):
    """Restriction of the blown-up field to the collision manifold.

    Returns (v', s', u').  The state must satisfy the manifold relation
    within tol, else OffManifoldError.
    """
    pp.require_manev()
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    st = McGeheeState(rho=0.0, v=float(v), s=s, u=u)
    defect = collision_manifold_residual(st, ms, pp)
    if abs(defect) > tol:
        raise OffManifoldError(
            f"state is off the collision manifold by {defect:.3e} (tol {tol:.1e})"
        )
    from .mcgehee import _field_arrays

    _, v_dot, s_dot, u_dot = _field_arrays(0.0, float(v), s, u, ms, pp)
    return v_dot, s_dot, u_dot


def gradient_like_rate(st: McGeheeState, ms: MassSystem, pp: PotentialParams,
                       tol: float = 1e-9) -> float:
    """dv/dtau on the manifold: (1 - b/2) u^T M^{-1} u.

    Nonpositive for b >= 2 and identically zero at b = 2.  The state
    must be on the collision manifold within tol.
    """
    defect = collision_manifold_residual(st, ms, pp)
    if abs(defect) > tol:
        raise OffManifoldError(
            f"state is off the collision manifold by {defect:.3e} (tol {tol:.1e})"
        )
    u_m_u = float(np.sum(st.u * st.u / ms.masses[:, None]))
    return (1.0 - pp.b / 2.0) * u_m_u


def eigen_closed_form(lam, v: float, b: float) -> np.ndarray:
    """Exponent pairs mu = [(b-2) v +/- sqrt((2-b)^2 v^2 + 16 lam)] / 4.

    One pair per restricted-Hessian eigenvalue; complex when the
    discriminant is negative.  Returns a (K, 2) complex array.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    disc = np.sqrt((2.0 - b) ** 2 * v**2 + 16.0 * lam)
    base = (b - 2.0) * v
    return np.column_stack([(base + disc) / 4.0, (base - disc) / 4.0])


def _shape_matrix(s0: Configuration, ms: MassSystem, pp: PotentialParams,
                  ambient: str) -> tuple[np.ndarray, np.ndarray]:
    """Restricted Hessian of the b-term on the shape sphere, with basis."""
    r = s0.positions
    inertia = moment_of_inertia(r, ms)
    if abs(inertia - 1.0) > 1e-9:
        raise ValueError(f"shape must be on the unit sphere, <s,s> = {inertia!r}")
    if ambient == "collinear":
        scale = max(float(np.abs(r).max()), 1e-300)
        if r.shape[1] == 2 and float(np.abs(r[:, 1]).max()) > 1e-9 * scale:
            raise ValueError("collinear ambient needs a configuration on the x-axis")
        x = r[:, :1]
    elif ambient == "planar":
        x = r if r.shape[1] == 2 else np.column_stack([r[:, 0], np.zeros(r.shape[0])])
    else:
        raise ValueError(f"unknown ambient {ambient!r}")
    ppb = _pure_b(pp)
    basis = tangent_basis(x, ms, 1.0)
    a_mat = _restricted_hessian_matrix(x, ms, ppb, basis, 1.0)
    return a_mat, basis


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

    so the spectrum is {v0, 0} plus the exponent pairs.  Raises
    DegenerateError when A shows unexpected zero modes (one rotational
    zero is expected in the planar ambient, none in the collinear one).
    """
    pp.require_manev()
    if pp.b <= 2.0:
        raise ValueError("linearization at equilibria needs b > 2")
    a_mat, _ = _shape_matrix(s0, ms, pp, ambient)
    k = a_mat.shape[0]
    lam = np.linalg.eigvalsh(a_mat)
    if k:
        zero_tol = _ZERO_TOL_FACTOR * float(np.abs(lam).max())
        zeros = int(np.sum(np.abs(lam) < zero_tol))
        expected = 1 if ambient == "planar" else 0
        if zeros != expected:
            raise DegenerateError(
                f"{ambient} shape Hessian has {zeros} zero modes, expected {expected}"
            )
    mat = np.zeros((2 + 2 * k, 2 + 2 * k))
    mat[0, 0] = v0
    mat[2 : 2 + k, 2 + k :] = np.eye(k)
    mat[2 + k :, 2 : 2 + k] = a_mat
    mat[2 + k :, 2 + k :] = (pp.b / 2.0 - 1.0) * v0 * np.eye(k)
    spectrum = np.linalg.eigvals(mat)
    return mat, spectrum, lam


def manifold_dimensions(
    n: int,
    ambient: str,
    index: int,
    v_value: float,
    spectrum: np.ndarray,
) -> tuple[int, int, int]:
    """Closed-form stable/unstable dimensions, cross-checked numerically.

    Planar ambient: the energy surface has dimension 4n - 5 and the
    counts are (2n - 2 - index, 2n - 4 + index) for v > 0, swapped for
    v < 0.  Collinear ambient: surface dimension 2n - 3 with counts
    (n - 1, n - 2) for v > 0, swapped for v < 0.  The closed form must
    agree with the sign counts of the assembled spectrum; disagreement
    raises MismatchError.
    """
    if ambient == "planar":
        dim_eh = 4 * n - 5
        up, down = 2 * n - 2 - index, 2 * n - 4 + index
        expected_zeros = 2  # radial energy direction plus the rotation
    elif ambient == "collinear":
        dim_eh = 2 * n - 3
        up, down = n - 1, n - 2
        expected_zeros = 1  # radial energy direction only
    else:
        raise ValueError(f"unknown ambient {ambient!r}")
    if v_value < 0.0:
        up, down = down, up
    zero_tol = _ZERO_TOL_FACTOR * float(np.abs(spectrum).max())
    re = spectrum.real
    n_pos = int(np.sum(re > zero_tol))
    n_neg = int(np.sum(re < -zero_tol))
    n_zero = int(np.sum(np.abs(re) <= zero_tol))
    if (n_pos, n_neg, n_zero) != (up, down, expected_zeros):
        raise MismatchError(
            f"closed-form dimensions ({up}, {down}, {expected_zeros} zeros) "
            f"disagree with spectrum sign counts ({n_pos}, {n_neg}, {n_zero}) "
            f"for {ambient} ambient, index {index}, v = {v_value!r}"
        )
    return up, down, dim_eh


def find_equilibria(
    ms: MassSystem,
    pp: PotentialParams,
    ccs_of_V: list[CCResult],
    tol: float = 1e-9,
) -> list[EquilibriumReport]:
    """Both equilibria (v = +/- sqrt(2 V(s0))) over each given CC of V.

    ccs_of_V must be central configurations of the b-term alone on the
    unit sphere (alpha = 0 solves).  Each shape is verified against the
    equilibrium condition b V(s0) M s0 + grad V(s0) = 0 before its
    reports are built.
    """
    pp.require_manev()
    if pp.b <= 2.0:
        raise ValueError("equilibrium spectra need b > 2")
    ppb = _pure_b(pp)
    out = []
    for cc in ccs_of_V:
        s0 = cc.config
        r = s0.positions if s0.positions.shape[1] == 2 else np.column_stack(
            [s0.positions[:, 0], np.zeros(ms.n)]
        )
        s0 = Configuration(r)
        _, v_pot, _, grad_v, _ = pair_terms(s0, ms, ppb)
        defect_vec = pp.b * v_pot * ms.masses[:, None] * r + grad_v
        defect = float(np.abs(defect_vec).max())
        scale = max(1.0, pp.b * v_pot)
        if defect > tol * scale:
            raise OffManifoldError(
                f"shape is not a CC of the b-term: defect {defect:.3e}"
            )
        ambient = "collinear" if cc.kind == "collinear" else "planar"
        v_star = float(np.sqrt(2.0 * v_pot))
        for sign in (+1, -1):
            v0 = sign * v_star
            _, spectrum, lam = linearize_at_equilibrium(s0, v0, ms, pp, ambient)
            if lam.size:
                zero_tol = _ZERO_TOL_FACTOR * float(np.abs(lam).max())
                index = int(np.sum(lam < -zero_tol))
                zero_modes = int(np.sum(np.abs(lam) < zero_tol))
            else:
                index = 0
                zero_modes = 0
            mu = eigen_closed_form(lam, v0, pp.b)
            dim_u, dim_s, dim_eh = manifold_dimensions(
                ms.n, ambient, index, v0, spectrum
            )
            out.append(
                EquilibriumReport(
                    s0=s0,
                    ambient=ambient,
                    v_sign=sign,
                    v_value=v0,
                    cc_defect=defect,
                    lam=lam,
                    mu=mu,
                    spectrum=spectrum,
                    index=index,
                    zero_modes=zero_modes,
                    dim_unstable=dim_u,
                    dim_stable=dim_s,
                    dim_energy_surface=dim_eh,
                    kind=cc.kind,
                    ordering=cc.ordering,
                )
            )
    return out


def transversality_necessary(
    s0: Configuration, ms: MassSystem, pp: PotentialParams
) -> bool:
    """Necessary spectral condition for transverse connections at s0.

    True when the shape is a nondegenerate minimum of the b-term on the
    planar shape sphere: index zero and every non-rotational eigenvalue
    strictly positive.
    """
    a_mat, _ = _shape_matrix(s0, ms, pp, "planar")
    lam = np.linalg.eigvalsh(a_mat)
    zero_tol = _ZERO_TOL_FACTOR * float(np.abs(lam).max())
    zeros = int(np.sum(np.abs(lam) < zero_tol))
    if zeros != 1:
        raise DegenerateError(f"expected one rotational zero mode, found {zeros}")
    return bool(np.all(np.sort(lam)[1:] > zero_tol))


def min_separation(s: np.ndarray) -> float:
    i, j, _ = _pair_index(s.shape[0])
    return float(np.sqrt(((s[i] - s[j]) ** 2).sum(axis=1)).min())


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
    pp.require_manev()
    if st0.rho != 0.0:
        raise OffManifoldError(f"rho = {st0.rho!r}, expected exactly 0 on C")
    defect = collision_manifold_residual(st0, ms, pp)
    if abs(defect) > 1e-9:
        raise OffManifoldError(f"initial state off the manifold by {defect:.3e}")
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
    sz = n * dim

    def settle(t, y):
        u_norm = float(np.abs(y[2 + sz :]).max())
        f_norm = float(np.abs(field(t, y)).max())
        return max(u_norm, f_norm) - equilibrium_tol

    def separation(t, y):
        return min_separation(y[2 : 2 + sz].reshape(n, dim)) - separation_floor

    events = [
        Event("equilibrium", settle, direction=-1, terminal=True),
        Event("separation", separation, direction=-1, terminal=True),
    ]
    monitors = {
        "manifold": lambda t, y: collision_manifold_residual(
            unpack_mcgehee(y, n, dim), ms, pp
        ),
        "v": lambda t, y: float(y[1]),
    }
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
