"""Central configurations of the quasihomogeneous potential.

A configuration r on the sphere <r, r> = I0 with center of mass at the
origin is central when dU/dr = sigma * dI/dr with the multiplier forced
by homogeneity, sigma = -(a W + b V) / (2 I).  It is a simultaneous
central configuration when both terms satisfy their own equation at
once, dW/dr = sigma_1 dI/dr and dV/dr = sigma_2 dI/dr.

Collinear classes are labelled by orderings of the bodies on the line
modulo reflection; every class contains exactly one central
configuration (the restricted Hessian is positive definite on the whole
component), found here by a tangent-space Newton iteration.  For three
bodies in the plane with a = 1 the only non-collinear classes are the
two equilateral orientations, whose side length is fixed by the inertia
constraint alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    BracketError,
    CollisionError,
    DegenerateTermError,
    NoConvergenceError,
    NotOnSphereError,
    ToleranceError,
)
from .model import (
    Configuration,
    MassSystem,
    PotentialParams,
    centered,
    hess_U_matrix,
    lift_to_plane,
    mass_inner,
    moment_of_inertia,
    pair_terms,
    potential_U,
)

_SPHERE_TOL = 1e-9
_ZERO_TOL_FACTOR = 1e-8
_MAX_BODIES = 6


@dataclass(frozen=True)
class Ordering:
    """Left-to-right ordering of the bodies on a line, 1-based labels.

    Orderings related by reversal describe mirror images of the same
    collinear class; the canonical representative is the
    lexicographically smaller of the two.
    """

    perm: tuple[int, ...]

    def __post_init__(self):
        p = tuple(int(k) for k in self.perm)
        if sorted(p) != list(range(1, len(p) + 1)):
            raise ValueError(f"{p!r} is not a permutation of 1..{len(p)}")
        object.__setattr__(self, "perm", p)

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def zero_based(self) -> tuple[int, ...]:
        return tuple(k - 1 for k in self.perm)

    def reversed_(self) -> "Ordering":
        return Ordering(self.perm[::-1])

    def canonical(self) -> "Ordering":
        return Ordering(min(self.perm, self.perm[::-1]))

    @property
    def is_canonical(self) -> bool:
        return self.perm <= self.perm[::-1]

    @classmethod
    def identity(cls, n: int) -> "Ordering":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def all_canonical(cls, n: int) -> list["Ordering"]:
        """The n!/2 reflection classes (n! for n = 1), sorted."""
        out = [cls(p) for p in permutations(range(1, n + 1)) if p <= p[::-1]]
        return sorted(out, key=lambda o: o.perm)


@dataclass(frozen=True)
class CCQuery:
    """Problem data and solver knobs for central configuration searches."""

    ms: MassSystem
    pp: PotentialParams
    inertia_I0: float = 1.0
    grad_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        if not (np.isfinite(self.inertia_I0) and self.inertia_I0 > 0.0):
            raise ValueError("inertia_I0 must be positive")
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True, eq=False)
class IndexReport:
    """Spectrum of the restricted Hessian at a central configuration."""

    index: int
    eigenvalues: np.ndarray
    zero_modes: int
    ambient: str


@dataclass(frozen=True, eq=False)
class CCResult:
    """A central configuration together with its certificates."""

    config: Configuration
    kind: str  # "collinear" | "equilateral"
    sigma: float
    residual: float
    index: int
    hess_eigs: np.ndarray
    inertia_I0: float
    ordering: Ordering | None = None
    sigma1: float | None = None
    sigma2: float | None = None


@dataclass(frozen=True)
class SimultaneousReport:
    """Residuals of the two-multiplier (simultaneous) CC equations."""

    sigma1: float
    sigma2: float
    residual_W: float
    residual_V: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_W, self.residual_V)


@dataclass(frozen=True)
class FRootResult:
    """Positive root of f(r) = 2 sigma r^(b+2) + m r^(b-1) + m b.

    sign_changes counts the sign alternations of f over a log-spaced
    grid spanning [grid_lo, grid_hi]; a valid certificate has exactly
    one.
    """

    root: float
    f_at_root: float
    bracket: tuple[float, float]
    sign_changes: int
    grid_lo: float
    grid_hi: float
    grid_points: int


def cc_residual(config, ms: MassSystem, pp: PotentialParams) -> tuple[float, float]:
    """Multiplier sigma and sup-norm residual of dU = sigma dI at config."""
    r = config.positions if isinstance(config, Configuration) else np.asarray(config, float)
    w, v, gw, gv, _ = pair_terms(r, ms, pp)
    inertia = moment_of_inertia(r, ms)
    sigma = -(pp.a * w + pp.b * v) / (2.0 * inertia)
    grad_i = 2.0 * ms.masses[:, None] * r
    res = float(np.abs(gw + gv - sigma * grad_i).max())
    return sigma, res


def simultaneous_residual(
    config, ms: MassSystem, pp: PotentialParams
) -> SimultaneousReport:
    """Residuals of the term-by-term CC equations; needs both terms active."""
    if pp.alpha == 0.0 or pp.beta == 0.0:
        raise DegenerateTermError("simultaneous test needs alpha > 0 and beta > 0")
    r = config.positions if isinstance(config, Configuration) else np.asarray(config, float)
    w, v, gw, gv, _ = pair_terms(r, ms, pp)
    inertia = moment_of_inertia(r, ms)
    sigma1 = -pp.a * w / (2.0 * inertia)
    sigma2 = -pp.b * v / (2.0 * inertia)
    grad_i = 2.0 * ms.masses[:, None] * r
    res_w = float(np.abs(gw - sigma1 * grad_i).max())
    res_v = float(np.abs(gv - sigma2 * grad_i).max())
    return SimultaneousReport(sigma1, sigma2, res_w, res_v)


def _metric_null_basis(constraints: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Orthonormal basis, in the diag(weights) metric, of ker(constraints)."""
    _, svals, vt = np.linalg.svd(constraints)
    tol = max(constraints.shape) * np.finfo(float).eps * svals[0]
    rank = int(np.sum(svals > tol))
    q = vt[rank:].T
    if q.shape[1] == 0:
        return q
    gram = q.T @ (weights[:, None] * q)
    chol = np.linalg.cholesky(gram)
    return q @ np.linalg.inv(chol).T


def tangent_basis(positions: np.ndarray, ms: MassSystem, inertia_I0: float) -> np.ndarray:
    """Mass-orthonormal basis of the tangent space to the constraint set.

    The constraint set is {center of mass at origin, <r, r> = I0}; the
    basis is returned as a (n*d, K) matrix of flattened displacement
    fields with K = n*d - d - 1.
    """
    r = np.asarray(positions, dtype=float)
    n, d = r.shape
    rows = []
    for ax in range(d):
        row = np.zeros(n * d)
        row[ax::d] = ms.masses
        rows.append(row)
    rows.append((ms.masses[:, None] * r).ravel())
    weights = np.repeat(ms.masses, d)
    return _metric_null_basis(np.array(rows), weights)


def _restricted_hessian_matrix(
    r: np.ndarray, ms: MassSystem, pp: PotentialParams, basis: np.ndarray, inertia_I0: float
) -> np.ndarray:
    w, v = pair_terms(r, ms, pp)[:2]
    correction = (pp.a * w + pp.b * v) / inertia_I0
    hm = hess_U_matrix(r, ms, pp)
    k = basis.shape[1]
    return basis.T @ hm @ basis + correction * np.eye(k)


def count_modes(eigs: np.ndarray) -> tuple[int, int, float]:
    """(index, zero_modes, zero_tol) of a real spectrum.

    Eigenvalues within zero_tol = 1e-8 * max |eig| of zero are zero
    modes; the index counts those below -zero_tol.  An empty spectrum
    gives (0, 0, 0.0).
    """
    if eigs.size == 0:
        return 0, 0, 0.0
    zero_tol = _ZERO_TOL_FACTOR * float(np.abs(eigs).max())
    return int(np.sum(eigs < -zero_tol)), int(np.sum(np.abs(eigs) < zero_tol)), zero_tol


def _as_line(r: np.ndarray) -> np.ndarray:
    """x-coordinates of a configuration lying on the x-axis."""
    if r.shape[1] == 1:
        return r[:, 0]
    scale = max(float(np.abs(r).max()), 1e-300)
    if float(np.abs(r[:, 1]).max()) > 1e-9 * scale:
        raise ValueError("configuration is not on the x-axis")
    return r[:, 0]


def cc_index(
    config,
    ms: MassSystem,
    pp: PotentialParams,
    ambient: str = "planar",
    inertia_I0: float = 1.0,
) -> IndexReport:
    """Morse data of U restricted to the sphere at a central configuration.

    The index counts strictly negative eigenvalues of the restricted
    Hessian, with eigenvalues below zero_tol = 1e-8 * max |eig| in
    magnitude classified as zero modes.  The planar ambient must show
    exactly the one rotational zero mode; the collinear ambient none.
    Anything else raises ToleranceError (a degenerate CC).
    """
    r = config.positions if isinstance(config, Configuration) else np.asarray(config, float)
    inertia = moment_of_inertia(r, ms)
    if abs(inertia - inertia_I0) > _SPHERE_TOL * inertia_I0:
        raise NotOnSphereError(f"<r, r> = {inertia!r}, expected {inertia_I0!r}")
    if ambient == "collinear":
        x = _as_line(r)[:, None]
    elif ambient == "planar":
        x = lift_to_plane(r if r.shape[1] == 2 else _as_line(r)[:, None])
    else:
        raise ValueError(f"unknown ambient {ambient!r}")
    basis = tangent_basis(x, ms, inertia_I0)
    if basis.shape[1] == 0:
        return IndexReport(index=0, eigenvalues=np.zeros(0), zero_modes=0, ambient=ambient)
    a_mat = _restricted_hessian_matrix(x, ms, pp, basis, inertia_I0)
    eigs = np.linalg.eigvalsh(a_mat)
    index, zeros, _ = count_modes(eigs)
    expected_zeros = 1 if ambient == "planar" else 0
    if zeros != expected_zeros:
        raise ToleranceError(
            f"{ambient} restricted Hessian has {zeros} near-zero eigenvalues, "
            f"expected {expected_zeros}; CC looks degenerate"
        )
    return IndexReport(index=index, eigenvalues=eigs, zero_modes=zeros, ambient=ambient)


def _positions_from_gaps(ordering: Ordering, gaps: np.ndarray, n: int) -> np.ndarray:
    x = np.zeros(n)
    coords = np.concatenate([[0.0], np.cumsum(gaps)])
    x[list(ordering.zero_based)] = coords
    return x


def _gaps_of(x: np.ndarray, ordering: Ordering) -> np.ndarray:
    return np.diff(x[list(ordering.zero_based)])


def _project_line(x: np.ndarray, ms: MassSystem, inertia_I0: float) -> np.ndarray:
    x = x - (ms.masses @ x) / ms.total_mass
    return x * np.sqrt(inertia_I0 / float(np.sum(ms.masses * x * x)))


def solve_collinear_ordering(ordering: Ordering, q: CCQuery) -> CCResult:
    """The unique collinear central configuration with the given ordering.

    Works on the line through a tangent-space Newton iteration with the
    restricted Hessian, Armijo backtracking on U, and a gradient-descent
    fallback; the ordering is preserved by rejecting trial steps whose
    gaps are not strictly positive.  Convergence is declared on the
    sup-norm residual of the CC equation; since that residual cannot
    drop below the rounding in the sums that form it, the goal widens to
    a few ulps of max_i (sum_j |f_ij| + |sigma dI/dx_i|) when grad_tol is
    tighter than that.
    """
    ms, pp = q.ms, q.pp
    n = ms.n
    if ordering.n != n:
        raise ValueError("ordering length does not match the mass system")
    x = _project_line(_positions_from_gaps(ordering, np.ones(n - 1), n), ms, q.inertia_I0)

    res = np.inf
    sigma = 0.0
    tol_now = q.grad_tol
    for _ in range(q.max_iter):
        r1 = x[:, None]
        sigma, res = cc_residual(r1, ms, pp)
        _, _, gw, gv, force_sum = pair_terms(r1, ms, pp)
        grad_flat = (gw + gv).ravel()
        scale = float(np.max(force_sum + np.abs(2.0 * sigma * ms.masses * x)))
        tol_now = max(q.grad_tol, 8.0 * np.finfo(float).eps * scale)
        if res <= tol_now:
            break
        basis = tangent_basis(r1, ms, q.inertia_I0)
        g = basis.T @ grad_flat
        a_mat = _restricted_hessian_matrix(r1, ms, pp, basis, q.inertia_I0)
        try:
            step = np.linalg.solve(a_mat, -g)
        except np.linalg.LinAlgError:
            step = -g
        slope = float(g @ step)
        if slope >= 0.0:
            step = -g
            slope = -float(g @ g)
        u0 = potential_U(x[:, None], ms, pp)
        direction = basis @ step
        t = 1.0
        accepted = False
        while t >= 1e-14:
            trial = _project_line(x + t * direction, ms, q.inertia_I0)
            if np.all(_gaps_of(trial, ordering) > 0.0):
                try:
                    u1 = potential_U(trial[:, None], ms, pp)
                    # slack of a few ulps of U so rounding cannot veto the
                    # final Newton steps inside the quadratic basin
                    if u1 <= u0 + 1e-4 * t * slope + 1e-14 * abs(u0):
                        x = trial
                        accepted = True
                        break
                except CollisionError:
                    pass
            t *= 0.5
        if not accepted:
            break
    else:
        raise NoConvergenceError(
            f"collinear solve for ordering {ordering.perm} stalled at residual {res:.3e}",
            residual=res,
        )
    if res > tol_now:
        # one last residual check after a failed line search
        sigma, res = cc_residual(x[:, None], ms, pp)
        if res > tol_now:
            raise NoConvergenceError(
                f"collinear solve for ordering {ordering.perm} stalled at residual {res:.3e}",
                residual=res,
            )
    report = cc_index(x[:, None], ms, pp, ambient="collinear", inertia_I0=q.inertia_I0)
    config = Configuration(lift_to_plane(x[:, None]))
    return CCResult(
        config=config,
        kind="collinear",
        sigma=sigma,
        residual=res,
        index=report.index,
        hess_eigs=report.eigenvalues,
        inertia_I0=q.inertia_I0,
        ordering=ordering,
    )


def solve_collinear_all(q: CCQuery) -> list[CCResult]:
    """All n!/2 collinear classes, one result per canonical ordering."""
    n = q.ms.n
    if n > _MAX_BODIES:
        raise ValueError(f"collinear enumeration supports n <= {_MAX_BODIES}")
    results = [solve_collinear_ordering(o, q) for o in Ordering.all_canonical(n)]
    expected = math.factorial(n) // 2
    if len(results) != expected:
        raise NoConvergenceError(
            f"found {len(results)} collinear classes, expected {expected}"
        )
    return results


def equilateral_configuration(
    ms: MassSystem, inertia_I0: float = 1.0
) -> tuple[Configuration, Configuration]:
    """The two oriented equilateral triangles on the inertia sphere.

    The side is forced by the constraint alone:
    L = sqrt(I0 * total_mass / sum_{i<j} m_i m_j).  Returns the
    positively oriented triangle and its mirror image, both centered.
    """
    if ms.n != 3:
        raise ValueError("equilateral configurations need exactly three bodies")
    side = equilateral_side(ms, inertia_I0)
    raw = side * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    plus = centered(raw, ms)
    minus = plus * np.array([1.0, -1.0])
    return Configuration(plus), Configuration(minus)


def equilateral_side(ms: MassSystem, inertia_I0: float = 1.0) -> float:
    m = ms.masses
    pair_sum = m[0] * m[1] + m[0] * m[2] + m[1] * m[2]
    return float(np.sqrt(inertia_I0 * ms.total_mass / pair_sum))


def equilateral_cc(q: CCQuery) -> tuple[CCResult, CCResult]:
    """The two equilateral central configurations for three bodies, a = 1.

    These are simultaneous central configurations for any masses; both
    sigma records are filled.  Raises ManevOnlyError unless a = 1 with
    beta > 0, and DegenerateTermError when alpha = 0.
    """
    if q.ms.n != 3:
        raise ValueError("equilateral_cc needs exactly three bodies")
    q.pp.require_manev()
    if q.pp.alpha == 0.0:
        raise DegenerateTermError("equilateral_cc needs alpha > 0")
    out = []
    for config in equilateral_configuration(q.ms, q.inertia_I0):
        sigma, res = cc_residual(config, q.ms, q.pp)
        if res > max(q.grad_tol, 1e-12) * max(1.0, abs(sigma)):
            raise NoConvergenceError(
                f"equilateral construction has residual {res:.3e}", residual=res
            )
        sim = simultaneous_residual(config, q.ms, q.pp)
        report = cc_index(config, q.ms, q.pp, ambient="planar", inertia_I0=q.inertia_I0)
        out.append(
            CCResult(
                config=config,
                kind="equilateral",
                sigma=sigma,
                residual=res,
                index=report.index,
                hess_eigs=report.eigenvalues,
                inertia_I0=q.inertia_I0,
                sigma1=sim.sigma1,
                sigma2=sim.sigma2,
            )
        )
    return out[0], out[1]


def bisect_sign_change(f, rel_tol: float) -> tuple[float, float] | None:
    """Bracket (lo, hi) around the point where f, positive near 0, turns negative.

    hi doubles from 1 until f(hi) < 0, at most 400 times (None if f
    never turns negative); bisection from lo = 0 then shrinks the
    bracket until hi - lo <= rel_tol * hi.
    """
    hi = 1.0
    for _ in range(400):
        if f(hi) < 0.0:
            break
        hi *= 2.0
    else:
        return None
    lo = 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def f_root(sigma: float, b: float, mtotal: float) -> FRootResult:
    """Unique positive root of f(r) = 2 sigma r^(b+2) + m r^(b-1) + m b.

    Needs sigma < 0 (f then starts positive and ends negative), b > 1
    and mtotal > 0.  The root is located by bisection after geometric
    bracket expansion, to 1e-14 relative tolerance, and certified by a
    sign scan over a log-spaced grid around the root.
    """
    if not (np.isfinite(b) and b > 1.0):
        raise ValueError("f_root needs b > 1")
    if not (np.isfinite(mtotal) and mtotal > 0.0):
        raise ValueError("f_root needs a positive total mass")

    def f(r: float) -> float:
        return 2.0 * sigma * r ** (b + 2.0) + mtotal * r ** (b - 1.0) + mtotal * b

    if not (np.isfinite(sigma) and sigma < 0.0):
        raise BracketError(f"no sign change: sigma = {sigma!r} must be negative")
    bracket = bisect_sign_change(f, 1e-14)
    if bracket is None:
        raise BracketError("no sign change found during bracket expansion")
    lo, hi = bracket
    root = 0.5 * (lo + hi)

    grid_lo, grid_hi, points = root * 1e-6, root * 1e6, 241
    grid = np.geomspace(grid_lo, grid_hi, points)
    signs = np.sign([f(r) for r in grid])
    signs = signs[signs != 0.0]
    changes = int(np.sum(signs[1:] != signs[:-1]))
    return FRootResult(
        root=root,
        f_at_root=f(root),
        bracket=(lo, hi),
        sign_changes=changes,
        grid_lo=grid_lo,
        grid_hi=grid_hi,
        grid_points=points,
    )


def euler_collinear_homogeneous(
    ms: MassSystem,
    exponent: float,
    ordering: Ordering,
    inertia_I0: float = 1.0,
    grad_tol: float = 1e-12,
) -> CCResult:
    """Collinear CC of the single-term potential sum m_i m_j / r^exponent."""
    if not (np.isfinite(exponent) and exponent > 0.0):
        raise ValueError("exponent must be positive")
    pure = PotentialParams(a=0.0, b=exponent, alpha=0.0, beta=1.0)
    q = CCQuery(ms=ms, pp=pure, inertia_I0=inertia_I0, grad_tol=grad_tol)
    return solve_collinear_ordering(ordering, q)


def simultaneous_gap(
    ms: MassSystem,
    pp: PotentialParams,
    ordering: Ordering,
    inertia_I0: float = 1.0,
    grad_tol: float = 1e-13,
) -> float:
    """Mass-metric distance between the pure-a and pure-b collinear CCs.

    The gap vanishes exactly when the ordering admits a simultaneous
    collinear central configuration of U = W + V.  Both exponents must
    be active and positive.
    """
    if pp.alpha == 0.0 or pp.beta == 0.0:
        raise DegenerateTermError("simultaneous gap needs alpha > 0 and beta > 0")
    if pp.a == 0.0:
        raise DegenerateTermError("simultaneous gap needs a > 0; a = 0 has no shape")
    s_w = euler_collinear_homogeneous(ms, pp.a, ordering, inertia_I0, grad_tol)
    s_v = euler_collinear_homogeneous(ms, pp.b, ordering, inertia_I0, grad_tol)
    diff = s_v.config.positions - s_w.config.positions
    return float(np.sqrt(mass_inner(diff, diff, ms)))
