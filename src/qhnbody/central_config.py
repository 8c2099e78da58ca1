"""Central configurations of the quasihomogeneous potential.

A configuration r on the sphere <r, r> = I0 with center of mass at the
origin is central when dU/dr = sigma * dI/dr with the multiplier forced
by homogeneity, sigma = -(a W + b V) / (2 I).  It is a simultaneous
central configuration when both terms satisfy their own equation at
once, dW/dr = sigma_1 dI/dr and dV/dr = sigma_2 dI/dr.

Collinear classes are labelled by orderings of the bodies on the line
modulo reflection; every class contains exactly one central
configuration (the restricted Hessian is positive definite on the whole
component), found here by a constrained Newton iteration.  For three
bodies in the plane with a = 1 the only non-collinear classes are the
two equilateral orientations, whose side length is fixed by the inertia
constraint alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (
    BracketError,
    DegenerateError,
    DegenerateTermError,
    NoConvergenceError,
    NotOnSphereError,
)
from .model import (
    Configuration,
    MassSystem,
    PairTerms,
    PotentialParams,
    _mass_array,
    _PairKernel,
    centered,
    lift_to_plane,
    moment_of_inertia,
    pair_terms,
)

_SPHERE_TOL = 1e-9
_ZERO_TOL_FACTOR = 1e-8


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
        _check_knobs(self.inertia_I0, self.grad_tol)


def _check_knobs(inertia_I0: float, grad_tol: float) -> None:
    if not (np.isfinite(inertia_I0) and inertia_I0 > 0.0):
        raise ValueError("inertia_I0 must be positive")
    if not (np.isfinite(grad_tol) and grad_tol > 0.0):
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
    """A central configuration together with its certificates.

    A Newton solve also records its work: the steps taken, the trial
    steps rejected by the line search, the gradient steps taken in place
    of Newton steps, and the residual goal it stopped at (grad_tol or
    the rounding floor above it).
    """

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
    newton_iters: int = 0
    backtracks: int = 0
    fallbacks: int = 0
    residual_floor: float | None = None


@dataclass(frozen=True, eq=False)
class CCBatch:
    """Collinear central configurations of a batch, one row per member in input order.

    x holds the (B, n) positions on the line and hess_eigs the (B, n - 2)
    restricted-Hessian spectra; each other array is (B,) and holds the
    CCResult field of its name.  results() builds the CCResult list.
    """

    orderings: list[Ordering]
    x: np.ndarray
    sigma: np.ndarray
    residual: np.ndarray
    index: np.ndarray
    hess_eigs: np.ndarray
    inertia_I0: float
    newton_iters: np.ndarray
    backtracks: np.ndarray
    fallbacks: np.ndarray
    residual_floor: np.ndarray

    def results(self, stop: int | None = None) -> list[CCResult]:
        """The CCResult of every member, or of the members before stop."""
        planar = lift_to_plane(self.x[:stop, :, None])
        scalars = (self.sigma, self.residual, self.index, self.newton_iters, self.backtracks,
                   self.fallbacks, self.residual_floor)
        rows = zip(self.orderings, planar, self.hess_eigs, *(a[:stop].tolist() for a in scalars))
        return [CCResult(Configuration(r), "collinear", s, res, k, e, self.inertia_I0, o,
                         newton_iters=it, backtracks=bt, fallbacks=fb, residual_floor=fl)
                for o, r, e, s, res, k, it, bt, fb, fl in rows]


@dataclass(frozen=True)
class SimultaneousReport:
    """Residuals of the two-multiplier (simultaneous) CC equations."""

    sigma1: float
    sigma2: float
    residual_W: float
    residual_V: float

    @property
    def max_residual(self) -> float:
        """The larger residual; NaN when either is NaN."""
        return float(np.maximum(self.residual_W, self.residual_V))


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


def cc_residual(config, ms, pp: PotentialParams, terms: PairTerms | None = None):
    """Multiplier sigma and sup-norm residual of dU = sigma dI at config.

    A (B, n, d) batch with (B, n) masses gives two (B,)
    arrays.  terms, the pair kernel's values at config when the caller
    already has them, spare a second pass.
    """
    r = config.positions if isinstance(config, Configuration) else np.asarray(config, float)
    m = _mass_array(ms)
    w, v, gw, gv = (pair_terms(r, ms, pp) if terms is None else terms)[:4]
    inertia = (m[..., None] * r * r).sum(axis=(-2, -1))
    sigma = -(pp.a * w + pp.b * v) / (2.0 * inertia)
    grad_i = 2.0 * m[..., None] * r
    if r.ndim == 2:
        return float(sigma), float(np.abs(gw + gv - sigma * grad_i).max())
    return sigma, np.abs(gw + gv - sigma[:, None, None] * grad_i).max(axis=(-2, -1))


def simultaneous_residual(
    config, ms: MassSystem, pp: PotentialParams, terms: PairTerms | None = None
) -> SimultaneousReport:
    """Residuals of the term-by-term CC equations (both terms active); terms as in cc_residual."""
    if pp.alpha == 0.0 or pp.beta == 0.0:
        raise DegenerateTermError("simultaneous test needs alpha > 0 and beta > 0")
    r = config.positions if isinstance(config, Configuration) else np.asarray(config, float)
    w, v, gw, gv = (pair_terms(r, ms, pp) if terms is None else terms)[:4]
    inertia = moment_of_inertia(r, ms)
    sigma1 = -pp.a * w / (2.0 * inertia)
    sigma2 = -pp.b * v / (2.0 * inertia)
    grad_i = 2.0 * ms.masses[:, None] * r
    res_w = float(np.abs(gw - sigma1 * grad_i).max())
    res_v = float(np.abs(gv - sigma2 * grad_i).max())
    return SimultaneousReport(sigma1, sigma2, res_w, res_v)


def _metric_null_basis(constraints: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Orthonormal basis, in the diag(weights) metric, of ker(constraints).

    A stack of constraint matrices gives a stack of bases; every member
    must have the same rank.
    """
    _, svals, vt = np.linalg.svd(constraints)
    tol = max(constraints.shape[-2:]) * np.finfo(float).eps * svals[..., :1]
    ranks = (svals > tol).sum(axis=-1)
    rank = int(ranks.max(initial=0))
    if ranks.min(initial=rank) != rank:
        raise ValueError("constraint rank differs across the batch")
    q = vt[..., rank:, :].swapaxes(-1, -2)
    gram = q.swapaxes(-1, -2) @ (weights[..., :, None] * q)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(f"tangent-basis Gram matrix has no Cholesky factor: {exc}") from None
    return q @ np.linalg.inv(chol).swapaxes(-1, -2)


def tangent_basis(positions: np.ndarray, ms) -> np.ndarray:
    """Mass-orthonormal basis of the tangent space to the constraint set.

    The constraint set is {center of mass at origin, <r, r> = I0}, whose
    tangent space at r does not depend on I0; the basis is returned as a
    (n*d, K) matrix of flattened displacement fields with K = n*d - d - 1.
    A (B, n, d) batch with (B, n) masses gives a (B, n*d, K) stack.
    """
    r = np.asarray(positions, dtype=float)
    n, d = r.shape[-2:]
    lead = r.shape[:-2]
    m = _mass_array(ms)
    rows = np.zeros(lead + (d + 1, n * d))
    for ax in range(d):
        rows[..., ax, ax::d] = m
    rows[..., d, :] = (m[..., None] * r).reshape(lead + (n * d,))
    return _metric_null_basis(rows, np.repeat(m, d, axis=-1))


def count_modes(eigs: np.ndarray) -> tuple:
    """(index, zero_modes, positive) of a spectrum, read by its real parts.

    Eigenvalues whose real part lies within zero_tol = 1e-8 * max |eig|
    of zero are zero modes; the index counts those with real part below
    -zero_tol, positive those above +zero_tol.  An empty spectrum gives
    (0, 0, 0), and a (B, k) batch of spectra three (B,) arrays.
    """
    re = np.real(eigs)
    zero_tol = _ZERO_TOL_FACTOR * np.abs(eigs).max(axis=-1, initial=0.0, keepdims=True)
    counts = ((re < -zero_tol).sum(axis=-1), (np.abs(re) < zero_tol).sum(axis=-1),
              (re > zero_tol).sum(axis=-1))
    return counts if eigs.ndim > 1 else tuple(map(int, counts))


def _as_line(r: np.ndarray) -> np.ndarray:
    """x-coordinates of a configuration lying on the x-axis."""
    if r.shape[1] == 1:
        return r[:, 0]
    scale = max(float(np.abs(r).max()), 1e-300)
    if float(np.abs(r[:, 1]).max()) > 1e-9 * scale:
        raise ValueError("configuration is not on the x-axis")
    return r[:, 0]


def _restricted_spectrum(
    x: np.ndarray, ms, pp: PotentialParams, inertia_I0: float, terms: PairTerms | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The restricted Hessian at x in its tangent basis and its eigenvalues.

    The matrix is basis^T (Hess U + (a W + b V) / I0) basis, (K, K) with
    (K,) eigenvalues, or (B, K, K) and (B, K) for a batch.  W, V and the
    Hessian come from terms, the kernel's values at x, or one pass.
    """
    basis = tangent_basis(x, ms)
    if terms is None:
        terms = _PairKernel(_mass_array(ms), pp).terms(x, force=False, hess=True)[0]
    correction = (pp.a * terms.W + pp.b * terms.V) / inertia_I0
    a_mat = basis.swapaxes(-1, -2) @ terms.hess @ basis
    a_mat = a_mat + np.multiply.outer(correction, np.eye(basis.shape[-1]))
    try:
        return a_mat, np.linalg.eigvalsh(a_mat)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(f"restricted-Hessian spectrum failed: {exc}") from None


def require_on_sphere(config, ms: MassSystem, inertia_I0: float = 1.0) -> None:
    """Raise NotOnSphereError unless <r, r> is within 1e-9 * I0 of I0."""
    inertia = moment_of_inertia(config, ms)
    if not abs(inertia - inertia_I0) <= _SPHERE_TOL * inertia_I0:
        raise NotOnSphereError(f"<r, r> = {inertia!r}, expected {inertia_I0!r}")


def restricted_hessian(
    config, ms: MassSystem, pp: PotentialParams, ambient: str = "planar", inertia_I0: float = 1.0,
    terms: PairTerms | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hessian of U restricted to the sphere <r, r> = I0, and its eigenvalues.

    The matrix is basis^T (Hess U + (a W + b V) / I0 * M) basis over the
    mass-orthonormal tangent_basis of the centered sphere.  The ambient
    "collinear" works on the line (the configuration must lie on the
    x-axis), "planar" in the plane (an n x 1 shape goes onto the
    x-axis).  terms, the kernel's values with the Hessian at the n x 1 or
    n x 2 configuration of the ambient, spare a pass when given.  Raises
    NotOnSphereError off the sphere (require_on_sphere) and ValueError for
    any other ambient.
    """
    require_on_sphere(config, ms, inertia_I0)
    r = lift_to_plane(config)
    if ambient == "collinear":
        r = _as_line(r)[:, None]
    elif ambient != "planar":
        raise ValueError(f"unknown ambient {ambient!r}")
    return _restricted_spectrum(r, ms, pp, inertia_I0, terms)


def cc_index(
    config, ms: MassSystem, pp: PotentialParams, ambient: str = "planar", inertia_I0: float = 1.0,
    terms: PairTerms | None = None,
) -> IndexReport:
    """Morse data of U restricted to the sphere at a central configuration.

    The index_report of the restricted_hessian eigenvalues; terms, as in
    restricted_hessian, spare a pass.
    """
    return index_report(restricted_hessian(config, ms, pp, ambient, inertia_I0, terms)[1], ambient)


def index_report(eigs: np.ndarray, ambient: str) -> IndexReport:
    """IndexReport of a restricted spectrum, by the signs count_modes reads.

    The planar ambient must show exactly the one rotational zero mode,
    the collinear ambient none; anything else raises DegenerateError (a
    degenerate CC, or a shape that is not central), for the first such
    member of a (B, k) batch, whose report holds (B,) counts.  So does a
    spectrum that the three counts do not cover, such as a non-finite one.
    """
    index, zeros, positive = count_modes(eigs)
    k = np.shape(eigs)[-1]
    uncounted = np.flatnonzero(index + zeros + positive != k)
    if uncounted.size:
        bad = np.reshape(eigs, (-1, k))[uncounted[0]]
        raise DegenerateError(f"{ambient} restricted Hessian spectrum {bad} is not finite "
                              "or sits on the zero band's edge")
    expected_zeros = 1 if ambient == "planar" else 0
    wrong = np.flatnonzero(np.not_equal(zeros, expected_zeros))
    if wrong.size:
        raise DegenerateError(
            f"{ambient} restricted Hessian has {np.ravel(zeros)[wrong[0]]} near-zero eigenvalues, "
            f"expected {expected_zeros}; CC looks degenerate"
        )
    return IndexReport(index=index, eigenvalues=eigs, zero_modes=zeros, ambient=ambient)


def _project_line(x: np.ndarray, m: np.ndarray, inertia_I0: float) -> np.ndarray:
    """Each row of x moved to its center of mass and scaled onto <x, x> = I0."""
    x = x - ((m * x).sum(axis=-1) / m.sum(axis=-1))[..., None]
    return x * np.sqrt(inertia_I0 / (m * x * x).sum(axis=-1))[..., None]


def _stalled(ordering: Ordering, res: float) -> NoConvergenceError:
    return NoConvergenceError(
        f"collinear solve for ordering {ordering.perm} stalled at residual {res:.3e}",
        residual=res,
    )


def _solve_each(a_mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of a stack of systems, and the mask of singular members (left at zero)."""
    try:
        return np.linalg.solve(a_mat, rhs[..., None])[..., 0], np.zeros(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(rhs)
    singular = np.zeros(len(rhs), dtype=bool)
    for k in range(len(rhs)):
        try:
            out[k] = np.linalg.solve(a_mat[k], rhs[k])
        except np.linalg.LinAlgError:
            singular[k] = True
    return out, singular


def _newton_directions(
    x: np.ndarray, m: np.ndarray, pp: PotentialParams, terms: PairTerms, sigma, inertia_I0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton directions of a batch of iterates on the line.

    Each member solves [[H + c M, C^T], [C, 0]] [xi; lambda] = [-r; 0]
    with H = terms.hess, c = (a W + b V) / I0, M = diag(m), C the rows m
    and m x of the center-of-mass and inertia constraints, and r =
    grad U - 2 sigma M x the CC residual: xi is the restricted-Hessian
    Newton step of the tangent space, taken without a tangent basis.
    Where the system is singular or xi does not descend, M in place of
    H + c M gives the gradient step in the tangent space instead.
    Returns the (B, n) directions, the slope r . xi of U along each, and
    the mask of members that fell back to the gradient.
    """
    size, n = x.shape
    body = np.arange(n)
    kkt = np.zeros((size, n + 2, n + 2))
    kkt[:, n, :n] = kkt[:, :n, n] = m
    kkt[:, n + 1, :n] = kkt[:, :n, n + 1] = m * x
    kkt[:, :n, :n] = terms.hess
    kkt[:, body, body] += ((pp.a * terms.W + pp.b * terms.V) / inertia_I0)[:, None] * m
    rhs = np.zeros((size, n + 2))
    rhs[:, :n] = 2.0 * sigma[:, None] * m * x - (terms.grad_W + terms.grad_V)[..., 0]
    step, singular = _solve_each(kkt, rhs)
    # r . xi; the border rows of the right-hand side are zero
    slope = -(rhs * step).sum(axis=-1)
    fallback = singular | (slope >= 0.0)
    if fallback.any():
        k = np.flatnonzero(fallback)
        kkt[k, :n, :n] = 0.0
        kkt[k[:, None], body, body] = m[k]
        step[k] = np.linalg.solve(kkt[k], rhs[k][..., None])[..., 0]
        slope[k] = -(rhs[k] * step[k]).sum(axis=-1)
    return step[:, :n], slope, fallback


def _in_order(x: np.ndarray, e: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Rows of x whose pair differences x @ e (x_i - x_j, exact) have the given signs."""
    return ((x @ e) * sign > 0.0).all(axis=-1)


def _trial_pass(kernel: _PairKernel, r: np.ndarray) -> tuple[PairTerms, np.ndarray]:
    """(terms with the Hessian, collided) of trial steps; a collision is flagged, not raised."""
    return kernel.terms(r, strict=False, hess=True)


def solve_collinear_batch(
    orderings: Sequence[Ordering],
    masses: np.ndarray,
    pp: PotentialParams,
    inertia_I0: float = 1.0,
    grad_tol: float = 1e-12,
    max_iter: int = 200,
) -> CCBatch:
    """Collinear central configurations of orderings[k] with masses[k], in lockstep.

    masses is (B, n), one row of finite positive masses per ordering;
    results() of the returned batch gives one CCResult per member.
    Every member runs the iteration described in solve_collinear_ordering
    step for step, and all of them advance together: members that have
    converged drop out, a trial step that collides or breaks its
    ordering is rejected for its own member only, and one pass of the
    pair kernel over the members still searching evaluates each round of
    trial steps, so an accepted trial already carries W, V, the
    gradients, the force sums and the Hessian of the next iterate.  The
    kernel is bound once and sliced only when members leave or some
    accept before others; a trial keeps its ordering when its pair
    differences keep their signs.  The spectra of the converged members
    read that pass at their last iterate, in one batch.  When members
    fail, the error of the first of them in input order is raised.
    """
    _check_knobs(inertia_I0, grad_tol)
    masses = np.asarray(masses, dtype=float)
    if (masses.ndim != 2 or masses.shape[1] < 2
            or [o.n for o in orderings] != [masses.shape[1]] * len(masses)):
        raise ValueError("masses must be (B, n), n >= 2, one row per ordering of n bodies")
    if not (np.isfinite(masses).all() and (masses > 0.0).all()):
        raise ValueError("masses must be finite and strictly positive")
    size, n = masses.shape
    kernel = _PairKernel(masses, pp)
    # the members still iterating: ids, masses, ordered signs of x_i - x_j, iterates, terms
    ids, m = np.arange(size), masses
    x = np.empty((size, n))
    slots = np.array([o.zero_based for o in orderings], int).reshape(size, n)
    x[ids[:, None], slots] = np.arange(n)
    sign = np.sign(x @ kernel.e)
    x = _project_line(x, m, inertia_I0)  # unit gaps in each ordering
    terms = kernel.terms(x[..., None], hess=True)[0]

    sigma, res, floor, rs = np.zeros(size), np.zeros(size), np.zeros(size), np.full(size, np.inf)
    iters, backtracks, fallbacks = (np.zeros(size, dtype=int) for _ in range(3))
    finished = []  # (ids, x, W, V, Hessian) of the members converged in one round
    stalls: dict[int, NoConvergenceError] = {}

    def keep(stay: np.ndarray) -> None:
        nonlocal ids, m, sign, x, terms, kernel, sig, rs
        ids, m, sign, x, sig, rs = (a[stay] for a in (ids, m, sign, x, sig, rs))
        terms = PairTerms(*(a[stay] for a in terms))
        kernel = kernel.take(stay)

    floor_factor = 8.0 * np.finfo(float).eps
    for it in range(max_iter):
        sig, rs = cc_residual(x[..., None], m, pp, terms)
        scale = np.max(terms.force_sum + np.abs(2.0 * sig[:, None] * m * x), axis=-1)
        tol = np.maximum(grad_tol, floor_factor * scale)
        done = rs <= tol
        if done.any() or not done.size:  # an empty batch is done at once
            # each member still here has accepted a step in every round
            gone = ids[done]
            sigma[gone], res[gone], floor[gone], iters[gone] = sig[done], rs[done], tol[done], it
            if done.all():
                finished.append((ids, x, terms.W, terms.V, terms.hess))
                break
            finished.append((gone, x[done], terms.W[done], terms.V[done], terms.hess[done]))
            keep(~done)

        direction, slope, fallback = _newton_directions(x, m, pp, terms, sig, inertia_I0)
        fallbacks[ids[fallback]] += 1
        u0 = terms.W + terms.V
        # k: the members still searching, whose rows search and kern hold; a slack
        # of a few ulps of U keeps rounding from vetoing the final Newton steps
        k, kern = np.arange(ids.size), kernel
        search = (x, direction, m, sign, u0, 1e-4 * slope, 1e-14 * np.abs(u0))
        for t in 0.5 ** np.arange(47):  # step sizes 1 down to 2^-46, the last above 1e-14
            xs, ds, ms_, sg, u0s, armijo, slack = search
            trial = _project_line(xs + t * ds, ms_, inertia_I0)
            trial_terms, collided = _trial_pass(kern, trial[..., None])
            ok = _in_order(trial, kern.e, sg) & ~collided
            ok &= trial_terms.W + trial_terms.V <= u0s + t * armijo + slack
            if k.size == ids.size and ok.all():
                x, terms = trial, trial_terms
                break
            if ok.any():
                x[k[ok]] = trial[ok]
                for a, new in zip(terms, trial_terms):
                    a[k[ok]] = new[ok]
                k, search, kern = k[~ok], tuple(a[~ok] for a in search), kern.take(~ok)
                if not k.size:
                    break
            backtracks[ids[k]] += 1
        else:
            stalls.update((b, _stalled(orderings[b], r)) for b, r in zip(ids[k], rs[k].tolist()))
            keep(~np.isin(np.arange(ids.size), k))
            if not ids.size:
                break
    else:  # the iteration budget ran out
        stalls.update((b, _stalled(orderings[b], r)) for b, r in zip(ids, rs.tolist()))

    # the members before the first stall have all converged; a degenerate one fails first
    first = min(stalls, default=size)
    if not finished:
        raise stalls[first]
    _, x, w, v, hess = finished[0]  # the members of one round are in input order
    if len(finished) > 1 or stalls:
        ids, *arrays = map(np.concatenate, zip(*finished))
        order = np.argsort(ids)[:first]
        x, w, v, hess = (a[order] for a in arrays)
    eigs = _restricted_spectrum(x[..., None], masses[:first], pp, inertia_I0,
                                PairTerms(w, v, None, None, None, hess))[1]
    index = index_report(eigs, "collinear").index
    if stalls:
        raise stalls[first]
    return CCBatch(list(orderings), x, sigma, res, index, eigs, inertia_I0, iters, backtracks,
                   fallbacks, floor)


def solve_collinear_ordering(ordering: Ordering, q: CCQuery) -> CCResult:
    """The unique collinear central configuration with the given ordering.

    Works on the line through a constrained Newton iteration: each step
    solves one bordered (Lagrange) system in the Hessian of U and the
    center-of-mass and inertia constraints, whose step is the
    restricted-Hessian Newton step of the tangent space.  Armijo
    backtracking on U and a projected-gradient fallback keep it
    descending; the ordering is preserved by rejecting trial steps whose
    gaps are not strictly positive.  Convergence is declared on the
    sup-norm residual of the CC equation; since that residual cannot
    drop below the rounding in the sums that form it, the goal widens to
    a few ulps of max_i (sum_j |f_ij| + |sigma dI/dx_i|) when grad_tol is
    tighter than that.  This is the one-member solve_collinear_batch.
    """
    batch = solve_collinear_batch([ordering], q.ms.masses[None], q.pp, q.inertia_I0, q.grad_tol,
                                  q.max_iter)
    return batch.results()[0]


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


def equilateral_result(
    config: Configuration, ms: MassSystem, pp: PotentialParams, inertia_I0: float = 1.0
) -> CCResult:
    """An equilateral triangle as a CCResult: its CC residual, its planar
    index and, when both terms are active, the multipliers of the
    simultaneous test, all read from one pass of the pair kernel."""
    terms = _PairKernel(ms.masses, pp).terms(config.positions, hess=True)[0]
    sigma, res = cc_residual(config, ms, pp, terms)
    report = cc_index(config, ms, pp, "planar", inertia_I0, terms)
    sim = simultaneous_residual(config, ms, pp, terms) if pp.alpha and pp.beta else None
    return CCResult(
        config=config,
        kind="equilateral",
        sigma=sigma,
        residual=res,
        index=report.index,
        hess_eigs=report.eigenvalues,
        inertia_I0=inertia_I0,
        sigma1=None if sim is None else sim.sigma1,
        sigma2=None if sim is None else sim.sigma2,
    )


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
        cc = equilateral_result(config, q.ms, q.pp, q.inertia_I0)
        if not cc.residual <= max(q.grad_tol, 1e-12) * np.maximum(1.0, abs(cc.sigma)):
            raise NoConvergenceError(
                f"equilateral construction has residual {cc.residual:.3e}", residual=cc.residual
            )
        out.append(cc)
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
    return euler_collinear_batch([ordering], ms.masses[None], exponent, inertia_I0,
                                 grad_tol).results()[0]


def euler_collinear_batch(
    orderings: Sequence[Ordering],
    masses: np.ndarray,
    exponent: float,
    inertia_I0: float = 1.0,
    grad_tol: float = 1e-12,
) -> CCBatch:
    """euler_collinear_homogeneous of orderings[k] with masses[k], as one solve_collinear_batch."""
    if not (np.isfinite(exponent) and exponent > 0.0):
        raise ValueError("exponent must be positive")
    pure = PotentialParams(a=0.0, b=exponent, alpha=0.0, beta=1.0)
    return solve_collinear_batch(orderings, masses, pure, inertia_I0, grad_tol)


def simultaneous_gaps(
    orderings: Sequence[Ordering],
    masses: np.ndarray,
    pp: PotentialParams,
    inertia_I0: float = 1.0,
    grad_tol: float = 1e-13,
) -> np.ndarray:
    """Mass-metric distances between the pure-a and pure-b collinear CCs.

    One gap per member, orderings[k] with the (B, n) masses[k]; it
    vanishes exactly when the ordering admits a simultaneous collinear
    central configuration of U = W + V.  Both exponents must be active
    and positive.  The pure-a and the pure-b configurations are each
    solved as one lockstep batch.
    """
    if pp.alpha == 0.0 or pp.beta == 0.0:
        raise DegenerateTermError("simultaneous gap needs alpha > 0 and beta > 0")
    if pp.a == 0.0:
        raise DegenerateTermError("simultaneous gap needs a > 0; a = 0 has no shape")
    x_w, x_v = (euler_collinear_batch(orderings, masses, e, inertia_I0, grad_tol).x
                for e in (pp.a, pp.b))
    # summed over the planar (n, 2) layout, whose rounding the gaps have always carried
    diff = lift_to_plane((x_v - x_w)[..., None])
    return np.sqrt(np.sum(np.asarray(masses)[..., None] * diff * diff, axis=(-2, -1)))


def simultaneous_gap(
    ms: MassSystem,
    pp: PotentialParams,
    ordering: Ordering,
    inertia_I0: float = 1.0,
    grad_tol: float = 1e-13,
) -> float:
    """The simultaneous_gaps of one ordering and mass system."""
    return float(simultaneous_gaps([ordering], ms.masses[None], pp, inertia_I0, grad_tol)[0])
