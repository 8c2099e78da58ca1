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
bodies in the plane the only non-collinear classes are the two
equilateral orientations, whose side length is fixed by the inertia
constraint alone: a triangle is central only if g(r) = a alpha r^(-a-2)
+ b beta r^(-b-2) takes one value on its three sides, and g is strictly
decreasing.
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
    QHError,
)
from .model import (
    Configuration,
    MassSystem,
    PairTerms,
    PotentialParams,
    _mass_array,
    _PairKernel,
    _positions,
    centered,
    lift_to_plane,
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
        _check_knobs(self.pp, self.inertia_I0, self.grad_tol)


def _check_knobs(pp: PotentialParams, inertia_I0: float, grad_tol: float) -> None:
    if pp.a == 0.0 and pp.beta == 0.0:
        raise ValueError("a = 0 with beta = 0 makes U = alpha sum m_i m_j constant: "
                         "it has no isolated central configuration")
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
    """Positive root of f(r) = 2 sigma r^(b+2) + a m r^(b-a) + b m.

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
    r = _positions(config)
    m = _mass_array(ms)
    t = pair_terms(r, ms, pp) if terms is None else terms
    inertia = (m[..., None] * r * r).sum(axis=(-2, -1))
    sigma = -(pp.a * t.W + pp.b * t.V) / (2.0 * inertia)
    grad_i = 2.0 * m[..., None] * r
    if r.ndim == 2:
        return float(sigma), float(np.abs(t.grad_W + t.grad_V - sigma * grad_i).max())
    return sigma, np.abs(t.grad_W + t.grad_V - sigma[:, None, None] * grad_i).max(axis=(-2, -1))


def simultaneous_residual(
    config, ms: MassSystem, pp: PotentialParams, terms: PairTerms | None = None
) -> SimultaneousReport:
    """Residuals of the term-by-term CC equations; terms as in cc_residual.

    A (B, n, d) batch gives a report of (B,) arrays.  A term with
    coefficient 0 vanishes with its gradient, so its multiplier and its
    residual are 0 and the test reads the other term's CC equation.
    """
    r = _positions(config)
    m = _mass_array(ms)
    t = pair_terms(r, ms, pp) if terms is None else terms
    inertia = np.sum(m[..., None] * r * r, axis=(-2, -1))
    sigma1 = -pp.a * t.W / (2.0 * inertia)
    sigma2 = -pp.b * t.V / (2.0 * inertia)
    grad_i = 2.0 * m[..., None] * r
    res_w = np.abs(t.grad_W - sigma1[..., None, None] * grad_i).max(axis=(-2, -1))
    res_v = np.abs(t.grad_V - sigma2[..., None, None] * grad_i).max(axis=(-2, -1))
    if r.ndim == 2:
        return SimultaneousReport(float(sigma1), float(sigma2), float(res_w), float(res_v))
    return SimultaneousReport(sigma1, sigma2, res_w, res_v)


def tangent_basis(positions: np.ndarray, ms) -> np.ndarray:
    """Mass-orthonormal basis of the tangent space to the constraint set.

    The constraint set is {center of mass at origin, <r, r> = I0}, whose
    tangent space at r does not depend on I0; the basis is returned as a
    (n*d, K) matrix of flattened displacement fields with K = n*d - d - 1.
    A (B, n, d) batch with (B, n) masses gives a (B, n*d, K) stack.
    In sqrt(M) coordinates, where the mass inner product is the Euclidean
    one, the constraint normals are sqrt(m) along each axis and sqrt(m) r;
    the last K columns of Q in their complete QR are an orthonormal
    complement, which divided by sqrt(m) is the basis.
    """
    r = np.asarray(positions, dtype=float)
    n, d = r.shape[-2:]
    root_m = np.sqrt(_mass_array(ms))[..., None]
    along_axes = np.broadcast_to(root_m[..., None] * np.eye(d), r.shape + (d,))
    normals = np.concatenate([along_axes, (root_m * r)[..., None]], axis=-1)
    q = np.linalg.qr(normals.reshape(r.shape[:-2] + (n * d, d + 1)), mode="complete").Q
    return q[..., d + 1:] / np.repeat(root_m, d, axis=-2)


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


def _restricted_spectrum(
    x: np.ndarray, ms, inertia_I0: float, aw_bv, hess: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The restricted Hessian at x in its tangent basis and its eigenvalues.

    The matrix is basis^T (hess + aw_bv / I0) basis, (K, K) with (K,)
    eigenvalues, or (B, K, K) and (B, K) for a batch, from a W + b V and
    the Hessian of U at x.
    """
    basis = tangent_basis(x, ms)
    shift = np.multiply.outer(aw_bv / inertia_I0, np.eye(basis.shape[-1]))
    a_mat = basis.swapaxes(-1, -2) @ hess @ basis + shift
    try:
        return a_mat, np.linalg.eigvalsh(a_mat)
    except np.linalg.LinAlgError as exc:
        raise DegenerateError(f"restricted-Hessian spectrum failed: {exc}") from None


def require_on_sphere(config, ms: MassSystem, inertia_I0: float = 1.0) -> None:
    """Raise NotOnSphereError unless <r, r> is within 1e-9 * I0 of I0.

    A (B, n, d) batch raises for its first member off the sphere.
    """
    r = _positions(config)
    inertia = np.sum(_mass_array(ms)[..., None] * r * r, axis=(-2, -1))
    off = np.flatnonzero(~(np.abs(inertia - inertia_I0) <= _SPHERE_TOL * inertia_I0))
    if off.size:
        raise NotOnSphereError(f"<r, r> = {np.ravel(inertia)[off[0]].item()!r}, "
                               f"expected {inertia_I0!r}")


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
    n x 2 configuration of the ambient, spare a pass when given.  A
    (B, n, d) batch of configurations gives (B, K, K) and (B, K).  Raises
    NotOnSphereError off the sphere (require_on_sphere), ValueError off
    the x-axis in the collinear ambient and for any other ambient.
    """
    require_on_sphere(config, ms, inertia_I0)
    r = lift_to_plane(config)
    if ambient == "collinear":
        scale = np.maximum(np.abs(r).max(axis=(-2, -1)), 1e-300)
        if np.any(np.abs(r[..., 1]).max(axis=-1) > 1e-9 * scale):
            raise ValueError("configuration is not on the x-axis")
        r = r[..., :1]
    elif ambient != "planar":
        raise ValueError(f"unknown ambient {ambient!r}")
    if terms is None:
        terms = _PairKernel(ms.masses, pp).terms(r, force=False, hess=True)[0]
    return _restricted_spectrum(r, ms, inertia_I0, pp.a * terms.W + pp.b * terms.V, terms.hess)


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


def _project_line(x: np.ndarray, m: np.ndarray, mass_sum: np.ndarray, inertia_I0: float):
    """Each row of x moved to its center of mass and scaled onto <x, x> = I0.

    mass_sum is m summed over its last axis, kept as a column.
    """
    x = x - np.add.reduce(m * x, axis=-1, keepdims=True) / mass_sum
    return x * np.sqrt(inertia_I0 / np.add.reduce(m * x * x, axis=-1, keepdims=True))


def _stalled(ordering: Ordering, res: float, goal: float) -> NoConvergenceError:
    return NoConvergenceError(
        f"collinear solve for ordering {ordering.perm} stalled at residual {res:.3e} "
        f"above its goal {goal:.3e}",
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


def _border(m: np.ndarray) -> np.ndarray:
    """(B, n + 2, n + 2) zeros bordered by the center-of-mass row and column m."""
    size, n = m.shape
    border = np.zeros((size, n + 2, n + 2))
    border[:, n, :n] = border[:, :n, n] = m
    return border


def _newton_directions(
    border: np.ndarray, mx: np.ndarray, hess: np.ndarray, shift: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton directions of a batch of iterates x on the line.

    Each member solves [[H + c M, C^T], [C, 0]] [xi; lambda] = rhs with
    H = hess, c M = diag(shift), c = (a W + b V) / I0, M = diag(m), C the
    rows m and mx = m x of the center-of-mass and inertia constraints
    (border, from _border(m), holds the first), and rhs = [-r; 0] with r =
    grad U - 2 sigma M x the CC residual: xi is the restricted-Hessian
    Newton step of the tangent space, taken without a tangent basis.
    Where the system is singular or xi does not descend, M in place of
    H + c M gives the gradient step in the tangent space instead.
    Returns the (B, n) directions, the slope r . xi of U along each, and
    the mask of members that fell back to the gradient.
    """
    size, n = mx.shape
    kkt = border.copy()
    kkt[:, :n, :n] = hess
    kkt[:, n + 1, :n] = kkt[:, :n, n + 1] = mx
    diagonal = kkt.reshape(size, (n + 2) ** 2)[:, :n * (n + 3):n + 3]  # a view of H + c M's
    diagonal += shift
    step, singular = _solve_each(kkt, rhs)
    # r . xi; the border rows of the right-hand side are zero
    slope = -np.add.reduce(rhs * step, axis=-1)
    fallback = singular | (slope >= 0.0)
    if fallback.any():
        k = np.flatnonzero(fallback)
        kkt[k, :n, :n] = 0.0
        diagonal[k] = border[k, n, :n]
        try:
            step[k] = np.linalg.solve(kkt[k], rhs[k][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise DegenerateError(f"gradient-step system of the collinear Newton step "
                                  f"is singular: {exc}") from None
        slope[k] = -np.add.reduce(rhs[k] * step[k], axis=-1)
    return step[:, :n], slope, fallback


def _in_order(x: np.ndarray, e: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Rows of x whose pair differences x @ e (x_i - x_j, exact) have the given signs."""
    return np.logical_and.reduce((x @ e) * sign > 0.0, axis=-1)


def _line_start(kernel: _PairKernel, m: np.ndarray, mass_sum: np.ndarray, slots: np.ndarray,
                inertia_I0: float) -> tuple[np.ndarray, np.ndarray, PairTerms]:
    """First iterates of the collinear solve, the signs of their pair differences
    and their PairTerms with the Hessian.

    Row k of slots lists the bodies of member k from left to right.  The
    tension of gap k, the net pair force on the bodies left of it, is
    C_k = sum_{j<=k} dU/dx_j in line order (the left block's internal
    forces cancel), and at a CC it equals R_k = sum_{j<=k} sigma dI/dx_j.
    A gap of width g between masses m_k, m_{k+1} carries about
    m_k m_{k+1} / g^(e+1), e = b (a when beta = 0), so (1) gives each gap
    the width that balances R_k at centered equal gaps p, g_k = (m_k
    m_{k+1} / -sum_{j<=k} m_j p_j)^(1/(e+1)), and (2) scales each gap by
    (C_k / R_k)^(1/(e+1)) read from one light pass of the kernel (no
    Hessian, no force sums), each followed by the projection onto the
    centered sphere.  Every step is per row, so a member starts where its
    one-member batch does.  A member whose start is not finite, out of
    order or collided starts from equal gaps instead, where a collision
    raises CollisionError from a strict pass.
    """
    size, n = slots.shape
    flat, steps = slots + n * np.arange(size)[:, None], np.arange(float(n))
    pp = kernel.pp
    inv = 1.0 / ((pp.b if pp.beta else pp.a) + 1.0)
    ml = m.take(flat)  # the masses in line order
    neg = -ml

    def place(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The iterates whose line-order gaps are gaps, centered and on the
        sphere, in line order and in body order."""
        line = np.zeros((size, n))
        np.add.accumulate(gaps, axis=-1, out=line[:, 1:])
        line = _project_line(line, ml, mass_sum, inertia_I0)
        x = np.empty((size, n))
        x.put(flat, line)
        return line, x

    with np.errstate(all="ignore"):  # a start out of the float domain falls back below
        # -sum_{j<=k} m_j p_j stands for R_k at equal gaps
        p = steps - np.add.reduce(ml * steps, axis=-1, keepdims=True) / mass_sum
        line, x = place((ml[:, :-1] * ml[:, 1:] / np.add.accumulate(neg * p, axis=-1)[:, :-1]) ** inv)
        t, collided = kernel.terms(x, force=False, strict=False)
        # C_k / R_k, with R_k read as -sum_{j<=k} m_j x_j: the factor -2 sigma
        # is common to every gap, and the projection removes it
        ratio = (np.add.accumulate((t.grad_W + t.grad_V).take(flat), axis=-1)[:, :-1]
                 / np.add.accumulate(neg * line, axis=-1)[:, :-1])
        gaps = (line[:, 1:] - line[:, :-1]) * ratio ** inv
        x = place(gaps)[1]
        ok = np.logical_and.reduce(gaps > 0.0, axis=-1) & ~collided
        ok &= np.logical_and.reduce(np.isfinite(x), axis=-1)

    equal = np.empty((size, n))
    equal.put(flat, steps)
    sign = np.sign(equal @ kernel.e)

    def fall_back(rows: np.ndarray) -> None:
        x[rows] = _project_line(equal[rows], m[rows], mass_sum[rows], inertia_I0)

    if not ok.all():
        fall_back(~ok)
    terms, clash = kernel.terms(x, strict=False, hess=True)
    if clash.any():
        fall_back(clash)
        terms = kernel.terms(x, hess=True)[0]
    return x, sign, terms


def _trial_pass(kernel: _PairKernel, x: np.ndarray) -> tuple[PairTerms, np.ndarray]:
    """(PairTerms with the Hessian, collided) of trial steps x; a collision is flagged,
    not raised."""
    return kernel.terms(x, strict=False, hess=True)


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
    Every member starts from tension-balanced gaps (_line_start: a closed
    form, then one balance step on a light pass of the kernel) and runs
    the iteration described in solve_collinear_ordering step for step.
    All arithmetic is per row, so a member's results are bit for bit
    those of its one-member batch.  The members advance together:
    members that have converged drop out, a trial step that collides or
    breaks its ordering is rejected for its own member only, and one pass of the
    pair kernel over the members still searching evaluates each round of
    trial steps, so an accepted trial already carries the PairTerms of
    the next iterate, Hessian included.  The iterates are (B, n) lines,
    so each pass is the kernel's line case.  The kernel is bound once
    and sliced only when members leave or some accept before others; a
    trial keeps its ordering when its pair differences keep their signs.
    A member's row of the batch is written once it has converged or stalled,
    and the spectra of the converged members read their last pass, in
    one batch.  When members fail, the error of the first of them in
    input order is raised.
    """
    _check_knobs(pp, inertia_I0, grad_tol)
    masses = np.asarray(masses, dtype=float)
    if (masses.ndim != 2 or masses.shape[1] < 2
            or [o.n for o in orderings] != [masses.shape[1]] * len(masses)):
        raise ValueError("masses must be (B, n), n >= 2, one row per ordering of n bodies")
    if not (np.isfinite(masses).all() and (masses > 0.0).all()):
        raise ValueError("masses must be finite and strictly positive")
    size, n = masses.shape
    kernel = _PairKernel(masses, pp)
    # the members still iterating, one row each: ids, masses, their sums and the
    # bordered systems' mass rows, the ordered signs of x_i - x_j, the iterates with
    # their PairTerms, and the last residuals and goals
    ids, m, mass_sum = np.arange(size), masses, masses.sum(axis=-1, keepdims=True)
    border = _border(m)
    slots = np.array([o.perm for o in orderings], int).reshape(size, n) - 1
    x, sign, terms = _line_start(kernel, m, mass_sum, slots, inertia_I0)
    rs, tol = np.full(size, np.inf), np.full(size, grad_tol)

    # one row per member, written when it converges: its x, the a W + b V and
    # Hessian its spectrum reads, and its counters; stalled, res and floor once it has stalled
    out_x, out_aw_bv, out_h = np.empty((size, n)), np.empty(size), np.empty((size, n, n))
    sigma, res, floor = np.zeros(size), np.zeros(size), np.zeros(size)
    iters, backtracks, fallbacks = (np.zeros(size, dtype=int) for _ in range(3))
    stalled = np.zeros(size, dtype=bool)

    def keep(stay: np.ndarray, *more: np.ndarray) -> list[np.ndarray]:
        """Keep the members in stay; returns the rows in stay of more."""
        nonlocal ids, m, mass_sum, border, sign, x, terms, rs, tol, kernel
        ids, m, mass_sum, border, sign, x, rs, tol = (
            a[stay] for a in (ids, m, mass_sum, border, sign, x, rs, tol))
        terms = terms._make(a[stay] for a in terms)
        kernel = kernel.take(stay)
        return [a[stay] for a in more]

    floor_factor = 8.0 * np.finfo(float).eps
    for it in range(max_iter):
        # sigma = -(a W + b V) / (2 I) and the residual r = grad U - sigma dI/dx, dI/dx
        # = 2 m x, whose sup norm has the goal grad_tol or the rounding floor above
        # it: a few ulps of the largest sum that forms r, plus max_i sum_j |H_ij|
        # ulp(x_j), what storing x in floats alone can move r by.  A Hessian that
        # is not a number bounds nothing: its floor is infinite, and the spectrum
        # that reads that Hessian reports the failure
        mx = m * x
        aw_bv = pp.a * terms.W + pp.b * terms.V
        two_sig = aw_bv / -np.add.reduce(mx * x, axis=-1)
        sig_di = two_sig[:, None] * mx
        r = terms.grad_W + terms.grad_V - sig_di
        rs = np.maximum.reduce(np.abs(r), axis=-1)
        sums = floor_factor * np.maximum.reduce(terms.force_sum + np.abs(sig_di), axis=-1)
        moved = np.maximum.reduce(
            np.vecdot(np.abs(terms.hess), np.spacing(np.abs(x))[:, None, :]), axis=-1)
        tol = np.maximum(grad_tol, np.where(moved >= 0.0, sums + moved, np.inf))
        done = rs <= tol
        if done.any() or not done.size:  # an empty batch is done at once
            # each member still here has accepted a step in every round
            gone = ids[done]
            sigma[gone], res[gone], floor[gone], iters[gone] = (
                0.5 * two_sig[done], rs[done], tol[done], it)
            out_x[gone], out_aw_bv[gone], out_h[gone] = x[done], aw_bv[done], terms.hess[done]
            if done.all():
                break
            mx, aw_bv, r = keep(~done, mx, aw_bv, r)

        rhs = np.zeros((ids.size, n + 2))
        np.negative(r, out=rhs[:, :n])
        direction, slope, fallback = _newton_directions(
            border, mx, terms.hess, (aw_bv / inertia_I0)[:, None] * m, rhs)
        if fallback.any():
            fallbacks[ids[fallback]] += 1
        u0 = terms.W + terms.V
        # k: the members still searching, whose rows search and kern hold; a slack
        # of a few ulps of U keeps rounding from vetoing the final Newton steps
        k, kern, t = np.arange(ids.size), kernel, 1.0
        search = (x, direction, m, mass_sum, sign, u0, 1e-4 * slope, 1e-14 * np.abs(u0))
        for _ in range(47):  # step sizes 1 down to 2^-46, the last above 1e-14
            xs, ds, ms_, msum, sg, u0s, armijo, slack = search
            trial = _project_line(xs + t * ds, ms_, msum, inertia_I0)
            trial_terms, collided = _trial_pass(kern, trial)
            ok = _in_order(trial, kern.e, sg) & ~collided
            ok &= trial_terms.W + trial_terms.V <= u0s + t * armijo + slack
            if k.size == ids.size and ok.all():
                x, terms = trial, trial_terms
                break
            if ok.any():
                rows = k[ok]
                x[rows] = trial[ok]
                for a, new in zip(terms, trial_terms):
                    a[rows] = new[ok]
                k, search, kern = k[~ok], tuple(a[~ok] for a in search), kern.take(~ok)
                if not k.size:
                    break
            backtracks[ids[k]] += 1
            t *= 0.5
        else:
            stalled[ids[k]], res[ids[k]], floor[ids[k]] = True, rs[k], tol[k]
            keep(~np.isin(np.arange(ids.size), k))
            if not ids.size:
                break
    else:  # the iteration budget ran out
        stalled[ids], res[ids], floor[ids] = True, rs, tol

    # the members before the first stall have all converged; a degenerate one fails first
    first = stalled.argmax() if stalled.any() else size
    eigs = _restricted_spectrum(out_x[:first, :, None], masses[:first], inertia_I0,
                                out_aw_bv[:first], out_h[:first])[1]
    index = index_report(eigs, "collinear").index
    if first < size:
        raise _stalled(orderings[first], float(res[first]), float(floor[first]))
    return CCBatch(list(orderings), out_x, sigma, res, index, eigs, inertia_I0, iters, backtracks,
                   fallbacks, floor)


def solve_collinear_ordering(ordering: Ordering, q: CCQuery) -> CCResult:
    """The unique collinear central configuration with the given ordering.

    Works on the line through a constrained Newton iteration: each step
    solves one bordered (Lagrange) system in the Hessian of U and the
    center-of-mass and inertia constraints, whose step is the
    restricted-Hessian Newton step of the tangent space.  Armijo
    backtracking on U and a projected-gradient fallback keep it
    descending; the ordering is preserved by rejecting trial steps whose
    gaps are not strictly positive.  The first iterate has
    tension-balanced gaps: each gap is sized so that the net pair force
    across it matches what sigma dI/dx asks of the bodies on its left,
    first in closed form from nearest neighbours at equal gaps, then by
    one balance step read from a light kernel pass (equal gaps where
    that start fails).  Convergence is declared on the sup-norm residual
    of the CC equation; since that residual cannot drop below the
    rounding in the sums that form it, nor below what storing x in floats
    moves it by, the goal widens to the floor 8 eps max_i (sum_j |f_ij| +
    |sigma dI/dx_i|) + max_i sum_j |H_ij| ulp(x_j), H the Hessian of U at
    the iterate, when grad_tol is tighter; the goal met is reported as
    residual_floor.  This is the one-member solve_collinear_batch.
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


def equilateral_results(
    configs: Sequence[Configuration], ms: MassSystem, pp: PotentialParams, inertia_I0: float = 1.0
) -> list[CCResult]:
    """Equilateral triangles as CCResults, in order: each one's CC residual,
    planar index and, when both terms are active, the multipliers of the
    simultaneous test, all read from one pass of the pair kernel over the
    (B, 3, 2) stack of the triangles."""
    r = np.stack([config.positions for config in configs])
    terms = _PairKernel(ms.masses, pp).terms(r, hess=True)[0]
    sigma, res = cc_residual(r, ms, pp, terms)
    report = cc_index(r, ms, pp, "planar", inertia_I0, terms)
    sim = simultaneous_residual(r, ms, pp, terms) if pp.alpha and pp.beta else None
    multipliers = ([(None, None)] * len(r) if sim is None
                   else zip(sim.sigma1.tolist(), sim.sigma2.tolist()))
    rows = zip(configs, sigma.tolist(), res.tolist(), report.index.tolist(), report.eigenvalues,
               multipliers)
    return [CCResult(config=c, kind="equilateral", sigma=s, residual=e, index=k, hess_eigs=eigs,
                     inertia_I0=inertia_I0, sigma1=s1, sigma2=s2)
            for c, s, e, k, eigs, (s1, s2) in rows]


def equilateral_cc(q: CCQuery) -> tuple[CCResult, CCResult]:
    """The two equilateral central configurations for three bodies.

    The equilateral triangle is a central configuration of each term
    alone, so these are simultaneous central configurations for any
    masses, exponents 0 <= a < b and coefficients; the sigma1 and sigma2
    records are filled when both terms are active.  Both triangles are
    one equilateral_results batch.
    """
    if q.ms.n != 3:
        raise ValueError("equilateral_cc needs exactly three bodies")
    plus, minus = equilateral_results(equilateral_configuration(q.ms, q.inertia_I0), q.ms, q.pp,
                                      q.inertia_I0)
    for cc in (plus, minus):
        if not cc.residual <= max(q.grad_tol, 1e-12) * np.maximum(1.0, abs(cc.sigma)):
            raise NoConvergenceError(
                f"equilateral construction has residual {cc.residual:.3e}", residual=cc.residual
            )
    return plus, minus


def bisect_sign_change(f, rel_tol: float, error: type[QHError], what: str) -> tuple[float, float]:
    """Bracket (lo, hi) around the point where f, positive near 0, turns negative.

    hi doubles from 1 until f(hi) < 0, for as long as hi is finite;
    bisection from lo = 0 then shrinks the bracket until hi - lo <= rel_tol
    * hi.  When f never turns negative, error(what) is raised.  So it is
    when f overflows first, naming the size hi where it did: the sign
    change then lies where f is not representable.
    """
    hi = 1.0
    while hi < np.inf:
        try:
            if f(hi) < 0.0:
                break
        except OverflowError:
            raise error(f"{what}: f overflowed at size {hi:.3e}") from None
        hi *= 2.0
    else:
        raise error(what)
    lo = 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def f_root(sigma: float, b: float, mtotal: float, a: float = 1.0) -> FRootResult:
    """Unique positive root of f(r) = 2 sigma r^(b+2) + a m r^(b-a) + b m.

    At unit coefficients this is the equilateral side of three bodies of
    total mass m and multiplier sigma.  Needs sigma < 0, 0 <= a < b and
    mtotal > 0: f(r) / r^(b+2) then falls strictly from +inf to 2 sigma.
    Bisection after geometric bracket expansion locates the root to 1e-14
    relative tolerance, and a sign scan over a log-spaced grid around it
    certifies it.
    """
    if not (np.isfinite(b) and 0.0 <= a < b):
        raise ValueError("f_root needs 0 <= a < b")
    if not (np.isfinite(mtotal) and mtotal > 0.0):
        raise ValueError("f_root needs a positive total mass")

    def f(r: float) -> float:
        return 2.0 * sigma * r ** (b + 2.0) + a * mtotal * r ** (b - a) + mtotal * b

    if not (np.isfinite(sigma) and sigma < 0.0):
        raise BracketError(f"no sign change: sigma = {sigma!r} must be negative")
    lo, hi = bisect_sign_change(f, 1e-14, BracketError,
                                "no sign change found during bracket expansion")
    root = 0.5 * (lo + hi)

    grid_lo, grid_hi, points = root * 1e-6, root * 1e6, 241
    # f = m (a r^(b-a) + b) - 2 |sigma| r^(b+2) has the sign of the difference of
    # the two parts' logs, which stays finite where either power overflows
    log_r = np.log(np.geomspace(grid_lo, grid_hi, points))
    log_a = np.log(a) if a > 0.0 else -np.inf  # at a = 0 the power term is absent
    signs = np.sign(np.log(mtotal) + np.logaddexp(log_a + (b - a) * log_r, np.log(b))
                    - np.log(2.0 * -sigma) - (b + 2.0) * log_r)
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
    central configuration of U = W + V.  The gaps read only the
    exponents, solving each term alone at coefficient 1, and need a > 0.
    The pure-a and the pure-b configurations are each solved as one
    lockstep batch.
    """
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
