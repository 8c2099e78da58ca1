"""Quasihomogeneous n-body potentials and their derivatives.

The potential is a sum of two homogeneous terms,

    U(r) = alpha * sum_{i<j} m_i m_j / |r_i - r_j|**a
         + beta  * sum_{i<j} m_i m_j / |r_i - r_j|**b,

with 0 <= a < b, acting on point masses in one or two dimensions.  The
a-term is called W and the b-term V throughout; a = 1 with beta > 0 is
the Manev-type case used by the collision modules.

Positions and momenta are (n, d) arrays with d in {1, 2}.  All inner
products weighted by the masses use the mass metric
<x, y> = sum_i m_i x_i . y_i, and the moment of inertia about the origin
is I = <r, r>.  The momentum convention is p = M rdot, so the
Hamiltonian reads H = p^T M^{-1} p / 2 - U(r).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CollisionError, ManevOnlyError

# Pairwise distances at or below GUARD_FACTOR * sqrt(I_cm / M) count as a
# collision, with I_cm the moment of inertia about the centre of mass and M
# the total mass; evaluating any potential quantity there raises
# CollisionError.  The size is read from the pair distances, so the guard
# does not move when the configuration is translated.
GUARD_FACTOR = 1e-10
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max


@dataclass(frozen=True, eq=False)
class MassSystem:
    """Masses of the n bodies, n >= 2, all strictly positive."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if m.ndim != 1 or m.size < 2:
            raise ValueError("need a 1-d array of at least two masses")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise ValueError("masses must be finite and strictly positive")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "masses", m)

    @property
    def n(self) -> int:
        return self.masses.size

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class PotentialParams:
    """Exponents and coefficients of the two potential terms.

    Requires 0 <= a < b and alpha, beta >= 0 with at least one of the
    coefficients positive.  alpha scales the a-term, beta the b-term.
    """

    a: float = 1.0
    b: float = 2.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "alpha", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.a < self.b:
            raise ValueError("exponents must satisfy 0 <= a < b")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("coefficients must be nonnegative")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ValueError("at least one coefficient must be positive")

    def require_manev(self) -> None:
        """Raise unless a = 1 and the b-term is active."""
        if self.a != 1.0 or self.beta <= 0.0:
            raise ManevOnlyError(
                f"operation needs a = 1 and beta > 0, got a={self.a}, beta={self.beta}"
            )


@dataclass(frozen=True, eq=False)
class Configuration:
    """Positions of the n bodies as an (n, d) array, d in {1, 2}."""

    positions: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.positions, dtype=float)
        if r.ndim != 2 or r.shape[1] not in (1, 2) or r.shape[0] < 2:
            raise ValueError("positions must be (n, d) with n >= 2 and d in {1, 2}")
        if not np.all(np.isfinite(r)):
            raise ValueError("positions must be finite")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "positions", r)


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A point in phase space: configuration plus conjugate momenta."""

    config: Configuration
    momenta: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.momenta, dtype=float)
        if p.shape != self.config.positions.shape:
            raise ValueError("momenta must have the same shape as positions")
        if not np.all(np.isfinite(p)):
            raise ValueError("momenta must be finite")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "momenta", p)


def _positions(config) -> np.ndarray:
    if isinstance(config, Configuration):
        return config.positions
    return np.asarray(config, dtype=float)


def mass_inner(x, y, ms: MassSystem) -> float:
    """Mass-metric inner product sum_i m_i x_i . y_i of two (n, d) arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum(ms.masses[:, None] * x * y))


def moment_of_inertia(config, ms: MassSystem) -> float:
    """I = sum_i m_i |r_i|^2 about the origin."""
    r = _positions(config)
    return float(np.sum(ms.masses[:, None] * r * r))


def center_of_mass(config, ms: MassSystem) -> np.ndarray:
    r = _positions(config)
    return ms.masses @ r / ms.total_mass


def centered(positions, ms: MassSystem) -> np.ndarray:
    """Translate positions so the center of mass sits at the origin."""
    r = np.asarray(positions, dtype=float)
    return r - center_of_mass(r, ms)[None, :]


def lift_to_plane(config) -> np.ndarray:
    """(n, 2) positions of a configuration; an (n, 1) shape goes onto the x-axis.

    A (B, n, d) batch gives (B, n, 2).
    """
    r = _positions(config)
    if r.shape[-1] == 2:
        return r
    return np.concatenate([r, np.zeros_like(r)], axis=-1)


@functools.cache
def _incidence(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (i, j, E, |E|) for the P pairs i < j of n bodies.

    E is the (n, P) signed incidence matrix: column p is +1 at body i and
    -1 at body j of pair p.  E^T r is the pair differences r_i - r_j,
    exactly (one +1 and one -1 per column); E @ x adds the pair value
    x_p to body i and subtracts it from body j, |E| @ x adds it to both.
    """
    i, j = np.triu_indices(n, 1)
    e = np.zeros((n, i.size))
    e[i, np.arange(i.size)] = 1.0
    e[j, np.arange(i.size)] = -1.0
    out = (i, j, e, np.abs(e))
    for a in out:
        a.flags.writeable = False
    return out


def _mass_array(ms) -> np.ndarray:
    """Masses of a MassSystem, or an array of per-member masses as given."""
    return ms.masses if isinstance(ms, MassSystem) else np.asarray(ms, dtype=float)


class PairTerms(NamedTuple):
    """W, V and their gradients, coefficients included, with force_sum[i]
    = sum_j |f_ij| over the total pair forces on body i (the scale of the
    rounding error in either gradient) and hess, the dense Hessian of U.
    The gradients are (n, d), or (n,) on a line; a batch carries a
    leading member axis on every field."""

    W: float | np.ndarray
    V: float | np.ndarray
    grad_W: np.ndarray
    grad_V: np.ndarray
    force_sum: np.ndarray | None
    hess: np.ndarray | None = None


class _PairKernel:
    """The pair kernel of one mass system, bound once from (masses, pp).

    m is (n,) masses, which also serve a (B, n, d) batch of states, or
    (B, n) per-member masses for (B, n, d) batches.
    Bound once: the signed incidence matrix E of the pairs (see
    _incidence), the (..., 2, P) coefficients coef = alpha m_i m_j, beta
    m_i m_j and kc = -exp * coef, the half exponents -(exp + 2) / 2 and
    the Hessian's -(exp + 2), the mass column and the (..., P) size
    weights (m_i / M)(m_j / M).  pairs() guards squared distances d^2
    against the size sqrt(I_cm / M), which by Lagrange's identity is
    sqrt(sum_p weight_p d_p^2): the centre of mass never enters, so the
    guard does not move with the origin.  gradients() makes one power
    call, d^(-exp-2) for both terms, and sums both gradients with one
    small matmul with E; terms() reads W, V, the force sums and the
    Hessian from the same pass.

    A position array of the masses' own shape, (n,) or (B, n), is a line:
    its pair differences are x E, and terms() builds only the line's
    (n, n) Hessian.  A vector field binds one kernel per closure, the
    collinear solver one per batch (take() slices it to some members),
    the rest one per call.
    """

    __slots__ = ("pp", "e", "e_abs", "m_col", "weights", "coef", "kc", "half_exps", "hess_exps")

    def __init__(self, m: np.ndarray, pp: PotentialParams):
        self.pp = pp
        i, j, self.e, self.e_abs = _incidence(m.shape[-1])
        self.m_col = m[..., None]
        mi, mj = m.take(i, axis=-1), m.take(j, axis=-1)
        total = np.add.reduce(m, axis=-1, keepdims=True)
        # two mass fractions sum to at most 1, so each weight is in
        # [0, 1/4] even where m_i m_j or M^2 would overflow
        self.weights = (mi / total) * (mj / total)
        self.coef = np.array([[pp.alpha], [pp.beta]]) * (mi * mj)[..., None, :]
        self.kc = np.array([[-pp.a], [-pp.b]]) * self.coef
        self.half_exps = np.array([[-0.5 * (pp.a + 2.0)], [-0.5 * (pp.b + 2.0)]])
        self.hess_exps = np.array([[-(pp.a + 2.0)], [-(pp.b + 2.0)]])
        # rows kc_w, kc_v, coef_w, coef_v: each finite, and a normal float
        # where its coefficient (and for kc its exponent) is positive
        checked = np.concatenate([self.kc, self.coef], axis=-2)
        on = np.array([[pp.alpha > 0.0 < pp.a], [pp.beta > 0.0], [pp.alpha > 0.0], [pp.beta > 0.0]])
        size = np.abs(checked)
        ok = (size >= _TINY * on) & (size <= _HUGE)
        if not ok.all():
            *member, t, p = np.argwhere(~ok)[0].tolist()
            name, value = ("-a alpha", "-b beta", "alpha", "beta")[t], checked[(*member, t, p)].item()
            where = f" in batch member {member[0]}" if member else ""
            fault = "is zero or subnormal" if math.isfinite(value) else "is not finite"
            raise ValueError(f"{name.split()[-1]} term of pair ({i[p] + 1}, {j[p] + 1}){where}: "
                             f"{name} m_i m_j = {value!r} {fault}")

    def take(self, rows) -> "_PairKernel":
        """The kernel of the batch members in rows, sliced from this one, not rebound."""
        out = _PairKernel.__new__(_PairKernel)
        out.pp, out.e, out.e_abs = self.pp, self.e, self.e_abs
        out.half_exps, out.hess_exps = self.half_exps, self.hess_exps
        out.m_col, out.weights = self.m_col[rows], self.weights[rows]
        out.coef, out.kc = self.coef[rows], self.kc[rows]
        return out

    def pairs(self, r: np.ndarray, strict: bool = True):
        """(diff, d2, collided) of all pairs i < j, with the collision guard.

        r is (n, d) or a (B, n, d) batch, or a line of the masses' shape;
        diff = r_i - r_j, (..., P, d) or on a line (..., P), d2 = |diff|^2,
        and collided flags the members with min d2 <= GUARD_FACTOR^2 I_cm / M.
        strict raises CollisionError for any such member; otherwise its d2
        read 1 so the arithmetic stays finite, and its values mean nothing.
        """
        if r.ndim < self.m_col.ndim:
            diff = r @ self.e
            d2 = diff * diff
        else:
            diff = self.e.T @ r
            d2 = np.add.reduce(diff * diff, axis=-1)
        guard2 = GUARD_FACTOR * GUARD_FACTOR * np.vecdot(self.weights, d2)
        d2min = np.minimum.reduce(d2, axis=-1)
        collided = d2min <= guard2
        if collided.any() if d2.ndim == 2 else collided:
            if strict:
                k = np.flatnonzero(collided)[0]
                where = f" in batch member {k}" if d2.ndim == 2 else ""
                raise CollisionError(
                    f"minimum pairwise distance {np.sqrt(d2min.flat[k]):.3e} at or below "
                    f"guard {np.sqrt(guard2.flat[k]):.3e}{where}"
                )
            d2 = np.where(collided[..., None], 1.0, d2)
        return diff, d2, collided

    def gradients(self, r: np.ndarray, strict: bool = True):
        """(diff, d2, collided, pw, c, grads): pairs() of r, then pw =
        d^(-exp-2) and the gradient coefficients c = kc pw, rows w and v,
        (..., 2, P) each, and grads, the (..., 2, n, d) gradients of W and
        V, (..., 2, n) on a line.
        """
        diff, d2, collided = self.pairs(r, strict)
        pw = d2[..., None, :] ** self.half_exps
        # d/dr_i [coef * d^-exp] = -exp * coef * d^(-exp-2) * (r_i - r_j);
        # body j picks up the opposite sign, the force magnitude the same one.
        c = self.kc * pw
        # E sums c_w diff and c_v diff onto the bodies; a line keeps the
        # (n, P) @ (P, 1) products of d = 1, and so their rounding
        if diff.ndim == d2.ndim:
            return diff, d2, collided, pw, c, (self.e @ (c * diff[..., None, :])[..., None])[..., 0]
        return diff, d2, collided, pw, c, self.e @ (c[..., None] * diff[..., None, :, :])

    def terms(self, r: np.ndarray, force: bool = True, strict: bool = True, hess: bool = False):
        """(PairTerms, collided) of r, summing only what the caller reads.

        W, V and both gradients are always summed, the force sums (the
        only sqrt) only with force, the Hessian (from the gradient
        coefficients) only with hess; terms left out read None.  On a line
        the gradients are (..., n) and the Hessian (..., n, n).
        """
        diff, d2, collided, pw, c, grads = self.gradients(r, strict)
        line = diff.ndim == d2.ndim
        force_sum = h = None
        # coef last: a subnormal coef then rounds once, at the size of W or V
        sums = np.add.reduce(self.coef * (pw * d2[..., None, :]), axis=-1)
        w_sum, v_sum = sums.tolist() if sums.ndim == 1 else (sums[..., 0], sums[..., 1])
        if force or hess:
            c_sum = np.add.reduce(c, axis=-2)
        if force:
            pair_force = np.abs(c_sum) * np.sqrt(d2)
            force_sum = (self.e_abs @ pair_force[..., None])[..., 0]
        if hess:
            # pair p adds e_p e_p^T (x) B_p, B = sum over both terms of
            # k ((exp + 2) / d^2 diff diff^T - 1), k = exp coef d^(-exp-2) = -c,
            # that is B = outer diff diff^T + c_sum with outer = -sum (exp + 2) c / d^2;
            # block entry (a, b) of the Hessian is E diag(B[a, b]) E^T
            outer = np.add.reduce(self.hess_exps * c, axis=-2) / d2
            if line:  # block (0, 0) only
                h = ((outer * diff * diff + c_sum)[..., None, :] * self.e) @ self.e.T
            else:
                n, d = r.shape[-2:]
                diff_t = diff.swapaxes(-1, -2)
                blocks = (outer[..., None, None, :] * diff_t[..., :, None, :]
                          * diff_t[..., None, :, :])
                blocks += c_sum[..., None, None, :] * np.eye(d)[..., None]
                h = (blocks[..., None, :] * self.e) @ self.e.T  # (..., a, b, i, j)
                h = h.swapaxes(-3, -2).swapaxes(-4, -3).swapaxes(-2, -1)  # (..., i, a, j, b)
                h = h.reshape(r.shape[:-2] + (n * d, n * d))
        if line:
            terms = PairTerms(w_sum, v_sum, grads[..., 0, :], grads[..., 1, :], force_sum, h)
        else:
            terms = PairTerms(w_sum, v_sum, grads[..., 0, :, :], grads[..., 1, :, :], force_sum, h)
        return terms, collided


def _float_pass(kernel: _PairKernel, d: int):
    """run(r) -> (W, V, grad_W, grad_V) as Python floats, kernel.terms' values bit for bit.

    r lists the n d coordinates body by body, d = 1 or 2, as do both
    gradients.  Up to three bodies, and four in the plane, it makes one
    numpy call, not about 25: the same power call on the same (2, P)
    shape (libm's pow differs), W and V summed left to right from 0 as
    np.add.reduce does below 8 terms, and each body's gradient +0 plus
    its signed pair terms in pair order, as the matmul with E adds them
    (for n <= 3 at most two, which add with one rounding in any order).
    Four bodies in the plane have three each, and the plane's (n, P) @
    (P, 2) product is a dgemm that adds its K = 6 terms in order: an
    empirical property of the BLAS kernel (0 of 20,000 seeded draws
    differed), not a guarantee.  It is pinned by
    test_the_float_pass_of_four_bodies_in_the_plane_is_the_kernel_pass_bit_for_bit,
    so a failure there on another build reads as a change of BLAS kernel
    (small-matrix or split-K), not a fault of this pass.  Four bodies on
    the line and every n >= 5 run kernel.terms' numpy pass itself: on the
    line the (n, P) @ (P, 1) product is a gemv, whose blocked sum is not
    pair order (it differed in about half of 5,000 seeded draws at n =
    4), and from five bodies numpy sums the P >= 10 pair terms pairwise.
    kernel.terms also takes a configuration within 1e-14
    of the guard or near the float floor (numpy's guard dot product is an
    FMA chain), and from n = 3 a gradient that is not finite (E's zeros
    then multiply inf into NaN).
    """
    n = kernel.m_col.shape[0]

    def numpy_pass(r):
        t = kernel.terms(np.reshape(r, (n, d)), force=False)[0]
        return t.W, t.V, t.grad_W.ravel().tolist(), t.grad_V.ravel().tolist()

    if n > 4 or n == 4 and d == 1:
        return numpy_pass
    # offsets (i d + k, j d + k) of pair p's two bodies on axis k, and p
    pairs = enumerate(zip(*(ends.tolist() for ends in _incidence(n)[:2])))
    cols = [(a * d + k, b * d + k, p) for p, (a, b) in pairs for k in range(d)]
    weights, coefs = kernel.weights.tolist(), list(zip(*kernel.coef.tolist(), *kernel.kc.tolist()))
    near_guard, half_exps = (1.0 + 1e-14) * GUARD_FACTOR * GUARD_FACTOR, kernel.half_exps

    def run(r):
        diff = [r[a] - r[b] for a, b, _ in cols]
        d2 = ([x * x + y * y for x, y in zip(diff[::2], diff[1::2])] if d == 2
              else [x * x for x in diff])
        if min(d2) <= near_guard * sum(map(operator.mul, weights, d2)) + 1e-300:
            return numpy_pass(r)
        pw_w, pw_v = np.power(np.array(d2), half_exps).tolist()
        w, v, c_w, c_v = 0.0, 0.0, [], []
        for (cw, cv, kw, kv), x, y, q in zip(coefs, pw_w, pw_v, d2):
            w, v = w + cw * (x * q), v + cv * (y * q)
            c_w.append(kw * x)
            c_v.append(kv * y)
        g_w, g_v = [0.0] * (n * d), [0.0] * (n * d)
        for (a, b, p), x in zip(cols, diff):
            x_w, x_v = c_w[p] * x, c_v[p] * x
            g_w[a], g_w[b] = g_w[a] + x_w, g_w[b] - x_w
            g_v[a], g_v[b] = g_v[a] + x_v, g_v[b] - x_v
        if n >= 3 and not math.isfinite(sum(g_w) + sum(g_v)):
            return numpy_pass(r)
        return w, v, g_w, g_v

    return run


def pair_terms(config, ms, pp: PotentialParams) -> PairTerms:
    """W, V, their gradients and the per-body force sums in one pass.

    config is one (n, d) configuration, or a (B, n, d) batch with ms one
    MassSystem or a (B, n) array of per-member masses; a batch gives (B,)
    arrays for W and V.  Raises CollisionError if any member collides.
    """
    return _PairKernel(_mass_array(ms), pp).terms(_positions(config))[0]


def potential_terms(config, ms: MassSystem, pp: PotentialParams) -> tuple[float, float]:
    """Evaluate (W, V), the a-term and b-term of U, coefficients included."""
    t = pair_terms(config, ms, pp)
    return t.W, t.V


def potential_V(config, ms: MassSystem, pp: PotentialParams) -> float:
    return pair_terms(config, ms, pp).V


def potential_U(config, ms: MassSystem, pp: PotentialParams) -> float:
    return sum(potential_terms(config, ms, pp))


def grad_W(config, ms: MassSystem, pp: PotentialParams) -> np.ndarray:
    return pair_terms(config, ms, pp).grad_W


def grad_V(config, ms: MassSystem, pp: PotentialParams) -> np.ndarray:
    return pair_terms(config, ms, pp).grad_V


def grad_U(config, ms: MassSystem, pp: PotentialParams) -> np.ndarray:
    """Euclidean gradient dU/dr_i as an (n, d) array."""
    t = pair_terms(config, ms, pp)
    return t.grad_W + t.grad_V


def hess_U_matrix(config, ms, pp: PotentialParams) -> np.ndarray:
    """Dense (n*d, n*d) Hessian of U in row-major body-then-axis layout.

    A (B, n, d) batch with (B, n) masses gives (B, n*d, n*d).
    """
    kernel = _PairKernel(_mass_array(ms), pp)
    return kernel.terms(_positions(config), force=False, hess=True)[0].hess


def energy_series(r: np.ndarray, p: np.ndarray, ms: MassSystem, pp: PotentialParams):
    """H = T - U of (n, d) positions and momenta, or (B,) values of a (B, n, d) batch.

    A batch is one kernel pass over all of its states.
    """
    kinetic = 0.5 * np.sum(p * p / ms.masses[:, None], axis=(-2, -1))
    t = pair_terms(r, ms, pp)
    return kinetic - (t.W + t.V)


def hamiltonian(state: PhaseState, ms: MassSystem, pp: PotentialParams) -> float:
    """H = T - U; constant along solutions of the equations of motion."""
    return float(energy_series(state.config.positions, state.momenta, ms, pp))


def angular_momentum_series(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Scalar angular momentum sum_i r_i x p_i of (..., n, d) positions and momenta.

    Zero for collinear states (d = 1).
    """
    if r.shape[-1] == 1:
        return np.zeros(r.shape[:-2])
    return np.sum(r[..., 0] * p[..., 1] - r[..., 1] * p[..., 0], axis=-1)


def angular_momentum(state: PhaseState, ms: MassSystem) -> float:
    """Scalar angular momentum sum_i r_i x p_i; zero for collinear states."""
    return float(angular_momentum_series(state.config.positions, state.momenta))


def cartesian_field(ms: MassSystem, pp: PotentialParams, dim: int = 2):
    """Right-hand side of the equations of motion in Cartesian variables.

    Returns f(t, y) for the flat state y = [r.ravel(), p.ravel()] with
    rdot = M^{-1} p and pdot = dU/dr (the potential is attractive).  Up to
    three bodies it runs in Python floats (_float_pass), bit for bit.  From
    four a float body measured 1.6-1.9x slower per call (n = 4...7; the
    field does little around the kernel pass), and no faster on four
    bodies in the plane with the float pass, so it keeps a numpy body.
    """
    shape = (2, ms.n, dim)
    kernel = _PairKernel(ms.masses, pp)
    if ms.n <= 3:
        run, sz, m = _float_pass(kernel, dim), ms.n * dim, np.repeat(ms.masses, dim).tolist()

        def field(t, y):
            rp = y.reshape(2 * sz).tolist()
            _, _, g_w, g_v = run(rp[:sz])
            pdot = list(map(operator.add, g_w, g_v))
            return np.array([p / mi for p, mi in zip(rp[sz:], m)] + pdot)

        return field

    def field(t, y):
        rp = y.reshape(shape)
        out = np.empty(shape)
        np.divide(rp[1], kernel.m_col, out=out[0])
        grads = kernel.gradients(rp[0])[-1]
        np.add(grads[0], grads[1], out=out[1])
        return out.reshape(y.size)

    return field


def pack_phase(state: PhaseState) -> np.ndarray:
    """Flatten a phase state to the layout used by cartesian_field."""
    return np.concatenate([state.config.positions.ravel(), state.momenta.ravel()])


def split_phase(y: np.ndarray, n: int, dim: int):
    """Views (r, p) of flat states in the layout of pack_phase, (..., n, dim)
    each, over any leading axes."""
    rp = y.reshape(y.shape[:-1] + (2, n, dim))
    return rp[..., 0, :, :], rp[..., 1, :, :]


def unpack_phase(y: np.ndarray, n: int, dim: int) -> PhaseState:
    """Inverse of pack_phase."""
    r, p = split_phase(y, n, dim)
    return PhaseState(config=Configuration(positions=r), momenta=p)
