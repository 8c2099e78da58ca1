"""Quasihomogeneous n-body potentials and their derivatives.

The potential is a sum of two homogeneous terms,

    U(r) = alpha * sum_{i<j} m_i m_j / |r_i - r_j|**a
         + beta  * sum_{i<j} m_i m_j / |r_i - r_j|**b,

with 0 <= a < b, acting on point masses in one or two dimensions.  The
a-term is called W and the b-term V throughout; the paper's Manev-type
case is a = 1.

Positions and momenta are (n, d) arrays with d in {1, 2}.  All inner
products weighted by the masses use the mass metric
<x, y> = sum_i m_i x_i . y_i, and the moment of inertia about the origin
is I = <r, r>.  The momentum convention is p = M rdot, so the
Hamiltonian reads H = p^T M^{-1} p / 2 - U(r).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CollisionError
from .integrate import float_field

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


@dataclass(frozen=True, eq=False)
class Configuration:
    """Positions of the n bodies as an (n, d) array, d in {1, 2}."""

    positions: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.positions, dtype=float)
        if r.ndim != 2 or r.shape[1] not in (1, 2) or r.shape[0] < 2:
            raise ValueError("positions must be (n, d) with n >= 2 and d in {1, 2}")
        if not np.isfinite(r).all():
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
    planar = np.zeros(r.shape[:-1] + (2,))
    planar[..., :1] = r
    return planar


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


def _pair_constants(mm: np.ndarray, pp: PotentialParams):
    """_PairKernel's coef, kc, half_exps and hess_exps from the pair mass products mm, (..., P)."""
    coef = np.array([[pp.alpha], [pp.beta]]) * mm[..., None, :]
    exps = np.array([[pp.a + 2.0], [pp.b + 2.0]])
    return coef, np.array([[-pp.a], [-pp.b]]) * coef, -0.5 * exps, -exps


def float_domain_fault(m: np.ndarray, pp: PotentialParams, d2: float | None = None, bound=None):
    """The first value of the pair kernel of (m, pp) outside the normal floats, or None.

    Each value of an active term (alpha > 0 or beta > 0) must be finite and at least the
    smallest normal float, or only finite where it has the exponent 0 as a factor.  The
    values are kc then coef, bound from m, (n,) or (B, n), unless the kernel passes its pair
    products and (coef, kc, half_exps, hess_exps) as bound; at d2, a squared pair distance,
    the "value" coef (pw d2), "gradient coefficient" c = kc pw and "Hessian factor" -(exp +
    2) c / d2, pw = d2^(-(exp + 2) / 2).  The fault is (member, term, pair, quantity, value),
    member None for (n,) masses and the pair counted from 1, searched in that order.  Without
    d2, |coef| = alpha |m_i m_j| (or beta) and |kc| = exp |coef| round monotonically in
    |m_i m_j|, so the smallest and largest product of all members decide, and the ordered
    search runs only where they show a fault.
    """
    if bound is None:
        i, j = _incidence(m.shape[-1])[:2]
        with np.errstate(all="ignore"):  # a value out of range is a fault, not a warning
            products = m.take(i, axis=-1) * m.take(j, axis=-1)
            bound = products, *_pair_constants(products, pp)
    products, coef, kc, half_exps, hess_exps = bound
    if d2 is None:
        size = np.abs(products)
        lo, hi = size.min(initial=math.inf).item(), size.max(initial=0.0).item()
        if all(_TINY <= c * lo and c * hi <= _HUGE
               and (not e or _TINY <= e * (c * lo)) and e * (c * hi) <= _HUGE
               for c, e in ((pp.alpha, pp.a), (pp.beta, pp.b)) if c > 0.0):
            return None
        return _first_fault(m, pp, ("kc", "coef"), (kc, coef))
    with np.errstate(all="ignore"):
        pw = np.float_power(d2, half_exps)
        c = kc * pw
        values = coef * (pw * d2), c, hess_exps * c / d2
    return _first_fault(m, pp, ("value", "gradient coefficient", "Hessian factor"), values)


def _first_fault(m: np.ndarray, pp: PotentialParams, names: tuple, values: tuple):
    """float_domain_fault's ordered search of values, one (..., 2, P) array per quantity in
    names, for the first value outside the normal floats."""
    values = np.concatenate(values, axis=-2)  # rows (quantity, term)
    # the floors of |value| by (quantity, term), 0 where not required
    floors = [[_TINY if coeff > 0.0 and (exp > 0.0 or q in ("coef", "value")) else 0.0]
              for q in names for coeff, exp in ((pp.alpha, pp.a), (pp.beta, pp.b))]
    ok = ((size := np.abs(values)) >= floors) & (size <= _HUGE)
    off = [[pp.alpha == 0.0], [pp.beta == 0.0]] * len(names)  # inactive: 0, or NaN of 0 inf
    if ok.all() or (ok := ok | off).all():
        return None
    shape = (*ok.shape[:-2], len(names), 2, ok.shape[-1])
    *member, t, p, q = np.argwhere(~np.moveaxis(ok.reshape(shape), -3, -1))[0].tolist()
    value = values.reshape(shape)[(*member, q, t, p)].item()
    i, j = _incidence(m.shape[-1])[:2]
    return (*member, None)[0], ("alpha", "beta")[t], (i.item(p) + 1, j.item(p) + 1), names[q], value


def _collision(d2min: float, guard2: float, where: str = "") -> CollisionError:
    """The error of a smallest squared pair distance d2min at or below the squared guard."""
    return CollisionError(f"minimum pairwise distance {math.sqrt(d2min):.3e} at or below "
                          f"guard {math.sqrt(guard2):.3e}{where}")


class _PairKernel:
    """The pair kernel of one mass system, bound once from (masses, pp).

    m is (n,) masses, which also serve a (B, n, d) batch of states, or
    (B, n) per-member masses for (B, n, d) batches.
    Bound once: the signed incidence matrix E of the pairs (see
    _incidence), the (..., 2, P) coefficients coef = alpha m_i m_j, beta
    m_i m_j and kc = -exp * coef, the half exponents -(exp + 2) / 2 and
    the Hessian's -(exp + 2), the mass column and the (..., P) size
    weights (m_i / M)(m_j / M); a fault float_domain_fault finds in coef
    or kc raises ValueError.  pairs() guards squared distances d^2 against the
    size sqrt(I_cm / M), which by Lagrange's identity is sqrt(sum_p
    weight_p d_p^2): the centre of mass never enters, so the guard does
    not move with the origin.  gradients() makes one power
    call, d^(-exp-2) for both terms by np.float_power (libm's pow, as **
    on floats), and sums both gradients with one small matmul with E;
    terms() reads W, V, the force sums and the Hessian from the same pass.

    A position array of the masses' own shape, (n,) or (B, n), is a line:
    its pair differences are x E, and terms() builds only the line's
    (n, n) Hessian.  Every caller binds through _kernel, which binds once
    per process for each mass array and potential and keeps the kernel, so
    its arrays are read-only; take() slices a kernel to some batch members
    without binding.
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
        products = mi * mj
        bound = products, *_pair_constants(products, pp)
        self.coef, self.kc, self.half_exps, self.hess_exps = bound[1:]
        if (fault := float_domain_fault(m, pp, bound=bound)) is not None:
            member, term, pair, quantity, value = fault
            name = f"-{term[0]} {term}" if quantity == "kc" else term  # -a alpha, beta, ...
            where = "" if member is None else f" in batch member {member}"
            what = "is zero or subnormal" if math.isfinite(value) else "is not finite"
            raise ValueError(f"{term} term of pair {pair}{where}: {name} m_i m_j = {value!r} {what}")
        for a in (self.m_col, self.weights, self.coef, self.kc, self.half_exps, self.hess_exps):
            a.setflags(write=False)

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
        if np.count_nonzero(collided):
            if strict:
                k = np.flatnonzero(collided)[0]
                where = f" in batch member {k}" if d2.ndim == 2 else ""
                raise _collision(d2min.flat[k], guard2.flat[k], where)
            d2 = np.where(collided[..., None], 1.0, d2)
        return diff, d2, collided

    def gradients(self, r: np.ndarray, strict: bool = True):
        """(diff, d2, collided, pw, c, grads): pairs() of r, then pw =
        d^(-exp-2) and the gradient coefficients c = kc pw, rows w and v,
        (..., 2, P) each, and grads, the (..., 2, n, d) gradients of W and
        V, (..., 2, n) on a line.
        """
        diff, d2, collided = self.pairs(r, strict)
        pw = np.float_power(d2[..., None, :], self.half_exps)
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


def _kernel(m: np.ndarray, pp: PotentialParams) -> _PairKernel:
    """The _PairKernel of the masses m and pp, bound once per process: a bind is kept by the
    exact bits of m, its shape and (a, b, alpha, beta), for the last _BOUND_KERNELS of them,
    on a read-only copy of m.  A bind that raises is not kept, so it raises at every call."""
    m = np.asarray(m, dtype=float)
    return _bound(m.tobytes(), m.shape, _PP_BITS.pack(pp.a, pp.b, pp.alpha, pp.beta), pp)


_BOUND_KERNELS, _PP_BITS = 16, struct.Struct("4d")


@functools.lru_cache(maxsize=_BOUND_KERNELS)
def _bound(masses: bytes, shape: tuple, bits: bytes, pp: PotentialParams) -> _PairKernel:
    return _PairKernel(np.frombuffer(masses).reshape(shape).copy(), pp)


# the most bodies whose pair terms _float_body writes out in Python floats; above it
# the numpy pass costs less per call
_FLOAT_BODIES = 9


def _float_pass(kernel: _PairKernel, d: int, blown_up: bool = False, with_time: bool = False):
    """run(t, y) -> list, a field's body in Python floats on its flat state y, a list.

    The Cartesian field [p / m, grad_W + grad_V] of y = [r, p], or with blown_up
    mcgehee_field's of y = [rho, v, s, u], with with_time a trailing t in y and
    dt/dtau = rho^(1 + b/2) last in run's value; r and s are the n d coordinates body by
    body and m the mass of each.  One generator, _float_body, writes both: their shared
    pair section, then each field's own tail.  Up to _FLOAT_BODIES bodies the pair terms
    are written out, and their arithmetic defines the values: pair order, each sum left
    to right from +0.  Above it the pair section is one call of the kernel's numpy pass,
    kernel.gradients or (blown up) kernel.terms, which sums in a matmul's order.
    """
    n = kernel.m_col.shape[0]
    pairs = [kernel] if n > _FLOAT_BODIES else np.concatenate(
        [kernel.weights, kernel.coef.ravel(), kernel.kc.ravel(), kernel.half_exps.ravel()]).tolist()
    m, tail = np.repeat(kernel.m_col, d).tolist(), (kernel.pp.a, kernel.pp.b) if blown_up else ()
    return _float_body(n, d, blown_up, with_time)(*pairs, *m, *tail)


@functools.lru_cache(maxsize=16)  # as integrate._float_kernel: a body grows with its shape
def _float_body(n: int, d: int, blown_up: bool = False, with_time: bool = False):
    """make(*pair values, *m, [a, b]) -> run, the body of _float_pass for n bodies in d
    dimensions.  The pair values are, up to _FLOAT_BODIES bodies, *weights, *coef.ravel(),
    *kc.ravel(), hw and hv, the half exponents -(a + 2) / 2 and -(b + 2) / 2, and above it
    the kernel itself; m<c> is coordinate c's mass, and a and b come with blown_up.

    The source depends on (n, d, blown_up, with_time) alone.  run names r<c> the
    coordinates and p<c> the momenta, s and u when blown up.  The pair section written
    out names pair p's values w<p> (size weight), cw<p>, cv<p> (coef) and kw<p>, kv<p>
    (kc), x<p>_<k> its difference on axis k, q<p> its squared distance and pw<p>, pv<p>
    its powers q<p> ** hw, q<p> ** hv, libm's pow as np.float_power's; a pair at or
    inside the guard raises CollisionError, and a power past the float range
    OverflowError.  Either section yields gw<c>, gv<c>, the gradients, and blown up W and
    V.  The blown-up tail keeps mcgehee's order of operations: 0.5 b v v + umu - rw aw
    - b V, umu = u^T M^{-1} u, rw = rho ** (b - a) and rho ** (1 + b / 2) only where
    rho > 0, and m<c> s<c> formed once.  Every sum is written out term by term, never
    left to builtin sum(), which from Python 3.12 is compensated.
    """
    i, j = (ends.tolist() for ends in _incidence(n)[:2])
    pairs, coords, sz = range(len(i)), range(n * d), n * d

    def names(prefix, over=pairs):
        return ", ".join(f"{prefix}{p}" for p in over)

    def from_zero(terms):  # 0.0, then each signed term, left to right
        return " ".join(["0.0", *terms])

    def gradient(t):  # each coordinate's signed pair terms, in pair order
        return [from_zero(f"{'+' if i[p] == c // d else '-'} f{t}{p} * x{p}_{c % d}"
                          for p in pairs if c // d in (i[p], j[p])) for c in coords]

    if n <= _FLOAT_BODIES:
        params = f"{names('w')}, {names('cw')}, {names('cv')}, {names('kw')}, {names('kv')}, hw, hv"
        q_min = f"min({names('q')})" if len(i) > 1 else "q0"
        pair_section = [
            *(f"x{p}_{k} = r{i[p] * d + k} - r{j[p] * d + k}" for p in pairs for k in range(d)),
            *(f"q{p} = " + " + ".join(f"x{p}_{k} * x{p}_{k}" for k in range(d)) for p in pairs),
            f"q_min = {q_min}",
            f"guard = G2 * ({from_zero(f'+ w{p} * q{p}' for p in pairs)})",
            "if q_min <= guard:",
            "    raise collision(q_min, guard)",
            f"{', '.join(f'pw{p}, pv{p}' for p in pairs)} = "
            f"{', '.join(f'q{p} ** hw, q{p} ** hv' for p in pairs)}",
            *([f"W = {from_zero(f'+ cw{p} * (pw{p} * q{p})' for p in pairs)}",
               f"V = {from_zero(f'+ cv{p} * (pv{p} * q{p})' for p in pairs)}"] * blown_up),
            *(f"f{t}{p} = k{t}{p} * p{t}{p}" for p in pairs for t in "wv"),
            *(f"g{t}{c} = {sum_c}" for t in "wv" for c, sum_c in zip(coords, gradient(t)))]
    else:  # one call of the kernel's numpy pass on the coordinates
        params, at = "kernel", f"array(y[{2 * blown_up}:{2 * blown_up + sz}]).reshape({n}, {d})"
        pair_section = [
            f"W, V, grad_W, grad_V = kernel.terms({at}, force=False)[0][:4]",
            f"{names('gw', coords)}, = grad_W.ravel().tolist()",
            f"{names('gv', coords)}, = grad_V.ravel().tolist()",
        ] if blown_up else [
            f"{names('gw', coords)}, {names('gv', coords)}, = "
            f"kernel.gradients({at})[-1].ravel().tolist()"]
    state = f"{names('r', coords)}, {names('p', coords)}"
    velocities = ", ".join(f"p{c} / m{c}" for c in coords)
    if blown_up:
        size = 2 + 2 * sz + with_time
        head = [f"if len(y) != {size}:",
                f"    raise ValueError(f'a flat blow-up state of {{len(y)}} values, need {size}')",
                f"rho, v, {state}{', _' * with_time} = y"]
        u_dot = ", ".join(f"ku * p{c} - umu * mr{c} + rw * (aw * mr{c} + gw{c}) + ks * mr{c}"
                          f" + gv{c}" for c in coords)
        tail = ["aw = a * W",
                f"umu = {from_zero(f'+ p{c} * p{c} / m{c}' for c in coords)}",
                "rw = rho ** w_exp if rho > 0.0 else 0.0",
                "ku, ks = ku_c * v, b * V",
                *(f"mr{c} = m{c} * r{c}" for c in coords),
                f"return [rho * v, hb * v * v + umu - rw * aw - ks, {velocities}, {u_dot}"
                f"{', rho ** t_exp if rho > 0.0 else 0.0' * with_time}]"]
    else:
        head = [f"{state} = y"]
        tail = [f"return [{velocities}, {', '.join(f'gw{c} + gv{c}' for c in coords)}]"]
    lines = [
        f"def make({params}, {names('m', coords)}{', a, b' * blown_up}):",
        *(["    hb, ku_c, w_exp, t_exp = 0.5 * b, 0.5 * b - 1.0, b - a, 1.0 + b / 2.0"] * blown_up),
        "    def run(t, y):",
        *("        " + line for line in head + pair_section + tail),
        "    return run",
    ]
    # run's module is this one
    scope = {"G2": GUARD_FACTOR * GUARD_FACTOR, "collision": _collision, "array": np.array,
             "__name__": __name__}
    name = f"<float {'blown-up' if blown_up else 'cartesian'} field n={n} d={d}>"
    exec(compile("\n".join(lines), name, "exec"), scope)
    return scope["make"]


def pair_terms(config, ms, pp: PotentialParams) -> PairTerms:
    """W, V, their gradients and the per-body force sums in one pass.

    config is one (n, d) configuration, or a (B, n, d) batch with ms one
    MassSystem or a (B, n) array of per-member masses; a batch gives (B,)
    arrays for W and V.  Raises CollisionError if any member collides.
    """
    return _kernel(_mass_array(ms), pp).terms(_positions(config))[0]


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
    kernel = _kernel(_mass_array(ms), pp)
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
    rdot = M^{-1} p and pdot = dU/dr (the potential is attractive).  Its
    one body is _float_pass(kernel, dim), f.floats, (t, list) -> list,
    which integrate calls on every state as a list; f(t, y) is that body at
    y's values, made an array (float_field).
    """
    return float_field(_float_pass(_kernel(ms.masses, pp), dim))


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
