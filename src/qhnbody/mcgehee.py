"""Blow-up coordinates near total collision for the Manev-type case.

For a = 1 the change of variables

    rho = <r, r>^(1/2)        s = r / rho
    v = rho^(b/2) (p . s)     u = rho^(b/2) (p - (p . s) M s)

with the time rescaling dtau = rho^(-1 - b/2) dt turns the equations of
motion into a field that extends to rho = 0.  s lives on the unit mass
sphere s^T M s = 1 and u is mass-orthogonal to it, u . s = 0; v is the
scaled radial velocity.  In these variables the energy relation reads

    (u^T M^{-1} u + v^2) / 2 - rho^(b-1) W(s) - V(s) = h rho^b,

so the collision manifold rho = 0 is the set
u^T M^{-1} u + v^2 = 2 V(s), independent of h.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, ZeroSizeError
from .model import (
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    _PairKernel,
    _float_pass,
    grad_V,  # noqa: F401  (re-exported: callers import it from this module)
    mass_inner,
    pair_terms,
    potential_terms,
)


@dataclass(frozen=True, eq=False)
class McGeheeState:
    """A point (rho, v, s, u) of the blown-up phase space."""

    rho: float
    v: float
    s: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if s.ndim != 2 or s.shape[1] not in (1, 2) or s.shape != u.shape:
            raise ValueError("s and u must be matching (n, d) arrays, d in {1, 2}")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(u))):
            raise ValueError("s and u must be finite")
        if not (np.isfinite(self.rho) and np.isfinite(self.v)):
            raise ValueError("rho and v must be finite")
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        s = s.copy()
        u = u.copy()
        s.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def dim(self) -> int:
        return self.s.shape[1]


def to_mcgehee(state: PhaseState, ms: MassSystem, pp: PotentialParams) -> McGeheeState:
    """Blow up a Cartesian phase state; needs a = 1 and rho > 0."""
    pp.require_manev()
    r = state.config.positions
    p = state.momenta
    inertia = mass_inner(r, r, ms)
    if inertia <= 0.0:
        raise ZeroSizeError("configuration has zero size; blow-up undefined")
    rho = float(np.sqrt(inertia))
    s = r / rho
    radial = float(np.sum(p * s))
    scale = rho ** (pp.b / 2.0)
    v = scale * radial
    u = scale * (p - radial * ms.masses[:, None] * s)
    return McGeheeState(rho=rho, v=v, s=s, u=u)


def from_mcgehee(st: McGeheeState, ms: MassSystem, pp: PotentialParams) -> PhaseState:
    """Inverse of to_mcgehee; rejects rho = 0 (the blown-up boundary)."""
    pp.require_manev()
    if st.rho <= 0.0:
        raise ZeroSizeError("rho must be positive to map back to Cartesian variables")
    r = st.rho * st.s
    p = st.rho ** (-pp.b / 2.0) * (st.u + st.v * ms.masses[:, None] * st.s)
    return PhaseState(config=Configuration(r), momenta=p)


def vector_field(st: McGeheeState, ms: MassSystem, pp: PotentialParams):
    """Derivative (rho', v', s', u') of a state in the rescaled time tau:
    mcgehee_field's value, split.  At rho = 0 it is the collision manifold flow."""
    y = mcgehee_field(ms, pp, st.dim)(0.0, pack_mcgehee(st))
    return split_mcgehee(y, st.n, st.dim)


def energy_residual(st: McGeheeState, h: float, ms: MassSystem, pp: PotentialParams) -> float:
    """Defect of the blown-up energy relation at the state."""
    pp.require_manev()
    b = pp.b
    w_s, v_s = potential_terms(st.s, ms, pp)
    u_m_u = float(np.sum(st.u * st.u / ms.masses[:, None]))
    rho_pow = st.rho ** (b - 1.0) if st.rho > 0.0 else 0.0
    return (
        0.5 * (u_m_u + st.v**2)
        - rho_pow * w_s
        - v_s
        - h * st.rho**b
    )


def collision_manifold_residual(st: McGeheeState, ms: MassSystem, pp: PotentialParams) -> float:
    """u^T M^{-1} u + v^2 - 2 V(s); zero on the collision manifold."""
    return float(manifold_residual_series(np.array([st.v]), st.s[None], st.u[None], ms, pp)[0])


def manifold_residual_series(v, s, u, ms: MassSystem, pp: PotentialParams) -> np.ndarray:
    """collision_manifold_residual of a batch: (B,) v with (B, n, d) s and u.

    One kernel pass over all B states.  v^2 is Python's float pow (libm
    pow) value by value, the arithmetic this residual has always used:
    numpy's array square is x * x, which differs from pow(x, 2) in the
    last bit for about one x in a thousand.
    """
    v_s = pair_terms(s, ms, pp).V
    u_m_u = np.sum(u * u / ms.masses[:, None], axis=(-2, -1))
    return u_m_u + np.array([x**2 for x in v.tolist()]) - 2.0 * v_s


# Flat vector layout [rho, v, s.ravel(), u.ravel()] (+ [t] when tracking
# physical time) used with the integrate module.


def pack_mcgehee(st: McGeheeState, t: float | None = None) -> np.ndarray:
    head = [np.array([st.rho, st.v]), st.s.ravel(), st.u.ravel()]
    if t is not None:
        head.append(np.array([t]))
    return np.concatenate(head)


def split_mcgehee(y: np.ndarray, n: int, dim: int = 2):
    """Views (rho, v, s, u) of flat states over any leading axes, with s and u
    (..., n, dim); a trailing t component is ignored."""
    sz = n * dim
    shape = y.shape[:-1] + (n, dim)
    s = y[..., 2 : 2 + sz].reshape(shape)
    u = y[..., 2 + sz : 2 + 2 * sz].reshape(shape)
    return y[..., 0], y[..., 1], s, u


def unpack_mcgehee(y: np.ndarray, n: int, dim: int = 2) -> McGeheeState:
    rho, v, s, u = split_mcgehee(y, n, dim)
    return McGeheeState(rho=float(rho), v=float(v), s=s, u=u)


def mcgehee_field(ms: MassSystem, pp: PotentialParams, dim: int = 2, with_time: bool = False):
    """Flat-vector right-hand side d/dtau for the blown-up system.

    With with_time the state carries a trailing physical-time component
    integrated as dt/dtau = rho^(1 + b/2); a state of another length raises
    ValueError.  One body in Python floats for every n, on _float_pass,
    with u^T M^{-1} u summed as numpy sums an array (_sum): bit for bit
    with the equations composed in numpy.  Per call it takes 0.9-1.1x of a numpy
    body's time at n = 4...7, 1.2x at n = 12 and 1.5x at n = 65 (d = 2).
    """
    pp.require_manev()
    sz = ms.n * dim
    run, b = _float_pass(_PairKernel(ms.masses, pp), dim), pp.b
    m = np.repeat(ms.masses, dim).tolist()  # the mass of each coordinate
    size, t_exp = 2 + 2 * sz + with_time, 1.0 + b / 2.0

    def field(tau, y):
        state = y.reshape(size).tolist()
        rho, v, s, u = state[0], state[1], state[2 : 2 + sz], state[2 + sz : 2 + 2 * sz]
        w_s, v_s, g_w, g_v = run(s)
        u_m_u = _sum([x * x / mi for x, mi in zip(u, m)])
        rho_pow = rho ** (b - 1.0) if rho > 0.0 else 0.0
        k_u, k_s, m_s = (0.5 * b - 1.0) * v, b * v_s, [mi * si for mi, si in zip(m, s)]
        out = [rho * v, 0.5 * b * v * v + u_m_u - rho_pow * w_s - b * v_s]
        out += [x / mi for x, mi in zip(u, m)]
        out += [k_u * x - u_m_u * x_s + rho_pow * (w_s * x_s + gw) + k_s * x_s + gv
                for x, x_s, gw, gv in zip(u, m_s, g_w, g_v)]
        if with_time:
            out.append(rho**t_exp if rho > 0.0 else 0.0)
        return np.array(out)

    return field


def _sum(xs: list) -> float:
    """A list summed as numpy sums a 1-d array of it: from +0 left to right
    below 8 terms (so -0 terms alone sum to +0), pairwise from 8."""
    return functools.reduce(operator.add, xs, 0.0) if len(xs) < 8 else float(np.add.reduce(xs))


def _axis_sums(xs: list, d: int) -> list:
    """Per-axis sums of body-by-body coordinates, as numpy's sum over axis 0 of
    their (n, d) array: on a line one 1-d sum, in the plane each axis from +0
    in body order."""
    if d == 1:
        return [_sum(xs)]
    return [functools.reduce(operator.add, xs[k::d], 0.0) for k in range(d)]


def _renormalized(s: list, u: list, m: list, d: int) -> tuple[list, list]:
    """renormalize_mcgehee on body-by-body coordinate lists; m is the mass of each coordinate."""
    mtot = _sum(m[::d])
    shift = [x / mtot for x in _axis_sums(list(map(operator.mul, m, s)), d)] * (len(s) // d)
    s = list(map(operator.sub, s, shift))
    c2 = _sum([mi * x * x for mi, x in zip(m, s)])
    if not (math.isfinite(c2) and c2 > 0.0):
        raise DegenerateStateError(f"s^T M s = {c2!r}, cannot renormalize")
    root = math.sqrt(c2)
    s = [x / root for x in s]
    shift = [x / mtot for x in _axis_sums(u, d)] * (len(u) // d)
    u = [x - mi * q for x, mi, q in zip(u, m, shift)]
    dot = _sum(list(map(operator.mul, u, s)))
    return s, [x - dot * (mi * y) for x, mi, y in zip(u, m, s)]


def renormalize_mcgehee(s: np.ndarray, u: np.ndarray, masses: np.ndarray):
    """Project (s, u) back onto the unit mass sphere and its tangent space.

    s is recentered (mass-weighted mean removed) and rescaled so
    s^T M s = 1; u has its net sum removed in mass proportion and its
    M s component removed so sum u = 0 and u . s = 0.  The centering
    matters: the zero-momentum submanifold is invariant under the
    blown-up flow but exponentially unstable near its equilibria, so
    rounding errors in the translation modes grow until they swamp long
    integrations unless they are projected away each step.  Idempotent
    up to rounding.  Raises DegenerateStateError when s^T M s is not
    strictly positive and finite.

    s and u are (n, d) and the masses positive.  The body runs in Python
    floats for every n, in the operations and order of the numpy
    composition s - (m s).sum(0) / M, c2 = sum(m s s), s / sqrt(c2),
    u - m u.sum(0) / M, u - sum(u s) m s: the same values and errors bit
    for bit, signed zeros included.  mcgehee_renormalizer runs it on the
    integrator's flat state with no array between, at about half the
    numpy body's time per step at n = 3 and 4 and at most its time up to
    n = 8.  Its list arithmetic grows with n d while a numpy body's cost
    is nearly flat, so past about ten bodies in the plane a step costs
    more than the numpy body's: 1.1x at n = 12, 1.5x at n = 20 and 3.2x
    at n = 65 (d = 2).  qh collision-flow stops at six bodies.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    n, d = s.shape
    m = np.repeat(np.asarray(masses, dtype=float), d).tolist()
    s_out, u_out = _renormalized(s.ravel().tolist(), u.ravel().tolist(), m, d)
    return np.reshape(s_out, (n, d)), np.reshape(u_out, (n, d))


def mcgehee_renormalizer(ms: MassSystem, dim: int = 2):
    """Per-step projection keeping s centered on the sphere, u tangent:
    renormalize_mcgehee's body on the flat state, which it returns anew."""
    sz, m = ms.n * dim, np.repeat(ms.masses, dim).tolist()

    def renorm(y):
        state = y.tolist()
        if len(state) < 2 + 2 * sz:
            raise ValueError(f"a flat blow-up state of {len(state)} values, need {2 + 2 * sz}")
        s, u = _renormalized(state[2 : 2 + sz], state[2 + sz : 2 + 2 * sz], m, dim)
        return np.array(state[:2] + s + u + state[2 + 2 * sz :])

    return renorm
