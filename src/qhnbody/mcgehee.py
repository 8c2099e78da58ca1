"""Blow-up coordinates near total collision, for every 0 <= a < b.

The change of variables

    rho = <r, r>^(1/2)        s = r / rho
    v = rho^(b/2) (p . s)     u = rho^(b/2) (p - (p . s) M s)

with the time rescaling dtau = rho^(-1 - b/2) dt turns the equations of
motion into a field that extends to rho = 0.  s lives on the unit mass
sphere s^T M s = 1 and u is mass-orthogonal to it, u . s = 0; v is the
scaled radial velocity.  In these variables the energy relation reads

    (u^T M^{-1} u + v^2) / 2 - rho^(b-a) W(s) - V(s) = h rho^b,

so the collision manifold rho = 0, where the factor rho^(b-a) vanishes,
is the set u^T M^{-1} u + v^2 = 2 V(s), independent of h and of a.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, ZeroSizeError
from .integrate import float_field
from .model import (
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    _float_pass,
    _kernel,
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
    """Blow up a Cartesian phase state; needs rho > 0."""
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
    b = pp.b
    w_s, v_s = potential_terms(st.s, ms, pp)
    u_m_u = float(np.sum(st.u * st.u / ms.masses[:, None]))
    rho_pow = st.rho ** (b - pp.a) if st.rho > 0.0 else 0.0
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

    One kernel pass over all B states.  v^2 is libm's pow(v, 2), as
    np.float_power forms it, the arithmetic this residual has always used:
    x * x differs from pow(x, 2) in the last bit for about one x in a
    thousand.
    """
    v_s = pair_terms(s, ms, pp).V
    u_m_u = np.sum(u * u / ms.masses[:, None], axis=(-2, -1))
    return u_m_u + np.float_power(v, 2.0) - 2.0 * v_s


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
    ValueError naming both lengths.  The field is float_field of its one body,
    field.floats, (tau, list) -> list, which integrate calls on every state as
    a list: model._float_pass, whose generator writes it beside the Cartesian
    field's body, with the same pair section, at every n.  Per call on a list:
    0.9 us at (2, 1), 2.6 at (3, 2), 4.1 at (4, 2) and 26.4 at (12, 2), where the body
    that summed a W, V pass's terms in this module took 3.5, 5.9, 7.8 and 31.5 us
    (CPython 3.11, numpy 2.4, best of 3 x 2000 calls, nine rounds alternated with it).
    """
    return float_field(_float_pass(_kernel(ms.masses, pp), dim, blown_up=True, with_time=with_time))


def _sum(xs) -> float:
    """xs summed left to right from +0, as builtin sum() no longer does from Python 3.12."""
    return functools.reduce(operator.add, xs, 0.0)


def _renormalized(s: list, u: list, m: list, d: int) -> tuple[list, list]:
    """renormalize_mcgehee on body-by-body coordinate lists; m is the mass of each coordinate."""
    mtot = _sum(m[::d])
    m_s = list(map(operator.mul, m, s))
    shift = [_sum(m_s[k::d]) / mtot for k in range(d)] * (len(s) // d)
    s = list(map(operator.sub, s, shift))
    c2 = _sum([mi * x * x for mi, x in zip(m, s)])
    if not (math.isfinite(c2) and c2 > 0.0):
        raise DegenerateStateError(f"s^T M s = {c2!r}, cannot renormalize")
    root = math.sqrt(c2)
    s = [x / root for x in s]
    shift = [_sum(u[k::d]) / mtot for k in range(d)] * (len(u) // d)
    u = [x - mi * q for x, mi, q in zip(u, m, shift)]
    dot = _sum(map(operator.mul, u, s))
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
    floats for every n, in the operations of the numpy composition
    s - (m s).sum(0) / M, c2 = sum(m s s), s / sqrt(c2), u - m u.sum(0) / M,
    u - sum(u s) m s, with every sum left to right from +0: below 8
    coordinates those values bit for bit, signed zeros included, and from 8,
    where numpy sums pairwise, within n d ulps of the sums' terms.
    mcgehee_renormalizer runs it on the integrator's flat state with no
    array between.
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
