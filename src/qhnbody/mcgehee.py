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


def _field_arrays(rho, v, s, u, kernel: _PairKernel, s_out=None, u_out=None):
    """The blown-up equations of motion on raw arrays.

    kernel is the system's bound pair kernel; s_dot and u_dot go into
    s_out and u_out when given.  Valid for rho >= 0; at rho = 0 it
    restricts to the collision manifold flow.  Raises CollisionError
    through the potential guard when s approaches a partial collision.
    """
    b = kernel.pp.b
    m = kernel.m_col
    t = kernel.terms(s, force=False)[0]
    w_s, v_s = t.W, t.V
    u_m_u = float((u * u / m).sum())
    rho_pow = rho ** (b - 1.0) if rho > 0.0 else 0.0
    rho_dot = rho * v
    v_dot = 0.5 * b * v * v + u_m_u - rho_pow * w_s - b * v_s
    s_dot = np.divide(u, m, out=s_out)
    m_s = m * s
    u_dot = np.add(
        (0.5 * b - 1.0) * v * u
        - u_m_u * m_s
        + rho_pow * (w_s * m_s + t.grad_W)
        + b * v_s * m_s,
        t.grad_V,
        out=u_out,
    )
    return rho_dot, v_dot, s_dot, u_dot


def vector_field(st: McGeheeState, ms: MassSystem, pp: PotentialParams):
    """Derivative (rho', v', s', u') of a state in the rescaled time tau."""
    pp.require_manev()
    return _field_arrays(st.rho, st.v, st.s, st.u, _PairKernel(ms.masses, pp))


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
    integrated as dt/dtau = rho^(1 + b/2).  Up to three bodies it runs in
    Python floats (model._float_pass), bit for bit.
    """
    pp.require_manev()
    n = ms.n
    sz = n * dim
    kernel = _PairKernel(ms.masses, pp)
    size = 2 + 2 * sz + with_time
    t_exp = 1.0 + pp.b / 2.0
    if n <= 3:
        run, b, head = _float_pass(kernel, dim), pp.b, 2 + 2 * sz
        m = np.repeat(ms.masses, dim).tolist()  # the mass of each coordinate

        def field(tau, y):
            # _field_arrays in Python floats, operation for operation
            state = y[:head].reshape(head).tolist()
            rho, v, s, u = state[0], state[1], state[2 : 2 + sz], state[2 + sz :]
            w_s, v_s, g_w, g_v = run(s)
            u_m_u = functools.reduce(operator.add, [x * x / mi for x, mi in zip(u, m)], 0.0)
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

    def field(tau, y):
        # rho and v as Python floats: the same arithmetic without numpy's
        # per-operation scalar overhead
        rho = float(y[0])
        su = y[2 : 2 + 2 * sz].reshape(2, n, dim)
        out = np.empty(size)
        su_out = out[2 : 2 + 2 * sz].reshape(2, n, dim)
        out[0], out[1], _, _ = _field_arrays(
            rho, float(y[1]), su[0], su[1], kernel, su_out[0], su_out[1]
        )
        if with_time:
            out[-1] = rho**t_exp if rho > 0.0 else 0.0
        return out

    return field


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
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    m = np.asarray(masses, dtype=float)[:, None]
    mtot = float(m.sum())
    s = s - (m * s).sum(axis=0) / mtot
    c2 = float(np.sum(m * s * s))
    if not np.isfinite(c2) or c2 <= 0.0:
        raise DegenerateStateError(f"s^T M s = {c2!r}, cannot renormalize")
    s_out = s / np.sqrt(c2)
    u = u - m * (u.sum(axis=0) / mtot)
    u_out = u - float(np.sum(u * s_out)) * (m * s_out)
    return s_out, u_out


def mcgehee_renormalizer(ms: MassSystem, dim: int = 2):
    """Per-step projection keeping s centered on the sphere, u tangent."""

    def renorm(y):
        out = y.copy()
        _, _, s, u = split_mcgehee(out, ms.n, dim)
        s[...], u[...] = renormalize_mcgehee(s, u, ms.masses)
        return out

    return renorm
