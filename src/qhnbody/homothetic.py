"""Homothetic orbits over simultaneous central configurations.

When s0 is a simultaneous central configuration of both terms, the
plane {s = s0, u = 0} is invariant under the blown-up flow and the
dynamics reduce to

    rho' = rho v
    v'   = (b - a) rho^(b-a) W(s0) + b rho^b h,

with the conserved quantity K = v^2/2 - rho^(b-a) W(s0) - rho^b h equal
to V(s0) on every orbit that reaches the collision manifold.  When the
rho^b coefficient of v^2/2 is negative, h for a > 0 and h + W(s0) at
a = 0 (W constant), the orbit ejecting from rho = 0 with
v = +sqrt(2 V(s0)) rises to a maximum size rho_max, the unique positive
zero of v^2(rho), and falls back to total collision with
v = -sqrt(2 V(s0)): a heteroclinic connection between the two equilibria
over s0.  Otherwise the size grows without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .central_config import bisect_sign_change, require_on_sphere, simultaneous_residual
from .errors import (
    AdmissibilityError,
    DegenerateTermError,
    EnergySignError,
    NoConvergenceError,
)
from .integrate import Event, Trajectory, float_field, integrate
from .model import (
    Configuration,
    MassSystem,
    PotentialParams,
    pair_terms,
    potential_terms,
)

_ADMISSIBLE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PlaneOrbit:
    """A heteroclinic orbit of the reduced (rho, v) system.

    K is the conserved quantity (equal to V(s0)); k_drift the worst
    defect along the samples.  rho_max_orbit is the turning size located
    by the v = 0 event, rho_max_bisect the same size from bisection on
    the energy curve.
    """

    s0: Configuration
    h: float
    taus: np.ndarray
    rhos: np.ndarray
    vs: np.ndarray
    K: float
    k_drift: float
    rho_max_orbit: float
    rho_max_bisect: float
    termination: str
    trajectory: Trajectory


def _admissible(report, tol: float = _ADMISSIBLE_TOL) -> bool:
    """Whether the residual is within tol of the multipliers' scale; NaN is not."""
    scale = np.max([1.0, abs(report.sigma1), abs(report.sigma2)])
    return bool(report.max_residual <= tol * scale)


def energy_curve_v2(rho, s0: Configuration, ms: MassSystem, pp: PotentialParams,
                    h: float) -> np.ndarray | float:
    """v^2 along the reduced energy level: 2 (rho^(b-a) W + rho^b h + V).

    Vectorized over rho.  At rho = 0 the value is 2 V(s0); the curve has
    a unique positive zero when its rho^b coefficient, h for a > 0 and
    h + W(s0) at a = 0, is negative, and is nondecreasing otherwise.
    """
    require_on_sphere(s0, ms)
    return _v2(rho, *potential_terms(s0, ms, pp), pp, h)


def _v2(rho, w0: float, v0: float, pp: PotentialParams, h: float) -> np.ndarray | float:
    """energy_curve_v2 from W(s0) and V(s0)."""
    rho_arr = np.asarray(rho, dtype=float)
    val = 2.0 * (rho_arr ** (pp.b - pp.a) * w0 + rho_arr**pp.b * h + v0)
    return float(val) if np.isscalar(rho) else val


def rho_max_bisection(
    s0: Configuration, ms: MassSystem, pp: PotentialParams, h: float
) -> float:
    """Unique positive zero of the energy curve; raises EnergySignError where it has none."""
    require_on_sphere(s0, ms)
    return _rho_max(*potential_terms(s0, ms, pp), pp, h)


def _rho_max(w0: float, v0: float, pp: PotentialParams, h: float) -> float:
    """rho_max_bisection from W(s0) and V(s0).  EnergySignError unless the size
    turns: the rho^b coefficient of v^2/2, h for a > 0 and h + W(s0) at a = 0,
    where W is constant, must be negative."""
    bound = -w0 if pp.a == 0.0 else 0.0
    if not h < bound:
        raise EnergySignError(f"the size never turns around: h = {h!r} must be below {bound!r}")
    w_exp, b = pp.b - pp.a, pp.b

    def v2(rho: float) -> float:
        return 2.0 * (rho**w_exp * w0 + rho**b * h + v0)

    lo, hi = bisect_sign_change(v2, 1e-12, NoConvergenceError, "energy curve never became negative")
    return 0.5 * (lo + hi)


def heteroclinic_orbit(
    s0: Configuration,
    ms: MassSystem,
    pp: PotentialParams,
    h: float,
    rho_floor: float = 1e-8,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
) -> PlaneOrbit:
    """The ejection-collision connection over a simultaneous CC.

    s0 must be a central configuration of each active term; with alpha = 0
    that is any central configuration of V.  Starts at rho = rho_floor on
    the ejection branch and integrates the reduced system until the orbit
    falls back through rho_floor.  The turning size is recorded by a
    v = 0 event and cross-checked against bisection on the energy curve.
    An energy level on which the size never turns raises EnergySignError,
    V(s0) = 0 DegenerateTermError, and a rho_floor outside (0, rho_max)
    ValueError.
    """
    # one sphere check and one pair-kernel pass at s0 serve every quantity below
    require_on_sphere(s0, ms)
    terms = pair_terms(s0, ms, pp)
    report = simultaneous_residual(s0, ms, pp, terms)
    if not _admissible(report):
        raise AdmissibilityError(f"shape is not a simultaneous central configuration: "
                                 f"residual {report.max_residual:.3e}")
    w0, v0_pot = terms.W, terms.V
    if not v0_pot > 0.0:
        raise DegenerateTermError(f"V(s0) = {v0_pot!r} gives no ejection speed sqrt(2 V(s0))")
    rho_max = _rho_max(w0, v0_pot, pp, h)
    if not 0.0 < rho_floor < rho_max:
        raise ValueError(f"rho_floor = {rho_floor!r} must lie in (0, rho_max), below the "
                         f"turning size rho_max = {rho_max!r}")
    w_exp, b = pp.b - pp.a, pp.b

    def floats(t, y):
        rho, v = y  # Python floats: numpy scalars pay per operation
        rho_pow = rho**w_exp if rho > 0.0 else 0.0
        return [rho * v, w_exp * rho_pow * w0 + b * rho**b * h]

    field = float_field(floats)  # integrate's states reach floats as lists

    v_start = np.sqrt(_v2(rho_floor, w0, v0_pot, pp, h))
    y0 = np.array([rho_floor, v_start])

    def k_defect(taus, states):
        # libm's pow, as the field's **; every state has rho > 0
        rho, v = states.T
        rho_pow, rho_b = np.float_power(rho, [[w_exp], [b]])
        return 0.5 * v * v - rho_pow * w0 - rho_b * h - v0_pot

    # The run spends ~ln(rho_max/rho_floor)/|v| on each leg; budget that
    # generously against the asymptotic speed sqrt(2 V(s0)).
    tau_max = 400.0 * max(1.0, -np.log(rho_floor)) / np.sqrt(2.0 * v0_pot)
    events = [
        Event("turn", lambda t, y: y[1], terminal=False),
        Event("floor", lambda t, y: y[0] - rho_floor, terminal=True),
    ]
    tr = integrate(
        field,
        y0,
        (0.0, tau_max),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        events=events,
        monitors={"K": k_defect},
    )
    if tr.termination != "event:floor":
        raise NoConvergenceError(
            f"orbit did not return to rho_floor within tau = {float(tau_max)!r} "
            f"({tr.termination})"
        )
    if not tr.events["turn"]:
        raise NoConvergenceError("orbit never reached its turning point")
    rho_turn = float(tr.events["turn"][0][1][0])
    return PlaneOrbit(
        s0=s0,
        h=h,
        taus=tr.times,
        rhos=tr.states[:, 0],
        vs=tr.states[:, 1],
        K=v0_pot,
        k_drift=float(np.abs(tr.conserved_residuals["K"]).max()),
        rho_max_orbit=rho_turn,
        rho_max_bisect=rho_max,
        termination=tr.termination,
        trajectory=tr,
    )
