"""Homothetic orbits: admissibility, the reduced plane, the connection."""

import numpy as np
import pytest

from conftest import random_masses
from qhnbody import homothetic
from qhnbody.central_config import (
    CCQuery,
    Ordering,
    SimultaneousReport,
    equilateral_configuration,
    solve_collinear_ordering,
)
from qhnbody.errors import AdmissibilityError, EnergySignError, ManevOnlyError, NotOnSphereError
from qhnbody.homothetic import (
    _admissible,
    energy_curve_v2,
    heteroclinic_orbit,
    is_homothetic_admissible,
    rho_max_bisection,
)
from qhnbody.integrate import integrate
from qhnbody.mcgehee import (
    McGeheeState,
    mcgehee_field,
    mcgehee_renormalizer,
    pack_mcgehee,
    vector_field,
)
from qhnbody.model import (
    Configuration,
    MassSystem,
    PotentialParams,
    mass_inner,
    potential_terms,
)

MS = MassSystem(np.array([1.0, 2.0, 3.0]))
PP = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=1.0)


def collinear_cc_of_full_potential(ms, pp, ordering=None):
    o = ordering if ordering is not None else Ordering.identity(ms.n)
    return solve_collinear_ordering(o, CCQuery(ms=ms, pp=pp))


# ---------------------------------------------------------------------------
# admissibility


def test_equilateral_is_admissible_for_arbitrary_masses(rng):
    for _ in range(5):
        ms = random_masses(rng, 3)
        config, _ = equilateral_configuration(ms)
        assert is_homothetic_admissible(config, ms, PP) is True


def test_symmetric_collinear_is_admissible():
    ms = MassSystem(np.array([1.0, 2.0, 1.0]))
    cc = collinear_cc_of_full_potential(ms, PP)
    assert is_homothetic_admissible(cc.config, ms, PP) is True


def test_generic_collinear_is_not_admissible():
    cc = collinear_cc_of_full_potential(MS, PP)
    assert is_homothetic_admissible(cc.config, MS, PP) is False


def test_a_nan_is_never_admissible(monkeypatch):
    # a NaN residual or multiplier fails the gate, whichever place it is in
    for report in (SimultaneousReport(-1.0, -1.0, 1e-3, np.nan),
                   SimultaneousReport(-1.0, -1.0, np.nan, 1e-3),
                   SimultaneousReport(-1.0, np.nan, 0.0, 0.0)):
        assert _admissible(report) is False
    config, _ = equilateral_configuration(MS)
    nan_report = SimultaneousReport(-1.0, -1.0, 1e-3, np.nan)
    monkeypatch.setattr(homothetic, "simultaneous_residual", lambda *args: nan_report)
    with pytest.raises(AdmissibilityError, match="residual nan"):
        heteroclinic_orbit(config, MS, PP, -1.0)


def test_admissibility_requires_unit_sphere_shape():
    config, _ = equilateral_configuration(MS)
    with pytest.raises(NotOnSphereError):
        is_homothetic_admissible(Configuration(2.0 * config.positions), MS, PP)


# ---------------------------------------------------------------------------
# the invariant plane


def test_plane_is_invariant_under_the_full_field():
    config, _ = equilateral_configuration(MS)
    s0, b = config.positions, PP.b
    w0, _ = potential_terms(config, MS, PP)
    for rho, v in [(0.3, 0.7), (1.5, -0.2), (0.05, 0.0)]:
        st = McGeheeState(rho=rho, v=v, s=s0, u=np.zeros_like(s0))
        rho_d, v_d, s_d, u_d = vector_field(st, MS, PP)
        assert np.abs(s_d).max() == 0.0
        assert np.abs(u_d).max() < 1e-12
        # the reduced field rho' = rho v, v' = (b - 1) rho^(b-1) W(s0) + b rho^b h
        # reproduces the radial components
        h = (energy_curve_v2(rho, config, MS, PP, 0.0) / 2.0 - v * v / 2.0) / (
            -(rho**b)
        )
        assert abs(rho * v - rho_d) < 1e-12
        assert abs((b - 1.0) * rho ** (b - 1.0) * w0 + b * rho**b * h - v_d) < 1e-10


# ---------------------------------------------------------------------------
# the energy curve and the turning size


def test_energy_curve_starts_at_twice_the_b_term():
    config, _ = equilateral_configuration(MS)
    _, v0 = potential_terms(config, MS, PP)
    assert abs(energy_curve_v2(0.0, config, MS, PP, -1.0) - 2.0 * v0) < 1e-14
    assert abs(energy_curve_v2(1e-12, config, MS, PP, -1.0) - 2.0 * v0) < 1e-9


def test_energy_curve_monotone_for_nonnegative_energy():
    config, _ = equilateral_configuration(MS)
    _, v0 = potential_terms(config, MS, PP)
    for h in (0.0, 1.0):
        grid = np.linspace(0.0, 10.0, 400)
        vals = energy_curve_v2(grid, config, MS, PP, h)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 2.0 * v0 - 1e-12)


def test_rho_max_is_the_unique_zero():
    config, _ = equilateral_configuration(MS)
    for h in (-0.3, -1.0, -4.0):
        rho_max = rho_max_bisection(config, MS, PP, h)
        assert abs(energy_curve_v2(rho_max, config, MS, PP, h)) < 1e-7
        assert energy_curve_v2(0.9 * rho_max, config, MS, PP, h) > 0.0
        assert energy_curve_v2(1.1 * rho_max, config, MS, PP, h) < 0.0
    with pytest.raises(EnergySignError):
        rho_max_bisection(config, MS, PP, 0.0)


def test_deeper_energy_levels_turn_around_earlier():
    config, _ = equilateral_configuration(MS)
    r1 = rho_max_bisection(config, MS, PP, -0.5)
    r2 = rho_max_bisection(config, MS, PP, -2.0)
    assert r2 < r1


# ---------------------------------------------------------------------------
# the ejection-collision connection


def test_heteroclinic_orbit_over_the_equilateral():
    config, _ = equilateral_configuration(MS)
    _, v0 = potential_terms(config, MS, PP)
    orbit = heteroclinic_orbit(config, MS, PP, h=-1.0)
    assert orbit.termination == "event:floor"
    assert orbit.K == v0
    assert orbit.k_drift < 1e-7
    # symmetric legs: the orbit comes back through the floor with -v_start
    assert abs(orbit.vs[-1] + orbit.vs[0]) < 1e-7
    assert abs(orbit.vs[0] - np.sqrt(2.0 * v0)) < 1e-6
    # turning size: event location against bisection on the energy curve
    assert abs(orbit.rho_max_orbit - orbit.rho_max_bisect) < 1e-8
    assert orbit.rhos.max() <= orbit.rho_max_bisect + 1e-8
    assert orbit.rhos[0] == pytest.approx(1e-8, rel=1e-6)
    assert orbit.rhos[-1] == pytest.approx(1e-8, rel=1e-6)


def test_heteroclinic_orbit_guard_rails():
    config, _ = equilateral_configuration(MS)
    cc = collinear_cc_of_full_potential(MS, PP)
    with pytest.raises(AdmissibilityError):
        heteroclinic_orbit(cc.config, MS, PP, h=-1.0)
    with pytest.raises(EnergySignError):
        heteroclinic_orbit(config, MS, PP, h=0.0)
    with pytest.raises(EnergySignError):
        heteroclinic_orbit(config, MS, PP, h=0.5)
    with pytest.raises(ValueError):
        heteroclinic_orbit(config, MS, PP, h=-1.0, rho_floor=0.0)
    with pytest.raises(ValueError):
        heteroclinic_orbit(config, MS, PP, h=-1.0, rho_floor=1.5)


def test_the_reduction_refuses_a_other_than_one():
    # the reduced field and energy curve are those of a = 1; at a = 0.5 they
    # would trace the a = 1 orbit, with a turning size the energy relation denies
    config, _ = equilateral_configuration(MS)
    pp = PotentialParams(a=0.5, b=3.0, alpha=1.0, beta=1.0)
    with pytest.raises(ManevOnlyError):
        heteroclinic_orbit(config, MS, pp, h=-1.0)
    with pytest.raises(ManevOnlyError):
        energy_curve_v2(0.5, config, MS, pp, h=-1.0)
    with pytest.raises(ManevOnlyError):
        rho_max_bisection(config, MS, pp, h=-1.0)


def test_an_off_sphere_shape_raises_the_sphere_error():
    config, _ = equilateral_configuration(MS)
    with pytest.raises(NotOnSphereError, match="1.21"):
        heteroclinic_orbit(Configuration(1.1 * config.positions), MS, PP, h=-1.0)


# ---------------------------------------------------------------------------
# converse: over a non-simultaneous CC the shape cannot stay frozen


def shape_drift_series(s0, ms, pp, samples):
    """Ejection-branch probe: start radial over s0 and watch the shape."""
    _, v0 = potential_terms(Configuration(s0), ms, pp)
    st0 = McGeheeState(
        rho=1e-8, v=np.sqrt(2.0 * v0), s=s0, u=np.zeros_like(s0)
    )
    sz = s0.size
    out = []
    for tau in samples:
        y = integrate(
            mcgehee_field(ms, pp, dim=s0.shape[1]),
            pack_mcgehee(st0),
            (0.0, tau),
            renormalizer=mcgehee_renormalizer(ms, s0.shape[1]),
        ).final_state
        s = y[2 : 2 + sz].reshape(s0.shape)
        out.append(np.sqrt(mass_inner(s - s0, s - s0, ms)))
    return out


def test_shape_departs_over_a_non_simultaneous_cc():
    cc = collinear_cc_of_full_potential(MS, PP)
    x = cc.config.positions
    s0 = x if x.shape[1] == 1 else x[:, :1]
    drift = shape_drift_series(s0, MS, PP, [0.02, 0.12])
    assert drift[0] > 1e-4
    assert drift[1] > drift[0]


def test_shape_frozen_over_a_simultaneous_cc():
    config, _ = equilateral_configuration(MS)
    drift = shape_drift_series(config.positions, MS, PP, [0.02, 0.12])
    assert max(drift) < 1e-8
