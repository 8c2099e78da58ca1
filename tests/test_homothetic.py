"""Homothetic orbits: admissibility, the reduced plane, the connection."""

import re

import numpy as np
import pytest

from conftest import random_masses
from qhnbody import homothetic
from qhnbody.central_config import (
    CCQuery,
    Ordering,
    SimultaneousReport,
    equilateral_configuration,
    simultaneous_residual,
    solve_collinear_ordering,
)
from qhnbody.errors import (
    AdmissibilityError,
    DegenerateTermError,
    EnergySignError,
    NoConvergenceError,
    NotOnSphereError,
)
from qhnbody.homothetic import (
    _admissible,
    energy_curve_v2,
    heteroclinic_orbit,
    rho_max_bisection,
)
from qhnbody.integrate import Event, integrate
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
        assert _admissible(simultaneous_residual(config, ms, PP)) is True


def test_symmetric_collinear_is_admissible():
    ms = MassSystem(np.array([1.0, 2.0, 1.0]))
    cc = collinear_cc_of_full_potential(ms, PP)
    assert _admissible(simultaneous_residual(cc.config, ms, PP)) is True


def test_generic_collinear_is_not_admissible():
    cc = collinear_cc_of_full_potential(MS, PP)
    assert _admissible(simultaneous_residual(cc.config, MS, PP)) is False


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


# pair coefficients past the float range, which the CLI refuses as a config
# error: the library's own gates still stop each at the quantity it spoils
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_pair_coefficient_past_the_float_range_fails_the_gate_it_reaches():
    # beta m_1 m_2 overflows, which the pair kernel refuses when it is bound
    ms = MassSystem(np.array([1e300, 2.0, 2.0]))
    pp = PotentialParams(a=1.0, b=1.51, alpha=0.5, beta=1e300)
    with pytest.raises(ValueError, match=r"^beta term of pair \(1, 2\): -b beta m_i m_j = -inf"):
        heteroclinic_orbit(equilateral_configuration(ms)[0], ms, pp, -2.0)
    # m_1 m_3 underflows to zero, which the pair kernel refuses when it is bound
    ms = MassSystem(np.array([1e-300, 2.0, 1e-100]))
    pp = PotentialParams(a=1.0, b=21.0, alpha=1e300, beta=1e-300)
    with pytest.raises(ValueError, match=r"^alpha term of pair \(1, 3\): -a alpha m_i m_j = -0\.0 "):
        heteroclinic_orbit(equilateral_configuration(ms)[0], ms, pp, -1e-300)
    # every coefficient is 1e-300, a normal float, but V(s0) underflows to 0
    # on the unit mass sphere and the orbit has no start
    ms = MassSystem(np.array([1e-150, 1e-150, 1e-150]))
    pp = PotentialParams(a=1.0, b=21.0, alpha=1.0, beta=1.0)
    with pytest.raises(DegenerateTermError, match=r"^V\(s0\) = 0\.0 gives no ejection speed"):
        heteroclinic_orbit(equilateral_configuration(ms)[0], ms, pp, -1.0)


# ---------------------------------------------------------------------------
# the invariant plane


def test_the_plane_field_s_float_body_is_its_array_call_bit_for_bit(monkeypatch, rng):
    # the reduced (rho, v) field is made inside heteroclinic_orbit; take it
    # from the integrate call and compare both entries with its formula
    fields = []

    def recording(field_fn, *args, **kwargs):
        fields.append(field_fn)
        return integrate(field_fn, *args, **kwargs)

    monkeypatch.setattr(homothetic, "integrate", recording)
    config, _ = equilateral_configuration(MS)
    heteroclinic_orbit(config, MS, PP, -1.0)
    (field,) = fields
    w0, v0 = potential_terms(config, MS, PP)
    b, h = PP.b, -1.0
    states = [[0.0, 1.5], [0.0, -0.0]] + rng.uniform([0.0, -3.0], [2.0, 3.0], (200, 2)).tolist()
    for rho, v in states:
        given = [rho, v]
        got = field.floats(0.4, given)
        assert given == [rho, v] and all(type(x) is float for x in got)
        rho_pow = rho ** (b - 1.0) if rho > 0.0 else 0.0
        want = np.array([rho * v, (b - 1.0) * rho_pow * w0 + b * rho**b * h])
        assert np.array(got).tobytes() == want.tobytes()
        assert field(0.4, np.array(given)).tobytes() == want.tobytes()


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
    # the floor must lie below the turning size, about 15 here
    rho_max = rho_max_bisection(config, MS, PP, -1.0)
    for rho_floor in (0.0, rho_max, 20.0, np.nan):
        why = (f"^rho_floor = {re.escape(repr(rho_floor))} must lie in \\(0, rho_max\\), below "
               f"the turning size rho_max = {re.escape(repr(rho_max))}$")
        with pytest.raises(ValueError, match=why):
            heteroclinic_orbit(config, MS, PP, h=-1.0, rho_floor=rho_floor)
    assert heteroclinic_orbit(config, MS, PP, h=-1.0, rho_floor=1.5).termination == "event:floor"


@pytest.mark.parametrize("a", [0.5, 1.7])
def test_the_reduced_orbit_is_an_orbit_of_the_full_field_at_any_inner_exponent(a):
    # v' = (b - a) rho^(b-a) W(s0) + b rho^b h is the full blown-up field on
    # the plane s = s0, u = 0: from each accepted point of the reduced orbit
    # the full field reaches the next one.  Step by step, since off its
    # energy level the ejection rest point repels v at the rate b v.
    ms = MassSystem(np.ones(3))
    config, _ = equilateral_configuration(ms)
    s0 = config.positions
    pp = PotentialParams(a=a, b=3.0, alpha=1.0, beta=1.0)
    orbit = heteroclinic_orbit(config, ms, pp, h=-1.0)
    assert orbit.termination == "event:floor"
    assert orbit.k_drift < 1e-9
    assert abs(orbit.rho_max_orbit - orbit.rho_max_bisect) < 1e-6
    field = mcgehee_field(ms, pp)
    for k in range(len(orbit.taus) - 1):
        st = McGeheeState(rho=orbit.rhos[k], v=orbit.vs[k], s=s0, u=np.zeros_like(s0))
        end = integrate(field, pack_mcgehee(st), (orbit.taus[k], orbit.taus[k + 1]),
                        rel_tol=1e-13, abs_tol=1e-15).final_state
        reduced = np.array([orbit.rhos[k + 1], orbit.vs[k + 1]])
        assert np.abs(end[:2] - reduced).max() < 1e-10 * max(1.0, np.abs(reduced).max())
        assert np.abs(end[2:] - pack_mcgehee(st)[2:]).max() < 1e-14


def test_the_size_turns_only_where_the_rho_b_coefficient_is_negative():
    # the rho^b coefficient of v^2/2 is h for a > 0 and h + W(s0) at a = 0, where
    # W is the constant alpha sum m_i m_j: one rule for the orbit and the bisection
    config, _ = equilateral_configuration(MS)
    pp0 = PotentialParams(a=0.0, b=3.0, alpha=1.0, beta=1.0)
    w0, v0 = potential_terms(config, MS, pp0)
    rho = np.array([0.5, 2.0])
    assert np.allclose(energy_curve_v2(rho, config, MS, pp0, -w0), 2.0 * v0, rtol=1e-15)
    assert abs(rho_max_bisection(config, MS, pp0, -w0 - 1.0) ** 3 - v0) < 1e-9 * v0
    orbit = heteroclinic_orbit(config, MS, pp0, h=-w0 - 1.0)
    assert orbit.termination == "event:floor"
    assert abs(orbit.rho_max_orbit - orbit.rho_max_bisect) < 1e-6
    for pp, h, bound in ((pp0, -0.5, -w0), (pp0, -w0, -w0), (PP, 0.0, 0.0), (PP, np.nan, 0.0)):
        why = f"^the size never turns around: h = {h!r} must be below {bound!r}$"
        with pytest.raises(EnergySignError, match=why):
            rho_max_bisection(config, MS, pp, h)
        with pytest.raises(EnergySignError, match=why):
            heteroclinic_orbit(config, MS, pp, h)


@pytest.mark.parametrize("b, size", [(3.0, "8.959e+102"), (1.5, "4.013e+205")])
def test_a_turning_size_out_of_reach_is_no_convergence(b, size):
    # at h = -1e-300 the curve turns negative only near 1e300, where
    # rho^b overflows first: bracket expansion stops there and says so
    ms = MassSystem(np.ones(3))
    config, _ = equilateral_configuration(ms)
    pp = PotentialParams(a=1.0, b=b, alpha=1.0, beta=1.0)
    why = f"energy curve never became negative: f overflowed at size {re.escape(size)}"
    with pytest.raises(NoConvergenceError, match=f"^{why}$"):
        rho_max_bisection(config, ms, pp, h=-1e-300)


def test_a_turning_size_near_the_float_limit_is_found():
    # at b = 1.5 and h = -1e-200 the curve turns near 3e200, about 2^667:
    # bracket expansion doubles for as long as the size is finite
    ms = MassSystem(np.ones(3))
    config, _ = equilateral_configuration(ms)
    pp = PotentialParams(a=1.0, b=1.5, alpha=1.0, beta=1.0)
    rho_max = rho_max_bisection(config, ms, pp, h=-1e-200)
    assert 2.0**400 < rho_max < 1e201
    assert energy_curve_v2(0.999 * rho_max, config, ms, pp, -1e-200) > 0.0
    assert energy_curve_v2(1.001 * rho_max, config, ms, pp, -1e-200) < 0.0


def test_an_orbit_cut_short_of_the_floor_is_no_convergence(monkeypatch):
    # a thousandth of the orbit's tau budget ends it before it falls back
    def short(field, y0, span, **kwargs):
        return integrate(field, y0, (span[0], 1e-3 * span[1]), **kwargs)

    monkeypatch.setattr(homothetic, "integrate", short)
    config, _ = equilateral_configuration(MS)
    with pytest.raises(NoConvergenceError,
                       match=r"did not return to rho_floor .*\(time-budget\)$") as info:
        heteroclinic_orbit(config, MS, PP, h=-1.0)
    # tau is a plain float, not a numpy scalar's repr
    assert "np.float64" not in str(info.value)
    assert re.search(r"within tau = \d+\.\d+ \(", str(info.value))


def test_an_orbit_with_no_turning_event_is_no_convergence(monkeypatch):
    # v falls through 0 before rho can fall back, so only a turn event that
    # never fires lets the orbit reach the floor without a turning point
    def blind(field, y0, span, events, **kwargs):
        events = [Event(ev.name, lambda t, y: 1.0) if ev.name == "turn" else ev for ev in events]
        return integrate(field, y0, span, events=events, **kwargs)

    monkeypatch.setattr(homothetic, "integrate", blind)
    config, _ = equilateral_configuration(MS)
    with pytest.raises(NoConvergenceError, match="^orbit never reached its turning point$"):
        heteroclinic_orbit(config, MS, PP, h=-1.0)


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
