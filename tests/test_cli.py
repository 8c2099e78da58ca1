"""End-to-end checks of the qh command line.

Each test drives cli.main() in-process with a JSON config written to a
temp directory, then inspects the exit code, the files produced and the
stderr contract of the failure paths: exit 2 for config violations,
exit 3 for runtime failures (which name the error class).
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_kernel_bindings, count_kernel_passes, every_class, fail_linalg
from qhnbody import central_config, cli, homothetic, model
from qhnbody.central_config import (
    Ordering,
    equilateral_configuration,
    equilateral_side,
    solve_collinear_batch,
)
from qhnbody.collision_flow import manifold_start, pure_b_shapes
from qhnbody.errors import StiffnessError
from qhnbody.mcgehee import McGeheeState, from_mcgehee, mcgehee_renormalizer, pack_mcgehee
from qhnbody.model import (
    Configuration,
    MassSystem,
    PhaseState,
    PotentialParams,
    angular_momentum,
    hamiltonian,
    pack_phase,
    potential_V,
)


def write_config(tmp_path, data, name):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run(tmp_path, command, data, subdir="out"):
    cfg = write_config(tmp_path, data, name=f"{subdir}.json")
    out = tmp_path / subdir
    code = cli.main([command, "--config", str(cfg), "--out", str(out)])
    return code, out


def base_config(masses=(1.0, 2.0, 3.0), a=1.0, b=3.0, alpha=1.0, beta=0.5, **extra):
    data = {
        "schema": 1,
        "masses": list(masses),
        "potential": {"a": a, "b": b, "alpha": alpha, "beta": beta},
    }
    data.update(extra)
    return data


def load_json(out_dir, name):
    return json.loads((out_dir / name).read_text())


def load_csv(out_dir, name):
    with open(out_dir / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _text_but(out, name, **echoed):
    """The text of out/name with the value of each echoed key, written once in it, masked."""
    text = (out / name).read_text()
    for key, value in echoed.items():
        field = f'"{key}": {value:.17g}'
        assert text.count(field) == 1
        text = text.replace(field, f'"{key}": ...')
    return text


def count_batches(monkeypatch):
    """The member count of each solve_collinear_batch call, in call order."""
    batches = []
    solve = central_config.solve_collinear_batch

    def counted(orderings, *args):
        batches.append(len(orderings))
        return solve(orderings, *args)

    monkeypatch.setattr(central_config, "solve_collinear_batch", counted)
    return batches


TWO_BODY = {
    "kind": "cartesian",
    "positions": [[0.5, 0.0], [-0.5, 0.0]],
    "momenta": [[0.0, 1.2], [0.0, -1.2]],
}


# ---------------------------------------------------------------------------
# cc-collinear


def test_cc_collinear_reports_every_ordering_class(tmp_path, capsys):
    code, out = run(tmp_path, "cc-collinear", base_config())
    assert code == 0
    doc = load_json(out, "cc_collinear.json")
    assert doc["command"] == "cc-collinear"
    assert doc["schema"] == 1
    assert doc["count"] == 3
    assert doc["max_residual"] < 1e-10
    orderings = {tuple(r["ordering"]) for r in doc["results"]}
    assert len(orderings) == 3
    for rec in doc["results"]:
        assert rec["kind"] == "collinear"
        assert rec["residual"] < 1e-10
        assert min(rec["hessian_eigenvalues"]) > 0.0
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["cc-collinear", "simultaneous", "eigen", "collision-flow"])
def test_more_than_six_bodies_are_rejected(tmp_path, capsys, command):
    # every run over the n!/2 collinear classes; collision-flow's catalog is one
    code, _ = run(tmp_path, command, base_config(masses=[1.0] * 7))
    assert code == 2
    assert capsys.readouterr().err == f"error: {command} supports at most 6 bodies, got 7\n"


def test_eigen_with_its_own_cases_enumerates_nothing_and_takes_seven_bodies(tmp_path):
    data = base_config(masses=[1.0] * 7, options={"cases": [{"ordering": list(range(1, 8))}]})
    code, out = run(tmp_path, "eigen", data)
    assert code == 0
    assert len(load_json(out, "eigen.json")["equilibria"]) == 2


def test_a_mass_draw_census_matches_one_solve_per_draw(tmp_path):
    # draw k is the k-th uniform(lo, hi, n) of one seeded generator; its
    # n!/2 classes, solved in the batch of the config's own masses, match
    # a separate batch of that draw's classes bit for bit
    draws = {"trials": 3, "seed": 7, "lo": 0.2, "hi": 5.0}
    data = base_config(masses=[1.0, 2.0, 3.0, 4.0])
    code, plain = run(tmp_path, "cc-collinear", data, subdir="plain")
    assert code == 0
    code, out = run(tmp_path, "cc-collinear", {**data, "options": {"mass_draws": draws}})
    assert code == 0
    header, rows = load_csv(out, "census.csv")
    assert header == ["trial", "ordering", "sigma", "residual", "min_hess_eig", "index",
                      "m1", "m2", "m3", "m4"]
    assert len(rows) == 3 * 12
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    rng = np.random.default_rng(7)
    expected = []
    for trial in range(3):
        masses = rng.uniform(0.2, 5.0, size=4)
        for ref in solve_collinear_batch(*every_class(MassSystem(masses)), pp).results():
            x = ref.config.positions[:, 0]
            assert np.all(np.diff(x[list(ref.ordering.zero_based)]) > 0.0)
            assert ref.index == 0
            order = int("".join(map(str, ref.ordering.perm)))
            expected.append([trial, order, ref.sigma, ref.residual, ref.hess_eigs.min(),
                             ref.index, *masses])
    assert [[float(v) for v in row] for row in rows] == expected
    doc = load_json(out, "cc_collinear.json")
    census = doc.pop("mass_draws")
    assert census == {**draws, "rows": 36, "max_residual": max(r[3] for r in expected),
                      "minima": 36, "csv": "census.csv"}
    assert doc == load_json(plain, "cc_collinear.json")


@pytest.mark.parametrize(
    "draws, path",
    [
        ({"lo": 2.0, "hi": 2.0}, "options.mass_draws.hi"),
        ({"trials": 0}, "options.mass_draws.trials"),
        ({"seeds": 3}, "options.mass_draws.seeds (did you mean options.mass_draws.seed?)"),
    ],
)
def test_a_bad_mass_draw_request_names_its_key(tmp_path, capsys, draws, path):
    code, out = run(tmp_path, "cc-collinear", base_config(options={"mass_draws": draws}))
    assert code == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# cc-planar3


def test_cc_planar3_certifies_the_equilateral_side(tmp_path):
    data = base_config(alpha=2.0, beta=0.7)
    code, out = run(tmp_path, "cc-planar3", data)
    assert code == 0
    doc = load_json(out, "cc_planar3.json")
    ms = MassSystem(np.array([1.0, 2.0, 3.0]))
    assert doc["side"] == pytest.approx(equilateral_side(ms), rel=1e-12)
    cert = doc["side_certificate"]
    # with unit coefficients the side itself solves the scalar equation
    assert cert["root"] == pytest.approx(doc["side"], rel=1e-10)
    assert cert["sign_changes"] == 1
    assert cert["unit_sigma"] < 0.0
    assert len(doc["results"]) == 2
    for rec in doc["results"]:
        assert rec["kind"] == "equilateral"
        assert rec["residual"] < 1e-10


# at unit coefficients the side L solves 2 sigma L^(b+2) = -M (a L^(b-a) + b) at every
# 0 <= a < b, and the triangle is a CC of either term alone; sigma1 and sigma2 are
# written only when both terms are active
@pytest.mark.parametrize("masses", [(1.0, 2.0, 3.0), (1e-3, 1.0, 1e-3)])
@pytest.mark.parametrize("potential", [{"a": 0.0}, {"a": 0.5}, {"a": 1.7}, {"a": 2.9},
                                       {"alpha": 0.0}, {"beta": 0.0}],
                         ids=["a0", "a0.5", "a1.7", "a2.9", "alpha0", "beta0"])
def test_cc_planar3_certifies_the_side_at_any_inner_exponent(tmp_path, potential, masses):
    code, out = run(tmp_path, "cc-planar3", base_config(masses=masses, **potential))
    assert code == 0
    doc = load_json(out, "cc_planar3.json")
    cert = doc["side_certificate"]
    assert cert["sign_changes"] == 1
    assert abs(cert["root"] - doc["side"]) <= 1e-10 * doc["side"]
    both = doc["potential"]["alpha"] > 0.0 and doc["potential"]["beta"] > 0.0
    assert [("sigma1" in rec, "sigma2" in rec) for rec in doc["results"]] == [(both, both)] * 2


_CONSTANT_U = ("error: a = 0 with beta = 0 makes U = alpha sum m_i m_j constant: "
               "it has no isolated central configuration\n")


def test_cc_planar3_guards_its_preconditions(tmp_path, capsys):
    for bad in (
        base_config(a=0.0, beta=0.0),  # a constant U has no isolated CC
        base_config(masses=[1.0, 2.0]),  # needs three bodies
    ):
        code, _ = run(tmp_path, "cc-planar3", bad, subdir=f"g{id(bad) % 97}")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


# a = 0 with beta = 0 makes U constant, with no isolated CC: it is refused by name
# before any kernel pass, where cc-collinear reported a Hessian spectrum [0.]
@pytest.mark.parametrize("command", ["cc-collinear", "cc-planar3"])
def test_a_constant_potential_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    passes = count_kernel_passes(monkeypatch)
    code, out = run(tmp_path, command, base_config(a=0.0, beta=0.0))
    assert (code, out.exists(), passes) == (2, False, [])
    assert capsys.readouterr().err == _CONSTANT_U


# ---------------------------------------------------------------------------
# simultaneous


# each term is solved alone at coefficient 1, so the bind and the unit sphere
# are gated at alpha = beta = 1: coefficients the gaps do not depend on gate
# nothing, not even alpha m2 m3 = inf or alpha m1 m2 below the normal floats
def test_simultaneous_gates_the_size_at_the_coefficients_it_solves_with(tmp_path):
    texts = []
    cases = ((1.0, 1.0), (1e-300, 1e-300), (0.0, 1.0), (1.0, 0.0), (1e308, 1.0), (1e-308, 1.0))
    for alpha, beta in cases:
        data = base_config(alpha=alpha, beta=beta, inertia_I0=1e10)
        code, out = run(tmp_path, "simultaneous", data, subdir=f"c{alpha}-{beta}")
        assert code == 0
        texts.append(_text_but(out, "simultaneous.json", alpha=alpha, beta=beta))
    assert texts == [texts[0]] * len(cases)


# every kernel value, at bind and on the unit sphere, grows with each mass, so
# the lowest and the highest cell gate the grid; a cell out of range is named,
# before any solve, with the terms at coefficient 1, which the solves use, and
# not with the config's alpha = 0.3.  At (1e-155, 1e-155, 1e10) the unit sphere
# is in range, but the bound coefficient m1 m2 = 1e-310 is not.
@pytest.mark.parametrize("m, m3, cell, cause", [
    ([1e-170, 2e-170], 1.0, "(1e-170, 1e-170, 1.0)", "the alpha term at coefficient 1, which "
     "simultaneous solves, gives pair (1, 2), masses 1e-170 and 1e-170, the kernel coefficient"),
    ([1e-155, 2e-155], 1e10, "(1e-155, 1e-155, 10000000000.0)", "the alpha term at coefficient "
     "1, which simultaneous solves, gives pair (1, 2), masses 1e-155 and 1e-155, the kernel "
     "coefficient"),
    ([1.0, 1e150], 1.0, "(1e+150, 1e+150, 1.0)", "masses of total M = 2e+150 set the unit "
     "sphere's size sqrt(1 / M) = 7.071067811865476e-76, at which pair (1, 2) gives the alpha "
     "term's kernel value inf:")])
def test_simultaneous_gates_the_float_domain_of_its_mass_grid(tmp_path, capsys, m, m3, cell,
                                                              cause):
    data = base_config(alpha=0.3, options={"mass_grid": {"m1": m, "m2": m[::-1], "m3": m3}})
    code, out = run(tmp_path, "simultaneous", data)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: options.mass_grid cell with masses {cell}: {cause} ")
    assert "batch member" not in err and "potential.alpha" not in err
    assert not out.exists()


# the gaps read shapes solved at unit size, so each gap at I0 = 1e10 is sqrt(I0)
# times its gap at I0 = 1 (where an absolute grad_tol read at the size I0 once
# passed unsolved pure-b starts: gap / sqrt(I0) 0.02717 against 0.02694)
def test_simultaneous_gaps_scale_with_the_size(tmp_path):
    gaps = {}
    for i0 in (1.0, 1e10):
        code, out = run(tmp_path, "simultaneous", base_config(beta=1.0, inertia_I0=i0),
                        subdir=f"size{i0}")
        assert code == 0
        gaps[i0] = np.array([r["gap"] for r in load_json(out, "simultaneous.json")["results"]])
    np.testing.assert_allclose(gaps[1e10] / 1e5, gaps[1.0], rtol=1e-12)


def test_simultaneous_detects_the_symmetric_arrangement(tmp_path):
    code, out = run(tmp_path, "simultaneous", base_config(masses=[1.0, 2.0, 1.0]))
    assert code == 0
    doc = load_json(out, "simultaneous.json")
    by_ordering = {tuple(r["ordering"]): r for r in doc["results"]}
    assert len(by_ordering) == 3
    # equal end masses: the collinear CCs of both terms coincide
    sym = by_ordering[(1, 2, 3)]
    assert sym["gap"] < 1e-10
    assert sym["simultaneous"] is True


def test_simultaneous_is_negative_for_generic_masses(tmp_path):
    code, out = run(tmp_path, "simultaneous", base_config())
    assert code == 0
    doc = load_json(out, "simultaneous.json")
    for rec in doc["results"]:
        assert rec["simultaneous"] is False
        assert rec["gap"] > 1e-6


def test_simultaneous_mass_grid_sweep(tmp_path):
    data = base_config(
        masses=[1.0, 1.0, 1.0],
        options={
            "mass_grid": {
                "m1": [0.5, 1.5],
                "m2": [0.5, 1.5],
                "m3": 1.0,
                "points": 5,
            }
        },
    )
    code, out = run(tmp_path, "simultaneous", data)
    assert code == 0
    doc = load_json(out, "simultaneous.json")
    assert doc["mass_grid"]["rows"] == 25
    assert doc["mass_grid"]["csv"] == "simultaneous_grid.csv"
    header, rows = load_csv(out, "simultaneous_grid.csv")
    assert header == ["m1", "m2", "m3", "gap"]
    assert len(rows) == 25
    for m1, m2, m3, gap in ((float(c) for c in row) for row in rows):
        assert m3 == 1.0
        if m1 == m3:  # symmetric arrangement for every middle mass
            assert gap < 1e-8
        if abs(m1 - m3) >= 0.25:
            assert gap > 1e-8


def test_simultaneous_mass_grid_rejects_bad_requests(tmp_path, capsys, monkeypatch):
    # every grid check runs before the batch that solves the grid
    calls = []

    def counting_gaps(members, *args):
        calls.append(members)
        return np.ones(len(members))

    monkeypatch.setattr(cli, "simultaneous_gaps", counting_gaps)
    grid = {"m1": [0.5, 1.5], "m2": [0.5, 1.5]}
    for sub, masses, bad in (
        ("points", [1.0] * 3, {**grid, "points": 1}),
        ("six", [1.0] * 6, grid),
        ("negative", [1.0] * 3, {**grid, "m2": [0.5, -1.5]}),
        ("zero_m3", [1.0] * 3, {**grid, "m3": 0.0}),
        ("short", [1.0] * 3, {**grid, "ordering": [2, 1]}),
        ("perm", [1.0] * 3, {**grid, "ordering": [1, 1, 3]}),
        ("missing", [1.0] * 3, {"m1": [0.5, 1.5]}),
    ):
        data = base_config(masses=masses, options={"mass_grid": bad})
        code, _ = run(tmp_path, "simultaneous", data, subdir=sub)
        assert code == 2, sub
        assert capsys.readouterr().err.startswith("error:")
    assert calls == []
    # a good grid reaches the patched entry point: one batch, every cell
    code, _ = run(tmp_path, "simultaneous", base_config(options={"mass_grid": grid}), "good")
    assert code == 0
    assert [len(members) for members in calls] == [3 + 11 * 11]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_series_and_conserves_energy(tmp_path):
    data = base_config(
        masses=[1.0, 1.0], initial_state=TWO_BODY, options={"t_span": [0.0, 5.0]}
    )
    code, out = run(tmp_path, "simulate", data)
    assert code == 0
    doc = load_json(out, "simulate.json")
    assert doc["termination"] == "time-budget"
    assert doc["t_final"] == 5.0
    assert doc["energy_residual_max"] < 1e-8
    assert doc["angmom_residual_max"] < 1e-8
    header, rows = load_csv(out, "simulate.csv")
    assert header[0] == "t"
    assert header[-2:] == ["energy_residual", "angmom_residual"]
    assert len(rows) == doc["steps"] + 1
    assert np.asarray(doc["final_positions"]).shape == (2, 2)


def test_simulate_continues_from_its_own_csv(tmp_path):
    base = dict(masses=[1.0, 1.0], initial_state=TWO_BODY)
    code, full = run(
        tmp_path, "simulate", base_config(**base, options={"t_span": [0.0, 6.0]}),
        subdir="full",
    )
    assert code == 0
    code, _ = run(
        tmp_path, "simulate", base_config(**base, options={"t_span": [0.0, 5.0]}),
        subdir="leg1",
    )
    assert code == 0
    resumed = base_config(
        masses=[1.0, 1.0],
        initial_state={"kind": "csv", "path": "leg1/simulate.csv", "row": -1},
        options={"t_span": [5.0, 6.0]},
    )
    code, leg2 = run(tmp_path, "simulate", resumed, subdir="leg2")
    assert code == 0
    direct = load_json(full, "simulate.json")
    pieced = load_json(leg2, "simulate.json")
    gap = np.abs(
        np.asarray(direct["final_positions"]) - np.asarray(pieced["final_positions"])
    ).max()
    assert gap < 1e-9


STATE_HEADER = "t,r0x,r0y,r1x,r1y,p0x,p0y,p1x,p1y\n"


# a row shorter than its header, a cell that is not a number, no file, a row
# past the end and a header without the state columns
@pytest.mark.parametrize(
    "text, row, message",
    [(STATE_HEADER + "0.0,0.5,0.0,-0.5,0.0,0.0,1.2,0.0\n", -1,
      "state csv {path} row -1 column p1y must be a number, got ''"),
     (STATE_HEADER + "0.0,0.5,0.0,-0.5,0.0,0.0,1.2,0.0,abc\n", -1,
      "state csv {path} row -1 column p1y must be a number, got 'abc'"),
     (None, -1, "cannot read state csv {path}: [Errno 2] No such file or directory: '{path}'"),
     (STATE_HEADER + "0.0,0.5,0.0,-0.5,0.0,0.0,1.2,0.0,-1.2\n", 1,
      "state csv {path} row 1 is out of range for its 1 data rows"),
     ("t,x0,y0\n0.0,0.5,0.0\n", -1, "state csv {path} lacks the r/p columns for 2 bodies")],
)
def test_a_bad_state_csv_row_names_its_file_row_and_column(tmp_path, capsys, text, row, message):
    path = tmp_path / "state.csv"
    if text is not None:
        path.write_text(text)
    code, out = run(tmp_path, "simulate", _case("simulate", "initial_state.row", CSV_STATE, row)[2])
    assert code == 2
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"
    assert not out.exists()


def test_simulate_starts_from_a_blow_up_state(tmp_path, capsys):
    # a blow-up state with rho > 0 maps back to the Cartesian state of its first row
    s = np.array([[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]])  # on the unit mass sphere
    u = np.array([[0.0, 0.3], [0.0, -0.3]])  # mass-orthogonal to s
    state = {"kind": "mcgehee", "rho": 1.2, "v": 0.1, "s": s.tolist(), "u": u.tolist()}
    data = base_config(masses=[1.0, 1.0], initial_state=state, options={"t_span": [0.0, 0.5]})
    code, out = run(tmp_path, "simulate", data)
    assert code == 0
    _, rows = load_csv(out, "simulate.csv")
    ms, pp = MassSystem(np.ones(2)), PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    start = pack_phase(from_mcgehee(McGeheeState(rho=1.2, v=0.1, s=s, u=u), ms, pp))
    assert [float(x) for x in rows[0][:9]] == [0.0, *start]
    capsys.readouterr()
    code, _ = run(tmp_path, "simulate", {**data, "initial_state": {**state, "rho": 0.0}}, "rho0")
    assert code == 2
    assert "invalid blow-up state" in capsys.readouterr().err


def test_simulate_checks_a_declared_energy_level(tmp_path, capsys):
    state = PhaseState(
        Configuration(np.asarray(TWO_BODY["positions"])),
        np.asarray(TWO_BODY["momenta"]),
    )
    ms = MassSystem(np.array([1.0, 1.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    h0 = hamiltonian(state, ms, pp)

    good = base_config(
        masses=[1.0, 1.0], initial_state=TWO_BODY, energy_h=h0,
        options={"t_span": [0.0, 0.5]},
    )
    code, _ = run(tmp_path, "simulate", good, subdir="match")
    assert code == 0

    bad = base_config(masses=[1.0, 1.0], initial_state=TWO_BODY, energy_h=h0 + 0.1)
    code, _ = run(tmp_path, "simulate", bad, subdir="mismatch")
    assert code == 2
    assert "energy_h" in capsys.readouterr().err


def test_simulate_residual_series_match_each_state(tmp_path):
    # a near-circular inner binary with a third body on a wide orbit
    triple = {
        "kind": "cartesian",
        "positions": [[-1.5, 0.0], [-2.5, 0.0], [4.0, 0.0]],
        "momenta": [[0.0, 0.47], [0.0, -0.94], [0.0, 0.47]],
    }
    masses = [1.0, 1.0, 1.0]
    data = base_config(
        masses=masses, b=1.5, initial_state=triple, options={"t_span": [0.0, 2.0]}
    )
    code, out = run(tmp_path, "simulate", data)
    assert code == 0
    header, rows = load_csv(out, "simulate.csv")
    ms = MassSystem(np.array(masses))
    pp = PotentialParams(a=1.0, b=1.5, alpha=1.0, beta=0.5)

    def observables(y):
        state = PhaseState(Configuration(y[:6].reshape(3, 2)), y[6:12].reshape(3, 2))
        return hamiltonian(state, ms, pp), angular_momentum(state, ms)

    values = np.array([[float(x) for x in row] for row in rows])
    h0, l0 = observables(values[0, 1:13])
    assert len(rows) > 10 and abs(l0) > 0.1
    for row in values:
        h, ell = observables(row[1:13])
        assert abs(row[-2] - abs(h - h0)) <= 1e-15 * abs(h0)
        assert abs(row[-1] - abs(ell - l0)) <= 1e-15 * abs(l0)


def test_simulate_plunging_orbit_names_its_separation(tmp_path, capsys):
    start = {
        "kind": "cartesian",
        "positions": [[1.0, 0.0], [-0.5, 0.3], [-0.5, -0.3]],
        "momenta": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }
    data = base_config(
        masses=[1.0, 1.0, 1.0], initial_state=start, options={"t_span": [0.0, 10.0]}
    )
    code, _ = run(tmp_path, "simulate", data)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: StiffnessError: step size underflow")
    assert "separation" in err


def test_simulate_past_the_float_range_writes_only_its_error(tmp_path, capsys):
    # the start's forces pass the float range (separations near 1e-70, b = 3):
    # the energy of the start is taken without numpy's warnings, so stderr
    # holds the field's one error line
    start = {
        "kind": "cartesian",
        "positions": [[0.0, 0.0], [1e-70, 0.0], [0.0, 1e-70]],
        "momenta": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    }
    code, _ = run(tmp_path, "simulate", base_config(initial_state=start))
    assert code == 3
    assert capsys.readouterr().err == "error: FieldError: field not finite at t = 0.0\n"


# ---------------------------------------------------------------------------
# collision-flow


CF_START = {
    "start": {
        "shape": "equilateral",
        "v_sign": -1,
        "perturbation_scale": 0.05,
        "seed": 11,
    },
    "tau_max": 5.0,
}


def test_collision_flow_runs_down_the_gradient(tmp_path):
    data = base_config(
        options=CF_START, tolerances={"rel_tol": 1e-12, "abs_tol": 1e-14}
    )
    code, out = run(tmp_path, "collision-flow", data)
    assert code == 0
    doc = load_json(out, "collision_flow.json")
    assert doc["v_start"] < 0.0
    assert doc["v_monotone_nonincreasing"] is True
    assert doc["v_decrease_total"] > 0.0
    assert doc["manifold_residual_max"] < 1e-6
    near = doc["nearest_equilibrium"]
    assert near["v_sign"] in (-1, 1)
    assert near["kind"] in ("equilateral", "collinear")
    header, rows = load_csv(out, "collision_flow.csv")
    assert header[:4] == ["tau", "v", "manifold_residual", "min_separation"]
    assert len(rows) >= 2
    assert all(float(row[3]) > 0.0 for row in rows)


def test_collision_flow_output_is_deterministic(tmp_path):
    data = base_config(options=CF_START)
    _, first = run(tmp_path, "collision-flow", data, subdir="one")
    _, second = run(tmp_path, "collision-flow", data, subdir="two")
    for name in ("collision_flow.json", "collision_flow.csv"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_collision_flow_runs_from_a_collinear_blow_up_state(tmp_path):
    # an n x 1 state flows on the line; its nearest rest point is found
    # after lifting the shape into the plane
    ms = MassSystem(np.array([1.0, 2.0, 3.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=0.5)
    case = ("collinear", Ordering((1, 2, 3)))
    s = pure_b_shapes(ms, pp.b, [case])[0].config.positions[:, :1]
    u = 0.01 * np.cross(np.ones(3), s[:, 0])[:, None]  # sum u = 0 and s . u = 0
    v = -np.sqrt(2.0 * potential_V(s, ms, pp) - float(np.sum(u * u / ms.masses[:, None])))
    data = base_config(
        initial_state={"kind": "mcgehee", "rho": 0.0, "v": v, "s": s.tolist(), "u": u.tolist()},
        options={"tau_max": 0.5},
    )
    code, out = run(tmp_path, "collision-flow", data)
    assert code == 0
    doc = load_json(out, "collision_flow.json")
    near = doc["nearest_equilibrium"]
    assert near["kind"] == "collinear"
    assert near["v_sign"] == -1
    header, _ = load_csv(out, "collision_flow.csv")
    assert header[4:] == ["s0", "s1", "s2", "u0", "u1", "u2"]


def test_collision_flow_rejects_states_off_the_manifold(tmp_path, capsys):
    ms = MassSystem(np.array([1.0, 2.0, 3.0]))
    s = equilateral_configuration(ms)[0].positions  # inertia 1: already unit
    off = base_config(
        initial_state={
            "kind": "mcgehee",
            "rho": 0.0,
            "v": 0.0,  # wrong: the manifold relation forces v^2 = 2 V(s)
            "s": s.tolist(),
            "u": np.zeros_like(s).tolist(),
        }
    )
    code, _ = run(tmp_path, "collision-flow", off, subdir="offc")
    assert code == 3
    assert "error: OffManifoldError" in capsys.readouterr().err

    inflated = base_config(
        initial_state={
            "kind": "mcgehee",
            "rho": 0.1,
            "v": 0.0,
            "s": s.tolist(),
            "u": np.zeros_like(s).tolist(),
        }
    )
    code, _ = run(tmp_path, "collision-flow", inflated, subdir="rho")
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")

    # a state and a start list together: neither is silently dropped
    both = {**inflated, "initial_state": {**inflated["initial_state"], "rho": 0.0},
            "options": {"start": [CF_START["start"]]}}
    code, out = run(tmp_path, "collision-flow", both, subdir="both")
    assert code == 2
    err = capsys.readouterr().err
    assert "initial_state" in err and "options.start" in err
    assert not out.exists()


def test_a_list_of_starts_runs_each_orbit_as_a_single_start_would(tmp_path):
    # two orbits from the perturbed equilateral rest points, one per sign of v
    starts = [{"v_sign": 1, "perturbation_scale": 0.08, "seed": 3},
              {"v_sign": -1, "perturbation_scale": 0.08, "seed": 4}]
    data = base_config(beta=1.0, options={"start": starts, "tau_max": 1.0})
    code, out = run(tmp_path, "collision-flow", data)
    assert code == 0
    doc = load_json(out, "collision_flow.json")
    orbits = doc.pop("orbits")
    assert sorted(p.name for p in out.iterdir()) == [
        "collision_flow.json", "collision_flow_0.csv", "collision_flow_1.csv"]
    assert [o["csv"] for o in orbits] == ["collision_flow_0.csv", "collision_flow_1.csv"]
    for k, start in enumerate(starts):
        alone = {**data, "options": {**data["options"], "start": start}}
        code, one = run(tmp_path, "collision-flow", alone, f"one{k}")
        assert code == 0
        single = load_json(one, "collision_flow.json")
        assert {**single, "csv": None} == {**doc, **orbits[k], "csv": None}
        assert (one / "collision_flow.csv").read_bytes() == (out / orbits[k]["csv"]).read_bytes()
        assert orbits[k]["v_monotone_nonincreasing"] is True


def test_a_list_of_starts_solves_its_shapes_in_the_catalog_batch(tmp_path, monkeypatch):
    # the catalog holds the equilateral and the canonical shapes; the reversed
    # ordering [2, 3, 1] is solved in the catalog's batch, and every start
    # is the one a fresh solve of its shape gives, bit for bit
    batches = count_batches(monkeypatch)
    shapes = [{"ordering": [1, 3, 2]}] * 3 + [{"ordering": [2, 3, 1]}] + ["equilateral"] * 2
    starts = [{"shape": shape, "perturbation_scale": 0.05, "seed": k}
              for k, shape in enumerate(shapes)]
    data = base_config(masses=[1.0, 2.0, 3.0], options={"start": starts, "tau_max": 0.1})
    code, out = run(tmp_path, "collision-flow", data)
    assert code == 0
    assert batches == [4]  # the n!/2 = 3 classes and [2, 3, 1]
    ms, pp = MassSystem(np.array([1.0, 2.0, 3.0])), PotentialParams(a=1.0, b=3.0, beta=0.5)
    for k, shape in enumerate(shapes):
        kind = ("equilateral", None) if shape == "equilateral" else ("collinear", Ordering(shape["ordering"]))
        st0 = manifold_start(pure_b_shapes(ms, pp.b, [kind])[0].config, ms, pp, 0.05, k)
        y0 = mcgehee_renormalizer(ms)(pack_mcgehee(st0))  # the first state integrate keeps
        _, rows = load_csv(out, f"collision_flow_{k}.csv")
        assert [rows[0][1], *rows[0][4:]] == [format(x, ".17g") for x in y0[1:]]


def test_a_failing_orbit_of_a_list_leaves_no_file(tmp_path, capsys, monkeypatch):
    # every orbit is computed before main writes a file, so the first
    # orbit's table does not outlive a failure of the second
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise StiffnessError("step size underflow", 0.0, np.zeros(1))
        return integrate_on_C(*args, **kwargs)

    integrate_on_C = cli.integrate_on_C
    monkeypatch.setattr(cli, "integrate_on_C", second_fails)
    starts = [{"perturbation_scale": 0.05, "seed": k} for k in range(3)]
    code, out = run(tmp_path, "collision-flow", base_config(options={"start": starts,
                                                                     "tau_max": 0.1}))
    assert code == 3
    assert capsys.readouterr() == ("", "error: StiffnessError: step size underflow\n")
    assert len(calls) == 2
    assert not out.exists()


# --out is made only once the command has its results; a rejection (exit 2)
# or a runtime failure (exit 3) leaves no directory behind
@pytest.mark.parametrize(
    "command, data, want",
    [("cc-planar3", base_config(masses=[1.0, 2.0]), 2),
     ("homothetic", base_config(masses=[1.0, 1.0, 1.0], beta=1.0, energy_h=1.0), 3)],
)
def test_a_failed_run_makes_no_out_directory(tmp_path, command, data, want):
    code, out = run(tmp_path, command, data)
    assert code == want
    assert not out.exists()


# masses 160 decades apart, whose kernel values on the unit sphere are normal
# floats: the restricted spectrum of the solved shape comes out [0.], a
# numerical failure naming its quantity, not a config problem
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_linear_algebra_step_is_a_numerical_failure(tmp_path, capsys):
    data = base_config(masses=[1e-140, 1e-70, 1e20], a=1.0, b=11.0, alpha=0.0, beta=1.0)
    code, out = run(tmp_path, "cc-collinear", data)
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "error: DegenerateError: collinear restricted Hessian spectrum ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, failing, quantity",
    [("cc-collinear", "solve", "gradient-step system of the collinear Newton step is singular"),
     ("cc-collinear", "eigvalsh", "restricted-Hessian spectrum failed"),
     ("eigen", "eigvals", "linearization spectrum at the rest point failed")],
)
def test_a_linear_algebra_failure_exits_3_naming_its_quantity(tmp_path, capsys, monkeypatch,
                                                               command, failing, quantity):
    # numpy's LinAlgError is a ValueError, which would read as a config problem (exit 2)
    fail_linalg(monkeypatch, failing)
    code, out = run(tmp_path, command, base_config())
    assert code == 3
    assert capsys.readouterr().err == f"error: DegenerateError: {quantity}: {failing} failed\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_an_out_path_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, target):
    (tmp_path / "afile").write_text("")
    cfg = write_config(tmp_path, base_config(), "cfg.json")
    out = tmp_path / target
    assert cli.main(["cc-collinear", "--config", str(cfg), "--out", str(out)]) == 2
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.startswith(f"error: cannot write --out {out}: ")
    assert "Traceback" not in std.err
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize(
    "starts, path",
    [([], "options.start must be a non-empty array"), ([{}, {"sead": 4}], "options.start[1].sead")],
)
def test_a_bad_list_of_starts_names_its_element(tmp_path, capsys, starts, path):
    code, _ = run(tmp_path, "collision-flow", base_config(options={"start": starts}))
    assert code == 2
    assert path in capsys.readouterr().err


# on the collision manifold the W-term carries the factor rho^(b-a) = 0, and
# the rest points are the b-term's: every a gives the bytes of a = 1 but the
# echoed potential.a
@pytest.mark.parametrize("command, masses, options", [
    ("eigen", [1.0, 2.0, 3.0], {}),
    ("eigen", [1.0, 2.0, 3.0, 4.0], {}),
    ("collision-flow", [1.0, 2.0, 3.0], {"start": CF_START["start"], "tau_max": 0.25}),
    ("collision-flow", [1.0, 2.0, 3.0, 4.0],
     {"start": {**CF_START["start"], "shape": {"ordering": [1, 2, 3, 4]}}, "tau_max": 0.03}),
], ids=["eigen-3", "eigen-4", "collision-flow-3", "collision-flow-4"])
def test_a_collision_manifold_run_does_not_depend_on_a(tmp_path, command, masses, options):
    texts = {}
    for a in (1.0, 0.0, 0.5, 1.7):
        code, out = run(tmp_path, command, base_config(masses=masses, a=a, options=options),
                        subdir=f"a{a}")
        assert code == 0
        summary = command.replace("-", "_") + ".json"
        texts[a] = {p.name: _text_but(out, p.name, a=a) if p.name == summary else p.read_bytes()
                    for p in out.iterdir()}
    assert len(texts[1.0]) == 1 + (command == "collision-flow")
    assert texts[0.0] == texts[0.5] == texts[1.7] == texts[1.0]


# ---------------------------------------------------------------------------
# eigen


def test_a_default_eigen_run_makes_eight_kernel_passes(tmp_path, monkeypatch):
    # the pure-b census: a light pass for its start, its first iterate and
    # three rounds of trial steps on one binding, no pass for its spectra;
    # one pass for the equilateral residual and index together; the rest
    # points on one binding, one pass for the planar shape and one for the
    # three collinear ones.  10 passes on 6 bindings when each rest-point
    # shape took a binding and a pass of its own.
    bindings, passes = count_kernel_bindings(monkeypatch), count_kernel_passes(monkeypatch)
    code, _ = run(tmp_path, "eigen", base_config())
    assert code == 0
    assert len(passes) == 8
    assert [p.hess for p in passes] == [False] + [True] * 7
    assert len(bindings) == 3


def test_eigen_reports_the_default_equilibrium_catalog(tmp_path):
    code, out = run(tmp_path, "eigen", base_config(beta=1.0))
    assert code == 0
    doc = load_json(out, "eigen.json")
    recs = doc["equilibria"]
    # equilateral and three collinear shapes, each at v = +/- sqrt(2 V)
    assert len(recs) == 8
    kinds = sorted(r["kind"] for r in recs)
    assert kinds.count("equilateral") == 2
    assert kinds.count("collinear") == 6
    for rec in recs:
        assert rec["cc_defect"] < 1e-9
        assert rec["v_value"] * rec["v_sign"] > 0.0
        ambient_dim = {"planar": 7, "collinear": 3}[rec["ambient"]]
        assert len(rec["spectrum"]) == ambient_dim + 1
        assert rec["dim_unstable"] + rec["dim_stable"] + rec["zero_modes"] \
            == ambient_dim
        assert rec["dim_energy_surface"] == {"planar": 7, "collinear": 3}[
            rec["ambient"]
        ]
        assert rec["zero_modes"] == (1 if rec["ambient"] == "planar" else 0)
        if rec["ambient"] == "planar":
            assert rec["transversality_necessary"] is True
        else:
            assert "transversality_necessary" not in rec

    def dims(kind, sign):
        match = [
            r for r in recs
            if r["kind"] == kind and r["v_sign"] == sign
            and r["ordering"] in (None, [1, 2, 3])
        ]
        assert len(match) == 1
        return match[0]["dim_unstable"], match[0]["dim_stable"]

    # reversing the flow direction swaps the stable/unstable splitting
    assert dims("equilateral", 1) == dims("equilateral", -1)[::-1]
    assert dims("collinear", 1) == dims("collinear", -1)[::-1]


def test_eigen_solves_its_collinear_cases_in_one_batch(tmp_path, monkeypatch):
    # two canonical orderings, one that is not, and the reversal of the identity
    orders = [[1, 2, 3, 4], [1, 3, 2, 4], [2, 1, 3, 4], [4, 3, 2, 1]]
    batches = count_batches(monkeypatch)
    data = base_config(masses=[1.0, 2.0, 3.0, 4.0],
                       options={"cases": [{"ordering": o} for o in orders]})
    code, out = run(tmp_path, "eigen", data)
    assert code == 0
    assert batches == [4]
    recs = load_json(out, "eigen.json")["equilibria"]
    assert [r["ordering"] for r in recs] == [o for o in orders for _ in (1, -1)]


def test_eigen_solves_a_repeated_case_once(tmp_path, monkeypatch):
    batches = count_batches(monkeypatch)
    cases = [{"ordering": [1, 3, 2]}, "equilateral", {"ordering": [1, 3, 2]}, "equilateral"]
    code, out = run(tmp_path, "eigen", base_config(options={"cases": cases}))
    assert code == 0
    assert batches == [1]
    recs = load_json(out, "eigen.json")["equilibria"]
    assert [r["kind"] for r in recs[::2]] == ["collinear", "equilateral"] * 2
    assert recs[:4] == recs[4:]


def test_eigen_guards_its_preconditions(tmp_path, capsys):
    for sub, bad in (
        ("b2", base_config(b=2.0)),  # spectra need b > 2
        ("nob", base_config(beta=0.0)),
        ("empty", base_config(options={"cases": []})),
    ):
        code, _ = run(tmp_path, "eigen", bad, subdir=sub)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# homothetic


def test_homothetic_builds_the_ejection_collision_orbit(tmp_path):
    data = base_config(
        masses=[1.0, 1.0, 1.0],
        beta=1.0,
        energy_h=-1.0,
        options={"shape": "equilateral"},
    )
    code, out = run(tmp_path, "homothetic", data)
    assert code == 0
    doc = load_json(out, "homothetic.json")
    assert doc["termination"] == "event:floor"
    assert doc["k_drift"] < 1e-9
    assert doc["rho_max_gap"] < 1e-6
    ms = MassSystem(np.array([1.0, 1.0, 1.0]))
    pp = PotentialParams(a=1.0, b=3.0, alpha=1.0, beta=1.0)
    shape, _ = equilateral_configuration(ms)
    v_star = np.sqrt(2.0 * potential_V(shape, ms, pp))
    assert doc["v_start"] == pytest.approx(v_star, abs=1e-6)
    assert doc["v_end"] == pytest.approx(-v_star, abs=1e-6)
    header, rows = load_csv(out, "homothetic.csv")
    assert header == ["tau", "rho", "v", "k_defect"]
    rhos = [float(r[1]) for r in rows]
    assert max(rhos) == pytest.approx(doc["rho_max_orbit"], rel=1e-3)


# the reduced plane is that of every 0 < a < b, with the bounds a = 1 meets
@pytest.mark.parametrize("a", [0.5, 1.7])
def test_homothetic_builds_the_orbit_at_any_positive_inner_exponent(tmp_path, a):
    code, out = run(tmp_path, "homothetic",
                    base_config(masses=[1.0, 1.0, 1.0], a=a, beta=1.0, energy_h=-1.0))
    assert code == 0
    doc = load_json(out, "homothetic.json")
    assert doc["potential"]["a"] == a
    assert doc["termination"] == "event:floor"
    assert doc["k_drift"] < 1e-9
    assert doc["rho_max_gap"] < 1e-6


def test_a_default_homothetic_run_reads_its_shape_once(tmp_path, monkeypatch):
    # one sphere check and one kernel pass at s0 serve the admissibility
    # test, W and V, the starting speed and the bisected turning size
    # (three checks and four passes when each of them read s0 afresh)
    passes = count_kernel_passes(monkeypatch)
    checks = []

    def counted(*args, **kwargs):
        checks.append(1)
        return require(*args, **kwargs)

    require = homothetic.require_on_sphere
    monkeypatch.setattr(homothetic, "require_on_sphere", counted)
    code, _ = run(tmp_path, "homothetic", HOMOTHETIC)
    assert code == 0
    assert (len(passes), len(checks)) == (1, 1)


# at a = 0 W is the constant 3 of unit masses, so the size turns only below h = -3,
# where rho_max = (V / -(W + h))^(1/b)
def test_homothetic_at_a_zero_turns_below_minus_w(tmp_path, capsys):
    data = base_config(masses=[1.0, 1.0, 1.0], a=0.0, beta=1.0, energy_h=-4.0)
    code, out = run(tmp_path, "homothetic", data)
    assert code == 0
    doc = load_json(out, "homothetic.json")
    assert doc["k_drift"] < 1e-9
    assert doc["rho_max_gap"] < 1e-6
    ms = MassSystem(np.ones(3))
    v0 = potential_V(equilateral_configuration(ms)[0], ms, PotentialParams(a=0.0, b=3.0))
    w0, h = 3.0, -4.0
    assert doc["rho_max_bisect"] == pytest.approx((v0 / -(w0 + h)) ** (1.0 / 3.0), rel=1e-10)
    code, _ = run(tmp_path, "homothetic", {**data, "energy_h": -0.5}, subdir="above")
    assert code == 3
    assert capsys.readouterr().err.startswith("error: EnergySignError: ")


# at alpha = 0 the admissibility test reads "s0 is a CC of V", which every CC of
# V passes (the collinear one too, which test_homothetic_rejects_a_non_simultaneous_shape
# refuses at alpha = 1), and the size turns at rho_max = (V(s0) / -h)^(1/b)
def test_homothetic_at_alpha_zero_takes_every_cc_of_v(tmp_path):
    data = base_config(masses=[1.0, 1.0, 1.0], alpha=0.0, beta=1.0, energy_h=-1.0)
    code, out = run(tmp_path, "homothetic", data)
    assert code == 0
    doc = load_json(out, "homothetic.json")
    assert doc["rho_max_bisect"] == pytest.approx(doc["K"] ** (1.0 / 3.0), rel=1e-10)
    assert doc["k_drift"] < 1e-9
    data = base_config(alpha=0.0, energy_h=-1.0, options={"shape": {"ordering": [1, 2, 3]}})
    code, out = run(tmp_path, "homothetic", data, subdir="collinear")
    assert code == 0
    doc = load_json(out, "homothetic.json")
    assert doc["termination"] == "event:floor"
    assert doc["k_drift"] < 1e-9


# the orbit starts at rho_floor on its way up, so the floor must lie below the
# turning size; at h = -1000 that is 0.145, and a floor of 0.5 has no v there
def test_homothetic_needs_a_floor_below_the_turning_size(tmp_path, capsys):
    data = base_config(masses=[1.0, 1.0, 1.0], beta=1.0, energy_h=-1000.0,
                       tolerances={"rho_floor": 0.5})
    code, out = run(tmp_path, "homothetic", data)
    assert (code, out.exists()) == (2, False)
    ms, pp = MassSystem(np.ones(3)), PotentialParams(a=1.0, b=3.0)
    rho_max = homothetic.rho_max_bisection(equilateral_configuration(ms)[0], ms, pp, -1000.0)
    assert f"{rho_max:.3g}" == "0.145"
    assert capsys.readouterr().err == ("error: rho_floor = 0.5 must lie in (0, rho_max), below "
                                       f"the turning size rho_max = {rho_max!r}\n")


def test_homothetic_requires_a_negative_energy_level(tmp_path, capsys):
    data = base_config(
        masses=[1.0, 1.0, 1.0], beta=1.0, energy_h=1.0,
        options={"shape": "equilateral"},
    )
    code, _ = run(tmp_path, "homothetic", data)
    assert code == 3
    assert "error: EnergySignError" in capsys.readouterr().err


def test_homothetic_requires_an_energy_level_at_all(tmp_path, capsys):
    data = base_config(masses=[1.0, 1.0, 1.0], options={"shape": "equilateral"})
    code, _ = run(tmp_path, "homothetic", data)
    assert code == 2
    assert "energy_h" in capsys.readouterr().err


def test_homothetic_rejects_a_non_simultaneous_shape(tmp_path, capsys):
    # the generic collinear CC is not a CC of both terms, so the
    # invariant-plane construction does not apply to it
    data = base_config(
        energy_h=-1.0, options={"shape": {"ordering": [1, 2, 3]}}
    )
    code, _ = run(tmp_path, "homothetic", data)
    assert code == 3
    assert "error: AdmissibilityError" in capsys.readouterr().err


def _coefficient_error(key, value, pair, mi, mj, coef, name=None):
    name = name or f"potential.{key} = {value}"
    return (f"error: {name} gives pair {pair}, masses {mi} and {mj}, the kernel "
            f"coefficient {coef}: it must be finite and at least 2.2250738585072014e-308\n")


# the b-term's pair coefficients overflow, so the shape's V residual would be
# NaN: the config is refused before any gate sees it (test_homothetic keeps
# the admissibility gate's NaN case)
def test_a_nan_residual_is_not_admissible(tmp_path, capsys):
    data = base_config(masses=[1e300, 2.0, 2.0], b=1.51, alpha=0.5, beta=1e300, energy_h=-2.0)
    code, out = run(tmp_path, "homothetic", data)
    assert code == 2
    assert capsys.readouterr().err == _coefficient_error("beta", "1e+300", "(1, 2)", "1e+300",
                                                         "2.0", "inf")
    assert not out.exists()


# configs whose pair coefficients, or their products with a positive exponent,
# leave the float domain: each is refused up front naming the key and the
# pair, before the kernel makes an inf, a NaN or a zero of them
@pytest.mark.parametrize(
    "command, data, message",
    [("simulate", base_config(masses=[1e200, 1e200], b=1.5, energy_h=0.0, initial_state={
        "kind": "cartesian", "positions": [[0, 0], [1, 0]], "momenta": [[1e250, 0], [-1e250, 0]]}),
      _coefficient_error("alpha", "1.0", "(1, 2)", "1e+200", "1e+200", "inf")),
     ("eigen", base_config(masses=[0.3, 7.0, 1e-200, 1e-300], b=21.0, alpha=0.0, beta=1e300),
      _coefficient_error("beta", "1e+300", "(3, 4)", "1e-200", "1e-300", "0.0")),
     ("homothetic", base_config(masses=[1e-300, 2.0, 1e-100], b=21.0, alpha=1e300, beta=1e-300,
                                energy_h=-1e-300),
      _coefficient_error("alpha", "1e+300", "(1, 3)", "1e-300", "1e-100", "0.0")),
     ("cc-planar3", base_config(masses=[1e-300, 1.0, 1e-200], b=1.51, beta=1e300,
                                inertia_I0=1e300),
      _coefficient_error("alpha", "1.0", "(1, 3)", "1e-300", "1e-200", "0.0")),
     ("collision-flow", base_config(masses=[1e-5, 1e100, 1e-5, 1e-200], b=4.0, alpha=1e-300,
                                    beta=1e300, options={"start": {
                                        "shape": {"ordering": [1, 2, 3, 4]},
                                        "perturbation_scale": 1e10, "seed": 255}}),
      _coefficient_error("alpha", "1e-300", "(1, 3)", "1e-05", "1e-05", "1e-310")),
     ("cc-collinear", base_config(masses=[1.0, 1.0], a=0.5, alpha=3e-308),
      _coefficient_error("alpha", "3e-308", "(1, 2)", "1.0", "1.0", "1.5000000000000004e-308")),
     ("cc-collinear", base_config(masses=[1.0, 1.0], beta=1e308),
      _coefficient_error("beta", "1e+308", "(1, 2)", "1.0", "1.0", "inf")),
     # simultaneous solves each term at coefficient 1 and names it, not the config's alpha
     ("simultaneous", base_config(masses=[1e-170, 1e-170, 1.0], alpha=0.3),
      _coefficient_error("alpha", None, "(1, 2)", "1e-170", "1e-170", "0.0",
                         name="the alpha term at coefficient 1, which simultaneous solves,")),
     # the CC commands bind the normal form, here beta = 0.5 I0^-1 = 5e-201, and name it
     *((command, base_config(masses=[1e-60, 1e-60, 1.0], inertia_I0=1e200),
        _coefficient_error("beta", None, "(1, 2)", "1e-60", "1e-60", "1.5e-320", name=(
            "the beta term at coefficient 5e-201 in the normal form of inertia_I0 = 1e+200,")))
       for command in ("cc-collinear", "cc-planar3")),
     # eigen and collision-flow also bind the catalog's pure b-term at beta = 1
     *((command, base_config(masses=[1e-155, 1e-155, 1e10], alpha=1e100, beta=1e100, **extra),
        _coefficient_error("beta", None, "(1, 2)", "1e-155", "1e-155", "3e-310",
                           name="the beta term at the catalog's coefficient 1.0"))
       for command, extra in (("eigen", {}), ("collision-flow", {"options": {"start": {
           "shape": "equilateral"}}})))],
    ids=["simulate", "eigen", "homothetic", "cc-planar3", "collision-flow", "exponent-underflow",
         "exponent-overflow", "simultaneous", "cc-collinear-normal-form", "cc-planar3-normal-form",
         "eigen-catalog", "collision-flow-catalog"],
)
def test_a_quantity_past_the_float_domain_fails_its_own_gate(tmp_path, capsys, command, data,
                                                            message):
    code, out = run(tmp_path, command, data)
    assert code == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def _normal_form_error(i0, name, value):
    return (f"error: inertia_I0 = {i0} gives the unit-size normal form a {name} = {value}: it "
            f"must be a normal float\n")


# a CC command solves its size's normal form, at unit size with the larger
# coefficient 1 and the other the ratio, and maps the results back: a size
# is refused up front, naming inertia_I0, only where the ratio or a map-back
# factor leaves the normal floats (at a = 1, b = 3: c / I0 = I0^-1.5 from
# about 1.3e205 up, and beta I0^-2.5 below about 5e-124)
@pytest.mark.parametrize("command", ["cc-collinear", "cc-planar3"])
@pytest.mark.parametrize(
    "i0, message",
    [(1e300, _normal_form_error("1e+300", "map-back factor c / I0", "0.0")),
     (1e-300, _normal_form_error("1e-300", "map-back factor c / I0", "inf"))],
    ids=["1e300", "1e-300"],
)
def test_a_size_past_the_float_domain_is_a_config_error(tmp_path, capsys, command, i0, message):
    code, out = run(tmp_path, command, base_config(inertia_I0=i0))
    assert code == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


# a subnormal size makes the coefficient ratio (alpha / beta) I0 = 2e-320 subnormal
def test_a_size_whose_square_underflows_is_a_config_error(tmp_path, capsys):
    code, out = run(tmp_path, "cc-collinear", base_config(masses=[1e10] * 3, inertia_I0=1e-320))
    assert code == 2
    assert capsys.readouterr().err == _normal_form_error("1e-320", "coefficient ratio", "2e-320")
    assert not out.exists()


# a = 0, b = 7, beta = 0.5 at I0 = 1e100: mu = (alpha / beta) I0^3.5 = 2e350, and the
# b-term, the only one that moves a body, has c / I0 = 0.5 I0^-4.5, below the floats
@pytest.mark.parametrize("command", ["cc-collinear", "cc-planar3"])
def test_a_ratio_past_the_float_range_is_a_config_error(tmp_path, capsys, command):
    code, out = run(tmp_path, command, base_config(a=0.0, b=7.0, inertia_I0=1e100))
    assert code == 2
    assert capsys.readouterr().err == _normal_form_error("1e+100", "map-back factor c / I0", "0.0")
    assert not out.exists()


def _results_at(out, command):
    return load_json(out, command.replace("-", "_") + ".json")["results"]


# at I0 = 1e200 (a = 1, b = 3, alpha = 1, beta = 0.5) the normal form is the unit-size
# problem with beta = 0.5 I0^-1 = 5e-201, whose results map back exactly: positions
# times sqrt(I0) = 1e100, sigma and the spectrum times c / I0 = 1e-300 and residuals
# times c / sqrt(I0) = 1e-200; simultaneous solves at unit size and scales its gaps
@pytest.mark.parametrize("command", ["cc-collinear", "cc-planar3", "simultaneous"])
def test_a_large_size_is_the_unit_size_run_mapped_back(tmp_path, command):
    code, out = run(tmp_path, command, base_config(inertia_I0=1e200), subdir="sized")
    assert code == 0
    code, unit_out = run(tmp_path, command, base_config(beta=0.5 * 1e200 ** -1.0), subdir="unit")
    assert code == 0
    if command == "simultaneous":
        assert ([r["gap"] for r in _results_at(out, command)]
                == [1e100 * r["gap"] for r in _results_at(unit_out, command)])
        return
    sized, unit = _results_at(out, command), _results_at(unit_out, command)
    assert len(sized) == len(unit) > 0
    for big, small in zip(sized, unit):
        assert big["positions"] == (np.array(small["positions"]) * 1e100).tolist()
        for key, factor in (("sigma", 1e-300), ("residual", 1e-200), ("sigma1", 1e-300),
                            ("sigma2", 1e-300)):
            assert big.get(key) == (None if key not in small else small[key] * factor)
        assert big["hessian_eigenvalues"] == [e * 1e-300 for e in small["hessian_eigenvalues"]]
        assert big["index"] == small["index"]


def test_a_size_whose_kernel_values_are_normal_floats_runs(tmp_path):
    # at I0 = 1e40 the normal form has beta = 5e-41 and the map-back factor c / I0 = 1e-60
    code, out = run(tmp_path, "cc-collinear", base_config(inertia_I0=1e40))
    assert code == 0
    doc = load_json(out, "cc_collinear.json")
    assert [rec["index"] for rec in doc["results"]] == [0, 0, 0]
    assert doc["inertia_I0"] == 1e40


def _unit_sphere_error(total, size, key, what, value):
    return (f"error: masses of total M = {total} set the unit sphere's size sqrt(1 / M) = {size}, "
            f"at which pair (1, 2) gives the {key} term's kernel {what} {value}: it must be finite "
            f"and at least 2.2250738585072014e-308\n")


# the subcommands on the unit sphere <r, r> = 1, where the masses alone set the
# size: at masses 1e-100 times 1, 2, 3 the solve would report a spectrum [0.],
# at 1e100 times them a stall at a NaN residual, and both are refused up front,
# naming masses.  eigen evaluates the b-term alone, the others the a-term too.
_TINY_MASSES, _HUGE_MASSES = [1e-100, 2e-100, 3e-100], [1e100, 2e100, 3e100]
_TINY_SIZE = ("6e-100", "4.08248290463863e+49")
_HUGE_SIZE = ("6.0000000000000005e+100", "4.08248290463863e-51")
_UNIT_SPHERE_RUNS = {
    "eigen": ({}, [_unit_sphere_error(*_TINY_SIZE, "beta", "value", "0.0"),
                   _unit_sphere_error(*_HUGE_SIZE, "beta", "value", "inf")]),
    "collision-flow": ({"options": {"start": {"shape": "equilateral"}}},
                       [_unit_sphere_error(*_TINY_SIZE, "alpha", "gradient coefficient", "-0.0"),
                        _unit_sphere_error(*_HUGE_SIZE, "alpha", "gradient coefficient", "-inf")]),
    "homothetic": ({"energy_h": -1.0},
                   [_unit_sphere_error(*_TINY_SIZE, "alpha", "gradient coefficient", "-0.0"),
                    _unit_sphere_error(*_HUGE_SIZE, "alpha", "gradient coefficient", "-inf")]),
}


@pytest.mark.parametrize("command", list(_UNIT_SPHERE_RUNS))
def test_masses_whose_unit_sphere_is_past_the_float_domain_are_a_config_error(
        tmp_path, capsys, command):
    extra, messages = _UNIT_SPHERE_RUNS[command]
    for k, (masses, message) in enumerate(zip((_TINY_MASSES, _HUGE_MASSES), messages)):
        code, out = run(tmp_path, command, base_config(masses=masses, **extra), subdir=f"out{k}")
        assert code == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


# the unit-sphere check builds pure b-term potentials only for the subcommands
# that evaluate them, so a pure a-term run of the others still reads its config
@pytest.mark.parametrize("command, extra", [
    ("cc-collinear", {}),
    ("simulate", {"masses": [1.0, 1.0], "initial_state": TWO_BODY,
                  "options": {"t_span": [0.0, 1.0]}}),
])
def test_a_pure_a_term_runs_where_beta_may_be_zero(tmp_path, command, extra):
    code, out = run(tmp_path, command, base_config(beta=0.0, **extra))
    assert code == 0
    assert load_json(out, command.replace("-", "_") + ".json")["potential"]["beta"] == 0.0


# every float-domain gate raises from model.float_domain_fault: a rule that
# reports one fault, on the bound values or at a size, is heard at the kernel
# bind and at each command-line gate, which only names the cause
def test_every_float_domain_gate_raises_from_the_one_rule(tmp_path, capsys, monkeypatch):
    def reporting(quantity, at_size):
        def rule(m, pp, d2=None, bound=None):
            return (None, "beta", (1, 3), quantity, -7.5) if (d2 is not None) == at_size else None
        return rule

    monkeypatch.setattr(model, "float_domain_fault", reporting("kc", False))
    with pytest.raises(ValueError, match=r"^beta term of pair \(1, 3\): -b beta m_i m_j = -7\.5 "
                                         r"is zero or subnormal$"):
        model._PairKernel(np.array([1.0, 2.0, 3.0]), PotentialParams())
    monkeypatch.undo()
    tail = "it must be finite and at least 2.2250738585072014e-308\n"
    monkeypatch.setattr(cli, "float_domain_fault", reporting("coef", False))
    code, out = run(tmp_path, "cc-collinear", base_config(), subdir="bind")
    assert (code, out.exists()) == (2, False)
    assert capsys.readouterr().err == ("error: potential.beta = 0.5 gives pair (1, 3), masses 1.0 "
                                       f"and 3.0, the kernel coefficient 7.5: {tail}")
    monkeypatch.setattr(cli, "float_domain_fault", reporting("gradient coefficient", True))
    # the CC commands gate the unit-size problems they solve, at any inertia_I0
    sized = {command: {"inertia_I0": 2.0} for command in ("cc-collinear", "cc-planar3",
                                                           "simultaneous")}
    for command, extra in {**sized, **{c: e for c, (e, _) in _UNIT_SPHERE_RUNS.items()}}.items():
        code, out = run(tmp_path, command, base_config(**extra), subdir=command)
        assert (code, out.exists()) == (2, False)
        assert capsys.readouterr().err == (
            f"error: masses of total M = 6.0 set the unit sphere's size sqrt(1 / M) = "
            f"{math.sqrt(1.0 / 6.0)!r}, at which pair (1, 3) gives the beta term's kernel gradient "
            f"coefficient -7.5: {tail}")


# in-range masses, but a kinetic energy past the float range and a pair 1e-160
# apart: H = inf - inf is NaN, which matches no energy_h
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_energy_matches_no_energy_h(tmp_path, capsys):
    data = base_config(masses=[1.0, 1.0], b=1.5, energy_h=0.0, initial_state={
        "kind": "cartesian", "positions": [[0, 0], [1e-160, 0]],
        "momenta": [[1e200, 0], [-1e200, 0]]})
    code, out = run(tmp_path, "simulate", data)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: energy_h = 0.0 does not match the initial state (H = nan)\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# config plumbing shared by every command


def test_config_schema_and_key_validation(tmp_path, capsys):
    cases = (
        ("schema", {**base_config(), "schema": 2}),
        ("unknown", {**base_config(), "surprise": 1}),
        ("negmass", base_config(masses=[1.0, -2.0, 3.0])),
        ("order", base_config(a=2.0, b=1.0)),  # exponents must satisfy a < b
    )
    for sub, data in cases:
        code, _ = run(tmp_path, "cc-collinear", data, subdir=sub)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


def _case(command, path, data, value=None):
    """(command, path, a copy of data with the field at the dotted path set to value)."""
    data = json.loads(json.dumps(data))
    *parents, leaf = path.split(".")
    node = data
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return command, path, data


SIM = base_config(masses=[1.0, 1.0], initial_state=TWO_BODY)
BLOWN_UP = base_config(masses=[1.0, 1.0], initial_state={
    "kind": "mcgehee", "rho": 1.2, "v": 0.1, "s": [[0.5**0.5, 0.0], [-(0.5**0.5), 0.0]],
    "u": [[0.0, 0.3], [0.0, -0.3]]})
FLOW = base_config(options=CF_START)
GRID = base_config(options={"mass_grid": {"m1": [0.5, 1.5], "m2": [0.5, 1.5]}})
CSV_STATE = base_config(masses=[1.0, 1.0], initial_state={"kind": "csv", "path": "state.csv"})
EIGEN = base_config()
HOMOTHETIC = base_config(masses=[1.0, 1.0, 1.0], beta=1.0, energy_h=-1.0)


# the close match that the message of each misspelt key below names
CLOSE_MATCH = {
    "options.span": "options.t_span",
    "tolerances.grad_tool": "tolerances.grad_tol",
    "options.start.sead": "options.start.seed",
    "options.mass_grid.point": "options.mass_grid.points",
}


# a JSON null, then a non-integral value in an integer field, a value of the
# wrong type, a misspelt key and a value out of range: each exits 2 with a
# message naming the field
@pytest.mark.parametrize(
    "command, field, data",
    [
        _case("cc-collinear", "tolerances.grad_tol", base_config()),
        _case("simulate", "tolerances.rel_tol", SIM),
        _case("collision-flow", "tolerances.equilibrium_tol", FLOW),
        _case("collision-flow", "options.tau_max", FLOW),
        _case("simulate", "options.max_step", SIM),
        _case("collision-flow", "options.start.v_sign", FLOW),
        _case("collision-flow", "options.start.seed", FLOW),
        _case("collision-flow", "options.start.perturbation_scale", FLOW),
        _case("collision-flow", "options.start.v_sign", FLOW, -1.7),
        _case("collision-flow", "options.start.seed", FLOW, 2.9),
        _case("simultaneous", "options.mass_grid.points", GRID, 2.9),
        _case("simultaneous", "options.mass_grid.m1", GRID, [None, 1.5]),
        _case("simultaneous", "options.mass_grid.m3", GRID, [1.0]),
        _case("cc-collinear", "energy_h", base_config(), [1.0]),
        _case("simulate", "initial_state.path", CSV_STATE, 123),
        _case("simulate", "options.span", SIM, [0, 20]),
        _case("cc-collinear", "tolerances.grad_tool", base_config(), 1e-12),
        _case("collision-flow", "options.start.sead", FLOW, 3),
        _case("simultaneous", "options.mass_grid.point", GRID, 5),
        _case("simulate", "options.t_span", SIM, [0, float("inf")]),
        _case("simulate", "tolerances.abs_tol", SIM, 0),
        _case("simulate", "tolerances.rel_tol", _case("simulate", "tolerances.abs_tol", SIM, -1)[2],
              -1),
        _case("simulate", "options.max_step", SIM, 0),
        _case("simulate", "options.max_step", SIM, -1),
        _case("collision-flow", "options.tau_max", FLOW, -1),
        _case("collision-flow", "options.start.perturbation_scale", FLOW, -0.05),
        _case("collision-flow", "options.start.seed", FLOW, -3),
        _case("simultaneous", "options.mass_grid.ordering", GRID, [1.7, 2, 3]),
        _case("eigen", "energy_h", base_config(initial_state=TWO_BODY), -1.0),
        _case("cc-collinear", "schema", base_config(), True),
        _case("cc-collinear", "masses", base_config(), [1, 2, True]),
        _case("cc-collinear", "inertia_I0", base_config(), True),
        _case("collision-flow", "options.start.v_sign", FLOW, True),
        _case("simulate", "options.t_span", SIM, [0, True]),
        _case("simulate", "initial_state.positions", SIM, [[0.5, 0.0], [-0.5, False]]),
        _case("simulate", "initial_state", SIM),
        _case("collision-flow", "initial_state", base_config(),
              {"kind": "cartesian", "positions": [[1, 0], [0, 1], [-1, -1]],
               "momenta": [[0, 0]] * 3}),
        _case("homothetic", "options.shape", HOMOTHETIC, {"positions": [[1, 1]] * 3}),
        _case("homothetic", "options.shape", {**HOMOTHETIC, "masses": [1.0] * 4}, "equilateral"),
        _case("cc-collinear", "tolerances", base_config(), 5),
        _case("simultaneous", "options.mass_grid.m1", GRID, [0.5, 1.0, 1.5]),
        _case("simulate", "options.t_span", SIM, [1.0, 1.0]),
        _case("simulate", "initial_state.positions", SIM, [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]),
        _case("simulate", "initial_state.positions", SIM, [[0.5, 0.0], [-0.5, float("inf")]]),
        _case("simulate", "initial_state.kind", SIM, "polar"),
        _case("simulate", "initial_state.u", BLOWN_UP, [[0.3], [-0.3]]),
        _case("simulate", "initial_state.momenta", SIM, [[1.2], [-1.2]]),
    ],
)
def test_null_in_a_numeric_field_is_a_config_error(tmp_path, capsys, command, field, data):
    code, _ = run(tmp_path, command, data)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert field.rsplit(".", 1)[-1] in err
    assert CLOSE_MATCH.get(field, "") in err
    assert "Traceback" not in err


# each potential key a subcommand restricts, at the bound of its range or past it
@pytest.mark.parametrize(
    "command, data, key, value, rng",
    [
        ("simultaneous", base_config(), "a", 0.0, "(0, inf)"),
        ("collision-flow", FLOW, "beta", 0.0, "(0, inf)"),
        ("eigen", EIGEN, "b", 2.0, "(2, inf)"),
        ("eigen", EIGEN, "b", 1.5, "(2, inf)"),
        ("eigen", EIGEN, "beta", 0.0, "(0, inf)"),
        ("homothetic", HOMOTHETIC, "beta", 0.0, "(0, inf)"),
    ],
)
def test_a_potential_outside_its_subcommands_domain_is_a_config_error(
    tmp_path, capsys, command, data, key, value, rng
):
    code, out = run(tmp_path, command, _case(command, f"potential.{key}", data, value)[2])
    assert code == 2
    assert capsys.readouterr().err == f"error: potential.{key} must lie in {rng}, got {value!r}\n"
    assert not out.exists()


# a check of one key is that key's table entry: a required key, the kinds of
# state a subcommand takes, the range of rho
MANIFOLD_STATE = {"kind": "mcgehee", "s": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                  "u": [[0.0, 0.0]] * 3}


@pytest.mark.parametrize(
    "command, data, message",
    [("homothetic", base_config(masses=[1.0, 1.0, 1.0]), "config needs energy_h"),
     ("simulate", base_config(masses=[1.0, 1.0]), "config needs initial_state"),
     ("collision-flow", base_config(initial_state={**TWO_BODY, "positions": [[1, 0]] * 3,
                                                   "momenta": [[0, 0]] * 3}),
      "initial_state.kind must be one of mcgehee, got 'cartesian'"),
     ("collision-flow", base_config(initial_state={**MANIFOLD_STATE, "rho": 0.5}),
      "initial_state.rho must lie in {0}, got 0.5")],
)
def test_a_check_of_one_key_is_its_table_entry(tmp_path, capsys, command, data, message):
    code, out = run(tmp_path, command, data)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# of two bad keys, the one read first is reported: schema, masses and the
# top-level numbers, then potential, initial_state, tolerances and options
@pytest.mark.parametrize(
    "command, data, first",
    [("cc-planar3", base_config(inertia_I0=-1.0, tolerances={"grad_tol": 0.0}), "inertia_I0"),
     ("homothetic", base_config(beta=0.0, energy_h=[1.0]), "energy_h"),
     ("collision-flow", base_config(beta=0.0, initial_state={**MANIFOLD_STATE, "rho": 0.5}),
      "potential.beta"),
     ("collision-flow", base_config(initial_state={**MANIFOLD_STATE, "rho": 0.5},
                                    tolerances={"rel_tol": -1.0}), "initial_state.rho"),
     ("simulate", {**SIM, "tolerances": {"rel_tol": -1.0}, "options": {"max_step": 0.0}},
      "tolerances.rel_tol"),
     ("cc-collinear", {**base_config(masses=[1.0, -2.0]), "schema": 2}, "schema"),
     ("cc-collinear", base_config(masses=[1.0, -2.0], inertia_I0=-1.0), "masses")],
)
def test_of_two_bad_keys_the_first_read_is_reported(tmp_path, capsys, command, data, first):
    code, _ = run(tmp_path, command, data)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {first} ") or err.startswith(f"error: invalid {first}: ")


# ---------------------------------------------------------------------------
# shape specs: one grammar wherever a shape is read


@pytest.mark.parametrize(
    "command, data, key, spec, same",
    [
        ("eigen", EIGEN, "cases", [{"ordering": [1, 3, 2]}],
         [{"kind": "collinear", "ordering": [1, 3, 2]}]),
        ("eigen", EIGEN, "cases", ["equilateral"], [{"kind": "equilateral"}]),
        ("homothetic", HOMOTHETIC, "shape", {"kind": "equilateral"}, "equilateral"),
    ],
)
def test_each_form_of_a_shape_spec_gives_the_same_output(tmp_path, command, data, key, spec, same):
    outs = []
    for sub, value in (("one", spec), ("other", same)):
        code, out = run(tmp_path, command, {**data, "options": {key: value}}, subdir=sub)
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "equilateral", "ordering": [3, 2, 1], "positions": [[0, 0], [1, 0], [5, 5]]},
         "ordering"),
        ({"kind": "equilateral", "positions": [[0, 0], [1, 0], [5, 5]]}, "positions"),
        ({"ordering": [3, 2, 1], "positions": [[0, 0], [1, 0], [5, 5]]}, "ordering"),
        ({"kind": "collinear", "ordering": [3, 2, 1], "positions": [[0, 0], [1, 0], [5, 5]]},
         "positions"),
    ],
)
def test_a_shape_key_its_kind_does_not_use_is_a_config_error(tmp_path, capsys, spec, key):
    code, _ = run(tmp_path, "homothetic", {**HOMOTHETIC, "options": {"shape": spec}})
    assert code == 2
    assert f"options.shape.{key}" in capsys.readouterr().err


def test_positions_give_a_shape_but_not_a_rest_point(tmp_path, capsys):
    triangle = equilateral_configuration(MassSystem(np.ones(3)))[0].positions.tolist()
    shape = {"positions": triangle}
    for sub, command, data, path in (
        ("cases", "eigen", base_config(options={"cases": [shape]}), "options.cases[0]"),
        ("start", "collision-flow", base_config(options={"start": {"shape": shape}}),
         "options.start.shape"),
    ):
        code, _ = run(tmp_path, command, data, subdir=sub)
        assert code == 2
        assert path in capsys.readouterr().err
    code, _ = run(tmp_path, "homothetic", {**HOMOTHETIC, "options": {"shape": shape}}, "orbit")
    assert code == 0


def test_readme_config_tables_match_the_code():
    # every `potential.*`, `tolerances.*` and `options.*` row under a
    # "#### `qh <command>`" heading, against the command's tables with nested
    # tables flattened
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented, command = {}, None
    for line in readme.splitlines():
        heading = re.match(r"#### `qh ([\w-]+)`", line)
        command = heading.group(1) if heading else command
        row = re.match(r"\| `((?:potential|tolerances|options)\.[\w.]+)` \| ([^|]+) \| ([^|]+) \|",
                       line)
        if row:
            key, default, rng = (cell.strip() for cell in row.groups())
            default = default if default == "required" else json.loads(default.strip("`"))
            documented.setdefault(command, {})[key] = (default, rng.strip("`"))

    def flatten(prefix, table):
        for key, (default, _, rng) in table.items():
            default = "required" if default is cli._REQUIRED else default
            yield prefix + key, (default, "—" if isinstance(rng, dict) or rng is None else rng)
            if isinstance(rng, dict):
                yield from flatten(f"{prefix}{key}.", rng)

    # a potential key a subcommand does not narrow has no row: the potential row covers it
    expected = {
        command: {path: row for key in ("potential", "tolerances", "options") if key in table
                  for path, row in flatten(f"{key}.", table[key][2])
                  if not (key == "potential" and row[1] == "(-inf, inf)")}
        for command, table in cli._CONFIGS.items()
    }
    assert set(expected) == set(cli._COMMANDS)
    assert expected == documented


# a valid object of each nested table the walk below enters (an empty one
# where every key has a default), for three masses, and a state of each kind
FUZZ_OBJECTS = {"potential": base_config()["potential"],
                "mass_grid": {"m1": [0.5, 1.5], "m2": [0.5, 1.5]}}
FUZZ_STATES = {
    "cartesian": {**TWO_BODY, "positions": [[1, 0], [0, 1], [-1, 0]], "momenta": [[0, 0]] * 3},
    "mcgehee": MANIFOLD_STATE,
    "csv": {"kind": "csv", "path": "state.csv"},
}


def _past_each_bound(rng, kind):
    """A value just past each bound of a numeric range: an open end itself, the next
    value outward of a closed end or of a set member (the next integer for an int key);
    a closed infinite end has none."""
    ends = [float(end) for end in rng[1:-1].split(",")]
    step = (lambda x, d: x + d) if kind is cli._int else (lambda x, d: np.nextafter(x, d * np.inf))
    if rng[0] == "{":
        return [step(x, d) for x in ends for d in (-1, 1) if step(x, d) not in ends]
    return [x if not closed else step(x, d)
            for x, closed, d in ((ends[0], rng[0] == "[", -1), (ends[1], rng[-1] == "]", 1))
            if not (closed and np.isinf(x))]


def _fuzz_cases(table, base, path=""):
    """(dotted path, range, base with the key at path just past one bound of its range) for
    every bound of every numeric range in table; a state table is entered once per kind."""
    for key, (_, kind, rng) in table.items():
        if isinstance(rng, dict):
            nested = ([(rng[name], FUZZ_STATES[name]) for name in rng] if kind is cli._state
                      else [(rng, FUZZ_OBJECTS.get(key, {}))])
            for sub, obj in nested:
                for where, bad_rng, value in _fuzz_cases(sub, obj, f"{path}{key}."):
                    yield where, bad_rng, {**base, key: value}
        elif isinstance(rng, str) and rng != "(-inf, inf)" and not rng[1].isalpha():  # not names
            for x in map(float, _past_each_bound(rng, kind)):
                yield path + key, rng, {**base, key: [x, x] if kind is cli._pair else x}


def test_a_value_just_past_each_bound_of_each_table_names_its_key(tmp_path, capsys):
    # the first slice of a config fuzzer: every numeric range of every
    # subcommand's table, stepped just past each of its bounds
    required = {"simulate": {"initial_state": FUZZ_STATES["cartesian"]},
                "homothetic": {"energy_h": -1.0}}
    covered = {command: set() for command in cli._CONFIGS}
    for command, table in cli._CONFIGS.items():
        for k, (path, rng, data) in enumerate(
                _fuzz_cases(table, {**base_config(), **required.get(command, {})})):
            code, out = run(tmp_path, command, data, subdir=f"{command}{k}")
            err = capsys.readouterr().err
            # an int key at an infinite end is no integer; that message names it too
            assert code == 2 and err.startswith(f"error: {path} must "), (rng, data)
            assert not out.exists()
            covered[command].add(path)
    assert set(covered) == set(cli._COMMANDS) and all(covered.values())
    assert {"schema", "inertia_I0", "potential.b", "initial_state.rho", "tolerances.rho_floor",
            "options.mass_draws.lo", "options.mass_grid.m1", "options.start.v_sign",
            "options.max_step"} <= set().union(*covered.values())


def test_missing_and_malformed_config_files(tmp_path, capsys):
    code = cli.main(
        ["cc-collinear", "--config", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code = cli.main(["cc-collinear", "--config", str(garbled)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cc_collinear_output_is_deterministic(tmp_path):
    data = base_config()
    _, first = run(tmp_path, "cc-collinear", data, subdir="one")
    _, second = run(tmp_path, "cc-collinear", data, subdir="two")
    ref = (first / "cc_collinear.json").read_bytes()
    assert (second / "cc_collinear.json").read_bytes() == ref


def test_importing_the_command_line_loads_neither_scipy_nor_mpmath():
    # both are test-only oracles; a runtime import would cost every qh run
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, qhnbody.cli; print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_every_main_call_of_one_process_behaves_as_in_a_fresh_one(tmp_path, capsys):
    # the parser is built once per process; runs after other runs,
    # failed ones included, must give the exit code, the messages and
    # the files that a fresh process gives for the same arguments
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    good = str(write_config(tmp_path, base_config(), "good.json"))
    bad = str(write_config(tmp_path, base_config(options={"cases": 3}), "bad.json"))
    calls = [
        ["cc-collinear", "--config", good],
        ["eigen"],  # no --config: argparse exits
        ["cc-collinear", "--config", bad],
        ["eigen", "--config", good],
    ]
    fresh = [
        subprocess.Popen(
            [sys.executable, "-m", "qhnbody.cli", *argv, "--out", str(tmp_path / f"fresh{k}")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for k, argv in enumerate(calls)
    ]
    for k, (argv, proc) in enumerate(zip(calls, fresh)):
        here, there = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        try:
            code = cli.main([*argv, "--out", str(here)])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        want_out, want_err = proc.communicate(timeout=120)
        assert (code, err) == (proc.returncode, want_err)
        assert out.replace(str(here), str(there)) == want_out
        files = sorted(p.name for p in here.glob("*"))
        assert bool(files) == (code == 0)
        assert files == sorted(p.name for p in there.glob("*"))
        for name in files:
            assert (here / name).read_bytes() == (there / name).read_bytes()
    assert [proc.returncode for proc in fresh] == [0, 2, 2, 0]


# a hierarchical triple: a circular inner binary of masses 0.8 and 1.2 and
# a third body of mass 0.9 on a wide circular orbit at distance 6
TRIPLE = {
    "kind": "cartesian",
    "positions": [[-1.2620689655172415, 0.0], [-2.2620689655172415, 0.0],
                  [4.137931034482759, 0.0]],
    "momenta": [[0.0, 0.5062157214043473], [0.0, -0.9377326927411931],
                [0.0, 0.43151697133684574]],
}


@pytest.mark.parametrize("command, data, module", [
    ("simulate", base_config(masses=[0.8, 1.2, 0.9], b=1.5, initial_state=TRIPLE,
                             options={"t_span": [0.0, 4.0]}), cli),
    ("homothetic", HOMOTHETIC, homothetic),
])
def test_float_bodied_runs_write_the_bytes_of_the_array_path(tmp_path, monkeypatch, command,
                                                            data, module):
    # the second run's field has no float body, so integrate gives it arrays
    code, fast = run(tmp_path, command, data, subdir="fast")
    integrate = module.integrate

    def array_path(field_fn, *args, **kwargs):
        assert callable(field_fn.floats)
        return integrate(lambda t, y: field_fn(t, y), *args, **kwargs)

    monkeypatch.setattr(module, "integrate", array_path)
    assert (code, run(tmp_path, command, data, subdir="slow")[0]) == (0, 0)
    files = sorted(p.name for p in fast.glob("*"))
    assert any(name.endswith(".csv") for name in files)
    assert files == sorted(p.name for p in (tmp_path / "slow").glob("*"))
    for name in files:
        assert (fast / name).read_bytes() == (tmp_path / "slow" / name).read_bytes()


@pytest.mark.parametrize("value, name", [(object(), "object"), ({1.0, 2.0}, "set"), (1j, "complex")])
def test_the_json_writer_refuses_a_type_it_cannot_serialize_by_name(value, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        cli._json_text({"result": [value]})
