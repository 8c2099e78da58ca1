"""The four seeded workloads: inputs, operations and output checks.

Each workload is a list of operations built from a seed before timing
starts.  An operation calls the library or the ``qh`` command line once;
its check then compares the output with a bound the repository already
uses, outside the timed region.  Library functions are looked up on
their modules at call time (``central_config.solve_collinear_ordering``),
never imported by name, so that the tracer's wrappers are the ones
called.

Why each workload exists, and which layers it is meant to move, is in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from qhnbody import central_config, cli
from qhnbody.model import MassSystem, PotentialParams

POTENTIAL = {"a": 1.0, "b": 3.0, "alpha": 1.0, "beta": 0.5}
# With b = 3 eccentric Cartesian orbits plunge into collision and the step
# size underflows; b = 1.5 keeps them bounded.
SIM_POTENTIAL = {"a": 1.0, "b": 1.5, "alpha": 1.0, "beta": 0.5}
# Masses linspace(1, 2, 6) with ordering (1,2,6,4,5,3): Newton reaches the
# rounding floor and wanders there until its iteration budget runs out.
REPRODUCER = (np.linspace(1.0, 2.0, 6), (1, 2, 6, 4, 5, 3))

# Output bounds, as the repository's tests state them.
CC_RESIDUAL = 1e-10
MANIFOLD_RESIDUAL = 1e-6
K_DRIFT = 1e-9
RHO_MAX_GAP = 1e-6
ENERGY_RESIDUAL = 1e-8
# A residual of dU - sigma dI cannot be certified below the rounding
# error of its own terms; this multiple of eps times the largest sum of
# force magnitudes on one body bounds that error with a wide margin.
ROUNDING_MULTIPLE = 32.0

# Cost in seconds of one block of each workload on 2 cores with CPython
# 3.11 and numpy 2.4, at the slow end of what that shared machine gave
# (its speed varied by up to 2x).  A run holds as many blocks as fit its
# time budget, so the same seed and budget give the same work.
BLOCK_SECONDS = {"census": 4.5, "sweep": 1.4, "flow": 1.8, "simulate": 2.3}


class NumericalFailure(Exception):
    """The command line reported a numerical failure (exit code 3)."""


@dataclass
class Op:
    """One timed call with the check of its output.

    run() returns the output; check(output) returns None when the output
    meets its bounds and a message when it does not.  label names the
    inputs, so runs can be compared op by op.
    """

    kind: str
    label: str
    run: object
    check: object
    bytes_out: object = field(default=lambda out: 0)


def _canonical(n: int) -> list[tuple[int, ...]]:
    return [p for p in permutations(range(1, n + 1)) if p <= p[::-1]]


def stratified(rng, count: int, lo: float, hi: float, dims: int | None = None) -> np.ndarray:
    """count draws from U[lo, hi], one in each of count equal slices of the
    range, in random order (per coordinate when dims is given: a Latin
    hypercube).  Every run then covers the input ranges evenly, so runs on
    different seeds do different work of about the same cost."""
    d = 1 if dims is None else dims
    u = (np.argsort(rng.random((d, count)), axis=1).T + rng.random((count, d))) / count
    x = lo + (hi - lo) * u
    return x[:, 0] if dims is None else x


def _spread_choice(rng, options: list, count: int) -> list:
    """count picks that use every option equally often, in random order."""
    return [options[k] for k in rng.permutation(np.resize(rng.permutation(len(options)), count))]


def line_residual(x: np.ndarray, masses: np.ndarray) -> tuple[float, float]:
    """Residual of dU = sigma dI on a line and its rounding floor.

    Computed here from the formulas rather than by the library, so the
    check does not trust the code it checks.
    """
    a, b, alpha, beta = (POTENTIAL[k] for k in ("a", "b", "alpha", "beta"))
    diff = x[:, None] - x[None, :]
    dist = np.abs(diff)
    np.fill_diagonal(dist, np.inf)
    mm = masses[:, None] * masses[None, :]
    w = 0.5 * float(np.sum(alpha * mm * dist ** (-a)))
    v = 0.5 * float(np.sum(beta * mm * dist ** (-b)))
    inertia = float(np.sum(masses * x * x))
    sigma = -(a * w + b * v) / (2.0 * inertia)
    pair = mm * (a * alpha * dist ** (-a - 2.0) + b * beta * dist ** (-b - 2.0))
    grad = -np.sum(pair * diff, axis=1)
    constraint = sigma * 2.0 * masses * x
    res = float(np.abs(grad - constraint).max())
    force_sum = np.sum(pair * np.abs(diff), axis=1) + np.abs(constraint)
    floor = ROUNDING_MULTIPLE * np.finfo(float).eps * float(force_sum.max())
    return res, floor


def check_collinear(x, masses, perm, index) -> str | None:
    res, floor = line_residual(np.asarray(x, float), np.asarray(masses, float))
    bound = max(CC_RESIDUAL, floor)
    if not res < bound:
        return f"ordering {perm}: residual {res:.3e} not below {bound:.3e}"
    if index != 0:
        return f"ordering {perm}: collinear index {index}, expected 0"
    xs = np.asarray(x, float)[[k - 1 for k in perm]]
    if not np.all(np.diff(xs) > 0.0):
        return f"ordering {perm}: bodies out of order"
    return None


# ---------------------------------------------------------------------------
# census: per-ordering Newton solves at n = 5 and 6


def _census_op(masses: np.ndarray, perm: tuple, pp: PotentialParams) -> Op:
    q = central_config.CCQuery(ms=MassSystem(masses), pp=pp)
    ordering = central_config.Ordering(perm)

    def check(res):
        return check_collinear(res.config.positions[:, 0], masses, perm, res.index)

    return Op(
        kind=f"solve n={masses.size}",
        label=f"{np.round(masses, 6).tolist()} {perm}",
        run=lambda: central_config.solve_collinear_ordering(ordering, q),
        check=check,
    )


# Draws per block and orderings solved per draw.  Stalls cluster on some
# mass draws, so many draws with a sample of orderings each keep the run
# time steadier from seed to seed than a few full censuses would.
CENSUS_DRAWS = {5: (4, 15), 6: (6, 60)}


def census(rng, blocks: int, work: Path) -> list[Op]:
    pp = PotentialParams(**POTENTIAL)
    masses = {n: stratified(rng, blocks * draws, 0.2, 5.0, n) for n, (draws, _) in CENSUS_DRAWS.items()}
    ops = [_census_op(REPRODUCER[0], REPRODUCER[1], pp)]
    for b in range(blocks):
        for n, (draws, per_draw) in CENSUS_DRAWS.items():
            orderings = _canonical(n)
            for m in masses[n][b * draws:(b + 1) * draws]:
                picks = rng.choice(len(orderings), size=per_draw, replace=False)
                ops += [_census_op(m, orderings[k], pp) for k in sorted(picks)]
    return ops


# ---------------------------------------------------------------------------
# command-line operations


def _cli_op(work: Path, command: str, config: dict, check, label: str) -> Op:
    text = json.dumps(config)
    path = work / "cfg" / f"{hashlib.sha1(text.encode()).hexdigest()[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    out_dir = work / "out"
    argv = [command, "--config", str(path), "--out", str(out_dir)]

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code == 3:
            raise NumericalFailure(stderr.getvalue().strip())
        if code != 0:
            raise RuntimeError(f"qh {command} exited {code}: {stderr.getvalue().strip()}")
        return [Path(p) for p in re.findall(r"^wrote (.+)$", stdout.getvalue(), re.M)]

    def checked(paths):
        docs = {p.name: p for p in paths}
        return check(docs)

    return Op(
        kind=f"qh {command}",
        label=label,
        run=run,
        check=checked,
        bytes_out=lambda paths: sum(p.stat().st_size for p in paths),
    )


def _load(docs: dict, name: str) -> dict:
    return json.loads(docs[name].read_text())


def _csv_column(path: Path, column: str) -> np.ndarray:
    lines = path.read_text().splitlines()
    k = lines[0].split(",").index(column)
    return np.array([float(line.split(",")[k]) for line in lines[1:]])


def _base(masses, pot=POTENTIAL, **extra) -> dict:
    return {"schema": 1, "masses": [float(m) for m in masses], "potential": dict(pot), **extra}


def _check_cc_collinear(masses):
    def check(docs):
        doc = _load(docs, "cc_collinear.json")
        expected = math.factorial(len(masses)) // 2
        if doc["count"] != expected:
            return f"count {doc['count']}, expected {expected}"
        bound = CC_RESIDUAL
        for r in doc["results"]:
            x = np.array(r["positions"])[:, 0]
            msg = check_collinear(x, masses, tuple(r["ordering"]), r["index"])
            if msg:
                return msg
            bound = max(bound, line_residual(x, np.asarray(masses))[1])
        if not doc["max_residual"] < bound:
            return f"max_residual {doc['max_residual']:.3e} not below {bound:.3e}"
        return None

    return check


def _check_planar3(docs):
    cert = _load(docs, "cc_planar3.json")["side_certificate"]
    if cert["sign_changes"] != 1:
        return f"side certificate has {cert['sign_changes']} sign changes"
    return None


def _check_simultaneous(points):
    def check(docs):
        doc = _load(docs, "simultaneous.json")
        gaps = np.array([r["gap"] for r in doc["results"]], dtype=float)
        grid = _csv_column(docs["simultaneous_grid.csv"], "gap")
        if grid.size != points * points:
            return f"grid has {grid.size} rows, expected {points * points}"
        if not (np.all(np.isfinite(gaps)) and np.all(np.isfinite(grid))):
            return "a gap is not finite"
        return None

    return check


def _check_eigen(cases):
    def check(docs):
        eq = _load(docs, "eigen.json")["equilibria"]
        if len(eq) != 2 * cases:
            return f"{len(eq)} equilibria, expected {2 * cases}"
        return None

    return check


def sweep(rng, blocks: int, work: Path) -> list[Op]:
    ops = []
    points = 11
    m3s, m4s, p3s = (stratified(rng, blocks, 0.5, 2.0, n) for n in (3, 4, 3))
    los, widths = stratified(rng, blocks, 0.3, 0.8, 2), stratified(rng, blocks, 1.0, 2.0, 2)
    grid_m3 = stratified(rng, blocks, 0.5, 1.5)
    perms = _spread_choice(rng, _canonical(3), blocks)
    for m3, m4, p3, lo, width, gm3, perm in zip(m3s, m4s, p3s, los, widths, grid_m3, perms):
        hi = lo + width
        grid = {
            "m1": [float(lo[0]), float(hi[0])],
            "m2": [float(lo[1]), float(hi[1])],
            "m3": float(gm3),
            "points": points,
            "ordering": list(perm),
        }
        ops.append(_cli_op(work, "simultaneous", _base(m3, options={"mass_grid": grid}),
                           _check_simultaneous(points), f"grid {grid}"))
        for masses in (m3, m4):
            label = f"{np.round(masses, 6).tolist()}"
            ops.append(_cli_op(work, "cc-collinear", _base(masses),
                               _check_cc_collinear(masses), label))
            cases = len(_canonical(masses.size)) + (masses.size == 3)
            ops.append(_cli_op(work, "eigen", _base(masses), _check_eigen(cases), label))
        # Two cc-planar3 runs make seven ops a block, so the median op falls
        # inside the eigen n = 3 group, not on the edge between two groups.
        for masses in (m3, p3):
            ops.append(_cli_op(work, "cc-planar3", _base(masses), _check_planar3,
                               f"{np.round(masses, 6).tolist()}"))
    return ops


# ---------------------------------------------------------------------------
# flow: collision-manifold runs and homothetic orbits


def _check_collision_flow(docs):
    doc = _load(docs, "collision_flow.json")
    if not doc["manifold_residual_max"] < MANIFOLD_RESIDUAL:
        return f"manifold residual {doc['manifold_residual_max']:.3e}"
    if doc["v_monotone_nonincreasing"] is not True:
        return "v increased along the flow"
    return None


def _check_homothetic(docs):
    doc = _load(docs, "homothetic.json")
    if doc["termination"] != "event:floor":
        return f"terminated by {doc['termination']}"
    if not doc["k_drift"] < K_DRIFT:
        return f"k_drift {doc['k_drift']:.3e}"
    if not doc["rho_max_gap"] < RHO_MAX_GAP:
        return f"rho_max_gap {doc['rho_max_gap']:.3e}"
    return None


# The seed draws the size of each perturbation and the energy of each
# homothetic orbit.  Masses, the n = 4 ordering and the perturbation
# directions are fixed: seeded, they made the cost of one flow vary by
# +-25% between seeds.  Each flow stops at tau_max, short of the
# separation event (near tau = 0.65 for n = 3 and 0.06 for n = 4), so one
# flow takes under a second; the homothetic orbit locates its events.
FLOW_MASSES = {3: [1.0, 2.0, 3.0], 4: [1.0, 2.0, 3.0, 4.0]}
FLOW_ORDERING = [1, 2, 3, 4]
FLOW_TAU_MAX = {3: 0.25, 4: 0.03}


def flow(rng, blocks: int, work: Path) -> list[Op]:
    tolerances = {"rel_tol": 1e-12, "abs_tol": 1e-14}
    ops = []
    scales = {n: stratified(rng, blocks, 0.02, 0.08) for n in (3, 4)}
    shapes = {3: "equilateral", 4: {"ordering": FLOW_ORDERING}}
    energies = stratified(rng, blocks, -2.0, -0.5)
    for b in range(blocks):
        for n in (3, 4):
            start = {
                "shape": shapes[n],
                "v_sign": -1,
                "perturbation_scale": float(scales[n][b]),
                "seed": b,
            }
            cfg = _base(FLOW_MASSES[n], options={"start": start, "tau_max": FLOW_TAU_MAX[n]},
                        tolerances=tolerances)
            ops.append(_cli_op(work, "collision-flow", cfg, _check_collision_flow, f"n={n} {start}"))
        # Unit masses and h <= -0.5: the setting where the command line's
        # own test states k_drift < 1e-9.
        h = float(energies[b])
        cfg = _base([1.0, 1.0, 1.0], energy_h=h, options={"shape": "equilateral"})
        ops.append(_cli_op(work, "homothetic", cfg, _check_homothetic, f"h={h}"))
    return ops


# ---------------------------------------------------------------------------
# simulate: plain Cartesian integration with monitors and CSV output


def _two_body(e: float) -> tuple[list, list, list]:
    """Unit masses released at apocentre with nominal eccentricity e."""
    total, mu = 2.0, 0.5
    speed = np.sqrt(total * (1.0 - e))
    rel, vel = np.array([1.0, 0.0]), np.array([0.0, speed])
    return [1.0, 1.0], [list(0.5 * rel), list(-0.5 * rel)], [list(mu * vel), list(-mu * vel)]


def _triple(m1: float, m2: float, m3: float, dist: float) -> tuple[list, list, list]:
    """A circular inner binary with a third body on a wide circular orbit."""
    inner, big = m1 + m2, m1 + m2 + m3
    mu_in, mu_out = m1 * m2 / inner, inner * m3 / big
    p_in = mu_in * np.array([0.0, np.sqrt(inner)])
    p_out = mu_out * np.array([0.0, np.sqrt(big / dist)])
    c_in = -m3 / big * np.array([dist, 0.0])
    pos = [c_in + [m2 / inner, 0.0], c_in + [-m1 / inner, 0.0], inner / big * np.array([dist, 0.0])]
    mom = [p_in - p_out * m1 / inner, -p_in - p_out * m2 / inner, p_out]
    return [m1, m2, m3], [list(p) for p in pos], [list(p) for p in mom]


def _check_simulate(docs):
    doc = _load(docs, "simulate.json")
    if doc["termination"] != "time-budget":
        return f"terminated by {doc['termination']}"
    if not doc["energy_residual_max"] < ENERGY_RESIDUAL:
        return f"energy residual {doc['energy_residual_max']:.3e}"
    return None


def simulate(rng, blocks: int, work: Path) -> list[Op]:
    ops = []
    ecc = stratified(rng, 2 * blocks, 0.1, 0.4)
    triples = np.column_stack([stratified(rng, blocks, 0.5, 1.5, 3), stratified(rng, blocks, 5.0, 7.0)])
    for b in range(blocks):
        orbits = [_two_body(ecc[2 * b]), _two_body(ecc[2 * b + 1]), _triple(*triples[b])]
        for masses, pos, mom in orbits:
            state = {"kind": "cartesian", "positions": pos, "momenta": mom}
            cfg = _base(masses, SIM_POTENTIAL, initial_state=state, options={"t_span": [0.0, 4.0]})
            ops.append(_cli_op(work, "simulate", cfg, _check_simulate,
                               f"{np.round(masses, 6).tolist()} {pos} {mom}"))
    return ops


WORKLOADS = {"census": census, "sweep": sweep, "flow": flow, "simulate": simulate}


def build(name: str, seed: int, budget_s: float, work: Path) -> list[Op]:
    """The operations of one run: as many blocks as fit budget_s."""
    blocks = max(1, round(budget_s / BLOCK_SECONDS[name]))
    return WORKLOADS[name](np.random.default_rng(seed), blocks, work)
