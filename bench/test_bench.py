"""Self-tests of the benchmark: determinism, the tracer, the checks.

    python3 -m pytest bench -q

They run small slices of each workload, so they take about half a
minute; the library's own suite under tests/ does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import run

run.load_library()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK_COUNTERS = (
    "integrate.steps",
    "integrate.field_evals",
    "model.field_evals",
    "mcgehee.field_evals",
    "central_config.newton_iters",
)

# A few operations of each workload, enough to reach every layer it uses:
# the census slice holds the stalling reproducer and a few n = 5 and n = 6
# solves.
SLICES = {
    "census": lambda ops: ops[:4] + ops[61:64],  # ops 1-60 are n = 5
    "sweep": lambda ops: ops,
    "flow": lambda ops: ops[1:],
    "simulate": lambda ops: ops[2:],
}


def _ops(name: str, seed: int, work: Path):
    return SLICES[name](workloads.build(name, seed, 0.0, work))


@lru_cache(maxsize=None)
def traced_run(name: str, seed: int, attempt: int):
    """One traced pass over a workload slice: (summary, records)."""
    work = Path(__file__).resolve().parents[1] / ".bench_runs" / f"test-{name}-{seed}-{attempt}"
    try:
        ops = _ops(name, seed, work)
        tracer = Tracer()
        tracer.install()
        try:
            records = run.run_ops(ops, tracer)
        finally:
            tracer.restore()
        return tracer.summary(), records
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_repeats_work_counters_and_failures(name):
    (first, rec1), (second, rec2) = traced_run(name, 5, 0), traced_run(name, 5, 1)
    for key in WORK_COUNTERS:
        assert first["counts"][key] == second["counts"][key], key
    assert [r["bytes_out"] for r in rec1] == [r["bytes_out"] for r in rec2]
    assert [(r["label"], r["outcome"]) for r in rec1] == [(r["label"], r["outcome"]) for r in rec2]
    assert all(r["outcome"] != "wrong" and r["outcome"] != "crashed" for r in rec1)


def test_work_counters_reach_the_layers_each_workload_exercises():
    census, _ = traced_run("census", 5, 0)
    assert census["counts"]["central_config.newton_iters"] > 0
    assert census["counts"]["central_config.solve_fail"] == 1  # the reproducer
    assert census["counts"]["central_config.wasted_iter_frac"] > 0.0
    assert census["counts"]["integrate.calls"] == 0
    flow, records = traced_run("flow", 5, 0)
    for key in ("mcgehee.field_evals", "mcgehee.renorm_calls", "integrate.event_evals", "integrate.steps"):
        assert flow["counts"][key] > 0, key
    assert sum(r["bytes_out"] for r in records) > 0
    simulate, _ = traced_run("simulate", 5, 0)
    assert simulate["counts"]["model.field_evals"] == simulate["counts"]["integrate.field_evals"] > 0
    assert simulate["counts"]["integrate.monitor_evals"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_another_seed_changes_the_inputs(name, tmp_path):
    labels = [[op.label for op in _ops(name, seed, tmp_path / str(seed))] for seed in (5, 5, 6)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2]


def test_tracer_restores_every_wrapped_name():
    modules = {k: m for k, m in sys.modules.items() if k == "qhnbody" or k.startswith("qhnbody.")}
    before = {(k, attr): value for k, m in modules.items() for attr, value in vars(m).items()}
    originals = {
        "model": sys.modules["qhnbody.model"].grad_V,
        "mcgehee": sys.modules["qhnbody.mcgehee"].grad_V,
        "cli": sys.modules["qhnbody.cli"].integrate,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert sys.modules["qhnbody.mcgehee"].grad_V is not originals["mcgehee"]
        assert sys.modules["qhnbody.model"].grad_V is not originals["model"]
        assert sys.modules["qhnbody.cli"].integrate is not originals["cli"]
    finally:
        tracer.restore()
    after = {(k, attr): value for k, m in modules.items() for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_sum_to_the_traced_wall_time(name):
    summary, records = traced_run(name, 5, 0)
    ledger_ms = sum(summary["ledger_ms"].values())
    wall_ms = 1e3 * sum(r["s"] for r in records)
    assert ledger_ms == pytest.approx(summary["ops_ms"], rel=1e-9)
    assert ledger_ms <= wall_ms
    library_ms = ledger_ms - summary["ledger_ms"]["bench.self"]
    assert library_ms >= run.COVERAGE * wall_ms


def test_checks_flag_wrong_outputs(tmp_path):
    masses, perm = np.array([1.0, 2.0, 3.0]), (1, 2, 3)
    q = workloads.central_config.CCQuery(
        ms=workloads.MassSystem(masses), pp=workloads.PotentialParams(**workloads.POTENTIAL)
    )
    res = workloads.central_config.solve_collinear_ordering(workloads.central_config.Ordering(perm), q)
    x = res.config.positions[:, 0]
    assert workloads.check_collinear(x, masses, perm, 0) is None
    assert "residual" in workloads.check_collinear(x * (1 + 1e-7), masses, perm, 0)
    assert "index" in workloads.check_collinear(x, masses, perm, 1)
    assert "order" in workloads.check_collinear(x, masses, (2, 1, 3), 0)
    doc = tmp_path / "simulate.json"
    doc.write_text(json.dumps({"termination": "time-budget", "energy_residual_max": 2e-8}))
    assert "energy" in workloads._check_simulate({"simulate.json": doc})


def test_fails_without_the_library(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    shutil.copytree(repo / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_result_lines_carry_the_metrics_benchmark_json_lists():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    summary, records = traced_run("census", 5, 0)
    metrics = run.per_layer(summary, records, records)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["per_layer"])


def test_reference_seconds_scale_each_op_by_the_loop_time_around_it():
    records = [{"s": 0.02, "cpu_s": 0.01, "loop_s": 2 * run.REFERENCE_LOOP_S, "outcome": "ok"},
               {"s": 0.03, "cpu_s": 0.03, "loop_s": run.REFERENCE_LOOP_S, "outcome": "failed"}]
    metrics = run.end_to_end(records)
    assert metrics["wall_s"][0] == pytest.approx(0.01 + 0.03)
    assert metrics["cpu_s"][0] == pytest.approx(0.005 + 0.03)
    assert metrics["wall_measured_s"][0] == pytest.approx(0.05)
    assert metrics["failed_frac"][0] == 0.5
    assert 0.0 < run.calibrate() < 1.0
