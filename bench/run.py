"""Benchmark of the qhnbody library and its ``qh`` command line.

One run executes one seeded workload in this process, on one thread,
closed loop: each operation starts when the previous one has returned
and its output has been checked.  The operations are built from the seed
before timing starts; their number is sized from --seconds (see
workloads.BLOCK_SECONDS), so the same seed and length always give the
same work.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the same operations once untraced and once traced and reports the
per-layer metrics and the tracing overhead.  Times on the result line
are in reference seconds (see calibrate()).  --all runs every workload
both ways, each in its own process.  The last line of a run is one JSON
object; README.md explains every metric.  A record of each run, with
its context and raw values, is written under .bench_runs/ at the root
of the checkout.
"""

from __future__ import annotations

import os
import sys

# One thread: QH_THREADS unset and single-threaded BLAS, before numpy loads.
os.environ.pop("QH_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("census", "sweep", "flow", "simulate")
SETUP_PROBES = 7
# Calibration: how often to time the reference loop between ops, and the
# loop's time that defines one reference second (about its time on an
# idle core of the 2-core machine the benchmark was built on).
CALIBRATE_EVERY_S = 0.2
REFERENCE_LOOP_S = 0.8e-3
# Share of the traced operation time that the library layers must account
# for; the rest is the benchmark's own code inside the operation spans.
COVERAGE = 0.99
P90_MIN_OPS = 100
# The end-to-end metrics on the result line, as BENCHMARK.json lists them.
END_TO_END = ("setup_s", "wall_s", "cpu_s", "op_p50_ms", "peak_rss_mb")


def load_library():
    """Import qhnbody from this checkout's src/, and nowhere else."""
    init = SRC / "qhnbody" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a qhnbody checkout")
    sys.path.insert(0, str(SRC))
    import qhnbody
    import qhnbody.cli  # noqa: F401

    if Path(qhnbody.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported qhnbody from {qhnbody.__file__}, not {init}")
    return qhnbody


# ---------------------------------------------------------------------------
# running operations

_LOOP_POSITIONS = np.random.default_rng(0).standard_normal((6, 2))


def calibrate() -> float:
    """Seconds taken by a fixed loop of small numpy and interpreter work.

    The shared machine the benchmark was built on switched between a fast
    and a slow speed every few seconds: 100-op windows of census took
    about 6 ms or about 10 ms per op, and whole runs differed by up to
    1.5x.  This loop looks like the library's pair kernel but does not
    call it.  Each op's time multiplied by REFERENCE_LOOP_S / (this
    loop's time around the op) is the op's time in reference seconds; on
    that machine it cut the spread of 2-second windows of a fixed solve
    from 14% to 4%.  The loop is timed five times and the median kept, so
    one preempted repeat does not skew the ops next to it.
    """
    r = _LOOP_POSITIONS
    i, j = np.triu_indices(6, 1)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(30):
            d = r[i] - r[j]
            f = d / np.sqrt((d * d).sum(axis=1))[:, None] ** 3
            g = np.zeros_like(r)
            np.add.at(g, i, f)
            np.add.at(g, j, -f)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_ops(ops, tracer=None) -> list[dict]:
    """Run ops in order; time each call and check its output afterwards.

    Between ops, the reference loop is timed every CALIBRATE_EVERY_S;
    each record's "loop_s" is the mean of the loop times just before and
    just after the op.
    """
    from qhnbody.errors import QHError
    from workloads import NumericalFailure

    records = []
    loops = [(time.perf_counter(), calibrate())]
    for op in ops:
        out, message, error = None, None, None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = tracer.op(op.run) if tracer else op.run()
            outcome = "ok"
        except (QHError, NumericalFailure) as exc:
            outcome, error, message = "failed", type(exc).__name__, str(exc)
        except Exception as exc:  # a crash is reported as an op result, not raised
            outcome, error, message = "crashed", type(exc).__name__, str(exc)
        t1, c1 = time.perf_counter(), time.process_time()
        nbytes = 0
        if outcome == "ok":
            message = op.check(out)
            nbytes = op.bytes_out(out)
            if message is not None:
                outcome = "wrong"
        records.append(
            {"kind": op.kind, "label": op.label, "t0": t0, "s": t1 - t0, "cpu_s": c1 - c0,
             "outcome": outcome, "error": error, "message": message, "bytes_out": nbytes}
        )
        if time.perf_counter() - loops[-1][0] >= CALIBRATE_EVERY_S:
            loops.append((time.perf_counter(), calibrate()))
    loops.append((time.perf_counter(), calibrate()))
    at = [t for t, _ in loops]
    for r in records:
        k = bisect.bisect_left(at, r["t0"])
        r["loop_s"] = 0.5 * (loops[k - 1][1] + loops[k][1])
    return records


def reference(records: list[dict], key: str) -> list[float]:
    """Each op's time (key "s" or "cpu_s") in reference seconds."""
    return [r[key] * REFERENCE_LOOP_S / r["loop_s"] for r in records]


def end_to_end(records: list[dict]) -> dict:
    """Times in reference seconds, then the same measured as they came."""
    wall = reference(records, "s")
    ms = [1e3 * s for s in wall]
    raw_ms = [1e3 * r["s"] for r in records]
    out = {
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(reference(records, "cpu_s")), "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (sum(r["outcome"] != "ok" for r in records) / len(records), "ratio"),
        "wall_measured_s": (sum(r["s"] for r in records), "s"),
        "cpu_measured_s": (sum(r["cpu_s"] for r in records), "s"),
        "op_p50_measured_ms": (statistics.median(raw_ms), "ms"),
    }
    if len(ms) >= P90_MIN_OPS:
        out["op_p90_ms"] = (statistics.quantiles(ms, n=10)[-1], "ms")
        out["op_p90_measured_ms"] = (statistics.quantiles(raw_ms, n=10)[-1], "ms")
    return out


def per_layer(summary: dict, traced: list[dict], untraced: list[dict]) -> dict:
    """The result-line metrics of a traced run, from Tracer.summary()."""
    from tracer import GROUPS

    wall_ms = 1e3 * sum(r["s"] for r in traced)
    ledger = summary["ledger_ms"]
    metrics = {k: (v, "ratio" if k.endswith(("frac", "per_step")) else "count")
               for k, v in summary["counts"].items()}
    metrics["cli.exit3"] = (sum(r["error"] == "NumericalFailure" for r in traced), "count")
    metrics["cli.bytes_out"] = (sum(r["bytes_out"] for r in traced), "count")
    metrics["model.pair_ms"] = (summary["times_ms"]["model.pair_ms"], "ms")
    for group in GROUPS:
        if group != "bench.self":
            metrics[f"{group}_pct"] = (100.0 * ledger[group] / wall_ms, "%")
    overhead = sum(reference(traced, "s")) - sum(reference(untraced, "s"))
    metrics["trace.overhead_s"] = (overhead, "s")
    library_ms = sum(v for g, v in ledger.items() if g != "bench.self")
    metrics["trace.coverage"] = (library_ms / wall_ms, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(args) -> list[dict]:
    """Seconds from interpreter start to first op ready, in fresh processes.

    Each probe times the reference loop itself once it is ready, since it
    may run on another core than this process.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready" or len(rest) != 1:
            raise SystemExit(f"error: set-up probe exited {code}")
        probes.append({"s": t1 - t0, "loop_s": float(rest[0])})
    return probes


# ---------------------------------------------------------------------------
# context of a run


def context(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git_sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git_sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--", "src", "bench"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
        "threads": 1,
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# entry points


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


def run_one(args) -> int:
    load_library()
    setup = measure_setup(args) if args.trace == 0 else []
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    work = RUNS / f"work-{os.getpid()}"
    try:
        import workloads

        RUNS.mkdir(exist_ok=True)
        record = {"context": context(args)}
        ops = workloads.build(args.workload, args.seed, budget, work)
        title = f"{args.workload}: {len(ops)} ops, seed {args.seed}"
        if args.trace == 0:
            records = run_ops(ops)
            metrics = {"setup_s": (statistics.median(reference(setup, "s")), "s"),
                       "setup_measured_s": (statistics.median(r["s"] for r in setup), "s"),
                       **end_to_end(records)}
            result_keys = END_TO_END
            record["setup_probes"] = setup
            _print_metrics(f"{title}, end to end", metrics)
        else:
            from tracer import Tracer

            untraced = run_ops(ops)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(ops, tracer)
            finally:
                tracer.restore()
            records = untraced + traced
            summary = tracer.summary()
            metrics = per_layer(summary, traced, untraced)
            result_keys = tuple(metrics)
            record["trace"] = summary
            _print_metrics(f"{title}, per layer", metrics)
            _print_metrics("  layer times (self, except integrate event/monitor: inclusive)",
                           {k: (v, "ms") for k, v in summary["times_ms"].items()})
            print(f"  tracing overhead {metrics['trace.overhead_s'][0]:.4f} s "
                  f"(untraced {sum(reference(untraced, 's')):.4f} s)")
            np.savez(RUNS / f"spans-{args.workload}.npz", **tracer.spans())

        bad = [r for r in records if r["outcome"] != "ok"]
        correct = not any(r["outcome"] in ("wrong", "crashed") for r in records)
        for r in bad[:10]:
            print(f"  {r['outcome']}: {r['kind']} {r['label']}: {r['error']}: {r['message']}")
        for r in records:
            if r["outcome"] == "ok":
                del r["label"], r["message"], r["error"]
        record.update(metrics={k: v for k, (v, _) in metrics.items()}, correct=correct, ops=records)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (RUNS / name).write_text(json.dumps(record, indent=1) + "\n")
        print(json.dumps({
            "correct": correct,
            "attempted": len(records),
            "failed": len(bad),
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in result_keys},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def probe(args) -> int:
    """Import the library and build the inputs, then report ready."""
    work = RUNS / f"probe-{os.getpid()}"
    try:
        load_library()
        import workloads

        workloads.build(args.workload, args.seed, args.seconds, work)
        print("ready", flush=True)
        print(calibrate(), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    table = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            table.append((name, trace, result))
    print("\nsummary")
    for name, trace, result in table:
        m = result["metrics"]
        shown = END_TO_END if trace == 0 else ("trace.overhead_s", "trace.coverage")
        cells = "  ".join(f"{k} {m[k]['value']:.4g} {m[k]['unit']}" for k in shown)
        print(f"  {name:9s} trace {trace}  correct {result['correct']}  "
              f"failed {result['failed']}/{result['attempted']}  {cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.probe:
        return probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
