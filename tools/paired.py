"""Paired benchmark runs of two trees, in alternating order, and their call counts.

    python3 tools/paired.py ../parent --workload flow --seeds 11 --pairs 10
    python3 tools/paired.py ../parent --workload census --pairs 10 --aa

Both sides run from fresh copies of their src/ and bench/, the parts
bench/run.py reads, made side by side under one temporary directory without
any __pycache__ or .bench_runs: OLD of OLD_TREE, NEW of this checkout, or
with --aa of OLD_TREE again, when the runs show the noise floor of the
measure.  So neither side starts from the other's compiled bytecode, run
history or path length.  Pair k runs ``bench/run.py --workload W --seed s
--trace 0`` once in each copy, each in a process of its own, at seed s =
seeds[k % len(seeds)]; even pairs run OLD first and odd pairs NEW first, so
the machine's drift falls on both sides alike.  For each end-to-end metric
of BENCHMARK.json one line reads

    <metric>  old <median> [<q1>, <q3>]  new <median> [<q1>, <q3>]
              <change of the median>  won <w>/<N>  old IQR <iqr> (<% of median>)

where won counts the pairs in which NEW is better than OLD in the metric's
direction.  A move is told apart from noise only when it wins nearly every
pair and the change of the median exceeds the old IQR.

Beside the times, a cost the machine's drift cannot move: the cProfile
primitive calls of one in-process pass of the ops that bench/workloads.build
makes for W at the first seed, in each copy, loaded as tools/dump_ops.py
--tree loads them (one tree's src/ and bench/ per process).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUDGET_S = 20.0  # the benchmark's default length, as tools/dump_ops.py builds the ops

# run in a process of its own: argv[1] the tree, argv[2] the workload, argv[3] the seed
_PROFILE = """
import cProfile, os, pstats, sys, tempfile
from pathlib import Path
tree = Path(sys.argv[1])
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
import workloads
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    ops = workloads.build(sys.argv[2], int(sys.argv[3]), %r, Path("work"))
    profiler = cProfile.Profile()
    stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
    try:
        for op in ops:
            profiler.runcall(op.run)
    finally:
        sys.stdout = stdout
    print(len(ops), pstats.Stats(profiler).prim_calls)
""" % BUDGET_S


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one ``bench/run.py --trace 0`` run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def profile_calls(tree: Path, workload: str, seed: int) -> tuple[int, int]:
    """(ops, primitive calls) of one cProfile'd pass of the workload's ops in tree."""
    argv = [sys.executable, "-c", _PROFILE, str(tree), workload, str(seed)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    ops, calls = out.split()
    return int(ops), int(calls)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of values, linear between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def metric_line(name: str, lower_better: bool, old: list[float], new: list[float]) -> str:
    """The summary line of one metric over paired runs."""
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    won = sum(n < o if lower_better else n > o for o, n in zip(old, new))
    change = f"{100.0 * (nm - om) / om:+.1f}%" if om else "n/a"
    spread = f"{100.0 * (o3 - o1) / om:.1f}%" if om else "n/a"
    return (f"{name:12s} old {om:.4g} [{o1:.4g}, {o3:.4g}]  new {nm:.4g} [{n1:.4g}, {n3:.4g}]  "
            f"{change}  won {won}/{len(old)}  old IQR {o3 - o1:.4g} ({spread})")


def _copy_tree(tree: Path, into: Path) -> Path:
    """A copy of tree's src/ and bench/ under into, the parts bench/run.py reads."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_runs")
    for part in ("src", "bench"):
        shutil.copytree(tree / part, into / part, ignore=skip)
    return into


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path, help="the reference checkout, such as the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[11])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--aa", action="store_true",
                        help="run OLD_TREE against a copy of itself: the noise floor")
    args = parser.parse_args(argv)
    old_tree = args.old_tree.resolve()
    for need in ("src/qhnbody", "bench/run.py", "bench/workloads.py"):
        if not (old_tree / need).exists():
            parser.error(f"{old_tree} has no {need}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        old_copy = _copy_tree(old_tree, Path(tmp) / "old")
        new_copy = _copy_tree(old_tree if args.aa else ROOT, Path(tmp) / "new")
        old, new = [], []
        for k in range(args.pairs):
            seed = args.seeds[k % len(args.seeds)]
            order = [(old_copy, old), (new_copy, new)]
            for tree, into in order if k % 2 == 0 else order[::-1]:
                into.append(run_bench(tree, args.workload, seed))
        label = "A/A, a copy of OLD" if args.aa else "NEW"
        print(f"{args.workload}: {args.pairs} pairs, seeds {args.seeds}, OLD {old_tree}, {label}")
        for metric in spec:
            name = metric["name"]
            print(metric_line(name, metric["better"] == "lower",
                              [run[name] for run in old], [run[name] for run in new]))
        counted = [profile_calls(tree, args.workload, args.seeds[0]) for tree in (old_copy, new_copy)]
    (ops, old_calls), (_, new_calls) = counted
    print(f"{'calls':12s} old {old_calls:,}  new {new_calls:,}  {new_calls - old_calls:+,} "
          f"({100.0 * (new_calls - old_calls) / old_calls:+.2f}%) over {ops} ops, "
          f"{old_calls / ops:,.0f} / {new_calls / ops:,.0f} per op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
