"""Dump another checkout and this one, and compare the dumps, in one command.

    python3 tools/compare_trees.py ../parent
    python3 tools/compare_trees.py ../parent --seeds 11 12 --rel 1e-6

OLD_TREE is dumped by tools/dump_ops.py --tree OLD_TREE and this checkout
by tools/dump_ops.py, each in a process of its own (a process imports the
qhnbody of one tree only), into a temporary directory removed afterwards.
Then tools/compare_dumps.py prints its line per workload and seed, and its
exit code is this command's: 0 when no operation differs (or, with --rel,
every difference is within R), 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent


def _compare_dumps():
    spec = importlib.util.spec_from_file_location("compare_dumps", TOOLS / "compare_dumps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump(out: Path, seeds: list[int], tree: Path | None = None) -> None:
    """Run tools/dump_ops.py into out, of the checkout at tree or of this one."""
    argv = [sys.executable, str(TOOLS / "dump_ops.py"), str(out), "--seeds", *map(str, seeds)]
    subprocess.run(argv + (["--tree", str(tree)] if tree else []), check=True,
                   stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path, help="the reference checkout, such as the parent")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    parser.add_argument("--rel", help="passed on to compare_dumps.py --rel")
    args = parser.parse_args(argv)
    old_tree = args.old_tree.resolve()
    for need in ("src/qhnbody", "bench/workloads.py"):
        if not (old_tree / need).exists():
            parser.error(f"{old_tree} has no {need}")
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp) / "old", Path(tmp) / "new"
        dump(old, args.seeds, old_tree)
        dump(new, args.seeds)
        return _compare_dumps().main([str(old), str(new)]
                                     + (["--rel", args.rel] if args.rel else []))


if __name__ == "__main__":
    sys.exit(main())
