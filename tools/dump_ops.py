"""Dump the output of every benchmark operation, for a byte comparison of two trees.

    python3 tools/dump_ops.py OUT --seeds 11 12
    python3 tools/dump_ops.py OUT_OLD --tree ../parent --seeds 11 12
    python3 tools/compare_dumps.py OUT_OLD OUT

For each workload of bench/workloads.py and each seed, the operations are
built by workloads.build with a fixed budget of 20 s, the benchmark's
default, so every tree runs the same operations, and run in this process
one after the other.  Operation k of a workload at seed s writes
OUT/<workload>/seed<s>/<k>/:

    exit, stdout, stderr   a ``qh`` operation's exit code and output
    files/                 the files that operation wrote
    result                 a library operation's result, each field of its
                           CCResult with floats as repr (exact), or
    error                  the exception an operation raised
    check                  the benchmark's verdict on the output

A ``qh`` operation writes into work/out under a temporary working
directory, so the paths its stdout names are the same in every tree.
The script dumps the checkout it lives in, or with --tree PATH the
checkout at PATH: its src/ through its own bench/workloads.py, so the
script need not be copied there.  Compare two dumps with
tools/compare_dumps.py, which prints one line per workload and seed.
"""

from __future__ import annotations

import os
import sys

# One thread, as the benchmark runs: single-threaded BLAS before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BUDGET_S = 20.0


def _plain(value):
    """value with arrays, numpy scalars and dataclasses as lists, floats and dicts."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _recording(main, record: dict):
    """cli.main that also keeps each call's exit code, stdout and stderr in record."""

    def recorded(argv=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record.update(exit=f"{code}\n", stdout=out.getvalue(), stderr=err.getvalue())
        sys.stdout.write(out.getvalue())  # the operation reads what it wrote
        sys.stderr.write(err.getvalue())
        return code

    return recorded


def dump_op(op, out_dir: Path, work: Path, record: dict) -> None:
    """Run one operation and write what it did under out_dir."""
    shutil.rmtree(work / "out", ignore_errors=True)
    record.clear()
    out_dir.mkdir(parents=True)
    try:
        result = op.run()
    except Exception as exc:
        (out_dir / "error").write_text(f"{type(exc).__name__}: {exc}\n")
        result = None
    else:
        (out_dir / "check").write_text(f"{op.check(result) or 'ok'}\n")
    for name, text in record.items():
        (out_dir / name).write_text(text)
    if record:
        if (work / "out").is_dir():
            shutil.copytree(work / "out", out_dir / "files")
    elif result is not None:
        fields = _plain(result)
        (out_dir / "result").write_text("".join(f"{k} = {v!r}\n" for k, v in fields.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory to write the dump into; must not exist")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    parser.add_argument("--tree", type=Path, help="the checkout to dump (default: this script's)")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if out.exists():
        parser.error(f"{out} exists")
    tree = (args.tree or Path(__file__).resolve().parents[1]).resolve()
    for need in ("src/qhnbody", "bench/workloads.py"):
        if not (tree / need).exists():
            parser.error(f"--tree {tree} has no {need}")
    return dump(out, args.seeds, tree)


def dump(out: Path, seeds: list[int], tree: Path) -> int:
    """Dump every operation of each workload at each seed from the checkout at tree, whose
    src/ and bench/ come first on sys.path: no module of either is imported before."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads
    from qhnbody import cli

    record = {}
    cli.main = _recording(cli.main, record)
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            work = Path("work")
            for name in workloads.WORKLOADS:
                for seed in seeds:
                    ops = workloads.build(name, seed, BUDGET_S, work)
                    for k, op in enumerate(ops):
                        dump_op(op, out / name / f"seed{seed}" / f"{k:04d}", work, record)
                    print(f"{name} seed {seed}: {len(ops)} ops", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
