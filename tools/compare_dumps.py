"""Compare two dumps of tools/dump_ops.py byte for byte, one line per workload and seed.

    python3 tools/compare_dumps.py OLD NEW

An operation is a directory OLD/<workload>/seed<s>/<k>/.  It differs when
one of its files differs in bytes, or is present on one side only; an
operation present on one side only differs as a whole.  Each line reads

    <workload> seed<s>: <ops> ops, <d> differing[, first <path>]

where ops counts the operations of either side and path is the first
differing file (or operation) in sorted order.  The exit code is 1 when
any operation differs and 0 otherwise; dumps with no operation at all
exit 2, since an empty comparison shows nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _dirs(path: Path) -> set[str]:
    """The names of the directories in path; none when path is not one."""
    return {p.name for p in path.iterdir() if p.is_dir()} if path.is_dir() else set()


def _files(op: Path) -> dict[str, Path]:
    """Every file under op, by its path relative to op."""
    return {p.relative_to(op).as_posix(): p for p in op.rglob("*") if p.is_file()}


def first_difference(old: Path, new: Path, name: str) -> str | None:
    """The first path under operation name that differs between old and new, or None."""
    if not (new / name).is_dir():
        return f"{name} (only in OLD)"
    if not (old / name).is_dir():
        return f"{name} (only in NEW)"
    old_files, new_files = _files(old / name), _files(new / name)
    for rel in sorted(old_files.keys() | new_files.keys()):
        if rel not in old_files or rel not in new_files:
            return f"{name}/{rel} (only in {'OLD' if rel in old_files else 'NEW'})"
        if old_files[rel].read_bytes() != new_files[rel].read_bytes():
            return f"{name}/{rel}"
    return None


def compare(old: Path, new: Path) -> list[tuple[str, int, list[str]]]:
    """(workload seed<s>, ops, differing paths) for each workload and seed of either dump."""
    rows = []
    for workload in sorted(_dirs(old) | _dirs(new)):
        for seed in sorted(_dirs(old / workload) | _dirs(new / workload)):
            group = f"{workload}/{seed}"
            ops = sorted(_dirs(old / group) | _dirs(new / group))
            found = (first_difference(old, new, f"{group}/{op}") for op in ops)
            rows.append((f"{workload} {seed}", len(ops), [path for path in found if path]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the dump of the reference tree")
    parser.add_argument("new", type=Path, help="the dump of the tree under test")
    args = parser.parse_args(argv)
    for path in (args.old, args.new):
        if not path.is_dir():
            parser.error(f"{path} is not a directory")
    rows = compare(args.old, args.new)
    if not any(ops for _, ops, _ in rows):
        parser.error("no operation in either dump")
    for label, ops, differing in rows:
        first = f", first {differing[0]}" if differing else ""
        print(f"{label}: {ops} ops, {len(differing)} differing{first}")
    return 1 if any(differing for _, _, differing in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
