"""Compare two dumps of tools/dump_ops.py, one line per workload and seed.

    python3 tools/compare_dumps.py OLD NEW
    python3 tools/compare_dumps.py OLD NEW --rel 1e-6

An operation is a directory OLD/<workload>/seed<s>/<k>/.  It differs when
one of its files differs in bytes, or is present on one side only; an
operation present on one side only differs as a whole.  Each line reads

    <workload> seed<s>: <ops> ops, <d> differing[, first <path>]

where ops counts the operations of either side and path is the first
differing file (or operation) in sorted order.  The exit code is 1 when
any operation differs and 0 otherwise; dumps with no operation at all
exit 2, since an empty comparison shows nothing.

With --rel R a differing operation is within R when both sides hold the
same files, every file but the JSON, CSV and result outputs (exit,
stdout, stderr, check, error) is identical, and

  - each JSON file has the same keys and the same non-float values, and
    each float is within R of the larger magnitude of the two;
  - each CSV file has the same header, and its last row holds the same
    non-numeric cells and numbers within R.  Row counts may differ;
  - each result file has the same ``k = repr`` lines in the same order,
    each value read back and compared as a JSON value under its key k: a
    census solve's ordering, index and counts exactly, its positions, sigma
    and eigenvalues within R.  A value that does not read back (inf, nan)
    must match as text.

The floats of the keys and columns named in ROUNDING_LEVEL (conserved-
quantity residuals, energy drifts and defects, a central configuration's
residual, a root's function value, and the gap between two computations
of one size) sit at rounding level, where a relative bound means nothing;
each of those is within R when the two differ by at most R absolutely.
An eigenvalue list, under a key named in EIGENVALUE_LISTS, may hold zero
modes at rounding level beside eigenvalues of order one; each of its
floats is within R when the two differ by at most R times the largest
finite magnitude in the list on either side.  Each line then
also reads ``<w> within R`` and the summed CSV row counts of both sides,
and names the first operation beyond R with the reason.  The exit code is 0 when no operation is beyond R.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import sys
from pathlib import Path

# the keys and CSV columns of rounding-level values, compared under --rel
# by an absolute bound R
ROUNDING_LEVEL = frozenset({
    "energy_residual_max", "angmom_residual_max", "energy_residual", "angmom_residual",
    "manifold_residual_max", "manifold_residual", "k_drift", "k_defect", "rho_max_gap",
    "cc_defect", "residual", "max_residual", "f_at_root",
})
# the keys of eigenvalue lists (of [re, im] pairs for exponents and spectrum),
# compared under --rel within R of the list's largest magnitude
EIGENVALUE_LISTS = frozenset({
    "hessian_eigenvalues", "exponents", "spectrum", "restricted_eigenvalues",
})


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


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _magnitudes(value) -> list[float]:
    """The finite magnitudes of the numbers in value, a number or a nested list."""
    if isinstance(value, list):
        return [size for item in value for size in _magnitudes(item)]
    return [abs(value)] if _number(value) and math.isfinite(value) else []


def _values_beyond(old, new, rel: float, name: str, scale: float | None = None) -> str | None:
    """Why the value old, under key or column name, is not new within rel, or None.

    Two ints must be equal; a pair with a float is within rel when |old -
    new| <= rel * max(|old|, |new|), or <= rel * scale with scale given (an
    eigenvalue list's largest magnitude), or <= rel for a name in ROUNDING_LEVEL."""
    if isinstance(old, float) or isinstance(new, float):
        if not (_number(old) and _number(new)):
            return f"{name}: {old!r} -> {new!r}"
        diff = abs(old - new)
        if name in ROUNDING_LEVEL:
            return None if diff <= rel else f"{name}: {old!r} -> {new!r}, absolute {diff:.1e}"
        size = max(abs(old), abs(new)) if scale is None else scale
        if repr(old) == repr(new) or diff <= rel * size:
            return None
        return f"{name}: {old!r} -> {new!r}, relative {diff / size:.1e}"
    if type(old) is not type(new) or old != new:
        return f"{name}: {old!r} -> {new!r}"
    return None


def _json_beyond(old, new, rel: float, name: str = "", scale: float | None = None) -> str | None:
    """Why the JSON value new is not old within rel, or None; name is the
    nearest key, which decides a float's bound, and scale the largest
    magnitude of the eigenvalue list that holds the value, if any."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return f"{name}: keys {sorted(old)} -> {sorted(new)}"
        found = (_json_beyond(old[key], new[key], rel, key) for key in sorted(old))
        return next((why for why in found if why), None)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{name}: {len(old)} -> {len(new)} values"
        if scale is None and name in EIGENVALUE_LISTS:
            scale = max(_magnitudes(old) + _magnitudes(new), default=0.0)
        found = (_json_beyond(a, b, rel, name, scale) for a, b in zip(old, new))
        return next((why for why in found if why), None)
    return _values_beyond(old, new, rel, name, scale)


def _cell(text: str):
    """A CSV cell as an int or float when it reads as one, else the text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def _csv_beyond(old: list, new: list, rel: float) -> str | None:
    """Why the CSV rows new are not old within rel (same header, last row within rel), or None."""
    if old[:1] != new[:1]:
        return "header differs"
    if len(old) < 2 or len(new) < 2:
        return None if len(old) == len(new) else f"{len(old) - 1} -> {len(new) - 1} rows"
    header, last_old, last_new = old[0], old[-1], new[-1]
    if not len(header) == len(last_old) == len(last_new):
        return "last row has another number of cells"
    found = (_values_beyond(_cell(a), _cell(b), rel, column)
             for column, a, b in zip(header, last_old, last_new))
    return next((f"last row {why}" for why in found if why), None)


def _result_fields(text: str) -> list[tuple[str, object]]:
    """The (key, value) lines of a result file, each value read back from its
    repr, or kept as text where it does not read back (inf, nan)."""
    fields = []
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        try:
            value = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            pass
        fields.append((key, value))
    return fields


def _result_beyond(old: str, new: str, rel: float) -> str | None:
    """Why the result file new is not old within rel (the same keys in order,
    each value within rel as a JSON value under its key), or None."""
    old_fields, new_fields = _result_fields(old), _result_fields(new)
    keys = [key for key, _ in old_fields], [key for key, _ in new_fields]
    if keys[0] != keys[1]:
        return f"keys {keys[0]} -> {keys[1]}"
    found = (_json_beyond(a, b, rel, key) for (key, a), (_, b) in zip(old_fields, new_fields))
    return next((why for why in found if why), None)


def beyond(old: Path, new: Path, rel: float) -> tuple[str | None, int, int]:
    """(why operation new is not operation old within rel, or None; the CSV
    rows of old; the CSV rows of new)."""
    if not (old.is_dir() and new.is_dir()):
        return "present on one side only", 0, 0
    old_files, new_files = _files(old), _files(new)
    if old_files.keys() != new_files.keys():
        return f"files {sorted(old_files)} -> {sorted(new_files)}", 0, 0
    why, rows = None, [0, 0]
    for rel_path in sorted(old_files):
        a, b = old_files[rel_path].read_bytes(), new_files[rel_path].read_bytes()
        if rel_path.endswith(".csv"):
            tables = _csv_rows(old_files[rel_path]), _csv_rows(new_files[rel_path])
            rows = [count + max(len(table) - 1, 0) for count, table in zip(rows, tables)]
            found = None if a == b else _csv_beyond(*tables, rel)
        elif a == b:
            continue
        elif rel_path.endswith(".json"):
            found = _json_beyond(json.loads(a), json.loads(b), rel)
        elif rel_path == "result":
            found = _result_beyond(a.decode(), b.decode(), rel)
        else:
            found = "differs"
        if found and why is None:
            why = f"{rel_path}: {found}"
    return why, *rows


def compare(old: Path, new: Path, rel: float | None = None) -> list[tuple]:
    """(workload seed<s>, ops, differing paths) for each workload and seed of
    either dump; with rel also (ops within rel, CSV rows of old, of new,
    the first operation beyond rel with its reason or None)."""
    rows = []
    for workload in sorted(_dirs(old) | _dirs(new)):
        for seed in sorted(_dirs(old / workload) | _dirs(new / workload)):
            group = f"{workload}/{seed}"
            ops = sorted(_dirs(old / group) | _dirs(new / group))
            found = [(op, first_difference(old, new, f"{group}/{op}")) for op in ops]
            row = (f"{workload} {seed}", len(ops), [path for _, path in found if path])
            if rel is not None:
                within, old_rows, new_rows, first = 0, 0, 0, None
                for op, path in found:
                    why, a, b = beyond(old / group / op, new / group / op, rel)
                    old_rows, new_rows = old_rows + a, new_rows + b
                    if path and why is None:
                        within += 1
                    elif path and first is None:
                        first = f"{group}/{op}/{why}"
                row += (within, old_rows, new_rows, first)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the dump of the reference tree")
    parser.add_argument("new", type=Path, help="the dump of the tree under test")
    parser.add_argument("--rel", type=float, metavar="R",
                        help="accept JSON and CSV numbers within R relative (see above)")
    args = parser.parse_args(argv)
    for path in (args.old, args.new):
        if not path.is_dir():
            parser.error(f"{path} is not a directory")
    if args.rel is not None and not args.rel >= 0.0:
        parser.error(f"--rel must be a number >= 0, got {args.rel!r}")
    rows = compare(args.old, args.new, args.rel)
    if not any(row[1] for row in rows):
        parser.error("no operation in either dump")
    for label, ops, differing, *within in rows:
        line = f"{label}: {ops} ops, {len(differing)} differing"
        if within:
            count, old_rows, new_rows, first = within
            line += f", {count} within {args.rel:g}, CSV rows {old_rows} -> {new_rows}"
            line += f", first beyond {first}" if first else ""
        elif differing:
            line += f", first {differing[0]}"
        print(line)
    if args.rel is not None:
        return 1 if any(row[3] != len(row[2]) for row in rows) else 0
    return 1 if any(differing for _, _, differing in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
