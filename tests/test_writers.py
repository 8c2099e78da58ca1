"""The one-pass JSON and CSV writers against the recursive ones they replaced.

_reference_json_text and _reference_write_csv are the writers as they
were when every float went through its own call: the reference for the
byte-identity of every qh output.  Each subcommand's payload and tables,
and a set of edge values, must come out byte for byte the same.
"""

import csv
import json
import math

import numpy as np
import pytest

from qhnbody import cli


def _reference_json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_reference_json_text(obj[k], indent + 1)}'
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad}  {_reference_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        return _reference_json_text(obj.tolist(), indent)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return json.dumps(repr(x))
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_write_csv(path, header, body):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") for v in row] for row in body.tolist())
    return path


def _same_csv(tmp_path, header, body):
    new = cli._write_csv(tmp_path / "new.csv", header, body).read_bytes()
    ref = _reference_write_csv(tmp_path / "ref.csv", header, body).read_bytes()
    assert new == ref


_POT = {"a": 1.0, "b": 3.0, "alpha": 1.0, "beta": 0.5}
_RUNS = {
    "cc-collinear": {"masses": [1.0, 2.0, 3.0, 4.0], "options": {"mass_draws": {"trials": 2}}},
    "cc-planar3": {"masses": [1.0, 2.0, 3.0]},
    "simultaneous": {"masses": [1.0, 2.0, 3.0],
                     "options": {"mass_grid": {"m1": [0.5, 1.5], "m2": [0.5, 1.5], "points": 3}}},
    "simulate": {"masses": [1.0, 1.0], "potential": {**_POT, "b": 1.5},
                 "initial_state": {"kind": "cartesian", "positions": [[0.5, 0.0], [-0.5, 0.0]],
                                   "momenta": [[0.0, 0.6], [0.0, -0.6]]},
                 "options": {"t_span": [0.0, 0.5]}},
    "collision-flow": {"masses": [1.0, 2.0, 3.0],
                       "options": {"start": [{"perturbation_scale": 0.05, "seed": 1},
                                             {"shape": {"ordering": [1, 3, 2]}, "seed": 2}],
                                   "tau_max": 0.1}},
    "eigen": {"masses": [1.0, 2.0, 3.0]},
    "homothetic": {"masses": [1.0, 1.0, 1.0], "energy_h": -1.0},
}


def test_the_runs_cover_every_subcommand():
    assert set(_RUNS) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_every_subcommand_writes_what_the_recursive_writers_wrote(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema": 1, "potential": _POT, **_RUNS[command]}))
    cfg = cli.RunConfig.from_file(str(config), command)
    payload, tables = cli._COMMANDS[command](cfg)
    summary = {**cli._header(cfg, command), **payload}
    assert cli._json_text(summary) == _reference_json_text(summary)
    for _, header, body in tables:
        _same_csv(tmp_path, header, body)


def test_edge_values_are_written_as_the_recursive_writers_wrote_them(tmp_path, rng):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e16,
               0.1, 1.0 / 3.0, -2.5e-300, 123456789012345678.0]
    # finite doubles over the whole exponent range, from random bit patterns
    doubles = rng.integers(-2**63, 2**63 - 1, size=400, dtype=np.int64).view(np.float64)
    doubles = doubles[np.isfinite(doubles)]
    payload = {
        "floats": special,
        "doubles": doubles,
        "mixed": [1, 2.5, True, False, None, -0.0, math.nan, np.float64(3.25), np.int64(7),
                  np.bool_(True), "text", 10**20],
        "ints": [1, 2, 3],
        "bools": np.array([True, False]),
        "empty_list": [],
        "empty_array": np.array([]),
        "empty_rows": np.empty((0, 2)),
        "column": np.array(special)[:, None],
        "pairs": np.array(special[:10]).reshape(5, 2),
        # finite float arrays, which fill a template per shape, among them -0.0 and 5e-324
        "rank1": np.array([-0.0, 5e-324, 0.1, -2.5e-300]),
        "rank1_one": np.array([1.0 / 3.0]),
        "rank2": np.concatenate([[-0.0, 5e-324], doubles[:4]]).reshape(3, 2),
        "rank3": doubles[:24].reshape(2, 3, 4),
        "rank3_again": doubles[24:48].reshape(2, 3, 4),
        "nested_arrays": [np.array([[-0.0, 5e-324]]), {"k": doubles[:6].reshape(3, 2)}],
        "zero_d": np.array(2.5),
        "zero_d_nan": np.array(math.nan),
        "three_empty_rows": np.empty((3, 0)),
        "float32": np.array([0.1, -0.0], dtype=np.float32),
        "ints_array": np.array([[1, -2], [3, 10**15]]),
        "nested": [[], [1.0, [2.0, math.inf]], {"k": [-0.0]}, ()],
        "tuple": (1.0, 2.0),
        "scalars": {"nan": math.nan, "inf": math.inf, "np": np.float64(-0.0), "int": np.int32(4)},
        "empty_dict": {},
        "quote \" back\\ \u00e9 \u2603 \n": ["tab\t", "\u00fc", ""],
    }
    assert cli._json_text(payload) == _reference_json_text(payload)
    for value in (math.nan, -math.inf, -0.0, 1e-310, np.float32(0.1), doubles[0]):
        assert cli._json_text(value) == _reference_json_text(value)
    body = np.array(special[:10] + list(doubles[:10])).reshape(4, 5)
    _same_csv(tmp_path, ["a", "b", "c", "d", "e"], body)
    _same_csv(tmp_path, ["a", "b"], np.empty((0, 2)))
    _same_csv(tmp_path, ["k", "n"], np.array([[1, 2], [-3, 10**15]]))
    _same_csv(tmp_path, ["x"], np.array(special)[:, None])
