"""The repository's command-line tools, on small inputs built in a temp directory."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_dumps, compare_trees, paired = (_tool(name) for name in (
    "compare_dumps", "compare_trees", "paired"))


def write_dump(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


DUMP = {
    "census/seed11/0000/result": "sigma = -1.5\n",
    "census/seed11/0001/result": "sigma = -2.5\n",
    "census/seed12/0000/error": "BracketError: no sign change\n",
    "flow/seed11/0000/exit": "0\n",
    "flow/seed11/0000/files/flow.json": "{}\n",
    "flow/seed11/0001/exit": "3\n",
}


def test_identical_dumps_compare_equal(tmp_path, capsys):
    old, new = (write_dump(tmp_path / side, DUMP) for side in ("old", "new"))
    assert compare_dumps.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == ("census seed11: 2 ops, 0 differing\n"
                                       "census seed12: 1 ops, 0 differing\n"
                                       "flow seed11: 2 ops, 0 differing\n")


def test_each_kind_of_difference_is_counted_per_workload_and_seed(tmp_path, capsys):
    old = write_dump(tmp_path / "old", DUMP)
    new = write_dump(tmp_path / "new", {
        **{rel: text for rel, text in DUMP.items() if not rel.startswith("flow/seed11/0001/")},
        "census/seed11/0001/result": "sigma = -2.5000000000000004\n",
        "census/seed12/0000/check": "ok\n",
        "flow/seed11/0002/exit": "0\n",
    })
    assert compare_dumps.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out == (
        "census seed11: 2 ops, 1 differing, first census/seed11/0001/result\n"
        "census seed12: 1 ops, 1 differing, first census/seed12/0000/check (only in NEW)\n"
        "flow seed11: 3 ops, 2 differing, first flow/seed11/0001 (only in OLD)\n")


def test_an_empty_comparison_is_refused(tmp_path, capsys):
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    with pytest.raises(SystemExit) as exc:
        compare_dumps.main([str(tmp_path / "old"), str(tmp_path / "new")])
    assert exc.value.code == 2
    assert "no operation in either dump" in capsys.readouterr().err


def _flow_op(v_end=-5.2255768647877918, steps=123_456_789, residual=2.8e-14, check="ok", last=0.25):
    """One collision-flow operation of a dump, with the values a test moves."""
    summary = {"manifold_residual_max": residual, "masses": [1, 2, 3], "steps": steps,
               "termination": "time-budget", "v_end": v_end, "shape": [[-0.5, 0.0], [0.5, 0.0]]}
    return {
        "flow/seed11/0000/exit": "0\n",
        "flow/seed11/0000/check": f"{check}\n",
        "flow/seed11/0000/files/flow.json": json.dumps(summary, indent=2) + "\n",
        "flow/seed11/0000/files/flow.csv": ("tau,v,manifold_residual\n0,-5.2,1e-15\n"
                                            f"{last!r},-5.3,3e-15\n"),
    }


R = 1e-6


@pytest.mark.parametrize("change, within", [
    ({"v_end": -5.2255768647877918 * (1.0 + 10 * R)}, False),  # a float off by 10 R
    ({"steps": 123_456_790}, False),  # a changed int, though within R as a float
    ({"check": "energy residual 1e-3 above 1e-8"}, False),  # a changed verdict
    ({"last": 0.25 * (1.0 + 10 * R)}, False),  # the CSV's last row off by 10 R
    ({"v_end": -5.2255768647877918 * (1.0 + R / 10)}, True),  # a float off by R / 10
    ({"residual": 2e-6}, False),  # a residual off by 2 R absolutely
    ({"residual": 7.1e-14}, True),  # a residual off by far more than R relatively
    ({"last": 0.25 * (1.0 + R / 10)}, True),
])
def test_the_tolerance_mode_accepts_only_floats_within_r(tmp_path, capsys, change, within):
    old = write_dump(tmp_path / "old", _flow_op())
    new = write_dump(tmp_path / "new", _flow_op(**change))
    assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == (0 if within else 1)
    out = capsys.readouterr().out
    assert out.startswith(f"flow seed11: 1 ops, 1 differing, {int(within)} within 1e-06, "
                          "CSV rows 2 -> 2")
    assert ("first beyond flow/seed11/0000/" in out) != within
    # byte mode still reports every differing operation
    assert compare_dumps.main([str(old), str(new)]) == 1


def test_the_tolerance_mode_prints_row_counts_that_may_differ(tmp_path, capsys):
    old = write_dump(tmp_path / "old", _flow_op())
    longer = _flow_op()
    longer["flow/seed11/0000/files/flow.csv"] = ("tau,v,manifold_residual\n0,-5.2,1e-15\n"
                                                 "0.1,-5.25,2e-15\n0.25,-5.3,3e-15\n")
    new = write_dump(tmp_path / "new", longer)
    assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == 0
    assert capsys.readouterr().out == (
        "flow seed11: 1 ops, 1 differing, 1 within 1e-06, CSV rows 2 -> 3\n")


def test_the_tolerance_mode_refuses_other_files_and_headers(tmp_path, capsys):
    old = write_dump(tmp_path / "old", _flow_op())
    for rel, text in (("flow/seed11/0000/stdout", "wrote flow.csv\n"),
                      ("flow/seed11/0000/files/flow.csv", "tau,w,manifold_residual\n0,-5.2,0\n")):
        new = write_dump(tmp_path / rel.replace("/", "_"), {**_flow_op(), rel: text})
        assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == 1
        assert "0 within 1e-06" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["gap", "shape_distance", "v_distance", "rho_floor"])
def test_the_tolerance_mode_bounds_gaps_distances_and_floors_relatively(tmp_path, capsys, key):
    # only the keys of rounding-level values take an absolute bound: a
    # simultaneous gap off by 10 R, in its JSON or in its CSV, is beyond R
    def op(value):
        return {
            "sweep/seed11/0000/exit": "0\n",
            "sweep/seed11/0000/files/simultaneous.json":
                json.dumps({"orderings": [{"ordering": [1, 2, 3], key: value}]}) + "\n",
            "sweep/seed11/0000/files/simultaneous_grid.csv": f"m1,{key}\n1.0,{value!r}\n",
        }

    old = write_dump(tmp_path / "old", op(0.027))
    for changed in ("json", "csv"):
        new = op(0.027)
        moved = op(0.027 * (1.0 + 10 * R))
        name = next(path for path in new if path.endswith(changed))
        new[name] = moved[name]
        new = write_dump(tmp_path / changed, new)
        assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == 1
        assert "relative 1.0e-05" in capsys.readouterr().out


def _sweep_op(key, values, f_at_root=-2.2e-16):
    """One sweep operation of a dump: an eigenvalue list under key, with a
    root's function value beside it."""
    summary = {key: values, "f_at_root": f_at_root, "index": 1}
    return {"sweep/seed11/0000/exit": "0\n",
            "sweep/seed11/0000/files/cc_planar3.json": json.dumps(summary) + "\n"}


_EIGENVALUES = [-8.9e-15, 2.7, 11.5]
_PAIRS = [[-8.9e-15, 0.0], [1.25, -2.5], [1.25, 2.5]]  # exponents and spectra as [re, im]


@pytest.mark.parametrize("key, values, within", [
    # a rotation's zero mode moving at rounding level, as when the kernel's
    # last bits move: far beyond R of itself, within R of the list's largest
    ("hessian_eigenvalues", [-3.6e-15, 2.7, 11.5], True),
    ("restricted_eigenvalues", [1.27e-14, 2.7, 11.5], True),
    ("exponents", [[-3.6e-15, 0.0], *_PAIRS[1:]], True),
    ("spectrum", [[-8.9e-15, 1e-14], *_PAIRS[1:]], True),
    # a nonzero eigenvalue, or a real or imaginary part, moved by 10 R
    ("hessian_eigenvalues", [-8.9e-15, 2.7 * (1.0 + 10 * R), 11.5], False),
    ("restricted_eigenvalues", [-8.9e-15, 2.7, 11.5 * (1.0 + 10 * R)], False),
    ("exponents", [_PAIRS[0], [1.25, -2.5 * (1.0 + 10 * R)], _PAIRS[2]], False),
    ("spectrum", [_PAIRS[0], _PAIRS[1], [1.25 * (1.0 + 10 * R), 2.5]], False),
])
def test_the_tolerance_mode_bounds_an_eigenvalue_list_by_its_largest_magnitude(
        tmp_path, capsys, key, values, within):
    old_values = _PAIRS if key in ("exponents", "spectrum") else _EIGENVALUES
    old = write_dump(tmp_path / "old", _sweep_op(key, old_values))
    new = write_dump(tmp_path / "new", _sweep_op(key, values))
    assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == (0 if within else 1)
    out = capsys.readouterr().out
    assert out.startswith(f"sweep seed11: 1 ops, 1 differing, {int(within)} within 1e-06")
    assert (f"cc_planar3.json: {key}: " in out) != within


def test_the_tolerance_mode_bounds_a_root_s_function_value_absolutely(tmp_path, capsys):
    # f at a root is rounding-level: -2.2e-16 -> 4.4e-16 is within R, 2 R is not
    old = write_dump(tmp_path / "old", _sweep_op("spectrum", _PAIRS))
    for f_at_root, within in ((4.4e-16, True), (2 * R, False)):
        new = write_dump(tmp_path / str(f_at_root), _sweep_op("spectrum", _PAIRS, f_at_root))
        assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == (0 if within else 1)
        assert ("f_at_root: " in capsys.readouterr().out) != within


def _census_op(x=-0.5598206393294167, index=0, residual=1.8189894035458565e-12):
    """One census operation of a dump: a solve's result, with the values a test moves."""
    result = {"config": {"positions": [[x, 0.0], [0.4999172994739529, 0.0]]},
              "sigma": -1126.058513216983, "residual": residual, "index": index,
              "hess_eigs": [24541.44438018995, float("inf")],
              "ordering": {"perm": (1, 2)}, "sigma1": None, "newton_iters": 3}
    return {"census/seed11/0000/check": "ok\n",
            "census/seed11/0000/result": "".join(f"{k} = {v!r}\n" for k, v in result.items())}


@pytest.mark.parametrize("change, within", [
    ({"x": math.nextafter(-0.5598206393294167, 0.0)}, True),  # a position one ulp off
    ({"residual": 1.8e-12 + R / 2}, True),  # a residual off by R / 2 absolutely
    ({"x": -0.5598206393294167 * (1.0 + 10 * R)}, False),
    ({"residual": 2e-6}, False),
    ({"index": 1}, False),  # a changed index
])
def test_the_tolerance_mode_compares_census_results_field_by_field(tmp_path, capsys, change,
                                                                    within):
    old = write_dump(tmp_path / "old", _census_op())
    new = write_dump(tmp_path / "new", _census_op(**change))
    assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == (0 if within else 1)
    out = capsys.readouterr().out
    assert out.startswith(f"census seed11: 1 ops, 1 differing, {int(within)} within 1e-06")
    assert ("first beyond census/seed11/0000/result: " in out) != within


def test_the_tolerance_mode_refuses_a_census_result_with_other_keys(tmp_path, capsys):
    old = write_dump(tmp_path / "old", _census_op())
    text = _census_op()["census/seed11/0000/result"].replace("sigma1 = None\n", "")
    new = write_dump(tmp_path / "new", {**_census_op(), "census/seed11/0000/result": text})
    assert compare_dumps.main([str(old), str(new), "--rel", str(R)]) == 1
    assert "result: keys [" in capsys.readouterr().out


def test_dump_ops_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "workloads.py").write_text("")
    script = TOOLS / "dump_ops.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path / "out"), "--tree",
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"error: --tree {tmp_path.resolve()} has no src/qhnbody\n")
    assert not (tmp_path / "out").exists()


def test_compare_trees_dumps_the_other_tree_then_this_one_and_prints_the_comparison(
        tmp_path, capsys, monkeypatch):
    # the dumps are stubbed: the other tree's is DUMP, this checkout's moves one result
    parent = tmp_path / "parent"
    for need in ("src/qhnbody/__init__.py", "bench/workloads.py"):
        write_dump(parent, {need: ""})
    calls = []

    def dump(out, seeds, tree=None):
        calls.append((out.name, seeds, tree))
        moved = {"census/seed11/0001/result": "sigma = -2.5000000000000004\n"} if tree is None else {}
        write_dump(out, {**DUMP, **moved})

    monkeypatch.setattr(compare_trees, "dump", dump)
    assert compare_trees.main([str(parent), "--seeds", "11", "12"]) == 1
    assert calls == [("old", [11, 12], parent.resolve()), ("new", [11, 12], None)]
    assert capsys.readouterr().out == (
        "census seed11: 2 ops, 1 differing, first census/seed11/0001/result\n"
        "census seed12: 1 ops, 0 differing\n"
        "flow seed11: 2 ops, 0 differing\n")
    # --rel goes to compare_dumps, which reads the moved sigma as within R
    assert compare_trees.main([str(parent), "--rel", "1e-6"]) == 0
    assert "1 differing, 1 within 1e-06" in capsys.readouterr().out


def test_compare_trees_refuses_a_tree_without_the_package(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        compare_trees.main([str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {tmp_path.resolve()} has no src/qhnbody\n")


def _stub_paired(monkeypatch, wall):
    """Stub paired's runs: each run of a tree returns its next wall_s from wall[side]
    (every other metric reads 1.0), and the call counts are 1,000 and 1,100.  A run
    records (side, workload, seed, tree, the tree's files) while its copy exists."""
    calls = []

    def run_bench(tree, workload, seed):
        side = tree.name
        files = sorted(str(path.relative_to(tree)) for path in tree.rglob("*") if path.is_file())
        calls.append((side, workload, seed, tree, files))
        metrics = {name: 1.0 for name in ("setup_s", "cpu_s", "op_p50_ms", "peak_rss_mb")}
        return {**metrics, "wall_s": wall[side][sum(c[0] == side for c in calls) - 1]}

    monkeypatch.setattr(paired, "run_bench", run_bench)
    monkeypatch.setattr(paired, "profile_calls",
                        lambda tree, workload, seed: (10, 1000 if tree.name == "old" else 1100))
    return calls


def _parent_tree(tmp_path):
    """A stub parent checkout with the files paired needs, a cached module and a run record."""
    parent = tmp_path / "parent"
    for need in ("src/qhnbody/__init__.py", "bench/run.py", "bench/workloads.py",
                 "src/qhnbody/__pycache__/model.cpython-311.pyc", "bench/.bench_runs/run.json",
                 "tests/test_model.py"):
        write_dump(parent, {need: ""})
    return parent


def test_paired_alternates_the_trees_and_summarises_each_metric(tmp_path, capsys, monkeypatch):
    parent = _parent_tree(tmp_path)
    wall = {"old": [1.0, 2.0, 3.0, 4.0], "new": [0.9, 2.1, 2.5, 3.0]}
    calls = _stub_paired(monkeypatch, wall)
    assert paired.main([str(parent), "--workload", "flow", "--seeds", "11", "12", "--pairs", "4"]) == 0
    # even pairs run the old tree first, odd pairs the new one; seeds cycle per pair
    assert [(side, seed) for side, _, seed, _, _ in calls] == [
        ("old", 11), ("new", 11), ("new", 12), ("old", 12),
        ("old", 11), ("new", 11), ("new", 12), ("old", 12)]
    # both sides run from fresh copies side by side in one temporary directory:
    # the parent's src/ and bench/ without its bytecode or run records, and
    # this checkout's
    ((old_copy, old_files),), ((new_copy, new_files),) = (
        {(tree, tuple(files)) for s, _, _, tree, files in calls if s == side} for side in ("old", "new"))
    assert old_copy.parent == new_copy.parent and not old_copy.exists()
    assert old_files == ("bench/run.py", "bench/workloads.py", "src/qhnbody/__init__.py")
    assert "src/qhnbody/model.py" in new_files
    assert all(f.startswith(("src/", "bench/")) and "__pycache__" not in f for f in new_files)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("flow: 4 pairs, seeds [11, 12], OLD ")
    # old quartiles of 1..4 are 1.75, 2.5, 3.25; new 1.8, 2.3, 2.625; NEW wins pairs 1, 3, 4
    assert "wall_s       old 2.5 [1.75, 3.25]  new 2.3 [1.8, 2.625]  -8.0%  won 3/4  " \
           "old IQR 1.5 (60.0%)" in lines
    assert "cpu_s        old 1 [1, 1]  new 1 [1, 1]  +0.0%  won 0/4  old IQR 0 (0.0%)" in lines
    assert lines[-1] == "calls        old 1,000  new 1,100  +100 (+10.00%) over 10 ops, 100 / 110 per op"


def test_paired_aa_runs_the_old_tree_against_a_copy_of_itself(tmp_path, capsys, monkeypatch):
    parent = _parent_tree(tmp_path)
    calls = _stub_paired(monkeypatch, {"old": [1.0, 2.0], "new": [1.0, 2.0]})
    assert paired.main([str(parent), "--workload", "census", "--pairs", "2", "--aa"]) == 0
    copies = {tree for *_, tree, _ in calls}
    assert len(copies) == 2 and len({tree.parent for tree in copies}) == 1
    assert {tuple(files) for *_, files in calls} == {
        ("bench/run.py", "bench/workloads.py", "src/qhnbody/__init__.py")}
    assert "won 0/2" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        paired.main([str(tmp_path), "--workload", "census"])
    assert exc.value.code == 2
