"""The repository's command-line tools, on small inputs built in a temp directory."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_dumps", Path(__file__).resolve().parents[1] / "tools" / "compare_dumps.py")
compare_dumps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_dumps)


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
