"""Smoke runs of the experiment scripts in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, csv, rows",
    [
        ("moulton_census.py", ["--n", "3", "--trials", "1"], "census/census.csv", 3),
        ("collision_portrait.py", ["--trials", "2", "--tau-max", "1"], "portrait/portrait.csv", 2),
    ],
)
def test_script_runs_and_writes_its_csv(tmp_path, script, args, csv, rows):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len((tmp_path / csv).read_text().splitlines()) == 1 + rows
