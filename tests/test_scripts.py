"""Smoke runs of the scripts in scripts/: each one runs in a subprocess
at small sizes, must exit 0, and must write JSON of its documented
schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (arguments, schema, other top-level keys, nonempty list key)
SCRIPTS = {
    "residual_convergence.py": (
        ["--grids", "1024,2048"],
        "residual-table/1", {"grids", "ratio_bound"}, "rows"),
    "run_classification.py": (
        ["--window", "200", "--samples", "2000"],
        "classification/1", {"seed", "window", "flagged"}, "rows"),
    "ubd_surrogate.py": (
        ["--window", "2000", "--count", "3"],
        "ubd-surrogate/1", {"window", "count", "min_len"}, "results"),
}


def test_every_script_has_a_smoke_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs_and_writes_its_schema(name, tmp_path):
    args, schema, keys, listed = SCRIPTS[name]
    out = tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == schema
    assert keys <= set(doc)
    assert isinstance(doc[listed], list) and doc[listed]
