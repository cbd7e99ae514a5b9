"""The measuring tools under tools/ run on this checkout.  Each prints one
``<count>  <label>`` line per item and then their total; both import
nothing but the package source beside them (code_lines reads it as text,
settable_values imports the CLI parser and config.PROBE_FIELDS)."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("tool", ["code_lines.py", "settable_values.py"])
def test_tool_prints_integer_counts_and_their_total(tool):
    out = subprocess.run([sys.executable, str(TOOLS / tool)], capture_output=True,
                         text=True, check=True).stdout
    rows = [line.split(None, 1) for line in out.splitlines()]
    counts = [int(count) for count, _ in rows]
    assert len(rows) >= 2 and rows[-1][1] == "total"
    assert counts[-1] == sum(counts[:-1]) and min(counts) > 0
