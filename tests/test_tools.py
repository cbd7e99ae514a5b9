"""The measuring tools under tools/ run on this checkout.  Each prints one
``<count>  <label>`` line per item and then their total; both import
nothing but the package source beside them (code_lines reads it as text,
settable_values imports the CLI parser and config.PROBE_FIELDS).
capture_artifacts prints one sha256 per item; its float-masked lines are
checked on a small document and on its first battery item."""

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


CAPTURE_CHECK = """
import itertools, sys
sys.path.insert(0, sys.argv[1])
import capture_artifacts as capture
from hyperlab.jsonio import stable_dumps
base = {"verdict": "yes", "flags": [], "evidence": {"radius": 0.25, "count": 3, "exact": True}}
def moved(**change):
    doc = {**base, "evidence": {**base["evidence"], **change}}
    return capture.masked_sha(stable_dumps(doc)) != capture.masked_sha(stable_dumps(base))
print(moved(radius=0.25000000000000006), moved(radius=1e300), moved(count=4),
      moved(exact=False), moved(radius="0.25"), moved(radius=1))
(first, name), (masked, masked_name) = itertools.islice(capture.battery_items(), 2)
print(masked_name == name + " floats masked", masked != first)
"""


def test_capture_masks_every_float_and_nothing_else():
    # each classification_run line of tools/capture_artifacts.py is followed
    # by the sha256 of its JSON with every float masked: a float that moves
    # keeps that line, a moved count, flag, string or type does not
    out = subprocess.run([sys.executable, "-c", CAPTURE_CHECK, str(TOOLS)],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["False", "False", "True", "True", "True", "True", "True", "True"]
