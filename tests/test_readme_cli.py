"""Every `hyperlab` line of the README's CLI block runs with the exit
status the README documents: 1 where its comment says "exits 1", else 0."""

import json
import re
import shlex
from pathlib import Path

import pytest

from hyperlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_block() -> list:
    text = README.read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return block.splitlines()


COMMANDS = [line for line in _cli_block() if line.startswith("hyperlab ")]


def test_readme_cli_block_is_found():
    assert len(COMMANDS) == 17
    assert "printf '0 3 6 9\\n' > set.txt" in _cli_block()


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_cli_line(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("set.txt").write_text("0 3 6 9\n")  # the README's printf line
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == (1 if "exits 1" in line else 0)
    if "--out" not in argv:
        json.loads(capsys.readouterr().out)
