"""Print the settable values of hyperlab: three counts, then their total.

Usage, from any directory:

    python3 tools/settable_values.py

A settable value is a knob a caller can turn without editing the code:

* a field of a config probe, counted over config.PROBE_FIELDS;
* a flag of a leaf command of the CLI, counted without --help and the
  five global flags every command shares (--seed, --bins, --grid, --out,
  --format);
* an optional parameter, one with a default, of a def or method of a
  src/hyperlab module whose own name is public (no leading underscore),
  at any depth, such as a helper inside cli._build_parser; counted from
  the syntax tree, past the self or cls of a method.

Each output line is ``<count>  <kind>``; the last is the total.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hyperlab.cli import _GLOBAL_DEFAULTS, _build_parser  # noqa: E402
from hyperlab.config import PROBE_FIELDS  # noqa: E402


def probe_fields() -> int:
    return sum(len(fields) for fields in PROBE_FIELDS.values())


def _leaves(parser: argparse.ArgumentParser):
    """Every parser of the command tree that has no subcommands."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield parser
    for group in groups:
        for sub in group.choices.values():
            yield from _leaves(sub)


def command_flags() -> int:
    shared = {f"--{key}" for key in _GLOBAL_DEFAULTS} | {"-h", "--help"}
    return sum(1 for leaf in _leaves(_build_parser()) for action in leaf._actions
               if action.option_strings and not shared & set(action.option_strings))


def _optional_parameters(fn: ast.FunctionDef, bound: bool) -> int:
    """The parameters of fn that have a default, past self or cls if bound."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][int(bound):]
    return (min(len(args.defaults), len(positional))
            + sum(default is not None for default in args.kw_defaults))


def public_parameters() -> int:
    total = 0
    for path in sorted((SRC / "hyperlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                static = any(getattr(d, "id", "") == "staticmethod"
                             for d in fn.decorator_list)
                total += _optional_parameters(fn, fn in methods and not static)
    return total


def main() -> None:
    counts = {"probe fields": probe_fields(),
              "command flags": command_flags(),
              "optional public parameters": public_parameters()}
    for kind, count in counts.items():
        print(f"{count:6d}  {kind}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
