"""Stable JSON serialization and schema tags.

Artifacts must be byte-identical across reruns with the same seed, so the
encoder pins key order and separators and refuses non-finite floats.
Schema tags look like "circle-measure/1"; readers accept any document
whose major version matches and reject the rest.  record_dict is the one
JSON form of a report record: its tags, then every dataclass field by name.
csv_text is the one CSV form of a table.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from typing import Any


class SchemaError(ValueError):
    """Document carries a missing, malformed or unsupported schema tag."""


def _check_finite(obj: Any) -> None:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in artifact: {obj!r}")
    elif isinstance(obj, dict):
        for v in obj.values():
            _check_finite(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _check_finite(v)


def _plain(value: Any) -> Any:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def record_dict(record: Any, **tags: Any) -> dict:
    """The tags, then every dataclass field of record by name.  Complex
    values become [re, im], tuples and lists are converted element by
    element, dict values are converted, and a nested object with a
    to_dict is written by its own to_dict (dataclasses.asdict would keep
    complex numbers and flatten tagged records instead)."""
    doc = dict(tags)
    for f in dataclasses.fields(record):
        doc[f.name] = _plain(getattr(record, f.name))
    return doc


def stable_dumps(doc: Any) -> str:
    """Canonical JSON text: sorted keys, tight separators, repr floats."""
    _check_finite(doc)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def csv_text(header, rows) -> str:
    """A header line, then one line per row; cells holding a delimiter,
    quote or newline are quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def write_json(path: str, doc: Any) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(stable_dumps(doc))
        fh.write("\n")


def read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def check_schema(doc: dict, name: str, major: int = 1) -> None:
    """Require doc["schema"] == f"{name}/{major}" up to minor suffixes."""
    tag = doc.get("schema")
    if not isinstance(tag, str) or "/" not in tag:
        raise SchemaError(f"missing or malformed schema tag, expected {name}/{major}")
    got_name, _, got_ver = tag.partition("/")
    try:
        got_major = int(got_ver.split(".")[0])
    except ValueError:
        raise SchemaError(f"malformed schema version in {tag!r}") from None
    if got_name != name or got_major != major:
        raise SchemaError(f"unsupported schema {tag!r}, expected {name}/{major}")
