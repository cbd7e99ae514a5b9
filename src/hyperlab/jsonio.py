"""Stable JSON serialization and schema tags.

Artifacts must be byte-identical across reruns with the same seed, so the
encoder pins key order and separators, and json.dumps with allow_nan=False
refuses a nan or inf anywhere in a document (numpy floats included) with a
ValueError.
Schema tags look like "circle-measure/1"; readers accept any document
whose major version matches and reject the rest, and take each field
through _read_field, which names a missing or ill-typed field.  _FORMS is
the one table of JSON field forms: these readers, SystemSpec.from_dict
and the experiment config check every field through it (a bool is never
a number).  record_dict is the one JSON form of a report record: its
tags, then every dataclass field by name.  csv_text is the one CSV form
of a table.
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
    """Canonical JSON text: sorted keys, tight separators, repr floats;
    a non-finite float is a ValueError."""
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


def check_schema(doc: dict, name: str) -> None:
    """Require doc["schema"] == f"{name}/1" up to minor suffixes."""
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if not isinstance(tag, str) or "/" not in tag:
        raise SchemaError(f"missing or malformed schema tag, expected {name}/1")
    got_name, _, got_ver = tag.partition("/")
    try:
        got_major = int(got_ver.split(".")[0])
    except ValueError:
        raise SchemaError(f"malformed schema version in {tag!r}") from None
    if got_name != name or got_major != 1:
        raise SchemaError(f"unsupported schema {tag!r}, expected {name}/1")


def _is_number(value, kind=(int, float)) -> bool:
    """value is a JSON number of kind (a bool is not), and finite."""
    return (not isinstance(value, bool) and isinstance(value, kind)
            and (isinstance(value, int) or math.isfinite(value)))


def _is_list(value, item) -> bool:
    return isinstance(value, list) and all(map(item, value))


# form name -> (the words an error gives, the predicate)
_FORMS = {
    "integer": ("an integer", lambda v: _is_number(v, int)),
    "number": ("a finite number", _is_number),
    "string": ("a nonempty string", lambda v: isinstance(v, str) and v != ""),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "integers": ("a list of integers", lambda v: _is_list(v, _FORMS["integer"][1])),
    "numbers": ("a list of finite numbers", lambda v: _is_list(v, _is_number)),
    "pairs": ("a list of [angle, mass] pairs of finite numbers",
              lambda v: _is_list(v, lambda p: _is_list(p, _is_number) and len(p) == 2)),
}


def _read_field(doc: dict, schema: str, key: str, form: str = None):
    """doc[key] of a schema document, in the JSON form named by form (any
    when None); a ValueError names a missing or ill-formed field."""
    if key not in doc:
        raise ValueError(f"{schema} document: missing required field {key!r}")
    value = doc[key]
    if form is not None and not _FORMS[form][1](value):
        raise ValueError(f"{schema} field {key!r} must be {_FORMS[form][0]}, "
                         f"got {value!r}")
    return value
