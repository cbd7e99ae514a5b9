"""Seed derivation and JSON document conventions."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from hyperlab.jsonio import (
    SchemaError,
    check_schema,
    read_json,
    record_dict,
    stable_dumps,
    write_json,
)
from hyperlab import seeding
from hyperlab.seeding import complex_standard_normal, derive_seed, rng_for


def test_derive_seed_deterministic():
    assert derive_seed(0, "alpha") == derive_seed(0, "alpha")
    assert derive_seed(0, "alpha") != derive_seed(0, "beta")
    assert derive_seed(0, "alpha") != derive_seed(1, "alpha")


def test_derive_seed_range():
    for seed in (0, 7, 2**31):
        value = derive_seed(seed, "range-check")
        assert 0 <= value < 2**63


def test_rng_for_streams_are_independent():
    a = rng_for(3, "left").random(8)
    b = rng_for(3, "right").random(8)
    assert not np.allclose(a, b)
    again = rng_for(3, "left").random(8)
    np.testing.assert_array_equal(a, again)


def test_complex_standard_normal_moments():
    rng = rng_for(0, "complex-moments")
    z = complex_standard_normal(rng, 200_000)
    # E|z|^2 = 1 and E z^2 = 0 for the symmetric complex Gaussian.
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
    assert abs(np.mean(z**2)) < 0.02
    assert abs(np.mean(z)) < 0.02


@pytest.mark.parametrize("shape", [7, (7,), (3, 5)])
def test_complex_standard_normal_is_bitwise_two_draws(shape):
    rng = rng_for(1, "complex-bits")
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    expected = (re + 1j * im) / np.sqrt(2.0)
    got = complex_standard_normal(rng_for(1, "complex-bits"), shape)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _bits(z):
    return np.asarray(z).reshape(-1).view(np.uint64)


@pytest.mark.parametrize("shape", [7, 14, 13, (), (3, 5), (2, 7), 0])
def test_complex_standard_normal_chunked_fill_is_bitwise_the_old_formula(
        shape, monkeypatch):
    # a 7-normal scratch: fills ending on a chunk boundary, a last partial
    # chunk, a lone normal and an empty draw
    monkeypatch.setattr(seeding, "_CHUNK", 7)
    rng = rng_for(2, "complex-chunks")
    parts = rng.standard_normal((2,) + np.empty(shape).shape)
    parts *= 1.0 / np.sqrt(2.0)
    expected = np.empty(np.empty(shape).shape, dtype=complex)
    expected.real, expected.imag = parts
    got = complex_standard_normal(rng_for(2, "complex-chunks"), shape)
    assert got.shape == expected.shape
    assert np.array_equal(_bits(got), _bits(expected))


def test_stable_dumps_sorted_and_newline_free_tail():
    text = stable_dumps({"b": 1, "a": [1, 2]})
    assert text.index('"a"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed == {"a": [1, 2], "b": 1}


def test_stable_dumps_is_byte_stable():
    doc = {"z": 0.1 + 0.2, "items": [3, 1, 2], "name": "x"}
    assert stable_dumps(doc) == stable_dumps(json.loads(stable_dumps(doc)))


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"schema": "windowed-set", "window": 4, "members": [0, 2]}
    write_json(path, doc)
    assert read_json(path) == doc
    # the on-disk form ends with a newline so diffs stay clean
    assert path.read_text().endswith("\n")


def test_write_json_rejects_non_serializable(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": {1, 2}})


def test_stable_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        stable_dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        stable_dumps([1.0, float("inf")])


def test_check_schema_accepts_minor_and_rejects_major():
    check_schema({"schema": "circle-measure/1"}, "circle-measure")
    check_schema({"schema": "circle-measure/1.3"}, "circle-measure")
    with pytest.raises(SchemaError):
        check_schema({"schema": "circle-measure/2"}, "circle-measure")
    with pytest.raises(SchemaError):
        check_schema({"schema": "other/1"}, "circle-measure")
    with pytest.raises(SchemaError):
        check_schema({}, "circle-measure")
    with pytest.raises(SchemaError):
        check_schema({"schema": "circle-measure/x"}, "circle-measure")


@dataclass(frozen=True)
class _Inner:
    label: str

    def to_dict(self) -> dict:
        return {"schema": "inner/1", "name": self.label}


@dataclass(frozen=True)
class _Record:
    value: complex
    window: tuple
    items: list
    table: dict
    inner: _Inner
    count: int = 3


def test_record_dict_converts_every_field_and_keeps_tags():
    rec = _Record(value=1.5 - 2j, window=(4, 8), items=[1j, (2, 3)],
                  table={"a": [0.5 + 0.25j], "b": _Inner("b")},
                  inner=_Inner("x"))
    doc = record_dict(rec, check="demo", flagged=True)
    assert doc == {
        "check": "demo",
        "flagged": True,
        "value": [1.5, -2.0],
        "window": [4, 8],
        "items": [[0.0, 1.0], [2, 3]],
        "table": {"a": [[0.5, 0.25]], "b": {"schema": "inner/1", "name": "b"}},
        "inner": {"schema": "inner/1", "name": "x"},
        "count": 3,
    }
    assert list(doc)[:2] == ["check", "flagged"]
    assert json.loads(stable_dumps(doc)) == doc

