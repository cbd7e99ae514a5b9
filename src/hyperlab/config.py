"""Experiment configuration: a strict key-value schema with recorded defaults.

A config is a JSON document tagged experiment-config/1 carrying four
scalars (seed, bins, grid, out) and three blocks: named measure
definitions, system specs, and an ordered probe list.  parse_config
validates every field, reports unknown or ill-typed fields by dotted
path (syntax errors by line and column), and expands every default to a
literal value, derived seeds included, so a persisted config never
contains a silent default.  The expanded form serializes canonically:
parse -> serialize -> parse is the identity, byte for byte.

Each field takes the JSON form of its default, checked through jsonio's
one form table: an int default an integer >= 0, a float default a finite
number (never a bool), a str default a nonempty string, a list default a
nonempty list of its element's form; a _Slot default names its form.
Range rules come on top, all at parse time: a measure's masses are
nonnegative, an inline doc reads as a circle-measure/1 document, a Gauss
probe's nodes are >= 1 and its grid >= 8, and residual angles lie in
(0, 2pi).

A field is a size, an input, a control or a seed, never a pass/fail
threshold: each gate is a constant of the code that applies it, and the
report prints the one it used.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .circle_measure import CircleMeasure
from .dynamics_lab import default_battery, parse_systems
from .jsonio import _FORMS, record_dict, stable_dumps
from .seeding import derive_seed

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "config_from_dict",
    "CONFIG_SCHEMA",
    "PROBE_FIELDS",
    "TOP_DEFAULTS",
]

CONFIG_SCHEMA = "experiment-config/1"

_TOP_FIELDS = ("schema", "seed", "bins", "grid", "out",
               "measures", "systems", "probes")
TOP_DEFAULTS = {"seed": 0, "bins": 1024, "grid": 1024}


class _Slot(NamedTuple):
    """A default that is no value: its field's jsonio form, and how
    expansion fills it from the context (None: the field is required)."""

    form: str
    fill: Callable = None


_REQUIRED_STRING = _Slot("string")
_CONFIG_BINS = _Slot("integer", lambda c: c["bins"])
_CONFIG_GRID = _Slot("integer", lambda c: c["grid"])
_DERIVED_SEED = _Slot("integer", lambda c: derive_seed(c["seed"], c["seed_label"]))
_SIGMA_DEFAULT = "sigma-default"

_MEASURE_FIELDS = {
    "uniform": {"mass": 1.0, "bins": _CONFIG_BINS},
    "dirac": {"angle": _Slot("number"), "mass": 1.0, "bins": _CONFIG_BINS},
    "atoms": {"atoms": _Slot("pairs"), "bins": _CONFIG_BINS},
    "probability": {"seed": _DERIVED_SEED, "bins": _CONFIG_BINS},
    "file": {"path": _REQUIRED_STRING},
    "inline": {"doc": _Slot("object")},
}

# Every probe's fields and defaults, also those of the CLI flags that mirror
# them; no field is a pass/fail gate, which only the code that applies it holds.
PROBE_FIELDS = {
    "convolve": {"left": _REQUIRED_STRING, "right": _REQUIRED_STRING, "band": 64},
    "exp": {"measure": _REQUIRED_STRING, "band": 64, "tail_tol": 1e-12},
    "fourier": {"measure": _REQUIRED_STRING, "band": 8},
    "measure-classify": {"measure": _REQUIRED_STRING, "band": 64, "family_size": 16,
                         "seed": _DERIVED_SEED},
    "residual": {"angles": [2.0 * math.pi / 3.0, math.pi, 2.0 * math.pi * 0.811],
                 "grids": [1024, 2048, 4096]},
    "matrix-check": {},  # the config's grid and seed
    "invariance": {"measure": _SIGMA_DEFAULT, "nodes": 8, "grid": _CONFIG_GRID,
                   "samples": 10_000, "transport_scale": 1.0, "seed": _DERIVED_SEED},
    "symmetry": {"measure": _SIGMA_DEFAULT, "nodes": 8, "grid": _CONFIG_GRID,
                 "samples": 4096, "functionals": 10,
                 "sampler": "symmetric", "seed": _DERIVED_SEED},
    "coeff": {"measure": _SIGMA_DEFAULT, "nodes": 8, "grid": _CONFIG_GRID,
              "samples": 10_000, "functionals": 3, "max_power": 8,
              "seed": _DERIVED_SEED},
    "ubd": {"window": 10_000, "delta": 0.3, "count": 25, "min_len": 16,
            "seed": _DERIVED_SEED},
    "orbit": {"system": _REQUIRED_STRING, "steps": 512, "seed": _DERIVED_SEED},
    "classification": {"window": 1000, "samples": 10_000},
}


class ConfigError(ValueError):
    """Schema violation in an experiment config, located by dotted path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully expanded experiment description.

    All three blocks hold plain JSON-shaped data (dicts, lists, scalars);
    domain objects are realized only at run time, so equality and
    serialization stay structural.
    """

    seed: int
    bins: int
    grid: int
    out: str
    measures: dict
    systems: tuple
    probes: tuple

    def to_dict(self) -> dict:
        return record_dict(self, schema=CONFIG_SCHEMA)

    def to_text(self) -> str:
        return stable_dumps(self.to_dict()) + "\n"


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _form(default) -> str:
    """The jsonio form of a field with this default."""
    if isinstance(default, _Slot):
        return default.form
    if isinstance(default, list):
        return {int: "integers", float: "numbers"}[type(default[0])]
    return {int: "integer", float: "number", str: "string"}[type(default)]


def _checked(path: str, value, form: str):
    """value in the jsonio form named form, an integer also >= 0 and a
    list also nonempty; a list is copied, so no config shares one with
    its input document."""
    words, holds = _FORMS[form]
    if not holds(value):
        _fail(path, f"expected {words}, got {value!r}")
    if form == "integer" and value < 0:
        _fail(path, f"must be nonnegative, got {value}")
    if isinstance(value, list):
        if not value:
            _fail(path, "expected a nonempty list")
        value = [list(v) if isinstance(v, list) else v for v in value]
    return value


def _check_bins(path: str, bins: int):
    if bins < 8 or bins & (bins - 1):
        _fail(path, f"bins must be a power of two >= 8, got {bins}")


def _expand_block(path: str, raw, tag: str, kinds: dict, context: dict,
                  seed_label: Callable) -> dict:
    """One measure or probe object: its kind, a string under tag, then
    each field of its kind's table in its default's form, defaults filled."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    if tag not in raw:
        _fail(path, f"missing required field {tag!r}")
    kind = _checked(f"{path}.{tag}", raw[tag], "string")
    if kind not in kinds:
        _fail(f"{path}.{tag}", f"unknown {tag} {kind!r} "
                               f"(expected one of {', '.join(sorted(kinds))})")
    fields = kinds[kind]
    for key in raw:
        if key not in fields and key != tag:
            _fail(path, f"unknown field {key!r}")
    context = dict(context, seed_label=seed_label(kind))
    out = {tag: kind}
    for key, default in fields.items():
        if key in raw:
            value = raw[key]
        elif not isinstance(default, _Slot):
            value = default
        elif default.fill is None:
            _fail(path, f"missing required field {key!r}")
        else:
            value = default.fill(context)
        out[key] = _checked(f"{path}.{key}", value, _form(default))
    return out


def _validate_measure(name: str, raw, context: dict) -> dict:
    path = f"measures.{name}"
    defn = _expand_block(path, raw, "kind", _MEASURE_FIELDS, context,
                         lambda kind: f"measure:{name}")
    if "bins" in defn:
        _check_bins(f"{path}.bins", defn["bins"])
    if defn.get("mass", 0.0) < 0:
        _fail(f"{path}.mass", f"must be nonnegative, got {defn['mass']}")
    if any(mass < 0 for _, mass in defn.get("atoms", ())):
        _fail(f"{path}.atoms", "atom masses must be nonnegative")
    if "doc" in defn:
        try:
            CircleMeasure.from_dict(defn["doc"])
        except ValueError as exc:
            _fail(f"{path}.doc", str(exc))
    return defn


def _validate_probe(index: int, raw, context: dict) -> dict:
    path = f"probes[{index}]"
    probe = _expand_block(path, raw, "probe", PROBE_FIELDS, context,
                          lambda kind: f"probe[{index}]:{kind}")
    kind = probe["probe"]
    if kind == "residual":
        if not all(g >= 8 for g in probe["grids"]):
            _fail(f"{path}.grids", "grid sizes must be >= 8")
        if not all(0.0 < a < 2.0 * math.pi for a in probe["angles"]):
            _fail(f"{path}.angles", "angles must lie in (0, 2pi)")
    for key in ("window", "samples", "functionals", "count", "family_size", "nodes"):
        if key in probe and probe[key] < 1:
            _fail(f"{path}.{key}", "must be >= 1")
    if "grid" in probe and probe["grid"] < 8:  # the Gauss probes' grid T
        _fail(f"{path}.grid", f"must be >= 8, got {probe['grid']}")
    if kind == "measure-classify" and probe["band"] < 2:
        _fail(f"{path}.band", "must be >= 2")  # the probes' n_max >= 2 rule
    if kind == "symmetry" and probe["samples"] < 2:
        _fail(f"{path}.samples", "must be >= 2")  # the Re/Im correlation needs 2
    if kind == "symmetry" and probe["sampler"] not in ("symmetric", "real"):
        _fail(f"{path}.sampler", f"expected 'symmetric' or 'real', "
                                 f"got {probe['sampler']!r}")
    if kind == "invariance" and probe["transport_scale"] <= 0.0:
        _fail(f"{path}.transport_scale", f"must be > 0, got {probe['transport_scale']}")
    if kind == "ubd" and not 0.0 < probe["delta"] <= 1.0:
        _fail(f"{path}.delta", f"must lie in (0, 1], got {probe['delta']}")
    return probe


def config_from_dict(doc) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object at top level")
    for key in doc:
        if key not in _TOP_FIELDS:
            raise ConfigError(f"config: unknown field {key!r}")
    schema = doc.get("schema", CONFIG_SCHEMA)
    if not isinstance(schema, str) or schema.split("/")[0] != "experiment-config":
        raise ConfigError(f"config.schema: expected {CONFIG_SCHEMA!r}, got {schema!r}")
    major = schema.split("/")[-1]
    if major != "1":
        raise ConfigError(f"config.schema: unsupported major version {major!r}")

    top = {key: _checked(f"config.{key}", doc.get(key, default), _form(default))
           for key, default in TOP_DEFAULTS.items()}
    _check_bins("config.bins", top["bins"])
    out = _checked("config.out", doc.get("out", "out"), "string")

    context = dict(top)
    raw_measures = doc.get("measures", {})
    if not isinstance(raw_measures, dict):
        raise ConfigError("config.measures: expected an object of named definitions")
    measures = {name: _validate_measure(name, defn, context)
                for name, defn in raw_measures.items()}

    try:
        specs = parse_systems(doc.get("systems", []))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    raw_probes = doc.get("probes", [])
    if not isinstance(raw_probes, list):
        raise ConfigError("config.probes: expected a list")
    probes = [_validate_probe(i, p, context) for i, p in enumerate(raw_probes)]

    # Record implicit dependencies as explicit config entries.
    needs_sigma = any(p.get("measure") == _SIGMA_DEFAULT for p in probes)
    if needs_sigma and _SIGMA_DEFAULT not in measures:
        measures[_SIGMA_DEFAULT] = {"kind": "uniform", "mass": 1.0,
                                    "bins": top["bins"]}
    battery = [p for p in probes if p["probe"] == "classification"]
    if battery and not specs:
        specs = default_battery(battery[0]["window"])

    labels = [s.label for s in specs]
    for i, probe in enumerate(probes):
        for key in ("left", "right", "measure"):
            name = probe.get(key)
            if name is not None and name not in measures:
                _fail(f"probes[{i}].{key}", f"references undefined measure {name!r}")
        target = probe.get("system")
        if target is not None and target not in labels:
            _fail(f"probes[{i}].system", f"references undefined system {target!r}")

    return ExperimentConfig(seed=top["seed"], bins=top["bins"], grid=top["grid"],
                            out=out, measures=measures,
                            systems=tuple(s.to_dict() for s in specs),
                            probes=tuple(probes))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document, expanding all defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc)
