"""Experiment configuration: a strict key-value schema with recorded defaults.

A config is a JSON document tagged experiment-config/1 carrying four
scalars (seed, bins, grid, out) and three blocks: named measure
definitions, system specs, and an ordered probe list.  parse_config
validates every field, reports unknown or ill-typed fields by dotted
path (syntax errors by line and column), and expands every default to a
literal value, derived seeds included, so a persisted config never
contains a silent default.  The expanded form serializes canonically:
parse -> serialize -> parse is the identity, byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics_lab import default_battery, parse_systems
from .jsonio import record_dict, stable_dumps
from .seeding import derive_seed

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "config_from_dict",
    "CONFIG_SCHEMA",
    "PROBE_FIELDS",
    "PROBE_KINDS",
    "MEASURE_KINDS",
    "TOP_DEFAULTS",
]

CONFIG_SCHEMA = "experiment-config/1"

_TOP_FIELDS = ("schema", "seed", "bins", "grid", "out",
               "measures", "systems", "probes")
TOP_DEFAULTS = {"seed": 0, "bins": 1024, "grid": 1024}

# Sentinels resolved during expansion; they never appear in expanded configs.
_REQUIRED = "<required>"
_CONFIG_BINS = "<config-bins>"
_CONFIG_GRID = "<config-grid>"
_DERIVED_SEED = "<derived-seed>"
_SIGMA_DEFAULT = "sigma-default"

_MEASURE_FIELDS = {
    "uniform": {"mass": 1.0, "bins": _CONFIG_BINS},
    "dirac": {"angle": _REQUIRED, "mass": 1.0, "bins": _CONFIG_BINS},
    "atoms": {"atoms": _REQUIRED, "bins": _CONFIG_BINS},
    "probability": {"seed": _DERIVED_SEED, "bins": _CONFIG_BINS},
    "file": {"path": _REQUIRED},
    "inline": {"doc": _REQUIRED},
}

# Every probe's fields and defaults, also those of the CLI flags that mirror them.
PROBE_FIELDS = {
    "convolve": {"left": _REQUIRED, "right": _REQUIRED,
                 "band": 64, "tolerance": 5e-3},
    "exp": {"measure": _REQUIRED, "band": 64,
            "tail_tol": 1e-12, "tolerance": 1e-5},
    "fourier": {"measure": _REQUIRED, "band": 8},
    "measure-classify": {"measure": _REQUIRED, "band": 64, "epsilon": 0.1,
                         "delta": 0.1, "family_size": 16,
                         "seed": _DERIVED_SEED},
    "residual": {"angles": [2.0 * math.pi / 3.0, math.pi, 2.0 * math.pi * 0.811],
                 "grids": [1024, 2048, 4096],
                 "ratio_bound": 0.75, "t1_factor": 50.0},
    "invariance": {"measure": _SIGMA_DEFAULT, "nodes": 8, "grid": _CONFIG_GRID,
                   "samples": 10_000, "tolerance": 0.05,
                   "transport_scale": 1.0, "seed": _DERIVED_SEED},
    "symmetry": {"measure": _SIGMA_DEFAULT, "nodes": 8, "grid": _CONFIG_GRID,
                 "samples": 4096, "functionals": 10,
                 "sampler": "symmetric", "seed": _DERIVED_SEED},
    "coeff": {"measure": _SIGMA_DEFAULT, "nodes": 8, "grid": _CONFIG_GRID,
              "samples": 10_000, "functionals": 3, "max_power": 8,
              "rel_tol": 0.05, "seed": _DERIVED_SEED},
    "ubd": {"window": 10_000, "delta": 0.3, "count": 25, "min_len": 16,
            "seed": _DERIVED_SEED},
    "orbit": {"system": _REQUIRED, "steps": 512, "seed": _DERIVED_SEED},
    "classification": {"window": 1000, "samples": 10_000, "gap_bound": 64},
}

MEASURE_KINDS = tuple(sorted(_MEASURE_FIELDS))
PROBE_KINDS = tuple(sorted(PROBE_FIELDS))

_INT_FIELDS = {"seed", "bins", "grid", "band", "family_size", "samples",
               "functionals", "nodes", "window", "count", "min_len",
               "steps", "gap_bound", "max_power"}
_NUM_FIELDS = {"mass", "angle", "tolerance", "tail_tol", "epsilon", "delta",
               "ratio_bound", "transport_scale", "rel_tol", "t1_factor"}
_STR_FIELDS = {"left", "right", "measure", "system", "sampler", "path", "out"}


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


def _check_scalar(path: str, key: str, value):
    if key in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
        if value < 0:
            _fail(f"{path}.{key}", f"must be nonnegative, got {value}")
    elif key in _NUM_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(f"{path}.{key}", f"expected a number, got {value!r}")
        if not np.isfinite(value):
            _fail(f"{path}.{key}", "must be finite")
    elif key in _STR_FIELDS:
        if not isinstance(value, str) or not value:
            _fail(f"{path}.{key}", f"expected a nonempty string, got {value!r}")


def _check_bins(path: str, bins: int):
    if bins < 8 or bins & (bins - 1):
        _fail(path, f"bins must be a power of two >= 8, got {bins}")


def _expand_block(path: str, raw: dict, fields: dict, context: dict) -> dict:
    """Validate one keyed block against its field table and fill defaults."""
    for key in raw:
        if key not in fields and key != "kind" and key != "probe":
            _fail(path, f"unknown field {key!r}")
    out = {}
    for key, default in fields.items():
        if key in raw:
            value = raw[key]
        elif default == _REQUIRED:
            _fail(path, f"missing required field {key!r}")
        elif default == _CONFIG_BINS:
            value = context["bins"]
        elif default == _CONFIG_GRID:
            value = context["grid"]
        elif default == _DERIVED_SEED:
            value = derive_seed(context["seed"], context["seed_label"])
        else:
            value = default
        if isinstance(value, list):
            value = [list(v) if isinstance(v, list) else v for v in value]
        _check_scalar(path, key, value)
        out[key] = value
    return out


def _validate_measure(name: str, raw, context: dict) -> dict:
    path = f"measures.{name}"
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    kind = raw.get("kind")
    if kind not in _MEASURE_FIELDS:
        _fail(path, f"unknown measure kind {kind!r} "
                    f"(expected one of {', '.join(MEASURE_KINDS)})")
    context = dict(context, seed_label=f"measure:{name}")
    defn = {"kind": kind}
    defn.update(_expand_block(path, raw, _MEASURE_FIELDS[kind], context))
    if "bins" in defn:
        _check_bins(f"{path}.bins", defn["bins"])
    if kind == "atoms":
        atoms = defn["atoms"]
        if (not isinstance(atoms, list) or not atoms
                or not all(isinstance(a, list) and len(a) == 2 for a in atoms)):
            _fail(f"{path}.atoms", "expected a nonempty list of [angle, mass] pairs")
    if kind == "inline" and not isinstance(defn["doc"], dict):
        _fail(f"{path}.doc", "expected an inline circle-measure object")
    return defn


def _validate_probe(index: int, raw, context: dict) -> dict:
    path = f"probes[{index}]"
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    kind = raw.get("probe")
    if kind not in PROBE_FIELDS:
        _fail(path, f"unknown probe kind {kind!r} "
                    f"(expected one of {', '.join(PROBE_KINDS)})")
    context = dict(context, seed_label=f"probe[{index}]:{kind}")
    probe = {"probe": kind}
    probe.update(_expand_block(path, raw, PROBE_FIELDS[kind], context))
    if kind == "residual":
        for key in ("angles", "grids"):
            vals = probe[key]
            if not isinstance(vals, list) or not vals:
                _fail(f"{path}.{key}", "expected a nonempty list")
        if not all(isinstance(g, int) and not isinstance(g, bool) and g >= 8
                   for g in probe["grids"]):
            _fail(f"{path}.grids", "grid sizes must be integers >= 8")
        if not all(isinstance(a, (int, float)) and np.isfinite(a) and a > 0
                   for a in probe["angles"]):
            _fail(f"{path}.angles", "angles must be positive finite numbers")
    for key in ("window", "samples", "functionals", "count", "family_size"):
        if key in probe and probe[key] < 1:
            _fail(f"{path}.{key}", "must be >= 1")
    if kind == "symmetry" and probe["samples"] < 2:
        _fail(f"{path}.samples", "must be >= 2")  # the Re/Im correlation needs 2
    if kind == "symmetry" and probe["sampler"] not in ("symmetric", "real"):
        _fail(f"{path}.sampler", f"expected 'symmetric' or 'real', "
                                 f"got {probe['sampler']!r}")
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

    top = {key: doc.get(key, default) for key, default in TOP_DEFAULTS.items()}
    for key, value in top.items():
        _check_scalar("config", key, value)
    _check_bins("config.bins", top["bins"])
    out = doc.get("out", "out")
    _check_scalar("config", "out", out)

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
