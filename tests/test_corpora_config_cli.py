"""Seeded corpora, experiment configs, the runner, and the CLI surface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import total_mass, upper_banach_density
from hyperlab import corpora, dynamics_lab, gauss_model
from hyperlab.circle_measure import CircleMeasure
from hyperlab.cli import _measure_entry, _system_doc, main
from hyperlab.config import (
    _MEASURE_FIELDS,
    PROBE_FIELDS,
    ConfigError,
    config_from_dict,
    parse_config,
)
from hyperlab.corpora import (
    measure_pair,
    probability_measure,
    random_functional,
    random_windowed_set,
    scaffold_set,
)
from hyperlab.jsonio import read_json
from hyperlab.runner import run as run_experiment


# -- corpora ------------------------------------------------------------

def test_measure_pair_kinds():
    atomic_l, atomic_r = measure_pair(seed=0, bins=256, kind="atomic")
    assert atomic_l.atom_count >= 1 and not atomic_l.has_density
    assert atomic_r.atom_count >= 1 and not atomic_r.has_density
    grid_l, grid_r = measure_pair(seed=0, bins=256, kind="grid")
    assert grid_l.has_density and grid_l.atom_count == 0
    with pytest.raises(ValueError):
        measure_pair(seed=0, bins=256, kind="mystery")


def test_corpora_deterministic():
    a = probability_measure(seed=7, bins=256)
    b = probability_measure(seed=7, bins=256)
    assert a == b
    assert probability_measure(seed=8, bins=256) != a
    f = random_functional(seed=7, grid_size=128)
    g = random_functional(seed=7, grid_size=128)
    np.testing.assert_array_equal(f.values, g.values)


@pytest.mark.parametrize("grid_size", [8, 64, 1024])
def test_random_functional_is_bitwise_the_trig_polynomial(grid_size):
    # the cached phase rows accumulate in the order of the direct sum
    from hyperlab.kalish import grid_angles
    from hyperlab.seeding import complex_standard_normal, rng_for

    theta = grid_angles(grid_size)
    for seed in range(4):
        coef = complex_standard_normal(rng_for(seed, "functional"), 13)
        want = np.zeros(grid_size, dtype=complex)
        for idx, n in enumerate(range(-6, 7)):
            want += coef[idx] * np.exp(1j * n * theta)
        got = random_functional(seed, grid_size).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not corpora._functional_phases(grid_size).flags.writeable


def test_probability_measure_is_probability():
    for seed in range(10):
        rho = probability_measure(seed=seed, bins=256)
        assert total_mass(rho) == pytest.approx(1.0, abs=1e-9)


def test_random_windowed_set_nonempty():
    for seed in range(5):
        s = random_windowed_set(seed=seed, window=64)
        assert s.window == 64
        assert s.size >= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500),
       st.sampled_from([0.2, 0.3, 0.5, 0.8]))
def test_scaffold_set_meets_density_target(seedval, delta):
    s = scaffold_set(seed=seedval, window=2048, delta=delta)
    assert upper_banach_density(s, min_len=16) >= delta


def test_scaffold_set_rejects_bad_delta():
    with pytest.raises(ValueError):
        scaffold_set(seed=0, window=100, delta=0.0)
    with pytest.raises(ValueError):
        scaffold_set(seed=0, window=100, delta=1.5)


# -- config parsing -------------------------------------------------------

MINIMAL = {
    "schema": "experiment-config/1",
    "seed": 0,
    "measures": {"rho": {"kind": "probability"}},
    "probes": [{"probe": "exp", "measure": "rho"}],
}


def test_minimal_config_expands_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.seed == 0
    assert cfg.bins == 1024
    probe = cfg.probes[0]
    # every default is explicit after validation; the pass gate is no
    # field but a constant of the runner, which the report prints
    assert "tolerance" not in probe
    assert probe["tail_tol"] == 1e-12
    assert probe["band"] == 64
    assert cfg.measures["rho"]["bins"] == 1024
    assert isinstance(cfg.measures["rho"]["seed"], int)


def test_config_round_trip_identity():
    cfg = parse_config(json.dumps(MINIMAL))
    text = cfg.to_text()
    again = parse_config(text)
    assert again == cfg
    assert again.to_text() == text


def test_config_unknown_top_field_named():
    doc = dict(MINIMAL, mystery=1)
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(json.dumps(doc))


def test_config_unknown_probe_field_dotted_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["probes"][0]["bogus"] = 3
    with pytest.raises(ConfigError, match=r"probes\[0\].*bogus"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("system, message", [
    ({"kind": "torus_rotation", "angles": [0.9], "dimension": 3},
     r"systems\[0\].*dimension"),
    ({"kind": "spiral", "grid": 64}, r"systems\[0\]: unknown system kind 'spiral'"),
    ({"grid": 64}, r"systems\[0\]: unknown system kind None"),
    ({"kind": ["kalish"], "grid": 64}, r"systems\[0\]: unknown system kind \['kalish'\]"),
    # each field takes its JSON type, and a missing one is named
    ({"kind": "kalish", "grid": 64.7},
     r"systems\[0\]: system field 'grid' must be an integer, got 64\.7$"),
    ({"kind": "kalish", "grid": "64"},
     r"systems\[0\]: system field 'grid' must be an integer, got '64'$"),
    ({"kind": "kalish", "grid": True},
     r"systems\[0\]: system field 'grid' must be an integer, got True$"),
    ({"kind": "kalish"}, r"systems\[0\]: kalish system: missing required field 'grid'$"),
    ({"kind": "scalar_multiple_shift", "scalar": "2", "dimension": 8},
     r"systems\[0\]: system field 'scalar' must be a finite number, got '2'$"),
    ({"kind": "scalar_multiple_shift", "scalar": [2.0, None], "dimension": 8},
     r"systems\[0\]: system field 'scalar' must be a finite number, got None$"),
    ({"kind": "scalar_multiple_shift", "scalar": 2.0, "dimension": 8.0},
     r"systems\[0\]: system field 'dimension' must be an integer, got 8\.0$"),
    ({"kind": "scalar_multiple_shift", "scalar": 2.0},
     r"systems\[0\]: scalar_multiple_shift system: missing required field 'dimension'$"),
    ({"kind": "weighted_shift", "weights": [1.0, True], "dimension": 3},
     r"systems\[0\]: system field 'weights' must be a finite number, got True$"),
    ({"kind": "weighted_shift", "weights": 2.0, "dimension": 2},
     r"systems\[0\]: system field 'weights' must be a list of numbers, got 2\.0$"),
    ({"kind": "torus_rotation", "angles": ["0.9"]},
     r"systems\[0\]: system field 'angles' must be a finite number, got '0\.9'$"),
    ({"kind": "kalish", "grid": 64, "name": 5},
     r"systems\[0\]: system field 'name' must be a string, got 5$"),
    (3, r"systems\[0\]: expected an object$"),
])
def test_config_bad_system_dotted_path(system, message):
    doc = dict(MINIMAL, systems=[system])
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps(doc))


def test_config_systems_must_be_a_list():
    doc = dict(MINIMAL, systems={"kind": "kalish", "grid": 64})
    with pytest.raises(ConfigError, match=r"^systems: expected a list, got dict$"):
        parse_config(json.dumps(doc))


def test_config_system_numbers_read_as_written():
    doc = dict(MINIMAL, systems=[
        {"kind": "scalar_multiple_shift", "scalar": 2, "dimension": 8},
        {"kind": "scalar_multiple_shift", "scalar": [3, 0], "dimension": 8},
        {"kind": "weighted_shift", "weights": [1, 2.5], "dimension": 3}])
    specs = [dynamics_lab.SystemSpec.from_dict(s)
             for s in parse_config(json.dumps(doc)).systems]
    assert specs == [dynamics_lab.scalar_shift_system(2.0, 8),
                     dynamics_lab.scalar_shift_system(3.0, 8),
                     dynamics_lab.weighted_shift_system([1.0, 2.5])]


@pytest.mark.parametrize("systems, label", [
    ([{"kind": "kalish", "grid": 64, "name": "a"},
      {"kind": "kalish", "grid": 128, "name": "a"}], "a"),
    ([{"kind": "kalish", "grid": 64, "name": "a"},
      {"kind": "torus_rotation", "angles": [0.9], "name": "a"}], "a"),
    ([{"kind": "kalish", "grid": 64}] * 2, "kalish-64"),
])
def test_config_rejects_a_second_system_with_the_same_label(systems, label):
    # the orbit probe names its system by label, so a shared one is ambiguous
    doc = dict(MINIMAL, systems=systems)
    with pytest.raises(ConfigError,
                       match=rf"^systems\[1\]: label '{label}' already names systems\[0\]$"):
        parse_config(json.dumps(doc))


def test_config_unknown_measure_reference():
    doc = json.loads(json.dumps(MINIMAL))
    doc["probes"][0]["measure"] = "ghost"
    with pytest.raises(ConfigError, match="ghost"):
        parse_config(json.dumps(doc))


def test_config_bins_power_of_two():
    doc = dict(MINIMAL, bins=100)
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(json.dumps(doc))


def test_config_schema_major_rejected():
    doc = dict(MINIMAL, schema="experiment-config/2")
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_config_json_error_has_position():
    with pytest.raises(ConfigError, match=r"line \d+"):
        parse_config('{"schema": "experiment-config/1",}')


def test_config_sigma_default_inserted():
    doc = {
        "schema": "experiment-config/1",
        "seed": 1,
        "probes": [{"probe": "invariance"}],
    }
    cfg = parse_config(json.dumps(doc))
    assert "sigma-default" in cfg.measures
    assert cfg.probes[0]["measure"] == "sigma-default"


def test_config_classification_battery_expansion():
    doc = {
        "schema": "experiment-config/1",
        "seed": 0,
        "probes": [{"probe": "classification", "window": 300}],
    }
    cfg = parse_config(json.dumps(doc))
    names = [s.get("name") for s in cfg.systems]
    assert names == ["torus-rotation", "scalar-shift-2", "kalish-gaussian"]


def test_config_is_frozen():
    cfg = parse_config(json.dumps(MINIMAL))
    with pytest.raises(Exception):
        cfg.seed = 5


# -- runner ------------------------------------------------------------------

def _run_config(tmp_path, doc, name="cfg"):
    out = tmp_path / name
    cfg = parse_config(json.dumps(doc))
    status = run_experiment(cfg, out_dir=out)
    return status, out


def test_runner_measure_only_artifacts(tmp_path):
    status, out = _run_config(tmp_path, MINIMAL)
    assert status == 0
    reports = sorted(p.name for p in (out / "reports").glob("*.json"))
    assert any(r.startswith("exp-rho-0") for r in reports)
    assert any(r.startswith("summary-run-0") for r in reports)
    assert (out / "tables").is_dir() and (out / "plotdata").is_dir()
    assert (out / "run-meta.json").exists()
    report = read_json(out / "reports" / "exp-rho-0.json")
    assert report["schema"] == "probe-report/1"
    assert report["passed"] is True
    assert report["grade"] == "exact"


def test_runner_negative_control_fails_and_names_control(tmp_path):
    doc = {
        "schema": "experiment-config/1",
        "seed": 0,
        "probes": [{"probe": "invariance", "transport_scale": 1.25,
                    "samples": 2000}],
    }
    status, out = _run_config(tmp_path, doc)
    assert status == 1
    report = read_json(out / "reports" / "invariance-sigma-default-0.json")
    assert report["passed"] is False
    assert report["control"] == "non-unimodular-transport"
    summary = read_json(out / "reports" / "summary-run-0.json")
    assert summary["status"] == 1


def test_runner_rerun_byte_identical_excluding_sidecar(tmp_path):
    doc = {
        "schema": "experiment-config/1",
        "seed": 3,
        "probes": [
            {"probe": "exp", "measure": "rho"},
            {"probe": "ubd", "window": 2000, "count": 5},
        ],
        "measures": {"rho": {"kind": "probability"}},
    }
    _, out1 = _run_config(tmp_path, doc, "a")
    _, out2 = _run_config(tmp_path, doc, "b")
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        if rel.name == "run-meta.json":
            continue  # timestamps are externalized here on purpose
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_runner_probe_exception_becomes_status_two(tmp_path):
    # band beyond the density's trustworthy range raises inside the probe
    doc = {
        "schema": "experiment-config/1",
        "seed": 0,
        "measures": {"rho": {"kind": "probability"}},
        "probes": [{"probe": "fourier", "measure": "rho", "band": 600}],
    }
    status, out = _run_config(tmp_path, doc)
    assert status == 2
    report = read_json(out / "reports" / "fourier-rho-0.json")
    assert report["passed"] is False
    assert "OutOfBandError" in report["error"]


def test_runner_probe_that_raises_keeps_its_artifact_stem(tmp_path):
    # measures of different bins do not convolve, and a min_len past the
    # window has no Banach density; each report keeps the stem it has when
    # its probe runs
    doc = {"schema": "experiment-config/1", "seed": 3,
           "measures": {"u": {"kind": "uniform", "bins": 256},
                        "v": {"kind": "uniform", "bins": 512}},
           "probes": [{"probe": "convolve", "left": "u", "right": "v"},
                      {"probe": "ubd", "window": 100, "min_len": 200, "count": 1}]}
    status, out = _run_config(tmp_path, doc)
    assert status == 2
    reports = {p.stem: read_json(p) for p in (out / "reports").glob("*")
               if p.stem != "summary-run-3"}
    assert {stem: r["target"] for stem, r in reports.items()} == {
        "convolve-uxv-3": "uxv", "ubd-delta-0.3-3": "delta-0.3"}
    assert all(r["error"] and r["passed"] is False for r in reports.values())


@pytest.mark.parametrize("probes", [
    [{"probe": "residual", "grids": [1024, 2048]}],
    [{"probe": "ubd", "window": 2000, "count": 3, "delta": 0.3},
     {"probe": "ubd", "window": 2000, "count": 3, "delta": 0.5}],
    [{"probe": "classification", "window": 200, "samples": 2000}],
], ids=["residual", "ubd", "classification"])
def test_runner_config_exits_0_with_schema_tagged_reports(tmp_path, probes):
    status, out = _run_config(
        tmp_path, {"schema": "experiment-config/1", "seed": 0, "probes": probes})
    assert status == 0
    summary = read_json(out / "reports" / "summary-run-0.json")
    assert summary["schema"] == "run-summary/1" and summary["status"] == 0
    reports = [read_json(p) for p in sorted((out / "reports").glob("*.json"))
               if p.name != "summary-run-0.json"]
    assert len(reports) == len(summary["probes"]) == len(probes)
    for report in reports:
        assert report["schema"] == "probe-report/1"
        assert report["probe"] == probes[0]["probe"]
        assert report["passed"] is True and report["detail"]


def test_runner_gives_every_probe_its_own_artifacts(tmp_path):
    # the third probe's suffixed stem fourier-rho-2-2 is the second
    # probe's own stem, so it moves on to fourier-rho-2-3
    doc = {"schema": "experiment-config/1", "seed": 2,
           "measures": {"rho": {"kind": "uniform"},
                        "rho-2": {"kind": "dirac", "angle": 1.0}},
           "probes": [{"probe": "fourier", "measure": m} for m in ("rho", "rho-2", "rho")]}
    _, out = _run_config(tmp_path, doc)
    targets = {p.stem: read_json(p)["target"] for p in (out / "reports").glob("fourier-*")}
    assert targets == {"fourier-rho-2": "rho", "fourier-rho-2-2": "rho-2",
                       "fourier-rho-2-3": "rho"}
    for sub in ("tables", "plotdata"):
        assert sorted(p.stem for p in (out / sub).iterdir()) == sorted(targets), sub


def test_every_report_prints_the_gate_it_applied(tmp_path):
    doc = {"schema": "experiment-config/1", "seed": 0, "grid": 256,
           "measures": {"u": {"kind": "uniform"}},
           "systems": [{"kind": "torus_rotation", "angles": [0.9], "name": "t"}],
           "probes": [
               {"probe": "convolve", "left": "u", "right": "u"},
               {"probe": "exp", "measure": "u"},
               {"probe": "residual", "grids": [64, 128]},
               {"probe": "matrix-check"},
               {"probe": "coeff", "samples": 500, "functionals": 1, "max_power": 2},
               {"probe": "measure-classify", "measure": "u"},
               {"probe": "invariance", "samples": 500},
               {"probe": "classification", "window": 100, "samples": 500}]}
    _, out = _run_config(tmp_path, doc)
    detail = {r["probe"]: r["detail"] for r in map(read_json, (out / "reports").glob("*"))
              if r["schema"] == "probe-report/1"}
    assert detail["convolve"]["tolerance"] == 5e-3
    assert detail["exp"]["tolerance"] == 1e-5
    assert detail["residual"]["ratio_bound"] == 0.75
    assert [b for _, _, b in detail["residual"]["t1_errors"]] == [50 / 64, 50 / 128]
    assert detail["matrix-check"]["apply_tolerance"] == 1e-12
    assert detail["matrix-check"]["solve_tolerance"] == 1e-6
    assert detail["coeff"]["rel_tol"] == 0.05
    classify = detail["measure-classify"]
    assert classify["rajchman"]["epsilon"] == classify["dirichlet"]["epsilon"] == 0.1
    assert classify["mild_mixing"]["delta"] == 0.1
    (row,) = detail["classification"]["rows"]
    assert row["outcomes"]["syndetic"]["evidence"]["gap_bound"] == 64
    invariance = detail["invariance"]  # the honest check: the grid T
    assert invariance["budget"] == 0.05 + invariance["intertwine"]


def test_orbit_probe_hit_count_survives_a_round_off_nudge(tmp_path, monkeypatch):
    # the kalish orbit's start distances tie with the quantile radius at
    # round-off; the shrunk radius keeps every hit count under a nudge
    def hit_counts(name):
        counts = []
        for seed in range(12):
            doc = {"schema": "experiment-config/1", "seed": seed,
                   "systems": [{"kind": "kalish", "grid": 1024}],
                   "probes": [{"probe": "orbit", "system": "kalish-1024"}]}
            _, out = _run_config(tmp_path, doc, f"{name}-{seed}")
            report = read_json(out / "reports" / f"orbit-kalish-1024-{seed}.json")
            counts.append(report["detail"]["hit_count"])
        return counts

    plain = hit_counts("plain")
    start = dynamics_lab.default_start
    monkeypatch.setattr(dynamics_lab, "default_start",
                        lambda spec, seed: start(spec, seed) * (1.0 + 1e-13))
    assert hit_counts("nudged") == plain


def test_config_symmetry_needs_two_samples():
    doc = {"schema": "experiment-config/1",
           "probes": [{"probe": "symmetry", "samples": 1}]}
    with pytest.raises(ConfigError, match=r"probes\[0\]\.samples: must be >= 2"):
        parse_config(json.dumps(doc))


def test_config_residual_grids_below_8_rejected_with_dotted_path():
    doc = {"schema": "experiment-config/1",
           "probes": [{"probe": "residual", "grids": [4, 8]}]}
    with pytest.raises(ConfigError, match=r"probes\[0\]\.grids: .*>= 8"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("probe, key", [
    ("convolve", "tolerance"), ("exp", "tolerance"),
    ("measure-classify", "epsilon"), ("measure-classify", "delta"),
    ("residual", "ratio_bound"), ("residual", "t1_factor"),
    ("invariance", "tolerance"), ("coeff", "rel_tol"),
    ("classification", "gap_bound"),
])
def test_config_pass_gate_is_no_field(probe, key):
    # a gate a config could set could only loosen its check
    raw = {"probe": probe, key: 1e9}
    raw.update((k, "u") for k in ("left", "right", "measure") if k in PROBE_FIELDS[probe])
    doc = {"measures": {"u": {"kind": "uniform"}}, "probes": [raw]}
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"probes[0]: unknown field '{key}'")):
        config_from_dict(doc)


def test_config_window_0_rejected_with_dotted_path():
    doc = {"schema": "experiment-config/1",
           "probes": [{"probe": "classification", "window": 0}]}
    with pytest.raises(ConfigError, match=r"probes\[0\]\.window: must be >= 1"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("probe, key", [
    ("invariance", "samples"), ("symmetry", "samples"),
    ("classification", "samples"), ("coeff", "samples"),
    ("symmetry", "functionals"), ("coeff", "functionals"), ("ubd", "count"),
    ("measure-classify", "family_size"),
    ("invariance", "nodes"), ("symmetry", "nodes"), ("coeff", "nodes"),
])
def test_config_zero_size_probe_rejected_with_dotted_path(probe, key):
    raw = {"probe": probe, key: 0}
    if "measure" in PROBE_FIELDS[probe]:
        raw["measure"] = "u"  # a measure with a density, so a family exists
    doc = {"schema": "experiment-config/1",
           "measures": {"u": {"kind": "uniform"}}, "probes": [raw]}
    with pytest.raises(ConfigError, match=rf"probes\[0\]\.{key}: must be >= 1"):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize("doc, message", [
    ({"probes": [{"probe": ["x"]}]}, "probes[0].probe: "),
    ({"measures": {"a": {"kind": ["x"]}}}, "measures.a.kind: "),
    # a bool is never a number
    ({"probes": [{"probe": "residual", "angles": [True]}]}, "probes[0].angles: "),
    ({"measures": {"a": {"kind": "atoms", "atoms": [[1.0, True]]}}}, "measures.a.atoms: "),
    ({"measures": {"a": {"kind": "atoms", "atoms": [[1.0, "x"]]}}}, "measures.a.atoms: "),
    # a probe's own tag is probe, so a kind field is an unknown one
    ({"probes": [{"probe": "ubd", "kind": "x"}]}, "probes[0]: unknown field 'kind'"),
    # a measure or band the probes cannot run on
    ({"measures": {"a": {"kind": "uniform", "mass": -1.0}}},
     "measures.a.mass: must be nonnegative, got -1.0"),
    ({"measures": {"a": {"kind": "dirac", "angle": 1.0, "mass": -1.0}}},
     "measures.a.mass: must be nonnegative, got -1.0"),
    ({"measures": {"a": {"kind": "atoms", "atoms": [[1.0, 0.5], [2.0, -0.5]]}}},
     "measures.a.atoms: atom masses must be nonnegative"),
    ({"measures": {"a": {"kind": "inline", "doc": {"bins": 16}}}},
     "measures.a.doc: missing or malformed schema tag, expected circle-measure/1"),
    ({"measures": {"a": {"kind": "inline", "doc": {
        "schema": "circle-measure/1", "bins": 16, "atoms": [[1.0, -1.0]]}}}},
     "measures.a.doc: atom masses must be nonnegative"),
    ({"measures": {"u": {"kind": "uniform"}},
      "probes": [{"probe": "measure-classify", "measure": "u", "band": 1}]},
     "probes[0].band: must be >= 2"),
    # a transport that is no stretch at all, or a reflection, is no control
    ({"probes": [{"probe": "invariance", "transport_scale": -1.25}]},
     "probes[0].transport_scale: must be > 0, got -1.25"),
    ({"probes": [{"probe": "invariance", "transport_scale": 0.0}]},
     "probes[0].transport_scale: must be > 0, got 0.0"),
    # a grid T needs 8 points, also the one a Gauss probe inherits
    ({"probes": [{"probe": "invariance", "grid": 4}]}, "probes[0].grid: must be >= 8, got 4"),
    ({"probes": [{"probe": "symmetry", "grid": 4}]}, "probes[0].grid: must be >= 8, got 4"),
    ({"probes": [{"probe": "coeff", "grid": 4}]}, "probes[0].grid: must be >= 8, got 4"),
    ({"grid": 4, "probes": [{"probe": "invariance"}]}, "probes[0].grid: must be >= 8, got 4"),
    # an eigen residual's angle lies on the circle [0, 2pi), and 0 gives no residual
    ({"probes": [{"probe": "residual", "angles": [1.0, 7.0]}]},
     "probes[0].angles: angles must lie in (0, 2pi)"),
    ({"probes": [{"probe": "residual", "angles": [1.0, 2.0 * np.pi]}]},
     "probes[0].angles: angles must lie in (0, 2pi)"),
    ({"probes": [{"probe": "residual", "angles": [0.0]}]},
     "probes[0].angles: angles must lie in (0, 2pi)"),
])
def test_config_ill_formed_field_is_a_config_error_naming_it(doc, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        config_from_dict(doc)


def test_config_inline_doc_that_reads_is_accepted():
    doc = {"schema": "circle-measure/1", "bins": 16, "atoms": [[1.0, 0.0]]}
    config = config_from_dict({"measures": {"a": {"kind": "inline", "doc": doc}}})
    assert config.measures["a"]["doc"] == doc


_REQUIRED_FIELDS = {"angle": 1.0, "atoms": [[1.0, 0.5]], "path": "m.json",
                    "doc": {}, "left": "u", "right": "u", "measure": "u", "system": "s"}
_TARGETS = ([("measures", kind, key) for kind, fields in _MEASURE_FIELDS.items()
             for key in ("kind", *fields)]
            + [("probes", kind, key) for kind, fields in PROBE_FIELDS.items()
               for key in ("probe", *fields)])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(target=st.sampled_from(_TARGETS), value=_JSON_VALUES)
def test_config_any_json_field_value_is_accepted_or_a_config_error(target, value):
    block, kind, key = target
    fields = (_MEASURE_FIELDS if block == "measures" else PROBE_FIELDS)[kind]
    entry = {"kind" if block == "measures" else "probe": kind}
    entry.update((k, _REQUIRED_FIELDS[k]) for k in fields if k in _REQUIRED_FIELDS)
    entry[key] = value
    doc = {"measures": {"u": {"kind": "uniform"}},
           "systems": [{"kind": "torus_rotation", "angles": [0.9], "name": "s"}]}
    if block == "measures":
        doc["measures"]["a"] = entry
    else:
        doc["probes"] = [entry]
    try:
        config_from_dict(doc)
    except ConfigError:
        pass


# -- CLI ------------------------------------------------------------------------

def test_cli_fourier_json(tmp_path, capsys):
    code = main(["measure", "fourier", "uniform", "--band", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["detail"]["band"] == 2
    coeffs = {row[0]: (row[1], row[2]) for row in doc["detail"]["coefficients"]}
    assert sorted(coeffs) == [-2, -1, 0, 1, 2]
    assert coeffs[0][0] == pytest.approx(1.0)
    assert coeffs[0][1] == pytest.approx(0.0)


def test_cli_global_flags_work_in_both_positions(capsys):
    assert main(["--bins", "256", "measure", "fourier", "uniform"]) == 0
    first = capsys.readouterr().out
    assert main(["measure", "fourier", "uniform", "--bins", "256"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_conv_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["measure", "conv", "dirac:1.0", "dirac:2.0",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[0] == "kind"
    assert any(line.startswith("atom") for line in lines[1:])


def test_cli_kalish_matrix_check(capsys):
    code = main(["kalish", "matrix-check", "--grid", "128"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["detail"]["trials"] == 5
    assert doc["detail"]["max_apply_difference"] <= 1e-12
    assert doc["detail"]["max_solve_error"] <= 1e-6


def test_cli_kalish_matrix_check_zero_count_is_typed_error(capsys):
    # the trial count is a constant and hits density prints the Banach
    # density, so neither --count nor hits ubd is left to parse
    for argv, message in ((["kalish", "matrix-check", "--grid", "64", "--count", "0"],
                           "unrecognized arguments"),
                          (["hits", "ubd", "set.txt", "--min-len", "4"],
                           "invalid choice: 'ubd'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    (4, "ValueError: grid_size must be >= 8, got 4"),
    (5000, "MatrixSizeError: M=5000 exceeds dense bound 4096"),
])
def test_cli_kalish_matrix_check_grid_out_of_range_exits_2(capsys, grid, message):
    assert main(["kalish", "matrix-check", "--grid", str(grid)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_lab_orbit_negative_steps_is_typed_error(capsys):
    # the config rejects the step count before any orbit runs
    for system, steps in (("torus:0.9", -1), ("kalish:64", -2)):
        assert main(["lab", "orbit", system, "--steps", str(steps)]) == 2
        assert (f"ConfigError: probes[0].steps: must be nonnegative, got {steps}"
                in capsys.readouterr().err)


@pytest.mark.parametrize("system, message", [
    ({"kind": "kalish"},
     "ValueError: systems[0]: kalish system: missing required field 'grid'"),
    ({"kind": "kalish", "grid": 64.7},
     "ValueError: systems[0]: system field 'grid' must be an integer, got 64.7"),
    # the one strict parser: no field is ignored, and a name is a string
    ({"kind": "kalish", "grid": 64, "gird": 5},
     "ValueError: systems[0]: unknown field 'gird'"),
    ({"kind": "kalish", "grid": 64, "name": 5},
     "ValueError: systems[0]: system field 'name' must be a string, got 5"),
])
def test_cli_lab_orbit_bad_system_document_is_typed_error(tmp_path, capsys, system,
                                                           message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    assert main(["lab", "orbit", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, message", [
    (["measure", "fourier"],
     {"schema": "circle-measure/1", "bins": 16, "atoms": [[1.0]]},
     "ValueError: circle-measure field 'atoms' must be a list of [angle, mass] "
     "pairs of finite numbers, got [[1.0]]"),
    (["measure", "fourier"],
     {"schema": "circle-measure/1", "bins": 16.9, "atoms": [[1.0, 1.0]]},
     "ValueError: circle-measure field 'bins' must be an integer, got 16.9"),
    (["hits", "gaps"], {"schema": "windowed-set/1", "window": 10},
     "ValueError: windowed-set document: missing required field 'elements'"),
    (["kalish", "apply"], {"schema": "circle-function/1", "grid": 8, "re": [1.0] * 8},
     "ValueError: circle-function document: missing required field 'im'"),
    (["kalish", "apply"],
     {"schema": "circle-function/1", "grid": 8.7, "re": [1.0] * 8, "im": [0.0] * 8},
     "ValueError: circle-function field 'grid' must be an integer, got 8.7"),
])
def test_cli_malformed_document_is_typed_error(tmp_path, capsys, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("docs, message", [
    ([{"kind": "torus_rotation", "angles": [0.9], "name": "a"},
      {"kind": "torus_rotation", "angles": [2.1], "name": "a"}],
     "ConfigError: systems[1]: label 'a' already names systems[0]"),
    ([{"kind": "kalish", "grid": 64, "name": 5}],
     "ConfigError: systems[0]: system field 'name' must be a string, got 5"),
    ([{"kind": "kalish", "grid": 64, "gird": 5}],
     "ConfigError: systems[0]: unknown field 'gird'"),
    ([3], "ConfigError: systems[0]: expected an object"),
    ({"kind": "kalish", "grid": 64}, "ConfigError: systems: expected a list, got dict"),
])
def test_cli_lab_classify_systems_file_gets_the_config_checks(tmp_path, capsys, docs,
                                                              message):
    # the file is the systems block of the one-probe config
    path = tmp_path / "systems.json"
    path.write_text(json.dumps(docs))
    assert main(["lab", "classify", "--systems", str(path), "--window", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["measure", "classify", "uniform", "--epsilon", "1.0"],
    ["measure", "classify", "uniform", "--delta", "1.0"],
    ["gauss", "invariance", "--tolerance", "1e9"],
    ["lab", "classify", "--gap-bound", "1000000"],
])
def test_cli_pass_gate_is_no_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_gauss_invariance_control_exit(capsys):
    code = main(["gauss", "invariance", "--grid", "512",
                 "--samples", "1000", "--transport-scale", "1.3"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["control"] == "non-unimodular-transport"


@pytest.mark.parametrize("scale", ["-1.25", "0"])
def test_cli_gauss_invariance_nonpositive_transport_scale_is_typed_error(capsys, scale):
    code = main(["gauss", "invariance", "--grid", "256", "--samples", "100",
                 "--transport-scale", scale])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: ConfigError: probes[0].transport_scale: "
                            f"must be > 0, got {float(scale)}\n")


def test_cli_gauss_invariance_zero_samples_is_typed_error(capsys):
    code = main(["gauss", "invariance", "--grid", "256", "--samples", "0"])
    assert code == 2
    assert "ConfigError: probes[0].samples: must be >= 1" in capsys.readouterr().err


def test_cli_gauss_sample_prints_the_library_draws(capsys):
    model = gauss_model.build_model(gauss_model.corrected_field(
        CircleMeasure.uniform(1.0, bins=1024), 8, 64))
    draws = gauss_model.sample(model, 3, 5)
    argv = ["gauss", "sample", "--grid", "64", "--count", "3", "--seed", "5"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "schema": "gauss-samples/1", "count": 3, "samples": [f.to_dict() for f in draws]}
    assert main([*argv, "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "sample,j,re,im"
    rows = [line.split(",") for line in lines]
    assert [(int(s), int(j)) for s, j, _, _ in rows] == [(s, j) for s in range(3)
                                                          for j in range(64)]
    values = [complex(float(re), float(im)) for _, _, re, im in rows]
    assert np.array_equal(values, np.concatenate([f.values for f in draws]))


def test_cli_hits_pipeline(tmp_path, capsys):
    set_file = tmp_path / "set.txt"
    set_file.write_text("0 3 6 9\n")
    assert main(["hits", "gaps", str(set_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_gap"] == 3
    assert main(["hits", "diff", str(set_file)]) == 0
    diff_doc = json.loads(capsys.readouterr().out)
    assert 0 in diff_doc["elements"]
    assert main(["hits", "density", str(set_file), "--min-len", "4"]) == 0
    density_doc = json.loads(capsys.readouterr().out)
    assert 0.0 < density_doc["upper_banach_density"] <= 1.0


def test_cli_hits_non_integral_set_document_is_typed_error(tmp_path, capsys):
    set_file = tmp_path / "set.json"
    set_file.write_text(json.dumps(
        {"schema": "windowed-set/1", "window": 10, "elements": [3.7, 5]}))
    assert main(["hits", "gaps", str(set_file)]) == 2
    assert ("ValueError: windowed-set element 3.7 is not an integer"
            in capsys.readouterr().err)


def test_cli_hits_non_integral_set_window_is_typed_error(tmp_path, capsys):
    set_file = tmp_path / "set.json"
    set_file.write_text(json.dumps(
        {"schema": "windowed-set/1", "window": 10.7, "elements": [3, 5]}))
    assert main(["hits", "gaps", str(set_file)]) == 2
    assert ("ValueError: windowed-set window 10.7 is not an integer"
            in capsys.readouterr().err)


def test_cli_unknown_measure_token_is_error(capsys):
    code = main(["measure", "fourier", "no-such-thing"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["measure", "fourier", "dirac:abc"],
     "ConfigError: measures.dirac:abc.angle: expected a finite number, got 'abc'"),
    (["measure", "fourier", "probability:1.5"],
     "ConfigError: measures.probability:1.5.seed: expected an integer, got '1.5'"),
    (["lab", "orbit", "kalish:x"],
     "ValueError: systems[0]: system field 'grid' must be an integer, got 'x'"),
    (["lab", "orbit", "torus:"],
     "ValueError: systems[0]: system field 'angles' must be a finite number, got ''"),
    (["kalish", "apply", "chi:x"],
     "ValueError: chi:x field 'angle' must be a finite number, got 'x'"),
])
def test_cli_token_part_of_no_number_is_named_by_its_field(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_bare_torus_token_is_a_system_token_not_a_path(capsys):
    assert main(["lab", "orbit", "torus", "--steps", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ValueError: systems[0]: torus needs at least one angle\n"


@pytest.mark.parametrize("argv, message", [
    (["measure", "fourier", "dirac:1.0:0.5:zzz"],
     "token 'dirac:1.0:0.5:zzz' has more parts than dirac:ANGLE[:MASS] takes"),
    (["lab", "orbit", "kalish:64:zzz"],
     "token 'kalish:64:zzz' has more parts than kalish[:M] takes"),
    (["kalish", "apply", "chi:1.0:junk"],
     "token 'chi:1.0:junk' has more parts than chi:ANGLE takes"),
], ids=["_measure_entry", "_system_doc", "_load_function"])
def test_cli_token_part_nothing_reads_is_named_by_its_token(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {message}\n"


def test_cli_classify_band_below_2_is_named_by_its_field(capsys):
    assert main(["measure", "classify", "dirac:1.0", "--band", "1"]) == 2
    assert capsys.readouterr().err == "error: ConfigError: probes[0].band: must be >= 2\n"


def test_cli_token_numbers_keep_their_types():
    # floats for angle, mass, scalar and angles; ints for seed, grid and dimension
    assert json.dumps(_measure_entry("dirac:1:2")) == (
        '{"kind": "dirac", "angle": 1.0, "mass": 2.0}')
    assert json.dumps(_measure_entry("probability:3")) == '{"kind": "probability", "seed": 3}'
    assert json.dumps(_system_doc("kalish:64", 1024)) == '{"kind": "kalish", "grid": 64}'
    assert json.dumps(_system_doc("scalar-shift:2:8", 1024)) == (
        '{"kind": "scalar_multiple_shift", "scalar": 2.0, "dimension": 8}')
    assert json.dumps(_system_doc("torus:1:0.5", 1024)) == (
        '{"kind": "torus_rotation", "angles": [1.0, 0.5]}')


def test_cli_run_subcommand(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "artifacts"
    code = main(["run", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "reports" / "summary-run-0.json").exists()


def test_cli_entrypoint_runs_as_module():
    # the child does not see pytest's pythonpath setting, so hand it src/
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperlab.cli", "measure", "fourier",
         "uniform", "--band", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["detail"]["band"] == 1


# Each twin command with the equivalent one-probe config; a measure or
# system token is the config's entry of that name, and the orbit probe
# names its system by label.
TWINS = {
    "measure-fourier": (
        ["measure", "fourier", "dirac:1.0:0.5", "--bins", "256", "--band", "8"],
        {"bins": 256,
         "measures": {"dirac:1.0:0.5": {"kind": "dirac", "angle": 1.0, "mass": 0.5}},
         "probes": [{"probe": "fourier", "measure": "dirac:1.0:0.5", "band": 8}]}),
    "measure-classify": (
        ["measure", "classify", "probability", "--bins", "256", "--band", "16",
         "--family-size", "4"],
        {"bins": 256, "measures": {"probability": {"kind": "probability"}},
         "probes": [{"probe": "measure-classify", "measure": "probability",
                     "band": 16, "family_size": 4}]}),
    "kalish-residual": (
        ["kalish", "residual", "--angle", "1.0", "--angle", "2.5",
         "--grids", "64,128,256"],
        {"probes": [{"probe": "residual", "angles": [1.0, 2.5],
                     "grids": [64, 128, 256]}]}),
    "kalish-matrix-check": (
        ["kalish", "matrix-check", "--grid", "128"],
        {"grid": 128, "probes": [{"probe": "matrix-check"}]}),
    "gauss-invariance": (
        ["gauss", "invariance", "--grid", "256", "--samples", "500",
         "--transport-scale", "1.25"],
        {"grid": 256, "probes": [{"probe": "invariance", "samples": 500,
                                  "transport_scale": 1.25}]}),
    "gauss-coeff": (
        ["gauss", "coeff", "--measure", "probability:3", "--grid", "256",
         "--nodes", "4", "--samples", "500", "--power", "3"],
        {"grid": 256, "measures": {"probability:3": {"kind": "probability", "seed": 3}},
         "probes": [{"probe": "coeff", "measure": "probability:3", "nodes": 4,
                     "samples": 500, "max_power": 3}]}),
    "lab-orbit": (
        ["lab", "orbit", "kalish:64", "--steps", "50"],
        {"systems": [{"kind": "kalish", "grid": 64}],
         "probes": [{"probe": "orbit", "system": "kalish-64", "steps": 50}]}),
    "lab-classify": (
        ["lab", "classify", "--window", "100", "--samples", "500"],
        {"probes": [{"probe": "classification", "window": 100, "samples": 500}]}),
}


@pytest.mark.parametrize("argv, doc", TWINS.values(), ids=TWINS.keys())
def test_cli_twin_prints_the_runner_report(tmp_path, capsys, argv, doc):
    seed = 7
    status, out = _run_config(tmp_path, dict(doc, schema="experiment-config/1",
                                             seed=seed))
    (report,) = (out / "reports").glob(f"{doc['probes'][0]['probe']}-*.json")
    argv = [*argv, "--seed", str(seed)]
    assert main(argv) == status
    assert capsys.readouterr().out == report.read_text()
    assert main([*argv, "--format", "csv"]) == status
    assert capsys.readouterr().out == (out / "tables" / f"{report.stem}.csv").read_text()


def test_cli_lab_classify_window_2000_exits_with_a_verdict(capsys):
    # window 2000 zeroes the scalar shift's orbit for most of the window;
    # the battery must still report (0 clean, 1 flagged), never crash (2)
    code = main(["lab", "classify", "--window", "2000", "--samples", "500"])
    assert code in (0, 1)
    assert "scalar-shift-2" in capsys.readouterr().out
