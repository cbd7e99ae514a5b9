"""Seeded corpora, experiment configs, the runner, and the CLI surface."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import CircleMeasure, total_mass, upper_banach_density
from hyperlab.cli import main
from hyperlab.config import ConfigError, ExperimentConfig, parse_config
from hyperlab.corpora import (
    measure_pair,
    probability_measure,
    random_functional,
    random_windowed_set,
    scaffold_set,
)
from hyperlab.jsonio import read_json
from hyperlab.runner import measure_classification, residual_rows
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
    # every tolerance and window is explicit after validation
    assert probe["tolerance"] == 1e-5
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


# -- CLI ------------------------------------------------------------------------

def test_cli_fourier_json(tmp_path, capsys):
    code = main(["measure", "fourier", "uniform", "--band", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["band"] == 2
    coeffs = {row[0]: (row[1], row[2]) for row in doc["coefficients"]}
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
    code = main(["kalish", "matrix-check", "--grid", "128", "--count", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["max_apply_difference"] <= 1e-12
    assert doc["max_solve_error"] <= 1e-6


def test_cli_gauss_invariance_control_exit(capsys):
    code = main(["gauss", "invariance", "--grid", "512",
                 "--samples", "1000", "--transport-scale", "1.3"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["control"] == "non-unimodular-transport"


def test_cli_hits_pipeline(tmp_path, capsys):
    set_file = tmp_path / "set.txt"
    set_file.write_text("0 3 6 9\n")
    assert main(["hits", "gaps", str(set_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_gap"] == 3
    assert main(["hits", "diff", str(set_file)]) == 0
    diff_doc = json.loads(capsys.readouterr().out)
    assert 0 in diff_doc["elements"]
    assert main(["hits", "ubd", str(set_file), "--min-len", "4"]) == 0
    ubd_doc = json.loads(capsys.readouterr().out)
    assert 0.0 < ubd_doc["upper_banach_density"] <= 1.0


def test_cli_unknown_measure_token_is_error(capsys):
    code = main(["measure", "fourier", "no-such-thing"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_run_subcommand(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    out = tmp_path / "artifacts"
    code = main(["run", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "reports" / "summary-run-0.json").exists()


def test_cli_entrypoint_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperlab.cli", "measure", "fourier",
         "uniform", "--band", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["band"] == 1


def test_cli_kalish_residual_matches_runner_rows(capsys):
    angles, grids = [1.0, 2.5], [64, 128, 256]
    argv = ["kalish", "residual", "--grids", "64,128,256"]
    for lam in angles:
        argv += ["--angle", str(lam)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "residual-table/1"
    want = [[lam, M, r] for lam, M, r, _ in residual_rows(angles, grids)]
    assert doc["rows"] == want
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lambda,grid,residual,ratio"
    assert len(lines) == 1 + len(angles) * len(grids)
    assert lines[1].endswith(",nan")


def test_cli_measure_classify_matches_runner(tmp_path, capsys):
    assert main(["measure", "classify", "probability:3", "--bins", "256",
                 "--band", "16", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    reports, _ = measure_classification(probability_measure(3, 256), band=16,
                                        epsilon=0.1, delta=0.1,
                                        family_size=16, seed=5)
    assert doc.pop("schema") == "measure-classify/1"
    assert doc == json.loads(json.dumps(reports))
    cfg = {"schema": "experiment-config/1", "seed": 5, "bins": 256,
           "measures": {"rho": {"kind": "probability", "seed": 3}},
           "probes": [{"probe": "measure-classify", "measure": "rho",
                       "band": 16, "seed": 5}]}
    status, out = _run_config(tmp_path, cfg)
    assert status == 0
    report = read_json(out / "reports" / "measure-classify-rho-5.json")
    assert report["detail"] == doc


def test_cli_lab_classify_window_2000_exits_with_a_verdict(capsys):
    # window 2000 zeroes the scalar shift's orbit for most of the window;
    # the battery must still report (0 clean, 1 flagged), never crash (2)
    code = main(["lab", "classify", "--window", "2000", "--samples", "500"])
    assert code in (0, 1)
    assert "scalar-shift-2" in capsys.readouterr().out
