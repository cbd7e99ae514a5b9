"""Artifact keys of every report record.

Each record's to_dict is its dataclass fields plus a tag, so renaming a
field renames an artifact key.  These key sets pin the documents as they
are written, so such a rename fails here instead of moving an artifact.
The m_system and weak_mixing columns write their evidence as a plain
dict, so its keys are pinned the same way.
"""

import json

import pytest

from hyperlab import (
    CircleMeasure,
    build_model,
    classification_run,
    corrected_field,
    dirichlet_probe,
    invariance_check,
    matrix_coefficient_mc,
    mild_mixing_probe,
    orbit,
    periodic_return_probe,
    rajchman_probe,
    return_set_identity_check,
    symmetry_check,
    torus_system,
)
from hyperlab.config import parse_config
from hyperlab.corpora import random_functional
from hyperlab.dynamics_lab import (
    BallSpec, default_start, m_system_probe, probe_orbit, weak_mixing_probe)
from hyperlab.jsonio import stable_dumps


def _uniform():
    return CircleMeasure.uniform(bins=256)


def _torus_orbit():
    spec = torus_system((0.9, 2.1))
    return spec, orbit(spec, default_start(spec, 3), 200)


def _torus_rows():
    spec = torus_system((0.9, 2.1))
    return probe_orbit(spec, default_start(spec, 3), 200)


def _ball(traj):
    return BallSpec(center=traj.states[10], radius=0.6)


def _model():
    return build_model(corrected_field(_uniform(), 4, 64))


def _return_set():
    _, traj = _torus_orbit()
    return return_set_identity_check(traj, _ball(traj))


def _classification():
    return classification_run([torus_system((0.9,))], window=60)


def _config():
    return parse_config(json.dumps({
        "schema": "experiment-config/1",
        "systems": [{"kind": "torus_rotation", "angles": [0.9]}],
        "probes": [{"probe": "orbit", "system": "torus-rotation-0.900"}],
    }))


RECORDS = {
    "RajchmanReport": (
        lambda: rajchman_probe(_uniform(), n_max=16),
        {"probe", "tail_sup", "passed", "window", "epsilon"}),
    "DirichletReport": (
        lambda: dirichlet_probe(_uniform(), n_max=16),
        {"probe", "best_n", "best_value", "passed", "window", "epsilon"}),
    "MildMixingReport": (
        lambda: mild_mixing_probe(_uniform(), family_size=2, n_max=16),
        {"probe", "worst_limsup", "passed", "witness", "family_size",
         "window", "delta", "seed"}),
    "ReturnSetReport": (
        _return_set,
        {"check", "passed", "visits", "pairs_checked", "replay_error",
         "certified", "certified_max_gap"}),
    "ProbeOutcome": (
        lambda: periodic_return_probe(_torus_rows()),
        {"probe", "verdict", "grade", "window", "seed", "evidence"}),
    "ClassificationRow": (
        lambda: _classification().rows[0],
        {"system", "spec", "outcomes", "flags"}),
    "ClassificationReport": (
        _classification, {"schema", "seed", "window", "rows", "flagged"}),
    "SymmetryReport": (
        lambda: symmetry_check(_model(), random_functional(1, 64), 256, seed=1),
        {"check", "second_moment", "second_moment_threshold",
         "re_im_correlation", "correlation_threshold", "variance",
         "analytic_variance", "samples", "seed", "passed"}),
    "InvarianceReport": (
        lambda: invariance_check(_model(), count=256, seed=1),
        {"check", "cov_distance", "exact_distance", "intertwine", "budget",
         "samples", "seed", "passed"}),
    "CoefficientEstimate": (
        lambda: matrix_coefficient_mc(_model(), random_functional(1, 64), 2,
                                      256, seed=1),
        {"check", "value", "standard_error", "power", "samples", "seed"}),
    "ExperimentConfig": (
        _config,
        {"schema", "seed", "bins", "grid", "out", "measures", "systems",
         "probes"}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_keys_are_pinned(name):
    make, keys = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    doc = record.to_dict()
    assert set(doc) == keys
    assert json.loads(stable_dumps(doc)) == doc


EVIDENCE = {
    "m_system": (
        lambda: m_system_probe(torus_system((0.9,)), seed=0),
        {"check", "rank", "family_size", "tolerance", "verdict", "note"}),
    "weak_mixing": (
        lambda: weak_mixing_probe(_torus_rows(), seed=0),
        {"check", "compatible", "forward_visits", "thick_run",
         "backward_visits", "backward_gap", "witness", "window", "note",
         "w0_radius"}),
}


@pytest.mark.parametrize("column", sorted(EVIDENCE))
def test_column_evidence_keys_are_pinned(column):
    make, keys = EVIDENCE[column]
    outcome = make()
    assert outcome.probe == column
    assert set(outcome.evidence) == keys
    assert json.loads(stable_dumps(outcome.to_dict())) == outcome.to_dict()


def test_record_values_keep_their_artifact_form():
    row = _classification().to_dict()["rows"][0]
    assert row["spec"] == {"kind": "torus_rotation", "angles": [0.9]}
    assert row["outcomes"]["chaotic"]["probe"] == "chaotic"
    assert _return_set().to_dict()["certified"]["schema"] == "windowed-set/1"
    assert rajchman_probe(_uniform(), n_max=16).to_dict()["window"] == [8, 16]
    est = matrix_coefficient_mc(_model(), random_functional(1, 64), 2, 256, seed=1)
    assert est.to_dict()["value"] == [est.value.real, est.value.imag]
