"""Dynamics zoo: specs, orbits, hitting sets, probes, classification.

Replay checks and the implication matrix are the load-bearing parts:
n_step_map is the closed-form oracle that step iteration must match,
and the battery run must keep its frozen verdict pattern.
"""

import numpy as np
import pytest

from hyperlab import (
    BallSpec,
    NormDriftError,
    ProbeOutcome,
    SystemSpec,
    birkhoff_probe,
    classification_run,
    classify_system,
    default_battery,
    default_start,
    e_system_probe,
    eigen_span_probe,
    hitting_times,
    implication_flags,
    kalish_system,
    longest_interval,
    max_gap,
    n_step_map,
    orbit,
    periodic_return_probe,
    return_set_identity_check,
    scalar_shift_system,
    step,
    torus_system,
    weighted_shift_system,
)
from hyperlab.dynamics_lab import norms, state_norm
from hyperlab.kalish import CircleFunction, func_norm, grid_norms
from hyperlab.jsonio import stable_dumps
from hyperlab.seeding import rng_for

TWO_PI = 2.0 * np.pi


# -- specs -------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        kalish_system(4)
    with pytest.raises(ValueError):
        scalar_shift_system(0.0, 8)
    with pytest.raises(ValueError):
        scalar_shift_system(2.0, 0)
    with pytest.raises(ValueError):
        weighted_shift_system([1.0, -1.0])
    with pytest.raises(ValueError):
        torus_system([])
    with pytest.raises(ValueError):
        torus_system([TWO_PI])
    with pytest.raises(ValueError):
        SystemSpec(kind="bogus")


def test_spec_dimensions_and_linearity():
    assert kalish_system(64).state_dim == 64
    assert scalar_shift_system(2.0, 12).state_dim == 12
    assert weighted_shift_system([1.0, 2.0]).state_dim == 3
    assert torus_system([1.0, 2.0]).state_dim == 2
    assert kalish_system(64).is_linear
    assert scalar_shift_system(2.0, 12).is_linear
    assert not torus_system([1.0]).is_linear


def test_spec_round_trips():
    specs = [
        kalish_system(64, name="k"),
        scalar_shift_system(2.0 + 1.0j, 12),
        weighted_shift_system([0.5, 2.0], name="w"),
        torus_system([1.0, 2.5]),
    ]
    for spec in specs:
        again = SystemSpec.from_dict(spec.to_dict())
        assert again == spec


def test_spec_labels_are_stable():
    assert kalish_system(64).label == "kalish-64"
    assert kalish_system(64, name="zed").label == "zed"
    assert "scalar-shift-2" in scalar_shift_system(2.0, 12).label


# -- stepping ----------------------------------------------------------

def test_step_scalar_shift_slides_and_scales():
    spec = scalar_shift_system(2.0, 4)
    out = step(spec, np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    np.testing.assert_allclose(out, [4.0, 6.0, 8.0, 0.0])


def test_step_weighted_shift_uses_weights():
    spec = weighted_shift_system([3.0, 0.5])
    out = step(spec, np.array([1.0, 1.0, 1.0], dtype=complex))
    np.testing.assert_allclose(out, [3.0, 0.5, 0.0])


def test_step_torus_rotates_phases():
    spec = torus_system([np.pi / 2])
    out = step(spec, np.array([1.0 + 0.0j]))
    np.testing.assert_allclose(out, [1j], atol=1e-15)


def test_n_step_map_matches_iteration():
    rng = rng_for(0, "n-step-check")
    cases = [
        scalar_shift_system(2.0, 12),
        weighted_shift_system([0.5, 2.0, 1.5, 0.8, 1.2, 2.0, 0.6]),
        torus_system([1.0, 2.5, 0.3]),
        kalish_system(64),
    ]
    for spec in cases:
        x = rng.standard_normal(spec.state_dim) + 1j * rng.standard_normal(
            spec.state_dim
        )
        iterated = x
        for _ in range(5):
            iterated = step(spec, iterated)
        closed = n_step_map(spec, x, 5)
        np.testing.assert_allclose(closed, iterated, atol=1e-9, rtol=1e-9)


def test_n_step_map_rejects_negative():
    with pytest.raises(ValueError):
        n_step_map(torus_system([1.0]), np.ones(1, dtype=complex), -1)


def test_n_step_map_slides_past_window_to_zero():
    spec = scalar_shift_system(2.0, 6)
    out = n_step_map(spec, np.ones(6, dtype=complex), 6)
    np.testing.assert_array_equal(out, np.zeros(6))


# -- orbits ------------------------------------------------------------

def test_orbit_shape_and_start():
    spec = torus_system([1.0, 2.0])
    traj = orbit(spec, np.ones(2, dtype=complex), 50)
    assert traj.length == 51
    np.testing.assert_array_equal(traj.state(0), np.ones(2))


def test_orbit_norms_constant_for_rotation():
    spec = torus_system([1.0, 2.0])
    traj = orbit(spec, np.ones(2, dtype=complex), 100)
    np.testing.assert_allclose(traj.norms(), np.sqrt(2.0), atol=1e-12)


def test_orbit_rejects_wrong_shape():
    with pytest.raises(ValueError):
        orbit(torus_system([1.0]), np.ones(2, dtype=complex), 5)


def test_orbit_norm_drift_guard_names_step():
    spec = weighted_shift_system([3.0] * 7)
    x0 = np.zeros(8, dtype=complex)
    x0[-1] = 1.0
    with pytest.raises(NormDriftError, match="step 3"):
        orbit(spec, x0, 7, drift_factor=10.0)


def test_default_start_shapes():
    for spec in default_battery(window=200):
        x0 = default_start(spec, seed=0)
        assert x0.shape == (spec.state_dim,)
        assert np.all(np.isfinite(x0))


# -- hitting times and balls --------------------------------------------

def test_ball_radius_must_be_positive():
    with pytest.raises(ValueError):
        BallSpec(center=np.zeros(2), radius=0.0)


def test_hitting_times_rational_rotation():
    spec = torus_system([TWO_PI / 8])
    traj = orbit(spec, np.ones(1, dtype=complex), 80)
    ball = BallSpec(center=np.ones(1, dtype=complex), radius=1e-6)
    hits = hitting_times(traj, ball)
    assert hits.window == traj.length
    assert list(hits.elements) == [0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80]
    assert max_gap(hits) == 8


# -- birkhoff ------------------------------------------------------------

def test_birkhoff_constant_function_is_exact():
    spec = torus_system([1.0])
    traj = orbit(spec, np.ones(1, dtype=complex), 64)
    report = birkhoff_probe(
        traj, [("one", lambda x: 1.0)], checkpoints=[16, 32, 64]
    )
    for avg in report.averages["one"]:
        assert avg == pytest.approx(1.0, abs=1e-12)
    assert report.cauchy_gaps["one"] == pytest.approx(0.0, abs=1e-12)


def test_birkhoff_checkpoint_validation():
    traj = orbit(torus_system([1.0]), np.ones(1, dtype=complex), 10)
    with pytest.raises(ValueError):
        birkhoff_probe(traj, [("one", lambda x: 1.0)], checkpoints=[0, 5])
    with pytest.raises(ValueError):
        birkhoff_probe(traj, [("one", lambda x: 1.0)], checkpoints=[99])


# -- return-set identity ---------------------------------------------------

def _irrational_traj(steps=400):
    spec = torus_system([TWO_PI * (np.sqrt(2.0) - 1.0)])
    return orbit(spec, np.ones(1, dtype=complex), steps)


def test_return_set_identity_passes_with_exact_witnesses():
    traj = _irrational_traj()
    ball = BallSpec(center=np.ones(1, dtype=complex), radius=0.5)
    report = return_set_identity_check(traj, ball)
    assert report.passed
    assert report.replay_error <= 1e-9
    assert report.visits >= 2
    assert 0 in report.certified
    assert report.certified_max_gap >= 1


def test_return_set_identity_negative_control():
    traj = _irrational_traj()
    ball = BallSpec(center=np.ones(1, dtype=complex), radius=0.5)
    # aim the membership check at a ball the replayed states cannot hit
    far = BallSpec(center=-np.ones(1, dtype=complex), radius=0.05)
    report = return_set_identity_check(traj, ball, verify_ball=far)
    assert not report.passed


def test_return_set_identity_needs_two_visits():
    traj = _irrational_traj(50)
    lonely = BallSpec(center=np.ones(1, dtype=complex), radius=1e-9)
    with pytest.raises(ValueError):
        return_set_identity_check(traj, lonely)


# -- spectral probes ----------------------------------------------------------

def test_eigen_span_verdicts_by_kind():
    assert eigen_span_probe(kalish_system(256)).verdict == "yes"
    assert eigen_span_probe(torus_system([1.0, 2.0])).verdict == "yes"
    assert eigen_span_probe(scalar_shift_system(2.0, 64)).verdict == "no-evidence"


def test_eigen_span_full_rank_for_kalish():
    report = eigen_span_probe(kalish_system(256))
    assert report.rank == report.family_size


def test_periodic_return_rational_vs_irrational():
    rational = orbit(torus_system([TWO_PI / 8]), np.ones(1, dtype=complex), 100)
    found = periodic_return_probe(rational)
    assert found.verdict == "yes"
    assert found.evidence["best_period"] % 8 == 0
    assert found.evidence["best_return"] <= 1e-12

    irrational = _irrational_traj(100)
    missed = periodic_return_probe(irrational)
    assert missed.verdict == "no"


def test_e_system_probe_mixture_masses_positive_for_torus():
    spec = torus_system([TWO_PI * (np.sqrt(2.0) - 1.0),
                         TWO_PI * (np.sqrt(3.0) - 1.0)])
    traj = orbit(spec, default_start(spec, 0), 400)
    outcome = e_system_probe(spec, traj, seed=0, mc_samples=2000)
    assert outcome.verdict == "yes"
    masses = outcome.evidence["half_masses"]
    assert len(masses) >= 2
    # positive empirical mass in both window halves for every test ball
    assert all(first > 0 and second > 0 for first, second in masses)


# -- fixed-point thickness ------------------------------------------------------

def test_zero_ball_visits_thicken_with_radius():
    # a decaying orbit of the doubling shift: once inside a zero ball it
    # stays, so each visit set is one terminal run and larger balls hold
    # strictly longer runs
    spec = scalar_shift_system(2.0, 64)
    x0 = 4.0 ** -np.arange(64, dtype=float) + 0j
    traj = orbit(spec, x0, 40)
    zero = np.zeros(64, dtype=complex)
    runs = []
    for radius in (0.5, 0.05, 0.005):
        visits = hitting_times(traj, BallSpec(center=zero, radius=radius))
        assert visits.size >= 1
        # single terminal run: every time from the first visit onward
        assert longest_interval(visits) == visits.size
        assert visits.elements[-1] == traj.length - 1
        runs.append(visits.size)
    assert runs[0] > runs[1] > runs[2]


# -- implication matrix ----------------------------------------------------------

def _outcomes(**verdict_grade):
    columns = ["chaotic", "m_system", "e_system", "syndetic",
               "weak_mixing", "ufh"]
    out = {}
    for name in columns:
        verdict, grade = verdict_grade.get(name, ("no-evidence", "heuristic"))
        out[name] = ProbeOutcome(probe=name, verdict=verdict, grade=grade,
                                 window=100, seed=0, evidence={})
    return out


def test_flag_raised_when_conclusion_grade_strong():
    out = _outcomes(chaotic=("yes", "heuristic"), m_system=("no", "exact"))
    flags = implication_flags(out, linear=True)
    assert any("chaotic=yes" in f and "m_system=no" in f for f in flags)


def test_no_flag_when_conclusion_grade_weaker():
    out = _outcomes(chaotic=("yes", "exact"), m_system=("no", "heuristic"))
    assert implication_flags(out, linear=True) == []


def test_no_flag_on_no_evidence():
    out = _outcomes(chaotic=("yes", "exact"))
    assert implication_flags(out, linear=True) == []


def test_transitive_closure_flags_distant_edge():
    out = _outcomes(chaotic=("yes", "exact"), syndetic=("no", "exact"))
    flags = implication_flags(out, linear=False)
    assert any("chaotic=yes" in f and "syndetic=no" in f for f in flags)


def test_weak_mixing_edge_is_linear_only():
    out = _outcomes(syndetic=("yes", "exact"), weak_mixing=("no", "exact"))
    assert implication_flags(out, linear=True) != []
    assert implication_flags(out, linear=False) == []


def test_ufh_implies_syndetic():
    out = _outcomes(ufh=("yes", "exact"), syndetic=("no", "exact"))
    assert implication_flags(out, linear=False) != []


# -- classification harness -------------------------------------------------------

@pytest.fixture(scope="module")
def battery_report():
    return classification_run(default_battery(1000), window=1000, seed=0,
                              mc_samples=10_000)


def test_battery_has_no_flags(battery_report):
    assert not battery_report.flagged
    for row in battery_report.rows:
        assert row.flags == ()


def test_battery_verdict_pattern(battery_report):
    by_name = {row.system: row for row in battery_report.rows}
    torus = by_name["torus-rotation"].outcomes
    shift = by_name["scalar-shift-2"].outcomes
    kalish = by_name["kalish-gaussian"].outcomes
    assert torus["weak_mixing"].verdict == "no"
    assert torus["syndetic"].verdict == "yes"
    assert shift["weak_mixing"].verdict == "yes"
    assert shift["m_system"].verdict == "no-evidence"
    assert all(kalish[c].verdict == "yes" for c in kalish)


def test_battery_csv_shape(battery_report):
    lines = battery_report.to_csv().strip().split("\n")
    assert lines[0] == "system,chaotic,m_system,e_system,syndetic,weak_mixing,ufh,flags"
    assert len(lines) == 4
    assert all(line.endswith(",none") for line in lines[1:])


def test_battery_to_dict_schema(battery_report):
    doc = battery_report.to_dict()
    assert doc["schema"].startswith("classification/")
    assert len(doc["rows"]) == 3


def test_classification_deterministic():
    small = default_battery(200)[:1]  # torus only, fast
    a = classification_run(small, window=200, seed=3, mc_samples=500)
    b = classification_run(small, window=200, seed=3, mc_samples=500)
    assert stable_dumps(a.to_dict()) == stable_dumps(b.to_dict())


def test_classify_system_single_row():
    row = classify_system(torus_system([TWO_PI / 8], name="t"),
                          window=200, seed=0, mc_samples=500)
    assert row.system == "t"
    assert set(row.outcomes) == {
        "chaotic", "m_system", "e_system", "syndetic", "weak_mixing", "ufh"
    }


# -- one state norm per kind --------------------------------------------

@pytest.mark.parametrize("spec", [
    kalish_system(64),
    scalar_shift_system(2.0, 40),
    weighted_shift_system([1.5] * 39),
    torus_system((0.3, 1.1, 2.5)),
])
def test_norms_match_the_per_state_norm_row_by_row(spec):
    rng = rng_for(21, "norms-rows")
    X = rng.standard_normal((7, spec.state_dim)) + 1j * rng.standard_normal(
        (7, spec.state_dim))
    weight = TWO_PI / spec.grid_size if spec.kind == "kalish" else 1.0
    got = norms(spec, X)
    assert got.shape == (7,)
    for row, value in zip(X, got):
        # independent formula: sqrt(weight * sum |x_i|^2)
        want = np.sqrt(weight * np.sum(row.real ** 2 + row.imag ** 2))
        assert value == pytest.approx(want, rel=1e-14)
        assert value == pytest.approx(state_norm(spec, row), rel=1e-15)


def test_kalish_norms_keep_the_row_reduction_bit_for_bit():
    spec = kalish_system(1024)
    rng = rng_for(22, "norms-bits")
    X = rng.standard_normal((9, 1024)) + 1j * rng.standard_normal((9, 1024))
    # the row formula dynamics_lab.norms reduced with before grid_norms
    want = np.sqrt((TWO_PI / 1024) * np.sum(np.abs(X) ** 2, axis=-1))
    assert np.array_equal(norms(spec, X), want)
    cols = grid_norms(X.T)
    for j, value in enumerate(cols):
        assert value == pytest.approx(func_norm(CircleFunction(X[j], 1024)),
                                      rel=1e-15)


def test_window_2000_battery_gives_typed_no_evidence_not_a_crash():
    rows = {spec.name: classify_system(spec, window=2000, mc_samples=500)
            for spec in default_battery(2000)}
    outcome = rows["scalar-shift-2"].outcomes["weak_mixing"]
    assert outcome.verdict == "no-evidence"
    assert "note" in outcome.evidence
    for row in rows.values():
        stable_dumps(row.to_dict())


def test_fixed_point_rotation_gives_typed_no_evidence():
    row = classify_system(torus_system((0.0,)), window=100)
    for column in ("e_system", "syndetic", "ufh"):
        outcome = row.outcomes[column]
        assert outcome.verdict == "no-evidence", column
        assert "constant" in outcome.evidence["note"]
    assert row.outcomes["chaotic"].verdict == "yes"  # a fixed point is periodic
    assert row.flags == ()
    stable_dumps(row.to_dict())
