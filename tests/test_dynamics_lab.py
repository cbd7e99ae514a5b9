"""Dynamics zoo: specs, orbits, hitting sets, probes, classification.

Replay checks and the implication matrix are the load-bearing parts:
n_step_map is the closed-form oracle that step iteration must match,
and the battery run must keep its frozen verdict pattern.
"""

import csv
import io
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import line_events
from hyperlab import (
    BallSpec,
    NormDriftError,
    ProbeOutcome,
    SystemSpec,
    classification_run,
    classify_system,
    default_battery,
    default_start,
    e_system_probe,
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
from hyperlab import dynamics_lab
from hyperlab.dynamics_lab import (
    m_system_probe, norms, orbit_rows, parse_systems, probe_orbit, state_norm,
    weak_mixing_probe)
from hyperlab.gauss_model import walk
from hyperlab.kalish import (
    CircleFunction, arc_indicators, func_norm, grid_norms, kalish_matrix)
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


def test_a_complex_scalar_label_keeps_its_imaginary_part():
    # real scalars keep their labels, which key the start streams
    assert scalar_shift_system(2.0, 10).label == "scalar-shift-2-d10"
    assert scalar_shift_system(-0.5, 10).label == "scalar-shift--0.5-d10"
    assert scalar_shift_system(2 + 1j, 10).label == "scalar-shift-2+1j-d10"
    assert scalar_shift_system(2 - 0.5j, 10).label == "scalar-shift-2-0.5j-d10"
    docs = [{"kind": "scalar_multiple_shift", "scalar": s, "dimension": 10}
            for s in (2.0, [2.0, 1.0])]
    assert [spec.label for spec in parse_systems(docs)] == [
        "scalar-shift-2-d10", "scalar-shift-2+1j-d10"]


@pytest.mark.parametrize("build, field", [
    (lambda: scalar_shift_system(float("nan"), 50), "scalar"),
    (lambda: scalar_shift_system(float("inf"), 50), "scalar"),
    (lambda: scalar_shift_system(complex(1.0, float("-inf")), 50), "scalar"),
    (lambda: weighted_shift_system([float("inf")] * 49), "weights"),
    (lambda: weighted_shift_system([1.0, float("nan")]), "weights"),
])
def test_shift_constructors_reject_a_non_finite_scalar_or_weight(build, field):
    with pytest.raises(ValueError, match=f"field '{field}' must be finite"):
        build()


# -- stepping ----------------------------------------------------------

# a shift state is held in symbol coordinates y_i = W_i x_i, W_i = w_1 ... w_i:
# T slides y, and the weights enter through the norm, sum_i |y_i|^2 / |W_i|^2

def test_step_scalar_shift_slides_and_the_norm_scales():
    spec = scalar_shift_system(2.0, 4)
    y = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    np.testing.assert_array_equal(step(spec, y), [2.0, 3.0, 4.0, 0.0])
    # W = (1, 2, 4, 8)
    assert state_norm(spec, y) == pytest.approx(np.sqrt(1 + 1 + 9 / 16 + 16 / 64), rel=1e-15)


def test_step_weighted_shift_slides_and_the_norm_uses_weights():
    spec = weighted_shift_system([3.0, 0.5])
    y = np.array([1.0, 1.0, 1.0], dtype=complex)
    np.testing.assert_array_equal(step(spec, y), [1.0, 1.0, 0.0])
    # W = (1, 3, 1.5)
    assert state_norm(spec, y) == pytest.approx(np.sqrt(1 + 1 / 9 + 1 / 2.25), rel=1e-15)


def _shift_W(spec) -> np.ndarray:
    """|W_i| from the shift's document fields, in floating point."""
    if spec.kind == "weighted_shift":
        return np.cumprod([1.0, *spec.weights])
    return abs(spec.scalar) ** np.arange(spec.dimension, dtype=float)


@pytest.mark.parametrize("spec", [
    scalar_shift_system(2.0, 40),
    scalar_shift_system(-0.5, 40),
    scalar_shift_system(3 + 1j, 30),
    weighted_shift_system([0.5, 2.0, 1.5, 0.8] * 8),
], ids=lambda s: s.label)
def test_shift_norms_are_the_euclidean_norm_of_x(spec):
    W = _shift_W(spec)
    assert np.all((1e-100 <= W) & (W <= 1e100))  # x = y / W is in the float range
    rng = rng_for(23, "shift-norm-oracle")
    Y = rng.standard_normal((9, spec.state_dim)) + 1j * rng.standard_normal(
        (9, spec.state_dim))
    np.testing.assert_allclose(norms(spec, Y), np.linalg.norm(Y / W, axis=-1),
                               rtol=1e-14, atol=0)


def test_step_torus_rotates_phases():
    spec = torus_system([np.pi / 2])
    out = step(spec, np.array([1.0 + 0.0j]))
    np.testing.assert_allclose(out, [1j], atol=1e-15)


def _random_state(spec, label):
    rng = rng_for(0, label)
    return rng.standard_normal(spec.state_dim) + 1j * rng.standard_normal(
        spec.state_dim)


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


@pytest.mark.parametrize("spec", [
    kalish_system(128),
    scalar_shift_system(2.0, 12),
    scalar_shift_system(0.5 + 0.5j, 12),
    weighted_shift_system([0.5, 2.0, 1.5, 0.8, 1.2, 2.0, 0.6]),
], ids=lambda s: s.label)
def test_n_step_map_replays_the_step_loop_bitwise(spec):
    x = _random_state(spec, "n-step-replay")
    d = spec.state_dim
    for n in (0, 1, 7, d - 1, d, d + 3):
        looped = x
        for _ in range(n):
            looped = step(spec, looped)
        assert np.array_equal(_bits(n_step_map(spec, x, n)), _bits(looped)), n
        assert np.array_equal(_bits(n_step_map(spec, list(x), n)), _bits(looped)), n


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
    np.testing.assert_array_equal(traj.states[0], np.ones(2))


def test_orbit_norms_constant_for_rotation():
    spec = torus_system([1.0, 2.0])
    traj = orbit(spec, np.ones(2, dtype=complex), 100)
    np.testing.assert_allclose(traj.norms(), np.sqrt(2.0), atol=1e-12)


def test_orbit_rejects_wrong_shape():
    with pytest.raises(ValueError):
        orbit(torus_system([1.0]), np.ones(2, dtype=complex), 5)


def test_orbit_rejects_negative_steps():
    with pytest.raises(ValueError, match="n >= 0 steps, got -1"):
        orbit(torus_system([1.0]), np.ones(1, dtype=complex), -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("walker", [lambda spec, x0: orbit(spec, x0, 5),
                                    lambda spec, x0: orbit_rows(spec, x0, 5, [0])],
                         ids=["orbit", "orbit_rows"])
def test_a_non_finite_start_is_a_typed_error_naming_it(walker, bad):
    # the drift guard reads a nan norm row as no drift, and an inf start
    # made the step warn instead of failing
    spec = torus_system((0.3, 1.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^start coordinate 0 is \({bad}\+0j\), "
                                             "not finite$"):
            walker(spec, [bad, 1.0])


def test_orbit_norm_drift_guard_names_step():
    # the norm grows 11-fold per step: 11**2 < 1e3 < 11**3
    spec = weighted_shift_system([11.0] * 7)
    x0 = np.zeros(8, dtype=complex)
    x0[-1] = 1.0
    with pytest.raises(NormDriftError, match="step 3 of 7"):
        orbit(spec, x0, 7)


def test_default_start_shapes():
    for spec in default_battery(window=200):
        x0 = default_start(spec, seed=0)
        assert x0.shape == (spec.state_dim,)
        assert np.all(np.isfinite(x0))


@pytest.mark.parametrize("window", [1, 10, 1000])
@pytest.mark.parametrize("spec", [scalar_shift_system(0.5, 1128),
                                  weighted_shift_system([0.3] * 900)],
                         ids=["half-shift", "weighted-0.3"])
def test_contracting_shift_start_is_finite(spec, window):
    # 1 / W_i overflows the float range here; the start drops the symbols
    # from the first W_i < e^-300 on instead of sending inf/nan through the
    # probes (the tier-1 filter turns any RuntimeWarning into a failure)
    x0 = default_start(spec, 0)
    assert np.all(np.isfinite(x0)) and np.isfinite(state_norm(spec, x0) ** 2)
    classify_system(spec, window, 0)


def test_a_weighted_shift_start_drops_the_coordinates_past_a_deep_dip():
    # W_i falls below e^-300 and rises again; a coordinate past the dip
    # would reach e^300 on its way through it, and the guard would trip
    spec = weighted_shift_system([1e-3] * 101 + [1e3] * 60)
    x0 = default_start(spec, 0)
    assert np.all(x0[44:] == 0) and np.all(x0[:44] != 0)
    classify_system(spec, 300, 0, mc_samples=64)


@pytest.mark.parametrize("spec, window", [
    (scalar_shift_system(0.01, 100), 28),
    (scalar_shift_system(1e-5, 300), 40),
    (scalar_shift_system(-0.05, 300), 22),
    (scalar_shift_system(0.3j, 300), 31),
    (weighted_shift_system([0.01] * 99), 40),
], ids=lambda v: v.label if isinstance(v, SystemSpec) else str(v))
def test_contracting_shift_pullbacks_stay_finite_and_move_no_verdict(spec, window):
    # the pullback norm grows like |lambda|^-k; the scan takes every
    # pullback whose support stays before stop, where no weight read
    # passes e^600, so it raises no warning; the verdicts are pinned
    traj = probe_orbit(spec, default_start(spec, 0), window)
    center = traj.snapshots[traj.length // 2]
    depth = spec.ops.pullbacks(center, window)
    pulled = _forward_slides(center, depth + 1)
    assert np.flatnonzero(pulled[depth]).max() < spec.ops.stop
    assert depth == window or np.flatnonzero(pulled[depth + 1]).max() == spec.ops.stop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weak_mixing_probe(traj, seed=0)
    row = classify_system(spec, window, 0)
    assert {c: o.verdict for c, o in row.outcomes.items()} == {
        "chaotic": "no", "m_system": "no-evidence", "e_system": "no",
        "syndetic": "yes", "weak_mixing": "yes", "ufh": "yes"}
    assert row.flags == ()


def _forward_slides(y: np.ndarray, n: int) -> np.ndarray:
    """y and its n forward slides, the right inverse R of a shift's T in
    symbol coordinates, one slide at a time: the pullbacks' oracle."""
    slides = [np.asarray(y, dtype=complex)]
    for _ in range(n):
        slides.append(np.concatenate([[0.0], slides[-1][:-1]]))
    return np.array(slides)


# -- hitting times and balls --------------------------------------------

def test_ball_radius_must_be_positive():
    for radius in (0.0, float("nan")):  # a nan radius would hit nothing, silently
        with pytest.raises(ValueError, match="radius must be positive"):
            BallSpec(center=np.zeros(2), radius=radius)


def test_hitting_times_rational_rotation():
    spec = torus_system([TWO_PI / 8])
    traj = orbit(spec, np.ones(1, dtype=complex), 80)
    ball = BallSpec(center=np.ones(1, dtype=complex), radius=1e-6)
    hits = hitting_times(traj, ball)
    assert hits.window == traj.length
    assert list(hits.elements) == [0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80]
    assert max_gap(hits) == 8


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
    assert m_system_probe(kalish_system(256), seed=0).verdict == "yes"
    assert m_system_probe(torus_system([1.0, 2.0]), seed=0).verdict == "yes"
    assert m_system_probe(scalar_shift_system(2.0, 64), seed=0).verdict == "no-evidence"


def test_eigen_span_full_rank_for_kalish():
    evidence = m_system_probe(kalish_system(256), seed=0).evidence
    assert evidence["rank"] == evidence["family_size"]


@pytest.mark.parametrize("M", [8, 16, 32, 64, 100, 256, 1000, 1024, 4096])
def test_kalish_eigen_span_rank_is_the_arc_family_svd_rank(M):
    # the probe states the rank by construction; the SVD is the oracle
    outcome = m_system_probe(kalish_system(M), seed=0)
    size = min(64, max(M // 16, 2))
    angles = TWO_PI * (np.arange(size) + 0.5) / size
    sv = np.linalg.svd(arc_indicators(angles, M).astype(complex), compute_uv=False)
    rank = int(np.sum(sv > outcome.evidence["tolerance"] * sv[0]))
    assert rank == outcome.evidence["rank"] == outcome.evidence["family_size"] == size
    assert outcome.verdict == "yes" and outcome.window == size


def test_periodic_return_rational_vs_irrational():
    rational = probe_orbit(torus_system([TWO_PI / 8]), np.ones(1, dtype=complex), 100)
    found = periodic_return_probe(rational)
    assert found.verdict == "yes"
    assert found.evidence["best_period"] % 8 == 0
    assert found.evidence["best_return"] <= 1e-12

    spec = torus_system([TWO_PI * (np.sqrt(2.0) - 1.0)])
    missed = periodic_return_probe(probe_orbit(spec, np.ones(1, dtype=complex), 100))
    assert missed.verdict == "no"


@pytest.mark.parametrize("spec", [
    torus_system((0.3, 1.1)), scalar_shift_system(2.0, 20), kalish_system(64),
], ids=lambda spec: spec.label)
def test_periodic_return_on_a_one_state_orbit_is_no_evidence(spec):
    # x_0 alone has no return time p >= 1: a typed answer, not numpy's
    # argmin of an empty sequence
    traj = orbit_rows(spec, default_start(spec, 0), 0, centers=[0])
    outcome = periodic_return_probe(traj, seed=3)
    assert (outcome.probe, outcome.verdict, outcome.grade) == (
        "chaotic", "no-evidence", "heuristic")
    assert (outcome.window, outcome.seed) == (1, 3)
    assert outcome.evidence == {"note": "orbit has one state: no return time to test"}


def test_e_system_probe_mixture_masses_positive_for_torus():
    spec = torus_system([TWO_PI * (np.sqrt(2.0) - 1.0),
                         TWO_PI * (np.sqrt(3.0) - 1.0)])
    traj = probe_orbit(spec, default_start(spec, 0), 400)
    outcome = e_system_probe(traj, seed=0, mc_samples=2000)
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


def test_battery_csv_quotes_a_system_name_with_a_comma():
    report = classification_run([torus_system((1.0,), name="a,b")], window=50)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert [len(r) for r in rows] == [8, 8]
    assert rows[1][0] == "a,b"


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


def test_classify_system_simulates_one_orbit_per_row(monkeypatch):
    # each row streams its one orbit through orbit_rows, whose drift guard
    # reads the norm row its rows hook gave
    calls = {"orbit_rows": 0, "_ball_family": 0}
    for name in calls:
        def counting(*args, _real=getattr(dynamics_lab, name), _name=name,
                     **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(dynamics_lab, name, counting)
    specs = [torus_system([0.9, 2.1]), scalar_shift_system(2.0, 188),
             kalish_system(64)]
    classification_run(specs, window=60, mc_samples=500)
    # weak mixing reads the row's trajectory instead of simulating its own
    assert calls["orbit_rows"] == len(specs)
    # e_system's family and the one reference ball of syndetic and ufh;
    # the kalish e_system column reads the Gaussian model instead
    assert calls["_ball_family"] == 2 + 2 + 1


# -- one state norm per kind --------------------------------------------

def _norm_weights(spec) -> np.ndarray:
    """The documented weight of each |x_i|^2 in a state's squared norm:
    2pi/M for kalish, 1 / |W_i|^2 for shifts, 1 for the torus."""
    if spec.kind == "kalish":
        return np.full(spec.state_dim, TWO_PI / spec.grid_size)
    if spec.kind == "torus_rotation":
        return np.ones(spec.state_dim)
    return _shift_W(spec) ** -2.0


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
    got = norms(spec, X)
    assert got.shape == (7,)
    for row, value in zip(X, got):
        # independent formula: sqrt(sum_i weight_i |x_i|^2)
        want = np.sqrt(np.sum(_norm_weights(spec) * (row.real ** 2 + row.imag ** 2)))
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
    assert np.array_equal(cols, np.sqrt((TWO_PI / 1024) * np.sum(np.abs(X.T) ** 2, axis=0)))
    for j, value in enumerate(cols):
        assert value == pytest.approx(func_norm(CircleFunction(X[j], 1024)),
                                      rel=1e-15)


# -- the streamed orbit ----------------------------------------------------

def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _closed_form(spec) -> bool:
    """Whether spec's rows are closed forms that agree with the stepped
    orbit to round-off (kalish and the torus), not bitwise (a shift)."""
    return not isinstance(spec.ops, dynamics_lab._Shift)


def _assert_row(spec, got: np.ndarray, want: np.ndarray, scale: float) -> None:
    """got is want: bit for bit for a shift, within 1e-11 x scale, the
    largest norm of the orbit, for a closed-form kind."""
    if _closed_form(spec):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-11 * scale
    else:
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("spec", [
    kalish_system(64),
    scalar_shift_system(2.0, 90),
    scalar_shift_system(0.5, 30),  # zero from step 30 on: exact-zero rows
    weighted_shift_system([1.5] * 59),
    torus_system((0.3, 1.1, 2.5)),
], ids=lambda spec: spec.label)
def test_streamed_rows_are_the_stored_orbit(spec, monkeypatch):
    n, times = 50, [0, 7, 25, 50]
    x0 = default_start(spec, 5)
    stored = orbit(spec, x0, n)
    scale = float(np.max(stored.norms()))
    one_pass = [norms(spec, stored.states - stored.states[t]) for t in times]
    one_block = orbit_rows(spec, x0, n, centers=times)
    # 7 states a block: 7 blocks and a 2-state remainder
    monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", 7 * _row_width(spec))
    blocked = orbit_rows(spec, x0, n, centers=times)
    for streamed in (one_block, blocked):
        _assert_row(spec, streamed.norm_row, stored.norms(), scale)
        for t, want in zip(times, one_pass):
            _assert_row(spec, streamed.rows[t], want, scale)
    # the block size moves no bit of a row
    for t in times:
        assert np.array_equal(_bits(blocked.rows[t]), _bits(one_block.rows[t]))
    # hitting_times on the stored orbit, in 7-state blocks of its states
    monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", 7 * spec.state_dim)
    for t, want in zip(times, one_pass):
        ball = BallSpec(center=stored.states[t], radius=float(np.median(want)) + 1e-300)
        hits = hitting_times(stored, ball)
        assert np.array_equal(hits.elements, np.flatnonzero(want < ball.radius))


def _row_width(spec) -> int:
    """The width of spec's orbit rows, the coordinates its norm reads: a
    shift's head, kalish's node count, the torus's angle count."""
    return spec.ops.rows(default_start(spec, 0), 0)[0]


def _record_kernel(monkeypatch) -> list:
    """Wrap _distance_rows to record (spec, block lengths, states, centers,
    rows) of every call, the blocks in the order the kernel asks for them,
    which must be row order; blocks are copied, since a rows hook reuses
    its buffer."""
    calls = []
    kernel = dynamics_lab._distance_rows

    def recording(spec, rows_of, centers, length):
        seen = []

        def copying(lo, hi):
            assert lo == sum(len(b) for b in seen)
            block = rows_of(lo, hi)
            seen.append(block.copy())
            return block

        centers = [np.array(c, dtype=complex) for c in centers]
        rows = kernel(spec, copying, centers, length)
        calls.append((spec, [len(b) for b in seen], np.concatenate(seen), centers, rows))
        return rows

    monkeypatch.setattr(dynamics_lab, "_distance_rows", recording)
    return calls


def _reference_norm(spec, x: np.ndarray):
    """The kind's documented per-state norm, written without a scratch:
    for a shift, the moduli squared, times 1 / |W_i|^2 over the head."""
    if spec.kind == "kalish":
        return np.sqrt((TWO_PI / x.shape[-1]) * np.sum(np.abs(x) ** 2.0, axis=-1))
    if spec.kind == "torus_rotation":
        return np.linalg.norm(x, axis=-1)
    head = spec.ops.head
    return np.sqrt(np.sum(np.abs(x[..., :len(head)]) ** 2.0 * head, axis=-1))


@pytest.mark.parametrize("spec", [
    kalish_system(8),
    kalish_system(1024),
    scalar_shift_system(2.0, 90),
    scalar_shift_system(2.0, 1128),  # head 538 of 1128
    weighted_shift_system([1.5] * 59),
    torus_system((0.3, 1.1, 2.5)),
], ids=lambda spec: spec.label)
@pytest.mark.parametrize("block_states", [7, None], ids=["7-state-blocks", "kernel-blocks"])
def test_distance_kernel_is_the_per_state_norm_bit_for_bit(spec, block_states,
                                                           monkeypatch):
    width = _row_width(spec)
    if block_states:
        monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", block_states * width)
    n = 100  # 101 states: the last block is short at 7-state blocks
    x0 = default_start(spec, 3)
    calls = _record_kernel(monkeypatch)
    centers = [0, 3, 7, 12, 20, 33, 41, 100]
    orbit_rows(spec, x0, n, centers=[0])  # one center
    orbit_rows(spec, x0, n, centers=centers)  # eight centers
    weak_mixing_probe(probe_orbit(spec, x0, n), seed=0)  # the pullbacks
    stored = orbit(spec, x0, n)
    hitting_times(stored, BallSpec(center=stored.states[7], radius=1.0))
    probed = len(set(dynamics_lab._probe_times(spec, n + 1).centers))
    # orbit_rows adds the origin, whose row is the norm row, to its centers
    assert [len(centers) for _, _, _, centers, _ in calls] == [2, 9, probed + 1, 1, 1]
    # an orbit's rows and its pullbacks are the coordinates its norm
    # reads, a shift's head or kalish's node count wide; the stored orbit
    # of hitting_times is dim wide
    assert [states.shape[1] for _, _, states, _, _ in calls] == [width] * 4 + [spec.state_dim]
    for i, (_, sizes, states, centers, rows) in enumerate(calls):
        # blocks of kalish._block_rows rows of the states' width
        b = min(dynamics_lab._block_rows(states.shape), len(states))
        assert sizes == _block_sizes(len(states), b)
        if block_states and i < 4:
            assert len(sizes) > 1 and sizes[-1] < sizes[0]
        for row, c in zip(rows, centers):
            by_state = [norms(spec, x - c) for x in states]
            assert np.array_equal(_bits(row), _bits(np.array(by_state)))
            assert np.array_equal(_bits(row), _bits(_reference_norm(spec, states - c)))


# -- the rows at the block edges, against the stored orbit ---------------

def _stored_orbit_rows(spec, x0, n_steps, centers, keep=()):
    """The oracle of orbit_rows: a stored orbit, each row in one pass."""
    stored = orbit(spec, x0, n_steps)
    return dynamics_lab.OrbitRows(
        spec, stored.norms(), {t: stored.states[t] for t in keep},
        {t: norms(spec, stored.states - stored.states[t]) for t in centers})


def _counting_steps(monkeypatch) -> list:
    """Patch each kind class's step, which dynamics_lab.step and the
    default n_step_map walk both call, to log the label of every call."""
    calls = []

    def counting(real):
        def step(self, state):
            calls.append(self.label)
            return real(self, state)
        return step

    for kind in dynamics_lab._Kind.__subclasses__():
        monkeypatch.setattr(kind, "step", counting(kind.step))
    return calls


def test_the_step_counter_sees_the_module_step_and_a_kind_s_own_walk(monkeypatch):
    # the kalish n_step_map walks the class's step, not dynamics_lab.step
    spec = kalish_system(64)
    x0 = default_start(spec, 0)
    steps = _counting_steps(monkeypatch)
    n_step_map(spec, x0, 20)
    assert steps == [spec.ops.label] * 20
    step(spec, x0)
    assert len(steps) == 21


# (window n, centers) as functions of the block rows b
_BLOCK_EDGES = {
    "last-center-on-a-first-row": lambda b: (3 * b + 2, [0, 1, 2 * b]),
    "last-center-on-a-last-row": lambda b: (3 * b + 2, [0, 2 * b - 1]),
    "last-center-in-the-short-last-block": lambda b: (3 * b + 2, [b, 3 * b + 1]),
    "window-inside-one-block": lambda b: (b - 2, [0, b - 2]),
    "one-state-window": lambda b: (0, [0]),
    "no-centers": lambda b: (3 * b + 2, []),
}


@pytest.mark.parametrize("edge", sorted(_BLOCK_EDGES))
@pytest.mark.parametrize("spec, block_states", [
    (kalish_system(64), 7),
    (scalar_shift_system(2.0, 90), 7),
    (scalar_shift_system(0.5, 30), 7),  # zero from step 30 on: exact-zero rows
    (weighted_shift_system([1.5] * 59), 7),
    (torus_system((0.3, 1.1, 2.5)), 7),
    # 64-state blocks: the kernel's own, 8192 states 8 wide, would make
    # the stored oracle 24,579 states of 1024 coordinates
    (kalish_system(1024), 64),
    (scalar_shift_system(2.0, 1128), None),  # kernel blocks of 121 states
], ids=lambda v: v.label if isinstance(v, SystemSpec) else f"{v or 'kernel'}-blocks")
def test_rows_at_the_block_edges_are_the_stored_orbit(spec, block_states, edge,
                                                      monkeypatch):
    width = _row_width(spec)
    if block_states:
        monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", block_states * width)
    b = dynamics_lab._block_rows((1, width))
    n, centers = _BLOCK_EDGES[edge](b)
    x0 = default_start(spec, 4)
    keep = [n // 2]
    steps = _counting_steps(monkeypatch)
    got = orbit_rows(spec, x0, n, centers=centers, keep=keep)
    # every row comes from the kind's rows hook, with no step
    assert steps == []
    want = _stored_orbit_rows(spec, x0, n, centers, keep)
    scale = float(np.max(want.norm_row))
    _assert_row(spec, got.norm_row, want.norm_row, scale)
    assert sorted(got.snapshots) == sorted(want.snapshots) == keep
    for t, state in want.snapshots.items():
        _assert_row(spec, got.snapshots[t], state, scale)
    assert sorted(got.rows) == sorted(want.rows) == sorted(set(centers))
    for t, row in want.rows.items():
        _assert_row(spec, got.rows[t], row, scale)
        assert got.rows[t][t] == 0.0


@pytest.mark.parametrize("row", range(3), ids=lambda i: default_battery(1000)[i].name)
def test_classifying_a_battery_row_makes_no_step_call(row, monkeypatch):
    # every orbit and pullback row is a closed form of the kind's rows
    # hook; the walk and replay made 1,000 + 63 + 1,000 calls for the
    # kalish row, 1,000 + 1,000 for the torus and 2,485 for the shift
    steps = _counting_steps(monkeypatch)
    classify_system(default_battery(1000)[row], window=1000, mc_samples=500)
    assert steps == []


# -- a shift's rows: windows of its one symbol sequence ------------------

_VIEW_SHIFTS = [
    scalar_shift_system(2.0, 90),
    scalar_shift_system(2.0, 1128),  # head 538 of 1128
    scalar_shift_system(0.5, 30),  # zero tail: 0 from step 30 on
    weighted_shift_system([0.01] * 79),  # W_i < e^-300 from i = 66: stop 66 < d 80
]


def _view_block_rows(spec, block_states, monkeypatch) -> int:
    """The kernel block rows of a shift's rows, len(head) wide, with
    block_states rows a block (None: the kernel's own)."""
    width = len(spec.ops.head)
    if block_states:
        monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", block_states * width)
    return dynamics_lab._block_rows((1, width))


def _block_sizes(length: int, b: int) -> list:
    return [min(b, length - lo) for lo in range(0, length, b)]


@pytest.mark.parametrize("edge", sorted(_BLOCK_EDGES))
@pytest.mark.parametrize("block_states", [7, None], ids=["7-state-blocks", "kernel-blocks"])
@pytest.mark.parametrize("spec", _VIEW_SHIFTS, ids=lambda spec: spec.label)
def test_shift_view_rows_are_bitwise_the_stepped_orbit(spec, block_states, edge,
                                                       monkeypatch):
    b = _view_block_rows(spec, block_states, monkeypatch)
    n, centers = _BLOCK_EDGES[edge](b)
    x0 = default_start(spec, 6)
    stored = orbit(spec, x0, n)
    calls, steps = _record_kernel(monkeypatch), _counting_steps(monkeypatch)
    got = orbit_rows(spec, x0, n, centers=centers, keep=[n // 2])
    assert steps == []
    # one kernel call over the head columns of the stepped states, in
    # blocks of b rows
    (_, sizes, states, _, _), = calls
    width = len(spec.ops.head)
    assert sizes == _block_sizes(n + 1, b)
    assert np.array_equal(_bits(states), _bits(stored.states[:, :width]))
    assert np.array_equal(_bits(got.norm_row),
                          _bits(np.array([norms(spec, x) for x in stored.states])))
    assert sorted(got.rows) == sorted(set(centers))
    for t, row in got.rows.items():
        want = [norms(spec, x - stored.states[t]) for x in stored.states]
        assert np.array_equal(_bits(row), _bits(np.array(want)))
    assert sorted(got.snapshots) == [n // 2]
    for t, state in got.snapshots.items():
        assert np.array_equal(_bits(state), _bits(stored.states[t]))


# pullback rows as functions of the block rows b
_PULLBACK_ROWS = {"one-row": lambda b: 1, "one-block": lambda b: b,
                  "one-block-and-a-row": lambda b: b + 1, "two-blocks": lambda b: 2 * b,
                  "a-short-last-block": lambda b: 3 * b + 2}


@pytest.mark.parametrize("pulled", sorted(_PULLBACK_ROWS))
@pytest.mark.parametrize("block_states", [7, None], ids=["7-state-blocks", "kernel-blocks"])
@pytest.mark.parametrize("spec", _VIEW_SHIFTS, ids=lambda spec: spec.label)
def test_shift_pullback_row_is_bitwise_the_stepped_pullbacks(spec, block_states, pulled,
                                                             monkeypatch):
    b = _view_block_rows(spec, block_states, monkeypatch)
    # at window 2k, V's center is T^k x, whose support ends at stop - 1 - k,
    # so the scan takes k pullbacks; k < stop keeps the orbit nonzero over
    # half the window, which the probe needs to scan at all
    k = min(_PULLBACK_ROWS[pulled](b) - 1, spec.ops.stop - 1)
    traj = probe_orbit(spec, default_start(spec, 6), 2 * k)
    v = traj.snapshots[dynamics_lab._probe_times(spec, 2 * k + 1).middle]
    depth = spec.ops.pullbacks(v, 2 * k)
    assert depth == k
    stepped = _forward_slides(v, depth)
    calls, steps = _record_kernel(monkeypatch), _counting_steps(monkeypatch)
    weak_mixing_probe(traj, seed=0)
    assert steps == []
    (_, sizes, states, _, (row,)), = calls
    assert sizes == _block_sizes(depth + 1, b)
    assert np.array_equal(_bits(states), _bits(stepped[:, :len(spec.ops.head)]))
    assert np.array_equal(_bits(row), _bits(np.array([norms(spec, x) for x in stepped])))


@pytest.mark.parametrize("centers", [[0, 7], [0], []])
@pytest.mark.parametrize("block_states", [2, None], ids=["2-state-blocks", "kernel-blocks"])
def test_orbit_rows_norm_drift_guard_names_step(centers, block_states, monkeypatch):
    if block_states:
        monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", block_states * 8)
    # the norm grows 11-fold per step: 11**2 < 1e3 < 11**3
    spec = weighted_shift_system([11.0] * 7)
    x0 = np.zeros(8, dtype=complex)
    x0[-1] = 1.0
    with pytest.raises(NormDriftError, match="step 3 of 7"):
        orbit_rows(spec, x0, 7, centers=centers)


@pytest.mark.parametrize("spec", [torus_system([0.9, 2.1]), kalish_system(64)],
                         ids=lambda spec: spec.label)
def test_classify_system_runs_the_same_python_lines_at_every_window(spec):
    # the drift guard compares the finished norm row at once: walking the
    # time index ran 7,000 line events per 1,000 states
    events = []
    for window in (1000, 4000):
        classify_system(spec, window, 0, mc_samples=200)  # first calls run setup lines
        events.append(line_events(lambda: classify_system(spec, window, 0, mc_samples=200)))
    assert events[0] == events[1], events


def test_orbit_rows_rejects_times_outside_the_orbit():
    spec = torus_system((0.3, 1.1))
    x0 = default_start(spec, 0)
    for centers, keep, t in [([15], [], 15), ([-1], [], -1), ([0], [12], 12)]:
        with pytest.raises(ValueError, match=rf"^orbit time {t} is outside \[0, 10\]$"):
            orbit_rows(spec, x0, 10, centers=centers, keep=keep)
    with pytest.raises(ValueError, match="^a walk takes n >= 0 steps, got -1$"):
        orbit_rows(spec, x0, -1, centers=[0])


@pytest.mark.parametrize("centers, keep, t", [
    ([1.5], [], "1.5"), ([True], [], "True"), ([0], [2.0], "2.0"),
    ([np.float64(3.0)], [], "3.0"), ([0, False], [], "False")])
@pytest.mark.parametrize("spec", [torus_system((0.3, 1.1)), scalar_shift_system(2.0, 20),
                                  kalish_system(64)], ids=lambda spec: spec.label)
def test_orbit_rows_rejects_a_time_that_is_not_an_integer(spec, centers, keep, t):
    # in closed form a float time would give the state at a fractional time
    x0 = default_start(spec, 0)
    with pytest.raises(ValueError, match=rf"^orbit time {t} is not an integer$"):
        orbit_rows(spec, x0, 10, centers=centers, keep=keep)
    got = orbit_rows(spec, x0, 10, centers=[np.int64(3)], keep=[np.int32(2)])
    assert got.rows[3][3] == 0.0 and sorted(got.snapshots) == [2]


@pytest.mark.parametrize("center, message", [
    (1.0, r"^ball center has shape \(\), spec wants \(2,\)$"),
    ([1.0], r"^ball center has shape \(1,\), spec wants \(2,\)$"),
    ([1.0, 1.0, 1.0], r"^ball center has shape \(3,\), spec wants \(2,\)$"),
    ([np.nan, 1.0], r"^ball center coordinate 0 is \(nan\+0j\), not finite$"),
], ids=["scalar", "one-coordinate", "three-coordinates", "nan"])
def test_a_ball_center_is_checked_against_the_spec(center, message):
    # a scalar center raised a bare IndexError, a wrong length numpy's
    # broadcast error, and a nan center hit nothing, silently
    traj = orbit(torus_system((0.3, 1.1)), np.ones(2, dtype=complex), 40)
    bad = BallSpec(center=center, radius=0.5)
    good = BallSpec(center=np.ones(2, dtype=complex), radius=0.5)
    for check in (lambda: hitting_times(traj, bad),
                  lambda: return_set_identity_check(traj, bad),
                  lambda: return_set_identity_check(traj, good, verify_ball=bad)):
        with pytest.raises(ValueError, match=message):
            check()


def test_a_kalish_start_off_the_model_span_is_a_typed_error():
    # the closed-form rows read the start's coordinates on the model's
    # eigenvector field; a start off it was walked silently
    spec = kalish_system(64)
    with pytest.raises(ValueError, match=r"^kalish state is off the span of the model's 8 "
                                         r"eigenvectors: residual \S+ exceeds 1e-9 x its norm$"):
        orbit_rows(spec, _random_state(spec, "off-span"), 10, centers=[0])
    # a start 1e-12 off the span, relative to its norm, is on it
    x0 = default_start(spec, 0)
    nudge = _random_state(spec, "nudge")
    orbit_rows(spec, x0 + 1e-12 * (norms(spec, x0) / norms(spec, nudge)) * nudge, 10,
               centers=[0])


def _kalish_back_step(b: np.ndarray) -> np.ndarray:
    """R b = T^-1 b on the grid, from the rows of T x = b: with d_k =
    e^{i t_k}, w = 2pi/M and S_k = sum_{j<=k} d_j x_j, row k reads d_k x_k
    = b_k + i w S_{k-1}, so S_k = q S_{k-1} + b_k, q = 1 + i w, and S =
    q^k cumsum(b q^-k)."""
    M = b.size
    w = TWO_PI / M
    qk = (1.0 + 1j * w) ** np.arange(M)
    S = qk * np.cumsum(b / qk)
    x = b.astype(complex)
    x[1:] += 1j * w * S[:-1]
    return x / np.exp(1j * TWO_PI * np.arange(M) / M)


def test_the_kalish_back_step_oracle_is_the_dense_solve():
    spec = kalish_system(128)
    b = _random_state(spec, "back-step-oracle")
    want = np.linalg.solve(kalish_matrix(128), b)
    assert np.max(np.abs(_kalish_back_step(b) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("window", [300, 1000, 4000])
@pytest.mark.parametrize("row", [0, 2], ids=["torus-rotation", "kalish-gaussian"])
def test_closed_form_rows_are_the_stepped_orbit(row, window):
    # orbit, norm and pullback rows of the battery's kalish and torus rows
    # against orbit's guarded walk (R stepped by the test's own inverse),
    # within 1e-11 x the largest norm
    spec = default_battery(window)[row]
    x0 = default_start(spec, 0)
    times = dynamics_lab._probe_times(spec, window + 1)
    centers = sorted(set(times.centers))
    got = orbit_rows(spec, x0, window, centers=centers, keep=[times.middle])
    want = _stepped_orbit_rows(spec, x0, window, centers, [times.middle])
    scale = float(np.max(want.norm_row))
    _assert_row(spec, got.norm_row, want.norm_row, scale)
    for t in centers:
        _assert_row(spec, got.rows[t], want.rows[t], scale)
    v = want.snapshots[times.middle]
    _assert_row(spec, got.snapshots[times.middle], v, scale)
    if spec.is_linear:
        back_step = _kalish_back_step
    else:
        back_step = partial(np.multiply, np.exp(-1j * spec.ops.angles))
    pulled = np.array([state_norm(spec, y) for y in
                       walk(back_step, v, window, partial(state_norm, spec))])
    _assert_row(spec, dynamics_lab._rows(spec, v, window, [], back=True)[0][0], pulled,
                float(np.max(pulled)))


@pytest.mark.parametrize("back", [False, True], ids=["orbit", "pullbacks"])
@pytest.mark.parametrize("block_states", [1, 7, None],
                         ids=["1-state-blocks", "7-state-blocks", "kernel-blocks"])
@pytest.mark.parametrize("spec", [
    kalish_system(8),
    kalish_system(1024),
    scalar_shift_system(2.0, 1128),  # head 538 of 1128
    weighted_shift_system([1.5] * 59),
    torus_system((0.3, 1.1, 2.5)),
], ids=lambda spec: spec.label)
def test_a_row_alone_is_bitwise_its_row_in_the_block(spec, block_states, back, monkeypatch):
    # a center row is a one-row call of the rows hook; a BLAS product took
    # another kernel for one row, and a center's row to itself read 2e-16
    width = _row_width(spec)
    if block_states:
        monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", block_states * width)
    n = 100
    x0 = default_start(spec, 2)
    _, rows_of = spec.ops.rows(x0, n, back)
    b = dynamics_lab._block_rows((n + 1, width))
    blocks = np.concatenate([rows_of(lo, min(lo + b, n + 1)).copy()
                             for lo in range(0, n + 1, b)])
    assert blocks.shape == (n + 1, width)
    for t in range(n + 1):
        assert np.array_equal(_bits(rows_of(t, t + 1)[0]), _bits(blocks[t])), t
    centers = list(range(0, n + 1, 3))
    rows = dynamics_lab._rows(spec, x0, n, centers, back=back)[0]
    assert [row[t] for t, row in zip(centers, rows[1:])] == [0.0] * len(centers)


@pytest.mark.parametrize("row", range(3), ids=lambda i: default_battery(1000)[i].name)
def test_classifying_a_battery_row_makes_no_state_norm_call(row, monkeypatch):
    # every row of the streamed orbit, the norm row included, comes from
    # the distance kernel; a per-step norm made 1,001 calls per row
    calls = []
    monkeypatch.setattr(dynamics_lab, "state_norm",
                        lambda *args: calls.append(args) or state_norm(*args))
    classify_system(default_battery(1000)[row], window=1000, mc_samples=500)
    assert calls == []


def _leaves(doc, path=()):
    """(path, leaf) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], (*path, key))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, (*path, i))
    else:
        yield path, doc


def _assert_same_documents(got, want):
    """Two classification reports agree: a shift row byte for byte; a
    closed-form row (kalish, torus) in every verdict, flag and non-float
    leaf, its floats within 1e-11."""
    assert len(got.rows) == len(want.rows)
    for a, b in zip(got.rows, want.rows):
        if not _closed_form(a.spec):
            assert stable_dumps(a.to_dict()) == stable_dumps(b.to_dict())
            continue
        pairs = list(zip(_leaves(a.to_dict()), _leaves(b.to_dict())))
        assert [p for (p, _), _ in pairs] == [p for _, (p, _) in pairs]
        for (path, x), (_, y) in pairs:
            if isinstance(x, float) and isinstance(y, float):
                assert x == pytest.approx(y, rel=1e-11, abs=1e-11), path
            else:
                assert x == y and type(x) is type(y), path


@pytest.mark.parametrize("window", [1, 63, 64, 65, 1000])
def test_classification_documents_are_the_stored_orbit_documents(window, monkeypatch):
    battery = default_battery(window)
    streamed = [classification_run(battery, window, seed, mc_samples=500)
                for seed in range(3)]
    monkeypatch.setattr(dynamics_lab, "orbit_rows", _stored_orbit_rows)
    for seed in range(3):
        _assert_same_documents(
            streamed[seed], classification_run(battery, window, seed, mc_samples=500))


def _stepped_orbit_rows(spec, x0, n_steps, centers, keep=()):
    """The oracle of orbit_rows for a window whose stored orbit is too large
    to hold (4001 x 4128 complex, 264 MB, for the window-4000 shift row):
    orbit's guarded walk, taken twice, and each state's norm and distances
    one state at a time."""
    def states():
        return walk(partial(step, spec), np.asarray(x0, dtype=complex), n_steps,
                    partial(state_norm, spec))
    held = {t: x for t, x in enumerate(states()) if t in {*centers, *keep}}
    origin = np.zeros(spec.state_dim, dtype=complex)
    rows = np.array([[state_norm(spec, x - c) for c in [origin] + [held[t] for t in centers]]
                     for x in states()]).T
    return dynamics_lab.OrbitRows(spec, rows[0], {t: held[t] for t in keep},
                                  dict(zip(centers, rows[1:])))


def test_window_4000_classification_documents_are_the_stepped_orbit_documents(
        monkeypatch):
    battery = default_battery(4000)
    streamed = classification_run(battery, 4000, 0, mc_samples=500)
    monkeypatch.setattr(dynamics_lab, "orbit_rows", _stepped_orbit_rows)
    _assert_same_documents(streamed, classification_run(battery, 4000, 0, mc_samples=500))


def test_window_2000_battery_runs_without_a_crash():
    for spec in default_battery(2000):
        stable_dumps(classify_system(spec, window=2000, mc_samples=500).to_dict())


def test_window_8000_kalish_row_sizes_its_balls_off_round_off():
    # the kalish start has period 16: a ball stride of 40 sampled only x_0
    # and x_8 up to round-off and gave radius 1.7e-12, syndetic = no and 4
    # flags
    row = classify_system(default_battery(8000)[2], window=8000)
    assert row.flags == ()
    assert row.outcomes["syndetic"].evidence["radius"] > 1.0


def test_a_nilpotent_shift_row_gives_typed_weak_mixing_no_evidence():
    # 2B on C^100 is 0 from step 100 on: over half of a 301-state window
    row = classify_system(scalar_shift_system(2.0, 100), window=300, mc_samples=500)
    outcome = row.outcomes["weak_mixing"]
    assert outcome.verdict == "no-evidence"
    assert outcome.evidence["note"].startswith("orbit is 0 for over half the window")
    stable_dumps(row.to_dict())


@pytest.mark.parametrize("window", [1000, 4000])
def test_the_battery_shift_orbit_has_no_zero_state(window):
    # the start's window + 128 symbols slide, so the last state holds 128
    # of them; as x_i = r_i / 2^i the start would underflow from i = 929 on
    # and its orbit be 0 from step 929
    spec = default_battery(window)[1]
    traj = probe_orbit(spec, default_start(spec, 0), window)
    assert np.all(traj.norm_row > 0)


def test_fixed_point_rotation_gives_typed_no_evidence():
    row = classify_system(torus_system((0.0,)), window=100)
    for column in ("e_system", "syndetic", "ufh"):
        outcome = row.outcomes[column]
        assert outcome.verdict == "no-evidence", column
        assert "constant" in outcome.evidence["note"]
    assert row.outcomes["chaotic"].verdict == "yes"  # a fixed point is periodic
    assert row.flags == ()
    stable_dumps(row.to_dict())


def test_window_0_is_a_typed_error_naming_the_window():
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        classify_system(torus_system((0.3,)), window=0)


def _verdicts_and_integer_evidence(row):
    return {column: (outcome.verdict,
                     {k: v for k, v in outcome.evidence.items() if isinstance(v, int)})
            for column, outcome in row.outcomes.items()} | {"flags": row.flags}


def test_kalish_row_is_invariant_under_a_round_off_nudge_of_the_start(monkeypatch):
    """The kalish start returns to round-off at every multiple of its
    period 16, and its orbit ties distances at round-off: a start moved by
    one part in 1e13 must leave every verdict and integer unchanged."""
    import hyperlab.dynamics_lab as lab

    spec = default_battery(1000)[2]
    seeds = range(24)
    plain = [_verdicts_and_integer_evidence(classify_system(spec, seed=s))
             for s in seeds]
    start = lab.default_start
    monkeypatch.setattr(lab, "default_start",
                        lambda spec, seed: start(spec, seed) * (1 + 1e-13))
    nudged = [_verdicts_and_integer_evidence(classify_system(spec, seed=s))
              for s in seeds]
    moved = [(s, column) for s in seeds for column in plain[s]
             if plain[s][column] != nudged[s][column]]
    assert moved == []
    assert {row["chaotic"][1]["best_period"] for row in plain} == {16}


# -- every zoo member gets a verdict or typed no-evidence ---------------

_ANGLES = st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                    st.integers(0, 23).map(lambda k: TWO_PI * k / 24))  # rational
_NONZERO = dict(min_magnitude=1e-8, max_magnitude=1e8, allow_nan=False,
                allow_infinity=False)
_ZOO = st.one_of(
    st.integers(8, 160).map(kalish_system),
    st.builds(scalar_shift_system,
              st.one_of(st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8),
                        st.complex_numbers(**_NONZERO)),
              st.integers(1, 320)),
    # log-uniform weights too, whose products can dip below e^-300 and rise
    st.builds(weighted_shift_system,
              st.lists(st.one_of(st.floats(1e-4, 1e4), st.floats(-9.0, 9.0).map(np.exp)),
                       max_size=320)),
    st.builds(torus_system, st.lists(_ANGLES, min_size=1, max_size=6)),
)


@settings(max_examples=120, deadline=None)
@given(spec=_ZOO, window=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@example(spec=scalar_shift_system(0.01, 100), window=28, seed=0)
@example(spec=scalar_shift_system(1e-3, 40), window=4, seed=0)
@example(spec=kalish_system(9), window=50, seed=0)
@example(spec=weighted_shift_system([1e-3] * 101 + [1e3] * 60), window=30, seed=0)
@example(spec=scalar_shift_system(2.0, 4128), window=4000, seed=0)
@example(spec=scalar_shift_system(0.5, 1128), window=4000, seed=0)
def test_every_zoo_member_gets_a_verdict_without_a_warning(spec, window, seed):
    # ROADMAP item 2 asks this of window 5000; windows stay <= 300 here to
    # keep the tier-1 run short.  The tier-1 filter turns a RuntimeWarning
    # into a failure.
    row = classify_system(spec, window=window, seed=seed, mc_samples=32)
    assert {o.verdict for o in row.outcomes.values()} <= {"yes", "no", "no-evidence"}
    stable_dumps(row.to_dict())
