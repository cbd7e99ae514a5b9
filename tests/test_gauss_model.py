"""Gaussian model over a quantized eigenvector field.

Dual-path oracles throughout: dense covariance against the Gram form,
analytic coefficients against the spectral measure's transform, Monte
Carlo estimates against analytic values within standard-error bars.
"""

import json
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from hyperlab import (
    CircleFunction,
    CircleMeasure,
    DegenerateFunctionalError,
    EigenField,
    FieldAdmissibilityError,
    NormDriftError,
    NotProbabilityError,
    build_model,
    corrected_field,
    fourier_band,
    fourier_coefficient,
    indicator_field,
    intertwine_residual,
    invariance_check,
    kalish_matrix,
    matrix_coefficient_analytic,
    matrix_coefficient_mc,
    mix,
    quantize,
    sample,
    spectral_measure_of_functional,
    symmetry_check,
)
from hyperlab import gauss_model
from hyperlab.circle_measure import _require_probability
from hyperlab.corpora import probability_measure, random_functional
from hyperlab.dynamics_lab import orbit, weighted_shift_system
from hyperlab.gauss_model import coefficient_rows, symmetry_checks, walk
from hyperlab.jsonio import stable_dumps
from hyperlab.kalish import (
    _BLOCK_ELEMENTS,
    DegenerateAngleError,
    apply_T_array,
    apply_T_transpose,
    arc_indicators,
    exact_eigenvectors,
    func_norm,
    grid_angles,
    grid_norms,
    nearest_grid_index,
)
from hyperlab.runner import scaled_transport
from hyperlab.seeding import derive_seed

TWO_PI = 2.0 * np.pi


def _uniform_model(M=512, m=8, kind="corrected"):
    sigma = CircleMeasure.uniform(bins=1024)
    make = corrected_field if kind == "corrected" else indicator_field
    return build_model(make(sigma, m, M))


# -- quantization -------------------------------------------------------

def test_quantize_uniform_closed_form():
    # equal-mass cells of the flat density have centroids at the cell
    # midpoints: angle (i + 1/2) 2 pi / m, weight 1 / m
    nodes = quantize(CircleMeasure.uniform(bins=1024), 8)
    assert len(nodes) == 8
    for i, (angle, weight) in enumerate(nodes):
        assert angle == pytest.approx((i + 0.5) * TWO_PI / 8, abs=1e-9)
        assert weight == pytest.approx(1.0 / 8, abs=1e-12)


def test_quantize_keeps_atoms_verbatim():
    sigma = mix(
        CircleMeasure.dirac(np.pi / 2, 0.3, bins=1024),
        CircleMeasure.uniform(mass=0.7, bins=1024),
    )
    nodes = quantize(sigma, 5)
    angles = [a for a, _ in nodes]
    weights = dict(nodes)
    assert np.pi / 2 in angles
    assert weights[np.pi / 2] == pytest.approx(0.3)
    # the four remaining nodes split the density evenly
    rest = [w for a, w in nodes if a != np.pi / 2]
    assert len(rest) == 4
    assert all(w == pytest.approx(0.7 / 4) for w in rest)


def test_quantize_total_weight_one():
    from hyperlab.corpora import probability_measure

    for seed in range(5):
        sigma = probability_measure(seed=seed, bins=512)
        nodes = quantize(sigma, 8)
        assert sum(w for _, w in nodes) == pytest.approx(1.0, abs=1e-9)
        assert all(w > 0 for _, w in nodes)
        assert sorted(a for a, _ in nodes) == [a for a, _ in nodes]


def test_quantize_gates():
    with pytest.raises(NotProbabilityError):
        quantize(CircleMeasure.uniform(mass=2.0, bins=64), 4)
    two_atoms = CircleMeasure.from_parts(64, atoms=[(1.0, 0.5), (2.0, 0.5)])
    with pytest.raises(ValueError):
        quantize(two_atoms, 1)  # fewer nodes than atoms
    sigma = mix(CircleMeasure.dirac(1.0, 0.5, bins=64),
                CircleMeasure.uniform(mass=0.5, bins=64))
    with pytest.raises(ValueError):
        quantize(sigma, 1)  # atom eats the only node, density left over
    with pytest.raises(ValueError):
        quantize(CircleMeasure.uniform(bins=64), 0)


def _quantize_loop(sigma, m):
    """The per-cell loop quantize replaced, kept as its bitwise oracle:
    each cell walks its bins from the one holding its lower mass edge,
    and the sorted nodes merge into the first node of a group while
    within 1e-12 of it."""
    _require_probability(sigma)
    if m < 1:
        raise ValueError("node count must be >= 1")
    atoms = sigma.atoms()
    if m < len(atoms):
        raise ValueError(f"node count {m} is smaller than the atom count {len(atoms)}")
    nodes = [(float(a), float(mass)) for a, mass in atoms]
    dmass = sigma.density_mass
    cells = m - len(atoms)
    if dmass > 1e-12:
        if cells == 0:
            raise ValueError("no nodes left for the density part; increase the node count")
        width = sigma.bin_width
        bin_mass = sigma.density * width
        cum = np.concatenate([[0.0], np.cumsum(bin_mass)])
        cell_mass = dmass / cells
        for i in range(cells):
            lo = dmass * i / cells
            hi = dmass * (i + 1) / cells
            moment = 0.0
            j = int(np.searchsorted(cum, lo, side="right") - 1)
            j = min(max(j, 0), sigma.bins - 1)
            while j < sigma.bins and cum[j] < hi:
                if bin_mass[j] > 0.0:
                    a = max(lo, cum[j])
                    b = min(hi, cum[j + 1])
                    if b > a:
                        theta_a = j * width + (a - cum[j]) / sigma.density[j]
                        theta_b = j * width + (b - cum[j]) / sigma.density[j]
                        moment += 0.5 * (theta_a + theta_b) * (b - a)
                j += 1
            nodes.append((moment / cell_mass, cell_mass))
    nodes.sort()
    merged = []
    for a, w in nodes:
        if merged and a - merged[-1][0] <= 1e-12:
            merged[-1] = (merged[-1][0], merged[-1][1] + w)
        else:
            merged.append((a, w))
    return merged


def _assert_quantize_is_the_loop(sigma, m) -> None:
    """quantize(sigma, m) is the loop's nodes bit for bit, or raises the
    loop's error with its message."""
    try:
        want = _quantize_loop(sigma, m)
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            quantize(sigma, m)
        return
    got, want = (np.array(nodes, dtype=float).reshape(-1, 2) for nodes in
                 (quantize(sigma, m), want))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (sigma, m)


_ORACLE_NODES = (1, 2, 7, 8, 100, 128, 1024, 2000)


@pytest.mark.parametrize("bins, seeds", [(8, 48), (64, 48), (1024, 24), (8192, 4)])
def test_quantize_is_the_loop_bit_for_bit_on_seeded_measures(bins, seeds):
    # probability_measure mixes 1-3 atoms with a density, so m = 1 and 2
    # reach the loop's errors as well as its nodes
    for seed in range(seeds):
        sigma = probability_measure(seed=seed, bins=bins)
        for m in _ORACLE_NODES:
            _assert_quantize_is_the_loop(sigma, m)


def test_quantize_is_the_loop_bit_for_bit_with_empty_bins_and_atoms():
    rng = np.random.default_rng(32)
    calls = 0
    for _ in range(60):
        bins = int(rng.choice([8, 16, 64, 256, 1024]))
        weights = rng.uniform(size=bins) * (rng.uniform(size=bins) < rng.uniform(0.1, 0.9))
        weights[::int(rng.integers(2, 5))] = 0.0
        weights[1] = 1.0  # at least one bin with mass
        count = int(rng.integers(0, 4))
        on_grid = rng.uniform() < 0.5  # atoms on bin edges or anywhere
        angles = (TWO_PI / bins * rng.integers(0, bins, count) if on_grid
                  else rng.uniform(0.0, TWO_PI, count))
        masses = rng.uniform(0.05, 0.3, count)
        density = weights * (1.0 - masses.sum()) / (weights.sum() * TWO_PI / bins)
        sigma = CircleMeasure.from_parts(bins, atoms=zip(angles, masses), density=density)
        assert np.any(sigma.density == 0.0)
        for m in (count, count + 1, count + 3, count + 17, 64, 300):
            _assert_quantize_is_the_loop(sigma, m)
            calls += 1
    assert calls == 360


def test_quantize_keeps_the_loops_rounding_ties_through_the_snap():
    # uniform sigma at m = M = 1024: 458 centroids sit exactly half way
    # between two grid angles, where corrected_field's np.rint rounds half
    # to even, so one ulp of a centroid decides which nodes merge
    sigma, M = CircleMeasure.uniform(bins=1024), 1024
    _assert_quantize_is_the_loop(sigma, M)
    nodes, masses = np.array(_quantize_loop(sigma, M)).T
    steps = nodes / (TWO_PI / M)
    assert int(np.sum(steps - np.floor(steps) == 0.5)) == 458
    ks, slot = np.unique(nearest_grid_index(nodes, M), return_inverse=True)
    field = corrected_field(sigma, M, M)
    assert field.angles.size == 732
    assert np.array_equal(field.angles, grid_angles(M)[ks])
    assert np.array_equal(field.weights, np.bincount(slot, weights=masses))


def _line_events(call) -> int:
    """The line events sys.settrace sees while call() runs, in every
    Python frame it enters."""
    events, before = 0, sys.gettrace()

    def tracer(frame, event, arg):
        nonlocal events
        events += event == "line"
        return tracer

    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(before)
    return events


@pytest.mark.parametrize("measure", [
    lambda bins: CircleMeasure.uniform(bins=bins),
    lambda bins: probability_measure(seed=0, bins=bins),
], ids=["uniform", "mixed"])
def test_quantize_runs_the_same_python_lines_at_every_size(measure):
    # no Python loop over bins, cells or nodes: the loop ran 9,351 line
    # events at (B, m) = (1024, 8) and 188,391 at (16384, 2048), uniform
    events = []
    for bins, m in [(1024, 8), (16384, 8), (16384, 2048)]:
        sigma = measure(bins)
        quantize(sigma, m)  # first calls run one-time setup lines
        events.append(_line_events(lambda: quantize(sigma, m)))
    assert events[0] == events[1] == events[2], events


# -- fields --------------------------------------------------------------

def test_indicator_field_residuals_are_first_order():
    sigma = CircleMeasure.uniform(bins=1024)
    field = indicator_field(sigma, 8, 1024)
    res = field.residuals()
    assert np.all(res > 1e-6)
    assert np.all(res < 0.05)


@pytest.mark.parametrize("atom", [0.0, 6.2])
def test_indicator_field_rejects_node_with_empty_arc(atom):
    # no grid node lies past angle 0 (chi(0) = 0) or past 2pi*63/64, so the
    # indicator column would be zero and its residual 0/0
    sigma = mix(CircleMeasure.dirac(atom, 0.3), CircleMeasure.uniform(0.7))
    with pytest.raises(DegenerateAngleError, match=f"node [0-9]+ at angle {atom!r}"):
        build_model(indicator_field(sigma, 5, 64))


def test_corrected_field_residuals_are_round_off():
    sigma = CircleMeasure.uniform(bins=1024)
    field = corrected_field(sigma, 8, 1024)
    assert np.max(field.residuals()) <= 1e-12


def test_residual_groups_start_at_each_group_s_first_nonzero_row(monkeypatch):
    # each group's T starts at the least first nonzero row of its columns,
    # a zero of either sign counting as zero, and the residuals equal the
    # full apply_T_array oracle's
    monkeypatch.setattr(gauss_model, "_GROUP_COLUMNS", 2)
    M = 64
    rng = np.random.default_rng(3)
    X = np.zeros((M, 6), dtype=complex)
    for c, first in enumerate([40, 9, 63, 50, 0, 33]):
        X[first:, c] = rng.standard_normal(M - first) + 1j * rng.standard_normal(M - first)
    X[20, 3] = complex(-0.0, -0.0)
    angles = TWO_PI * (np.arange(6) + 0.5) / 6
    field = EigenField(angles, np.full(6, 1.0 / 6), X, CircleMeasure.uniform(bins=64),
                       kind="corrected")
    tops, rows = [], gauss_model._apply_T_rows

    def recorded(V, out, top):
        tops.append(top)
        rows(V, out, top)

    monkeypatch.setattr(gauss_model, "_apply_T_rows", recorded)
    got = field.residuals()
    assert tops == [9, 50, 0]
    R = apply_T_array(X) - X * np.exp(1j * angles)
    want = np.linalg.norm(R, axis=0) / np.linalg.norm(X, axis=0)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.parametrize("block_rows", [1, 3, 4, 10, 64])
def test_residual_group_tops_do_not_depend_on_the_row_blocks_read(block_rows, monkeypatch):
    # the tops are read in row blocks up to the first block holding a
    # nonzero entry; rows 9 and 50 open, close or sit inside a block
    M, starts = 64, [40, 9, 63, 50, 0, 33]
    rng = np.random.default_rng(5)
    X = np.zeros((M, 6), dtype=complex)
    for c, first in enumerate(starts):
        X[first:, c] = rng.standard_normal(M - first) + 1j * rng.standard_normal(M - first)
    X[20, 3] = complex(-0.0, 0.0)
    field = EigenField(TWO_PI * (np.arange(6) + 0.5) / 6, np.full(6, 1.0 / 6), X,
                       CircleMeasure.uniform(bins=64), kind="corrected")
    monkeypatch.setattr(gauss_model, "_GROUP_COLUMNS", 2)
    one_block = field.residuals()
    tops, rows = [], gauss_model._apply_T_rows

    def recorded(V, out, top):
        tops.append(top)
        rows(V, out, top)

    monkeypatch.setattr(gauss_model, "_apply_T_rows", recorded)
    monkeypatch.setattr("hyperlab.kalish._BLOCK_ELEMENTS", 6 * block_rows)
    assert np.array_equal(field.residuals(), one_block)
    assert tops == [9, 50, 0]


def test_residuals_of_real_vectors_equal_those_of_their_complex_copy():
    field = indicator_field(CircleMeasure.uniform(bins=1024), 4, 64)
    real = EigenField(field.angles, field.weights, field.vectors.real.copy(),
                      field.source_measure, kind="indicator")
    assert np.array_equal(real.residuals(), field.residuals())


def test_corrected_field_snaps_to_grid():
    sigma = CircleMeasure.uniform(bins=1024)
    M = 512
    field = corrected_field(sigma, 8, M)
    t = grid_angles(M)
    for a in field.angles:
        assert np.min(np.abs(t - a)) == 0.0


def test_corrected_field_norm_matched_to_indicator():
    sigma = CircleMeasure.uniform(bins=1024)
    M = 512
    cf = corrected_field(sigma, 8, M)
    for a, v in zip(cf.angles, map(CircleFunction.from_values, cf.vectors.T)):
        from hyperlab.kalish import chi

        assert func_norm(v) == pytest.approx(func_norm(chi(float(a), M)), rel=1e-12)


def _arc_measure() -> CircleMeasure:
    """Uniform density on the arc [0, 2pi/16): its nodes crowd near angle 0,
    so every eigenvector column is nonzero on most grid rows."""
    density = np.zeros(1024)
    density[:64] = 16.0 / TWO_PI
    return CircleMeasure.from_parts(1024, density=density)


@pytest.mark.parametrize("arc, m", [
    pytest.param(arc, m, id=f"{'arc' if arc else 'uniform'}-{m}")
    for arc, m in [(False, 1), (False, 2), (False, 16), (False, 17), (False, 100),
                   (True, 33), (True, 65)]])
def test_corrected_field_scale_has_the_bits_of_whole_field_norms(arc, m):
    # the norms are taken a column group at a time, a lone last column
    # beside the one before it (numpy sums one column pairwise), with the
    # bits of norms over the whole field; on the arc measure's 65 nodes a
    # lone column normed alone moves bits
    M = 1024
    sigma = _arc_measure() if arc else CircleMeasure.uniform(bins=1024)
    field = corrected_field(sigma, m, M)
    vectors = exact_eigenvectors(nearest_grid_index(field.angles, M), M)
    ref = arc_indicators(field.angles, M)
    ref[:, ~ref.any(axis=0)] = True
    overlap = np.sum(vectors, axis=0, where=ref) * (TWO_PI / M)
    phase = overlap / np.abs(overlap)
    want = vectors * ((grid_norms(ref) / grid_norms(vectors)) / phase)
    assert np.array_equal(field.vectors, want)


# -- model assembly ------------------------------------------------------

def test_build_model_rejects_sloppy_field():
    # 4 indicator nodes on a 32-point grid: the worst residual is 0.127 > 0.05
    field = indicator_field(CircleMeasure.uniform(bins=1024), 4, 32)
    with pytest.raises(FieldAdmissibilityError, match="exceeds 0.05"):
        build_model(field)


def test_factor_columns_are_weighted_vectors():
    f = corrected_field(CircleMeasure.uniform(bins=1024), 4, 256)
    model = build_model(f)
    for j in range(model.node_count):
        np.testing.assert_allclose(
            model.factor[:, j], np.sqrt(model.weights[j]) * f.vectors[:, j],
            atol=1e-15,
        )


def test_covariance_frobenius_matches_dense():
    model = _uniform_model(M=128, m=4)
    A = model.factor
    dense = np.linalg.norm(A @ A.conj().T, "fro")  # the M x M oracle R = A A*
    assert model.covariance_frobenius() == pytest.approx(dense, rel=1e-12)


def test_kernel_witness_positive_singular_value():
    # two or more distinct nodes never produce a rank-deficient factor
    for m in (2, 4, 8):
        model = _uniform_model(M=256, m=m)
        assert np.linalg.svd(model.factor, compute_uv=False)[-1] > 0.0


@pytest.mark.parametrize("kind", ["corrected", "indicator"])
@pytest.mark.parametrize("m", [2, 4, 8, 32])
def test_smallest_singular_from_gram_matches_svd(kind, m):
    # the cached Gram is A* A: its least eigenvalue is sigma_min(A)^2
    model = _uniform_model(M=1024, m=m, kind=kind)
    sv = np.linalg.svd(model.factor, compute_uv=False)
    smallest = np.sqrt(np.linalg.eigvalsh(model.gram)[0])
    assert smallest == pytest.approx(sv[-1], rel=1e-10)


def test_field_rejects_vectors_with_wrong_column_count():
    field = corrected_field(CircleMeasure.uniform(bins=1024), 4, 64)
    for cols in (3, 5):
        with pytest.raises(ValueError):
            EigenField(field.angles, field.weights,
                       np.ones((64, cols), dtype=complex),
                       field.source_measure, kind="corrected")


@pytest.mark.parametrize("spoil, message", [
    (lambda V: V[:, 1].fill(0.0), "vectors column 1 holds only zeros"),
    (lambda V: V.__setitem__((7, 2), np.nan), "vectors column 2 holds a non-finite entry"),
    (lambda V: V.__setitem__((0, 3), complex(0.0, np.inf)),
     "vectors column 3 holds a non-finite entry"),
])
def test_field_rejects_a_zero_or_non_finite_column(spoil, message):
    # either used to pass the admissibility gate with a nan residual
    field = corrected_field(CircleMeasure.uniform(bins=1024), 4, 64)
    vectors = field.vectors.copy()
    spoil(vectors)
    with pytest.raises(ValueError, match=message):
        EigenField(field.angles, field.weights, vectors, field.source_measure,
                   kind="corrected")


def test_build_model_rejects_a_nan_worst_residual():
    # finite vectors so large that both norms overflow: every residual is
    # inf / inf = nan, which no comparison with 0.05 lets through
    field = corrected_field(CircleMeasure.uniform(bins=1024), 4, 64)
    huge = EigenField(field.angles, field.weights, field.vectors * 1e200,
                      field.source_measure, kind="corrected")
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isnan(huge.residuals()))
        with pytest.raises(FieldAdmissibilityError, match="nan exceeds 0.05"):
            build_model(huge)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 17, 127, 128])
def test_gram_halves_are_bitwise_the_one_pass_products(m, monkeypatch):
    # each operand is at least one kernel block, so only the row count
    # decides the split: both halves need 2 rows, a one-row half's bits differ
    n = -(-_BLOCK_ELEMENTS // m)
    rng = np.random.default_rng(m)
    A, B = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            for _ in range(2))
    G = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    off_thread = _record_helper_rows(monkeypatch)
    (AA,), (BB, BA), (GG,) = (gauss_model._gram(A, A), gauss_model._gram(B, B, A),
                              gauss_model._gram(G.T, G.T))
    assert len(off_thread) == (3 if m >= 4 else 0)
    Bc = B.conj()
    for got, one_pass in [(AA, A.conj().T @ A), (BB, Bc.T @ B), (BA, Bc.T @ A),
                          (GG, G.conj() @ G.T)]:
        assert np.array_equal(got, one_pass)


def test_gram_below_one_block_stays_on_the_calling_thread(monkeypatch):
    off_thread = _record_helper_rows(monkeypatch)
    X = np.ones((_BLOCK_ELEMENTS // 8 - 1, 8), dtype=complex)
    (XX,) = gauss_model._gram(X, X)
    assert off_thread == []
    assert np.array_equal(XX, X.conj().T @ X)


def test_an_error_in_the_calling_gram_half_reaches_the_caller(monkeypatch):
    rows, me = gauss_model._gram_rows, threading.get_ident()

    def failing_on_thread(*args):
        if threading.get_ident() == me:
            raise FloatingPointError("calling half failed")
        rows(*args)

    monkeypatch.setattr(gauss_model, "_gram_rows", failing_on_thread)
    X = np.ones((_BLOCK_ELEMENTS // 8, 8), dtype=complex)  # one block: two halves
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="calling half failed"):
        gauss_model._gram(X, X)
    # the helper was waited for: no thread outlives the failed call
    assert threading.active_count() == before


def _record_helper_rows(monkeypatch) -> list:
    """Wrap _gram_rows to record the row slice of each call made off the
    calling thread, the helper's halves; returns that list."""
    rows, me, off_thread = gauss_model._gram_rows, threading.get_ident(), []

    def recorded(X, Ys, part, scratch, outs):
        if threading.get_ident() != me:
            off_thread.append(part)
        rows(X, Ys, part, scratch, outs)

    monkeypatch.setattr(gauss_model, "_gram_rows", recorded)
    return off_thread


def test_functional_coefficients_match_inner_products():
    model = _uniform_model(M=256, m=4)
    xstar = random_functional(seed=5, grid_size=256)
    c = model.functional_coefficients(xstar)
    for j in range(model.node_count):
        # the arc-length inner product <x*, col>, conjugate-linear in x*
        want = (TWO_PI / 256) * np.vdot(xstar.values, model.factor[:, j])
        assert c[j] == pytest.approx(want, abs=1e-12)


def test_intertwine_residual_round_off_for_corrected():
    model = _uniform_model(M=512, m=8)
    assert intertwine_residual(model) <= 1e-9


def test_intertwine_residual_matrix_path_agrees():
    M = 256
    model = _uniform_model(M=M, m=8)
    grid_op = intertwine_residual(model)
    matrix_op = intertwine_residual(model, transport=kalish_matrix(M).__matmul__)
    assert abs(grid_op - matrix_op) <= 1e-12


# -- sampling and law checks ----------------------------------------------

def test_sample_deterministic_and_shaped():
    model = _uniform_model(M=256, m=8)
    draws = sample(model, 5, seed=3)
    again = sample(model, 5, seed=3)
    assert len(draws) == 5
    for a, b in zip(draws, again):
        np.testing.assert_array_equal(a.values, b.values)
    other = sample(model, 5, seed=4)
    assert not np.allclose(draws[0].values, other[0].values)
    with pytest.raises(ValueError):
        sample(model, 0, seed=0)


def test_symmetry_check_passes_for_symmetric_sampler():
    model = _uniform_model(M=256, m=8)
    for k in range(4):
        xstar = random_functional(seed=k, grid_size=256)
        report = symmetry_check(model, xstar, count=4096, seed=10 + k)
        assert report.passed, (k, report.second_moment, report.re_im_correlation)
        assert report.variance == pytest.approx(
            report.analytic_variance, rel=0.2
        )


def test_symmetry_check_real_sampler_fails():
    # the real-Gaussian draw has E[zeta^2] = E[|zeta|^2] != 0
    model = _uniform_model(M=256, m=8)
    xstar = random_functional(seed=1, grid_size=256)
    report = symmetry_check(model, xstar, count=4096, seed=11, sampler="real")
    assert not report.passed
    assert abs(report.second_moment) > report.second_moment_threshold


def test_symmetry_check_rejects_unknown_sampler():
    model = _uniform_model(M=256, m=8)
    xstar = random_functional(seed=1, grid_size=256)
    with pytest.raises(ValueError):
        symmetry_check(model, xstar, count=64, seed=0, sampler="bogus")


@pytest.mark.parametrize("sampler", ["symmetric", "real"])
def test_symmetry_checks_equal_one_symmetry_check_per_functional(sampler):
    # three functionals: one paired fill and one lone draw
    model = _uniform_model(M=128, m=4)
    seeds = [20, 21, 22]
    xstars = [random_functional(seed=seed, grid_size=128) for seed in seeds]
    assert list(symmetry_checks(model, xstars, 300, seeds, sampler)) == [
        symmetry_check(model, xstar, 300, seed=seed, sampler=sampler)
        for xstar, seed in zip(xstars, seeds)]


def test_degenerate_functional_rejected():
    model = _uniform_model(M=256, m=8)
    # corrected eigenvectors vanish below their node index, so a delta
    # at grid point 0 annihilates every column
    values = np.zeros(256, dtype=complex)
    values[0] = 1.0
    with pytest.raises(DegenerateFunctionalError):
        symmetry_check(model, CircleFunction.from_values(values), count=64, seed=0)


def test_invariance_check_passes_with_honest_transport():
    model = _uniform_model(M=512, m=8)
    report = invariance_check(model, count=2000, seed=0)
    assert report.passed
    assert report.cov_distance <= report.budget
    # budget decomposes into the statistical part and the model's own debt
    assert report.budget == pytest.approx(0.05 + report.intertwine)
    assert report.intertwine <= 1e-9


def test_invariance_check_fails_scaled_transport():
    M = 512
    model = _uniform_model(M=M, m=8)

    def scaled(X):
        from hyperlab.kalish import apply_T

        out = np.empty_like(X)
        for j in range(X.shape[1]):
            out[:, j] = 1.2 * apply_T(CircleFunction(X[:, j].copy(), M)).values
        return out

    report = invariance_check(model, transport=scaled, count=2000, seed=0)
    assert not report.passed
    assert report.cov_distance > report.budget


def test_invariance_check_transports_the_factor_once():
    model = _uniform_model(M=256, m=8)
    calls = []

    def counting(X):
        calls.append(X.shape)
        return kalish_matrix(256) @ X

    report = invariance_check(model, transport=counting, count=500, seed=1)
    assert calls == [(256, 8)]
    assert report.intertwine == pytest.approx(
        intertwine_residual(model, transport=kalish_matrix(256).__matmul__),
        abs=1e-15)


def test_invariance_matrix_transport_path():
    M = 256
    model = _uniform_model(M=M, m=8)
    by_grid = invariance_check(model, count=1000, seed=5)
    by_matrix = invariance_check(model, transport=kalish_matrix(M).__matmul__,
                                 count=1000, seed=5)
    assert by_grid.passed and by_matrix.passed
    assert by_grid.cov_distance == pytest.approx(by_matrix.cov_distance, abs=1e-10)


def test_invariance_budget_comes_from_the_grid_T_not_the_transport(monkeypatch):
    model = _uniform_model(M=256, m=8)
    grid_T = []
    monkeypatch.setattr(gauss_model, "apply_T_array",
                        lambda X: grid_T.append(X.shape) or apply_T_array(X))
    honest = invariance_check(model, count=500, seed=1)
    # the grid T path forms T A once, for the distance and the budget both
    assert grid_T == [(256, 8)]
    scaled = invariance_check(model, transport=scaled_transport(1.25), count=500, seed=1)
    # once more, for the budget's grid term (the transport calls runner's binding)
    assert grid_T == [(256, 8)] * 2
    # the report keeps the transport's own residual, the budget the grid T's
    assert scaled.intertwine == pytest.approx(0.25, abs=1e-9)
    assert scaled.budget == honest.budget == 0.05 + intertwine_residual(model)
    assert not scaled.passed


def _bartlett_ghat(m: int, S: int, seed: int) -> np.ndarray:
    """The invariance check's G G*/S, as L L*/S of its Bartlett draw."""
    L = next(gauss_model._draws("invariance-check", [seed], (m, S), "bartlett"))
    return L @ L.conj().T / S


@pytest.mark.parametrize("m, S", [(4, 16), (4, 4), (4, 2), (4, 1)],
                         ids=["S>m", "S=m", "S<m", "S=1"])
def test_bartlett_draw_has_the_wishart_moments_of_the_sample_matrix(m, S):
    # G G*/S of an (m, S) unit complex G: E Ghat = I, E|Ghat_ij|^2 = 1/S off
    # the diagonal and Var Ghat_ii = 1/S; over 4000 seeds each sample
    # moment sits within 4 standard errors
    R = 4000
    ghats = np.array([_bartlett_ghat(m, S, seed) for seed in range(R)])
    off = ~np.eye(m, dtype=bool)
    checks = [(ghats - np.eye(m), 0.0),
              (np.abs(ghats[:, off]) ** 2, 1.0 / S),
              ((np.diagonal(ghats, axis1=1, axis2=2).real - 1.0) ** 2, 1.0 / S)]
    for values, want in checks:
        se = np.sqrt(np.mean(np.abs(values - values.mean(axis=0)) ** 2, axis=0) / R)
        assert np.all(np.abs(values.mean(axis=0) - want) <= 4.0 * se), (m, S, want)


@pytest.mark.parametrize("m, S", [(6, 10), (6, 6), (6, 3), (6, 1), (1, 1), (1, 5)])
def test_bartlett_draw_has_rank_min_m_s_and_its_seed_s_bits(m, S):
    L = next(gauss_model._draws("invariance-check", [3], (m, S), "bartlett"))
    r = min(m, S)
    assert L.shape == (m, r)
    assert np.all(np.triu(L, 1) == 0) and np.all(np.diagonal(L).real > 0)
    assert np.all(np.diagonal(L).imag == 0)
    assert np.linalg.matrix_rank(_bartlett_ghat(m, S, 3)) == r
    assert np.array_equal(_bartlett_ghat(m, S, 3), _bartlett_ghat(m, S, 3))
    assert not np.array_equal(_bartlett_ghat(m, S, 3), _bartlett_ghat(m, S, 4))


def test_bartlett_draw_checks_its_count_at_the_call():
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        gauss_model._draws("invariance-check", [0], (4, 0), "bartlett")


@pytest.mark.parametrize("S", [1, 3, 500])
def test_invariance_distance_is_the_dense_distance_of_the_bartlett_draw(S):
    # ||T A Ghat (T A)* - A A*||_F / ||A A*||_F with Ghat = L L*/S of the
    # check's own draw, formed as dense M x M matrices
    M, seed = 64, 7
    model = _uniform_model(M=M, m=4)
    report = invariance_check(model, count=S, seed=seed)
    A = model.factor
    TA = kalish_matrix(M) @ A
    R = A @ A.conj().T
    dense = TA @ _bartlett_ghat(4, S, seed) @ TA.conj().T - R
    want = np.linalg.norm(dense) / np.linalg.norm(R)
    assert report.cov_distance == pytest.approx(want, rel=1e-9)
    assert invariance_check(model, count=S, seed=seed) == report


# The median covariance distance over seeds 0-19 at 10,000 draws lies within
# this band of s^2 - 1, the distance a transport scaled by s owes.  The s = 1
# median, 0.0106 on the 8-node uniform model at M = 1024, is the sampler's
# own floor, and every other median of the curve lies within 0.002 of s^2 - 1.
POWER_NOISE = 0.015


def test_invariance_power_curve_over_transport_scales():
    model = _uniform_model(M=1024, m=8)
    fails = []
    for s in (1.0, 1.005, 1.01, 1.02, 1.03, 1.05, 1.25):
        transport = None if s == 1.0 else scaled_transport(s)
        reports = [invariance_check(model, transport, count=10_000, seed=seed)
                   for seed in range(20)]
        median = float(np.median([r.cov_distance for r in reports]))
        assert abs(median - (s * s - 1.0)) <= POWER_NOISE, (s, median)
        fails.append(sum(not r.passed for r in reports))
        if s == 1.0:
            assert fails[-1] == 0
        if s >= 1.05:
            assert fails[-1] == 20, (s, fails)
    # a larger departure never fails on fewer seeds
    assert fails == sorted(fails)


# -- matrix coefficients ---------------------------------------------------

def test_analytic_coefficient_equals_spectral_measure_transform():
    model = _uniform_model(M=512, m=8)
    for k in range(6):
        xstar = random_functional(seed=30 + k, grid_size=512)
        rho = spectral_measure_of_functional(model, xstar)
        for n in (-8, -1, 0, 1, 5):
            assert matrix_coefficient_analytic(model, xstar, n) == pytest.approx(
                fourier_coefficient(rho, n), abs=1e-12
            )


def test_spectral_measure_supported_on_node_angles():
    model = _uniform_model(M=512, m=8)
    node_angles = set(float(a) for a in model.angles)
    for k in range(4):
        xstar = random_functional(seed=40 + k, grid_size=512)
        rho = spectral_measure_of_functional(model, xstar)
        assert not rho.has_density
        for a, _ in rho.atoms():
            assert a in node_angles


def test_analytic_zero_power_is_variance():
    model = _uniform_model(M=256, m=8)
    xstar = random_functional(seed=2, grid_size=256)
    variance = np.sum(np.abs(model.functional_coefficients(xstar)) ** 2)
    assert matrix_coefficient_analytic(model, xstar, 0) == pytest.approx(variance)


def test_mc_coefficient_brackets_analytic():
    model = _uniform_model(M=512, m=8)
    xstar = random_functional(seed=3, grid_size=512)
    for n in (0, 1, 2):
        est = matrix_coefficient_mc(model, xstar, n, count=4000, seed=21)
        want = matrix_coefficient_analytic(model, xstar, n)
        slack = 3.0 * est.standard_error + 1e-9
        assert abs(est.value - want) <= slack, n


def test_mc_zero_power_exact_at_sample_level():
    # at n = 0 the product is |zeta|^2, so the estimate equals the plain
    # empirical variance of the draw
    model = _uniform_model(M=256, m=4)
    xstar = random_functional(seed=4, grid_size=256)
    est = matrix_coefficient_mc(model, xstar, 0, count=500, seed=9)
    assert est.value.imag == pytest.approx(0.0, abs=1e-12)
    assert est.power == 0


def test_norm_drift_guard_fires():
    xstar = random_functional(seed=6, grid_size=128)
    inflate = 5.0 * np.eye(128, dtype=complex)
    with pytest.raises(NormDriftError):
        list(walk(inflate.__matmul__, np.conj(xstar.values), 8, np.linalg.norm))


def test_walk_yields_start_then_each_step_and_checks_n_at_the_call():
    states = list(walk(lambda x: 2.0 * x, np.ones(3), 4, np.linalg.norm))
    assert [s[0] for s in states] == [1.0, 2.0, 4.0, 8.0, 16.0]
    with pytest.raises(ValueError, match="n >= 0 steps, got -2"):
        walk(lambda x: x, np.ones(3), -2, np.linalg.norm)


def test_one_drift_guard_message_for_orbits_and_coefficients(monkeypatch):
    # 5^5 is the first power past 1e3 x the start's norm on both walks; the
    # coefficient walk steps the one vector conj(x*) by apply_T_transpose.
    # The shift start y = 5^8 e_8 is x = e_8, of norm 1.
    shape = r"^norm drift guard tripped at step 5 of 8: \S+ > \S+$"
    x0 = np.zeros(9, dtype=complex)
    x0[-1] = 5.0 ** 8
    with pytest.raises(NormDriftError, match=shape) as from_orbit:
        orbit(weighted_shift_system([5.0] * 8), x0, 8)
    assert str(from_orbit.value).endswith(": 3.125e+03 > 1.000e+03")
    model = _uniform_model(M=128, m=4)
    xstar = random_functional(seed=6, grid_size=128)
    monkeypatch.setattr(gauss_model, "apply_T_transpose", lambda y: 5.0 * y)
    with pytest.raises(NormDriftError, match=shape):
        matrix_coefficient_mc(model, xstar, 8, count=16, seed=0)


def test_dense_matrix_transport_is_rejected():
    model = _uniform_model(M=64, m=4)
    with pytest.raises(TypeError):
        intertwine_residual(model, transport=kalish_matrix(64))
    with pytest.raises(TypeError):
        invariance_check(model, transport=kalish_matrix(64), count=10, seed=0)


def test_symmetry_check_needs_two_draws():
    model = _uniform_model(M=128, m=4)
    xstar = random_functional(seed=6, grid_size=128)
    with pytest.raises(ValueError, match="count >= 2 draws, got 1"):
        symmetry_check(model, xstar, 1, seed=0)


def test_negative_power_is_a_value_error():
    # the coefficient walk goes forward only
    model = _uniform_model(M=128, m=4)
    xstar = random_functional(seed=6, grid_size=128)
    with pytest.raises(ValueError, match="n >= 0 steps, got -1"):
        matrix_coefficient_mc(model, xstar, -1, count=16, seed=0)


def test_coefficient_rows_step_one_vector_per_power(monkeypatch):
    # one transposed step of an (M,) vector per power, and the factor is
    # never transported: a matrix_coefficient_mc call per power would take
    # 0 + 1 + ... + 6 = 21 steps
    model = _uniform_model(M=256, m=8)
    xstar = random_functional(seed=3, grid_size=256)
    calls = []

    def counting(y):
        calls.append(y.shape)
        return apply_T_transpose(y)

    def refused(X):
        raise AssertionError("the coefficient table transported the factor")

    monkeypatch.setattr(gauss_model, "apply_T_transpose", counting)
    monkeypatch.setattr(gauss_model, "apply_T_array", refused)
    rows = coefficient_rows(model, xstar, 6, samples=200, seed=5, label="mc:")
    assert len(rows) == 7
    assert calls == [(256,)] * 6


def _forward_coefficients(model, xstar, top: int) -> list:
    """x*'s coordinates against T^n A for n = 0..top by the definition:
    the factor stepped forward by apply_T_array, then the grid inner
    product with each column."""
    B, out = model.factor, []
    for _ in range(top + 1):
        out.append((TWO_PI / model.grid_size) * (np.conj(xstar.values) @ B))
        B = apply_T_array(B)
    return out


def _max_relative(got, want) -> float:
    return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
               for a, b in zip(got, want))


@pytest.mark.parametrize("M, m, top", [(256, 8, 64), (100, 8, 16)])
def test_coefficient_rows_agree_with_the_forward_walk_of_the_factor(M, m, top):
    # the estimate is (1/S) sum (c_n . g) conj(c_0 . g) on the pair drawn
    # from a fixed (2, S) draw, so c_n from the forward walk gives it again
    # to the coefficients' round-off
    model = _uniform_model(M=M, m=m)
    xstar = random_functional(seed=7, grid_size=M)
    rows = coefficient_rows(model, xstar, top, samples=64, seed=2, label="mc:")
    forward = _forward_coefficients(model, xstar, top)
    walked = list(gauss_model._orbit_coefficients(model, xstar, top))
    assert _max_relative(walked, forward) <= 1e-12
    c0 = forward[0]
    for (n, _, mc, _), cn in zip(rows, forward):
        Z = next(gauss_model._draws(gauss_model._MC_STREAM,
                                    [derive_seed(2, f"mc:{n}")], (2, 64)))
        y0, yn = gauss_model._pair(c0, cn, Z)
        want = np.mean(yn * np.conj(y0))
        assert abs(mc.value - want) <= 1e-12 * abs(want), n


def _pair_cases() -> list:
    """(a, b) pairs of coordinate vectors: coefficient pairs (c0, cn) of a
    model, their parallel and zero cases, and the real control's
    (Re c, Im c)."""
    model = _uniform_model(M=256, m=8)
    c = list(gauss_model._orbit_coefficients(model, random_functional(9, 256), 7))
    cases = {"c0-c1": (c[0], c[1]), "c0-c7": (c[0], c[7]), "cn-is-c0": (c[0], c[0]),
             "cn-is-c0-phase": (c[0], np.exp(2.5j) * c[0]),
             "c0-zero": (np.zeros(8, dtype=complex), c[3]),
             "re-im": (c[0].real, c[0].imag), "re-re": (c[0].real, c[0].real),
             "re-zero": (np.zeros(8), c[0].imag)}
    return [pytest.param(a, b, id=name) for name, (a, b) in cases.items()]


@pytest.mark.parametrize("a, b", _pair_cases())
def test_pair_factor_reproduces_the_gram(a, b):
    # on the identity draw the pair is the rows of the lower-triangular
    # factor L; L L* is the Gram of (a . g, b . g) for unit Gaussian g
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        L = np.array(gauss_model._pair(a, b, np.eye(2)))
    assert np.all(np.isfinite(L)) and L[0, 1] == 0.0
    assert L[0, 0] >= 0.0 and L[1, 1].real >= 0.0 and L[1, 1].imag == 0.0
    gram = np.array([[np.vdot(a, a), np.vdot(b, a)], [np.vdot(a, b), np.vdot(b, b)]])
    assert np.max(np.abs(L @ L.conj().T - gram)) <= 1e-12 * np.max(np.abs(gram))


@pytest.mark.parametrize("n", [0, 1, 7, "real"])
def test_drawn_pair_has_the_gram_as_its_second_moments(n):
    # a law check that reads only the draw: at S = 200,000 every sample
    # second moment of the pair sits within 4 standard errors of the Gram
    # of (a . g, b . g), and a complex pair's pseudo-moments of zero
    S = 200_000
    model = _uniform_model(M=256, m=8)
    c = list(gauss_model._orbit_coefficients(model, random_functional(4, 256), 7))
    if n == "real":
        a, b = c[0].real, c[0].imag
        Z = next(gauss_model._draws("law", [1], (2, S), "real"))
    else:
        a, b = c[0], c[n]
        Z = next(gauss_model._draws("law", [1], (2, S)))
    y = gauss_model._pair(a, b, Z)
    coords = (a, b)
    checks = [(y[i] * np.conj(y[k]), np.vdot(coords[k], coords[i]))
              for i in range(2) for k in range(i + 1)]
    if n != "real":
        checks += [(y[i] * y[k], 0.0) for i in range(2) for k in range(i + 1)]
    for prods, want in checks:
        se = np.sqrt(np.mean(np.abs(prods - prods.mean()) ** 2) / S)
        assert abs(prods.mean() - want) <= 4.0 * se, (n, want)


@pytest.mark.parametrize("M", [64, 100, 256])
def test_coefficient_row_M_is_row_0(M):
    # T^M = I on the grid: the walk comes back to x*'s coordinates against A
    model = _uniform_model(M=M, m=8)
    xstar = random_functional(seed=8, grid_size=M)
    walked = list(gauss_model._orbit_coefficients(model, xstar, M))
    assert _max_relative([walked[M]], [walked[0]]) <= 1e-11


def test_coefficient_rows_equal_the_per_power_values():
    model = _uniform_model(M=256, m=8)
    xstar = random_functional(seed=3, grid_size=256)
    seed, label, top = 11, "mc:0:", 6
    rows = coefficient_rows(model, xstar, top, samples=500, seed=seed,
                            label=label)
    band = fourier_band(spectral_measure_of_functional(model, xstar), top)
    assert [r[0] for r in rows] == list(range(top + 1))
    for n, analytic, mc, spectral in rows:
        assert analytic == matrix_coefficient_analytic(model, xstar, n)
        assert mc == matrix_coefficient_mc(model, xstar, n, 500,
                                           derive_seed(seed, f"{label}{n}"))
        assert spectral == band[top + n]


@pytest.mark.parametrize("check", [
    lambda model, xstar: invariance_check(model, count=0, seed=0),
    lambda model, xstar: symmetry_check(model, xstar, 0, seed=0),
    lambda model, xstar: matrix_coefficient_mc(model, xstar, 2, count=0, seed=0),
    lambda model, xstar: coefficient_rows(model, xstar, 2, 0, 0, "mc:"),
], ids=["invariance", "symmetry", "matrix-coefficient", "coefficient-table"])
def test_zero_sample_count_is_a_typed_error(check):
    model = _uniform_model(M=128, m=4)
    xstar = random_functional(seed=6, grid_size=128)
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        check(model, xstar)


# -- manifest ---------------------------------------------------------------

def test_manifest_round_trip():
    # the document `gauss build` prints: its JSON text reads back as the
    # model's measure, nodes, grid and field kind
    model = _uniform_model(M=256, m=8)
    doc = json.loads(stable_dumps(model.to_manifest()))
    assert set(doc) == {"schema", "sigma", "nodes", "grid", "field_kind",
                        "seed_policy"}
    assert doc["schema"] == "gauss-model/1"
    assert doc["seed_policy"] == "sha256-labeled-streams"
    assert (doc["grid"], doc["field_kind"]) == (model.grid_size, "corrected")
    assert CircleMeasure.from_dict(doc["sigma"]) == model.source_measure
    angles, weights = np.array(doc["nodes"]).T
    np.testing.assert_array_equal(angles, model.angles)
    np.testing.assert_array_equal(weights, model.weights)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)