"""Gaussian model over a quantized eigenvector field.

Dual-path oracles throughout: dense covariance against the Gram form,
analytic coefficients against the spectral measure's transform, Monte
Carlo estimates against analytic values within standard-error bars.
"""

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
    fourier_coefficient,
    indicator_field,
    intertwine_residual,
    invariance_check,
    kalish_matrix,
    matrix_coefficient_analytic,
    matrix_coefficient_mc,
    mix,
    model_from_manifest,
    quantize,
    sample,
    spectral_measure_of_functional,
    symmetry_check,
)
from hyperlab.corpora import random_functional
from hyperlab.jsonio import SchemaError
from hyperlab.kalish import func_norm, grid_angles, inner_product

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


# -- fields --------------------------------------------------------------

def test_indicator_field_residuals_are_first_order():
    sigma = CircleMeasure.uniform(bins=1024)
    field = indicator_field(sigma, 8, 1024)
    res = field.residuals()
    assert np.all(res > 1e-6)
    assert np.all(res < 0.05)


def test_corrected_field_residuals_are_round_off():
    sigma = CircleMeasure.uniform(bins=1024)
    field = corrected_field(sigma, 8, 1024)
    assert np.max(field.residuals()) <= 1e-12


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


# -- model assembly ------------------------------------------------------

def test_build_model_rejects_sloppy_field():
    sigma = CircleMeasure.uniform(bins=1024)
    field = indicator_field(sigma, 8, 512)
    with pytest.raises(FieldAdmissibilityError):
        build_model(field, residual_threshold=1e-6)


def test_factor_columns_are_weighted_vectors():
    model = _uniform_model(M=256, m=4)
    f = model.field
    for j in range(model.node_count):
        np.testing.assert_allclose(
            model.factor[:, j], np.sqrt(f.weights[j]) * f.vectors[:, j],
            atol=1e-15,
        )


def test_covariance_frobenius_matches_dense():
    model = _uniform_model(M=128, m=4)
    dense = np.linalg.norm(model.covariance(), "fro")
    assert model.covariance_frobenius() == pytest.approx(dense, rel=1e-12)


def test_kernel_witness_positive_singular_value():
    # two or more distinct nodes never produce a rank-deficient factor
    for m in (2, 4, 8):
        model = _uniform_model(M=256, m=m)
        assert model.smallest_singular > 0.0


@pytest.mark.parametrize("kind", ["corrected", "indicator"])
@pytest.mark.parametrize("m", [2, 4, 8, 32])
def test_smallest_singular_from_gram_matches_svd(kind, m):
    model = _uniform_model(M=1024, m=m, kind=kind)
    sv = np.linalg.svd(model.factor, compute_uv=False)
    assert model.smallest_singular == pytest.approx(sv[-1], rel=1e-10)


def test_field_rejects_vectors_with_wrong_column_count():
    field = corrected_field(CircleMeasure.uniform(bins=1024), 4, 64)
    for cols in (3, 5):
        with pytest.raises(ValueError):
            EigenField(field.angles, field.weights,
                       np.ones((64, cols), dtype=complex),
                       field.source_measure, kind="corrected")


def test_functional_coefficients_match_inner_products():
    model = _uniform_model(M=256, m=4)
    xstar = random_functional(seed=5, grid_size=256)
    c = model.functional_coefficients(xstar)
    for j in range(model.node_count):
        col = CircleFunction.from_values(model.factor[:, j])
        assert c[j] == pytest.approx(inner_product(xstar, col), abs=1e-12)


def test_intertwine_residual_round_off_for_corrected():
    model = _uniform_model(M=512, m=8)
    assert intertwine_residual(model) <= 1e-9


def test_intertwine_residual_matrix_path_agrees():
    M = 256
    model = _uniform_model(M=M, m=8)
    grid_op = intertwine_residual(model)
    matrix_op = intertwine_residual(model, transport=kalish_matrix(M))
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
        intertwine_residual(model, transport=kalish_matrix(256)), abs=1e-15)


def test_invariance_matrix_transport_path():
    M = 256
    model = _uniform_model(M=M, m=8)
    by_grid = invariance_check(model, count=1000, seed=5)
    by_matrix = invariance_check(model, transport=kalish_matrix(M), count=1000, seed=5)
    assert by_grid.passed and by_matrix.passed
    assert by_grid.cov_distance == pytest.approx(by_matrix.cov_distance, abs=1e-10)


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
    node_angles = set(float(a) for a in model.field.angles)
    for k in range(4):
        xstar = random_functional(seed=40 + k, grid_size=512)
        rho = spectral_measure_of_functional(model, xstar)
        assert not rho.has_density
        for a, _ in rho.atoms():
            assert a in node_angles


def test_analytic_zero_power_is_variance():
    model = _uniform_model(M=256, m=8)
    xstar = random_functional(seed=2, grid_size=256)
    assert matrix_coefficient_analytic(model, xstar, 0) == pytest.approx(
        model.functional_variance(xstar)
    )


def test_mc_coefficient_brackets_analytic():
    model = _uniform_model(M=512, m=8)
    xstar = random_functional(seed=3, grid_size=512)
    for n in (0, 1, 2, -1):
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
    model = _uniform_model(M=128, m=4)
    xstar = random_functional(seed=6, grid_size=128)
    inflate = 5.0 * np.eye(128, dtype=complex)
    with pytest.raises(NormDriftError):
        matrix_coefficient_mc(model, xstar, 8, count=16, seed=0, transport=inflate)


def test_negative_power_with_callable_transport_rejected():
    model = _uniform_model(M=128, m=4)
    xstar = random_functional(seed=6, grid_size=128)
    with pytest.raises(ValueError):
        matrix_coefficient_mc(
            model, xstar, -1, count=16, seed=0, transport=lambda X: X
        )


# -- manifest ---------------------------------------------------------------

def test_manifest_round_trip():
    model = _uniform_model(M=256, m=8)
    doc = model.to_manifest()
    assert doc["schema"] == "gauss-model/1"
    again = model_from_manifest(doc)
    assert again.grid_size == model.grid_size
    assert again.node_count == model.node_count
    np.testing.assert_allclose(again.field.angles, model.field.angles, atol=1e-15)
    assert again.covariance_frobenius() == pytest.approx(
        model.covariance_frobenius(), rel=1e-12
    )


def test_manifest_rejects_wrong_schema():
    model = _uniform_model(M=256, m=8)
    doc = model.to_manifest()
    doc["schema"] = "gauss-model/2"
    with pytest.raises(SchemaError):
        model_from_manifest(doc)
