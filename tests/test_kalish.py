"""Discretized multiplication-minus-integration operator on the circle.

Oracles: the definition T = M - J (apply_M and apply_J in conftest),
geometric sums for the quadrature on constants, the continuum limit
zeta - 1, first-order error halving, and dense linear algebra for the
matrix path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_J, apply_M
from hyperlab import (
    CircleFunction,
    DegenerateAngleError,
    MatrixSizeError,
    apply_T,
    chi,
    eigen_residual,
    func_norm,
    grid_angles,
    kalish_matrix,
    nearest_grid_index,
)
from hyperlab import kalish
from hyperlab.kalish import (
    _phases, apply_T_array, apply_T_transpose, arc_indicators,
    exact_eigenvectors, grid_norms)
from hyperlab.seeding import complex_standard_normal, rng_for

TWO_PI = 2.0 * np.pi


def _random_function(seed: int, M: int) -> CircleFunction:
    rng = rng_for(seed, "kalish-test-function")
    return CircleFunction.from_values(complex_standard_normal(rng, M))


def _random_block(seed: int, M: int, k: int) -> np.ndarray:
    rng = rng_for(seed, "kalish-test-block")
    return complex_standard_normal(rng, (M, k))


# -- grid and construction ---------------------------------------------

def test_grid_angles_are_left_endpoints():
    t = grid_angles(8)
    np.testing.assert_allclose(t, np.arange(8) * TWO_PI / 8)


def test_circle_function_round_trip():
    f = _random_function(0, 32)
    again = CircleFunction.from_dict(f.to_dict())
    assert again == f


@pytest.mark.parametrize("change, message", [
    ({"im": ...}, "missing required field 'im'"),
    ({"re": ...}, "missing required field 're'"),
    ({"grid": 8.7}, "field 'grid' must be an integer, got 8.7"),
    ({"grid": "8"}, "field 'grid' must be an integer, got '8'"),
    ({"re": [1.0] * 7 + [None]}, "field 're' must be a list of finite numbers"),
    ({"im": 0.0}, "field 'im' must be a list of finite numbers, got 0.0"),
    ({"im": [0.0] * 7}, "grid size does not match sample count"),
])
def test_circle_function_from_dict_names_a_missing_or_ill_typed_field(change, message):
    doc = CircleFunction.constant(1.0, 8).to_dict()
    doc.update(change)
    doc = {k: v for k, v in doc.items() if v is not ...}  # ... drops the field
    with pytest.raises(ValueError, match=message):
        CircleFunction.from_dict(doc)


def test_constant_factory():
    f = CircleFunction.constant(2.0 + 1.0j, 16)
    assert f.grid_size == 16
    assert np.all(f.values == 2.0 + 1.0j)


# -- multiplication operator (the conftest oracle) ----------------------

def test_apply_M_is_pointwise_rotation():
    f = _random_function(1, 64)
    out = apply_M(f.values)
    t = grid_angles(64)
    np.testing.assert_allclose(out, np.exp(1j * t) * f.values, atol=1e-15)


def test_apply_M_preserves_norm():
    f = _random_function(2, 128)
    assert grid_norms(apply_M(f.values)) == pytest.approx(func_norm(f), abs=1e-12)


# -- quadrature operator (the conftest oracle) ---------------------------

def test_apply_J_constant_matches_geometric_sum():
    # independent oracle: i w sum_{j<k} e^{i j w} in closed form
    M = 256
    w = TWO_PI / M
    out = apply_J(np.ones(M))
    k = np.arange(M)
    oracle = 1j * w * (np.exp(1j * k * w) - 1.0) / (np.exp(1j * w) - 1.0)
    oracle[0] = 0.0
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_apply_J_constant_converges_to_zeta_minus_one():
    # continuum limit of the line integral from 0: e^{i theta} - 1
    errors = []
    for M in (256, 512, 1024):
        out = apply_J(np.ones(M))
        t = grid_angles(M)
        errors.append(np.max(np.abs(out - (np.exp(1j * t) - 1.0))))
    assert errors[0] <= 2.0 * TWO_PI / 256
    # first-order scheme: error halves when the grid doubles
    assert errors[1] / errors[0] == pytest.approx(0.5, abs=0.1)
    assert errors[2] / errors[1] == pytest.approx(0.5, abs=0.1)


def test_apply_J_starts_at_zero():
    f = _random_function(3, 64)
    assert apply_J(f.values)[0] == 0.0


# -- the operator itself -----------------------------------------------

def test_apply_T_fixes_constants_to_first_order():
    for M in (512, 1024, 2048):
        out = apply_T(CircleFunction.constant(1.0, M))
        err = np.max(np.abs(out.values - 1.0))
        # the max error is one bin width up to a second-order correction
        assert err <= 1.05 * TWO_PI / M, M


def test_apply_T_is_M_minus_J():
    f = _random_function(4, 128)
    direct = apply_T(f).values
    split = apply_M(f.values) - apply_J(f.values)
    np.testing.assert_allclose(direct, split, atol=1e-15)
    # over 2**16 elements: apply_T_array carries its prefix sum from row
    # block to row block, while the oracle sums each column in one cumsum
    X = _random_block(4, 16384, 8)
    np.testing.assert_allclose(apply_T_array(X), apply_M(X) - apply_J(X),
                               rtol=0, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**20),
       st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
def test_apply_T_linearity_exact(seedval, a, b):
    f = _random_function(seedval, 64)
    g = _random_function(seedval + 1, 64)
    combo = CircleFunction.from_values(a * f.values + b * g.values)
    lhs = apply_T(combo).values
    rhs = a * apply_T(f).values + b * apply_T(g).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_operator_norm_bound(seedval):
    # ||Tf|| <= (1 + 2 pi) ||f||: multiplier is unitary, quadrature is a
    # contraction times the circumference
    f = _random_function(seedval, 128)
    assert func_norm(apply_T(f)) <= (1.0 + TWO_PI) * func_norm(f) + 1e-12


# -- arc indicators ----------------------------------------------------

def test_chi_zero_is_zero_function():
    v = chi(0.0, 64)
    assert np.all(v.values == 0.0)


def test_chi_node_convention_strict_inequality():
    M = 8
    lam = grid_angles(M)[3]
    v = chi(lam, M)
    # the node at lam itself is excluded; later nodes are included
    assert v.values[3] == 0.0
    assert np.all(v.values[4:] == 1.0)
    assert np.all(v.values[:3] == 0.0)


def test_chi_norm_squared_approximates_arc_length():
    for M in (512, 1024):
        v = chi(np.pi, M)
        assert abs(func_norm(v) ** 2 - np.pi) <= TWO_PI / M + 1e-12


def test_arc_indicator_columns_are_chi():
    M = 64
    angles = [0.0, grid_angles(M)[5], 1.0, np.pi, grid_angles(M)[-1], 6.2]
    mat = arc_indicators(angles, M)
    assert mat.shape == (M, len(angles)) and mat.dtype == bool
    for j, lam in enumerate(angles):
        np.testing.assert_array_equal(mat[:, j].astype(complex), chi(lam, M).values)
    assert not mat[:, 0].any() and not mat[:, 4].any()  # angle 0, last node


def test_chi_rejects_out_of_range():
    with pytest.raises(ValueError):
        chi(-0.1, 64)
    with pytest.raises(ValueError):
        chi(TWO_PI, 64)


# -- eigenvector residuals ---------------------------------------------

def test_eigen_residual_frozen_values():
    # regression anchors for the three reference angles
    assert eigen_residual(2 * np.pi / 3, 1024) == pytest.approx(3.027e-3, rel=1e-3)
    assert eigen_residual(np.pi, 1024) == pytest.approx(4.342e-3, rel=1e-3)
    assert eigen_residual(2 * np.pi * 0.811, 1024) == pytest.approx(3.243e-3, rel=1e-3)


def test_eigen_residual_small_at_reference_angle():
    assert eigen_residual(2 * np.pi / 3, 4096) <= 0.05


def test_eigen_residual_halves_with_grid():
    for lam in (2 * np.pi / 3, np.pi, 2 * np.pi * 0.811):
        prev = eigen_residual(lam, 1024)
        for M in (2048, 4096):
            cur = eigen_residual(lam, M)
            assert cur / prev <= 0.75, (lam, M)
            prev = cur


def test_eigen_residual_sixteen_point_set():
    # off-node angles so the arc indicator is a genuine approximation
    M = 512
    for k in range(16):
        lam = TWO_PI * (k + 0.5) / 16
        ratio = eigen_residual(lam, 2 * M) / eigen_residual(lam, M)
        assert ratio <= 0.75, k


def test_eigen_residual_rejects_degenerate():
    with pytest.raises(DegenerateAngleError):
        eigen_residual(0.0, 64)
    with pytest.raises(DegenerateAngleError):
        # arc beyond the last grid node captures nothing
        eigen_residual(TWO_PI - 1e-9, 64)


# -- dense matrix path -------------------------------------------------

def test_kalish_matrix_is_lower_triangular():
    mat = kalish_matrix(32)
    assert np.all(np.triu(mat, k=1) == 0.0)
    t = grid_angles(32)
    np.testing.assert_allclose(np.diag(mat), np.exp(1j * t), atol=1e-15)


def test_kalish_matrix_size_limit():
    with pytest.raises(MatrixSizeError):
        kalish_matrix(8192)


def test_matrix_agrees_with_operator():
    M = 256
    f = _random_function(7, M)
    mat = kalish_matrix(M)
    np.testing.assert_allclose(mat @ f.values, apply_T(f).values, atol=1e-12)


@pytest.mark.parametrize("M", [8, 64, 100, 1024])
def test_transpose_agrees_with_the_transposed_matrix(M):
    # oracle: the dense matrix, transposed by numpy
    y = _random_function(12, M).values
    want = kalish_matrix(M).T @ y
    got = apply_T_transpose(y)
    assert got.shape == (M,)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# -- exact eigenvectors ------------------------------------------------

def test_exact_eigenvector_residual_is_machine_level():
    M = 512
    for k0 in (1, 37, 200, 511):
        v = exact_eigenvectors([k0], M)[:, 0]
        lam = np.exp(1j * grid_angles(M)[k0])
        r = apply_T_array(v) - lam * v
        rel = np.linalg.norm(r) / np.linalg.norm(v)
        assert rel <= 1e-12, k0


def test_exact_eigenvector_leading_zeros():
    v = exact_eigenvectors([5], 64)[:, 0]
    assert np.all(v[:5] == 0.0)
    assert v[5] == 1.0


def test_exact_eigenvector_range_check():
    with pytest.raises(ValueError):
        exact_eigenvectors([64], 64)
    with pytest.raises(ValueError):
        exact_eigenvectors([-1], 64)


def _forward_substitution(k0, M):
    """The eigen recurrence row by row: the oracle of the closed form."""
    w = TWO_PI / M
    d = np.exp(1j * grid_angles(M))
    v = np.zeros(M, dtype=complex)
    v[k0] = 1.0
    S = d[k0]
    for j in range(k0 + 1, M):
        v[j] = 1j * w * S / (d[j] - d[k0])
        S += d[j] * v[j]
    return v


@pytest.mark.parametrize("M,m", [(1024, 8), (4096, 32)])
def test_exact_eigenvectors_batch_matches_forward_substitution(M, m):
    ks = np.unique(np.concatenate([[0, 1, M - 1],
                                   np.linspace(2, M - 2, m - 3).astype(int)]))
    V = exact_eigenvectors(ks, M)
    assert V.shape == (M, ks.size)
    for c, k in enumerate(ks):
        oracle = _forward_substitution(k, M)
        assert np.max(np.abs(V[:, c] - oracle)) <= 1e-13 * np.max(np.abs(oracle)), k


def _one_pass_eigenvectors(ks, M):
    """The closed form over the whole grid and every column at once: the
    reference of the grouped build."""
    w = TWO_PI / M
    d = np.exp(1j * grid_angles(M))[:, None]
    lam = d[ks, 0]
    upper = np.arange(M)[:, None] <= ks
    D = d - lam
    D[upper] = 1.0
    F = (1j * w) * d / D
    F += 1.0
    F[upper] = 1.0
    np.cumprod(F, axis=0, out=F)
    np.divide(F[:-1], D[1:], out=D[1:])
    D *= (1j * w) * lam
    D[upper] = 0.0
    D[ks, np.arange(ks.size)] = 1.0
    return D


@pytest.mark.parametrize("m", [1, 5, 16, 17, 127, 128])
def test_grouped_exact_eigenvectors_are_bitwise_the_one_pass_build(m):
    M = 1024
    ks = np.random.default_rng(m).permutation(np.arange(1, M - 1))[:m]
    ks[0] = M - 1  # unsorted, with both ends of the grid
    if m > 1:
        ks[m // 2] = 0
    got = exact_eigenvectors(ks, M)
    assert np.array_equal(_bits(got), _bits(_one_pass_eigenvectors(ks, M)))


def test_exact_eigenvectors_range_check_names_the_grid():
    with pytest.raises(ValueError, match=r"\[0, 64\)"):
        exact_eigenvectors([3, 64], 64)


@pytest.mark.parametrize("ks", [[1.5], [2.0], [True], [[1, 2]]],
                         ids=["fraction", "integral-float", "bool", "2-D"])
def test_exact_eigenvectors_reject_indices_that_are_not_1_d_integers(ks):
    # np.asarray(ks, dtype=int) built the column for k = 1 out of 1.5
    with pytest.raises(ValueError, match="not a 1-D array of integers"):
        exact_eigenvectors(ks, 16)


def test_nearest_grid_index_wraps():
    M = 64
    assert nearest_grid_index(0.0, M) == 0
    assert nearest_grid_index(TWO_PI - 1e-9, M) == 0
    assert nearest_grid_index(grid_angles(M)[17] + 1e-9, M) == 17


# -- batched kernels ---------------------------------------------------

@pytest.mark.parametrize("M", [8, 1024])
@pytest.mark.parametrize("k", [1, 5])
def test_batched_apply_matches_per_column(M, k):
    X = _random_block(10, M, k)
    TX = apply_T_array(X)
    assert TX.shape == (M, k)
    for j in range(k):
        f = CircleFunction(X[:, j].copy(), M)
        np.testing.assert_allclose(TX[:, j], apply_T(f).values, rtol=0, atol=1e-12)


def test_batched_kernel_leaves_input_untouched():
    X = _random_block(11, 64, 3)
    before = X.copy()
    apply_T_array(X)
    assert np.array_equal(X, before)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("shape", [(256, 8), (256,)])
def test_blocked_kernel_is_bitwise_the_one_block_pass(shape, monkeypatch):
    X = complex_standard_normal(rng_for(14, "blocked-kernels"), shape)
    if X.ndim == 2:
        X[:100, 0] = 0.0
        X[:60, 1] = complex(-0.0, -0.0)
        X[:, 2] = exact_eigenvectors([200], 256)[:, 0]  # exact zeros above row 200
    else:
        X[:100] = complex(-0.0, -0.0)
    one_block = apply_T_array(X)
    # 7 rows a block: 36 blocks and a 4-row remainder, each carrying the sum
    monkeypatch.setattr(kalish, "_BLOCK_ELEMENTS", 7 * X[0].size)
    assert np.array_equal(_bits(one_block), _bits(apply_T_array(X)))


@pytest.mark.parametrize("top", [0, 1, 100, 255])
@pytest.mark.parametrize("block_rows", [7, 256])
def test_row_offset_T_is_bitwise_the_one_pass_apply_on_the_nonzero_rows(
        top, block_rows, monkeypatch):
    M = 256
    X = _random_block(15, M, 5)
    X[:top] = 0.0
    X[:top + 3, 1] = 0.0  # a column whose own first nonzero row is lower
    d = np.exp(1j * grid_angles(M))[:, None]
    running = X * (1j * d)
    running *= TWO_PI / M
    np.add.accumulate(running, axis=0, out=running)
    one_pass = d * X
    one_pass[1:] -= running[:-1]
    monkeypatch.setattr(kalish, "_BLOCK_ELEMENTS", block_rows * 5)
    out = np.empty_like(X[top:])
    kalish._apply_T_rows(X, out, top)
    assert np.array_equal(out, one_pass[top:])
    assert np.array_equal(apply_T_array(X)[top:], out)


def test_grid_constants_are_cached_and_read_only():
    constants = [_phases(64), _phases(64, 2)]
    assert all(not a.flags.writeable for a in constants)
    assert _phases(64, 2) is _phases(64, 2)
    with pytest.raises(ValueError):
        _phases(64)[0] = 0.0


def test_grid_norms_of_a_large_boolean_matrix():
    X = np.zeros((16384, 128), dtype=bool)
    X[::2, 1] = True
    expected = grid_norms(X.astype(float))
    got = grid_norms(X)
    assert np.array_equal(got, expected)
    assert got[0] == 0.0 and got[1] == np.sqrt(np.pi)


def test_square_in_place_is_the_power_two_bit_for_bit():
    # kalish._grid_norms squares |x| by np.square, in place in a scratch,
    # where grid_norms once took np.abs(X) ** 2.0; over every exponent of
    # finite doubles the bits agree
    rng = rng_for(23, "square-bits")
    bits = rng.integers(0, 0x7FF0000000000000, size=200_000, dtype=np.int64)
    a = bits.view(np.float64)
    squared = a.copy()
    with np.errstate(over="ignore", under="ignore"):
        np.square(squared, out=squared)
        assert np.array_equal(squared.view(np.int64), (a ** 2.0).view(np.int64))
