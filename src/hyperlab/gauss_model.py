"""Gaussian models driven by a quantized eigenvector field.

A spectral probability measure sigma on the circle is quantized into m
nodes (lambda_j, w_j); each node carries an eigenvector-like function
E_j for the Kalish operator, stored as column j of one (M, m) matrix.
The factor A has columns sqrt(w_j) E_j, the covariance is R = A A*, and
samples are x = A g with g a vector of independent standard symmetric
complex Gaussians (E g = 0, E|g|^2 = 1, E g^2 = 0).  A built model holds
A, D, the Gram A* A and the node data, not the field's unweighted E.

All covariance comparisons run through Gram matrices: for W with m-ish
columns and Hermitian S, ||W S W*||_F^2 = tr(S P S P) with P = W* W, so
nothing M x M is ever materialized.
The invariance check turns T A, in place and one row block at a time,
into the residual E = T A - A D, and forms its Gram of [T A, A] from
E* E, E* A and the cached A* A by m x m products, holding E, never T A
beside it or the stacked pair.  So build_model and the check each peak
at two factor-sized arrays (the field's vectors and the factor, or the
factor and E).
Sampling draws only the m x S coefficients, and each check forms T A once.
Every m x m Gram product (build_model's A* A, the check's E* [E, A] and
L L* of its Bartlett draw) goes through _gram, on the calling thread: it
multiplies the float views of its operands (real and imaginary parts in
alternate columns, no conjugate copy).  It reads each operand's
staircase off the operand: each column group's first nonzero row, the
tops made nondecreasing, so the columns that may be nonzero in a row
are a prefix.  It cuts the rows at the tops (_bands) and multiplies, in
each band, only the prefixes that may be nonzero there, one BLAS dsyrk
per band for a self product and one dgemm for a cross product, so a
self Gram is exactly Hermitian.  A corrected factor with nodes spread
over the circle is zero above its staircase in about half its entries,
and its Grams cost about a third of the dense product as the groups
grow; an operand with no zero prefix is one band, the dense product.
BLAS brings its own threads; the package starts none.  The check's
exact_distance, ||B B* - A A*||_F / ||A A*||_F for B = T A, comes from
these Grams with no draw, as tr(Gram[A D, E] Gram[E, B]), whose terms
are all of order ||E||^2, so it reads round-off, not the square root of
round-off, under the grid T.
EigenField.residuals works one column group at a time from the group's
first nonzero row, the first row where any of its columns is nonzero
(the kalish module docstring), read in row blocks up to the first block
holding one, so it holds no factor-sized array; _gram reads its tops
through the same scan.
corrected_field takes its norms one column group at a time too, an arc
indicator's as the root of (2pi/M) times its count of nodes.
_draws is the one draw source of every Monte-Carlo routine here: it
checks the count (the last axis of the shape: an integer, not a bool,
and at least 1), keys each seed's stream
by its label and yields one draw per seed of its kind: unit complex
normals (one seeding.complex_standard_normal call), the real control's
real normals, or the Bartlett factor of an (m, S) draw.  Each routine
draws only what its estimator reads: sample the (m, S) coordinates G,
the invariance check the m x min(m, S) lower-trapezoidal Bartlett
factor L with L L* of the law of G G* (Goodman 1963): its strictly
lower entries, row by row, as one complex normal draw, then L_kk =
sqrt(Gamma(S - k)) for k = 0..min(m, S) - 1, so m^2/2 normals and m
gammas, not m S normals; a coefficient estimate the pair (c0 . g,
cn . g) and a symmetry check zeta = c . g.  A pair of linear
functionals of g is a bivariate Gaussian, drawn from a (2, S) Z through
the 2 x 2 lower-triangular factor of its Gram (_pair), formed by
elementwise products and sums, so these cells' bits depend on no BLAS
kernel.  The coefficient table computes x*'s coordinates against A once
and feeds them to its analytic rows, its spectral measure and its
Monte-Carlo estimates.
A transport is None (the grid T) or a callable on (M, k) arrays; the
invariance check and the intertwining residual take one.  walk is the one
drift-guarded walk through powers of a map: dynamics_lab walks its stored
orbits with it.  drift_guard is walk's guard on a finished norm row, one
vectorized comparison with walk's message; dynamics_lab's streamed orbit
applies it to its norm row.  x*'s coordinates against T^n A are
(2pi/M) A^T y_n for the walk y_n = (T^T)^n conj(x*) of one M-vector (the
kalish module docstring): every coefficient routine, the one-power ones
included, takes them from that walk, one kalish.apply_T_transpose step
and one matrix-vector product per power, and never transports the (M, m)
factor.

Two field constructions are provided.  indicator_field uses the arc
indicators chi(lambda_j) verbatim (first-order eigen residual, decaying
with the grid).  corrected_field snaps each node angle to the nearest
grid angle and builds its exact discrete eigenvectors in one closed-form
batch, which drives the intertwining residual to round-off; the snap
moves each node by at most pi/M and is recorded on the field.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterator, Optional

import numpy as np

from .circle_measure import (ATOM_MERGE_TOL, CircleMeasure, _canonical_atoms,
                             _require_probability, fourier_band, total_mass)
from .jsonio import _is_number, record_dict
from .kalish import (
    _GROUP_COLUMNS,
    CircleFunction,
    DegenerateAngleError,
    GridMismatchError,
    _apply_T_rows,
    _block_rows,
    apply_T,  # noqa: F401 - kept bound: perfbench patches every binding
    apply_T_array,
    apply_T_transpose,
    arc_indicators,
    exact_eigenvectors,
    grid_angles,
    grid_norms,
    nearest_grid_index,
)
from .seeding import complex_standard_normal, derive_seed, rng_for

TWO_PI = 2.0 * np.pi
_MC_STREAM = "matrix-coefficient-mc"

Transport = Optional[Callable[[np.ndarray], np.ndarray]]


class FieldAdmissibilityError(ValueError):
    """Eigenvector residuals exceed the admissibility threshold."""


class DegenerateFunctionalError(ValueError):
    """Functional has (numerically) zero variance on the model."""


class NormDriftError(RuntimeError):
    """Orbit norm exploded; the discretization no longer tracks T^n."""


def walk(one_step: Callable, x0, n: int, norm: Callable) -> Iterator:
    """Yield x0 and then each of n steps, holding only the current state;
    raise NormDriftError at the first norm above 1e3 x max(norm(x0), 1e-12).
    n is checked at the call."""
    if n < 0:
        raise ValueError(f"a walk takes n >= 0 steps, got {n}")
    return _walk(one_step, x0, n, norm)


def _walk(one_step, x, n, norm):
    guard = 1e3 * max(norm(x), 1e-12)
    yield x
    for t in range(1, n + 1):
        x = one_step(x)
        size = norm(x)
        if size > guard:
            raise _drift_error(t, n, size, guard)
        yield x


def drift_guard(norm_row: np.ndarray) -> None:
    """walk's guard on the finished norm row of x0, T x0, ..., T^n x0:
    raise NormDriftError at the first index whose norm is above
    1e3 x max(norm_row[0], 1e-12), in one vectorized comparison."""
    guard = 1e3 * max(norm_row[0], 1e-12)
    over = np.flatnonzero(norm_row > guard)
    if over.size:
        raise _drift_error(int(over[0]), norm_row.size - 1, norm_row[over[0]], guard)


def _drift_error(t: int, n: int, size: float, guard: float) -> NormDriftError:
    return NormDriftError(f"norm drift guard tripped at step {t} of {n}: "
                          f"{size:.3e} > {guard:.3e}")


def quantize(sigma: CircleMeasure, m: int) -> list:
    """Nodes (angle, weight) for a probability measure: atoms verbatim,
    density split into equal-mass cells with each node at the cell's
    exact mass centroid (the density is piecewise constant, so centroid
    integrals are closed-form per bin fragment).  The fragments of every
    cell come from one vectorized pass over its bins, summed per cell in
    bin order, and the nodes merge by the one atom rule, _canonical_atoms."""
    _require_probability(sigma)
    _require_integer(m, "node count")
    if m < 1:
        raise ValueError("node count must be >= 1")
    cells, dmass = m - sigma.atom_count, sigma.density_mass
    centroids = cell_masses = np.empty(0)
    if cells < 0:
        raise ValueError(f"node count {m} is smaller than the atom count {sigma.atom_count}")
    if dmass > 1e-12:
        if cells == 0:
            raise ValueError("no nodes left for the density part; increase the node count")
        width, density = sigma.bin_width, sigma.density
        mass = density * width
        cum = np.concatenate([[0.0], np.cumsum(mass)])
        edges = dmass * np.arange(cells + 1) / cells
        lo, hi = edges[:-1], edges[1:]
        # cell i's bins: from the one holding lo while cum[j] < hi
        first = np.clip(np.searchsorted(cum, lo, "right") - 1, 0, sigma.bins - 1)
        count = np.clip(np.searchsorted(cum, hi, "left"), first, sigma.bins) - first
        cell = np.repeat(np.arange(cells), count)
        j = first[cell] + np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count)
        a, b = np.maximum(lo[cell], cum[j]), np.minimum(hi[cell], cum[j + 1])
        kept = (mass[j] > 0.0) & (b > a)
        cell, j, a, b = cell[kept], j[kept], a[kept], b[kept]
        # angle is linear in mass inside a constant bin
        theta_a = j * width + (a - cum[j]) / density[j]
        theta_b = j * width + (b - cum[j]) / density[j]
        moment = np.bincount(cell, 0.5 * (theta_a + theta_b) * (b - a), cells)
        cell_masses = np.full(cells, dmass / cells)
        centroids = moment / cell_masses
    angles, weights = _canonical_atoms(
        np.concatenate([sigma.atom_angles, centroids]),
        np.concatenate([sigma.atom_masses, cell_masses]))
    return list(zip(angles.tolist(), weights.tolist()))


@dataclass(frozen=True)
class EigenField:
    """Quantized field: nodes, their (M, m) eigenvector columns, provenance."""

    angles: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    source_measure: CircleMeasure
    kind: str  # "indicator" or "corrected"

    def __post_init__(self):
        m = self.angles.size
        if m == 0:
            raise ValueError("field needs at least one node")
        if self.weights.shape != (m,) or self.vectors.shape[1:] != (m,):
            raise ValueError("angles, weights and vectors must align")
        if self.grid_size < 8:
            raise ValueError(f"grid_size must be >= 8, got {self.grid_size}")
        if np.any(self.weights <= 0):
            raise ValueError("node weights must be positive")
        if np.any(np.diff(np.sort(self.angles)) <= ATOM_MERGE_TOL):
            raise ValueError("node angles must be distinct")
        finite = np.isfinite(self.vectors).all(axis=0)
        bad = np.flatnonzero(~finite | ~self.vectors.any(axis=0))
        if bad.size:
            j = int(bad[0])
            what = "a non-finite entry" if not finite[j] else "only zeros"
            raise ValueError(f"vectors column {j} holds {what}")
        total = float(np.sum(self.weights))
        if abs(total - total_mass(self.source_measure)) > 1e-9:
            raise ValueError(
                "node weights must sum to the source measure's total mass"
            )

    @property
    def grid_size(self) -> int:
        return int(self.vectors.shape[0])

    def residuals(self) -> np.ndarray:
        """Relative eigen residual of each vector at its node angle, one
        column group at a time, its T from the group's first nonzero row
        (no column is all zero, so the group has one)."""
        out = np.empty(self.angles.size)
        rows = _block_rows(self.vectors.shape)  # one kernel block of the field
        for lo in range(0, self.angles.size, _GROUP_COLUMNS):
            cols = slice(lo, lo + _GROUP_COLUMNS)
            V = self.vectors[:, cols]
            top = _first_nonzero_row(V, rows)
            R = np.empty(V[top:].shape, dtype=complex)
            _apply_T_rows(V, R, top)
            R -= V[top:] * np.exp(1j * self.angles[cols])
            # both norms weigh by 2pi/(M - top), which cancels in the ratio
            out[cols] = grid_norms(R) / grid_norms(V[top:])
        return out


def _first_nonzero_row(V: np.ndarray, rows: int) -> int:
    """The first row where any column of V is nonzero (the row count if
    none is), read rows rows at a time up to the first block that holds
    one."""
    for lo in range(0, V.shape[0], rows):
        block = V[lo:lo + rows]
        if block.any():
            return lo + int(np.argmax(block.any(axis=1)))
    return V.shape[0]


def indicator_field(sigma: CircleMeasure, m: int, M: int) -> EigenField:
    """Field whose vectors are the raw arc indicators chi(lambda_j).  A node
    whose arc holds no grid node (angle 0, or past the last node) has no
    indicator to be an eigenvector and raises DegenerateAngleError."""
    angles, weights = np.array(quantize(sigma, m), dtype=float).T
    vectors = arc_indicators(angles, M).astype(complex)
    empty = np.flatnonzero(~vectors.any(axis=0))
    if empty.size:
        j = int(empty[0])
        raise DegenerateAngleError(
            f"node {j} at angle {float(angles[j])!r} has an arc holding no node "
            f"of grid {M}")
    return EigenField(angles, weights, vectors, sigma, kind="indicator")


def corrected_field(sigma: CircleMeasure, m: int, M: int) -> EigenField:
    """Field with node angles snapped to the grid and one batch of exact
    eigenvectors, each rescaled to its arc indicator's norm (the constant
    1's for an arc holding no node) and phase-aligned with it, so
    magnitudes match the indicator field at round-off residual."""
    nodes, masses = np.array(quantize(sigma, m), dtype=float).T
    ks, slot = np.unique(nearest_grid_index(nodes, M), return_inverse=True)
    weights = np.bincount(slot, weights=masses)  # nodes sharing a k merge
    angles = grid_angles(M)[ks]
    vectors = exact_eigenvectors(ks, M)
    ref = arc_indicators(angles, M)
    ref[:, ~ref.any(axis=0)] = True
    overlap = (TWO_PI / M) * np.sum(vectors, axis=0, where=ref)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.ones_like(overlap), where=size > 0)
    norms = np.empty((2, ks.size))
    for lo in range(0, ks.size, _GROUP_COLUMNS):
        # numpy sums one column pairwise but several in sequence, as over
        # the whole array, so a lone last column is normed beside the one
        # before it: the norms keep the whole array's bits
        cols = slice(min(lo, max(ks.size - 2, 0)), lo + _GROUP_COLUMNS)
        # an indicator's squared norm is (2pi/M) times its count of nodes
        norms[0, cols] = np.sqrt((TWO_PI / M) * np.count_nonzero(ref[:, cols], axis=0))
        norms[1, cols] = grid_norms(vectors[:, cols])
    vectors *= (norms[0] / norms[1]) / phase
    return EigenField(angles, weights, vectors, sigma, kind="corrected")


@dataclass(frozen=True)
class GaussModel:
    """Factor matrix A (grid x nodes, column j = sqrt(w_j) E_j), the cached
    Gram A* A and the field's node data: the node angles lambda_j give the
    diagonal D = e^{i lambda_j}."""

    factor: np.ndarray
    gram: np.ndarray = dataclass_field(repr=False)
    angles: np.ndarray
    weights: np.ndarray
    source_measure: CircleMeasure
    kind: str  # the field's kind

    @property
    def grid_size(self) -> int:
        return int(self.factor.shape[0])

    @property
    def node_count(self) -> int:
        return int(self.factor.shape[1])

    def covariance_frobenius(self) -> float:
        return float(np.sqrt(np.trace(self.gram @ self.gram).real))

    def functional_coefficients(self, xstar: CircleFunction) -> np.ndarray:
        """Coordinates c with <x*, A g> = c . g; c_j = sqrt(w_j)<x*, E_j>."""
        return next(_orbit_coefficients(self, xstar, 0))

    def to_manifest(self) -> dict:
        return {
            "schema": "gauss-model/1",
            "sigma": self.source_measure.to_dict(),
            "nodes": np.column_stack([self.angles, self.weights]).tolist(),
            "grid": self.grid_size,
            "field_kind": self.kind,
            "seed_policy": "sha256-labeled-streams",
        }


def build_model(field: EigenField) -> GaussModel:
    """Assemble the factor and Gram of an admissible field: its
    worst eigen residual is at most 0.05."""
    worst = float(np.max(field.residuals()))
    if not worst <= 0.05:
        raise FieldAdmissibilityError(f"worst eigen residual {worst:.3e} exceeds 0.05")
    factor = field.vectors * np.sqrt(field.weights)
    return GaussModel(
        factor=factor,
        gram=_gram(factor, factor)[0],
        angles=field.angles,
        weights=field.weights,
        source_measure=field.source_measure,
        kind=field.kind,
    )


def _residual_factor(model: GaussModel, transport: Transport) -> np.ndarray:
    """E = T A - A D under the transport, None the grid T, formed in place
    in the transport's output one row block at a time, through one
    block-sized scratch; an output that may share memory with A is
    copied first, so the model's factor is never written."""
    A = model.factor
    E = (apply_T_array if transport is None else transport)(A)
    if E.shape != A.shape:
        raise GridMismatchError("transport output shape does not match the factor")
    if np.may_share_memory(E, A):
        E = E.copy()
    E = np.require(E, complex, ("C", "W"))
    rows = _block_rows(A.shape)
    scratch = np.empty((min(rows, A.shape[0]), A.shape[1]), dtype=complex)
    diag = np.exp(1j * model.angles)
    for lo in range(0, A.shape[0], rows):
        E[lo:lo + rows] -= np.multiply(A[lo:lo + rows], diag, out=scratch[:A.shape[0] - lo])
    return E


def _intertwine(EE: np.ndarray, model: GaussModel) -> float:
    """||E||_F / ||A||_F from the traces of the Grams E* E and A* A."""
    return float(np.sqrt(np.trace(EE).real / np.trace(model.gram).real))


def _column_tops(X: np.ndarray) -> np.ndarray:
    """Each column's top: the first nonzero row of its _GROUP_COLUMNS
    group, lowered to the smallest top of the groups after it, so the
    tops never decrease and the columns that may be nonzero in a row are
    a prefix.  A group with no nonzero entry starts at the row count."""
    rows = _block_rows(X.shape)
    tops = np.array([_first_nonzero_row(X[:, lo:lo + _GROUP_COLUMNS], rows)
                     for lo in range(0, X.shape[1], _GROUP_COLUMNS)], dtype=int)
    tops = np.minimum.accumulate(tops[::-1])[::-1]
    return np.repeat(tops, _GROUP_COLUMNS)[:X.shape[1]]


def _bands(n: int, tops_x: np.ndarray, tops_y: np.ndarray) -> list:
    """The band plan of X* Y for n rows and the column tops of X and Y:
    (lo, hi, cx, cy) for each band of rows lo:hi between consecutive cuts
    at the tops, where X's first cx and Y's first cy columns may be
    nonzero; a band where either prefix is empty is left out."""
    cuts = np.sort(np.concatenate(([0, n], tops_x, tops_y)))
    lows, highs = cuts[:-1], cuts[1:]
    widths = zip(np.searchsorted(tops_x, lows, "right"), np.searchsorted(tops_y, lows, "right"))
    return [(int(lo), int(hi), int(cx), int(cy))
            for lo, hi, (cx, cy) in zip(lows, highs, widths) if hi > lo and cx and cy]


def _gram(X: np.ndarray, *Ys) -> list:
    """X* Y for each of Ys, from the (n, m) X, through the float views of
    the operands: n x 2m, real and imaginary parts in alternate columns.
    The rows are cut into _bands at the operands' column tops, and each
    band multiplies only the float-view column prefixes that may be
    nonzero there, slices of the views accumulated into one 2m x 2m float
    G: one dgemm per band, one dsyrk when Y is X, which numpy makes
    exactly symmetric, as is their sum, so X* X is exactly Hermitian with
    a real diagonal.  An operand with no zero prefix is one band, the
    whole product.  An operand that is not C-contiguous complex is copied."""
    R, tops_x = _float_view(X)
    out = []
    for Y in Ys:
        S, tops_y = (R, tops_x) if Y is X else _float_view(Y)
        G = np.zeros((R.shape[1], S.shape[1]))
        for lo, hi, cx, cy in _bands(R.shape[0], tops_x, tops_y):
            x = R[lo:hi, :2 * cx]
            G[:2 * cx, :2 * cy] += x.T @ (x if S is R else S[lo:hi, :2 * cy])
        out.append((G[0::2, 0::2] + G[1::2, 1::2]) + 1j * (G[0::2, 1::2] - G[1::2, 0::2]))
    return out


def _float_view(X: np.ndarray) -> tuple:
    """The float view of X as a C-contiguous complex array, and its column tops."""
    X = np.ascontiguousarray(X, dtype=complex)
    return X.view(float), _column_tops(X)


def intertwine_residual(model: GaussModel, transport: Transport = None) -> float:
    """||T A - A D||_F / ||A||_F: how far the field is from genuinely
    diagonalizing the dynamics."""
    E = _residual_factor(model, transport)
    return _intertwine(_gram(E, E)[0], model)


def _draws(label: str, seeds, shape: tuple, kind: str = "complex") -> Iterator:
    """The draw of the given shape from stream label under each of seeds,
    in order, of its kind: "complex" unit symmetric complex Gaussians,
    "real" the symmetry control's real ones, or "bartlett" the Bartlett
    factor (_bartlett) of the (m, S) complex draw.  The count, shape[-1],
    is checked here, at the call: an integer (not a bool) >= 1."""
    _require_integer(shape[-1], "count")
    if shape[-1] < 1:
        raise ValueError(f"count must be >= 1, got {shape[-1]}")
    rngs = (rng_for(seed, label) for seed in seeds)
    if kind == "real":
        return (rng.standard_normal(shape) for rng in rngs)
    if kind == "bartlett":
        return (_bartlett(rng, *shape) for rng in rngs)
    return (complex_standard_normal(rng, shape) for rng in rngs)


def _require_integer(value, what: str) -> None:
    """Reject a value that is not an integer, a bool included."""
    if not _is_number(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _bartlett(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    """The (m, r) lower-trapezoidal L, r = min(m, count), with L L* of the
    law of G G* for the (m, count) unit complex draw G (the complex
    Bartlett decomposition): the strictly lower entries, row by row, are
    one unit complex draw, then L_kk = sqrt(Gamma(count - k)), the squared
    norm of row k of G off the rows before it.  Rows k >= count hold no
    diagonal: there G G* has rank count."""
    r = min(m, count)
    L = np.zeros((m, r), dtype=complex)
    below = np.tri(m, r, -1, dtype=bool)
    L[below] = complex_standard_normal(rng, (int(np.count_nonzero(below)),))
    k = np.arange(r)
    L[k, k] = np.sqrt(rng.standard_gamma(count - k))
    return L


def _pair(a: np.ndarray, b: np.ndarray, Z: np.ndarray) -> tuple:
    """(a . g, b . g) in law, for g of independent unit Gaussians (complex
    or real, like Z), from the rows of the (2, S) draw Z through the
    lower-triangular L = [[l00, 0], [l10, l11]] with L L* the pair's Gram:
    l00 = ||a||, l10 = sum conj(a_j) b_j / l00 and l11 the norm of b's
    part off a, which is sqrt(||b||^2 - |l10|^2) without the cancellation
    that leaves sqrt(round-off) where b is parallel to a (n = 0 and n = M
    of the coefficient table).  A zero a gives a zero first column.  Only
    elementwise products and sums, no BLAS."""
    norm_sq = np.sum(np.abs(a) ** 2)
    along = np.sum(np.conj(a) * b) / norm_sq if norm_sq > 0 else 0.0
    l00 = np.sqrt(norm_sq)
    l11 = np.sqrt(np.sum(np.abs(b - along * a) ** 2))
    return l00 * Z[0], (along * l00) * Z[0] + l11 * Z[1]


def sample(model: GaussModel, count: int, seed: int) -> list:
    """count independent draws x = A g as CircleFunctions."""
    X = model.factor @ next(_draws("gauss-samples", [seed], (model.node_count, count)))
    return [CircleFunction(X[:, s].copy(), model.grid_size) for s in range(count)]


@dataclass(frozen=True)
class SymmetryReport:
    second_moment: complex
    second_moment_threshold: float
    re_im_correlation: float
    correlation_threshold: float
    variance: float
    analytic_variance: float
    samples: int
    seed: int
    passed: bool

    def to_dict(self) -> dict:
        return record_dict(self, check="symmetry")


def symmetry_check(model: GaussModel, xstar: CircleFunction, count: int,
                   seed: int, sampler: str = "symmetric") -> SymmetryReport:
    """Law-level check that zeta = <x*, x> is a centered symmetric complex
    Gaussian: the pseudo-moment E[zeta^2] and the Re/Im correlation must
    both sit within 3 standard errors of zero.  sampler="real" swaps in
    a deliberately broken real-Gaussian coordinate draw (negative
    control; the pseudo-moment then picks up a nonzero mean).  The
    symmetric sampler draws zeta = ||c|| z from one unit complex row, the
    real control (Re zeta, Im zeta) = _pair(Re c, Im c) from two real
    rows, the law of c . u for real coordinates u.  The Re/Im
    correlation needs at least 2 draws."""
    real = sampler == "real"
    Z = next(_draws("symmetry-check", [seed], (2 if real else 1, count),
                    "real" if real else "complex"))
    if count < 2:
        raise ValueError(f"symmetry check needs count >= 2 draws, got {count}")
    if sampler not in ("symmetric", "real"):
        raise ValueError(f"unknown sampler {sampler!r}")
    c = model.functional_coefficients(xstar)
    analytic_var = float(np.sum(np.abs(c) ** 2))
    if analytic_var <= 1e-24:
        raise DegenerateFunctionalError("functional annihilates the model range")
    if real:
        re, im = _pair(c.real, c.imag, Z)
        zeta = re + 1j * im
    else:
        zeta = np.sqrt(analytic_var) * Z[0]
    sq = zeta**2
    second = complex(np.mean(sq))
    se_second = float(np.sqrt(np.mean(np.abs(sq - second) ** 2) / count))
    corr = float(np.corrcoef(zeta.real, zeta.imag)[0, 1])
    corr_threshold = 3.0 / np.sqrt(count)
    second_threshold = 3.0 * se_second
    passed = abs(second) <= second_threshold and abs(corr) <= corr_threshold
    return SymmetryReport(
        second_moment=second,
        second_moment_threshold=second_threshold,
        re_im_correlation=corr,
        correlation_threshold=corr_threshold,
        variance=float(np.mean(np.abs(zeta) ** 2)),
        analytic_variance=analytic_var,
        samples=count,
        seed=seed,
        passed=bool(passed),
    )


@dataclass(frozen=True)
class InvarianceReport:
    cov_distance: float
    exact_distance: float
    intertwine: float
    budget: float
    samples: int
    seed: int
    passed: bool

    def to_dict(self) -> dict:
        return record_dict(self, check="invariance")


def invariance_check(model: GaussModel, transport: Transport = None,
                     count: int = 10_000, seed: int = 0) -> InvarianceReport:
    """Pushforward-invariance of the Gaussian law: the empirical
    covariance of {T x_s} must match R.  The distance is computed
    exactly in Gram form; the pass budget is the statistical tolerance
    0.05 plus the intertwining residual of the model's grid T (the part of
    the distance the discretization owes, not the sampler).  The report's
    intertwine is the transport's own, which never widens the budget that
    judges it; for the grid T (transport None) T A is formed once for both.
    The check forms E = T A - A D in place of T A and takes E* E and E* A
    through _gram; with B = T A = A D + E, the blocks of the Gram P of
    W = [B, A] are m x m products: B* A = D* (A* A) + E* A and B* B =
    D* (A* A) D + D* (A* E) + (E* A) D + E* E, with the model's cached
    A* A, so neither B nor W is ever built.  The empirical covariance
    G G*/S of the (m, S) coordinates G is L L*/S of their m x min(m, S)
    Bartlett factor L, so G itself is never drawn.  exact_distance is
    ||B B* - A A*||_F / ||A A*||_F, from the same Grams and no draw:
    B B* - A A* = [A D, E] [E, B]*, so its square is tr(Gram[A D, E]
    Gram[E, B]), whose every term is of order ||E||^2, with no
    cancellation of order ||A||^4; it is reported and judges nothing.
    intertwine is sqrt(tr(E* E)) / ||A||_F."""
    draws = _draws("invariance-check", [seed], (model.node_count, count), "bartlett")
    E = _residual_factor(model, transport)
    EE, EA = _gram(E, E, model.factor)
    del E
    intertwine = _intertwine(EE, model)
    m, AA, d = model.node_count, model.gram, np.exp(1j * model.angles)
    EAd = EA * d  # (E* A) D
    DAD = d.conj()[:, None] * (AA * d)  # D* (A* A) D
    P = np.empty((2 * m, 2 * m), dtype=complex)  # the Gram of W = [B, A]
    P[:m, :m] = DAD + (EAd + EAd.conj().T) + EE
    P[:m, m:] = d.conj()[:, None] * AA + EA
    P[m:, :m] = P[:m, m:].conj().T
    P[m:, m:] = AA
    # tr(Gram[A D, E] Gram[E, B]) by blocks, with E* B = (E* A) D + E* E
    exact_sq = (np.vdot(EE, DAD + P[:m, :m]) + 2 * np.sum(EAd * (EAd + EE).T)).real
    del EE, EA, EAd, DAD
    L = next(draws)
    Lt = L.T  # r x m, not contiguous: _gram copies it once
    Ghat = _gram(Lt, Lt)[0].conj() / count  # L L* = conj((L^T)* L^T)
    S = np.zeros((2 * m, 2 * m), dtype=complex)
    S[:m, :m] = Ghat
    S[m:, m:] = -np.eye(m)
    SP = S @ P
    dist_sq = float(np.trace(SP @ SP).real)
    r_norm = model.covariance_frobenius()
    cov_distance = float(np.sqrt(max(dist_sq, 0.0)) / r_norm)
    grid_debt = intertwine if transport is None else intertwine_residual(model)
    budget = 0.05 + grid_debt  # the statistical tolerance, then the grid's debt
    return InvarianceReport(
        cov_distance=cov_distance,
        exact_distance=float(np.sqrt(max(exact_sq, 0.0)) / r_norm),
        intertwine=intertwine,
        budget=float(budget),
        samples=count,
        seed=seed,
        passed=bool(cov_distance <= budget),
    )


def matrix_coefficient_analytic(model: GaussModel, xstar: CircleFunction,
                                n: int) -> complex:
    """c(n) = sum_j w_j e^{i n lambda_j} |e_j|^2 with e_j = <x*, E_j>: the
    n-th Fourier coefficient of the functional's spectral measure."""
    return _analytic(model, model.functional_coefficients(xstar), n)


def _analytic(model: GaussModel, c0: np.ndarray, n: int) -> complex:
    """matrix_coefficient_analytic from x*'s coordinates c0 against A."""
    phases = np.exp(1j * n * model.angles)
    return complex(np.sum(phases * np.abs(c0) ** 2))


def _orbit_coefficients(model: GaussModel, xstar: CircleFunction,
                        n: int) -> Iterator:
    """Coordinates (2pi/M) A^T y_k of x* against T^k A for k = 0..n, in
    order, from the walk y_k = (T^T)^k conj(x*), which holds one M-vector;
    the grid and n are checked at the call, a negative n by walk."""
    if xstar.grid_size != model.grid_size:
        raise GridMismatchError("functional grid does not match the model")
    A, scale = model.factor, TWO_PI / model.grid_size
    powers = walk(apply_T_transpose, np.conj(xstar.values), n, np.linalg.norm)
    return (scale * (A.T @ y) for y in powers)


@dataclass(frozen=True)
class CoefficientEstimate:
    value: complex
    standard_error: float
    power: int
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return record_dict(self, check="matrix-coefficient")


def _coefficient_estimate(c0: np.ndarray, cn: np.ndarray, n: int,
                          Z: np.ndarray, seed: int) -> CoefficientEstimate:
    """(1/S) sum_s (cn . g_s) conj(c0 . g_s), the pair drawn by _pair
    from the (2, S) draw Z of seed's stream."""
    count = Z.shape[1]
    y0, yn = _pair(c0, cn, Z)
    prods = yn * np.conj(y0)
    value = complex(np.mean(prods))
    se = float(np.sqrt(np.mean(np.abs(prods - value) ** 2) / count))
    return CoefficientEstimate(value=value, standard_error=se, power=int(n),
                               samples=count, seed=seed)


def matrix_coefficient_mc(model: GaussModel, xstar: CircleFunction, n: int,
                          count: int, seed: int) -> CoefficientEstimate:
    """Monte-Carlo Koopman coefficient (1/S) sum_s <x*, T^n x_s>
    conj(<x*, x_s>), evaluated in coefficient space, from x*'s coordinates
    against A and T^n A, so no grid-sized sample batch is ever formed."""
    coeffs = list(_orbit_coefficients(model, xstar, n))
    Z = next(_draws(_MC_STREAM, [seed], (2, count)))
    return _coefficient_estimate(coeffs[0], coeffs[-1], n, Z, seed)


def coefficient_rows(model: GaussModel, xstar: CircleFunction, max_power: int,
                     samples: int, seed: int, label: str) -> list:
    """(n, analytic, Monte-Carlo estimate, spectral-measure transform) of
    the matrix coefficient for n = 0..max_power, from one walk of the
    M-vector (T^T)^n conj(x*); the estimate at power n draws from
    derive_seed(seed, label + str(n))."""
    coeffs = list(_orbit_coefficients(model, xstar, max_power))
    c0 = coeffs[0]
    band = fourier_band(_spectral_measure(model, c0), max_power).tolist()[max_power:]
    seeds = [derive_seed(seed, f"{label}{n}") for n in range(max_power + 1)]
    draws = _draws(_MC_STREAM, seeds, (2, samples))
    return [(n, _analytic(model, c0, n),
             _coefficient_estimate(c0, cn, n, next(draws), s), sf)
            for n, (cn, sf, s) in enumerate(zip(coeffs, band, seeds))]


def spectral_measure_of_functional(model: GaussModel,
                                   xstar: CircleFunction) -> CircleMeasure:
    """Atomic measure sum_j w_j |e_j|^2 delta_{lambda_j}; its Fourier
    coefficients reproduce matrix_coefficient_analytic exactly."""
    return _spectral_measure(model, model.functional_coefficients(xstar))


def _spectral_measure(model: GaussModel, c0: np.ndarray) -> CircleMeasure:
    """spectral_measure_of_functional from x*'s coordinates c0 against A."""
    masses = np.abs(c0) ** 2
    bins = model.source_measure.bins
    atoms = [(float(a), float(m)) for a, m in zip(model.angles, masses)]
    return CircleMeasure.from_parts(bins, atoms=atoms)
