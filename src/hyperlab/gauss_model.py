"""Gaussian models driven by a quantized eigenvector field.

A spectral probability measure sigma on the circle is quantized into m
nodes (lambda_j, w_j); each node carries an eigenvector-like function
E_j for the Kalish operator, stored as column j of one (M, m) matrix.
The factor A has columns sqrt(w_j) E_j, the covariance is R = A A*, and
samples are x = A g with g a vector of independent standard symmetric
complex Gaussians (E g = 0, E|g|^2 = 1, E g^2 = 0).

All covariance comparisons run through Gram matrices: for W with m-ish
columns and Hermitian S, ||W S W*||_F^2 = tr(S P S P) with P = W* W, so
nothing M x M is ever materialized; sigma_min(A) comes from the Gram too.
Sampling draws only the m x S coefficients, and each check forms T A once.

Two field constructions are provided.  indicator_field uses the arc
indicators chi(lambda_j) verbatim (first-order eigen residual, decaying
with the grid).  corrected_field snaps each node angle to the nearest
grid angle and builds the exact discrete eigenvector by forward
substitution, which drives the intertwining residual to round-off; the
snap moves each node by at most pi/M and is recorded on the field.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import Callable, Union

import numpy as np

from .circle_measure import CircleMeasure, NotProbabilityError, total_mass
from .jsonio import check_schema
from .kalish import (
    CircleFunction,
    GridMismatchError,
    apply_T,  # noqa: F401 - kept bound: perfbench patches every binding
    apply_T_array,
    chi,
    exact_eigenvector,
    func_norm,
    grid_angles,
    grid_norms,
    inner_product,
    kalish_solve_array,
    nearest_grid_index,
)
from .seeding import complex_standard_normal, rng_for

TWO_PI = 2.0 * np.pi

Transport = Union[np.ndarray, Callable[[np.ndarray], np.ndarray], None]


class FieldAdmissibilityError(ValueError):
    """Eigenvector residuals exceed the admissibility threshold."""


class DegenerateFunctionalError(ValueError):
    """Functional has (numerically) zero variance on the model."""


class NormDriftError(RuntimeError):
    """Orbit norm exploded; the discretization no longer tracks T^n."""


def _require_probability(sigma: CircleMeasure) -> None:
    mass = total_mass(sigma)
    if abs(mass - 1.0) > 1e-9:
        raise NotProbabilityError(f"total mass {mass!r} is not 1 within 1e-9")


def quantize(sigma: CircleMeasure, m: int) -> list:
    """Nodes (angle, weight) for a probability measure: atoms verbatim,
    density split into equal-mass cells with each node at the cell's
    exact mass centroid (the density is piecewise constant, so centroid
    integrals are closed-form per bin fragment)."""
    _require_probability(sigma)
    if m < 1:
        raise ValueError("node count must be >= 1")
    atoms = sigma.atoms()
    if m < len(atoms):
        raise ValueError(
            f"node count {m} is smaller than the atom count {len(atoms)}"
        )
    nodes = [(float(a), float(mass)) for a, mass in atoms]
    dmass = sigma.density_mass
    cells = m - len(atoms)
    if dmass > 1e-12:
        if cells == 0:
            raise ValueError(
                "no nodes left for the density part; increase the node count"
            )
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
                        # angle is linear in mass inside a constant bin
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
        if np.any(np.diff(np.sort(self.angles)) <= 1e-12):
            raise ValueError("node angles must be distinct")
        total = float(np.sum(self.weights))
        if abs(total - total_mass(self.source_measure)) > 1e-9:
            raise ValueError(
                "node weights must sum to the source measure's total mass"
            )

    @property
    def node_count(self) -> int:
        return int(self.angles.size)

    @property
    def grid_size(self) -> int:
        return int(self.vectors.shape[0])

    def nodes(self) -> list:
        return list(zip(self.angles.tolist(), self.weights.tolist()))

    def residuals(self) -> np.ndarray:
        """Relative eigen residual of each vector at its node angle."""
        R = apply_T_array(self.vectors)
        R -= self.vectors * np.exp(1j * self.angles)
        return grid_norms(R) / grid_norms(self.vectors)


def indicator_field(sigma: CircleMeasure, m: int, M: int) -> EigenField:
    """Field whose vectors are the raw arc indicators chi(lambda_j), chi(0) = 0."""
    angles, weights = np.array(quantize(sigma, m), dtype=float).T
    vectors = ((grid_angles(M)[:, None] > angles) & (angles > 0.0)).astype(complex)
    return EigenField(angles, weights, vectors, sigma, kind="indicator")


def corrected_field(sigma: CircleMeasure, m: int, M: int) -> EigenField:
    """Field with node angles snapped to the grid and exact discrete
    eigenvectors, each rescaled to the matching arc indicator's norm and
    phase-aligned with it, so magnitudes stay comparable to the
    indicator field while the intertwining residual drops to round-off."""
    nodes = quantize(sigma, m)
    snapped = {}
    for a, w in nodes:
        k = nearest_grid_index(a, M)
        snapped[k] = snapped.get(k, 0.0) + w
    ks = sorted(snapped)
    t = grid_angles(M)
    angles = np.asarray([t[k] for k in ks])
    weights = np.asarray([snapped[k] for k in ks])
    vectors = np.empty((M, len(ks)), dtype=complex)
    for j, k in enumerate(ks):
        v = exact_eigenvector(k, M)
        ref = chi(t[k], M)
        if func_norm(ref) == 0.0:
            ref = CircleFunction.constant(1.0, M)
        overlap = inner_product(ref, v)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        vectors[:, j] = v.values * (func_norm(ref) / func_norm(v)) / phase
    return EigenField(angles, weights, vectors, sigma, kind="corrected")


@dataclass(frozen=True)
class GaussModel:
    """Factor matrix A (grid x nodes, column j = sqrt(w_j) E_j), diagonal
    D = e^{i lambda_j}, and cached Gram data for covariance checks."""

    field: EigenField
    factor: np.ndarray
    diag: np.ndarray
    gram: np.ndarray = dataclass_field(repr=False, default=None)
    smallest_singular: float = 0.0

    @property
    def grid_size(self) -> int:
        return int(self.factor.shape[0])

    @property
    def node_count(self) -> int:
        return int(self.factor.shape[1])

    def covariance(self) -> np.ndarray:
        """Dense R = A A*.  Only for small grids; checks use the Gram."""
        return self.factor @ self.factor.conj().T

    def covariance_frobenius(self) -> float:
        return float(np.sqrt(np.trace(self.gram @ self.gram).real))

    def functional_coefficients(self, xstar: CircleFunction) -> np.ndarray:
        """Coordinates c with <x*, A g> = c . g; c_j = sqrt(w_j)<x*, E_j>."""
        return _grid_coefficients(self.factor, xstar)

    def functional_variance(self, xstar: CircleFunction) -> float:
        return float(np.sum(np.abs(self.functional_coefficients(xstar)) ** 2))

    def to_manifest(self, seed_policy: str = "sha256-labeled-streams") -> dict:
        return {
            "schema": "gauss-model/1",
            "sigma": self.field.source_measure.to_dict(),
            "nodes": [[float(a), float(w)] for a, w in self.field.nodes()],
            "grid": self.grid_size,
            "field_kind": self.field.kind,
            "seed_policy": seed_policy,
        }


def _grid_coefficients(B: np.ndarray, xstar: CircleFunction) -> np.ndarray:
    """Grid inner products (2pi/M) B^T conj(x*) of x* with B's columns."""
    if xstar.grid_size != B.shape[0]:
        raise GridMismatchError("functional grid does not match the model")
    return (TWO_PI / B.shape[0]) * (B.T @ np.conj(xstar.values))


def build_model(field: EigenField, residual_threshold: float = 0.05) -> GaussModel:
    """Assemble the factor and diagonal, checking field admissibility."""
    worst = float(np.max(field.residuals()))
    if worst > residual_threshold:
        raise FieldAdmissibilityError(
            f"worst eigen residual {worst:.3e} exceeds {residual_threshold}"
        )
    factor = field.vectors * np.sqrt(field.weights)
    gram = factor.conj().T @ factor
    smallest = np.sqrt(max(np.linalg.eigvalsh(gram)[0], 0.0))  # lambda_min = sigma_min^2
    return GaussModel(
        field=field,
        factor=factor,
        diag=np.exp(1j * field.angles),
        gram=gram,
        smallest_singular=float(smallest),
    )


def model_from_manifest(doc: dict, residual_threshold: float = 0.05) -> GaussModel:
    check_schema(doc, "gauss-model")
    sigma = CircleMeasure.from_dict(doc["sigma"])
    M = int(doc["grid"])
    kind = doc.get("field_kind", "corrected")
    m = len(doc["nodes"])
    if kind == "corrected":
        field = corrected_field(sigma, m, M)
    elif kind == "indicator":
        field = indicator_field(sigma, m, M)
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    return build_model(field, residual_threshold)


def _transport_matvec(transport: Transport, X: np.ndarray) -> np.ndarray:
    """Apply the forward dynamics to the columns of X."""
    if transport is None:
        return apply_T_array(X)
    if callable(transport):
        return transport(X)
    return np.asarray(transport) @ X


def _intertwine(model: GaussModel, TA: np.ndarray) -> float:
    """||T A - A D||_F / ||A||_F from an already transported factor."""
    A = model.factor
    if TA.shape != A.shape:
        raise GridMismatchError("transport output shape does not match the factor")
    num = np.linalg.norm(TA - A * model.diag[None, :])
    return float(num / np.linalg.norm(A))


def intertwine_residual(model: GaussModel, transport: Transport = None) -> float:
    """||T A - A D||_F / ||A||_F: how far the field is from genuinely
    diagonalizing the dynamics."""
    return _intertwine(model, _transport_matvec(transport, model.factor))


def sample(model: GaussModel, count: int, seed: int) -> list:
    """count independent draws x = A g as CircleFunctions."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng_for(seed, "gauss-samples")
    G = complex_standard_normal(rng, (model.node_count, count))
    X = model.factor @ G
    M = model.grid_size
    return [CircleFunction(X[:, s].copy(), M) for s in range(count)]


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
        return {
            "check": "symmetry",
            "second_moment": [self.second_moment.real, self.second_moment.imag],
            "second_moment_threshold": self.second_moment_threshold,
            "re_im_correlation": self.re_im_correlation,
            "correlation_threshold": self.correlation_threshold,
            "variance": self.variance,
            "analytic_variance": self.analytic_variance,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
        }


def symmetry_check(model: GaussModel, xstar: CircleFunction, count: int,
                   seed: int, sampler: str = "symmetric") -> SymmetryReport:
    """Law-level check that zeta = <x*, x> is a centered symmetric complex
    Gaussian: the pseudo-moment E[zeta^2] and the Re/Im correlation must
    both sit within 3 standard errors of zero.  sampler="real" swaps in
    a deliberately broken real-Gaussian coordinate draw (negative
    control; the pseudo-moment then picks up a nonzero mean)."""
    c = model.functional_coefficients(xstar)
    analytic_var = float(np.sum(np.abs(c) ** 2))
    if analytic_var <= 1e-24:
        raise DegenerateFunctionalError("functional annihilates the model range")
    rng = rng_for(seed, "symmetry-check")
    if sampler == "symmetric":
        G = complex_standard_normal(rng, (model.node_count, count))
    elif sampler == "real":
        G = rng.standard_normal((model.node_count, count)).astype(complex)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    zeta = c @ G
    sq = zeta**2
    second = complex(np.mean(sq))
    se_second = float(np.sqrt(np.mean(np.abs(sq - second) ** 2) / count))
    re, im = zeta.real, zeta.imag
    corr = float(np.corrcoef(re, im)[0, 1])
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
    intertwine: float
    budget: float
    samples: int
    seed: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": "invariance",
            "cov_distance": self.cov_distance,
            "intertwine": self.intertwine,
            "budget": self.budget,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
        }


def invariance_check(model: GaussModel, transport: Transport = None,
                     count: int = 10_000, seed: int = 0,
                     statistical_tolerance: float = 0.05) -> InvarianceReport:
    """Pushforward-invariance of the Gaussian law: the empirical
    covariance of {T x_s} must match R.  The distance is computed
    exactly in Gram form; the pass budget is the statistical tolerance
    plus the model's intertwining residual (the part of the distance the
    discretization owes, not the sampler); T A is formed once for both."""
    A = model.factor
    B = _transport_matvec(transport, A)
    intertwine = _intertwine(model, B)
    rng = rng_for(seed, "invariance-check")
    G = complex_standard_normal(rng, (model.node_count, count))
    Ghat = (G @ G.conj().T) / count
    m = model.node_count
    W = np.concatenate([B, A], axis=1)
    P = W.conj().T @ W
    S = np.zeros((2 * m, 2 * m), dtype=complex)
    S[:m, :m] = Ghat
    S[m:, m:] = -np.eye(m)
    SP = S @ P
    dist_sq = float(np.trace(SP @ SP).real)
    r_norm = model.covariance_frobenius()
    cov_distance = float(np.sqrt(max(dist_sq, 0.0)) / r_norm)
    budget = statistical_tolerance + intertwine
    return InvarianceReport(
        cov_distance=cov_distance,
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
    c = model.functional_coefficients(xstar)
    phases = np.exp(1j * n * model.field.angles)
    return complex(np.sum(phases * np.abs(c) ** 2))


def _orbit_coefficients(model: GaussModel, xstar: CircleFunction, n: int,
                        transport: Transport) -> np.ndarray:
    """Coordinates of x* against the transported factor T^n A."""
    if n >= 0:
        one_step = partial(_transport_matvec, transport)
    elif transport is None:
        one_step = kalish_solve_array
    elif callable(transport):
        raise ValueError("negative powers need a matrix or the default grid operator")
    else:
        one_step = partial(np.linalg.solve, np.asarray(transport))
    B = model.factor
    start_norm = np.linalg.norm(B)
    for _ in range(abs(int(n))):
        B = one_step(B)
        if np.linalg.norm(B) > 1e3 * start_norm:
            raise NormDriftError(
                f"orbit norm exceeded 1e3 x start while reaching power {n}"
            )
    return _grid_coefficients(B, xstar)


@dataclass(frozen=True)
class CoefficientEstimate:
    value: complex
    standard_error: float
    power: int
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "check": "matrix-coefficient",
            "value": [self.value.real, self.value.imag],
            "standard_error": self.standard_error,
            "power": self.power,
            "samples": self.samples,
            "seed": self.seed,
        }


def matrix_coefficient_mc(model: GaussModel, xstar: CircleFunction, n: int,
                          count: int, seed: int,
                          transport: Transport = None) -> CoefficientEstimate:
    """Monte-Carlo Koopman coefficient (1/S) sum_s <x*, T^n x_s>
    conj(<x*, x_s>), evaluated in coefficient space against the
    transported factor so no grid-sized sample batch is ever formed."""
    c0 = model.functional_coefficients(xstar)
    cn = _orbit_coefficients(model, xstar, n, transport)
    rng = rng_for(seed, "matrix-coefficient-mc")
    G = complex_standard_normal(rng, (model.node_count, count))
    zeta0 = c0 @ G
    zetan = cn @ G
    prods = zetan * np.conj(zeta0)
    value = complex(np.mean(prods))
    se = float(np.sqrt(np.mean(np.abs(prods - value) ** 2) / count))
    return CoefficientEstimate(value=value, standard_error=se, power=int(n),
                               samples=count, seed=seed)


def spectral_measure_of_functional(model: GaussModel,
                                   xstar: CircleFunction) -> CircleMeasure:
    """Atomic measure sum_j w_j |e_j|^2 delta_{lambda_j}; its Fourier
    coefficients reproduce matrix_coefficient_analytic exactly."""
    c = model.functional_coefficients(xstar)
    masses = np.abs(c) ** 2
    bins = model.field.source_measure.bins
    atoms = [(float(a), float(m)) for a, m in zip(model.field.angles, masses)]
    return CircleMeasure.from_parts(bins, atoms=atoms)
