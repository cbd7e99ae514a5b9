"""The Kalish operator T = M - J on a uniform circle grid.

Functions live on the grid t_j = 2pi*j/M.  M multiplies pointwise by
e^{i t_j}; J is the complex line integral along the counterclockwise arc
from angle 0 to the evaluation point, discretized by the left-endpoint
rule with line element i e^{i t} dt.  The grid inner product is the
arc-length one, <f, g> = (2pi/M) sum conj(f_j) g_j; grid_norms is the
one home of its norm, over whichever axis of an array holds the grid.

Arc-indicator convention (calibrated, do not flip casually): chi(lam) is
1 exactly at the grid nodes with t_j > lam, i.e. the open arc running
counterclockwise from lam back to angle 0.  Sampling the indicator at
the nodes themselves (rather than asking whether a node's bin center is
inside the arc) is what makes the eigen residual decay first order under
grid doubling; the bin-center variant stalls near ratio 1 and fails the
calibration, so the node convention wins.  chi(0) is pinned to the zero
function (degenerate arc).

On the grid T is lower triangular with unimodular diagonal e^{i t_j},
so its exact spectrum is the set of M-th roots of unity and T^M = I in
exact arithmetic.

Batches: apply_T_array and kalish_solve_array take values of shape (M,)
or (M, k), one function per column, and work along axis 0, holding one
(M, k) temporary besides the output.  apply_T and kalish_solve wrap them
for a CircleFunction; callers holding arrays call the kernels directly.

Solving: row k of T x = b reads e^{i t_k} x_k = b_k + i w S_{k-1}, with
w = 2pi/M and S_k = sum_{j<=k} e^{i t_j} x_j, so S_k = q S_{k-1} + b_k
for q = 1 + i w.  The solve takes the closed form S = q^k cumsum(b q^-k)
(|q^{+-k}| <= e^{2pi^2/M}, so nothing grows), then x_k from row k: no
loop over grid points.

exact_eigenvector keeps its forward-substitution loop.  Its recurrence
has a cumprod form too, but that rounds differently, and the battery's
kalish start vector is built from these eigenvectors: its periods 16 and
32 both return to round-off, so the last bits pick the chaotic probe's
best period, and the cumprod form moved it from 16 to 32 on some seeds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonio import check_schema

TWO_PI = 2.0 * np.pi
MATRIX_SIZE_LIMIT = 4096


class GridMismatchError(ValueError):
    """Binary operation on functions over different grids."""


class DegenerateAngleError(ValueError):
    """Angle produces a degenerate arc (empty indicator)."""


class MatrixSizeError(ValueError):
    """Dense matrix requested beyond the feasibility bound."""


def grid_angles(M: int) -> np.ndarray:
    return TWO_PI * np.arange(M) / M


@dataclass(frozen=True, eq=False)
class CircleFunction:
    """Complex samples at the M grid nodes t_j = 2pi*j/M."""

    values: np.ndarray
    grid_size: int

    def __post_init__(self):
        if self.grid_size < 8:
            raise ValueError(f"grid_size must be >= 8, got {self.grid_size}")
        if self.values.shape != (self.grid_size,):
            raise ValueError("values length must equal grid_size")
        if np.any(~np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @classmethod
    def from_values(cls, values) -> "CircleFunction":
        v = np.asarray(values, dtype=complex).copy()
        return cls(values=v, grid_size=v.size)

    @classmethod
    def constant(cls, value: complex, M: int) -> "CircleFunction":
        return cls(values=np.full(M, value, dtype=complex), grid_size=M)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleFunction):
            return NotImplemented
        return self.grid_size == other.grid_size and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"CircleFunction(grid_size={self.grid_size}, norm={func_norm(self):.6g})"

    def to_dict(self) -> dict:
        return {
            "schema": "circle-function/1",
            "grid": self.grid_size,
            "re": [float(v) for v in self.values.real],
            "im": [float(v) for v in self.values.imag],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CircleFunction":
        check_schema(doc, "circle-function")
        values = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(
            doc["im"], dtype=float
        )
        if values.size != int(doc["grid"]):
            raise ValueError("grid size does not match sample count")
        return cls.from_values(values)


def _same_grid(f: CircleFunction, g: CircleFunction) -> None:
    if f.grid_size != g.grid_size:
        raise GridMismatchError(
            f"grid sizes differ: {f.grid_size} vs {g.grid_size}"
        )


def inner_product(f: CircleFunction, g: CircleFunction) -> complex:
    """Arc-length inner product, conjugate-linear in the first slot."""
    _same_grid(f, g)
    return complex((TWO_PI / f.grid_size) * np.vdot(f.values, g.values))


def grid_norms(X: np.ndarray, axis: int = 0) -> np.ndarray:
    """Arc-length norms sqrt((2pi/M) sum |x_j|^2) along the grid axis of X."""
    return np.sqrt((TWO_PI / X.shape[axis]) * np.sum(np.abs(X) ** 2, axis=axis))


def func_norm(f: CircleFunction) -> float:
    return float(grid_norms(f.values))


def _phases(M: int, ndim: int = 1) -> np.ndarray:
    """e^{i t_j}, shaped to broadcast along axis 0 of an ndim array."""
    return np.exp(1j * grid_angles(M)).reshape((M,) + (1,) * (ndim - 1))


def apply_M(f: CircleFunction) -> CircleFunction:
    return CircleFunction(_phases(f.grid_size) * f.values, f.grid_size)


def _running_J(X: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Inclusive left-endpoint sums i w sum_{j<=k} e^{i t_j} x_j along
    axis 0, accumulated in place in the one temporary."""
    running = X * (1j * d)
    running *= TWO_PI / X.shape[0]
    return np.cumsum(running, axis=0, out=running)


def apply_J(f: CircleFunction) -> CircleFunction:
    """Left-endpoint quadrature of the line integral from angle 0."""
    running = _running_J(f.values, _phases(f.grid_size))
    out = np.zeros_like(running)
    out[1:] = running[:-1]
    return CircleFunction(out, f.grid_size)


def apply_T_array(X: np.ndarray) -> np.ndarray:
    """T applied along axis 0 of an (M,) or (M, k) array, one function
    per column."""
    X = np.asarray(X, dtype=complex)
    d = _phases(X.shape[0], X.ndim)
    running = _running_J(X, d)
    out = d * X
    out[1:] -= running[:-1]
    return out


def apply_T(f: CircleFunction) -> CircleFunction:
    return CircleFunction(apply_T_array(f.values), f.grid_size)


def chi(lam: float, M: int) -> CircleFunction:
    """Indicator of the arc from lam counterclockwise to angle 0, sampled
    at the nodes (1 exactly where t_j > lam).  chi(0) is the zero function."""
    if not (0.0 <= lam < TWO_PI):
        raise ValueError(f"lam={lam!r} outside [0, 2pi)")
    if lam == 0.0:
        return CircleFunction.constant(0.0, M)
    t = grid_angles(M)
    return CircleFunction((t > lam).astype(complex), M)


def eigen_residual(lam: float, M: int) -> float:
    """Relative residual of the arc indicator as an eigenvector claim:
    ||T chi(lam) - e^{i lam} chi(lam)|| / ||chi(lam)||."""
    if lam == 0.0:
        raise DegenerateAngleError("lam=0 has an empty arc; residual undefined")
    v = chi(lam, M)
    n = func_norm(v)
    if n == 0.0:
        raise DegenerateAngleError(f"arc ({lam!r}, 2pi) captures no grid node")
    r = apply_T(v).values - np.exp(1j * lam) * v.values
    return float(grid_norms(r) / n)


def kalish_matrix(M: int) -> np.ndarray:
    """Dense matrix of T in the grid basis: diagonal e^{i t_j} from the
    multiplier, strictly lower triangle -i e^{i t_j} (2pi/M) from the
    quadrature.  Lower triangular, so the spectrum is exactly the grid
    roots of unity."""
    if M > MATRIX_SIZE_LIMIT:
        raise MatrixSizeError(f"M={M} exceeds dense bound {MATRIX_SIZE_LIMIT}")
    d = _phases(M)
    col = 1j * d * (TWO_PI / M)
    mat = np.zeros((M, M), dtype=complex)
    rows = np.arange(M)
    mask = rows[:, None] > rows[None, :]
    mat[mask] = -np.broadcast_to(col[None, :], (M, M))[mask]
    np.fill_diagonal(mat, d)
    return mat


def kalish_solve_array(B: np.ndarray) -> np.ndarray:
    """Solve T X = B along axis 0 of an (M,) or (M, k) array, in closed
    form (see the module docstring)."""
    B = np.asarray(B, dtype=complex)
    M = B.shape[0]
    w = TWO_PI / M
    log_q = 0.5 * np.log1p(w * w) + 1j * np.arctan(w)  # q^k = e^{k log q}
    k = np.arange(M).reshape((M,) + (1,) * (B.ndim - 1))
    S = B * np.exp(-k * log_q)
    np.cumsum(S, axis=0, out=S)
    S *= (1j * w) * np.exp(k * log_q)
    out = B.copy()
    out[1:] += S[:-1]
    out /= _phases(M, B.ndim)
    return out


def kalish_solve(b: CircleFunction) -> CircleFunction:
    """Solve T x = b in O(M) with no loop over grid points."""
    return CircleFunction(kalish_solve_array(b.values), b.grid_size)


def exact_eigenvector(k0: int, M: int) -> CircleFunction:
    """Eigenvector of the discrete T for the eigenvalue e^{i t_{k0}},
    built by forward substitution.  Rows above k0 force zeros, row k0 is
    free (set to 1), and each later row is determined by the running
    weighted sum; the residual is at round-off level by construction."""
    if not 0 <= k0 < M:
        raise ValueError(f"k0={k0} outside the grid range [0, {M})")
    w = TWO_PI / M
    d = _phases(M)
    lam = d[k0]
    v = np.zeros(M, dtype=complex)
    v[k0] = 1.0
    S = d[k0]
    for j in range(k0 + 1, M):
        v[j] = 1j * w * S / (d[j] - lam)
        S += d[j] * v[j]
    return CircleFunction(v, M)


def nearest_grid_index(lam: float, M: int) -> int:
    """Index of the grid node closest to the angle lam, mod wraparound."""
    return int(np.rint(np.mod(lam, TWO_PI) / (TWO_PI / M))) % M
