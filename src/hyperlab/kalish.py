"""The Kalish operator T = M - J on a uniform circle grid.

Functions live on the grid t_j = 2pi*j/M.  M multiplies pointwise by
e^{i t_j}; J is the complex line integral along the counterclockwise arc
from angle 0 to the evaluation point, discretized by the left-endpoint
rule with line element i e^{i t} dt.  The grid inner product is the
arc-length one, <f, g> = (2pi/M) sum conj(f_j) g_j; grid_norms is the
one home of its norm, along axis 0.  Its private form _grid_norms takes
the grid axis and an optional float scratch for |f_j| and |f_j|^2, so a
caller norming many blocks of states along their last axis
(dynamics_lab's distance kernel) allocates that scratch once.  Without
a scratch the two arrays are fresh, as they always were: the Gauss
path's peak RSS depends on that heap layout (one shared array instead
left 16 MB of glibc heap resident on gauss-g16384).  np.square gives
the bits of ** 2.0 either way.

Arc-indicator convention (calibrated, do not flip casually; its one home
is arc_indicators, and chi(lam) is its one column): 1 exactly at the grid
nodes with t_j > lam, i.e. the open arc running counterclockwise from lam
back to angle 0.  Sampling the indicator at the nodes themselves (rather
than asking whether a node's bin center is inside the arc) is what makes
the eigen residual decay first order under grid doubling; the bin-center
variant stalls near ratio 1 and fails the calibration, so the node
convention wins.  chi(0) is pinned to the zero function (degenerate arc).

On the grid T is lower triangular with unimodular diagonal e^{i t_j},
so its exact spectrum is the set of M-th roots of unity and T^M = I in
exact arithmetic.

Batches: apply_T_array takes values of shape (M,) or (M, k), one
function per column, and works along axis 0 in row blocks of at most
_BLOCK_ELEMENTS (2**16) complex elements, so besides the output it
holds one 1 MiB scratch, which every block reuses, not an (M, k)
temporary.  An array of at most 2**16 elements is one block.  The
prefix sum carries from block to block: the previous block's last sum,
copied out of the scratch, is added into the block's first row
before its cumsum, which is the very addition a one-pass cumsum makes at
that row, so the blocked result is bit-identical to the one-pass one.
The first block takes no carry at all: 0.0 + -0.0 is +0.0, so a 0
carry would flip the sign of exact-zero rows, such as the rows above an
eigenvector's node.  apply_T wraps apply_T_array for a CircleFunction;
callers holding arrays call the kernels directly.

Zero prefixes: T is lower triangular, so a column that is zero above row
k stays zero above row k under T.  Eigenvectors and arc indicators are
such columns.  _apply_T_rows(X, out, top), the one row-block kernel of
T, writes only rows top: and starts its blocks there with no carry;
apply_T_array is its top-0 case.  The grouped kernels take the columns
_GROUP_COLUMNS at a time, each group from its first nonzero row, so
with nodes spread over the circle they touch about half of the M x m
elements: exact_eigenvectors builds each group from its smallest node
index, and gauss_model's EigenField.residuals applies _apply_T_rows
group by group, each group's top the first row where any of its
columns is nonzero.  gauss_model's Gram products read the same group
tops off their operands (a factor, or its residual T A - A D, which
keeps the prefix) and, with the tops made nondecreasing, multiply in
each band of rows only the column prefix that may be nonzero there:
about a third of the dense product once there are many groups.

Transpose: T^T is upper triangular, (T^T y)_j = d_j (y_j - i w sum_{k>j}
y_k) with d_j = e^{i t_j}, so apply_T_transpose is one reversed cumsum
over an (M,) vector.  Through (T^n A)^T y = A^T (T^T)^n y, n inner
products of x* with the columns of T^k A (k = 1..n) cost n transposed
steps of the one vector conj(x*), not n applies of T to the (M, m) A.

Eigenvectors of d_k = e^{i t_k}: zero above row k, 1 at row k, and
v_j = i w S_{j-1} / (d_j - d_k) below, so S_j = S_{j-1} + d_j v_j is
S_j = d_k prod_{k<l<=j} (1 + i w d_l / (d_l - d_k)): one cumprod.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .jsonio import _read_field, check_schema

TWO_PI = 2.0 * np.pi
MATRIX_SIZE_LIMIT = 4096
_BLOCK_ELEMENTS = 2**16  # complex elements per kernel temporary: 1 MiB
_GROUP_COLUMNS = 16  # columns per group of the grouped kernels


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
        grid = _read_field(doc, "circle-function", "grid", "integer")
        re, im = (np.asarray(_read_field(doc, "circle-function", key, "numbers"),
                             dtype=float) for key in ("re", "im"))
        if not re.size == im.size == grid:
            raise ValueError("grid size does not match sample count")
        return cls.from_values(re + 1j * im)


def grid_norms(X: np.ndarray) -> np.ndarray:
    """Arc-length norms sqrt((2pi/M) sum |x_j|^2) along axis 0 of X, one
    function per column."""
    return _grid_norms(np.asarray(X), 0)


def _grid_norms(X: np.ndarray, axis: int, scratch=None) -> np.ndarray:
    """The arc-length norms along the grid axis of X.  |x_j| and its
    square go into scratch, a float array laid out like X, or with none
    into two fresh arrays (see the module docstring)."""
    moduli = np.abs(X, out=scratch)
    square = np.square(moduli, out=scratch, dtype=float)
    return np.sqrt((TWO_PI / X.shape[axis]) * np.sum(square, axis=axis))


def func_norm(f: CircleFunction) -> float:
    return float(grid_norms(f.values))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _phases(M: int, ndim: int = 1) -> np.ndarray:
    """e^{i t_j} shaped for axis 0 of an ndim array; cached, read-only."""
    return _read_only(np.exp(1j * grid_angles(M)).reshape((M,) + (1,) * (ndim - 1)))


def _running_J(X: np.ndarray, d: np.ndarray, w: float, before, out) -> np.ndarray:
    """Inclusive left-endpoint sums i w sum_{j<=k} e^{i t_j} x_j along
    axis 0, accumulated in place in out, shaped like X; before, the sum
    up to the row above X, is added into X's first row ahead of the
    cumsum, the exact addition a one-pass cumsum makes there."""
    running = np.multiply(X, 1j * d, out=out)
    running *= w
    if before is not None:
        running[:1] += before
    return np.add.accumulate(running, axis=0, out=running)


def _block_rows(shape: tuple) -> int:
    """Rows of one block: at most _BLOCK_ELEMENTS elements, at least one row."""
    return max(1, _BLOCK_ELEMENTS // max(1, math.prod(shape[1:])))


def apply_T_array(X: np.ndarray) -> np.ndarray:
    """T applied along axis 0 of an (M,) or (M, k) array, one function
    per column, in row blocks (see the module docstring)."""
    X = np.asarray(X, dtype=complex)
    out = np.empty_like(X)
    _apply_T_rows(X, out, 0)
    return out


def _apply_T_rows(X: np.ndarray, out: np.ndarray, top: int) -> None:
    """Rows top: of T X into out, which holds just those rows, for an X
    that is zero above row top (so T X is too): row blocks from row top,
    the first without a carry."""
    M = X.shape[0]
    d = _phases(M, X.ndim)
    w = TWO_PI / M
    rows = _block_rows(X.shape)
    scratch = np.empty((min(rows, M - top),) + X.shape[1:], dtype=complex)
    before = None
    for lo in range(top, M, rows):
        x, dx, o = X[lo:lo + rows], d[lo:lo + rows], out[lo - top:lo - top + rows]
        running = _running_J(x, dx, w, before, scratch[:len(x)])
        np.multiply(dx, x, out=o)
        o[1:] -= running[:-1]
        if before is not None:
            o[:1] -= before
        before = running[-1:].copy()  # the scratch is the next block's


def apply_T_transpose(y: np.ndarray) -> np.ndarray:
    """T^T applied to an (M,) vector: d_j (y_j - i w sum_{k>j} y_k), the
    sum over k > j one reversed cumsum (see the module docstring)."""
    y = np.asarray(y, dtype=complex)
    M = y.shape[0]
    out = np.empty_like(y)
    after = np.cumsum(y[:0:-1])[::-1]  # sum_{k>j} y_k for j < M - 1
    after *= 1j * (TWO_PI / M)
    np.subtract(y[:-1], after, out=out[:-1])
    out[-1] = y[-1]
    out *= _phases(M)
    return out


def apply_T(f: CircleFunction) -> CircleFunction:
    return CircleFunction(apply_T_array(f.values), f.grid_size)


def arc_indicators(angles, M: int) -> np.ndarray:
    """(M, m) boolean matrix, column j the arc from angles[j] counterclockwise
    to angle 0 at the nodes: True exactly where t_j > angles[j] > 0."""
    return (grid_angles(M)[:, None] > angles) & (np.asarray(angles) > 0.0)


def chi(lam: float, M: int) -> CircleFunction:
    """The one-column arc_indicators(lam) as a function; chi(0) is zero."""
    if not (0.0 <= lam < TWO_PI):
        raise ValueError(f"lam={lam!r} outside [0, 2pi)")
    return CircleFunction(arc_indicators([lam], M)[:, 0].astype(complex), M)


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


def exact_eigenvectors(ks, M: int) -> np.ndarray:
    """(M, m) eigenvectors of the discrete T in closed form (module
    docstring), column c for the eigenvalue e^{i t_k} with k = ks[c],
    built _GROUP_COLUMNS columns at a time from the group's smallest k."""
    ks = np.asarray(ks)
    if ks.ndim != 1 or not np.issubdtype(ks.dtype, np.integer):
        raise ValueError(f"node indices {ks.tolist()} are not a 1-D array of integers")
    if np.any((ks < 0) | (ks >= M)):
        raise ValueError(f"node indices {ks.tolist()} outside the grid range [0, {M})")
    out = np.zeros((M, ks.size), dtype=complex)
    for lo in range(0, ks.size, _GROUP_COLUMNS):
        cols = slice(lo, lo + _GROUP_COLUMNS)
        top = int(ks[cols].min())
        out[top:, cols] = _eigen_rows(ks[cols], top, M)
    out[ks, np.arange(ks.size)] = 1.0
    return out


def _eigen_rows(ks: np.ndarray, top: int, M: int) -> np.ndarray:
    """Rows top: of exact_eigenvectors(ks, M) for ks >= top, except the
    1 at each node's row."""
    w = TWO_PI / M
    d = _phases(M, 2)[top:]
    lam = _phases(M)[ks]
    upper = np.arange(top, M)[:, None] <= ks  # rows whose factor is 1
    D = d - lam
    D[upper] = 1.0  # before dividing: row k has d_k - d_k = 0
    F = (1j * w) * d / D
    F += 1.0
    F[upper] = 1.0
    np.cumprod(F, axis=0, out=F)  # S_j / d_k
    np.divide(F[:-1], D[1:], out=D[1:])
    D *= (1j * w) * lam
    D[upper] = 0.0
    return D


def nearest_grid_index(lam, M: int):
    """Index of the grid node closest to the angle lam (or to each angle
    of an array), mod wraparound."""
    return np.rint(np.mod(lam, TWO_PI) / (TWO_PI / M)).astype(int) % M
