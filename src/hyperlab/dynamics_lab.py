"""Orbit simulation, visit-time extraction, and the classification harness.
Stored orbits and kalish's walked n_step_map take gauss_model.walk, the one
drift-guarded walk, and are the oracles of the streamed orbit, which reads
its guard off its norm row.

Streaming: the battery and the runner's orbit probe (also `lab orbit`) never
hold an (N+1, dim) orbit and take no step.  _rows is its one row source: the
orbit_rows of x, Tx, ..., T^n x and the weak-mixing pullbacks x, Rx, ...,
R^n x both take it.  Every kind class has one block hook, rows, which gives
any rows lo..hi-1 of the orbit (or of the pullbacks) in closed form, in the
coordinates its norm reads: a shift's head columns as slices of a sliding
window over one zero-padded copy of its symbols, bitwise the stepped states;
the torus's x e^{i t alpha}; kalish's m = 8 Gram coordinates (e^{i t lam} g)
@ C of the default model's eigenvector field (_Kalish).  _rows hands the
hook to _distance_rows, the one distance kernel, which cuts the orbit into
row blocks of at most kalish._BLOCK_ELEMENTS (2**16) complex elements and
writes the O(N) distance row of every state to the origin, which is the norm
row, and to each center, a row the hook gives by a call of its own, bitwise
its row in the block.  Only the keep states are returned, the one state a
probe reads, weak mixing's middle: a shift's and the torus's from their
closed-form n_step_map, kalish's as A (e^{i t lam} g).  Once the rows are
done, walk's drift guard walks the time index with the norm read from the
norm row, so a drift raises the one NormDriftError message, naming its
first step.
The kernel holds two block-sized scratch arrays per call, as wide as its
blocks (a shift's head, not its dimension): each block is copied into
the first and the center subtracted there, and the kind class's norms
(behind the public norms) forms the squared moduli in the second.  A
fresh 1 MiB array per (block, center) pair is one glibc gives back to the
system on free and faults in again on the next allocation, tens of
thousands of page faults on a cold process's first battery pass.  A hook
that forms its rows fills one reused buffer of the same size, so a
streamed row holds three blocks at most.  The probes read only the rows
and the keep state, at the times _probe_times names, which probe_orbit
streams.  hitting_times on a stored Trajectory takes the kernel too, its
states being the blocks.

The operator zoo: _KINDS maps each system kind to its document fields and
to the function that builds its class, _Kalish, _Shift (both shift kinds)
or _Torus, whose docstring describes the kind.  A SystemSpec builds its class once,
as spec.ops, and every rule that differs by kind (state norm, n_step_map,
orbit rows, default start, e_system witness, weak-mixing pullback depth,
eigenvector family) reads it; no function branches on the kind.  A step
is n_step_map at n = 1: a shift's slide and the torus's rotation are
closed forms, and only kalish walks its n_step_map, by apply_T steps.

Verdicts carry an evidence grade: "exact" for combinatorial facts about
the simulated window, "statistical" for Monte-Carlo checks with stated
tolerances, "heuristic" for window proxies of asymptotic properties.
The implication checker flags a yes-premise/no-conclusion pair only when
the conclusion's grade is at least as strong as the premise's: a window
heuristic is never allowed to overturn an exact or statistical verdict,
while an exact failure does overturn a heuristic claim.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .circle_measure import CircleMeasure
from .gauss_model import (
    GaussModel,
    build_model,
    corrected_field,
    invariance_check,
    walk,
)
from .hitting_sets import (
    WindowedSet,
    difference_set,
    longest_interval,
    lower_density,
    max_gap,
    upper_density,
)
from .jsonio import _read_field, csv_text, record_dict
# apply_T is unused but kept bound: perfbench patches every binding
from .kalish import (  # noqa: F401
    _block_rows, _grid_norms, apply_T, apply_T_array)
from .seeding import complex_standard_normal, rng_for

TWO_PI = 2.0 * np.pi

GRADE_STRENGTH = {"heuristic": 0, "statistical": 1, "exact": 2}

# implication skeleton; the syndetic -> weak-mixing edge is only active
# for linear systems (the underlying argument runs through the fixed
# point at 0)
EDGES = [
    ("chaotic", "m_system", False),
    ("m_system", "e_system", False),
    ("e_system", "syndetic", False),
    ("syndetic", "weak_mixing", True),
    ("ufh", "syndetic", False),
]

PROBE_COLUMNS = ["chaotic", "m_system", "e_system", "syndetic", "weak_mixing", "ufh"]


@dataclass(frozen=True)
class SystemSpec:
    """One zoo member; exactly the fields its kind needs are set.  ops is
    its kind's class (_KINDS), built once here, which checks the fields;
    it is not a dataclass field, so ==, hash and record_dict skip it."""

    kind: str
    grid_size: int = 0
    dimension: int = 0
    scalar: complex = 0.0
    weights: tuple = ()
    angles: tuple = ()
    name: str = ""

    def __post_init__(self):
        self.__dict__["ops"] = self._entry(self.kind)[1](self)

    @staticmethod
    def _entry(kind) -> tuple:
        """(document fields, build function) of kind in _KINDS."""
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown system kind {kind!r}")
        return _KINDS[kind]

    @property
    def state_dim(self) -> int:
        return self.ops.dim

    @property
    def is_linear(self) -> bool:
        return self.ops.linear

    @property
    def label(self) -> str:
        return self.name or self.ops.label

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        for key, attr, _, write in self._entry(self.kind)[0]:
            doc[key] = write(getattr(self, attr))
        if self.name:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_dict(cls, doc) -> "SystemSpec":
        """The one parser of a system document: an object holding kind,
        its kind's fields and an optional string name, and nothing else."""
        if not isinstance(doc, dict):
            raise ValueError("expected an object")
        kind = doc.get("kind")
        form, fields = cls._entry(kind)[0], {}
        for key, attr, read, _ in form:
            if key not in doc:
                raise ValueError(f"{kind} system: missing required field {key!r}")
            fields[attr] = read(key, doc[key])
        name = doc.get("name", "")
        if not isinstance(name, str):
            raise ValueError(f"system field 'name' must be a string, got {name!r}")
        spec = cls(kind=kind, name=name, **fields)
        known = {"kind", "name", *(key for key, *_ in form)}
        for key in doc:
            if key not in known:
                raise ValueError(f"unknown field {key!r}")
        return spec


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise ValueError(message)


class _Kind:
    """What every kind shares: a linear system of dim coordinates with the
    Euclidean norm, whose e_system column reads the Birkhoff empirical
    measure of `balls` balls spread over the window and whose weak-mixing
    scan takes every pullback.  A kind class also names its default label,
    its start and its eigenvector family (size, note), and has one block
    hook, rows(x, n, back=False): (width, rows_of), where rows_of(lo, hi)
    gives rows lo..hi-1 of x, Tx, ..., T^n x (of x, Rx, ..., R^n x with
    back=True) in the width coordinates its norm reads, an array valid
    until the next call.  n_step_map(state, n) is T^n state, a closed
    form for every kind but kalish, which walks it; step(state) is
    n_step_map at n = 1 (kalish's the apply_T step it walks) and state(x,
    t) the keep state T^t x.  None takes the spec, as the class holds all
    they read."""

    linear = True
    square = complex  # the dtype of the squared moduli norms forms
    balls = 6

    def __init__(self, dim: int, label: str):
        self.dim, self.label = dim, label

    def norms(self, X: np.ndarray, scratch=None) -> np.ndarray:
        """The norms along the last axis of X, the squared moduli formed in
        scratch, an array laid out like X (its layout decides the order of
        the sums), or with none in fresh arrays: conj(x) x as complex
        numbers, np.linalg.norm's own sum."""
        square = np.multiply(np.conjugate(X, out=scratch), X, out=scratch)
        return np.sqrt(np.add.reduce(square.real, axis=-1))

    def step(self, state: np.ndarray) -> np.ndarray:
        """T state: the closed-form n_step_map at n = 1."""
        return self.n_step_map(state, 1)

    def state(self, x: np.ndarray, t: int) -> np.ndarray:
        """T^t x, a keep state of _rows: the closed-form n_step_map."""
        return self.n_step_map(x, t)

    def gauss_model(self) -> Optional[GaussModel]:
        """The invariant Gaussian model that witnesses e_system, if any."""
        return None

    def pullbacks(self, center: np.ndarray, n: int) -> int:
        """The last k <= n whose pullback R^k center the weak-mixing scan
        takes."""
        return n

    @staticmethod
    def _phase_rows(coords: np.ndarray, angles: np.ndarray, n: int, back: bool,
                    C: Optional[np.ndarray] = None):
        """The rows hook of a kind whose coordinates turn by e^{i angles}
        per step of T (by e^{-i angles} per step of R): row t is (e^{+-i t
        angles} coords) @ C.  The lower triangular C is applied in place,
        column k of the row the sum of out[:, j] C[j, k] over j >= k in a
        fixed order, with no BLAS, so a row's bits do not depend on the
        block it is formed in: a center row is bitwise its row in the
        block.  The rows fill one buffer, reused from call to call."""
        turn = (-1j if back else 1j) * angles
        buf = _row_buffer(n + 1, len(coords))

        def rows_of(lo, hi):
            out = np.multiply(np.arange(lo, hi)[:, None], turn, out=buf[:hi - lo])
            np.exp(out, out=out)
            out *= coords
            if C is not None:
                for k in range(len(coords)):
                    col = out[:, k]
                    col *= C[k, k]
                    for j in range(k + 1, len(coords)):
                        col += out[:, j] * C[j, k]
            return out

        return len(coords), rows_of


class _Kalish(_Kind):
    """kalish(M): the grid Kalish operator on complex functions over M
    nodes, with the arc-length norm (grid weight 2pi/M, the squared moduli
    as floats: kalish._grid_norms).  Its start is a sample A g of the
    default Gaussian model, which is also its e_system witness, and its
    eigenvector family is min(64, max(M // 16, 2)) arc indicators.

    The model's factor A is an eigenvector field, T A = A D with D =
    e^{i lam} (to round-off), so the orbit of x = A g is A (e^{i t lam} g)
    and its pullbacks A (e^{-i t lam} g).  rows reads g off x by the
    model's Gram solve, and a start off A's span is a ValueError naming
    its residual.  With C = conj(cholesky((m/M) A* A)), the grid norm of
    the m coordinates (e^{i t lam} g) @ C is the state's grid norm, so a
    row is m wide, not M."""

    square = float
    balls = 0

    def __init__(self, grid: int):
        _require(grid >= 8, "kalish needs grid_size >= 8")
        super().__init__(grid, f"kalish-{grid}")
        self.eigen = (min(64, max(grid // 16, 2)), "arc-indicator family at grid scale")

    def norms(self, X, scratch=None):
        return _grid_norms(X, -1, scratch)

    def step(self, state):
        return apply_T_array(state)

    def n_step_map(self, state, n):
        """T^n by the guarded walk of step, the one kind with no closed
        form; the deque keeps only the last state alive."""
        return deque(walk(self.step, state, n, lambda x: float(self.norms(x))), maxlen=1)[0]

    def gauss_model(self):
        return default_gauss_model(self.dim)

    def start(self, label: str, seed: int) -> np.ndarray:
        model = self.gauss_model()
        g = complex_standard_normal(rng_for(seed, f"start:{label}"), (model.node_count,))
        return model.factor @ g

    def _coordinates(self, x: np.ndarray) -> np.ndarray:
        """g with A g = x, from the Gram solve A* A g = A* x."""
        model = self.gauss_model()
        g = np.linalg.solve(model.gram, np.conjugate(np.conjugate(x) @ model.factor))
        residual = float(self.norms(model.factor @ g - x))
        _require(residual <= 1e-9 * float(self.norms(x)),
                 f"kalish state is off the span of the model's {len(g)} eigenvectors: "
                 f"residual {residual:.3e} exceeds 1e-9 x its norm")
        return g

    def rows(self, x, n, back=False):
        model = self.gauss_model()
        C = np.conjugate(np.linalg.cholesky((model.node_count / self.dim) * model.gram))
        return self._phase_rows(self._coordinates(x), model.angles, n, back, C)

    def state(self, x, t):
        """A (e^{i t lam} g), T^t x in the model's coordinates."""
        model = self.gauss_model()
        return model.factor @ (np.exp(1j * t * model.angles) * self._coordinates(x))


class _Shift(_Kind):
    """A backward shift with weights w_1..w_{d-1} on C^d, (Tx)_i = w_{i+1}
    x_{i+1}, built from either shift document: scalar_multiple_shift(lam,
    d) is lam times the backward shift (truncation of the classical
    hypercyclic exemplar; nilpotent, so desk runs keep d comfortably above
    the window length), and weighted_shift(weights) takes positive weights
    w_1..w_{d-1}.  Nilpotent, it owns no unimodular eigenvectors.

    A state is held in symbol coordinates y_i = W_i x_i, W_i = w_1 ... w_i
    (W_0 = 1).  There T is the plain backward slide, its right inverse R
    the plain forward slide, which pushes the last coordinate past the
    truncation, and the weights live in the norm alone: ||x||^2 = sum_i
    |y_i|^2 / |W_i|^2.  stop is the first i with W_i < e^-300 (else d): the
    start, the Gaussian symbols r, is zero from there on, the norm reads
    only the coordinates before it, and so no weight read exceeds e^600.
    Of those weights, head keeps the ones up to the last nonzero in floating
    point (538 of 1128 for 2B at d = 1128); past it every term is 0.

    So no orbit is walked: T^t x is x[t:] and R^t x is (0^t, x), both
    windows of one symbol sequence, and rows gives their head columns as
    slices of a sliding window over one zero-padded copy of x, len(head)
    wide, bitwise the stepped states."""

    square = float

    def __init__(self, logW: np.ndarray, label: str):
        super().__init__(len(logW), label)
        dips = np.flatnonzero(logW < -300.0)
        self.stop = int(dips[0]) if dips.size else self.dim
        self.head = np.trim_zeros(np.exp(-2.0 * logW[:self.stop]), "b")  # 1 / |W_i|^2
        self.eigen = (0, "truncated shift is nilpotent: no unimodular eigenvectors")

    @classmethod
    def scalar(cls, spec: SystemSpec) -> "_Shift":
        z, d = spec.scalar, spec.dimension
        _require(d >= 1, "shift dimension must be >= 1")
        _require(np.isfinite(z), f"system field 'scalar' must be finite, got {z!r}")
        _require(abs(z) > 0, "scalar must be nonzero")
        label = f"scalar-shift-{z:g}-d{d}" if z.imag else f"scalar-shift-{z.real:g}-d{d}"
        return cls(np.arange(d) * np.log(abs(z)), label)

    @classmethod
    def weighted(cls, spec: SystemSpec) -> "_Shift":
        w, d = spec.weights, spec.dimension
        _require(d >= 1, "shift dimension must be >= 1")
        _require(len(w) == max(d - 1, 0), "need dimension-1 weights")
        _require(np.all(np.isfinite(w)), f"system field 'weights' must be finite, got {w!r}")
        _require(not any(v <= 0 for v in w), "weights must be positive")
        logs = np.concatenate([[0.0], np.log(np.asarray(w, dtype=float))])
        return cls(np.cumsum(logs), f"weighted-shift-d{d}")

    def norms(self, X, scratch=None):
        """sqrt(sum_i |y_i|^2 / |W_i|^2) over the head, the squared moduli
        formed as floats in scratch (as for kalish) or in a fresh array."""
        n = len(self.head)
        moduli = np.abs(X[..., :n], out=None if scratch is None else scratch[..., :n])
        square = np.multiply(np.square(moduli, out=moduli), self.head, out=moduli)
        return np.sqrt(np.add.reduce(square, axis=-1))

    def rows(self, x, n, back=False):
        """Row t the window padded[t:t + len(head)]: padded is x then
        zeros, or with back 0^n then x's head, its windows reversed."""
        width = len(self.head)
        padded = np.zeros(n + width, dtype=complex)
        if back:
            padded[n:] = x[:width]
            view = sliding_window_view(padded, width)[::-1]
        else:
            padded[:min(n + width, self.dim)] = x[:n + width]
            view = sliding_window_view(padded, width)
        return width, lambda lo, hi: view[lo:hi]

    def n_step_map(self, state, n):
        """The slide by n, bitwise n steps."""
        tail = np.asarray(state, dtype=complex)[n:]
        out = np.zeros(self.dim, dtype=complex)
        out[:len(tail)] = tail
        return out

    def start(self, label, seed):
        """The Gaussian symbols r, zero from stop on: the orbit slides a
        fresh symbol window across the coordinates."""
        r = complex_standard_normal(rng_for(seed, f"start:{label}"), (self.dim,))
        r[self.stop:] = 0.0
        return r

    def pullbacks(self, center, n):
        """Pullbacks push support deeper; past stop the norm no longer sees
        it, so the scan stops before the support reaches stop."""
        support = np.flatnonzero(center)
        return min(n, max(self.stop - 1 - int(np.max(support, initial=0)), 0))


class _Torus(_Kind):
    """torus_rotation(angles): coordinatewise rotation z_i -> e^{i alpha_i}
    z_i on unimodular states, started at the all-ones point.  Treated as a
    compact-group system, not a linear one: it has no fixed point at 0
    reachable from the torus, so the linear-only implication edges stay
    inactive for it.  Its coordinate characters are eigenvectors.  Its
    orbit is diagonal already: row t of rows is x e^{i t alpha} (of the
    pullbacks x e^{-i t alpha}), the n_step_map formula."""

    linear = False

    def __init__(self, angles: tuple):
        _require(len(angles) >= 1, "torus needs at least one angle")
        _require(all(0.0 <= a < TWO_PI for a in angles), "angles must lie in [0, 2pi)")
        super().__init__(len(angles), "torus-rotation-" + "x".join(f"{a:.3f}" for a in angles))
        self.angles = np.asarray(angles)
        self.eigen = (len(angles), "coordinate characters span the state space")

    def n_step_map(self, state, n):
        return state * np.exp(1j * n * self.angles)

    def rows(self, x, n, back=False):
        return self._phase_rows(x, self.angles, n, back)

    def start(self, label, seed):
        return np.ones(self.dim, dtype=complex)


def _number(key: str, value, form="number"):
    return _read_field({key: value}, "system", key, form)


def _floats(key: str, values) -> tuple:
    if not isinstance(values, list):
        raise ValueError(f"system field {key!r} must be a list of numbers, got {values!r}")
    return tuple(float(_number(key, v)) for v in values)


def _complex(key: str, value) -> complex:
    """A number, or the [re, im] pair that to_dict writes."""
    pair = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
    return complex(*(_number(key, v) for v in pair))


_integer = partial(_number, form="integer")
# Each kind: its document form, (key, SystemSpec field, reader, writer) per
# field, and the function that builds its class from a SystemSpec.
_KINDS = {
    "kalish": ([("grid", "grid_size", _integer, int)],
               lambda spec: _Kalish(spec.grid_size)),
    "scalar_multiple_shift": ([("scalar", "scalar", _complex, lambda z: [z.real, z.imag]),
                               ("dimension", "dimension", _integer, int)], _Shift.scalar),
    "weighted_shift": ([("weights", "weights", _floats, list),
                        ("dimension", "dimension", _integer, int)], _Shift.weighted),
    "torus_rotation": ([("angles", "angles", _floats, list)],
                       lambda spec: _Torus(spec.angles)),
}


def parse_systems(docs) -> list:
    """The specs of a list of system documents, the one path of a config's
    systems block, the runner's and `lab classify --systems`.  An error
    names its document as systems[i]; a label names one system only, since
    probes and report rows name systems by label."""
    if not isinstance(docs, (list, tuple)):
        raise ValueError(f"systems: expected a list, got {type(docs).__name__}")
    specs, first = [], {}
    for i, doc in enumerate(docs):
        try:
            spec = SystemSpec.from_dict(doc)
        except ValueError as exc:
            raise ValueError(f"systems[{i}]: {exc}") from exc
        j = first.setdefault(spec.label, i)
        if j < i:
            raise ValueError(
                f"systems[{i}]: label {spec.label!r} already names systems[{j}]")
        specs.append(spec)
    return specs


def kalish_system(M: int, name: str = "") -> SystemSpec:
    return SystemSpec(kind="kalish", grid_size=M, name=name)


def scalar_shift_system(scalar: complex, dimension: int, name: str = "") -> SystemSpec:
    return SystemSpec(kind="scalar_multiple_shift", scalar=complex(scalar),
                      dimension=dimension, name=name)


def weighted_shift_system(weights: Sequence[float], name: str = "") -> SystemSpec:
    weights = tuple(float(w) for w in weights)
    return SystemSpec(kind="weighted_shift", weights=weights,
                      dimension=len(weights) + 1, name=name)


def torus_system(angles: Sequence[float], name: str = "") -> SystemSpec:
    return SystemSpec(kind="torus_rotation",
                      angles=tuple(float(a) for a in angles), name=name)


def norms(spec: SystemSpec, X: np.ndarray) -> np.ndarray:
    """Norms of the states along the last axis of X: the arc-length norm
    for kalish (grid weight 2pi/M), the norm of x for a shift's symbol
    coordinates y (_Shift), the Euclidean norm for the torus."""
    return spec.ops.norms(np.asarray(X))


def state_norm(spec: SystemSpec, state: np.ndarray) -> float:
    return float(norms(spec, state))


def step(spec: SystemSpec, state: np.ndarray) -> np.ndarray:
    """One step of T (the kind class's step)."""
    return spec.ops.step(state)


def n_step_map(spec: SystemSpec, state: np.ndarray, n: int) -> np.ndarray:
    """T^n by closed form where one exists, otherwise by the guarded walk.
    Used for independent witness re-verification."""
    if n < 0:
        raise ValueError("n_step_map takes n >= 0")
    return spec.ops.n_step_map(np.asarray(state), n)


def default_start(spec: SystemSpec, seed: int) -> np.ndarray:
    """Transitive-looking start vectors (the kind class's start)."""
    return spec.ops.start(spec.label, seed)


def default_gauss_model(M: int) -> GaussModel:
    """Shared 8-node corrected-eigenvector model over the uniform measure,
    built once per grid by the cached _default_model.  This name stays a
    plain function, which perfbench's tracer wraps, so it sees each call,
    hit or build."""
    return _default_model(M)


@cache
def _default_model(M: int) -> GaussModel:
    # bins: a power of two, so any grid M >= 8 gets a model
    sigma = CircleMeasure.uniform(1.0, bins=1 << (min(M, 1024).bit_length() - 1))
    return build_model(corrected_field(sigma, 8, M))


@dataclass(frozen=True)
class Trajectory:
    spec: SystemSpec
    states: np.ndarray  # (length, state_dim)

    @property
    def length(self) -> int:
        return int(self.states.shape[0])

    def norms(self) -> np.ndarray:
        return norms(self.spec, self.states)


def _as_state(spec: SystemSpec, x, name: str = "start") -> np.ndarray:
    """x as a state of spec, the one check of a start or a ball center:
    its shape is (state_dim,) and every coordinate is finite."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (spec.state_dim,):
        raise ValueError(f"{name} has shape {x.shape}, spec wants ({spec.state_dim},)")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{name} coordinate {bad[0]} is {x[bad[0]]}, not finite")
    return x


def orbit(spec: SystemSpec, x0: np.ndarray, n_steps: int) -> Trajectory:
    """[x0, Tx0, ..., T^n x0] from the guarded walk, stored."""
    walker = walk(partial(step, spec), _as_state(spec, x0), n_steps,
                  partial(state_norm, spec))
    states = np.empty((n_steps + 1, spec.state_dim), dtype=complex)
    for t, x in enumerate(walker):
        states[t] = x
    return Trajectory(spec=spec, states=states)


@dataclass(frozen=True)
class OrbitRows:
    """What the probes read of one orbit of orbit_rows: its norm row, its
    states at the keep times, and the distance row to the state at each
    center time, every row from the kind's rows hook."""

    spec: SystemSpec
    norm_row: np.ndarray  # (length,)
    snapshots: dict  # keep time -> state
    rows: dict  # center time -> (length,) distances to its state

    @property
    def length(self) -> int:
        return int(self.norm_row.size)


def orbit_rows(spec: SystemSpec, x0: np.ndarray, n_steps: int,
               centers, keep=()) -> OrbitRows:
    """The orbit [x0, ..., T^n x0] streamed (see the module docstring): its
    norm row, its states at the keep times, and the distance row of every
    state to the state at each center time.  walk's drift guard reads the
    norm row once it is finished."""
    x0 = _as_state(spec, x0)
    # walk checks n_steps now; the guard walks the time index, its norm
    # read from the norm row, rows[0], once the kernel has written it
    guard = walk(lambda t: t + 1, 0, n_steps, lambda t: rows[0, t])
    for t in [*centers, *keep]:
        _require(isinstance(t, (int, np.integer)) and not isinstance(t, bool),
                 f"orbit time {t} is not an integer")
        _require(0 <= t <= n_steps, f"orbit time {t} is outside [0, {n_steps}]")
    centers = sorted(set(centers))
    rows, snapshots = _rows(spec, x0, n_steps, centers, keep)
    deque(guard, maxlen=0)  # walks the finished norm row
    return OrbitRows(spec, rows[0], snapshots, dict(zip(centers, rows[1:])))


def _rows(spec: SystemSpec, x: np.ndarray, n: int, centers: list, keep=(),
          back: bool = False):
    """(rows, snapshots): the distance rows of x, Tx, ..., T^n x (of x, Rx,
    ..., R^n x with back=True) to the origin, the norm row, and to the
    state at each center time; and the states T^t x at the keep times.
    Every block and every center row comes from the kind's rows hook, a
    center row by its own one-row call, bitwise its row in the block."""
    width, rows_of = spec.ops.rows(x, n, back)
    points = [np.zeros(width, dtype=complex), *(rows_of(t, t + 1)[0].copy() for t in centers)]
    return (_distance_rows(spec, rows_of, points, n + 1),
            {t: spec.ops.state(x, t) for t in keep})


def _row_buffer(length: int, width: int) -> np.ndarray:
    """A buffer of kalish._block_rows rows of width, at most length: the
    block of a rows hook and each scratch array of the distance kernel."""
    return np.empty((min(_block_rows((length, width)), length), width), dtype=complex)


def _distance_rows(spec: SystemSpec, rows_of, centers, length: int) -> np.ndarray:
    """The one distance kernel: (len(centers), length) distances
    ||x_t - c|| from the states x_0..x_{length-1}, which rows_of(lo, hi)
    gives as rows lo..hi-1, to each center c.  It cuts the blocks itself,
    each as many rows as its one scratch pair, shaped like _row_buffer and
    as wide as the centers and the states, which holds every x_t - c and
    its squared moduli, so a call allocates no block-sized array per block,
    and every center meets a block while it is in cache.  Each block is
    copied into the first and c subtracted in place, one path for a filled
    block and a view's overlapping windows alike (numpy would buffer a
    subtraction from the latter, at twice the time).  Row by row it is
    norms(spec, states - c) bit for bit."""
    centers = [np.asarray(c, dtype=complex) for c in centers]
    out = np.empty((len(centers), length))
    diff = _row_buffer(length, centers[0].shape[-1])
    square = np.empty_like(diff, dtype=spec.ops.square)
    for lo in range(0, length, len(diff)):
        hi = min(lo + len(diff), length)
        block, d, s = rows_of(lo, hi), diff[:hi - lo], square[:hi - lo]
        for row, c in zip(out, centers):
            np.copyto(d, block)
            row[lo:hi] = spec.ops.norms(np.subtract(d, c, out=d), s)
    return out


class _ProbeTimes(NamedTuple):
    """The orbit times the probes of classify_system read, in one place,
    so the streamed orbit holds every row and state a probe asks for.  The
    start, time 0, is always a center: the chaotic column's returns and
    the reference ball's radius read its row."""

    family: list  # e_system's ball centers; none for kalish (Gauss model)
    reference: int  # center of the syndetic and ufh reference ball
    middle: int  # weak mixing's V center: a state, no row

    @property
    def centers(self) -> list:
        return [0, *self.family, self.reference]


def _probe_times(spec: SystemSpec, length: int) -> _ProbeTimes:
    """The _ProbeTimes of a window of length states."""
    return _ProbeTimes(family=_spread_times(length, spec.ops.balls),
                       reference=length // 10, middle=length // 2)


def probe_orbit(spec: SystemSpec, x0: np.ndarray, n_steps: int) -> OrbitRows:
    """orbit_rows with every row and state the probes read (_probe_times)."""
    times = _probe_times(spec, n_steps + 1)
    return orbit_rows(spec, x0, n_steps, centers=times.centers, keep=[times.middle])


@dataclass(frozen=True)
class BallSpec:
    """Open norm ball in the system's state space."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        _require(self.radius > 0, f"radius must be positive, got {self.radius!r}")


def hitting_times(traj: Trajectory, ball: BallSpec) -> WindowedSet:
    """Times t with ||x_t - center|| < radius; window = trajectory length."""
    center = _as_state(traj.spec, ball.center, "ball center")
    dist = _distance_rows(traj.spec, lambda lo, hi: traj.states[lo:hi], [center],
                          traj.length)[0]
    return WindowedSet.from_mask(dist < ball.radius)


@dataclass(frozen=True)
class ReturnSetReport:
    passed: bool
    visits: int
    pairs_checked: int
    replay_error: float
    certified: WindowedSet
    certified_max_gap: int

    def to_dict(self) -> dict:
        return record_dict(self, check="return-set-identity")


def return_set_identity_check(traj: Trajectory, ball: BallSpec,
                              verify_ball: Optional[BallSpec] = None,
                              seed: int = 0) -> ReturnSetReport:
    """Certify difference_set(hitting_times) as transfer times of the
    ball into itself: for sampled visit pairs k > l, independently
    recompute T^{k-l} at the time-l state and confirm it lands back in
    the ball (it must equal the recorded time-k state), for at most 512
    pairs.  verify_ball lets a test aim the membership check at a
    different ball, which is the negative control."""
    verify_ball = verify_ball or ball
    verify_center = _as_state(traj.spec, verify_ball.center, "ball center")
    max_witness_pairs = 512
    visits = hitting_times(traj, ball)
    if visits.size < 2:
        raise ValueError("return-set identity needs at least 2 visits")
    n_visits = visits.size
    total_pairs = n_visits * (n_visits - 1) // 2
    if total_pairs > max_witness_pairs:
        # dense balls on long trajectories have O(V^2) visit pairs, so
        # sample index pairs directly instead of enumerating them all
        rng = rng_for(seed, "return-set-pairs")
        chosen = set()
        while len(chosen) < max_witness_pairs:
            i = int(rng.integers(0, n_visits - 1))
            j = int(rng.integers(i + 1, n_visits))
            chosen.add((i, j))
        pairs = sorted((int(visits.elements[i]), int(visits.elements[j]))
                       for i, j in chosen)
    else:
        pairs = [(int(l), int(k))
                 for i, l in enumerate(visits.elements)
                 for k in visits.elements[i + 1:]]
    spec = traj.spec
    worst = 0.0
    ok = True
    scale = max(float(np.max(traj.norms())), 1e-12)
    for l, k in pairs:
        replayed = n_step_map(spec, traj.states[l], k - l)
        err = state_norm(spec, replayed - traj.states[k]) / scale
        worst = max(worst, err)
        in_ball = state_norm(spec, replayed - verify_center) < verify_ball.radius
        if err > 1e-9 or not in_ball:
            ok = False
    certified = difference_set(visits)
    return ReturnSetReport(
        passed=ok,
        visits=visits.size,
        pairs_checked=len(pairs),
        replay_error=worst,
        certified=certified,
        certified_max_gap=max_gap(certified),
    )


@dataclass(frozen=True)
class ProbeOutcome:
    probe: str
    verdict: str  # yes / no / no-evidence
    grade: str  # exact / statistical / heuristic
    window: int
    seed: int
    evidence: dict

    def to_dict(self) -> dict:
        return record_dict(self)


def periodic_return_probe(traj: OrbitRows, seed: int = 0) -> ProbeOutcome:
    """Near-periodic-return heuristic for the chaotic column: yes when a
    relative return ||x_p - x_0|| / ||x_0||, p <= 64, is below eps =
    0.02.  best_period is the first such p (else the argmin), so returns
    at round-off, as at each multiple of a period, cannot trade places.
    For kalish the harness start lives in a rational-angle eigenvector
    span (the default model's nodes sit on dyadic grid angles), so a
    genuine short period exists and the probe is expected to find it;
    irrational rotations and nilpotent shifts produce no near-returns."""
    if traj.length < 2:
        return _static_orbit("chaotic", "heuristic", traj, seed,
                             "orbit has one state: no return time to test")
    eps = 0.02
    scale = max(float(traj.norm_row[0]), 1e-12)
    top = min(64, traj.length - 1)
    dists = traj.rows[0][1:top + 1] / scale
    below = np.flatnonzero(dists < eps)
    best = int(below[0] if below.size else np.argmin(dists)) + 1
    best_dist = float(dists[best - 1])
    return ProbeOutcome(
        probe="chaotic",
        verdict="yes" if best_dist < eps else "no",
        grade="heuristic",
        window=traj.length,
        seed=seed,
        evidence={"best_period": best, "best_return": best_dist, "eps": eps},
    )


def ball_radius(distances: np.ndarray) -> float:
    """The 0.35 distance quantile, shrunk below round-off ties of a periodic orbit."""
    return float(np.quantile(distances, 0.35)) * (1.0 - 1e-9)


def _spread_times(length: int, count: int) -> list:
    """count center times spread over a window of length states."""
    return np.linspace(0, length - 1, count).astype(int).tolist()


def _ball_family(traj: OrbitRows, times: list):
    """(rows, radius): the distance rows of balls centered at the orbit
    states at times, and their radius from the pooled quantile of every
    (max(length // 200, 1) | 1)-th distance (so the family adapts to the
    orbit's scale).  The stride is odd, coprime to a power-of-two period:
    at window 8000 a stride of 40 sampled the kalish start's period-16
    orbit only at x_0 and x_8, and its round-off returns set the radius.
    An orbit whose sampled states all coincide gives no radius: None."""
    rows = [traj.rows[t] for t in times]
    samples = [row[:: max(traj.length // 200, 1) | 1] for row in rows]
    pooled = np.concatenate([d[d > 0] for d in samples])
    if pooled.size == 0:
        return None
    return rows, ball_radius(pooled)


def _static_orbit(probe: str, grade: str, traj: OrbitRows, seed: int,
                  note: str = "orbit is constant: no nonzero distance to size "
                              "a test ball"):
    """Typed no-evidence for a ball column whose orbit gives no radius."""
    return ProbeOutcome(probe, "no-evidence", grade, traj.length, seed, {"note": note})


def e_system_probe(traj: OrbitRows, seed: int, mc_samples: int = 10_000) -> ProbeOutcome:
    """Invariant-measure evidence.  For kalish the Gaussian model's
    invariance_check is the witness; for the others, the Birkhoff
    empirical measure must give every test ball positive mass in both
    window halves (a passage in the first half only would be transient,
    not invariant-looking)."""
    model = traj.spec.ops.gauss_model()
    if model is not None:
        report = invariance_check(model, None, count=mc_samples, seed=seed)
        return ProbeOutcome(
            probe="e_system",
            verdict="yes" if report.passed else "no",
            grade="statistical",
            window=mc_samples,
            seed=seed,
            evidence=report.to_dict(),
        )
    family = _ball_family(traj, _probe_times(traj.spec, traj.length).family)
    if family is None:
        return _static_orbit("e_system", "statistical", traj, seed)
    rows, radius = family
    half = traj.length // 2
    masses = []
    ok = True
    for row in rows:
        hits = WindowedSet.from_mask(row < radius)
        first = int(np.sum(hits.elements < half))
        second = int(hits.size - first)
        masses.append([first / max(half, 1), second / max(traj.length - half, 1)])
        if first == 0 or second == 0:
            ok = False
    return ProbeOutcome(
        probe="e_system",
        verdict="yes" if ok else "no",
        grade="statistical",
        window=traj.length,
        seed=seed,
        evidence={"ball_count": len(rows), "half_masses": masses,
                  "radius": radius},
    )


def _reference_visits(traj: OrbitRows):
    """(radius, visits) of the reference ball the syndetic and ufh columns
    share, at the state a tenth into the window, sized by the start's row;
    None if it gets no radius."""
    family = _ball_family(traj, [0])
    if family is None:
        return None
    radius = family[1]
    reference = _probe_times(traj.spec, traj.length).reference
    return radius, WindowedSet.from_mask(traj.rows[reference] < radius)


def syndetic_gap_probe(traj: OrbitRows, reference, seed: int,
                       gap_bound: int = 64) -> ProbeOutcome:
    """Exact window combinatorics: visit gaps of the reference ball
    (_reference_visits) along the orbit.  The verdict is about this window
    only, but the gap numbers themselves are exact."""
    if reference is None:
        return _static_orbit("syndetic", "exact", traj, seed)
    radius, hits = reference
    gap = max_gap(hits)
    return ProbeOutcome(
        probe="syndetic",
        verdict="yes" if gap <= gap_bound else "no",
        grade="exact",
        window=traj.length,
        seed=seed,
        evidence={"max_gap": gap, "gap_bound": gap_bound,
                  "visits": hits.size, "radius": radius,
                  "upper_density": upper_density(hits)},
    )


def weak_mixing_probe(traj: OrbitRows, seed: int) -> ProbeOutcome:
    """Three-open-sets compatibility at window scale on the row's own
    trajectory: U is the start's neighborhood, V a ball around a mid-orbit
    state, W0 a ball around 0, generous for linear systems (their bounded
    recurrent orbits live inside it) and below the torus for rotations
    (whose orbit closure must avoid a true neighborhood of 0).  The orbit's
    visits to W0 are transfer times U -> W0 (thickness evidence), and the
    exact pullbacks of V's center that land in W0 give transfer times
    W0 -> V (syndeticity evidence); compatible iff the two sets meet.  An
    orbit that never enters W0 is reported as no evidence, not invented."""
    spec = traj.spec
    norms = traj.norm_row
    if float(np.median(norms)) == 0.0:
        return _static_orbit("weak_mixing", "heuristic", traj, seed,
                             "orbit is 0 for over half the window: U, V get no radius")
    if spec.is_linear:
        w0_radius = 2.5 * float(np.max(norms))
    else:
        w0_radius = 0.5 * float(np.min(norms))
    # a state's distance to W0's center 0 is its norm
    forward = WindowedSet.from_mask(norms < w0_radius)
    v_center = traj.snapshots[_probe_times(spec, traj.length).middle]
    depth = spec.ops.pullbacks(v_center, traj.length - 1)
    # the pullbacks' norm row, their distance row to W0's center 0
    back_hits = WindowedSet.from_mask(
        _rows(spec, v_center, depth, [], back=True)[0][0] < w0_radius).elements
    backward = WindowedSet(window=forward.window, elements=back_hits[back_hits > 0])
    common = np.intersect1d(forward.elements, backward.elements)
    if forward.size == 0:
        note = "orbit from U never entered W0; no transitive evidence at this window"
    elif backward.size == 0:
        note = "no exact pullback of V's center landed in W0"
    elif not common.size:
        note = "transfer sets observed but disjoint at this window"
    else:
        note = "common transfer time witnessed"
    return ProbeOutcome(
        probe="weak_mixing",
        verdict="yes" if common.size else "no",
        grade="heuristic",
        window=traj.length,
        seed=seed,
        evidence={"check": "three-open-sets", "compatible": bool(common.size),
                  "forward_visits": forward.size,
                  "thick_run": longest_interval(forward),
                  "backward_visits": backward.size,
                  "backward_gap": max_gap(backward),
                  "witness": int(common[0]) if common.size else -1,
                  "window": traj.length, "note": note, "w0_radius": w0_radius},
    )


def ufh_probe(traj: OrbitRows, reference, seed: int) -> ProbeOutcome:
    """Visit-density evidence: positive upper density of visits to the
    reference ball (_reference_visits), with the lower density reported."""
    if reference is None:
        return _static_orbit("ufh", "heuristic", traj, seed)
    _, hits = reference
    ud = upper_density(hits)
    ld = lower_density(hits)
    return ProbeOutcome(
        probe="ufh",
        verdict="yes" if ud > 0 else "no",
        grade="heuristic",
        window=traj.length,
        seed=seed,
        evidence={"upper_density": ud, "lower_density": ld,
                  "visits": hits.size},
    )


def m_system_probe(spec: SystemSpec, seed: int) -> ProbeOutcome:
    """Rank of a family of unimodular eigenvectors, full by construction:
    arc indicators for kalish, coordinate characters for rotations.  The
    kalish family's min(64, max(M // 16, 2)) arcs, from 2pi(k + 1/2)/size
    to 0, are nested, at least M/size >= 4 grid nodes apart, and the last
    is nonempty: a staircase (the tests hold its SVD as the oracle).
    Truncated shifts are nilpotent and own no unimodular eigenvectors, so
    they earn "no-evidence"."""
    tolerance = 1e-8  # the SVD oracle's, relative to the largest singular value
    rank = size = spec.ops.eigen[0]  # torus: the standard basis
    verdict, note = "yes" if size else "no-evidence", spec.ops.eigen[1]
    return ProbeOutcome(
        probe="m_system",
        verdict=verdict,
        grade="heuristic",
        window=size,
        seed=seed,
        evidence={"check": "eigen-span", "rank": rank, "family_size": size,
                  "tolerance": tolerance, "verdict": verdict, "note": note},
    )


@dataclass(frozen=True)
class ClassificationRow:
    system: str
    spec: SystemSpec
    outcomes: dict  # column -> ProbeOutcome
    flags: tuple

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class ClassificationReport:
    rows: tuple
    seed: int
    window: int

    @property
    def flagged(self) -> bool:
        return any(row.flags for row in self.rows)

    def to_dict(self) -> dict:
        return record_dict(self, schema="classification/1", flagged=self.flagged)

    def to_csv(self) -> str:
        return csv_text(["system"] + PROBE_COLUMNS + ["flags"], [
            [row.system] + [row.outcomes[c].verdict for c in PROBE_COLUMNS]
            + [";".join(row.flags) if row.flags else "none"]
            for row in self.rows])


def _implication_closure(linear: bool) -> list:
    active = [(p, q) for p, q, linear_only in EDGES
              if not linear_only or linear]
    closure = set(active)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return sorted(closure)


def implication_flags(outcomes: dict, linear: bool) -> list:
    """Premise yes with conclusion no is flagged when the conclusion's
    evidence grade is at least as strong as the premise's."""
    flags = []
    for p, q in _implication_closure(linear):
        P, Q = outcomes[p], outcomes[q]
        if P.verdict == "yes" and Q.verdict == "no":
            if GRADE_STRENGTH[Q.grade] >= GRADE_STRENGTH[P.grade]:
                flags.append(
                    f"{p}={P.verdict} ({P.grade}) but {q}={Q.verdict} ({Q.grade})"
                )
    return flags


def classify_system(spec: SystemSpec, window: int = 1000, seed: int = 0,
                    mc_samples: int = 10_000,
                    gap_bound: int = 64) -> ClassificationRow:
    """Run all six probes over one shared orbit, streamed from the kind's
    rows hook (probe_orbit), and flag implication violations within the
    grade rules."""
    if window < 1:
        raise ValueError(f"classification window must be >= 1, got {window}")
    traj = probe_orbit(spec, default_start(spec, seed), window)
    reference = _reference_visits(traj)
    outcomes = {
        "chaotic": periodic_return_probe(traj, seed=seed),
        "m_system": m_system_probe(spec, seed=seed),
        "e_system": e_system_probe(traj, seed=seed, mc_samples=mc_samples),
        "syndetic": syndetic_gap_probe(traj, reference, seed=seed,
                                       gap_bound=gap_bound),
        "weak_mixing": weak_mixing_probe(traj, seed=seed),
        "ufh": ufh_probe(traj, reference, seed=seed),
    }
    flags = implication_flags(outcomes, spec.is_linear)
    return ClassificationRow(system=spec.label, spec=spec,
                             outcomes=outcomes, flags=tuple(flags))


def default_battery(window: int = 1000) -> list:
    """The three-exemplar zoo used by the classification harness."""
    alpha = TWO_PI * (np.sqrt(2.0) - 1.0)
    beta = TWO_PI * (np.sqrt(3.0) - 1.0)
    return [
        torus_system((alpha, beta), name="torus-rotation"),
        scalar_shift_system(2.0, window + 128, name="scalar-shift-2"),
        kalish_system(1024, name="kalish-gaussian"),
    ]


def classification_run(systems: Sequence[SystemSpec], window: int = 1000,
                       seed: int = 0, mc_samples: int = 10_000,
                       gap_bound: int = 64) -> ClassificationReport:
    rows = tuple(
        classify_system(spec, window=window, seed=seed,
                        mc_samples=mc_samples, gap_bound=gap_bound)
        for spec in systems
    )
    return ClassificationReport(rows=rows, seed=seed, window=window)
