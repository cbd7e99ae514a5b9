"""Orbit simulation, visit-time extraction, and the classification harness.

The operator zoo holds four kinds of system:

* kalish(M): the grid Kalish operator on complex functions over M nodes,
  with the arc-length norm.
* scalar_multiple_shift(lam, d): lam times the backward shift on C^d
  (truncation of the classical hypercyclic exemplar; nilpotent, so desk
  runs keep d comfortably above the window length).
* weighted_shift(weights): backward shift with positive weights w_1..w_{d-1},
  (Tx)_i = w_{i+1} x_{i+1}.
* torus_rotation(angles): coordinatewise rotation z_i -> e^{i alpha_i} z_i
  on unimodular states.  Treated as a compact-group system, not a linear
  one: it has no fixed point at 0 reachable from the torus, so the
  linear-only implication edges stay inactive for it.

Verdicts carry an evidence grade: "exact" for combinatorial facts about
the simulated window, "statistical" for Monte-Carlo checks with stated
tolerances, "heuristic" for window proxies of asymptotic properties.
The implication checker flags a yes-premise/no-conclusion pair only when
the conclusion's grade is at least as strong as the premise's: a window
heuristic is never allowed to overturn an exact or statistical verdict,
while an exact failure does overturn a heuristic claim.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circle_measure import CircleMeasure
from .gauss_model import (
    GaussModel,
    NormDriftError,
    build_model,
    corrected_field,
    invariance_check,
)
from .hitting_sets import (
    WindowedSet,
    difference_set,
    longest_interval,
    lower_density,
    max_gap,
    upper_density,
)
# apply_T is unused but kept bound: perfbench patches every binding
from .kalish import (  # noqa: F401
    apply_T, apply_T_array, chi, grid_norms, kalish_solve_array)
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
    """One zoo member; exactly the fields its kind needs are set."""

    kind: str
    grid_size: int = 0
    dimension: int = 0
    scalar: complex = 0.0
    weights: tuple = ()
    angles: tuple = ()
    name: str = ""

    def __post_init__(self):
        if self.kind == "kalish":
            if self.grid_size < 8:
                raise ValueError("kalish needs grid_size >= 8")
        elif self.kind == "scalar_multiple_shift":
            if self.dimension < 1:
                raise ValueError("shift dimension must be >= 1")
            if abs(self.scalar) <= 0:
                raise ValueError("scalar must be nonzero")
        elif self.kind == "weighted_shift":
            if self.dimension < 1:
                raise ValueError("shift dimension must be >= 1")
            if len(self.weights) != max(self.dimension - 1, 0):
                raise ValueError("need dimension-1 weights")
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")
        elif self.kind == "torus_rotation":
            if len(self.angles) < 1:
                raise ValueError("torus needs at least one angle")
            if any(not (0.0 <= a < TWO_PI) for a in self.angles):
                raise ValueError("angles must lie in [0, 2pi)")
        else:
            raise ValueError(f"unknown system kind {self.kind!r}")

    @property
    def state_dim(self) -> int:
        if self.kind == "kalish":
            return self.grid_size
        if self.kind == "torus_rotation":
            return len(self.angles)
        return self.dimension

    @property
    def is_linear(self) -> bool:
        return self.kind != "torus_rotation"

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "kalish":
            return f"kalish-{self.grid_size}"
        if self.kind == "scalar_multiple_shift":
            return f"scalar-shift-{self.scalar.real:g}-d{self.dimension}"
        if self.kind == "weighted_shift":
            return f"weighted-shift-d{self.dimension}"
        return "torus-rotation-" + "x".join(f"{a:.3f}" for a in self.angles)

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind == "kalish":
            doc["grid"] = self.grid_size
        elif self.kind == "scalar_multiple_shift":
            doc["scalar"] = [self.scalar.real, self.scalar.imag]
            doc["dimension"] = self.dimension
        elif self.kind == "weighted_shift":
            doc["weights"] = list(self.weights)
            doc["dimension"] = self.dimension
        else:
            doc["angles"] = list(self.angles)
        if self.name:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SystemSpec":
        kind = doc["kind"]
        name = doc.get("name", "")
        if kind == "kalish":
            return cls(kind=kind, grid_size=int(doc["grid"]), name=name)
        if kind == "scalar_multiple_shift":
            s = doc["scalar"]
            scalar = complex(s[0], s[1]) if isinstance(s, list) else complex(s)
            return cls(kind=kind, scalar=scalar,
                       dimension=int(doc["dimension"]), name=name)
        if kind == "weighted_shift":
            weights = tuple(float(w) for w in doc["weights"])
            return cls(kind=kind, weights=weights,
                       dimension=int(doc["dimension"]), name=name)
        if kind == "torus_rotation":
            return cls(kind=kind, angles=tuple(float(a) for a in doc["angles"]),
                       name=name)
        raise ValueError(f"unknown system kind {kind!r}")


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
    for kalish (grid weight 2pi/M), the Euclidean norm otherwise."""
    if spec.kind == "kalish":
        return grid_norms(X, axis=-1)
    return np.linalg.norm(X, axis=-1)


def state_norm(spec: SystemSpec, state: np.ndarray) -> float:
    return float(norms(spec, state))


def step(spec: SystemSpec, state: np.ndarray) -> np.ndarray:
    if spec.kind == "kalish":
        return apply_T_array(state)
    if spec.kind == "scalar_multiple_shift":
        out = np.zeros_like(state)
        out[:-1] = spec.scalar * state[1:]
        return out
    if spec.kind == "weighted_shift":
        out = np.zeros_like(state)
        out[:-1] = np.asarray(spec.weights) * state[1:]
        return out
    return state * np.exp(1j * np.asarray(spec.angles))


def _shift_log_products(spec: SystemSpec) -> np.ndarray:
    """log W_i for W_i = product of the first i weights (W_0 = 1).
    Kept in log form because W_i itself can overflow the float range
    long before any state coordinate does."""
    d = spec.dimension
    if spec.kind == "scalar_multiple_shift":
        return np.arange(d) * np.log(complex(spec.scalar))
    logs = np.concatenate([[0.0], np.log(np.asarray(spec.weights, dtype=float))])
    return np.cumsum(logs).astype(complex)


def _scaled_slide(state: np.ndarray, n: int, logW: np.ndarray) -> np.ndarray:
    """out_i = state_{i+n} * W_{i+n} / W_i, fused in log space so the
    weight ratio and the decaying coordinate never meet as inf * 0."""
    d = state.size
    out = np.zeros_like(state)
    if n >= d:
        return out
    src = state[n:]
    nz = src != 0
    if np.any(nz):
        with np.errstate(divide="ignore"):
            exponent = np.log(src[nz]) + logW[n:][nz] - logW[: d - n][nz]
        vals = np.zeros(int(np.sum(nz)), dtype=complex)
        ok = exponent.real < 700.0  # beyond this the true value overflows anyway
        vals[ok] = np.exp(exponent[ok])
        if np.any(~ok):
            raise NormDriftError("shift replay overflowed the float range")
        dest = out[: d - n]
        dest[nz] = vals
    return out


def n_step_map(spec: SystemSpec, state: np.ndarray, n: int) -> np.ndarray:
    """T^n by closed form where one exists, otherwise by iteration.
    Used for independent witness re-verification."""
    if n < 0:
        raise ValueError("n_step_map takes n >= 0")
    if spec.kind == "torus_rotation":
        return state * np.exp(1j * n * np.asarray(spec.angles))
    if spec.kind in ("scalar_multiple_shift", "weighted_shift"):
        return _scaled_slide(np.asarray(state, dtype=complex), n,
                             _shift_log_products(spec))
    out = state
    for _ in range(n):
        out = step(spec, out)
    return out


def default_start(spec: SystemSpec, seed: int) -> np.ndarray:
    """Transitive-looking start vectors: a Gaussian sample for kalish,
    a randomized dense-support vector x_i = r_i / W_i for shifts (so the
    orbit slides a fresh symbol window across the visible coordinates),
    and the all-ones point for torus rotations."""
    if spec.kind == "kalish":
        model = default_gauss_model(spec.grid_size)
        rng = rng_for(seed, f"start:{spec.label}")
        g = complex_standard_normal(rng, (model.node_count,))
        return model.factor @ g
    if spec.kind in ("scalar_multiple_shift", "weighted_shift"):
        rng = rng_for(seed, f"start:{spec.label}")
        r = complex_standard_normal(rng, (spec.dimension,))
        logW = _shift_log_products(spec)
        with np.errstate(divide="ignore", under="ignore"):
            x = r * np.exp(-logW)  # underflows to exact 0 deep in the tail
        x[np.abs(x) < 1e-280] = 0.0
        return x
    return np.ones(len(spec.angles), dtype=complex)


_MODEL_CACHE: dict = {}


def default_gauss_model(M: int, nodes: int = 8) -> GaussModel:
    """Shared corrected-eigenvector model over the uniform measure."""
    key = (M, nodes)
    if key not in _MODEL_CACHE:
        sigma = CircleMeasure.uniform(1.0, bins=min(M, 1024))
        _MODEL_CACHE[key] = build_model(corrected_field(sigma, nodes, M))
    return _MODEL_CACHE[key]


@dataclass(frozen=True)
class Trajectory:
    spec: SystemSpec
    states: np.ndarray  # (length, state_dim)

    @property
    def length(self) -> int:
        return int(self.states.shape[0])

    def state(self, t: int) -> np.ndarray:
        return self.states[t]

    def norms(self) -> np.ndarray:
        return norms(self.spec, self.states)


def orbit(spec: SystemSpec, x0: np.ndarray, n_steps: int,
          drift_factor: float = 1e3) -> Trajectory:
    """[x0, Tx0, ..., T^n x0] with the norm-drift guard active."""
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (spec.state_dim,):
        raise ValueError(
            f"start has shape {x0.shape}, spec wants ({spec.state_dim},)"
        )
    guard = drift_factor * max(state_norm(spec, x0), 1e-12)
    states = np.empty((n_steps + 1, spec.state_dim), dtype=complex)
    states[0] = x0
    x = x0
    for t in range(1, n_steps + 1):
        x = step(spec, x)
        if state_norm(spec, x) > guard:
            raise NormDriftError(
                f"norm drift guard tripped at step {t}: "
                f"{state_norm(spec, x):.3e} > {guard:.3e}"
            )
        states[t] = x
    return Trajectory(spec=spec, states=states)


@dataclass(frozen=True)
class BallSpec:
    """Open norm ball in the system's state space."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")


def hitting_times(traj: Trajectory, ball: BallSpec) -> WindowedSet:
    """Times t with ||x_t - center|| < radius; window = trajectory length."""
    dist = norms(traj.spec,
                 traj.states - np.asarray(ball.center, dtype=complex)[None, :])
    hits = np.nonzero(dist < ball.radius)[0]
    return WindowedSet(window=traj.length, elements=hits.astype(np.int64))


@dataclass(frozen=True)
class BirkhoffReport:
    checkpoints: tuple
    averages: dict  # name -> list of complex averages, one per checkpoint
    cauchy_gaps: dict  # name -> |avg at last - avg at previous|

    def to_dict(self) -> dict:
        return {
            "check": "birkhoff",
            "checkpoints": list(self.checkpoints),
            "averages": {
                k: [[v.real, v.imag] for v in vals]
                for k, vals in self.averages.items()
            },
            "cauchy_gaps": dict(self.cauchy_gaps),
        }


def birkhoff_probe(traj: Trajectory, test_functions: Sequence,
                   checkpoints: Sequence[int]) -> BirkhoffReport:
    """Empirical-measure averages (1/n) sum_{j<n} f(x_j) at each
    checkpoint, with the Cauchy gap between the last two checkpoints as
    the quasi-generic diagnostic.  test_functions: (name, state -> value)."""
    checkpoints = tuple(sorted(set(int(n) for n in checkpoints)))
    if not checkpoints or checkpoints[0] < 1 or checkpoints[-1] > traj.length:
        raise ValueError("checkpoints must lie in [1, trajectory length]")
    averages = {}
    gaps = {}
    for name, fn in test_functions:
        values = np.asarray([fn(traj.states[t]) for t in range(traj.length)],
                            dtype=complex)
        cums = np.cumsum(values)
        avgs = [complex(cums[n - 1] / n) for n in checkpoints]
        averages[name] = avgs
        gaps[name] = (
            float(abs(avgs[-1] - avgs[-2])) if len(avgs) >= 2 else 0.0
        )
    return BirkhoffReport(checkpoints=checkpoints, averages=averages,
                          cauchy_gaps=gaps)


@dataclass(frozen=True)
class ReturnSetReport:
    passed: bool
    visits: int
    pairs_checked: int
    replay_error: float
    certified: WindowedSet
    certified_max_gap: int

    def to_dict(self) -> dict:
        return {
            "check": "return-set-identity",
            "passed": self.passed,
            "visits": self.visits,
            "pairs_checked": self.pairs_checked,
            "replay_error": self.replay_error,
            "certified": self.certified.to_dict(),
            "certified_max_gap": self.certified_max_gap,
        }


def return_set_identity_check(traj: Trajectory, ball: BallSpec,
                              verify_ball: Optional[BallSpec] = None,
                              max_witness_pairs: int = 512,
                              seed: int = 0) -> ReturnSetReport:
    """Certify difference_set(hitting_times) as transfer times of the
    ball into itself: for sampled visit pairs k > l, independently
    recompute T^{k-l} at the time-l state and confirm it lands back in
    the ball (it must equal the recorded time-k state).  verify_ball
    lets a test aim the membership check at a different ball, which is
    the negative control."""
    verify_ball = verify_ball or ball
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
        in_ball = state_norm(
            spec, replayed - np.asarray(verify_ball.center, dtype=complex)
        ) < verify_ball.radius
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


def _pullback_step(spec: SystemSpec, state: np.ndarray) -> np.ndarray:
    """One right-inverse step: T(pullback(y)) = y exactly (up to
    truncation loss for shifts, which the caller monitors)."""
    if spec.kind == "kalish":
        return kalish_solve_array(state)
    if spec.kind == "torus_rotation":
        return state * np.exp(-1j * np.asarray(spec.angles))
    out = np.zeros_like(state)
    if spec.kind == "scalar_multiple_shift":
        out[1:] = state[:-1] / spec.scalar
    else:
        out[1:] = state[:-1] / np.asarray(spec.weights)
    return out


@dataclass(frozen=True)
class ThreeOpenSetsReport:
    compatible: bool
    forward_visits: int
    thick_run: int
    backward_visits: int
    backward_gap: int
    witness: int  # smallest common transfer time, -1 if none
    window: int
    note: str

    def to_dict(self) -> dict:
        return {
            "check": "three-open-sets",
            "compatible": self.compatible,
            "forward_visits": self.forward_visits,
            "thick_run": self.thick_run,
            "backward_visits": self.backward_visits,
            "backward_gap": self.backward_gap,
            "witness": self.witness,
            "window": self.window,
            "note": self.note,
        }


def three_open_sets_probe(spec: SystemSpec, U: BallSpec, V: BallSpec,
                          W0: BallSpec, n_steps: int,
                          seed: int = 0) -> ThreeOpenSetsReport:
    """Weak-mixing compatibility at window scale: collect transfer times
    U -> W0 from a simulated orbit started inside U (thickness evidence)
    and transfer times W0 -> V from exact pullbacks of V's center
    (syndeticity evidence); compatible iff the two sets intersect.
    An empty forward visit set is reported as no evidence, not invented."""
    traj = orbit(spec, np.asarray(U.center, dtype=complex), n_steps)
    forward = hitting_times(traj, W0)
    # shift pullbacks push support deeper; past the dimension they lose
    # mass and stop being exact witnesses, so the scan stops there
    if spec.kind in ("scalar_multiple_shift", "weighted_shift"):
        support = np.nonzero(np.abs(np.asarray(V.center)) > 0)[0]
        deepest = int(support[-1]) if support.size else 0
        exact_limit = max(spec.dimension - 1 - deepest, 0)
    else:
        exact_limit = n_steps
    back_hits = []
    y = np.asarray(V.center, dtype=complex)
    for n in range(1, min(n_steps, exact_limit) + 1):
        y = _pullback_step(spec, y)
        if state_norm(spec, y - np.asarray(W0.center, dtype=complex)) < W0.radius:
            back_hits.append(n)
    backward = WindowedSet.from_iterable(n_steps + 1, back_hits)
    common = sorted(set(forward.elements.tolist()) & set(back_hits))
    if forward.size == 0:
        note = "orbit from U never entered W0; no transitive evidence at this window"
    elif backward.size == 0:
        note = "no exact pullback of V's center landed in W0"
    elif not common:
        note = "transfer sets observed but disjoint at this window"
    else:
        note = "common transfer time witnessed"
    return ThreeOpenSetsReport(
        compatible=bool(common),
        forward_visits=forward.size,
        thick_run=longest_interval(forward),
        backward_visits=backward.size,
        backward_gap=max_gap(backward),
        witness=int(common[0]) if common else -1,
        window=n_steps + 1,
        note=note,
    )


@dataclass(frozen=True)
class EigenSpanReport:
    rank: int
    family_size: int
    tolerance: float
    verdict: str  # yes / no-evidence
    note: str

    def to_dict(self) -> dict:
        return {
            "check": "eigen-span",
            "rank": self.rank,
            "family_size": self.family_size,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "note": self.note,
        }


def eigen_span_probe(spec: SystemSpec, tolerance: float = 1e-8,
                     family_size: int = 0) -> EigenSpanReport:
    """Numerical rank of a family of unimodular eigenvectors: arc
    indicators for kalish, coordinate characters for rotations.
    Truncated shifts are nilpotent and own no unimodular eigenvectors,
    so they earn "no-evidence"."""
    if spec.kind == "kalish":
        M = spec.grid_size
        m = family_size or min(64, max(M // 16, 2))
        angles = TWO_PI * (np.arange(m) + 0.5) / m
        mat = np.column_stack([chi(a, M).values for a in angles])
        sv = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(sv > tolerance * sv[0]))
        verdict = "yes" if rank == m else "no"
        return EigenSpanReport(rank=rank, family_size=m, tolerance=tolerance,
                               verdict=verdict,
                               note="arc-indicator family at grid scale")
    if spec.kind == "torus_rotation":
        k = len(spec.angles)
        rank = k  # coordinate characters are the standard basis
        return EigenSpanReport(rank=rank, family_size=k, tolerance=tolerance,
                               verdict="yes",
                               note="coordinate characters span the state space")
    return EigenSpanReport(rank=0, family_size=0, tolerance=tolerance,
                           verdict="no-evidence",
                           note="truncated shift is nilpotent: "
                                "no unimodular eigenvectors")


@dataclass(frozen=True)
class ProbeOutcome:
    probe: str
    verdict: str  # yes / no / no-evidence
    grade: str  # exact / statistical / heuristic
    window: int
    seed: int
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "probe": self.probe,
            "verdict": self.verdict,
            "grade": self.grade,
            "window": self.window,
            "seed": self.seed,
            "evidence": self.evidence,
        }


def periodic_return_probe(traj: Trajectory, max_period: int = 64,
                          eps: float = 0.02, seed: int = 0) -> ProbeOutcome:
    """Near-periodic-return heuristic for the chaotic column: smallest
    relative return distance ||x_p - x_0|| / ||x_0|| over p <= max_period.
    For kalish the harness start lives in a rational-angle eigenvector
    span (the default model's nodes sit on dyadic grid angles), so a
    genuine short period exists and the probe is expected to find it;
    irrational rotations and nilpotent shifts produce no near-returns."""
    x0 = traj.states[0]
    scale = max(state_norm(traj.spec, x0), 1e-12)
    top = min(max_period, traj.length - 1)
    dists = norms(traj.spec, traj.states[1:top + 1] - x0) / scale
    best = int(np.argmin(dists)) + 1
    best_dist = float(dists[best - 1])
    return ProbeOutcome(
        probe="chaotic",
        verdict="yes" if best_dist < eps else "no",
        grade="heuristic",
        window=traj.length,
        seed=seed,
        evidence={"best_period": best, "best_return": best_dist, "eps": eps},
    )


def _ball_family(traj: Trajectory, count: int, radius_quantile: float = 0.35):
    """Balls centered at spread orbit snapshots, radius from the pooled
    distance quantile (so the family adapts to the orbit's scale).  An
    orbit whose sampled states all coincide gives no radius: empty list."""
    idx = np.linspace(0, traj.length - 1, count).astype(int)
    centers = [traj.states[i] for i in idx]
    sample = traj.states[:: max(traj.length // 200, 1)]
    dists = [norms(traj.spec, sample - c[None, :]) for c in centers]
    pooled = np.concatenate([d[d > 0] for d in dists])
    if pooled.size == 0:
        return []
    radius = float(np.quantile(pooled, radius_quantile))
    return [BallSpec(center=c, radius=radius) for c in centers]


def _static_orbit(probe: str, grade: str, traj: Trajectory, seed: int,
                  note: str = "orbit is constant: no nonzero distance to size "
                              "a test ball"):
    """Typed no-evidence for a ball column whose orbit gives no radius."""
    return ProbeOutcome(probe, "no-evidence", grade, traj.length, seed, {"note": note})


def e_system_probe(spec: SystemSpec, traj: Trajectory, seed: int,
                   mc_samples: int = 10_000) -> ProbeOutcome:
    """Invariant-measure evidence.  For kalish the Gaussian model's
    invariance_check is the witness; for the others, the Birkhoff
    empirical measure must give every test ball positive mass in both
    window halves (a passage in the first half only would be transient,
    not invariant-looking)."""
    if spec.kind == "kalish":
        model = default_gauss_model(spec.grid_size)
        report = invariance_check(model, None, count=mc_samples, seed=seed)
        return ProbeOutcome(
            probe="e_system",
            verdict="yes" if report.passed else "no",
            grade="statistical",
            window=mc_samples,
            seed=seed,
            evidence=report.to_dict(),
        )
    balls = _ball_family(traj, count=6)
    if not balls:
        return _static_orbit("e_system", "statistical", traj, seed)
    half = traj.length // 2
    masses = []
    ok = True
    for ball in balls:
        hits = hitting_times(traj, ball)
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
        evidence={"ball_count": len(balls), "half_masses": masses,
                  "radius": balls[0].radius},
    )


def syndetic_gap_probe(spec: SystemSpec, traj: Trajectory, seed: int,
                       gap_bound: int = 64) -> ProbeOutcome:
    """Exact window combinatorics: visit gaps of a coarse reference ball
    along the orbit.  The verdict is about this window only, but the gap
    numbers themselves are exact."""
    ref_time = traj.length // 10
    balls = _ball_family(traj, count=1)
    if not balls:
        return _static_orbit("syndetic", "exact", traj, seed)
    ball = BallSpec(center=traj.states[ref_time], radius=balls[0].radius)
    hits = hitting_times(traj, ball)
    gap = max_gap(hits)
    return ProbeOutcome(
        probe="syndetic",
        verdict="yes" if gap <= gap_bound else "no",
        grade="exact",
        window=traj.length,
        seed=seed,
        evidence={"max_gap": gap, "gap_bound": gap_bound,
                  "visits": hits.size, "radius": ball.radius,
                  "upper_density": upper_density(hits)},
    )


def weak_mixing_probe(spec: SystemSpec, traj: Trajectory,
                      seed: int) -> ProbeOutcome:
    """Three-open-sets compatibility with the harness ball policy:
    U around the start, V around a mid-orbit state, W0 around 0 sized
    generously for linear systems (their bounded recurrent orbits live
    inside it) and below the torus for rotations (whose orbit closure
    must avoid a true neighborhood of 0)."""
    norms = traj.norms()
    scale = float(np.median(norms))
    if scale == 0.0:
        return _static_orbit("weak_mixing", "heuristic", traj, seed,
                             "orbit is 0 for over half the window: U, V get no radius")
    if spec.is_linear:
        w0_radius = 2.5 * float(np.max(norms))
    else:
        w0_radius = 0.5 * float(np.min(norms))
    U = BallSpec(center=traj.states[0], radius=0.3 * scale)
    V = BallSpec(center=traj.states[traj.length // 2], radius=0.3 * scale)
    W0 = BallSpec(center=np.zeros(spec.state_dim, dtype=complex),
                  radius=w0_radius)
    report = three_open_sets_probe(spec, U, V, W0, traj.length - 1, seed=seed)
    return ProbeOutcome(
        probe="weak_mixing",
        verdict="yes" if report.compatible else "no",
        grade="heuristic",
        window=report.window,
        seed=seed,
        evidence=report.to_dict() | {"w0_radius": w0_radius},
    )


def ufh_probe(spec: SystemSpec, traj: Trajectory, seed: int) -> ProbeOutcome:
    """Visit-density evidence: positive upper density of visits to the
    reference ball (upper-frequent), with the lower density reported."""
    balls = _ball_family(traj, count=1)
    if not balls:
        return _static_orbit("ufh", "heuristic", traj, seed)
    ball = BallSpec(center=traj.states[traj.length // 10], radius=balls[0].radius)
    hits = hitting_times(traj, ball)
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
    report = eigen_span_probe(spec)
    return ProbeOutcome(
        probe="m_system",
        verdict=report.verdict,
        grade="heuristic",
        window=report.family_size,
        seed=seed,
        evidence=report.to_dict(),
    )


@dataclass(frozen=True)
class ClassificationRow:
    system: str
    spec: SystemSpec
    outcomes: dict  # column -> ProbeOutcome
    flags: tuple

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "spec": self.spec.to_dict(),
            "outcomes": {k: v.to_dict() for k, v in self.outcomes.items()},
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class ClassificationReport:
    rows: tuple
    seed: int
    window: int

    @property
    def flagged(self) -> bool:
        return any(row.flags for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "schema": "classification/1",
            "seed": self.seed,
            "window": self.window,
            "rows": [row.to_dict() for row in self.rows],
            "flagged": self.flagged,
        }

    def to_csv(self) -> str:
        header = ["system"] + PROBE_COLUMNS + ["flags"]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [row.system]
            cells += [row.outcomes[c].verdict for c in PROBE_COLUMNS]
            cells.append(";".join(row.flags) if row.flags else "none")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


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
    """Run all six probes over one shared trajectory and flag
    implication violations within the grade rules."""
    start = default_start(spec, seed)
    traj = orbit(spec, start, window)
    outcomes = {
        "chaotic": periodic_return_probe(traj, seed=seed),
        "m_system": m_system_probe(spec, seed=seed),
        "e_system": e_system_probe(spec, traj, seed=seed, mc_samples=mc_samples),
        "syndetic": syndetic_gap_probe(spec, traj, seed=seed,
                                       gap_bound=gap_bound),
        "weak_mixing": weak_mixing_probe(spec, traj, seed=seed),
        "ufh": ufh_probe(spec, traj, seed=seed),
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
