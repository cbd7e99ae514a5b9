"""Outside-in span recorder for the traced benchmark run.

``traced`` wraps every public function defined in each layer module of the
package, at every place the package binds it (``from .x import y`` makes a
second binding that must be patched too), records one span per call, and
restores the originals on exit.  Spans stay in memory; ``pass_metrics``
turns one pass's spans into the per-layer metrics.

Self time of a span is its duration minus the child spans in other layers.
A layer's self time is the time during which its innermost open span
belongs to that layer, so same-layer nesting is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("circle_measure", "kalish", "gauss_model", "hitting_sets",
          "dynamics_lab", "corpora", "seeding", "jsonio", "config", "runner")

# Work counts computed from call arguments: function -> (field, parameter, count).
WORK = {
    "kalish.kalish_solve": ("points", "b", lambda b: b.grid_size),
    "kalish.apply_T": ("points", "f", lambda f: f.grid_size),
    "circle_measure.fourier_coefficient": (
        "bin_terms", "mu",
        lambda mu: (mu.bins if mu.has_density else 0) + mu.atom_count),
    "seeding.complex_standard_normal": (
        "draws", "shape",
        lambda shape: shape if isinstance(shape, int) else math.prod(shape)),
}

# Per-function metrics.  self_s excludes child spans in other layers,
# total_s is inclusive, calls counts spans; other fields sum WORK counts.
FUNCTION_METRICS = {
    "kalish.kalish_solve": ("self_s", "calls", "points"),
    "kalish.apply_T": ("self_s", "calls", "points"),
    "kalish.exact_eigenvector": ("self_s", "calls"),
    "kalish.grid_angles": ("calls",),
    "circle_measure.fourier_coefficient": ("self_s", "calls", "bin_terms"),
    "circle_measure.convolve": ("self_s", "calls"),
    "circle_measure.exp_measure": ("self_s",),
    "circle_measure.mild_mixing_probe": ("self_s",),
    "hitting_sets.upper_banach_density": ("self_s", "calls"),
    "hitting_sets.difference_set": ("self_s", "calls"),
    "gauss_model.corrected_field": ("self_s",),
    "gauss_model.build_model": ("self_s",),
    "gauss_model.invariance_check": ("self_s",),
    "gauss_model.symmetry_check": ("self_s",),
    "gauss_model.matrix_coefficient_mc": ("self_s",),
    "seeding.complex_standard_normal": ("self_s", "draws"),
    "dynamics_lab.orbit": ("self_s",),
    "dynamics_lab.hitting_times": ("self_s",),
    "dynamics_lab.step": ("calls",),
    "dynamics_lab.state_norm": ("calls",),
    "dynamics_lab.periodic_return_probe": ("total_s",),
    "dynamics_lab.m_system_probe": ("total_s",),
    "dynamics_lab.e_system_probe": ("total_s",),
    "dynamics_lab.syndetic_gap_probe": ("total_s",),
    "dynamics_lab.weak_mixing_probe": ("total_s",),
    "dynamics_lab.ufh_probe": ("total_s",),
    "jsonio.write_json": ("self_s",),
}

CACHE_FUNCTION = "dynamics_lab.default_gauss_model"
CACHE_BUILD = "gauss_model.build_model"
HIT_RATIO = f"{CACHE_FUNCTION}.hit_ratio"

# Per-layer metrics measured by the benchmark driver rather than by spans.
RUN_METRICS = ("runner.artifact_bytes", "runner.artifact_files",
               "trace.overhead_ratio")


def metric_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its field name."""
    field = name.rsplit(".", 1)[1]
    if field in ("self_s", "total_s"):
        return "s", "lower"
    if field == "hit_ratio":
        return "ratio", "higher"
    if field == "overhead_ratio":
        return "ratio", "lower"
    if field == "artifact_bytes":
        return "bytes", "lower"
    return "count", "lower"


def layer_metric_names() -> list[str]:
    """Every per-layer metric name the traced run reports, in report order."""
    names = [f"{layer}.{field}" for layer in LAYERS
             for field in ("self_s", "calls")]
    names += [f"{fn}.{field}" for fn, fields in FUNCTION_METRICS.items()
              for field in fields]
    return names + [HIT_RATIO, *RUN_METRICS]


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    pass_id: int
    work: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; spans of one pass share a pass id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def open(self, name: str, layer: str, work: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, self.clock(), float("nan"),
                               parent, self.pass_id, work))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index].end = self.clock()

    def by_pass(self) -> dict[int, list[Span]]:
        """Spans grouped by pass id, re-indexed so parents point inside
        their group (a span's parent always belongs to the same pass)."""
        groups: dict[int, list[Span]] = {}
        where = {}
        for i, s in enumerate(self.spans):
            group = groups.setdefault(s.pass_id, [])
            where[i] = len(group)
            group.append(Span(s.name, s.layer, s.start, s.end,
                              where.get(s.parent, -1), s.pass_id, s.work))
        return groups

    def to_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.pass_id, s.work]
                for s in self.spans]


def public_functions(module) -> dict:
    """Public functions defined in (not imported into) a module."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def _wrap(fn, name: str, layer: str, recorder: Recorder):
    work = WORK.get(name)
    if work is None:
        def count(args, kwargs):
            return 0
    else:
        _, param, measure = work
        position = list(inspect.signature(fn).parameters).index(param)

        def count(args, kwargs):
            value = args[position] if len(args) > position else kwargs[param]
            return measure(value)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name, layer, count(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


@contextmanager
def traced(package: str, recorder: Recorder, layers=LAYERS):
    """Wrap the layers' public functions wherever the package binds them."""
    wrappers = {}
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for fname, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, _wrap(fn, f"{layer}.{fname}", layer,
                                          recorder))
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == package or n.startswith(package + ".")]
    patches = []
    try:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    patches.append((ns, attr, value))
        yield
    finally:
        for ns, attr, value in reversed(patches):
            setattr(ns, attr, value)


def self_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: (exclusive time, self time).

    Exclusive time is the duration minus all child spans; self time is the
    duration minus the outermost descendant spans of other layers.
    Children always follow their parent in the list.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    exclusive = [0.0] * len(spans)
    other_layers = [0.0] * len(spans)
    for i in reversed(range(len(spans))):
        s = spans[i]
        exclusive[i] = s.duration - sum(spans[c].duration for c in children[i])
        other_layers[i] = sum(
            spans[c].duration if spans[c].layer != s.layer else other_layers[c]
            for c in children[i])
    return exclusive, [s.duration - o for s, o in zip(spans, other_layers)]


def _enclosing(spans: list[Span], index: int, name: str) -> int:
    """Index of the nearest enclosing span with the given name, or -1."""
    p = spans[index].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def pass_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one pass, from its spans."""
    exclusive, own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        if s.layer in LAYERS:
            out[f"{s.layer}.self_s"] += exclusive[i]
            out[f"{s.layer}.calls"] += 1
    for fn, fields in FUNCTION_METRICS.items():
        picked = by_name.get(fn, [])
        # Recursive calls are counted once, at the outermost span.
        top = [i for i in picked if _enclosing(spans, i, fn) < 0]
        for field in fields:
            if field == "self_s":
                value = sum(own[i] for i in top)
            elif field == "total_s":
                value = sum(spans[i].duration for i in top)
            elif field == "calls":
                value = len(picked)
            else:
                value = sum(spans[i].work for i in picked)
            out[f"{fn}.{field}"] = value
    cache_calls = by_name.get(CACHE_FUNCTION, [])
    built = {_enclosing(spans, i, CACHE_FUNCTION)
             for i in by_name.get(CACHE_BUILD, [])}
    hits = sum(1 for i in cache_calls if i not in built)
    out[HIT_RATIO] = hits / len(cache_calls) if cache_calls else 0.0
    return out


def coverage(spans: list[Span], wall: float) -> float:
    """Share of a pass's wall time covered by top-level spans."""
    return sum(s.duration for s in spans if s.parent < 0) / wall
