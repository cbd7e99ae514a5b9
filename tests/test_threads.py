"""The helper thread of gauss_model, the one worker of a
concurrent.futures pool in _gram, runs one private kernel and nothing
else: the second row half of its Gram products.  Every public hyperlab
function of a run is called from the calling thread, every draw is
filled there, the artifacts equal those of a pool that runs its work
inline, and an error in the helper's half reaches the caller of the
Gram product."""

import concurrent.futures
import functools
import inspect
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hyperlab import gauss_model, runner, seeding
from hyperlab.config import config_from_dict
from hyperlab.kalish import _BLOCK_ELEMENTS

CONFIG = {
    "schema": "experiment-config/1",
    "seed": 5,
    "grid": 64,
    "probes": [
        {"probe": "symmetry", "nodes": 4, "functionals": 3, "samples": 64},
        {"probe": "symmetry", "nodes": 4, "functionals": 2, "samples": 64,
         "sampler": "real"},
        {"probe": "coeff", "nodes": 4, "functionals": 2, "max_power": 2,
         "samples": 200},
    ],
}


# factor and transported factor are each at least one kernel block, so
# their Gram products are formed in two row halves; the 16 x 16 Bartlett
# factor of the draw is below one block, so its Gram is formed in one pass
SPLIT_CONFIG = {
    "schema": "experiment-config/1",
    "seed": 5,
    "grid": 4096,
    "probes": [{"probe": "invariance", "nodes": 16, "samples": 5000}],
}


def _run(out: Path, config: dict = CONFIG) -> dict:
    assert runner.run(config_from_dict(config), out) in (0, 1)
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run-meta.json"}


def _record_threads(monkeypatch, calls: list) -> None:
    """Wrap every public hyperlab function at every binding to record
    (name, thread ident) per call."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "hyperlab" or n.startswith("hyperlab.")]
    wrappers = {}
    for module in modules:
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__.startswith("hyperlab")):
                wrappers.setdefault(id(fn), (fn, _recording(fn, calls)))
    for module in modules:
        for name, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                monkeypatch.setattr(module, name, hit[1])


def _recording(fn, calls):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append((f"{fn.__module__}.{fn.__name__}", threading.get_ident()))
        return fn(*args, **kwargs)
    return wrapper


def test_public_functions_run_on_the_calling_thread(tmp_path, monkeypatch):
    calls, fills = [], []
    fill = seeding._fill

    def recorded_fill(*args):
        fills.append(threading.get_ident())
        fill(*args)

    monkeypatch.setattr(seeding, "_fill", recorded_fill)
    _record_threads(monkeypatch, calls)
    _run(tmp_path)
    me = threading.get_ident()
    names = {name for name, _ in calls}
    assert {"hyperlab.gauss_model.symmetry_checks",
            "hyperlab.gauss_model.coefficient_rows",
            "hyperlab.seeding.complex_standard_normal"} <= names
    assert [c for c in calls if c[1] != me] == []
    # every draw is filled on the calling thread: the 7 random functionals,
    # the symmetric sampler's 3 draws and each functional's 3 coefficient
    # draws (the real control's draws are real normals, not fills)
    assert len(fills) == 7 + 3 + 2 * 3
    assert [t for t in fills if t != me] == []


def test_gram_halves_keep_public_calls_on_the_calling_thread(tmp_path, monkeypatch):
    calls, helper_rows = [], []
    rows, me = gauss_model._gram_rows, threading.get_ident()

    def recorded_rows(*args):
        if threading.get_ident() != me:
            helper_rows.append(args[2])
        rows(*args)

    monkeypatch.setattr(gauss_model, "_gram_rows", recorded_rows)
    _record_threads(monkeypatch, calls)
    _run(tmp_path, SPLIT_CONFIG)
    assert "hyperlab.gauss_model.invariance_check" in {name for name, _ in calls}
    assert [c for c in calls if c[1] != me] == []
    # build_model's A* A and the check's (TA)* [TA, A]; its L L* is below
    # one kernel block
    assert len(helper_rows) == 2


class _InlinePool:
    """A stand-in for ThreadPoolExecutor whose submit runs the call at
    once, on the calling thread."""

    def __init__(self, *args):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done


def test_artifacts_equal_those_of_an_inline_helper(tmp_path, monkeypatch):
    threaded = _run(tmp_path / "threaded", SPLIT_CONFIG)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _InlinePool)
    assert _run(tmp_path / "inline", SPLIT_CONFIG) == threaded


def test_an_error_in_the_helper_gram_half_reaches_the_caller(monkeypatch):
    rows, me = gauss_model._gram_rows, threading.get_ident()

    def failing_off_thread(*args):
        if threading.get_ident() != me:
            raise FloatingPointError("helper half failed")
        rows(*args)

    monkeypatch.setattr(gauss_model, "_gram_rows", failing_off_thread)
    X = np.ones((_BLOCK_ELEMENTS // 8, 8), dtype=complex)  # one block: two halves
    with pytest.raises(FloatingPointError, match="helper half failed"):
        gauss_model._gram(X, X)
