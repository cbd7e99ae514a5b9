"""hyperlab starts no thread of its own (tests/test_surface.py bans the
thread modules from src/hyperlab): every public hyperlab function of a
run is called from the calling thread, and every draw is filled there.
BLAS may run its own threads inside a product; no Python code runs on
them."""

import functools
import inspect
import sys
import threading
from pathlib import Path

from hyperlab import runner, seeding
from hyperlab.config import config_from_dict

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


def _run(out: Path) -> None:
    assert runner.run(config_from_dict(CONFIG), out) in (0, 1)


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
    assert {"hyperlab.gauss_model.symmetry_check",
            "hyperlab.gauss_model.coefficient_rows",
            "hyperlab.seeding.complex_standard_normal"} <= names
    assert [c for c in calls if c[1] != me] == []
    # every draw is filled on the calling thread: the 7 random functionals,
    # the symmetric sampler's 3 draws and each functional's 3 coefficient
    # draws (the real control's draws are real normals, not fills)
    assert len(fills) == 7 + 3 + 2 * 3
    assert [t for t in fills if t != me] == []
