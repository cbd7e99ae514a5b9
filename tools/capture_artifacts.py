"""Print one sha256 per item that a byte-identity claim covers.

Usage, from any directory:

    python3 tools/capture_artifacts.py > capture.txt

Captures the hyperlab source of the checkout this file sits in.  Each
output line is ``<sha256>  <item>``, for:

* the runner artifacts (every file under reports/, tables/ and plotdata/)
  of the three perfbench workload configs at seeds 101 and 102;
* the runner artifacts of an `orbit` probe at the same seeds, for the
  scalar shift 2B on C^640, for kalish at grid 1024, for the weighted
  shift with weights 1/4 on C^640, whose weight products dip below e^-300
  from coordinate 217 on, and for 0.5B on C^64, whose orbit is 0 from
  step 64 on: their tables print every step's norm and distance to the
  start as a repr float;
* the runner artifacts of a desk Gauss config (grid 1024, 8 nodes) at
  the same seeds, for a `coeff` probe with 3 functionals and max_power
  8, a `symmetry` probe with the symmetric sampler and one with the real
  control ("sampler": "real").  Each of these estimators draws only the
  projection of the coordinates it reads, so these lines pin the bytes
  of those draws at the size of the acceptance criteria, and the real
  control's lines are the only ones that cover the real sampler.  Then
  three `invariance` probes: the honest check at 10**4 samples, the
  "transport_scale" 1.25 control, and a rank-deficient check at 16 nodes
  with 8 samples, where the Bartlett factor of the draw has 8 columns;
* the runner artifacts of a `matrix-check` probe on the same desk config
  and seeds: apply_T against the dense matrix of T and a dense solve back,
  whose report, table and plotdata print each trial's difference as a
  repr float;
* the standard output of each `hyperlab` line of the README's CLI block,
  the block tests/test_readme_cli.py reads, each run in a fresh process
  (a dense BLAS product's bits can depend on what ran before it in the
  same process);
* the canonical JSON of classification_run(default_battery(w), w, s) for
  w in {300, 1000} and s in 0..23, then for w = 4000 and s in 0..3 and
  for w = 8000 and s = 0: at these two windows the ball stride
  max(L // 200, 1) | 1 of L = w + 1 states rounds an even L // 200 (20
  and 40) up to an odd stride.  Last, for w = 16000 and s = 0: the
  kalish and torus rows are closed forms in the time t (phases e^{i t
  lambda}), whose round-off grows with t, so the longest window is where
  a change to those rows or to their phases moves bytes first.  Each of
  these lines is followed by one "floats masked" line: the sha256 of the
  same canonical JSON with every float replaced by one token, so a change
  that moves only round-off shows, line by line, that no verdict, flag,
  grade, count or string moved;
* the float bits of quantize(sigma, m) and the canonical JSON of
  build_model(corrected_field(sigma, m, M)).to_manifest(), for sigma =
  probability_measure(s, B) with s in 0..3, B in {1024, 8192}, m in {8,
  100, 1024} and M = 4096, then for uniform sigma with m = M = 1024.  The
  first cover mixed measures, atoms beside a density; the last the
  rounding ties, centroids exactly half way between two grid angles,
  where the snap's round-half-to-even lets one ulp of a centroid decide
  which nodes merge.

That is 203 lines: 6 workload, 8 orbit, 14 desk (12 Gauss, 2
matrix-check), 17 README CLI, 108 battery and 50 Gauss-model lines.
Run it on two checkouts, for example a parent commit and a change, and
compare the two captures line by line (``diff``).  BLAS runs on one thread
(its thread count moves some bytes, ROADMAP item 11).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from hyperlab.circle_measure import CircleMeasure  # noqa: E402
from hyperlab.config import config_from_dict  # noqa: E402
from hyperlab.corpora import probability_measure  # noqa: E402
from hyperlab.dynamics_lab import classification_run, default_battery  # noqa: E402
from hyperlab.gauss_model import build_model, corrected_field, quantize  # noqa: E402
from hyperlab.jsonio import stable_dumps  # noqa: E402
from hyperlab.runner import run  # noqa: E402
from workloads import WORKLOADS, config_doc  # noqa: E402

ARTIFACT_DIRS = ("reports", "tables", "plotdata")
WORKLOAD_SEEDS = (101, 102)
ORBIT_SYSTEMS = ({"kind": "scalar_multiple_shift", "scalar": 2.0, "dimension": 640,
                  "name": "scalar-shift-2"},
                 {"kind": "kalish", "grid": 1024, "name": "kalish-1024"},
                 {"kind": "weighted_shift", "weights": [0.25] * 639, "dimension": 640,
                  "name": "weighted-shift-dip"},
                 {"kind": "scalar_multiple_shift", "scalar": 0.5, "dimension": 64,
                  "name": "scalar-shift-0.5"})
# family -> the probes run on the desk config (grid 1024) at each workload seed
DESK_PROBES = {"gauss": ({"probe": "coeff", "nodes": 8, "functionals": 3, "max_power": 8},
                         {"probe": "symmetry", "nodes": 8},
                         {"probe": "symmetry", "nodes": 8, "sampler": "real"},
                         {"probe": "invariance", "nodes": 8, "samples": 10_000},
                         {"probe": "invariance", "nodes": 8, "samples": 10_000,
                          "transport_scale": 1.25},
                         {"probe": "invariance", "nodes": 16, "samples": 8}),
               "kalish": ({"probe": "matrix-check"},)}
BATTERY_RUNS = ((300, range(24)), (1000, range(24)), (4000, range(4)), (8000, range(1)),
                (16000, range(1)))
# (sigma's label, sigma, node count m, grid M)
GAUSS_RUNS = tuple((f"probability_measure({s}, {bins})", probability_measure(s, bins), m, 4096)
                   for s in range(4) for bins in (1024, 8192) for m in (8, 100, 1024)) + (
    ("uniform(1024)", CircleMeasure.uniform(bins=1024), 1024, 1024),)


FLOAT_TOKEN = "<float>"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _mask_floats(value):
    """value with every float, in any list or object, replaced by FLOAT_TOKEN."""
    if isinstance(value, float):
        return FLOAT_TOKEN
    if isinstance(value, dict):
        return {key: _mask_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_mask_floats(item) for item in value]
    return value


def masked_sha(text: str) -> str:
    """The sha256 of the canonical JSON text with every float masked."""
    return _sha(stable_dumps(_mask_floats(json.loads(text))).encode())


def _artifact_digest(out_dir: Path) -> str:
    """The sha256 of every artifact file's relative name, length and bytes."""
    whole = hashlib.sha256()
    for sub in ARTIFACT_DIRS:
        for path in sorted((out_dir / sub).iterdir()):
            data = path.read_bytes()
            whole.update(f"{sub}/{path.name}".encode() + b"\0"
                         + len(data).to_bytes(8, "big") + data)
    return whole.hexdigest()


def _run_items(docs):
    """(digest, item) of the runner artifacts of each (config doc, name)."""
    for doc, name in docs:
        with tempfile.TemporaryDirectory() as tmp:
            status = run(config_from_dict(doc), Path(tmp))
            yield _artifact_digest(Path(tmp)), f"{name} status {status}"


def workload_items():
    return _run_items((config_doc(workload, seed), f"workload {workload} seed {seed}")
                      for workload in sorted(WORKLOADS) for seed in WORKLOAD_SEEDS)


def orbit_items():
    return _run_items(({"seed": seed, "systems": [system],
                        "probes": [{"probe": "orbit", "system": system["name"]}]},
                       f"orbit probe {system['name']} seed {seed}")
                      for system in ORBIT_SYSTEMS for seed in WORKLOAD_SEEDS)


def desk_items():
    return _run_items(({"seed": seed, "grid": 1024, "probes": [probe]},
                       f"desk {family} {stable_dumps(probe)} seed {seed}")
                      for family, probes in DESK_PROBES.items()
                      for probe in probes for seed in WORKLOAD_SEEDS)


def readme_cli_lines() -> list:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("hyperlab ")]


def cli_items():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    for line in readme_cli_lines():
        argv = shlex.split(line, comments=True)[1:]
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "set.txt").write_text("0 3 6 9\n")  # the README's printf line
            done = subprocess.run([sys.executable, "-m", "hyperlab.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)
        yield _sha(done.stdout), f"cli exit {done.returncode}: {line}"


def battery_items():
    for window, seeds in BATTERY_RUNS:
        battery = default_battery(window)
        for seed in seeds:
            text = stable_dumps(classification_run(battery, window, seed).to_dict())
            name = f"classification_run(default_battery({window}), {window}, {seed})"
            yield _sha(text.encode()), name
            yield masked_sha(text), f"{name} floats masked"


def gauss_items():
    for label, sigma, m, M in GAUSS_RUNS:
        yield (_sha(np.array(quantize(sigma, m), dtype=float).tobytes()),
               f"quantize({label}, {m})")
        manifest = build_model(corrected_field(sigma, m, M)).to_manifest()
        yield (_sha(stable_dumps(manifest).encode()),
               f"build_model(corrected_field({label}, {m}, {M})).to_manifest()")


def main() -> int:
    for items in (workload_items, orbit_items, desk_items, cli_items, battery_items,
                  gauss_items):
        for digest, name in items():
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
