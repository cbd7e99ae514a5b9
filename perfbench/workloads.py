"""The benchmark's workloads: one hyperlab experiment config each.

Each workload is a fixed config whose top-level ``seed`` is the benchmark's
``--seed`` argument; the sizes never change with the seed.  A benchmark run
executes the config through the public runner in a closed loop, one pass
after another, from a single process.
"""

from __future__ import annotations

import copy

CONFIG_SCHEMA = "experiment-config/1"

WORKLOADS = {
    # The documented default of `hyperlab lab classify`: default_battery(1000).
    # Dominated by one-vector-at-a-time kalish work (kalish_solve pullbacks and
    # apply_T steps at M=1024) plus dynamics_lab orbit and ball bookkeeping.
    "battery-w1000": {
        "probes": [{"probe": "classification", "window": 1000}],
    },
    # circle_measure (O(n*B) fourier_coefficient calls) and hitting_sets
    # (O(N*min_len) upper_banach_density) do almost all the work.  No kalish,
    # gauss_model or dynamics_lab: the bypass for Kalish changes.
    "spectral-b8192": {
        "bins": 8192,
        "measures": {"rho": {"kind": "probability"}, "u": {"kind": "uniform"}},
        "probes": [
            {"probe": "measure-classify", "measure": "rho", "band": 1024},
            {"probe": "exp", "measure": "rho", "band": 64},
            {"probe": "convolve", "left": "rho", "right": "u", "band": 64},
            {"probe": "fourier", "measure": "rho", "band": 1024},
            {"probe": "ubd", "window": 200_000, "min_len": 10_000, "count": 1},
        ],
    },
    # Batched column transport through apply_T at M=16384, 128
    # exact_eigenvector builds, and large gauss_model / seeding draws.  No
    # solves, Fourier probes or sets.
    "gauss-g16384": {
        "grid": 16384,
        "probes": [
            {"probe": "invariance", "nodes": 128},
            {"probe": "symmetry", "nodes": 128},
            {"probe": "coeff", "nodes": 128, "functionals": 1, "max_power": 4},
        ],
    },
}


# Seconds one pass of each workload took on the host of the recorded
# baseline (perfbench/README.md).  A run makes --seconds / this many passes,
# so its operations, and its attempted and failed counts, depend on the
# arguments alone and not on the host's speed at the time.
NOMINAL_PASS_S = {
    "battery-w1000": 1.5,
    "spectral-b8192": 6.5,
    "gauss-g16384": 5.5,
}


def config_doc(workload: str, seed: int) -> dict:
    """The raw config document of a workload at the given seed."""
    doc = copy.deepcopy(WORKLOADS[workload])
    doc.update(schema=CONFIG_SCHEMA, seed=seed)
    return doc
