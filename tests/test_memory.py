"""Peak traced memory of the Gauss pipeline at (M, m) = (16384, 128), in
units of one factor (M x m complex, 32 MiB).  A built model holds one
factor, not the field it was built from.  The blocked Kalish kernels
hold one 1 MiB temporary besides their output, and the invariance check
holds at most two factor-sized arrays at a time.  corrected_field takes
its norms one column group at a time, so it holds its output and a few
group-sized arrays: 1.28 factors, where whole-field norms held 2.08.
At (M, m) = (4096, 32), where a factor is 2 MiB and a kernel block
1 MiB, build_model holds one factor and the Gram's m x m products beyond
its field, and the invariance check T A, one block and m x m matrices
beyond its model: the Grams multiply the operands' float views, with no
conjugate copy, the intertwining residual is summed one row block at a
time, and apply_T_array holds one block scratch besides its output.
exact_eigenvectors and EigenField.residuals work on groups of 16
columns from each group's first nonzero row: the batch holds its output
and a group's two temporaries, and the residuals hold a few group-sized
arrays, never a factor-sized one.  The coefficient table walks one grid
vector, never the factor, and no factor-sized array.
The coefficient and symmetry checks draw only the (2, S) or (1, S)
projection their estimator reads, never the (m, S) coordinates, so at
desk size (M, m) = (1024, 8) and (1024, 128) they hold about 1 MB and
0.5 MB whatever m is; drawing the (m, S) coordinates, they held
41.5 MB and 17.1 MB at m = 128.  The invariance check draws the m x m
Bartlett factor of G G*, not G, so at 10**4 samples it holds about
1 MB at m = 8 and 6 MB at m = 128, where the (m, S) draw held 3.3 and
42 MB.
A classification row streams its orbit (dynamics_lab.orbit_rows, whose
one row source is dynamics_lab._rows), so at window 4000 it holds a few
MiB, not an (N+1, dim) orbit.  Beyond the rows and the keep state it
returns, a streamed row holds at most three blocks of 2**16 complex
elements (the rows hook's block and the kernel's scratch pair) and one
row of window + dim elements; it keeps no state per center.  A kalish
row is 8 Gram coordinates wide, not M, so at M = 1024 its blocks are a
window's rows and it holds well under 1 MB.  A shift's
orbit is a window over its symbols, so the distance kernel's scratch is
as wide as the head its norm reads, not the shift's dimension, and its
streamed orbit holds bytes that grow at most linearly with the window.
A complex Gaussian draw holds its output and a 64 KiB scratch.

The cold-start contract counts minor page faults, not bytes: the distance
kernel (dynamics_lab._distance_rows) keeps its block temporaries in one
scratch pair per call, so a fresh process's first classification row
does not fault in a fresh 1 MiB array for every (block, center) pair.
With a fresh array per pair the shift row took about 63,550 faults and
the kalish row about 16,360; with the scratch, about 1,800 and 2,500."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hyperlab.circle_measure import CircleMeasure
from hyperlab import dynamics_lab
from hyperlab.dynamics_lab import (classify_system, default_battery, default_start,
                                   kalish_system, probe_orbit, scalar_shift_system,
                                   torus_system, weak_mixing_probe)
from hyperlab.corpora import random_functional
from hyperlab.gauss_model import (build_model, coefficient_rows, corrected_field,
                                  invariance_check, symmetry_check)
from hyperlab.kalish import CircleFunction, apply_T_array, exact_eigenvectors
from hyperlab.seeding import complex_standard_normal, rng_for

M, NODES = 16384, 128


@pytest.fixture(scope="module")
def field():
    return corrected_field(CircleMeasure.uniform(bins=1024), NODES, M)


@pytest.fixture(scope="module")
def model(field):
    return build_model(field)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_in_factors(model, call) -> float:
    return _peak_bytes(call) / model.factor.nbytes


def test_built_model_holds_one_factor():
    # the model keeps A and the node data; the field's unweighted E goes
    # with the field, which nothing holds once build_model returns
    sigma = CircleMeasure.uniform(bins=1024)
    tracemalloc.start()
    try:
        built = build_model(corrected_field(sigma, NODES, M))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * built.factor.nbytes


def test_apply_T_array_holds_one_block_besides_its_output(model):
    assert _peak_in_factors(model, lambda: apply_T_array(model.factor)) <= 1.25


def test_exact_eigenvectors_hold_their_output_and_one_column_group(model):
    # 2.08 factors when every column was built in one pass
    ks = np.arange(0, M, M // NODES)
    assert _peak_in_factors(model, lambda: exact_eigenvectors(ks, M)) <= 1.3


def test_residuals_hold_no_factor_sized_array(model, field):
    # 2.00 factors when the residual was formed over the whole field at once
    assert _peak_in_factors(model, field.residuals) <= 0.3


def test_invariance_check_holds_about_two_factors(model):
    peak = _peak_in_factors(model, lambda: invariance_check(model, count=1000, seed=0))
    assert peak <= 2.5


GRAM_M, GRAM_NODES = 4096, 32  # one factor 2 MiB, one kernel block 1 MiB


def _beyond_one_factor_and_a_block(m: int) -> int:
    """One (GRAM_M, m) factor, one 1 MiB kernel block and 16 m x m complex
    matrices (the Grams, P = W* W and the distance's products)."""
    return GRAM_M * m * 16 + 2**20 + 16 * m * m * 16


@pytest.fixture(scope="module")
def gram_field():
    return corrected_field(CircleMeasure.uniform(bins=1024), GRAM_NODES, GRAM_M)


def test_build_model_holds_one_factor_and_a_block_beyond_its_field(gram_field):
    # the Gram reads the factor's float view: no conjugate copy of it,
    # which made 2.54 factors here
    peak = _peak_bytes(lambda: build_model(gram_field))
    assert peak <= _beyond_one_factor_and_a_block(GRAM_NODES)


def test_invariance_check_holds_T_A_and_a_block_beyond_its_model(gram_field):
    # T A, one 1 MiB block of the transport or of the blocked residual,
    # and m x m matrices: no conjugate copy, no factor-sized residual and
    # one block temporary in apply_T_array, where 2.30 factors were held
    model = build_model(gram_field)
    peak = _peak_bytes(lambda: invariance_check(model, count=10_000, seed=0))
    assert peak <= _beyond_one_factor_and_a_block(GRAM_NODES)


def test_apply_T_array_holds_its_output_and_one_block():
    X = np.ones((GRAM_M, GRAM_NODES), dtype=complex)
    apply_T_array(X)  # the phases of the grid are cached on first use
    assert _peak_bytes(lambda: apply_T_array(X)) <= X.nbytes + 2**20 + 2**18


def test_coefficient_rows_hold_no_factor_sized_array(model):
    xstar = CircleFunction(np.ones(M, dtype=complex), M)
    peak = _peak_in_factors(
        model, lambda: coefficient_rows(model, xstar, 4, 1000, 0, "memory"))
    assert peak <= 0.25


@pytest.fixture(scope="module", params=[8, 128], ids=lambda m: f"m{m}")
def desk_model(request):
    return build_model(corrected_field(CircleMeasure.uniform(bins=1024), request.param, 1024))


def test_coefficient_rows_trace_at_most_1_5_mb_at_desk_size(desk_model):
    # 16 powers at 10**4 samples: a (2, S) pair draw per power
    xstar = random_functional(0, 1024)
    peak = _peak_bytes(lambda: coefficient_rows(desk_model, xstar, 15, 10_000, 0, "memory"))
    assert peak <= 1.5e6


def test_invariance_check_traces_at_most_1_5_or_8_mb_at_desk_size(desk_model):
    # at 10**4 samples: the m x m Bartlett factor, not the (m, S) draw
    bound = {8: 1.5e6, 128: 8e6}[desk_model.node_count]
    peak = _peak_bytes(lambda: invariance_check(desk_model, count=10_000, seed=0))
    assert peak <= bound


def test_corrected_field_holds_its_output_and_a_few_column_groups():
    # 2.08 factors when the norms were taken over the whole field at once
    sigma = CircleMeasure.uniform(bins=1024)
    factor = np.empty((M, NODES), dtype=complex).nbytes
    assert _peak_bytes(lambda: corrected_field(sigma, NODES, M)) / factor <= 1.35


@pytest.mark.parametrize("sampler", ["symmetric", "real"])
def test_symmetry_checks_trace_at_most_1_mb_at_desk_size(desk_model, sampler):
    xstars = [random_functional(k, 1024) for k in range(4)]
    peak = _peak_bytes(lambda: [symmetry_check(desk_model, xstar, 4096, k, sampler)
                                for k, xstar in enumerate(xstars)])
    assert peak <= 1e6


def test_complex_standard_normal_holds_its_output_and_a_scratch():
    shape = (128, 10_000)
    output = np.empty(shape, dtype=complex).nbytes
    peak = _peak_bytes(lambda: complex_standard_normal(rng_for(0, "memory"), shape))
    assert peak <= 1.05 * output


@pytest.mark.parametrize("spec", default_battery(4000), ids=lambda spec: spec.name)
def test_classification_row_at_window_4000_holds_at_most_8_mib(spec):
    # a stored orbit alone would be 4001 x 4128 complex (264 MB) for the shift
    assert _peak_bytes(lambda: classify_system(spec, window=4000)) <= 8 * 2**20


def test_a_shift_distance_kernel_holds_a_scratch_of_head_width(monkeypatch):
    spec = scalar_shift_system(2.0, 1128)  # head 538 of 1128
    n = 50  # 51 states, fewer than a block's rows: the scratch spans the window
    held, kernel = [], dynamics_lab._distance_rows

    def measured(spec, rows_of, centers, length):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rows = kernel(spec, rows_of, centers, length)
        held.append(tracemalloc.get_traced_memory()[1] - before - rows.nbytes)
        return rows

    monkeypatch.setattr(dynamics_lab, "_distance_rows", measured)
    x0 = default_start(spec, 0)
    tracemalloc.start()
    try:
        weak_mixing_probe(probe_orbit(spec, x0, n), seed=0)  # orbit and pullbacks
    finally:
        tracemalloc.stop()
    block = np.empty((n + 1, len(spec.ops.head)), dtype=complex).nbytes
    # a state_dim-wide scratch pair is 3.1 of these blocks (1.38 MB)
    assert len(held) == 2 and max(held) <= 2 * block


def test_a_shift_probe_orbit_grows_at_most_linearly_with_the_window():
    peaks = {}
    for window in (1000, 16_000):
        spec = scalar_shift_system(2.0, window + 128)
        x0 = default_start(spec, 0)
        peaks[window] = _peak_bytes(lambda: probe_orbit(spec, x0, window))
    assert peaks[16_000] <= 16 * peaks[1000]


def test_a_shift_probe_orbit_holds_no_state_per_center():
    # a 258 KB n_step_map slide per center would make this 3.86 MB; the
    # probes read a center's row only, so only the keep state is held
    spec = scalar_shift_system(2.0, 16_128)
    x0 = default_start(spec, 0)
    assert _peak_bytes(lambda: probe_orbit(spec, x0, 1000)) <= 2.5e6


def _returned_bytes(traj) -> int:
    """The bytes of the arrays an OrbitRows holds, each owner once."""
    owners = [a if a.base is None else a.base
              for a in (traj.norm_row, *traj.rows.values(), *traj.snapshots.values())]
    return sum({id(a): a.nbytes for a in owners}.values())


@pytest.mark.parametrize("window", [1000, 16_000])
@pytest.mark.parametrize("make", [lambda w: torus_system((0.9, 2.1)),
                                  lambda w: kalish_system(64),
                                  lambda w: scalar_shift_system(2.0, w + 128)],
                         ids=["torus", "kalish-64", "scalar-shift-2"])
def test_a_streamed_row_holds_three_blocks_and_a_state_row_beyond_what_it_returns(
        make, window):
    # a block of the walk, the kernel's difference and squared moduli, at
    # most 2**16 complex elements each, and one row of window + dim
    spec = make(window)
    x0 = default_start(spec, 0)
    got = []

    def streamed():
        got.append(probe_orbit(spec, x0, window))

    held = _peak_bytes(streamed) - _returned_bytes(got[0])
    assert held <= 3 * 2**16 * 16 + 16 * (window + spec.state_dim)


def test_a_kalish_probe_orbit_holds_under_1_mb_beyond_what_it_returns():
    # its rows are the model's 8 coordinates; walked grid states, 64 of
    # 1024 coordinates a block, held 2.81 MB
    spec = kalish_system(1024)
    x0 = default_start(spec, 0)
    got = []
    held = _peak_bytes(lambda: got.append(probe_orbit(spec, x0, 1000))) - _returned_bytes(got[0])
    assert held <= 1e6


_COLD_ROW = """
import resource, sys
from hyperlab.dynamics_lab import classify_system, default_battery
spec = default_battery(1000)[int(sys.argv[1])]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
classify_system(spec, window=1000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("row", [1, 2], ids=["scalar-shift-2", "kalish-gaussian"])
def test_cold_classification_row_takes_under_10k_minor_faults(row):
    pytest.importorskip("resource", reason="minor fault counts need the POSIX "
                                           "resource module")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _COLD_ROW, str(row)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 10_000
