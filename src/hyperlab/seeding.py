"""Deterministic seed derivation.

Every randomized routine in the package draws from a generator created
here.  A run owns a single root seed; sub-streams are derived from it by
hashing a human-readable label, so artifacts are reproducible and the
label shows up in reports next to the numbers it produced.

A complex Gaussian draw is filled through a fixed float scratch of
_CHUNK normals (64 KiB), scaled straight into the real and then the
imaginary parts of the output, so a draw holds its output and nothing
else of its size.  complex_standard_normals fills independent streams
two at a time: the calling thread allocates both outputs and their
scratches, fills the first, and one helper thread fills the second.
numpy's generators, ufuncs and matrix products release the GIL while
they work, so the pair fills on two cores.  _start_kernel is the one
runner of the helper: it runs a private kernel (_fill here, the Gram row
half gauss_model._gram_rows there) into buffers the calling thread
allocated, so the helper allocates nothing large and calls no public
function, per-thread allocator arenas stay small, and span recorders
see one thread.  Every Gauss Monte-Carlo draw goes through
complex_standard_normals (the one draw source of gauss_model); a lone
generator is filled on the calling thread, so a one-draw check starts
no helper.
"""
from __future__ import annotations

import hashlib
import threading

import numpy as np

_MASK = (1 << 63) - 1
_CHUNK = 8192  # float64 normals per scratch fill: 64 KiB
_SCALE = 1.0 / np.sqrt(2.0)


def derive_seed(root_seed: int, label: str) -> int:
    """Stable 63-bit sub-seed for (root_seed, label)."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & _MASK


def rng_for(root_seed: int, label: str) -> np.random.Generator:
    """PCG64 generator keyed by the root seed and a stream label."""
    return np.random.default_rng(derive_seed(root_seed, label))


def complex_standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Symmetric complex Gaussian: mean 0, E|g|^2 = 1, E[g^2] = 0.

    Real and imaginary parts are independent with variance 1/2 each.  The
    stream gives all the real parts, then all the imaginary parts, each
    scaled by 1/sqrt(2) on its way out of a 64 KiB float scratch: the same
    stream and the same bits as (re + 1j*im) / sqrt(2) of two draws, since
    numpy rounds a complex-by-real quotient like the product with
    1.0/sqrt(2), while holding nothing besides the output and the scratch.
    """
    out = np.empty(shape, dtype=complex)
    _fill(rng, out, _scratch(out))
    return out


def complex_standard_normals(rngs, shape):
    """One complex_standard_normal(rng, shape) per generator, in order and
    bitwise equal to it, filled two at a time.  The calling thread
    allocates both outputs of a pair and fills the first while a helper
    thread fills the second; both are done before the pair is yielded, and
    an error in the helper's fill is raised here.  A lone last generator
    is filled on the calling thread."""
    rngs = iter(rngs)
    for first in rngs:
        second = next(rngs, None)
        a = np.empty(shape, dtype=complex)
        if second is None:
            _fill(first, a, _scratch(a))
            yield a
            return
        b = np.empty(shape, dtype=complex)
        join = _start_kernel(_fill, second, b, _scratch(b))
        try:
            _fill(first, a, _scratch(a))
        finally:
            join()
        # the generator holds no draw past its turn, so a draw the caller
        # has let go of is freed before the next pair is allocated
        yield a
        del a
        yield b
        del b


def _scratch(out: np.ndarray) -> np.ndarray:
    return np.empty(min(_CHUNK, max(out.size, 1)), dtype=float)


def _fill(rng: np.random.Generator, out: np.ndarray, chunk: np.ndarray) -> None:
    """Fill the contiguous complex out from rng through chunk: the real
    parts of the stream first, then the imaginary parts, each scaled by
    1/sqrt(2).  Both part arrays are strided views of out."""
    flat = out.reshape(-1).view(float)
    for part in (flat[0::2], flat[1::2]):
        for lo in range(0, part.size, chunk.size):
            piece = chunk[:part.size - lo]
            rng.standard_normal(out=piece)
            np.multiply(piece, _SCALE, out=part[lo:lo + piece.size])


def _start_kernel(kernel, *args):
    """Run kernel(*args) on a helper thread; the returned join waits for
    it and re-raises whatever it raised.  The kernel is private and
    writes into buffers the calling thread allocated."""
    errors = []

    def run():
        try:
            kernel(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised by join
            errors.append(exc)

    thread = threading.Thread(target=run, name="hyperlab-helper")
    thread.start()

    def join():
        thread.join()
        if errors:
            raise errors[0]

    return join
