"""Deterministic seed derivation.

Every randomized routine in the package draws from a generator created
here.  A run owns a single root seed; sub-streams are derived from it by
hashing a human-readable label, so artifacts are reproducible and the
label shows up in reports next to the numbers it produced.

A complex Gaussian draw is filled through a fixed float scratch of
_CHUNK normals (64 KiB), scaled straight into the real and then the
imaginary parts of the output, so a draw holds its output and nothing
else of its size.  Every Gauss Monte-Carlo draw is one
complex_standard_normal call on the calling thread (gauss_model._draws,
the one draw source of that module); nothing here starts a thread.
"""
from __future__ import annotations

import hashlib

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
    _fill(rng, out)
    return out


def _fill(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the contiguous complex out from rng through a float scratch
    of at most _CHUNK normals: the real parts of the stream first, then
    the imaginary parts, each scaled by 1/sqrt(2).  Both part arrays are
    strided views of out."""
    chunk = np.empty(min(_CHUNK, max(out.size, 1)), dtype=float)
    flat = out.reshape(-1).view(float)
    for part in (flat[0::2], flat[1::2]):
        for lo in range(0, part.size, chunk.size):
            piece = chunk[:part.size - lo]
            rng.standard_normal(out=piece)
            np.multiply(piece, _SCALE, out=part[lo:lo + piece.size])

