"""Deterministic seed derivation.

Every randomized routine in the package draws from a generator created
here.  A run owns a single root seed; sub-streams are derived from it by
hashing a human-readable label, so artifacts are reproducible and the
label shows up in reports next to the numbers it produced.
"""
from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 63) - 1


def derive_seed(root_seed: int, label: str) -> int:
    """Stable 63-bit sub-seed for (root_seed, label)."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & _MASK


def rng_for(root_seed: int, label: str) -> np.random.Generator:
    """PCG64 generator keyed by the root seed and a stream label."""
    return np.random.default_rng(derive_seed(root_seed, label))


def complex_standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Symmetric complex Gaussian: mean 0, E|g|^2 = 1, E[g^2] = 0.

    Real and imaginary parts are independent with variance 1/2 each.  One
    draw of 2 x shape normals gives all the real parts, then all the
    imaginary parts, scaled in place by 1/sqrt(2): the same stream and the
    same bits as (re + 1j*im) / sqrt(2) of two draws, since numpy rounds a
    complex-by-real quotient like the product with 1.0/sqrt(2), while
    holding one float buffer besides the complex output.
    """
    out = np.empty(shape, dtype=complex)
    parts = rng.standard_normal((2,) + out.shape)
    parts *= 1.0 / np.sqrt(2.0)
    out.real, out.imag = parts
    return out
