"""Seeded corpus generators: random measures, functionals, and windowed sets.

Every generator derives its randomness from a root seed plus a text label,
so corpus element k is reproducible in isolation and no generator consumes
entropy from a shared stream.
"""

from __future__ import annotations

import functools

import numpy as np

from .circle_measure import TWO_PI, CircleMeasure
from .hitting_sets import WindowedSet
from .kalish import CircleFunction, grid_angles
from .seeding import complex_standard_normal, rng_for

__all__ = [
    "random_atomic_measure",
    "random_smooth_measure",
    "measure_pair",
    "probability_measure",
    "random_functional",
    "random_windowed_set",
    "scaffold_set",
]


def _trig_density(rng: np.random.Generator, bins: int) -> np.ndarray:
    """Strictly positive smooth density: uniform plus a bounded trig polynomial.

    The perturbation is rescaled to relative amplitude 2/3, so the density
    stays >= 1/(6 pi) everywhere and its Fourier coefficients vanish beyond
    |n| = degree. Low degree keeps the bin-average projection error of
    iterated convolutions far below the acceptance tolerances.
    """
    degree = 4
    centers = (np.arange(bins) + 0.5) * (TWO_PI / bins)
    coef = rng.standard_normal(2 * degree)
    pert = np.zeros(bins)
    for k in range(1, degree + 1):
        pert += coef[k - 1] * np.cos(k * centers)
        pert += coef[degree + k - 1] * np.sin(k * centers)
    peak = np.max(np.abs(pert))
    if peak > 0:
        pert *= 2.0 / (3.0 * peak)
    return (1.0 + pert) / TWO_PI


def random_atomic_measure(seed: int, bins: int, label: str = "") -> CircleMeasure:
    """Purely atomic measure with 1..5 atoms at generic angles."""
    rng = rng_for(seed, f"atomic-measure:{label}")
    count = int(rng.integers(1, 6))
    angles = rng.uniform(0.0, TWO_PI, size=count)
    masses = rng.uniform(0.2, 1.0, size=count)
    return CircleMeasure.from_parts(bins, atoms=zip(angles, masses))


def random_smooth_measure(seed: int, bins: int, label: str = "") -> CircleMeasure:
    """Purely continuous measure with a strictly positive smooth density."""
    rng = rng_for(seed, f"smooth-measure:{label}")
    density = _trig_density(rng, bins)
    mass = rng.uniform(0.5, 2.0)
    return CircleMeasure.from_parts(bins, density=density * mass)


def measure_pair(seed: int, bins: int, kind: str):
    """Seeded pair of measures for convolution/Fourier duality checks.

    kind "atomic" pairs purely atomic measures (duality is exact up to
    rounding); kind "grid" pairs smooth densities (duality holds up to the
    bin-average projection).
    """
    if kind == "atomic":
        maker = random_atomic_measure
    elif kind == "grid":
        maker = random_smooth_measure
    else:
        raise ValueError(f"unknown measure pair kind: {kind!r}")
    return maker(seed, bins, label="left"), maker(seed, bins, label="right")


def probability_measure(seed: int, bins: int) -> CircleMeasure:
    """Mixed probability measure: cyclic-subgroup atoms plus a gentle density.

    Atom angles sit on a subgroup 2*pi*k/q with q | bins, so every atom of
    every convolution power lands exactly on a grid node and the atomic part
    stays closed under the half-bin projection. That keeps the spectral
    exponential identity tight for mixed measures.
    """
    rng = rng_for(seed, "probability-measure")
    q = int(rng.choice([2, 4, 8, 16]))
    count = min(int(rng.integers(1, 4)), q)
    ks = rng.choice(q, size=count, replace=False)
    raw = rng.uniform(0.2, 1.0, size=count)
    atom_mass = float(rng.uniform(0.2, 0.8))
    masses = atom_mass * raw / raw.sum()
    angles = TWO_PI * ks / q
    density = _trig_density(rng, bins) * (1.0 - atom_mass)
    return CircleMeasure.from_parts(bins, atoms=zip(angles, masses), density=density)


def random_functional(seed: int, grid_size: int) -> CircleFunction:
    """Smooth random test functional: complex trig polynomial on the grid.

    Trig polynomials of modest degree have generic (almost surely nonzero)
    overlap with every near-indicator eigenvector, so the induced functional
    is nondegenerate on every model in the test suite.
    """
    phases = _functional_phases(grid_size)
    coef = complex_standard_normal(rng_for(seed, "functional"), len(phases))
    values = np.zeros(grid_size, dtype=complex)
    for c, row in zip(coef, phases):
        values += c * row
    return CircleFunction.from_values(values)


@functools.cache
def _functional_phases(grid_size: int) -> np.ndarray:
    """Rows e^{i n theta} for n = -6..6 on the grid; cached, read-only."""
    theta = grid_angles(grid_size)
    rows = np.empty((13, grid_size), dtype=complex)
    for row, n in zip(rows, range(-6, 7)):
        np.exp(1j * n * theta, out=row)
    rows.flags.writeable = False
    return rows


def random_windowed_set(seed: int, window: int) -> WindowedSet:
    """Bernoulli random subset with a seeded inclusion rate; never empty."""
    rng = rng_for(seed, "windowed-set")
    prob = rng.uniform(0.05, 0.9)
    mask = rng.random(window) < prob
    if not mask.any():
        mask[int(rng.integers(window))] = True
    return WindowedSet.from_mask(mask)


def scaffold_set(seed: int, window: int, delta: float) -> WindowedSet:
    """Set of upper Banach density >= delta: arithmetic scaffold plus noise.

    The scaffold with step s = floor(1/delta) pins the density from below on
    every aligned window of length >= s; Bernoulli noise only adds elements,
    so the density bound survives and the difference set only grows.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    rng = rng_for(seed, "scaffold-set")
    step = max(1, int(np.floor(1.0 / delta)))
    offset = int(rng.integers(step))
    noise_rate = rng.uniform(0.0, 0.15)
    mask = rng.random(window) < noise_rate
    mask[offset::step] = True
    return WindowedSet.from_mask(mask)
