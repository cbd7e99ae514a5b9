"""Finite nonnegative measures on the unit circle.

A measure is a finite list of atoms plus a binned density, both living on
a uniform grid of ``bins`` cells over [0, 2pi).  The density array stores
the average density per cell, so the cell mass is density * (2pi/bins).
Angles are kept in [0, 2pi); bin j covers [2pi*j/B, 2pi*(j+1)/B).

Conventions fixed here and relied on everywhere else:

* Fourier coefficients are moments of z^n:  mu_hat(n) = integral of
  e^{i n theta} d mu(theta).  The density part uses the midpoint rule,
  trustworthy only for |n| <= bins/8; larger |n| raises OutOfBandError
  whenever a density part is present (atoms are exact at every n).
  A whole band n = -n_max..n_max costs one FFT of the bin array (the
  midpoint sum at order n is width * e^{i n width/2} times the n-th
  inverse DFT term, scaled by bins) plus one matrix-vector product over
  the atoms; fourier_coefficient reads a single entry of that band.
* Convolution pushes forward addition of angles mod 2pi.  The
  density x density branch is the circular convolution of the bin
  arrays scaled by the bin width, aligned symmetrically over the two
  bins each product cell straddles; that alignment is exactly the bin
  average of the true convolution of the two step densities, keeps the
  result nonnegative and makes the Fourier error second order in n/bins.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import e as E_CONST
from typing import Optional

import numpy as np

from .jsonio import _read_field, check_schema, record_dict
from .seeding import rng_for

TWO_PI = 2.0 * np.pi
ATOM_MERGE_TOL = 1e-12


class BinMismatchError(ValueError):
    """Binary operation on measures with different bin counts."""


class OutOfBandError(ValueError):
    """Fourier order outside the midpoint-rule trust band |n| <= bins/8."""


class NotProbabilityError(ValueError):
    """Operation requires a probability measure (total mass 1 +- 1e-9)."""


def _canonical_atoms(angles, masses):
    angles = np.atleast_1d(np.asarray(angles, dtype=float)).copy()
    masses = np.atleast_1d(np.asarray(masses, dtype=float)).copy()
    if angles.shape != masses.shape or angles.ndim != 1:
        raise ValueError("atom angles and masses must be 1d arrays of equal length")
    if np.any(~np.isfinite(angles)) or np.any(~np.isfinite(masses)):
        raise ValueError("atom data must be finite")
    if np.any(masses < 0):
        raise ValueError("atom masses must be nonnegative")
    keep = masses > 0.0
    angles, masses = angles[keep], masses[keep]
    if angles.size == 0:
        return np.empty(0), np.empty(0)
    angles = np.mod(angles, TWO_PI)
    # an angle within merge tolerance below 2pi is the point 0
    angles[TWO_PI - angles <= ATOM_MERGE_TOL] = 0.0
    order = np.argsort(angles, kind="stable")
    angles, masses = angles[order], masses[order]
    starts = np.concatenate([[True], np.diff(angles) > ATOM_MERGE_TOL])
    group = np.cumsum(starts) - 1
    merged_a = angles[starts]
    merged_m = np.bincount(group, weights=masses)
    return merged_a, merged_m


@dataclass(frozen=True, eq=False)
class CircleMeasure:
    """Atoms plus binned density on [0, 2pi).  Immutable once built."""

    bins: int
    atom_angles: np.ndarray
    atom_masses: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        if self.bins < 8 or (self.bins & (self.bins - 1)) != 0:
            raise ValueError(f"bins must be a power of two >= 8, got {self.bins}")
        if self.density.shape != (self.bins,):
            raise ValueError("density length must equal bins")
        if np.any(~np.isfinite(self.density)) or np.any(self.density < 0):
            raise ValueError("density values must be finite and nonnegative")

    # -- construction -------------------------------------------------

    @classmethod
    def from_parts(cls, bins: int, atoms=None, density=None) -> "CircleMeasure":
        pairs = [] if atoms is None else list(atoms)
        a, m = _canonical_atoms([p[0] for p in pairs], [p[1] for p in pairs])
        d = np.zeros(bins) if density is None else np.asarray(density, dtype=float).copy()
        return cls(bins, a, m, d)

    @classmethod
    def dirac(cls, angle: float, mass: float = 1.0, bins: int = 1024) -> "CircleMeasure":
        return cls.from_parts(bins, atoms=[(angle, mass)])

    @classmethod
    def uniform(cls, mass: float = 1.0, bins: int = 1024) -> "CircleMeasure":
        return cls.from_parts(bins, density=np.full(bins, mass / TWO_PI))

    # -- structure ----------------------------------------------------

    @property
    def bin_width(self) -> float:
        return TWO_PI / self.bins

    @property
    def bin_centers(self) -> np.ndarray:
        return (np.arange(self.bins) + 0.5) * self.bin_width

    @property
    def atom_count(self) -> int:
        return int(self.atom_angles.size)

    @property
    def has_density(self) -> bool:
        return bool(np.any(self.density > 0))

    @property
    def atom_mass(self) -> float:
        return float(np.sum(self.atom_masses))

    @property
    def density_mass(self) -> float:
        return float(self.bin_width * np.sum(self.density))

    def atoms(self):
        return list(zip(self.atom_angles.tolist(), self.atom_masses.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleMeasure):
            return NotImplemented
        # atom angles within the merge tolerance name the same point of the
        # discretized class, so equality must not split them (angle
        # round-trips drift by ulps); masses and densities stay bit-exact
        return (
            self.bins == other.bins
            and self.atom_angles.shape == other.atom_angles.shape
            and np.allclose(self.atom_angles, other.atom_angles,
                            rtol=0.0, atol=ATOM_MERGE_TOL)
            and np.array_equal(self.atom_masses, other.atom_masses)
            and np.array_equal(self.density, other.density)
        )

    def __repr__(self) -> str:
        return (
            f"CircleMeasure(bins={self.bins}, atoms={self.atom_count}, "
            f"mass={total_mass(self):.6g})"
        )

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "circle-measure/1",
            "bins": self.bins,
            "atoms": [[float(a), float(m)] for a, m in self.atoms()],
            "density": [float(v) for v in self.density],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CircleMeasure":
        check_schema(doc, "circle-measure")
        read = functools.partial(_read_field, doc, "circle-measure")
        atoms, density = doc.get("atoms"), doc.get("density")
        return cls.from_parts(
            read("bins", "integer"),
            atoms=[] if atoms is None else read("atoms", "pairs"),
            density=None if density is None else read("density", "numbers"))


def _same_bins(mu: CircleMeasure, nu: CircleMeasure) -> None:
    if mu.bins != nu.bins:
        raise BinMismatchError(f"bin counts differ: {mu.bins} vs {nu.bins}")


def total_mass(mu: CircleMeasure) -> float:
    return mu.atom_mass + mu.density_mass


def mix(mu: CircleMeasure, nu: CircleMeasure) -> CircleMeasure:
    """Sum of two measures on the same grid."""
    _same_bins(mu, nu)
    return CircleMeasure.from_parts(
        mu.bins,
        atoms=mu.atoms() + nu.atoms(),
        density=mu.density + nu.density,
    )


def scale(mu: CircleMeasure, factor: float) -> CircleMeasure:
    if factor < 0:
        raise ValueError("scaling factor must be nonnegative")
    return CircleMeasure.from_parts(
        mu.bins,
        atoms=[(a, m * factor) for a, m in mu.atoms()],
        density=mu.density * factor,
    )


def fourier_band(mu: CircleMeasure, n_max: int) -> np.ndarray:
    """Moments of z^n for n = -n_max..n_max, in that order.  Atoms are
    exact; the density part is midpoint-rule and only trusted for
    n_max <= bins/8."""
    return _family_bands([mu], n_max)[0]


def _family_bands(family, n_max: int) -> np.ndarray:
    """fourier_band of every measure of a same-bins family as the rows of
    one (family, 2*n_max+1) array: the densities share one FFT."""
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    bins = family[0].bins
    if any(mu.has_density for mu in family) and n_max > bins // 8:
        raise OutOfBandError(
            f"|n|={n_max} exceeds the density trust band bins/8={bins // 8}"
        )
    orders = np.arange(-n_max, n_max + 1)
    out = np.zeros((len(family), orders.size), dtype=complex)
    dense = [i for i, mu in enumerate(family) if mu.has_density]
    if dense:
        width = TWO_PI / bins
        # for real densities, bins * ifft(density)[k] is conj(rfft(density)[k])
        spectrum = np.fft.rfft(np.stack([family[i].density for i in dense]))
        k = np.arange(n_max + 1)
        upper = width * np.exp(1j * k * (width / 2.0)) * spectrum[:, :n_max + 1].conj()
        out[dense] = np.concatenate([upper[:, :0:-1].conj(), upper], axis=1)
    for row, mu in zip(out, family):
        if mu.atom_count:
            row += np.exp(1j * np.outer(orders, mu.atom_angles)) @ mu.atom_masses
    return out


def fourier_coefficient(mu: CircleMeasure, n: int) -> complex:
    """Moment of z^n: one entry of fourier_band(mu, |n|)."""
    n = int(n)
    return complex(fourier_band(mu, abs(n))[abs(n) + n])


def _rotated_density(density: np.ndarray, angles: np.ndarray, masses: np.ndarray,
                     bins: int) -> np.ndarray:
    """Density of (sum of m_k * delta_{a_k}) convolved with a step density.

    A rotation by a_k shifts the grid by a_k/width cells; the fractional
    part splits each cell's mass linearly over the two straddled target
    cells, which is again the exact bin average of the rotated density.
    """
    width = TWO_PI / bins
    out = np.zeros(bins)
    for a, m in zip(angles, masses):
        shift = a / width
        s0 = int(np.floor(shift))
        frac = shift - s0
        out += m * (1.0 - frac) * np.roll(density, s0)
        if frac > 0.0:
            out += m * frac * np.roll(density, s0 + 1)
    return out


def convolve(mu: CircleMeasure, nu: CircleMeasure) -> CircleMeasure:
    """Convolution on the circle: pushforward of angle addition mod 2pi."""
    _same_bins(mu, nu)
    bins = mu.bins
    width = mu.bin_width
    sums = np.mod(mu.atom_angles[:, None] + nu.atom_angles[None, :], TWO_PI).ravel()
    prods = (mu.atom_masses[:, None] * nu.atom_masses[None, :]).ravel()
    atoms = list(zip(sums.tolist(), prods.tolist()))
    density = np.zeros(bins)
    if mu.has_density and nu.has_density:
        raw = np.fft.ifft(np.fft.fft(mu.density) * np.fft.fft(nu.density)).real
        # each cell-pair product is a width-2 hat straddling two target
        # cells; averaging the hat over each cell splits it evenly
        density += (width / 2.0) * (raw + np.roll(raw, 1))
    if mu.atom_count and nu.has_density:
        density += _rotated_density(nu.density, mu.atom_angles, mu.atom_masses, bins)
    if nu.atom_count and mu.has_density:
        density += _rotated_density(mu.density, nu.atom_angles, nu.atom_masses, bins)
    np.maximum(density, 0.0, out=density)  # guard FFT round-off
    return CircleMeasure.from_parts(bins, atoms=atoms, density=density)


def convolution_power(rho: CircleMeasure, n: int) -> CircleMeasure:
    """n-fold convolution; the zeroth power is the unit atom at angle 0."""
    if n < 0:
        raise ValueError("convolution power requires n >= 0")
    if n == 0:
        return CircleMeasure.dirac(0.0, 1.0, bins=rho.bins)
    out = rho
    for _ in range(n - 1):
        out = convolve(out, rho)
    return out


def _factorial_tail(order: int, terms: int = 60) -> float:
    """sum_{n > order} 1/n! to double precision."""
    tail = 0.0
    term = 1.0
    for n in range(1, order + 1):
        term /= n
    for n in range(order + 1, order + terms + 1):
        term /= n
        tail += term
    return tail


def truncation_order(tail_tol: float) -> int:
    """Smallest K with sum_{n > K} 1/n! < tail_tol."""
    if not 0 < tail_tol < 1:
        raise ValueError("tail_tol must be in (0, 1)")
    for order in range(0, 200):
        if _factorial_tail(order) < tail_tol:
            return order
    raise ValueError("tail tolerance too small to honor in double precision")


def _require_probability(rho: CircleMeasure) -> None:
    mass = total_mass(rho)
    if abs(mass - 1.0) > 1e-9:
        raise NotProbabilityError(f"total mass {mass!r} is not 1 within 1e-9")


def _exp_terms(rho: CircleMeasure, tail_tol: float):
    """rho^{*n} / n! for n = 1, 2, ..., truncated once the remaining
    factorial tail drops below tail_tol."""
    _require_probability(rho)
    power = None
    fact = 1.0
    for n in range(1, truncation_order(tail_tol) + 1):
        power = rho if power is None else convolve(power, rho)
        fact *= n
        yield scale(power, 1.0 / fact)


def exp_measure(rho: CircleMeasure, tail_tol: float = 1e-12) -> CircleMeasure:
    """Exponential of a probability measure in the convolution algebra:
    the unit atom at 0 plus sum over n >= 1 of rho^{*n} / n!, truncated
    once the remaining factorial tail drops below tail_tol."""
    return functools.reduce(mix, _exp_terms(rho, tail_tol),
                            CircleMeasure.dirac(0.0, 1.0, bins=rho.bins))


def normalized_chaos(rho: CircleMeasure, tail_tol: float = 1e-12) -> CircleMeasure:
    """The exponential with its unit atom at 0 removed, renormalized by
    1/(e - 1) to a probability measure.  Only the seed term's atom is
    removed; mass that positive powers of rho place at angle 0 stays."""
    return scale(functools.reduce(mix, _exp_terms(rho, tail_tol)),
                 1.0 / (E_CONST - 1.0))


# -- decay and rigidity probes ---------------------------------------

# The probes' pass gates; each report prints the one it applied.
_EPSILON = 0.1  # Rajchman and Dirichlet
_DELTA = 0.1  # mild mixing


@dataclass(frozen=True)
class RajchmanReport:
    tail_sup: float
    passed: bool
    window: tuple  # (lo, hi) scan window of orders
    epsilon: float

    def to_dict(self) -> dict:
        return record_dict(self, probe="rajchman")


@dataclass(frozen=True)
class DirichletReport:
    best_n: int
    best_value: float
    passed: bool
    window: tuple
    epsilon: float

    def to_dict(self) -> dict:
        return record_dict(self, probe="dirichlet")


@dataclass(frozen=True)
class MildMixingReport:
    worst_limsup: float
    passed: bool
    witness: str
    family_size: int
    window: tuple
    delta: float
    seed: int

    def to_dict(self) -> dict:
        return record_dict(self, probe="mild-mixing")


def _coefficient_window(n_max: int):
    """The scan window [(n_max + 1) // 2, n_max]; the band the probes read
    makes the density trust-band check."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return (n_max + 1) // 2, n_max


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| rounded as Python's abs(complex) rounds it; np.abs on complex
    arrays can be one ulp off, which would reorder exact ties such as the
    unit moduli of point masses."""
    return np.hypot(z.real, z.imag)


def rajchman_probe(rho: CircleMeasure, n_max: int = 64) -> RajchmanReport:
    """Coefficient-decay proxy: sup of |rho_hat(n)| over the upper half
    of the scan window [1, n_max]; passes when the sup stays below
    _EPSILON.  A one-sided finite-window stand-in for rho_hat(n) -> 0."""
    _require_probability(rho)
    lo, hi = _coefficient_window(n_max)
    tail_sup = np.max(_modulus(fourier_band(rho, hi)[hi + lo:]))
    return RajchmanReport(tail_sup=float(tail_sup), passed=bool(tail_sup < _EPSILON),
                          window=(lo, hi), epsilon=_EPSILON)


def dirichlet_probe(rho: CircleMeasure, n_max: int = 64) -> DirichletReport:
    """Rigidity proxy: largest coefficient modulus attained over the upper
    half of the window, with its witnessing order (largest order wins a
    tie).  Passes when that value exceeds 1 - _EPSILON, evidence that the
    coefficients return to modulus one along a subsequence."""
    _require_probability(rho)
    lo, hi = _coefficient_window(n_max)
    values = _modulus(fourier_band(rho, hi)[hi + lo:])
    best_value = np.max(values)
    best_n = lo + np.flatnonzero(values >= best_value - 1e-12)[-1]
    return DirichletReport(best_n=int(best_n), best_value=float(best_value),
                           passed=bool(best_value > 1.0 - _EPSILON),
                           window=(lo, hi), epsilon=_EPSILON)


def _restrict_to_bins(rho: CircleMeasure, mask: np.ndarray) -> Optional[CircleMeasure]:
    """Restriction of rho to a union of grid cells, or None if negligible."""
    atoms = []
    cells = np.minimum((rho.atom_angles / rho.bin_width).astype(int), rho.bins - 1)
    for a, m, c in zip(rho.atom_angles, rho.atom_masses, cells):
        if mask[c]:
            atoms.append((a, m))
    density = np.where(mask, rho.density, 0.0)
    mass = sum(m for _, m in atoms) + rho.bin_width * density.sum()
    if mass <= 1e-12:
        return None
    return scale(CircleMeasure.from_parts(rho.bins, atoms=atoms, density=density),
                 1.0 / mass)


def mild_mixing_probe(rho: CircleMeasure, family_size: int = 16, n_max: int = 64,
                      seed: int = 0) -> MildMixingReport:
    """Worst coefficient-return over a family of normalized restrictions
    of rho: one per atom (an atom's restriction is a point mass, whose
    coefficients sit on the unit circle at every order, so atoms force a
    failure) and family_size seeded restrictions to random unions of
    grid cells.  Passes when every member keeps its windowed sup of
    |theta_hat(n)| below 1 - _DELTA."""
    _require_probability(rho)
    lo, hi = _coefficient_window(n_max)
    family = []
    for a, m in rho.atoms():
        family.append((f"atom@{a:.6f}", CircleMeasure.dirac(a, 1.0, bins=rho.bins)))
    rng = rng_for(seed, "mild-mixing-unions")
    for i in range(family_size):
        mask = rng.random(rho.bins) < 0.5
        theta = _restrict_to_bins(rho, mask)
        if theta is not None:
            family.append((f"union#{i}", theta))
    if not family:
        raise ValueError("empty probe family: measure has no atoms and no density")
    bands = _family_bands([theta for _, theta in family], hi)
    sups = np.max(_modulus(bands[:, hi + lo:]), axis=1)
    best = int(np.argmax(sups))
    worst, witness = sups[best], family[best][0]
    return MildMixingReport(worst_limsup=float(worst),
                            passed=bool(worst < 1.0 - _DELTA),
                            witness=witness, family_size=len(family),
                            window=(lo, hi), delta=_DELTA, seed=seed)
