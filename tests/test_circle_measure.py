"""Measures on the circle: construction, convolution, exponential, probes.

Expected values come from independent oracles: direct sums over atoms,
closed-form coefficients of simple densities, and a factorial tail bound
for the exponential truncation order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coeff_row, line_events, measures_close
from hyperlab import (
    BinMismatchError,
    CircleMeasure,
    NotProbabilityError,
    OutOfBandError,
    convolution_power,
    convolve,
    dirichlet_probe,
    fourier_band,
    fourier_coefficient,
    exp_measure,
    mild_mixing_probe,
    mix,
    normalized_chaos,
    rajchman_probe,
    scale,
    total_mass,
    truncation_order,
)
from hyperlab.circle_measure import _family_bands
from hyperlab.corpora import measure_pair, probability_measure

TWO_PI = 2.0 * np.pi

# -- hypothesis strategies (small bins keep the runs quick) -----------

angles = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9,
                   allow_nan=False, allow_infinity=False)
masses = st.floats(min_value=0.05, max_value=2.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def atomic_measures(draw, bins=64, max_atoms=4):
    count = draw(st.integers(min_value=1, max_value=max_atoms))
    ats = [(draw(angles), draw(masses)) for _ in range(count)]
    return CircleMeasure.from_parts(bins, atoms=ats)


@st.composite
def grid_measures(draw, bins=64):
    seedval = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seedval)
    density = rng.random(bins) + 0.1
    factor = draw(masses)
    return CircleMeasure.from_parts(bins, density=density * factor)


@st.composite
def mixed_measures(draw, bins=64):
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(atomic_measures(bins=bins))
    if kind == 1:
        return draw(grid_measures(bins=bins))
    return mix(draw(atomic_measures(bins=bins)), draw(grid_measures(bins=bins)))


# -- construction and canonical atoms --------------------------------

def test_bins_must_be_power_of_two():
    with pytest.raises(ValueError):
        CircleMeasure.from_parts(48)
    with pytest.raises(ValueError):
        CircleMeasure.from_parts(4)


def test_atoms_sorted_and_merged():
    mu = CircleMeasure.from_parts(
        64, atoms=[(3.0, 0.5), (1.0, 0.25), (1.0 + 1e-13, 0.25)]
    )
    ats = mu.atoms()
    assert len(ats) == 2
    assert ats[0][0] == pytest.approx(1.0)
    assert ats[0][1] == pytest.approx(0.5)
    assert ats[1][0] == pytest.approx(3.0)


def test_atom_near_two_pi_snaps_to_zero():
    mu = CircleMeasure.from_parts(64, atoms=[(TWO_PI - 1e-14, 1.0)])
    assert mu.atoms() == [(0.0, 1.0)]


@pytest.mark.parametrize("atoms", [None, [], zip([], [])], ids=["none", "list", "zip"])
def test_no_atoms_give_empty_float_atom_arrays(atoms):
    mu = CircleMeasure.from_parts(64, atoms=atoms)
    for part in (mu.atom_angles, mu.atom_masses):
        assert part.dtype == np.float64 and part.shape == (0,)


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        CircleMeasure.from_parts(64, atoms=[(1.0, -0.5)])
    with pytest.raises(ValueError):
        CircleMeasure.from_parts(64, density=-np.ones(64))


def test_density_length_must_match_bins():
    with pytest.raises(ValueError):
        CircleMeasure.from_parts(64, density=np.ones(32))


def test_total_mass_splits():
    mu = CircleMeasure.from_parts(
        64, atoms=[(1.0, 0.25)], density=np.full(64, 1.0 / TWO_PI)
    )
    assert mu.atom_mass == pytest.approx(0.25)
    assert mu.density_mass == pytest.approx(1.0)
    assert total_mass(mu) == pytest.approx(1.25)


def test_serialization_round_trip():
    mu = CircleMeasure.from_parts(
        32, atoms=[(0.5, 0.3)], density=np.linspace(0.1, 0.4, 32)
    )
    again = CircleMeasure.from_dict(mu.to_dict())
    assert again == mu
    assert again.to_dict()["schema"].startswith("circle-measure/")


_PAIRS = r"field 'atoms' must be a list of \[angle, mass\] pairs of finite numbers"


@pytest.mark.parametrize("change, message", [
    ({"bins": 16.9}, "field 'bins' must be an integer, got 16.9"),
    ({"bins": "16"}, "field 'bins' must be an integer, got '16'"),
    ({"bins": None}, "field 'bins' must be an integer, got None"),
    ({"bins": ...}, "missing required field 'bins'"),
    ({"atoms": [[1.0]]}, _PAIRS),
    ({"atoms": [[1.0, "x"]]}, _PAIRS),
    ({"atoms": [1.0, 0.5]}, _PAIRS),
    ({"atoms": [[1.0, True]]}, _PAIRS),
    ({"density": [0.1] * 15 + ["x"]}, "field 'density' must be a list of finite numbers"),
])
def test_from_dict_names_a_missing_or_ill_typed_field(change, message):
    doc = dict(CircleMeasure.uniform(bins=16).to_dict(), atoms=[[0.5, 0.3]])
    doc.update(change)
    doc = {k: v for k, v in doc.items() if v is not ...}  # ... drops the field
    with pytest.raises(ValueError, match="circle-measure.*" + message):
        CircleMeasure.from_dict(doc)


# -- Fourier coefficients ---------------------------------------------

def test_coefficient_of_dirac_is_exponential():
    # oracle: the transform of a point mass at a is m * exp(i n a)
    mu = CircleMeasure.dirac(2.0, 0.7, bins=64)
    for n in (-3, 0, 1, 5):
        assert fourier_coefficient(mu, n) == pytest.approx(0.7 * np.exp(1j * n * 2.0))


def test_coefficient_zero_is_total_mass():
    mu = CircleMeasure.from_parts(
        64, atoms=[(1.0, 0.5)], density=np.full(64, 2.0 / TWO_PI)
    )
    assert fourier_coefficient(mu, 0) == pytest.approx(total_mass(mu))


def test_uniform_coefficients_vanish():
    mu = CircleMeasure.uniform(bins=64)
    for n in range(1, 9):
        assert abs(fourier_coefficient(mu, n)) < 1e-12


def test_grid_coefficient_matches_midpoint_oracle():
    bins = 256
    rng = np.random.default_rng(5)
    density = rng.random(bins) + 0.2
    mu = CircleMeasure.from_parts(bins, density=density)
    w = TWO_PI / bins
    centers = (np.arange(bins) + 0.5) * w
    for n in (1, 7, 31):
        oracle = np.sum(density * w * np.exp(1j * n * centers))
        assert fourier_coefficient(mu, n) == pytest.approx(oracle, abs=1e-12)


def test_cosine_density_coefficient_closed_form():
    # density (1 + cos(theta)) / (2 pi) sampled at bin midpoints has
    # coefficient exactly 1/2 at n = 1: the midpoint rule is exact for
    # trigonometric polynomials of degree below bins / 2
    bins = 1024
    centers = (np.arange(bins) + 0.5) * TWO_PI / bins
    mu = CircleMeasure.from_parts(bins, density=(1 + np.cos(centers)) / TWO_PI)
    assert fourier_coefficient(mu, 1) == pytest.approx(0.5, abs=1e-12)
    assert fourier_coefficient(mu, -1) == pytest.approx(0.5, abs=1e-12)
    assert abs(fourier_coefficient(mu, 3)) < 1e-12


def test_out_of_band_raises_only_with_density():
    grid = CircleMeasure.uniform(bins=64)
    with pytest.raises(OutOfBandError):
        fourier_coefficient(grid, 9)  # band is 64/8 = 8
    atomic = CircleMeasure.dirac(1.0, bins=64)
    # atoms have exact coefficients at every order
    assert abs(fourier_coefficient(atomic, 500)) == pytest.approx(1.0)


def test_conjugate_symmetry():
    mu = CircleMeasure.from_parts(
        64, atoms=[(1.3, 0.4)], density=np.random.default_rng(0).random(64)
    )
    for n in range(1, 8):
        assert fourier_coefficient(mu, -n) == pytest.approx(
            np.conj(fourier_coefficient(mu, n))
        )


def direct_band(bins, atoms, density, n_max):
    """Midpoint-rule and atom sums order by order, independent of the FFT."""
    width = TWO_PI / bins
    centers = (np.arange(bins) + 0.5) * width
    out = []
    for n in range(-n_max, n_max + 1):
        total = sum(m * np.exp(1j * n * a) for a, m in atoms)
        if density is not None:
            total += width * np.sum(density * np.exp(1j * n * centers))
        out.append(total)
    return np.array(out)


def band_parts(kind, bins):
    rng = np.random.default_rng(bins)
    atoms = [(0.4, 0.3), (2.9, 0.15), (5.5, 0.05)] if kind != "density" else []
    density = rng.random(bins) + 0.1 if kind != "atoms" else None
    return atoms, density


@pytest.mark.parametrize("bins", [8, 64, 8192])
@pytest.mark.parametrize("kind", ["atoms", "density", "mixed"])
def test_fourier_band_matches_direct_sum(kind, bins):
    atoms, density = band_parts(kind, bins)
    mu = CircleMeasure.from_parts(bins, atoms=atoms, density=density)
    n_max = bins // 8
    band = fourier_band(mu, n_max)
    assert band.shape == (2 * n_max + 1,)
    assert np.max(np.abs(band - direct_band(bins, atoms, density, n_max))) <= 1e-12


@pytest.mark.parametrize("kind", ["density", "mixed"])
def test_fourier_band_trust_band_with_density(kind):
    atoms, density = band_parts(kind, 64)
    mu = CircleMeasure.from_parts(64, atoms=atoms, density=density)
    fourier_band(mu, 8)
    with pytest.raises(OutOfBandError):
        fourier_band(mu, 9)


def test_fourier_band_atoms_exact_beyond_bins():
    atoms, _ = band_parts("atoms", 64)
    mu = CircleMeasure.from_parts(64, atoms=atoms)
    band = fourier_band(mu, 2 * 64 + 3)
    assert np.max(np.abs(band - direct_band(64, atoms, None, 2 * 64 + 3))) <= 1e-12


def test_family_bands_rows_match_single_bands():
    bins = 256
    family = [CircleMeasure.from_parts(bins, *band_parts(kind, bins))
              for kind in ("atoms", "density", "mixed")]
    family.append(CircleMeasure.uniform(bins=bins))
    rows = _family_bands(family, bins // 8)
    assert rows.shape == (len(family), 2 * (bins // 8) + 1)
    for row, mu in zip(rows, family):
        assert np.max(np.abs(row - fourier_band(mu, bins // 8))) <= 1e-15


@pytest.mark.parametrize("measure, bins, ffts", [
    (lambda bins: probability_measure(0, bins), 1024, 1),
    (lambda bins: probability_measure(0, bins), 16384, 1),
    (lambda bins: CircleMeasure.dirac(1.0, 1.0, bins=bins), 1024, 0),
], ids=["mixed-1024", "mixed-16384", "dirac"])
def test_fourier_band_costs_one_fft_per_band_with_a_density(monkeypatch, measure,
                                                             bins, ffts):
    # ROADMAP item 14's contract: one rfft per band, none for atoms alone
    calls, rfft = [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    fourier_band(measure(bins), bins // 8)
    assert len(calls) == ffts


@pytest.mark.parametrize("measure", [
    lambda bins: CircleMeasure.uniform(bins=bins),
    lambda bins: probability_measure(0, bins),
], ids=["uniform", "mixed"])
def test_fourier_band_runs_no_python_loop_over_the_bins(measure):
    # 106 line events (uniform) and 111 (mixed) at both sizes
    events = []
    for bins in (1024, 16384):
        mu = measure(bins)
        fourier_band(mu, bins // 8)  # first calls run one-time setup lines
        events.append(line_events(lambda: fourier_band(mu, bins // 8)))
    assert events[1] <= events[0], events


# -- mix / scale -------------------------------------------------------

def test_mix_requires_same_bins():
    with pytest.raises(BinMismatchError):
        mix(CircleMeasure.uniform(bins=32), CircleMeasure.uniform(bins=64))


def test_scale_rejects_negative():
    with pytest.raises(ValueError):
        scale(CircleMeasure.uniform(bins=32), -1.0)


@settings(max_examples=25, deadline=None)
@given(mixed_measures(), mixed_measures(), masses)
def test_mix_and_scale_are_linear_on_coefficients(mu, nu, factor):
    lhs = coeff_row(scale(mix(mu, nu), factor), 4)
    rhs = factor * (coeff_row(mu, 4) + coeff_row(nu, 4))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# -- convolution -------------------------------------------------------

def test_convolve_diracs_adds_angles():
    a = CircleMeasure.dirac(4.0, 0.5, bins=64)
    b = CircleMeasure.dirac(3.0, 0.5, bins=64)
    out = convolve(a, b)
    assert out.atoms() == [(pytest.approx((4.0 + 3.0) % TWO_PI), pytest.approx(0.25))]


def test_convolve_with_unit_dirac_at_zero_is_identity_on_atoms():
    mu = CircleMeasure.from_parts(64, atoms=[(1.0, 0.3), (2.5, 0.7)])
    out = convolve(mu, CircleMeasure.dirac(0.0, 1.0, bins=64))
    assert measures_close(out, mu, 1e-12)


def test_atomic_duality_exact():
    # multiplicativity: transform of the convolution is the product
    mu, nu = measure_pair(seed=11, bins=1024, kind="atomic")
    lhs = coeff_row(convolve(mu, nu), 64)
    rhs = coeff_row(mu, 64) * coeff_row(nu, 64)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_grid_duality_within_projection_error():
    mu, nu = measure_pair(seed=11, bins=1024, kind="grid")
    lhs = coeff_row(convolve(mu, nu), 64)
    rhs = coeff_row(mu, 64) * coeff_row(nu, 64)
    assert np.max(np.abs(lhs - rhs)) <= 5e-3


@settings(max_examples=25, deadline=None)
@given(mixed_measures(bins=128), mixed_measures(bins=128))
def test_mass_conservation_under_convolution(mu, nu):
    assert total_mass(convolve(mu, nu)) == pytest.approx(
        total_mass(mu) * total_mass(nu), abs=1e-10
    )


@settings(max_examples=20, deadline=None)
@given(atomic_measures(bins=64), atomic_measures(bins=64))
def test_convolution_commutes_on_atoms(mu, nu):
    assert measures_close(convolve(mu, nu), convolve(nu, mu), 1e-12)


@settings(max_examples=15, deadline=None)
@given(atomic_measures(bins=64, max_atoms=3), atomic_measures(bins=64, max_atoms=3),
       atomic_measures(bins=64, max_atoms=3))
def test_convolution_associates_on_coefficients(mu, nu, rho):
    lhs = coeff_row(convolve(convolve(mu, nu), rho), 4)
    rhs = coeff_row(convolve(mu, convolve(nu, rho)), 4)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_convolution_power_matches_repeated_convolve():
    rho = probability_measure(seed=3, bins=256)
    p3 = convolution_power(rho, 3)
    ref = convolve(convolve(rho, rho), rho)
    np.testing.assert_allclose(
        coeff_row(p3, 16), coeff_row(ref, 16), atol=1e-10
    )


def test_convolution_power_zero_is_identity():
    rho = probability_measure(seed=4, bins=256)
    unit = convolution_power(rho, 0)
    assert unit.atoms() == [(0.0, pytest.approx(1.0))]
    assert not unit.has_density


def test_convolution_power_rejects_negative():
    with pytest.raises(ValueError):
        convolution_power(CircleMeasure.uniform(bins=64), -1)


# -- exponential -------------------------------------------------------

def _factorial_tail(order: int) -> float:
    # independent bound: sum_{k > order} 1 / k! for a unit-mass input
    return sum(1.0 / math.factorial(k) for k in range(order + 1, order + 60))


def test_truncation_order_against_factorial_oracle():
    for tol in (1e-6, 1e-9, 1e-12):
        k = truncation_order(tol)
        assert _factorial_tail(k) <= tol
        assert _factorial_tail(k - 1) > tol


def test_truncation_order_frozen_values():
    assert truncation_order(1e-12) == 14
    assert truncation_order(1e-6) == 9


def test_exponential_identity_on_probability_measures():
    # (exp rho)^(n) = e^{rho^(n)} coefficient by coefficient
    for seed in range(4):
        rho = probability_measure(seed=seed, bins=1024)
        out = exp_measure(rho, tail_tol=1e-12)
        for n in (-32, -5, 0, 1, 17, 64):
            want = np.exp(fourier_coefficient(rho, n))
            got = fourier_coefficient(out, n)
            assert abs(got - want) <= 1e-5, (seed, n)


def test_exponential_requires_probability():
    with pytest.raises(NotProbabilityError):
        exp_measure(CircleMeasure.uniform(mass=2.0, bins=64))


def test_exponential_mass_is_e():
    # hat at n = 0 is e^1: the series sums factorial reciprocals
    rho = probability_measure(seed=9, bins=512)
    out = exp_measure(rho)
    assert total_mass(out) == pytest.approx(np.e, abs=1e-9)


def test_normalized_chaos_is_probability():
    rho = probability_measure(seed=9, bins=512)
    out = normalized_chaos(rho)
    assert total_mass(out) == pytest.approx(1.0, abs=1e-9)


def test_normalized_chaos_fixes_uniform():
    uni = CircleMeasure.uniform(bins=1024)
    out = normalized_chaos(uni)
    assert out.atom_count == 0
    assert np.max(np.abs(out.density - uni.density)) <= 1e-9


def test_normalized_chaos_of_dirac_at_zero_is_dirac():
    rho = CircleMeasure.dirac(0.0, 1.0, bins=64)
    out = normalized_chaos(rho)
    assert out.atoms() == [(0.0, pytest.approx(1.0, abs=1e-9))]


# -- probes ------------------------------------------------------------

def test_rajchman_passes_on_uniform():
    report = rajchman_probe(CircleMeasure.uniform(bins=1024))
    assert report.passed
    assert report.tail_sup <= 1e-9


def test_rajchman_fails_on_dirac():
    report = rajchman_probe(CircleMeasure.dirac(1.0, 1.0, bins=1024))
    assert not report.passed
    assert report.tail_sup == pytest.approx(1.0)


def test_dirichlet_passes_on_dirac():
    # point mass coefficients return to modulus one at every order
    report = dirichlet_probe(CircleMeasure.dirac(2.0, 1.0, bins=1024))
    assert report.passed
    assert report.best_value >= 1.0 - 1e-9


def test_dirichlet_fails_on_uniform():
    report = dirichlet_probe(CircleMeasure.uniform(bins=1024))
    assert not report.passed


def test_probe_consistency_rajchman_excludes_dirichlet():
    # decay to zero and near-recurrence to modulus one cannot coexist
    for seed in range(6):
        rho = probability_measure(seed=seed, bins=1024)
        if rho.atom_count:
            rho = normalized_chaos(CircleMeasure.from_parts(
                rho.bins, density=np.full(rho.bins, 1.0 / TWO_PI)))
        if rajchman_probe(rho).passed:
            assert not dirichlet_probe(rho).passed


def test_mild_mixing_passes_on_uniform():
    report = mild_mixing_probe(CircleMeasure.uniform(bins=1024))
    assert report.passed
    assert report.family_size >= 16


def test_mild_mixing_fails_on_any_visible_atom():
    # an atom of mass >= 0.01 forces a unit-modulus member in the family
    for mass in (0.01, 0.3, 1.0):
        rho = mix(
            CircleMeasure.dirac(1.0, mass, bins=1024),
            CircleMeasure.uniform(mass=1.0 - mass, bins=1024),
        )
        report = mild_mixing_probe(rho)
        assert not report.passed
        assert report.witness.startswith("atom@")


def test_probes_reject_non_probability():
    heavy = CircleMeasure.uniform(mass=3.0, bins=1024)
    for probe in (rajchman_probe, dirichlet_probe, mild_mixing_probe):
        with pytest.raises(NotProbabilityError):
            probe(heavy)
