"""Desk-scale laboratory for spectral measures on the circle, the Kalish
arc-indicator operator, Gaussian models over eigenvector fields, hitting-set
combinatorics, and a transitivity classification harness."""

from .circle_measure import (
    CircleMeasure,
    BinMismatchError,
    OutOfBandError,
    NotProbabilityError,
    convolve,
    convolution_power,
    exp_measure,
    normalized_chaos,
    fourier_band,
    fourier_coefficient,
    total_mass,
    mix,
    scale,
    truncation_order,
    rajchman_probe,
    dirichlet_probe,
    mild_mixing_probe,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .corpora import (
    measure_pair,
    probability_measure,
    random_functional,
    random_windowed_set,
    scaffold_set,
)
from .dynamics_lab import (
    SystemSpec,
    BallSpec,
    Trajectory,
    ProbeOutcome,
    ClassificationReport,
    kalish_system,
    scalar_shift_system,
    weighted_shift_system,
    torus_system,
    step,
    n_step_map,
    default_start,
    orbit,
    hitting_times,
    return_set_identity_check,
    periodic_return_probe,
    e_system_probe,
    implication_flags,
    classify_system,
    classification_run,
    default_battery,
)
from .gauss_model import (
    EigenField,
    GaussModel,
    FieldAdmissibilityError,
    DegenerateFunctionalError,
    NormDriftError,
    quantize,
    indicator_field,
    corrected_field,
    build_model,
    intertwine_residual,
    sample,
    symmetry_check,
    invariance_check,
    matrix_coefficient_analytic,
    matrix_coefficient_mc,
    spectral_measure_of_functional,
)
from .hitting_sets import (
    WindowedSet,
    density_ladder,
    upper_density,
    lower_density,
    upper_banach_density,
    difference_set,
    max_gap,
    longest_interval,
)
from .jsonio import SchemaError, read_json, stable_dumps, write_json
from .kalish import (
    CircleFunction,
    GridMismatchError,
    DegenerateAngleError,
    MatrixSizeError,
    grid_angles,
    func_norm,
    apply_T,
    chi,
    eigen_residual,
    kalish_matrix,
    nearest_grid_index,
)
from .runner import run
from .seeding import derive_seed, rng_for

__version__ = "0.1.0"
