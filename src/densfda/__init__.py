"""Functional data analysis for samples of one-dimensional densities.

Densities on a compact support are mapped to an unconstrained Hilbert
space (log hazard or log quantile density), analyzed there with
functional PCA, and mapped back, so that every representation and mode
of variation is again a bona fide density.  Fréchet means/variance under
the L2 and Wasserstein metrics quantify how much variation a truncated
representation explains, with a Hilbert-sphere baseline, a
boundary-corrected kernel density estimator for raw samples, a
simulation harness, and scalar-on-density regression.

densfda runs on NumPy alone; SciPy serves only as a reference in the
tests.
"""

# the one version literal, set before any submodule import reads it: the
# run manifests of fileio record it as their artifact version
__version__ = "0.1.0"

from .density import (
    DEFAULT_FLOOR,
    DensityFn,
    DensitySample,
    Grid,
    dist_wasserstein,
    normalize_rows,
    unit_grid,
)
from .errors import (
    AllZeroError,
    BadArgumentError,
    BadBandwidthError,
    CsvFormatError,
    DegenerateSigmaError,
    DensfdaError,
    EmptySampleError,
    GridMismatchError,
    InvalidDensityError,
    KTooLargeError,
    NoConvergenceError,
    NonFiniteError,
    NotInvertibleError,
    OutOfSupportError,
    RankDeficientWarning,
    SampleShapeError,
    SupportMismatchError,
    TooFewSamplesError,
    TransformOverflowError,
)
from .fpca import (
    EigenSystem,
    fit,
    mode_of_variation,
    scores,
    truncate,
)
from .frechet import (
    FittedMethod,
    FrechetReport,
    HilbertSphere,
    Metric,
    OrdinaryFpca,
    TransformMethod,
    embedding,
    fisher_rao_mean,
    frechet_mean,
    frechet_variance,
    fve_report,
    method_named,
    wasserstein_frechet_mean,
)
from .kde import KdeConfig, Kernel, boundary_weight, default_bandwidth, estimate_rows
from .regression import FlrModel, cv_mse, fit_flr, predict
from .simulation import (
    SIMULATION_BLEND,
    SIMULATION_FLOOR,
    GeneratedSetting,
    SettingSpec,
    SimulationResult,
    default_methods,
    gen_setting,
    run_comparison,
    truncated_normal_rows,
)
from .sphere import exp_map, karcher_mean, log_map, sqrt_embed
from .transforms import LQD, LogHazard, Lqd, forward_rows, inverse_rows
