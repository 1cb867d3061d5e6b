"""Numerical laboratory for digitwise-additive functions over mixed-radix bases.

Exact mixed-radix arithmetic, per-level digit statistics with certified
tails, limit laws by convolution and by characteristic-function
inversion, exact empirical distances, effective window bounds with a
discrete optimizer, dependent-digit chains, and a batch experiment
runner.
"""

from .errors import (AlphabetMismatch, CantorLabError, ConfigError,
                     DigitOutOfRange, InvalidBase, MissingDensityBound,
                     NoTailMeta, NotPrimitive, NotStochastic,
                     PointOutOfRange, RangeTooSmall, RegimeUnavailable,
                     ResourceLimit, UnknownPreset)
from .mixed_radix import CantorBase, Expansion, build_base, compress, expand, length
from .qadditive import (DigitMap, DigitStats, EwReport, digit_stats,
                        digit_value, evaluate, ew_diagnose, level_values,
                        tail_sums)
from .empirical import (EmpiricalCDF, Interval, SmoothingReport,
                        UniformCDF, concentration, empirical_cdf, kolmogorov,
                        smoothing_check, star_discrepancy, value_vector,
                        wasserstein1)
from .limitlaw import (GridCDF, InvertedCDF, cf_factor, cf_truncated, limit_cdf_conv,
                       limit_cdf_invert)
from .window_bounds import (T_GRID, WindowBoundReport, optimize_window,
                            predicted_rate, regime_term, resolve_regime, tau1,
                            tau2, total_bound, window_size)
from .markov_digits import (CovarianceDecay, DigitChain, WindowVariance,
                            build_chain, covariance_decay, generate_paths, window_variance)
from .experiments import (CSV_COLUMNS, ExperimentConfig, PRESET_NAMES, preset,
                          rows_to_csv, run_experiment, write_cf_trace)

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatch", "CSV_COLUMNS", "CantorBase",
    "CantorLabError", "ConfigError", "CovarianceDecay", "DigitChain",
    "DigitMap", "DigitStats", "EmpiricalCDF", "EwReport", "Expansion",
    "ExperimentConfig", "GridCDF", "Interval", "InvalidBase", "InvertedCDF",
    "MissingDensityBound", "NoTailMeta", "NotPrimitive", "NotStochastic",
    "PRESET_NAMES", "PointOutOfRange", "RangeTooSmall", "T_GRID",
    "RegimeUnavailable", "ResourceLimit", "SmoothingReport", "UniformCDF",
    "UnknownPreset", "WindowBoundReport", "WindowVariance", "build_base",
    "build_chain", "cf_factor", "cf_truncated", "compress", "concentration",
    "covariance_decay", "digit_stats", "digit_value", "empirical_cdf",
    "evaluate", "ew_diagnose", "expand", "generate_paths", "kolmogorov",
    "length", "level_values", "limit_cdf_conv", "limit_cdf_invert",
    "optimize_window", "predicted_rate", "preset", "regime_term",
    "resolve_regime", "rows_to_csv", "run_experiment", "smoothing_check",
    "star_discrepancy", "tail_sums", "tau1", "tau2", "total_bound",
    "value_vector", "wasserstein1", "window_size", "window_variance",
    "write_cf_trace",
]
