"""Spectral theory and Monte Carlo laboratory for one-dimensional drifted
diffusions with jump boundary: closed forms, a non-local eigenvalue solver,
ensemble and coupling samplers, and a reproducible experiment CLI."""

from . import errors
from .analytic import (
    conjectured_threshold,
    coupling_tail_bound_rate,
    dirichlet_bottom,
    fast_coupling_bound,
    green_function,
    invariant_density,
    invariant_density_limit,
    killed_survival,
    mean_exit_time,
    theoretical_gap,
)
from .coupling import (
    CouplingRecord,
    TailTable,
    convolution_bound_check,
    coupling_tail,
    mirror_exit_dominance,
    staged_coupling,
)
from .eigensolver import (
    Box,
    CharDeterminant,
    SpectrumReport,
    count_zeros,
    find_spectrum,
    gap_curve,
)
from .experiments import (
    ExperimentConfig,
    ThresholdResult,
    report_corollary3,
    run,
    threshold_locate,
    validate_config,
)
from .model import (
    DEFAULT_CONFIG,
    ComplexEigenvalue,
    Interval,
    JumpDistribution,
    ProcessSpec,
    RateFit,
    SolverConfig,
    unit_spec,
    validate_spec,
)
from .simulate import (
    EnsembleSnapshot,
    RngStream,
    TVCurve,
    ensemble_tv,
    fit_rate,
    verify_pathwise_lemma,
)

__version__ = "0.1.0"

__all__ = [
    "Box", "CharDeterminant", "ComplexEigenvalue", "CouplingRecord",
    "DEFAULT_CONFIG", "EnsembleSnapshot", "ExperimentConfig", "Interval",
    "JumpDistribution", "ProcessSpec", "RateFit", "RngStream", "SolverConfig",
    "SpectrumReport", "TVCurve", "TailTable", "ThresholdResult",
    "conjectured_threshold", "convolution_bound_check", "count_zeros",
    "coupling_tail", "coupling_tail_bound_rate", "dirichlet_bottom",
    "ensemble_tv", "errors", "fast_coupling_bound", "find_spectrum",
    "fit_rate", "gap_curve", "green_function", "invariant_density",
    "invariant_density_limit", "killed_survival", "mean_exit_time",
    "mirror_exit_dominance", "report_corollary3", "run", "staged_coupling",
    "theoretical_gap", "threshold_locate", "unit_spec", "validate_config",
    "validate_spec", "verify_pathwise_lemma",
]
