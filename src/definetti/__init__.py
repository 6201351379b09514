"""Finite-N toolkit for exchangeable Bernoulli mixtures.

Exact-rational and log-space computation of mixture prefix probabilities,
sample-mean laws, kernel-ratio diagnostics with region error budgets, tail
bounds, and moment-based recovery of the mixing measure.
"""

from .harness import (
    RatioScan,
    TailBounds,
    VerificationReport,
    ratio_scan,
    tail_bounds_check,
    verify_approximation,
)
from .model import (
    ExtendabilityError,
    MixingMeasure,
    MomentVector,
    PrefixEvent,
    SampleMeanLaw,
    ValidationError,
    check_complete_monotonicity,
    mean_law_from_moments,
    mixture_prefix_prob,
    moments_from_measure,
    prefix_prob_from_mean_law,
    prefix_prob_from_moments,
    sample_mean_law,
)
from .numerics import (
    DomainError,
    RatioFactors,
    RegionBounds,
    binomial,
    conditional_prefix_prob,
    iid_kernel,
    ratio_factors,
    ratio_within_correction,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)
from .oracle import (
    WordLaw,
    brute_conditional_prefix,
    brute_prefix_prob,
    word_law_from_mixture,
)
from .recovery import RecoveredMeasure, recover_from_moments

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExtendabilityError",
    "MixingMeasure",
    "MomentVector",
    "PrefixEvent",
    "RatioFactors",
    "RatioScan",
    "RecoveredMeasure",
    "RegionBounds",
    "SampleMeanLaw",
    "TailBounds",
    "ValidationError",
    "VerificationReport",
    "WordLaw",
    "binomial",
    "brute_conditional_prefix",
    "brute_prefix_prob",
    "check_complete_monotonicity",
    "conditional_prefix_prob",
    "iid_kernel",
    "mean_law_from_moments",
    "mixture_prefix_prob",
    "moments_from_measure",
    "prefix_prob_from_mean_law",
    "prefix_prob_from_moments",
    "ratio_factors",
    "ratio_scan",
    "ratio_within_correction",
    "recover_from_moments",
    "region_bounds",
    "replacement_correction",
    "replacement_correction_float",
    "sample_mean_law",
    "tail_bounds_check",
    "verify_approximation",
    "word_law_from_mixture",
]
