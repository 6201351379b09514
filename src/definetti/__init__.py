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
    prefix_prob_from_mean_law,
    prefix_prob_from_moments,
    sample_mean_law,
)
from .numerics import (
    DomainError,
    RegionBounds,
    conditional_prefix_prob,
    iid_kernel,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)
from .oracle import WordLaw, word_law_from_mixture
from .recovery import RecoveredMeasure, recover_from_moments

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExtendabilityError",
    "MixingMeasure",
    "MomentVector",
    "PrefixEvent",
    "RatioScan",
    "RecoveredMeasure",
    "RegionBounds",
    "SampleMeanLaw",
    "TailBounds",
    "ValidationError",
    "VerificationReport",
    "WordLaw",
    "check_complete_monotonicity",
    "conditional_prefix_prob",
    "iid_kernel",
    "mean_law_from_moments",
    "mixture_prefix_prob",
    "prefix_prob_from_mean_law",
    "prefix_prob_from_moments",
    "ratio_scan",
    "recover_from_moments",
    "region_bounds",
    "replacement_correction",
    "replacement_correction_float",
    "sample_mean_law",
    "tail_bounds_check",
    "verify_approximation",
    "word_law_from_mixture",
]
