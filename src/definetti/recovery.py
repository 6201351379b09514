"""Recovering the mixing measure from moments.

The recovered object is the raw law of the level-n sample mean: atoms at
i/n carrying the level-n count-law weights.  No smoothing is applied; with
rational input the recovery is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import MixingMeasure, MomentVector, mean_law_from_moments


@dataclass(frozen=True)
class RecoveredMeasure:
    """A mixing measure reconstructed at a finite level n (atoms at i/n)."""

    measure: MixingMeasure
    level: int


def recover_from_moments(c: MomentVector, n: int) -> RecoveredMeasure:
    """Level-n recovery: atoms at i/n with the unique level-n count-law
    weights.  Propagates the extendability rejection (with its negative
    weight certificate) when the vector admits no level-n law."""
    measure = MixingMeasure.from_count_law(mean_law_from_moments(c, n))
    return RecoveredMeasure(measure=measure, level=n)
