"""Recovering the mixing measure from moments or from a count law.

The recovered object is the raw law of the level-n sample mean: atoms at
i/n carrying the level-n count-law weights.  No smoothing is applied; with
rational input the recovery is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import math

from .model import (
    MixingMeasure,
    MomentVector,
    SampleMeanLaw,
    Value,
    kernel_mean,
    level_moments,
    mean_law_from_moments,
)
from .numerics import DomainError


@dataclass(frozen=True)
class RecoveredMeasure:
    """A mixing measure reconstructed at a finite level n (atoms at i/n)."""

    measure: MixingMeasure
    source: str            # "moments" | "mean-law"
    level: int


@dataclass(frozen=True)
class WeakConvergenceDiagnostic:
    """Per-test-function gaps |E_law[f] - E_target[f]|.

    Test functions are the monomials p^m and the Bernoulli product kernels
    p^a (1-p)^(k-a).  Polynomial moments determine a measure on [0, 1]
    (Hausdorff), so shrinking gaps over this family witness weak convergence.
    """

    gaps: tuple[tuple[str, Value], ...]

    def gap(self, name: str) -> Value:
        for n, g in self.gaps:
            if n == name:
                return g
        raise KeyError(name)

    def max_gap(self) -> Value:
        return max(g for _, g in self.gaps)


def recover_from_moments(c: MomentVector, n: int) -> RecoveredMeasure:
    """Level-n recovery: atoms at i/n with the unique level-n count-law
    weights.  Propagates the extendability rejection (with its negative
    weight certificate) when the vector admits no level-n law."""
    measure = MixingMeasure.from_count_law(mean_law_from_moments(c, n))
    return RecoveredMeasure(measure=measure, source="moments", level=n)


def recover_from_mean_law(law: SampleMeanLaw) -> RecoveredMeasure:
    """Read the count law itself as a discrete measure on [0, 1]."""
    return RecoveredMeasure(
        measure=MixingMeasure.from_count_law(law), source="mean-law", level=law.N
    )


def _expect_kernel_law_float(law: SampleMeanLaw, a: int, k: int) -> float:
    """E[(i/n)^a (1 - i/n)^(k-a)] under a float count law; a monomial p^m
    is the a = k = m case."""
    n = law.N
    return math.fsum(
        (i / n) ** a * (1 - i / n) ** (k - a) * q
        for i, q in enumerate(law.weights)
    )


def _expect_kernel_measure(mu: MixingMeasure, a: int, k: int) -> Value:
    terms = [w * p**a * (1 - p) ** (k - a) for p, w in mu.atoms]
    if mu.is_exact:
        return sum(terms)
    return math.fsum(terms)


def weak_convergence_gap(
    law: SampleMeanLaw, target: MixingMeasure, k_max: int
) -> WeakConvergenceDiagnostic:
    """Gaps between law and target expectations over monomials p^m (m <= k_max)
    and kernels p^a (1-p)^(k-a) (k <= k_max)."""
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    if law.is_exact:
        # every law expectation is kernel_mean's rhs over one moment pass
        moments = level_moments(law, k_max)

        def expect(a: int, k: int) -> Value:
            return kernel_mean(moments, law.N, k, a)[1]
    else:
        expect = functools.partial(_expect_kernel_law_float, law)
    entries: list[tuple[str, Value]] = []
    for m in range(k_max + 1):
        gap = abs(expect(m, m) - _expect_kernel_measure(target, m, m))
        entries.append((f"p^{m}", gap))
    for k in range(1, k_max + 1):
        for a in range(k + 1):
            gap = abs(expect(a, k) - _expect_kernel_measure(target, a, k))
            entries.append((f"p^{a}(1-p)^{k - a}", gap))
    return WeakConvergenceDiagnostic(gaps=tuple(entries))


def cdf_distance(a: MixingMeasure, b: MixingMeasure) -> Value:
    """Kolmogorov sup-distance between the CDFs of two discrete measures.

    Both CDFs are right-continuous step functions, so the sup over [0, 1]
    is attained on the merged atom grid.
    """
    locs = sorted({p for p, _ in a.atoms} | {p for p, _ in b.atoms})
    wa = dict(a.atoms)
    wb = dict(b.atoms)
    exact = a.is_exact and b.is_exact
    fa = Fraction(0) if exact else 0.0
    fb = Fraction(0) if exact else 0.0
    best = Fraction(0) if exact else 0.0
    for x in locs:
        fa += wa.get(x, 0)
        fb += wb.get(x, 0)
        best = max(best, abs(fa - fb))
    return best
