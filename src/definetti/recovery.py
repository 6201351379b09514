"""Recovering the mixing measure from moments or from a count law.

The recovered object is the raw law of the level-n sample mean: atoms at
i/n carrying the level-n count-law weights.  No smoothing is applied; with
rational input the recovery is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import math

from .model import (
    MixingMeasure,
    MomentVector,
    SampleMeanLaw,
    Value,
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


def _measure_from_law(law: SampleMeanLaw) -> MixingMeasure:
    n = law.N
    atoms = []
    for i, q in enumerate(law.weights):
        if q != 0:
            loc = Fraction(i, n) if law.is_exact else i / n
            atoms.append((loc, q))
    return MixingMeasure(tuple(atoms))


def recover_from_moments(c: MomentVector, n: int) -> RecoveredMeasure:
    """Level-n recovery: atoms at i/n with the unique level-n count-law
    weights.  Propagates the extendability rejection (with its negative
    weight certificate) when the vector admits no level-n law."""
    law = mean_law_from_moments(c, n)
    return RecoveredMeasure(measure=_measure_from_law(law), source="moments", level=n)


def recover_from_mean_law(law: SampleMeanLaw) -> RecoveredMeasure:
    """Read the count law itself as a discrete measure on [0, 1]."""
    return RecoveredMeasure(
        measure=_measure_from_law(law), source="mean-law", level=law.N
    )


def _expect_kernel_law(law: SampleMeanLaw, a: int, k: int) -> Value:
    """E[(i/n)^a (1 - i/n)^(k-a)] under the count law; a monomial p^m is the
    a = k = m case.  Exact laws with an integer form are summed over their
    common denominator with one reduction at the end."""
    n = law.N
    form = law.integer_form()
    if form is not None:
        nums, den = form
        acc = 0
        for i, q_num in enumerate(nums):
            if q_num:
                acc += i**a * (n - i) ** (k - a) * q_num
        return Fraction(acc, den * n**k)
    if law.is_exact:
        return sum(
            Fraction(i, n) ** a * Fraction(n - i, n) ** (k - a) * q
            for i, q in enumerate(law.weights)
            if q != 0
        )
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
    entries: list[tuple[str, Value]] = []
    for m in range(k_max + 1):
        gap = abs(_expect_kernel_law(law, m, m) - _expect_kernel_measure(target, m, m))
        entries.append((f"p^{m}", gap))
    for k in range(1, k_max + 1):
        for a in range(k + 1):
            gap = abs(
                _expect_kernel_law(law, a, k) - _expect_kernel_measure(target, a, k)
            )
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
