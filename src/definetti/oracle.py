"""Brute-force reference over all 2^N binary words.

``word_law_from_mixture`` materializes a mixture's exact law word by word,
and ``all_prefix_probs`` sums it into every length-k prefix probability in
one sweep; ``cmd_oracle`` and the tests check the formula-based pipelines
against those sums at small N.  Words are integers 0 .. 2^N - 1 with the
first coordinate in the most significant bit, so numeric order is
lexicographic order of the tuples.  The cap at N = 20 (about a million
words) is a hard error, never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import MixingMeasure, ValidationError

WORD_CAP = 20


@dataclass(frozen=True)
class WordLaw:
    """Exact law on {0,1}^N as a weight per word (words keyed by integer)."""

    N: int
    weights: tuple[Fraction, ...]   # indexed by word integer, length 2^N

    def __post_init__(self):
        if not (1 <= self.N <= WORD_CAP):
            raise ValidationError(f"word law needs 1 <= N <= {WORD_CAP}, got {self.N}")
        if len(self.weights) != 1 << self.N:
            raise ValidationError("weight vector must have length 2^N")
        if sum(self.weights) != 1:
            raise ValidationError("word weights must sum to exactly 1")
        if any(w < 0 for w in self.weights):
            raise ValidationError("word weights must be nonnegative")


def word_law_from_mixture(mu: MixingMeasure, N: int) -> WordLaw:
    """Exact word law of the iid mixture; requires rational atoms and N <= 20."""
    if N > WORD_CAP:
        raise ValidationError(f"oracle capped at N = {WORD_CAP}, got {N}")
    if N < 1:
        raise ValidationError("N must be positive")
    if not mu.is_exact:
        raise ValidationError("the word oracle requires rational atom data")
    # weight(word) depends on the word only through its one-count, but the
    # law is still materialized word by word: ``all_prefix_probs`` must
    # sweep a genuine assignment on {0,1}^N
    by_count = []
    for c in range(N + 1):
        by_count.append(
            sum(
                (
                    Fraction(w) * Fraction(p) ** c * (1 - Fraction(p)) ** (N - c)
                    for p, w in mu.atoms
                ),
                Fraction(0),
            )
        )
    weights = tuple(by_count[word.bit_count()] for word in range(1 << N))
    return WordLaw(N=N, weights=weights)


def all_prefix_probs(law: WordLaw, k: int) -> dict[int, Fraction]:
    """One sweep accumulating every length-k prefix probability (keyed by the
    prefix read as an integer)."""
    if not 1 <= k <= law.N:
        raise ValidationError(f"need 1 <= k <= {law.N}")
    shift = law.N - k
    out: dict[int, Fraction] = {p: Fraction(0) for p in range(1 << k)}
    for word, w in enumerate(law.weights):
        out[word >> shift] += w
    return out
