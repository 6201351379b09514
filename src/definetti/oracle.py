"""Brute-force reference over all 2^N binary words.

The word sweep validates every formula-based pipeline at small N by direct
summation with exact rationals.  Words are integers 0 .. 2^N - 1 with the
first coordinate in the most significant bit, so numeric order is
lexicographic order of the tuples.  The cap at N = 20 (about a million
words) is a hard error, never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .model import MixingMeasure, PrefixEvent, ValidationError

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

    def word_tuple(self, word: int) -> tuple[int, ...]:
        return tuple((word >> (self.N - 1 - j)) & 1 for j in range(self.N))

    def words(self) -> Iterator[int]:
        return iter(range(1 << self.N))

    def is_exchangeable(self) -> bool:
        """True iff the weight depends on the word only through its one-count."""
        seen: dict[int, Fraction] = {}
        for word, w in enumerate(self.weights):
            c = word.bit_count()
            if c in seen:
                if seen[c] != w:
                    return False
            else:
                seen[c] = w
        return True

    def permuted(self, sigma: Sequence[int]) -> "WordLaw":
        """Pushforward under a coordinate permutation (sigma maps old -> new)."""
        if sorted(sigma) != list(range(self.N)):
            raise ValidationError("not a permutation of 0..N-1")
        out = [Fraction(0)] * (1 << self.N)
        for word, w in enumerate(self.weights):
            new = 0
            for j in range(self.N):
                bit = (word >> (self.N - 1 - j)) & 1
                new |= bit << (self.N - 1 - sigma[j])
            out[new] += w
        return WordLaw(N=self.N, weights=tuple(out))

    def count_prob(self, i: int) -> Fraction:
        return sum(
            (w for word, w in enumerate(self.weights) if word.bit_count() == i),
            Fraction(0),
        )


def word_law_from_mixture(mu: MixingMeasure, N: int) -> WordLaw:
    """Exact word law of the iid mixture; requires rational atoms and N <= 20."""
    if N > WORD_CAP:
        raise ValidationError(f"oracle capped at N = {WORD_CAP}, got {N}")
    if N < 1:
        raise ValidationError("N must be positive")
    if not mu.is_exact:
        raise ValidationError("the word oracle requires rational atom data")
    # weight(word) depends on the word only through its one-count, but the
    # law is still materialized word by word: the sweeps below must see a
    # genuine assignment on {0,1}^N
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


def word_law_from_count_law(count_law) -> WordLaw:
    """Spread a count law uniformly over each one-count class of words.

    This is the canonical exchangeable word law with the given counts:
    weight(word) = q_{ones(word)} / C(N, ones(word)).
    """
    from math import comb

    N = count_law.N
    if N > WORD_CAP:
        raise ValidationError(f"oracle capped at N = {WORD_CAP}, got {N}")
    q = [Fraction(x) for x in count_law.weights]
    per_word = [q[c] / comb(N, c) for c in range(N + 1)]
    return WordLaw(
        N=N, weights=tuple(per_word[w.bit_count()] for w in range(1 << N))
    )


def brute_prefix_prob(law: WordLaw, e: PrefixEvent) -> Fraction:
    """Prefix probability by direct summation over matching words."""
    N, k = law.N, e.k
    if k > N:
        raise ValidationError(f"pattern length {k} exceeds N={N}")
    target = 0
    for bit in e.pattern:
        target = (target << 1) | bit
    shift = N - k
    return sum(
        (w for word, w in enumerate(law.weights) if word >> shift == target),
        Fraction(0),
    )


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


def brute_conditional_prefix(law: WordLaw, e: PrefixEvent, i: int) -> Fraction:
    """P(prefix | one-count = i) by direct summation; requires an
    exchangeable law and positive count probability."""
    N, k = law.N, e.k
    if k > N:
        raise ValidationError(f"pattern length {k} exceeds N={N}")
    if not 0 <= i <= N:
        raise ValidationError(f"count {i} outside [0, {N}]")
    if not law.is_exchangeable():
        raise ValidationError("conditional sweep requires an exchangeable law")
    denom = law.count_prob(i)
    if denom == 0:
        raise ValidationError(f"conditioning on zero-probability count {i}")
    target = 0
    for bit in e.pattern:
        target = (target << 1) | bit
    shift = N - k
    num = sum(
        (
            w
            for word, w in enumerate(law.weights)
            if word.bit_count() == i and word >> shift == target
        ),
        Fraction(0),
    )
    return num / denom
