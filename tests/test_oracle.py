import itertools
import random
from fractions import Fraction

import pytest

import definetti as d
from definetti.model import (
    MixingMeasure,
    PrefixEvent,
    ValidationError,
    mixture_prefix_prob,
    prefix_prob_from_mean_law,
    sample_mean_law,
)
from definetti.oracle import all_prefix_probs, word_law_from_mixture

from conftest import random_rational_measure

F = Fraction


def test_word_law_examples(fair_coin):
    law = word_law_from_mixture(fair_coin, 2)
    assert all(w == F(1, 4) for w in law.weights)
    zero_one = MixingMeasure(((F(0), F(1, 2)), (F(1), F(1, 2))))
    law3 = word_law_from_mixture(zero_one, 3)
    assert law3.weights[0] == F(1, 2)          # 000
    assert law3.weights[7] == F(1, 2)          # 111
    assert sum(1 for w in law3.weights if w != 0) == 2
    third = word_law_from_mixture(MixingMeasure.point_mass(F(1, 3)), 2)
    assert third.weights == (F(4, 9), F(2, 9), F(2, 9), F(1, 9))


def test_word_law_caps_and_rejections():
    with pytest.raises(ValidationError):
        word_law_from_mixture(MixingMeasure.point_mass(F(1, 2)), 21)
    with pytest.raises(ValidationError):
        word_law_from_mixture(MixingMeasure.point_mass(0.5), 4)  # float atoms


def test_brute_prefix_prob(fair_coin):
    assert all_prefix_probs(word_law_from_mixture(fair_coin, 5), 2)[0b10] == F(1, 4)
    zero_one = MixingMeasure(((F(0), F(1, 2)), (F(1), F(1, 2))))
    assert all_prefix_probs(word_law_from_mixture(zero_one, 4), 2)[0b10] == 0
    rng = random.Random(2)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 6)
    for k in (1, 3, 6):
        table = all_prefix_probs(law, k)
        assert len(table) == 1 << k and sum(table.values()) == 1


def test_all_prefix_probs_matches_pointwise():
    # the sweep's integer keys against the words as tuples: word integers
    # run in lexicographic order, first coordinate most significant
    rng = random.Random(6)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 7)
    words = list(itertools.product((0, 1), repeat=7))
    for k in (1, 4, 7):
        table = all_prefix_probs(law, k)
        for bits in itertools.product((0, 1), repeat=k):
            key = int("".join(map(str, bits)), 2)
            want = sum(w for word, w in zip(words, law.weights) if word[:k] == bits)
            assert table[key] == want


def test_conditional_equals_formula_everywhere():
    # the sum over counts of P(prefix | count = i) q_i, with the exact
    # conditional weights, against the word sweep's prefix probability
    rng = random.Random(3)
    for _ in range(3):
        mu = random_rational_measure(rng)
        N = rng.randint(3, 8)
        law = word_law_from_mixture(mu, N)
        q = sample_mean_law(mu, N).weights
        for k in range(1, N + 1):
            brute = all_prefix_probs(law, k)
            for alpha in range(k + 1):
                key = int("1" * alpha + "0" * (k - alpha), 2)
                assert brute[key] == sum(
                    d.conditional_prefix_prob(N, k, alpha, i) * q[i] for i in range(N + 1)
                )


def test_three_path_equivalence_small():
    rng = random.Random(100)
    for _ in range(4):
        mu = random_rational_measure(rng)
        for N in (3, 5, 7):
            law = word_law_from_mixture(mu, N)
            mean_law = sample_mean_law(mu, N)
            for k in range(1, N + 1):
                brute = all_prefix_probs(law, k)
                for bits in itertools.product((0, 1), repeat=k):
                    e = PrefixEvent(bits)
                    v1 = brute[int("".join(map(str, bits)), 2)]
                    v2 = mixture_prefix_prob(mu, e)
                    v3 = prefix_prob_from_mean_law(mean_law, e)
                    assert v1 == v2 == v3


def test_conditional_uniformity_within_count_class():
    rng = random.Random(19)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 6)
    by_count = {}
    for word, w in enumerate(law.weights):
        by_count.setdefault(word.bit_count(), set()).add(w)
    assert all(len(vals) == 1 for vals in by_count.values())
