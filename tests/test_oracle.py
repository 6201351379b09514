import itertools
import random
from fractions import Fraction

import pytest

import definetti as d
from definetti.model import (
    MixingMeasure,
    PrefixEvent,
    SampleMeanLaw,
    ValidationError,
    mixture_prefix_prob,
    prefix_prob_from_mean_law,
    sample_mean_law,
)
from definetti.oracle import (
    WordLaw,
    all_prefix_probs,
    brute_conditional_prefix,
    brute_prefix_prob,
    word_law_from_count_law,
    word_law_from_mixture,
)

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


def test_word_tuple_is_lexicographic():
    law = word_law_from_mixture(MixingMeasure.point_mass(F(1, 3)), 3)
    tuples = [law.word_tuple(w) for w in law.words()]
    assert tuples == sorted(tuples)
    assert tuples[0] == (0, 0, 0) and tuples[-1] == (1, 1, 1)


def test_brute_prefix_prob(fair_coin):
    law = word_law_from_mixture(fair_coin, 5)
    assert brute_prefix_prob(law, PrefixEvent((1, 0))) == F(1, 4)
    zero_one = MixingMeasure(((F(0), F(1, 2)), (F(1), F(1, 2))))
    assert brute_prefix_prob(word_law_from_mixture(zero_one, 4), PrefixEvent((1, 0))) == 0
    rng = random.Random(2)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 6)
    for k in (1, 3, 6):
        total = sum(
            brute_prefix_prob(law, PrefixEvent(bits))
            for bits in itertools.product((0, 1), repeat=k)
        )
        assert total == 1


def test_all_prefix_probs_matches_pointwise():
    rng = random.Random(6)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 7)
    for k in (1, 4, 7):
        table = all_prefix_probs(law, k)
        for bits in itertools.product((0, 1), repeat=k):
            key = int("".join(map(str, bits)), 2)
            assert table[key] == brute_prefix_prob(law, PrefixEvent(bits))


def test_brute_conditional_matches_formula():
    rng = random.Random(13)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 5)
    e = PrefixEvent((1, 0))
    if law.count_prob(2) != 0:
        assert brute_conditional_prefix(law, e, 2) == F(3, 10)
        assert brute_conditional_prefix(law, e, 2) == d.conditional_prefix_prob(
            5, 2, 1, 2
        )


def test_brute_conditional_edge_cases(fair_coin):
    law = word_law_from_mixture(fair_coin, 4)
    assert brute_conditional_prefix(law, PrefixEvent((1, 1)), 1) == 0   # i < alpha
    assert brute_conditional_prefix(law, PrefixEvent((1, 1, 1, 1)), 4) == 1
    with pytest.raises(ValidationError):
        brute_conditional_prefix(
            word_law_from_mixture(MixingMeasure.point_mass(F(1)), 4),
            PrefixEvent((1,)),
            0,  # zero-probability count
        )


def test_brute_conditional_requires_exchangeable():
    weights = [F(0)] * 16
    weights[0b1000] = F(1, 2)
    weights[0b0000] = F(1, 2)
    law = WordLaw(N=4, weights=tuple(weights))
    assert not law.is_exchangeable()
    with pytest.raises(ValidationError):
        brute_conditional_prefix(law, PrefixEvent((1,)), 1)


def test_conditional_equals_formula_everywhere():
    rng = random.Random(3)
    for _ in range(3):
        mu = random_rational_measure(rng)
        N = rng.randint(3, 8)
        law = word_law_from_mixture(mu, N)
        for k in range(1, N + 1):
            for alpha in range(k + 1):
                e = PrefixEvent((1,) * alpha + (0,) * (k - alpha))
                for i in range(N + 1):
                    if law.count_prob(i) == 0:
                        continue
                    assert brute_conditional_prefix(law, e, i) == d.conditional_prefix_prob(
                        N, k, alpha, i
                    )


def test_three_path_equivalence_small():
    rng = random.Random(100)
    for _ in range(4):
        mu = random_rational_measure(rng)
        for N in (3, 5, 7):
            law = word_law_from_mixture(mu, N)
            mean_law = sample_mean_law(mu, N)
            for k in range(1, N + 1):
                for bits in itertools.product((0, 1), repeat=k):
                    e = PrefixEvent(bits)
                    v1 = brute_prefix_prob(law, e)
                    v2 = mixture_prefix_prob(mu, e)
                    v3 = prefix_prob_from_mean_law(mean_law, e)
                    assert v1 == v2 == v3


def test_conditional_uniformity_within_count_class():
    rng = random.Random(19)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 6)
    assert law.is_exchangeable()
    by_count = {}
    for word, w in enumerate(law.weights):
        by_count.setdefault(word.bit_count(), set()).add(w)
    assert all(len(vals) == 1 for vals in by_count.values())


def test_permutation_invariance_exhaustive_small():
    rng = random.Random(7)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 4)
    for sigma in itertools.permutations(range(4)):
        assert law.permuted(sigma).weights == law.weights


def test_permutation_invariance_sampled_larger():
    rng = random.Random(8)
    mu = random_rational_measure(rng)
    law = word_law_from_mixture(mu, 9)
    perm = list(range(9))
    for _ in range(10):
        rng.shuffle(perm)
        assert law.permuted(tuple(perm)).weights == law.weights


def test_word_law_from_count_law_exchangeable_and_invariant():
    counts = SampleMeanLaw(N=3, weights=[F(1, 6), F(1, 3), F(1, 3), F(1, 6)])
    law = word_law_from_count_law(counts)
    assert law.is_exchangeable()
    for sigma in itertools.permutations(range(3)):
        assert law.permuted(sigma).weights == law.weights
    # implied pairwise probability matches the conditional-weight formula
    assert brute_prefix_prob(law, PrefixEvent((1, 1))) == prefix_prob_from_mean_law(
        counts, PrefixEvent((1, 1))
    )


def test_permuted_rejects_non_permutation():
    law = word_law_from_mixture(MixingMeasure.point_mass(F(1, 2)), 3)
    with pytest.raises(ValidationError):
        law.permuted((0, 0, 1))
