import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import definetti as d
from definetti.model import (
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

from conftest import measure_moments, random_rational_measure

F = Fraction

rational_atoms = st.builds(
    lambda num, den: F(num % (den + 1), den),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=12),
)


@st.composite
def rational_measures(draw, max_atoms=4):
    n = draw(st.integers(1, max_atoms))
    locs = draw(
        st.lists(rational_atoms, min_size=n, max_size=n, unique=True)
    )
    weights = draw(
        st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs))
    )
    total = sum(weights)
    pairs = sorted((p, F(w, total)) for p, w in zip(locs, weights))
    return MixingMeasure(tuple(pairs))


# ---------------------------------------------------------------------------
# types and validation
# ---------------------------------------------------------------------------

def test_prefix_event():
    e = PrefixEvent((1, 1, 0))
    assert e.k == 3 and e.alpha == 2
    assert PrefixEvent.from_string("1,0,1").pattern == (1, 0, 1)
    with pytest.raises(ValidationError):
        PrefixEvent(())
    with pytest.raises(ValidationError):
        PrefixEvent((1, 2))
    with pytest.raises(ValidationError):
        PrefixEvent.from_string("1,x")


def test_measure_validation():
    with pytest.raises(ValidationError):
        MixingMeasure(((F(1, 2), F(9, 10)),))        # mass 0.9
    with pytest.raises(ValidationError):
        MixingMeasure(((F(3, 2), F(1)),))            # location outside [0,1]
    with pytest.raises(ValidationError):
        MixingMeasure(((F(1, 2), F(1)), (F(1, 4), F(0))))  # zero weight
    with pytest.raises(ValidationError):
        MixingMeasure(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))  # duplicate
    merged = MixingMeasure.from_pairs(
        [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 4)), (F(0), F(1, 4))]
    )
    assert merged.atoms == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))
    assert MixingMeasure.point_mass(0.25).is_exact is False
    assert MixingMeasure.point_mass(F(1, 4)).is_exact is True


def test_count_law_validation():
    with pytest.raises(ValidationError):
        SampleMeanLaw(N=2, weights=[0.5, 0.6, -0.1])
    with pytest.raises(ValidationError):
        SampleMeanLaw(N=1, weights=[F(1, 2), F(1, 4)])  # mass 3/4
    law = SampleMeanLaw(N=2, weights=[0, 1, 0])
    assert law.N == 2
    assert prefix_prob_from_mean_law(law, PrefixEvent((1,))) == F(1, 2)


def test_moment_vector_validation():
    with pytest.raises(ValidationError):
        MomentVector((F(1, 2), F(1, 4)))            # c_0 != 1
    with pytest.raises(ValidationError):
        MomentVector((F(1), F(1, 4), F(1, 2)))      # increasing
    with pytest.raises(ValidationError):
        MomentVector((F(1), F(1, 2), F(-1, 10)))    # negative
    MomentVector((F(1), F(1, 2), F(0), F(0)))        # necessary condition ok


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("c", [(1.0, NAN, NAN), (NAN, 0.5), (1.0, 0.5, INF), (1.0, 0.5, -INF)])
def test_moment_vector_rejects_non_finite(c):
    # NaN fails every comparison, so a comparison-only check let (1, nan, nan)
    # through to a completely monotone verdict
    with pytest.raises(ValidationError, match="not finite"):
        MomentVector(c)


@pytest.mark.parametrize("atoms", [((0.5, NAN),), ((0.2, 0.5), (0.7, NAN)),
                                   ((NAN, 1.0),), ((0.5, INF),)])
def test_measure_rejects_non_finite(atoms):
    with pytest.raises(ValidationError):
        MixingMeasure(atoms)


@pytest.mark.parametrize("weights", [(NAN, NAN), (0.5, NAN), (INF, 0.0), (1.0, -INF)])
def test_count_law_rejects_non_finite(weights):
    with pytest.raises(ValidationError):
        SampleMeanLaw(N=1, weights=weights)


# ---------------------------------------------------------------------------
# mixture prefix probabilities
# ---------------------------------------------------------------------------

def test_mixture_prefix_prob_examples(fair_coin):
    assert mixture_prefix_prob(fair_coin, PrefixEvent((1, 1, 0))) == F(1, 8)
    zero_one = MixingMeasure(((F(0), F(1, 2)), (F(1), F(1, 2))))
    assert mixture_prefix_prob(zero_one, PrefixEvent((1, 0))) == 0
    assert mixture_prefix_prob(zero_one, PrefixEvent((1, 1, 1))) == F(1, 2)


def test_prefix_prob_partition_of_unity():
    rng = random.Random(3)
    for _ in range(5):
        mu = random_rational_measure(rng)
        for k in (1, 2, 4):
            total = sum(
                mixture_prefix_prob(mu, PrefixEvent(bits))
                for bits in itertools.product((0, 1), repeat=k)
            )
            assert total == 1


def test_prefix_prob_depends_only_on_counts():
    rng = random.Random(4)
    mu = random_rational_measure(rng)
    law = sample_mean_law(mu, 9)
    for pat_a, pat_b in [((1, 0, 0), (0, 0, 1)), ((1, 1, 0, 1), (1, 0, 1, 1))]:
        ea, eb = PrefixEvent(pat_a), PrefixEvent(pat_b)
        assert mixture_prefix_prob(mu, ea) == mixture_prefix_prob(mu, eb)
        assert prefix_prob_from_mean_law(law, ea) == prefix_prob_from_mean_law(law, eb)


# ---------------------------------------------------------------------------
# sample mean law
# ---------------------------------------------------------------------------

def test_sample_mean_law_examples(fair_coin):
    assert sample_mean_law(fair_coin, 2).weights == (F(1, 4), F(1, 2), F(1, 4))
    ones = MixingMeasure.point_mass(F(1))
    assert sample_mean_law(ones, 5).weights == (0, 0, 0, 0, 0, 1)
    two = MixingMeasure(((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))))
    assert sample_mean_law(two, 2).weights == (F(5, 16), F(3, 8), F(5, 16))


def test_sample_mean_law_float_matches_exact(three_atom_mu):
    exact = sample_mean_law(three_atom_mu, 60).weights
    mu_f = MixingMeasure(
        tuple((float(p), float(w)) for p, w in three_atom_mu.atoms)
    )
    approx = sample_mean_law(mu_f, 60).weights
    for q_ex, q_fl in zip(exact, approx):
        assert abs(q_fl - float(q_ex)) <= 1e-12


def test_lazy_weights_and_integer_form(three_atom_mu):
    law = sample_mean_law(three_atom_mu, 30)
    nums, den = law.integer_form()
    assert sum(nums) == den
    assert law.weights[3] == F(nums[3], den)
    assert law.is_exact


# ---------------------------------------------------------------------------
# prefix prob from the mean law
# ---------------------------------------------------------------------------

def test_prefix_prob_from_mean_law_examples(fair_coin):
    binom4 = sample_mean_law(fair_coin, 4)
    assert prefix_prob_from_mean_law(binom4, PrefixEvent((1,))) == F(1, 2)
    top = SampleMeanLaw(N=4, weights=[F(0)] * 4 + [F(1)])
    assert prefix_prob_from_mean_law(top, PrefixEvent((1, 1))) == 1
    law6 = sample_mean_law(fair_coin, 6)
    assert prefix_prob_from_mean_law(law6, PrefixEvent((1, 0))) == F(1, 4)
    with pytest.raises(ValidationError):
        prefix_prob_from_mean_law(binom4, PrefixEvent((1,) * 5))


@given(rational_measures(), st.integers(1, 12))
def test_mixture_law_prefix_identity(mu, N):
    # for mixture-built laws the conditional-weight formula reproduces the
    # mixture prefix probability exactly, for every pattern length <= N
    law = sample_mean_law(mu, N)
    for k in range(1, min(N, 4) + 1):
        for alpha in range(k + 1):
            e = PrefixEvent((1,) * alpha + (0,) * (k - alpha))
            assert prefix_prob_from_mean_law(law, e) == mixture_prefix_prob(mu, e)


def test_prefix_prob_from_plain_weights_law(fair_coin):
    law = sample_mean_law(fair_coin, 6)
    plain = SampleMeanLaw(N=6, weights=law.weights)
    e = PrefixEvent((1, 0))
    assert prefix_prob_from_mean_law(plain, e) == prefix_prob_from_mean_law(law, e)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_examples(fair_coin):
    assert measure_moments(fair_coin, 3).c == (1, F(1, 2), F(1, 4), F(1, 8))
    zero_one = MixingMeasure(((F(0), F(1, 2)), (F(1), F(1, 2))))
    assert measure_moments(zero_one, 2).c == (1, F(1, 2), F(1, 2))
    grid = MixingMeasure(tuple((F(j, 100), F(1, 101)) for j in range(101)))
    assert measure_moments(grid, 1).c[1] == F(1, 2)


def test_prefix_prob_from_moments():
    polya = MomentVector((F(1), F(1, 2), F(1, 3)))
    assert prefix_prob_from_moments(polya, PrefixEvent((1, 1))) == F(1, 3)
    rng = random.Random(8)
    for _ in range(5):
        mu = random_rational_measure(rng)
        c = measure_moments(mu, 5)
        for pattern in [(1,), (0, 1), (1, 0, 1), (0, 0, 0, 1, 1)]:
            e = PrefixEvent(pattern)
            assert prefix_prob_from_moments(c, e) == mixture_prefix_prob(mu, e)
    with pytest.raises(ValidationError):
        prefix_prob_from_moments(polya, PrefixEvent((1, 1, 1)))


def test_mean_law_from_moments_examples():
    polya = MomentVector((F(1), F(1, 2), F(1, 3)))
    assert mean_law_from_moments(polya, 2).weights == (F(1, 3), F(1, 3), F(1, 3))
    iid = MomentVector((F(1), F(1, 2), F(1, 4)))
    assert mean_law_from_moments(iid, 2).weights == (F(1, 4), F(1, 2), F(1, 4))
    bad = MomentVector((F(1), F(1, 2), F(0), F(0)))
    with pytest.raises(ExtendabilityError) as err:
        mean_law_from_moments(bad, 3)
    assert err.value.value == F(-1, 2)
    assert err.value.index == 0
    # same vector is 2-extendable: the failure level matters
    assert mean_law_from_moments(bad, 2).weights == (F(0), F(1), F(0))


@given(rational_measures(), st.integers(1, 64))
def test_moment_round_trip(mu, n):
    c = measure_moments(mu, n)
    law = mean_law_from_moments(c, n)
    assert law.weights == sample_mean_law(mu, n).weights


@given(rational_measures(), st.integers(1, 24))
def test_moments_always_completely_monotone(mu, n):
    c = measure_moments(mu, n)
    assert check_complete_monotonicity(c).ok


def test_check_complete_monotonicity_examples():
    assert check_complete_monotonicity(
        MomentVector((F(1), F(1, 2), F(1, 3), F(1, 4)))
    ).ok
    assert check_complete_monotonicity(
        MomentVector((F(1), F(1, 2), F(1, 4), F(1, 8)))
    ).ok
    res = check_complete_monotonicity(MomentVector((F(1), F(1, 2), F(0), F(0))))
    assert not res.ok
    assert (res.order, res.index, res.value) == (3, 0, F(-1, 2))


def test_mean_law_from_moments_float_point_mass_at_one():
    # point mass at 1: c_j = 1 identically; inclusion-exclusion cancels
    # massively at every j < n, and the weights still come out right
    c = MomentVector(tuple(1.0 for _ in range(31)))
    law = mean_law_from_moments(c, 30)
    assert abs(law.weights[30] - 1.0) < 1e-9
    assert all(q >= 0 for q in law.weights)


# ---------------------------------------------------------------------------
# prefix probabilities of arbitrary count laws
# ---------------------------------------------------------------------------

def test_mean_law_prefix_partition_of_unity():
    # conditional weights partition mass over patterns for any count law,
    # mixture-built or not
    rng = random.Random(31)
    raw = [F(rng.randint(0, 9)) for _ in range(12)]
    raw[3] += 1  # guarantee positive mass
    total = sum(raw)
    law = SampleMeanLaw(N=len(raw) - 1, weights=[w / total for w in raw])
    for k in (1, 3, 5):
        assert (
            sum(
                prefix_prob_from_mean_law(law, PrefixEvent(bits))
                for bits in itertools.product((0, 1), repeat=k)
            )
            == 1
        )

