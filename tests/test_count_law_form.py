"""Exact count laws against per-term Fraction references.

Every exact ``SampleMeanLaw`` is integer numerators over one denominator,
and ``sample_mean_law``, ``prefix_prob_from_mean_law`` and
``level_moments`` sum those integers.  The references below evaluate
the same quantities term by term in ``Fraction`` arithmetic: the mixture
sum w C(N, i) p^i (1-p)^(N-i), the conditional prefix probability times
q_i, and the kernel expectation over reduced weights.  A float law holds
float64 weights only.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from definetti import io
from definetti.cli import main
from definetti.model import (
    MixingMeasure,
    MomentVector,
    PrefixEvent,
    SampleMeanLaw,
    ValidationError,
    kernel_mean,
    level_moments,
    prefix_prob_from_mean_law,
    sample_mean_law,
)
from definetti.numerics import conditional_prefix_prob

F = Fraction


def reference_law_weights(mu, N):
    """q_i = sum_w w C(N, i) p^i (1-p)^(N-i), one Fraction sum per i."""
    return tuple(
        sum((w * math.comb(N, i) * p**i * (1 - p) ** (N - i) for p, w in mu.atoms), F(0))
        for i in range(N + 1)
    )


def reference_prefix_prob(law, e):
    """sum_i P(prefix | count=i) q_i over the reduced weights."""
    return sum(
        (conditional_prefix_prob(law.N, e.k, e.alpha, i) * q
         for i, q in enumerate(law.weights) if q != 0),
        F(0),
    )


def reference_kernel_expectation(law, a, k):
    """E[(i/n)^a (1 - i/n)^(k-a)] over the reduced weights."""
    n = law.N
    return sum(
        (F(i, n) ** a * F(n - i, n) ** (k - a) * q for i, q in enumerate(law.weights)),
        F(0),
    )


rational_atoms = st.builds(
    lambda num, den: F(num % (den + 1), den),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=12),
)


@st.composite
def rational_measures(draw):
    n = draw(st.integers(1, 4))
    locs = draw(st.lists(rational_atoms, min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(weights)
    return MixingMeasure(tuple(sorted((p, F(w, total)) for p, w in zip(locs, weights))))


@st.composite
def count_vectors(draw):
    """Fraction simplex vectors over 0..N, N <= 40, with zero entries and
    unrelated denominators; integral entries come as plain ints."""
    N = draw(st.integers(1, 40))
    raw = draw(st.lists(
        st.one_of(st.just(F(0)), rational_atoms), min_size=N + 1, max_size=N + 1
    ))
    if not any(raw):
        raw[draw(st.integers(0, N))] = F(1)
    total = sum(raw)
    return [int(q) if q.denominator == 1 else q for q in (x / total for x in raw)]


@st.composite
def patterns(draw, N):
    k = draw(st.integers(1, min(N, 6)))
    return PrefixEvent(tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))))


@given(rational_measures(), st.integers(1, 40))
def test_mixture_law_numerators_match_direct(mu, N):
    law = sample_mean_law(mu, N)
    nums, den = law.integer_form()
    assert sum(nums) == den
    assert tuple(F(v, den) for v in nums) == reference_law_weights(mu, N)


@given(rational_measures(), st.data())
def test_prefix_prob_from_mixture_law_matches_reference(mu, data):
    N = data.draw(st.integers(1, 40))
    law = sample_mean_law(mu, N)
    e = data.draw(patterns(N))
    assert prefix_prob_from_mean_law(law, e) == reference_prefix_prob(law, e)


@given(count_vectors(), st.data())
def test_prefix_prob_from_counts_matches_reference(q, data):
    law = SampleMeanLaw(N=len(q) - 1, weights=q)
    assert law.weights == tuple(F(x) for x in q)
    e = data.draw(patterns(law.N))
    got = prefix_prob_from_mean_law(law, e)
    assert isinstance(got, Fraction)
    assert got == reference_prefix_prob(law, e)
    # a count law that is no mixture's law: the kernel expectation too
    want = (got, reference_kernel_expectation(law, e.alpha, e.k))
    assert kernel_mean(level_moments(law, e.k), law.N, e.k, e.alpha) == want


@given(rational_measures(), st.data())
def test_kernel_mean_of_a_measure_and_of_its_law_agree(mu, data):
    # c_j = E[p^j] for the measure and E[S^(j)] / N^(j) for its level-N law
    # are the same numbers, and both give the Fraction references' lhs and rhs
    N = data.draw(st.integers(1, 40))
    law = sample_mean_law(mu, N)
    e = data.draw(patterns(N))
    want = (reference_prefix_prob(law, e), reference_kernel_expectation(law, e.alpha, e.k))
    assert kernel_mean(level_moments(law, e.k), N, e.k, e.alpha) == want
    assert kernel_mean(level_moments(mu, e.k), N, e.k, e.alpha) == want


def _over_lcm(q):
    den = math.lcm(*(F(x).denominator for x in q))
    return [int(F(x) * den) for x in q], den


@pytest.mark.parametrize(
    "q, message",
    [
        ([F(1, 2), F(-1, 4), F(3, 4)], "q_1 = -1/4 is negative"),
        ([F(1, 2), F(1, 4)], "weights sum to 3/4, expected 1"),
        ([F(1, 2), F(1, 2), 1], "weights sum to 2, expected 1"),
        ([0, 0], "weights sum to 0, expected 1"),
    ],
)
def test_exact_weights_are_validated(q, message):
    with pytest.raises(ValidationError, match=message):
        SampleMeanLaw(N=len(q) - 1, weights=q)
    with pytest.raises(ValidationError, match=message):
        SampleMeanLaw.from_integer_ratios(*_over_lcm(q))


def test_integer_form_is_none_only_for_float_laws():
    exact = SampleMeanLaw(N=2, weights=[F(1, 6), F(1, 3), F(1, 2)])
    assert exact.integer_form() == ((1, 2, 3), 6)
    floats = SampleMeanLaw(N=2, weights=[0.25, 0.25, 0.5])
    assert floats.integer_form() is None and not floats.is_exact


def test_law_mixing_fractions_and_a_float_holds_only_floats(tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"q": ["1/4", 0.5, "1/4"]}))
    law = io.load_law(str(path))
    assert not law.is_exact and law.integer_form() is None
    assert law.weights == (0.25, 0.5, 0.25)
    assert all(type(q) is float for q in law.weights)
    atoms = MixingMeasure.from_count_law(law).atoms
    assert atoms == ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25))
    assert all(type(x) is float for atom in atoms for x in atom)


# (class, file key, loader, constructor over parsed values, values attribute)
KINDS = {
    "law": (SampleMeanLaw, "q", io.load_law,
            lambda v: SampleMeanLaw(N=len(v) - 1, weights=v), "weights"),
    "moments": (MomentVector, "c", io.load_moments, MomentVector, "c"),
}
HUGE = "1" + "0" * 400   # exact, past the float range


def _parsed(entries):
    return [x if isinstance(x, float) else F(x) for x in entries]


def _load(tmp_path, kind, entries):
    _, key, load, _, _ = KINDS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({key: entries}))
    return load(str(path))


@pytest.mark.parametrize(
    "kind, entries",
    [
        ("law", ["1/6", "2/6", "1/2"]),
        ("law", [0, "4/4"]),
        ("moments", ["1", "2/4", "1/3", "3/9"]),
        ("moments", [1, "1/7", 0]),
    ],
)
def test_exact_forms_agree(kind, entries, tmp_path):
    cls, _, _, build, attr = KINDS[kind]
    values = _parsed(entries)
    built, loaded = build(values), _load(tmp_path, kind, entries)
    from_ratios = cls.from_integer_ratios(*_over_lcm(values))
    for x in (built, loaded, from_ratios):
        assert type(x) is cls and x.is_exact
        assert x == built
        assert getattr(x, attr) == tuple(values)
        nums, den = x.integer_form()
        assert [F(v, den) for v in nums] == values


@pytest.mark.parametrize(
    "kind, entries",
    [
        ("law", [0.25, 0.25, 0.5]),
        ("law", ["1/3", 0.5, "1/6"]),          # one float makes a float law
        ("moments", [1.0, 0.5, 0.3]),
        ("moments", ["1", 0.5, "1/3"]),
    ],
)
def test_float_forms_are_bit_identical(kind, entries, tmp_path):
    _, _, _, build, attr = KINDS[kind]
    built, loaded = build(_parsed(entries)), _load(tmp_path, kind, entries)
    want = [float(x) for x in _parsed(entries)]
    for x in (built, loaded):
        assert not x.is_exact and x.integer_form() is None
        got = getattr(x, attr)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize(
    "kind, entries",
    [("law", ["1/2", 0.5, HUGE]), ("moments", ["1", 0.5, HUGE])],
)
def test_exact_entry_past_float_range_beside_a_float(kind, entries, tmp_path, capsys):
    build = KINDS[kind][3]
    with pytest.raises(ValidationError, match="outside the float range"):
        build(_parsed(entries))
    with pytest.raises(ValidationError, match="outside the float range"):
        _load(tmp_path, kind, entries)
    path = tmp_path / f"{kind}.json"
    code = main(["prefix-prob", f"--{kind}", str(path), "--pattern", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "invariant"
