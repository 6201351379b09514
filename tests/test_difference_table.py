"""Exact moment recovery and extendability against per-term Fraction references.

``mean_law_from_moments`` and ``check_complete_monotonicity`` run rational
input on one integer difference table.  The references below evaluate the
same quantities term by term in ``Fraction`` arithmetic: the per-j binomial
inclusion-exclusion sum and the depth-by-depth difference scan.
"""

import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import event, given, strategies as st

from definetti import io
from definetti.cli import main
from definetti.model import (
    ExtendabilityError,
    MixingMeasure,
    MomentVector,
    MonotonicityCheck,
    SampleMeanLaw,
    ValidationError,
    check_complete_monotonicity,
    mean_law_from_moments,
)

from conftest import measure_moments

F = Fraction
fmt = io.format_value


def reference_mean_law_weights(c, n):
    """q_j = C(n, j) sum_t (-1)^t C(n-j, t) c_{j+t}, one Fraction sum per j;
    raises ExtendabilityError at the first negative q_j."""
    weights = []
    for j in range(n + 1):
        terms = [(-1) ** t * math.comb(n - j, t) * c[j + t] for t in range(n - j + 1)]
        q = math.comb(n, j) * sum(terms, F(0))
        if q < 0:
            raise ExtendabilityError(level=n, index=j, value=q)
        weights.append(q)
    return tuple(weights)


def reference_monotonicity(c):
    """First negative (-1)^m Delta^m c_j, scanning m = 1..n and then j."""
    row = list(c)
    for m in range(1, len(c)):
        row = [row[j] - row[j + 1] for j in range(len(row) - 1)]
        for j, v in enumerate(row):
            if v < 0:
                return MonotonicityCheck(ok=False, order=m, index=j, value=v)
    return MonotonicityCheck(ok=True)


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


def _mixed(c):
    """Integral entries as plain ints, the rest as Fractions."""
    return tuple(int(v) if v.denominator == 1 else v for v in c)


@st.composite
def moment_cases(draw):
    """(moments, level): as generated, perturbed at one index toward its
    left neighbour (still nonincreasing, usually not extendable), or longer
    than the level."""
    form = draw(st.sampled_from(["perturbed", "as generated", "longer"]))
    mu = draw(rational_measures())
    # below order 8 a perturbed vector is often still extendable
    n = draw(st.integers(8 if form == "perturbed" else 1, 64))
    extra = draw(st.integers(1, 8)) if form == "longer" else 0
    c = list(measure_moments(mu, n + extra).c)
    if form == "perturbed":
        j = draw(st.integers(1, n))
        share = F(draw(st.integers(1, 10)), 10)
        c[j] += share * (c[j - 1] - c[j])
    return MomentVector(_mixed(c)), n


def _outcome(fn, *args):
    """fn's result, or the (level, index, value) of its ExtendabilityError."""
    try:
        return fn(*args)
    except ExtendabilityError as exc:
        return ("rejected", exc.level, exc.index, exc.value)


@given(moment_cases())
def test_exact_moment_paths_match_reference(case):
    c, n = case
    want = _outcome(reference_mean_law_weights, c.c, n)
    law = _outcome(mean_law_from_moments, c, n)
    if isinstance(want, tuple) and want[0] == "rejected":
        event("recovery rejected")
        assert law == want
        assert isinstance(want[3], Fraction)
    else:
        assert law.weights == want
        nums, den = law.integer_form()
        assert sum(nums) == den
        assert tuple(F(v, den) for v in nums) == want
    check = reference_monotonicity(c.c)
    event("extend-check rejected" if not check.ok else "extend-check accepted")
    assert check_complete_monotonicity(c) == check


@pytest.mark.parametrize("n", [9, 16, 64, 128])
def test_perturbed_moments_rejected_like_reference(n):
    # the benchmark's reject shape: c_{n/2} raised part of the way to c_{n/2-1}
    mu = MixingMeasure(((F(1, 5), F(3, 10)), (F(1, 2), F(2, 5)), (F(9, 10), F(3, 10))))
    c = list(measure_moments(mu, n).c)
    j = n // 2
    c[j] += F(3, 10) * (c[j - 1] - c[j])
    c = MomentVector(_mixed(c))
    with pytest.raises(ExtendabilityError) as err:
        mean_law_from_moments(c, n)
    want = _outcome(reference_mean_law_weights, c.c, n)
    assert ("rejected", err.value.level, err.value.index, err.value.value) == want
    check = check_complete_monotonicity(c)
    assert not check.ok
    assert check == reference_monotonicity(c.c)


def test_all_integer_moments():
    # a point mass at 1 (all ones) and at 0 (one, then zeros)
    for c in ((1,) * 6, (1,) + (0,) * 5):
        law = mean_law_from_moments(MomentVector(c), 5)
        assert law.weights == reference_mean_law_weights(c, 5)
        assert law.integer_form() == (tuple(int(q) for q in law.weights), 1)
        assert check_complete_monotonicity(MomentVector(c)).ok
    bad = MomentVector((1, 1, 0))
    assert check_complete_monotonicity(bad) == reference_monotonicity(bad.c)
    assert check_complete_monotonicity(bad).value == -1


def test_cli_recover_and_extend_check_match_reference(tmp_path, capsys):
    mu = MixingMeasure(((F(1, 3), F(1, 2)), (F(3, 4), F(1, 2))))
    n = 24
    good = list(measure_moments(mu, n).c)
    bad = list(good)
    bad[n // 2] += F(1, 2) * (bad[n // 2 - 1] - bad[n // 2])
    for c, extendable in ((good, True), (bad, False)):
        assert reference_monotonicity(c).ok is extendable
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"c": [fmt(v) for v in c]}))

        code = main(["recover", "--moments", str(path), "--level", str(n)])
        out, err = capsys.readouterr()
        try:
            weights = reference_mean_law_weights(c, n)
        except ExtendabilityError as exc:
            assert not extendable
            assert (code, out) == (4, "")
            assert err == json.dumps({
                "error": "extendability",
                "message": str(exc),
                "certificate": fmt(exc.value),
            }) + "\n"
        else:
            assert (code, err) == (0, "")
            atoms = [{"p": fmt(F(i, n)), "w": fmt(q)} for i, q in enumerate(weights) if q]
            assert out == json.dumps({"atoms": atoms, "level": n}) + "\n"

        code = main(["extend-check", "--moments", str(path)])
        out, err = capsys.readouterr()
        ref = reference_monotonicity(c)
        if ref.ok:
            assert (code, out) == (0, json.dumps({"result": "accept", "order": n}) + "\n")
        else:
            assert code == 4
            assert out == json.dumps({
                "result": "reject",
                "certificate": fmt(ref.value),
                "difference_order": ref.order,
                "index": ref.index,
            }) + "\n"
        assert err == ""


def reference_moment_error(c):
    """The message the necessary checks give exact moments c (Fractions),
    term by term, or None when c_0 = 1 >= c_1 >= ... >= c_n >= 0."""
    if not c:
        return "moment vector must not be empty"
    if c[0] != 1:
        return f"c_0 = {c[0]}, expected exactly 1"
    for j in range(len(c) - 1):
        if c[j + 1] > c[j]:
            return f"moments must be nonincreasing: c_{j} = {c[j]} < c_{j + 1} = {c[j + 1]}"
    if c[-1] < 0:
        return f"moments must be nonnegative: c_{len(c) - 1} = {c[-1]}"
    return None


def _spell(draw, v, huge):
    """A JSON spelling of the Fraction v: an int, "n", "p/q" or unreduced
    "kp/kq"; ``huge`` scales by 10**4301, past CPython's int/str digit limit."""
    if huge:
        zeros = "0" * 4301
        return f"{v.numerator}{zeros}/{v.denominator}{zeros}"
    forms = ["p/q", "kp/kq"] + (["int", "n"] if v.denominator == 1 else [])
    form = draw(st.sampled_from(forms))
    if form == "int":
        return int(v)
    if form == "n":
        return str(v.numerator)
    k = draw(st.integers(2, 6)) if form == "kp/kq" else 1
    return f"{v.numerator * k}/{v.denominator * k}"


@st.composite
def moment_files(draw):
    """(Fraction moments, their JSON spellings): moments of a measure, or a
    copy with c_0 moved, an increase, a negative last entry, or one entry
    raised toward its left neighbour (usually not extendable).  Each entry
    is spelled one of several ways, and at most one past 4,300 digits."""
    fault = draw(st.sampled_from(["none", "c0", "increase", "negative", "perturbed"]))
    mu = draw(rational_measures())
    # below order 8 a perturbed vector is often still extendable
    n = draw(st.integers(8 if fault == "perturbed" else 0, 16))
    c = list(measure_moments(mu, n).c)
    j = draw(st.integers(0, n))
    shift = F(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    if fault == "c0":
        c[0] += shift * draw(st.sampled_from([-1, 1]))
    elif fault == "increase" and j > 0:
        c[j] = c[j - 1] + shift
    elif fault == "negative":
        c[-1] -= shift
    elif fault == "perturbed" and j > 0:
        c[j] += shift / (1 + shift) * (c[j - 1] - c[j])
    huge = draw(st.integers(-1, len(c) - 1))
    return c, [_spell(draw, v, i == huge) for i, v in enumerate(c)]


def _main_quietly(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(moment_files())
def test_moment_file_integer_form_matches_fraction_form(case):
    c, spelled = case
    want = reference_moment_error(c)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump({"c": spelled}, fh)
        try:
            built = MomentVector(tuple(c))
        except ValidationError as exc:
            built = str(exc)
        try:
            loaded = io.load_moments(path)
        except ValidationError as exc:
            loaded = str(exc)
        code, out, err = _main_quietly(["extend-check", "--moments", path])
    if want is not None:
        event("rejected on construction")
        assert built == loaded == want
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "invariant", "message": want}
        return
    assert loaded.is_exact and built.is_exact
    assert loaded.c == built.c == tuple(c)
    (nums, den), (f_nums, f_den) = loaded.integer_form(), built.integer_form()
    assert [v * f_den for v in nums] == [v * den for v in f_nums]
    check = check_complete_monotonicity(loaded)
    assert check == check_complete_monotonicity(built) == reference_monotonicity(c)
    event("extend-check accepted" if check.ok else "extend-check rejected")
    assert code == (0 if check.ok else 4)
    if loaded.order >= 1:
        law = _outcome(mean_law_from_moments, loaded, loaded.order)
        built_law = _outcome(mean_law_from_moments, built, loaded.order)
        assert law == built_law   # the same weights, or the same rejection
        if isinstance(law, SampleMeanLaw):
            (nums, den), (f_nums, f_den) = law.integer_form(), built_law.integer_form()
            assert [v * f_den for v in nums] == [v * den for v in f_nums]
