"""Acceptance suite: one test per criterion, one printed result line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the eps ceilings in CRITERION4_EPS
are frozen calibration values.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import definetti as d
from definetti.model import (
    MixingMeasure,
    MomentVector,
    PrefixEvent,
    SampleMeanLaw,
    mixture_prefix_prob,
    prefix_prob_from_mean_law,
    sample_mean_law,
)
from definetti.oracle import all_prefix_probs, word_law_from_mixture
from definetti.recovery import recover_from_moments

from conftest import kernel_gap, measure_moments, random_rational_measure

F = Fraction

# frozen calibration ceilings for criterion 4 (k = 5, stride 97, N = 1e6)
CRITERION4_EPS = {
    0: 0.009970,
    1: 0.005990,
    2: 0.009899,
    3: 0.029510,
    4: 0.058340,
    5: 0.095640,
}


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def three_atom():
    return MixingMeasure(
        (
            (F(1, 5), F(3, 10)),
            (F(1, 2), F(2, 5)),
            (F(9, 10), F(3, 10)),
        )
    )


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260810)
    checked = 0
    for _ in range(25):
        mu = random_rational_measure(rng)
        for N in range(1, 11):
            word_law = word_law_from_mixture(mu, N)
            mean_law = sample_mean_law(mu, N)
            for k in range(1, N + 1):
                brute = all_prefix_probs(word_law, k)
                by_alpha_mix = {}
                by_alpha_law = {}
                for bits in itertools.product((0, 1), repeat=k):
                    e = PrefixEvent(bits)
                    a = e.alpha
                    if a not in by_alpha_mix:
                        by_alpha_mix[a] = mixture_prefix_prob(mu, e)
                        by_alpha_law[a] = prefix_prob_from_mean_law(mean_law, e)
                    key = int("".join(map(str, bits)), 2)
                    assert brute[key] == by_alpha_mix[a] == by_alpha_law[a]
                    checked += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        elapsed <= 60.0,
        f"three prefix-probability paths exactly equal on {checked} pattern "
        f"checks (25 measures, N<=10) in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_k1_identity(three_atom):
    for N in range(8, 201):
        for i in range(N + 1):
            v = F(i, N)
            assert d.conditional_prefix_prob(N, 1, 1, i) == v
            assert d.iid_kernel(N, 1, 1, i) == v
        rep = d.verify_approximation(three_atom, PrefixEvent((1,)), N=N, backend="exact")
        assert rep.abs_diff == 0
    for N in (500, 1000, 2000):
        for i in range(N + 1):
            assert d.conditional_prefix_prob(N, 1, 1, i) == F(i, N)
            assert d.iid_kernel(N, 1, 1, i) == F(i, N)
    report(
        2,
        True,
        "k=1 collapse a_i = b_i = i/N exact for N in 8..200 (and 500/1000/2000), "
        "verification abs_diff exactly 0 throughout",
    )


def ratio_bound_holds_all(N, k, alpha):
    """a_i / b_i <= N^k / N^(k) at every i with a positive kernel, compared
    cross-multiplied in integers: C(N-k, i-alpha) N^(k) <= C(N, i) i^alpha
    (N-i)^(k-alpha).  Both binomials follow multiplicative recurrences, so
    the whole index range is one exact pass."""
    fall = math.perm(N, k)
    lo = 0 if alpha == 0 else 1
    hi = N if alpha == k else N - 1
    choose_full = math.comb(N, lo)
    choose_a = math.comb(N - k, lo - alpha) if lo >= alpha else 0
    support_top = N - k + alpha
    for i in range(lo, hi + 1):
        if alpha <= i <= support_top:
            if choose_a == 0:
                choose_a = 1  # first in-support index: C(N-k, 0)
            if choose_a * fall > choose_full * i**alpha * (N - i) ** (k - alpha):
                return False
            if i < support_top:
                j = i - alpha
                choose_a = choose_a * (N - k - j) // (j + 1)
        choose_full = choose_full * (N - i) // (i + 1)
    return True


def test_criterion_3_ratio_bound_exhaustive():
    t0 = time.monotonic()
    combos = 0
    for N in range(8, 501):
        for k in range(1, 7):
            for alpha in range(k + 1):
                assert ratio_bound_holds_all(N, k, alpha), (N, k, alpha)
                combos += 1
    # spot-validate the integer comparison against reduced rationals
    rng = random.Random(3)
    for _ in range(300):
        N = rng.randint(8, 500)
        k = rng.randint(1, 6)
        alpha = rng.randint(0, k)
        lo = 1 if alpha > 0 else 0
        hi = N - 1 if alpha < k else N
        i = rng.randint(lo, hi)
        a = d.conditional_prefix_prob(N, k, alpha, i)
        b = d.iid_kernel(N, k, alpha, i)
        assert a / b <= d.replacement_correction(N, k)
    elapsed = time.monotonic() - t0
    report(
        3,
        True,
        f"ratio <= correction exactly for every index, {combos} (N,k,alpha) "
        f"combos with N<=500, k<=6 in {elapsed:.1f}s",
    )


def test_criterion_4_mid_window_deviation():
    ok = True
    details = []
    eps = {}
    for N, stride in ((10**3, 1), (10**4, 1), (10**6, 97)):
        t0 = time.monotonic()
        for alpha in range(6):
            scan = d.ratio_scan(N, 5, alpha, stride=stride, backend="log")
            eps[(N, alpha)] = scan.eps_mid
        elapsed = time.monotonic() - t0
        ok = ok and elapsed <= 30.0
        details.append(f"N={N}: {elapsed:.1f}s")
    for alpha in range(6):
        frozen = CRITERION4_EPS[alpha]
        ok = ok and eps[(10**6, alpha)] <= frozen
        ok = ok and eps[(10**6, alpha)] < eps[(10**4, alpha)] < eps[(10**3, alpha)]
    report(
        4,
        ok,
        "eps_mid within frozen ceilings at N=1e6 and strictly decreasing over "
        f"N in {{1e3, 1e4, 1e6}} for k=5, alpha=0..5 ({'; '.join(details)}, "
        "budget 30s per N)",
    )


def test_criterion_5_lower_tail_bound():
    for N in (10**4, 10**5, 10**6):
        for k in range(1, 7):
            for alpha in range(1, k + 1):
                tb = d.tail_bounds_check(N, k, alpha)
                assert tb.lower_applicable
                assert tb.lower_sum <= tb.lower_chain_mid
                assert tb.lower_ok, (N, k, alpha)
    report(
        5,
        True,
        "kernel mass below M1 obeys the full inequality chain exactly at "
        "N in {1e4, 1e5, 1e6}, k<=6, alpha>=1",
    )


def test_criterion_6_upper_tail_bound():
    for N in (10**4, 10**5, 10**6):
        for k in range(1, 7):
            for alpha in range(k):
                tb = d.tail_bounds_check(N, k, alpha)
                assert tb.upper_applicable
                assert tb.upper_ok, (N, k, alpha)
    report(
        6,
        True,
        "max kernel above M2 stays below N^(-(k-alpha)/2) exactly at "
        "N in {1e4, 1e5, 1e6}, k<=6, alpha<=k-1",
    )


def test_criterion_7_convergence(three_atom):
    t0 = time.monotonic()
    e = PrefixEvent((1, 1, 0, 1))
    diffs = []
    for N in (10**2, 10**3, 10**4):
        rep = d.verify_approximation(three_atom, e, N=N, backend="exact")
        assert rep.backend == "exact"
        assert rep.abs_diff <= rep.sandwich_bound, N
        diffs.append(rep.abs_diff)
    elapsed = time.monotonic() - t0
    strictly_decreasing = diffs[0] > diffs[1] > diffs[2]
    report(
        7,
        strictly_decreasing and elapsed <= 120.0,
        f"abs_diff strictly decreasing {[float(x) for x in diffs]} with every "
        f"report inside its sandwich bound, in {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_8_pathological_path():
    law = SampleMeanLaw(N=100, weights=[F(1)] + [F(0)] * 100)
    for pattern in [(1,), (1, 1), (1, 0, 1), (1, 1, 1, 1)]:
        rep = d.verify_approximation(law, PrefixEvent(pattern), backend="exact")
        assert rep.lhs == 0
        assert rep.pathological
        assert rep.rhs == rep.rhs_below_alpha, pattern
    report(
        8,
        True,
        "all-zeros law: lhs exactly 0, report flagged pathological, rhs equals "
        "the below-alpha partial sum for every tested pattern",
    )


def test_criterion_9_moment_recovery():
    # (a) exact round trip at levels up to 64
    rng = random.Random(64)
    measures = [
        MixingMeasure.point_mass(F(0)),
        MixingMeasure.point_mass(F(1)),
        MixingMeasure.point_mass(F(1, 2)),
        random_rational_measure(rng),
        random_rational_measure(rng),
    ]
    for mu in measures:
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
            law = sample_mean_law(mu, n)
            rec = recover_from_moments(measure_moments(mu, n), n)
            got = dict(rec.measure.atoms)
            for i, q in enumerate(law.weights):
                assert got.get(F(i, n), F(0)) == q
    # (b) uniform-mixing vector at level 64 vs the 65-atom uniform grid
    polya = MomentVector(tuple(F(1, j + 1) for j in range(65)))
    rec = recover_from_moments(polya, 64)
    assert rec.measure.atoms == tuple((F(i, 64), F(1, 65)) for i in range(65))
    # (c) non-extendable vector rejected with its certificate
    with pytest.raises(d.ExtendabilityError) as err:
        recover_from_moments(MomentVector((F(1), F(1, 2), F(0), F(0))), 3)
    assert err.value.value == F(-1, 2)
    report(
        9,
        True,
        "round trips exact to level 64, uniform-mixing recovery equal to the "
        "65-atom uniform grid, non-extendable vector rejected with certificate -1/2",
    )


def test_criterion_10_weak_convergence(three_atom):
    small, big = (
        [abs(kernel_gap(law, three_atom, m, m)) for m in range(7)]
        for law in (sample_mean_law(three_atom, 10**2), sample_mean_law(three_atom, 10**4))
    )
    assert small[1] == 0
    assert big[1] == 0
    for m in range(2, 7):
        assert big[m] < small[m], m
    report(
        10,
        True,
        "monomial gaps m<=6 strictly shrink from N=1e2 to N=1e4; the mean "
        "gap is exactly 0 at both sizes",
    )
