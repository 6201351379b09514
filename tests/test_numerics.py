import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from definetti import numerics as nx
from definetti.numerics import (
    LogFactorialTable,
    LogSpaceValue,
    binomial,
    conditional_prefix_prob,
    conditional_prefix_prob_log,
    iid_kernel,
    iid_kernel_log,
    log_binomial,
    ratio_bound_holds_all,
    ratio_factors,
    ratio_factors_float,
    ratio_within_correction,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
    replacement_correction_log,
)


# ---------------------------------------------------------------------------
# binomial
# ---------------------------------------------------------------------------

def pascal_triangle(rows):
    tri = [[1]]
    for n in range(1, rows + 1):
        prev = tri[-1]
        tri.append(
            [1] + [prev[j - 1] + prev[j] for j in range(1, n)] + [1]
        )
    return tri


def test_binomial_against_pascal_recurrence():
    tri = pascal_triangle(40)
    for n in range(41):
        for r in range(n + 1):
            assert binomial(n, r) == tri[n][r]
    assert binomial(40, 20) == 137846528820  # from the recurrence above


def test_binomial_small_and_out_of_range():
    assert binomial(5, 2) == 10
    assert binomial(7, -1) == 0
    assert binomial(3, 4) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


# ---------------------------------------------------------------------------
# log binomial
# ---------------------------------------------------------------------------

def test_log_binomial_small_cross_check():
    assert abs(log_binomial(5, 2).log - math.log(10)) < 1e-12
    assert log_binomial(3, 4).is_zero
    assert log_binomial(7, -1).is_zero
    assert log_binomial(9, 0).log == 0.0
    assert log_binomial(9, 9).log == 0.0


def test_log_binomial_exact_cross_check_moderate():
    table = LogFactorialTable()
    worst = 0.0
    for n in range(1, 400):
        for r in range(1, n):
            got = table.log_binomial(n, r)
            worst = max(worst, abs(got - math.log(math.comb(n, r))))
    assert worst < 1e-12


def test_log_binomial_large_against_independent_stirling():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    table = LogFactorialTable()

    def reference(n, r):
        return mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1)

    for n, r in [(10**6, 5 * 10**5), (10**6, 17), (10**6, 999_983), (123_457, 3571)]:
        got = table.log_binomial(n, r)
        rel = abs(float(mpmath.expm1(got - reference(n, r))))
        assert rel < 1e-9, (n, r, rel)


def test_log_binomial_above_cap_series_path():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    small = LogFactorialTable(cap=2048)   # forces the series for n > 2048
    big = LogFactorialTable(cap=10**6)
    for n, r in [(10_000, 5000), (99_991, 137), (10_000, 9999)]:
        a = small.log_binomial(n, r)
        b = big.log_binomial(n, r)
        assert abs(math.expm1(a - b)) < 1e-10
        ref = float(
            mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1)
        )
        assert abs(math.expm1(a - ref)) < 1e-9


def test_table_grows_lazily_and_respects_cap():
    t = LogFactorialTable(cap=4096)
    assert t.delta.shape[0] - 1 == 1024   # construction floor
    t.ensure(3000)
    assert t.delta.shape[0] - 1 >= 3000
    t.ensure(10**6)
    assert t.delta.shape[0] - 1 == 4096   # never beyond the cap


# ---------------------------------------------------------------------------
# conditional prefix probability (brute-force enumeration oracle)
# ---------------------------------------------------------------------------

def enumeration_conditional(N, k, alpha, i):
    """Uniform law over words with i ones: exact P(first k match a fixed
    pattern with alpha ones)."""
    pattern = (1,) * alpha + (0,) * (k - alpha)
    matches = 0
    total = 0
    for word in itertools.product((0, 1), repeat=N):
        if sum(word) != i:
            continue
        total += 1
        if word[:k] == pattern:
            matches += 1
    return Fraction(matches, total) if total else Fraction(0)


def test_conditional_prefix_matches_enumeration():
    assert conditional_prefix_prob(5, 2, 1, 2) == Fraction(3, 10)
    assert conditional_prefix_prob(5, 2, 1, 2) == enumeration_conditional(5, 2, 1, 2)
    rng = random.Random(11)
    for _ in range(25):
        N = rng.randint(2, 9)
        k = rng.randint(1, N)
        alpha = rng.randint(0, k)
        i = rng.randint(0, N)
        assert conditional_prefix_prob(N, k, alpha, i) == enumeration_conditional(
            N, k, alpha, i
        )


def test_conditional_prefix_zero_and_edge_cases():
    assert conditional_prefix_prob(5, 2, 2, 1) == 0        # i < alpha
    assert conditional_prefix_prob(10, 3, 0, 9) == 0       # i - alpha > N - k
    for N in (5, 17, 100):
        for i in range(N + 1):
            assert conditional_prefix_prob(N, 1, 1, i) == Fraction(i, N)
    with pytest.raises(ValueError):
        conditional_prefix_prob(3, 4, 1, 2)


def test_hypergeometric_identity_small():
    # C(k, alpha) * conditional probability equals the hypergeometric pmf:
    # draw i of N uniformly, count hits among the first k
    for N in range(2, 9):
        for k in range(1, N + 1):
            for i in range(N + 1):
                subsets = list(itertools.combinations(range(N), i))
                for alpha in range(k + 1):
                    hits = sum(
                        1 for s in subsets if len([x for x in s if x < k]) == alpha
                    )
                    pmf = Fraction(hits, len(subsets))
                    assert binomial(k, alpha) * conditional_prefix_prob(
                        N, k, alpha, i
                    ) == pmf


# ---------------------------------------------------------------------------
# iid kernel
# ---------------------------------------------------------------------------

def test_iid_kernel_values():
    assert iid_kernel(10, 2, 1, 5) == Fraction(1, 4)
    assert iid_kernel(7, 3, 0, 0) == 1      # 0^0 convention
    assert iid_kernel(10, 3, 3, 10) == 1
    assert iid_kernel(10, 3, 3, 0) == 0
    assert iid_kernel(10, 3, 1, 10) == 0


def test_iid_kernel_is_binomial_pmf():
    # C(k, alpha) * kernel is the Binomial(k, i/N) pmf; check partition of unity
    for N, k, i in [(10, 4, 3), (8, 2, 8), (9, 5, 0)]:
        total = sum(binomial(k, a) * iid_kernel(N, k, a, i) for a in range(k + 1))
        assert total == 1


def test_kernels_lie_in_unit_interval():
    for N in (8, 23):
        for k in range(1, 5):
            for alpha in range(k + 1):
                for i in range(N + 1):
                    a = conditional_prefix_prob(N, k, alpha, i)
                    b = iid_kernel(N, k, alpha, i)
                    assert 0 <= a <= 1 and 0 <= b <= 1
                    assert (a == 0) == (i < alpha or i - alpha > N - k)


# ---------------------------------------------------------------------------
# replacement correction
# ---------------------------------------------------------------------------

def test_replacement_correction_values():
    assert replacement_correction(10, 2) == Fraction(10, 9)
    for N in (5, 50, 1234):
        assert replacement_correction(N, 1) == 1
    r6 = replacement_correction(10**6, 5)
    eps = r6 - 1
    assert 0 < eps < Fraction(1, 10**4)
    assert abs(replacement_correction_float(10**6, 5) - float(r6)) < 1e-12
    assert abs(replacement_correction_log(10**6, 5).value - float(r6)) < 1e-12
    with pytest.raises(ValueError):
        replacement_correction(3, 4)


def test_replacement_correction_at_least_one():
    for N in (8, 100, 999):
        for k in range(1, 7):
            assert replacement_correction(N, k) >= 1


# ---------------------------------------------------------------------------
# ratio factorization
# ---------------------------------------------------------------------------

def test_ratio_factors_reproduce_quotient_exactly():
    f = ratio_factors(10, 2, 1, 5)
    a = conditional_prefix_prob(10, 2, 1, 5)
    b = iid_kernel(10, 2, 1, 5)
    assert f.product() == a / b
    # exhaustive on a small grid wherever the kernel is positive
    for N in (8, 17, 30):
        for k in range(1, 6):
            if k > N:
                continue
            rk = replacement_correction(N, k)
            for alpha in range(k + 1):
                for i in range(N + 1):
                    b = iid_kernel(N, k, alpha, i)
                    if b == 0:
                        continue
                    f = ratio_factors(N, k, alpha, i)
                    a = conditional_prefix_prob(N, k, alpha, i)
                    assert f.product() == a / b
                    assert f.correction == rk
                    assert a / b <= rk


def test_ratio_factors_trivial_k1():
    f = ratio_factors(100, 1, 0, 42)
    assert f.falling == 1 and f.edge == 1 and f.correction == 1


def test_ratio_factors_rejects_vanishing_kernel():
    with pytest.raises(ValueError):
        ratio_factors(10, 2, 1, 0)
    with pytest.raises(ValueError):
        ratio_factors_float(10, 2, 1, 0)


def test_ratio_factors_float_two_evaluation_orders():
    # large-N float factors against the direct log-space quotient
    N, k, alpha, i = 10**6, 5, 2, 10**3
    f = ratio_factors_float(N, k, alpha, i)
    direct = (
        conditional_prefix_prob_log(N, k, alpha, i)
        / iid_kernel_log(N, k, alpha, i)
    ).value
    assert abs(f.product() / direct - 1) < 1e-8
    assert f.product() <= replacement_correction_float(N, k) * (1 + 1e-12)


def test_alpha_extremes_match_reduced_factor_forms():
    # alpha = k: edge product is empty, ratio = falling * correction;
    # alpha = 0: falling is empty, ratio = edge * correction
    N = 200
    for k in (2, 4):
        rk = replacement_correction(N, k)
        for i in range(1, N):
            fk = ratio_factors(N, k, k, i)
            assert fk.edge == 1
            a = conditional_prefix_prob(N, k, k, i)
            b = iid_kernel(N, k, k, i)
            assert a / b == fk.falling * rk
            f0 = ratio_factors(N, k, 0, i)
            assert f0.falling == 1
            a0 = conditional_prefix_prob(N, k, 0, i)
            b0 = iid_kernel(N, k, 0, i)
            assert a0 / b0 == f0.edge * rk


# ---------------------------------------------------------------------------
# ratio bound
# ---------------------------------------------------------------------------

def test_ratio_within_correction_matches_fraction_comparison():
    rng = random.Random(5)
    for _ in range(200):
        N = rng.randint(8, 150)
        k = rng.randint(1, min(6, N))
        alpha = rng.randint(0, k)
        lo = 1 if alpha > 0 else 0
        hi = N - 1 if alpha < k else N
        i = rng.randint(lo, hi)
        got = ratio_within_correction(N, k, alpha, i)
        a = conditional_prefix_prob(N, k, alpha, i)
        b = iid_kernel(N, k, alpha, i)
        assert got == (a / b <= replacement_correction(N, k))
        assert got  # holds at every valid index


def test_ratio_bound_holds_all_agrees_with_pointwise():
    for N, k, alpha in [(8, 2, 1), (64, 6, 0), (129, 5, 5), (200, 3, 2)]:
        assert ratio_bound_holds_all(N, k, alpha)


# ---------------------------------------------------------------------------
# region bounds
# ---------------------------------------------------------------------------

def test_region_bounds_examples():
    b = region_bounds(1000)
    assert (b.M1, b.M2) == (10, 969)
    b = region_bounds(8)
    assert (b.M1, b.M2) == (2, 6)
    b = region_bounds(10**6)
    assert (b.M1, b.M2) == (100, 999001)


def test_region_bounds_rejects_small_n():
    for N in (1, 7):
        with pytest.raises(ValueError):
            region_bounds(N)


def test_region_bounds_integer_exact_everywhere():
    for N in range(8, 3000):
        b = region_bounds(N)
        assert b.M1**3 <= N < (b.M1 + 1) ** 3
        s = math.isqrt(N)
        floor_part = N - s if s * s == N else N - s - 1
        assert b.M2 == floor_part + 1
        assert b.M1 < b.M2 <= N


# ---------------------------------------------------------------------------
# backend agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [8, 199, 512, 2000])
def test_backend_agreement(N):
    table = LogFactorialTable()
    for k in (1, 2, 5, 6):
        if k > N:
            continue
        r_exact = replacement_correction(N, k)
        assert abs(replacement_correction_log(N, k).value / float(r_exact) - 1) < 1e-8
        for alpha in range(k + 1):
            for i in range(0, N + 1, max(1, N // 97)):
                a = conditional_prefix_prob(N, k, alpha, i)
                al = conditional_prefix_prob_log(N, k, alpha, i, table)
                if a == 0:
                    assert al.is_zero
                else:
                    assert abs(al.value / float(a) - 1) < 1e-8
                b = iid_kernel(N, k, alpha, i)
                bl = iid_kernel_log(N, k, alpha, i, table)
                if b == 0:
                    assert bl.is_zero
                else:
                    assert abs(bl.value / float(b) - 1) < 1e-8


# ---------------------------------------------------------------------------
# LogSpaceValue semantics
# ---------------------------------------------------------------------------

def test_log_space_value_arithmetic():
    x = LogSpaceValue.from_value(0.5)
    y = LogSpaceValue.from_value(0.25)
    assert abs((x * y).value - 0.125) < 1e-15
    assert abs((x / y).value - 2.0) < 1e-15
    z = LogSpaceValue.zero()
    assert (x * z).is_zero
    assert (z / x).is_zero
    with pytest.raises(ZeroDivisionError):
        x / z
    with pytest.raises(ValueError):
        LogSpaceValue.from_value(-1.0)
    assert LogSpaceValue.from_value(0.0).is_zero
