import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from definetti import _kernels as K
from definetti.harness import _ratio_terms
from definetti.numerics import (
    conditional_prefix_prob,
    iid_kernel,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)


# ---------------------------------------------------------------------------
# log binomial
# ---------------------------------------------------------------------------

def _log_binomial(n, r):
    return float(K.log_binomial_array_np(K.RESIDUALS, n, np.array([r]))[0])


def test_log_binomial_small_cross_check():
    assert abs(_log_binomial(5, 2) - math.log(10)) < 1e-12
    assert _log_binomial(3, 4) == K.NEG_INF
    assert _log_binomial(7, -1) == K.NEG_INF
    assert _log_binomial(9, 0) == 0.0
    assert _log_binomial(9, 9) == 0.0


def test_log_binomial_exact_cross_check_moderate():
    worst = 0.0
    for n in range(1, 400):
        got = K.log_binomial_array_np(K.RESIDUALS, n, np.arange(1, n))
        for r, g in zip(range(1, n), got.tolist()):
            worst = max(worst, abs(g - math.log(math.comb(n, r))))
    assert worst < 1e-12


def test_log_binomial_large_against_independent_stirling():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50

    def reference(n, r):
        return mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1)

    for n, r in [(10**6, 5 * 10**5), (10**6, 17), (10**6, 999_983), (123_457, 3571)]:
        got = _log_binomial(n, r)
        rel = abs(float(mpmath.expm1(got - reference(n, r))))
        assert rel < 1e-9, (n, r, rel)


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
    # exhaustive for N <= 8, support edges (i < alpha, i - alpha > N - k,
    # the whole word as the prefix) included
    for N in range(1, 9):
        for k in range(1, N + 1):
            for alpha in range(k + 1):
                for i in range(N + 1):
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
                    assert math.comb(k, alpha) * conditional_prefix_prob(
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
        total = sum(math.comb(k, a) * iid_kernel(N, k, a, i) for a in range(k + 1))
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
    # the commands' falling-factorial form of a_i / b_i,
    # r i^(alpha) (N-i)^(k-alpha) / (i^alpha (N-i)^(k-alpha)), against the
    # binomial form C(N-k, i-alpha) / C(N, i) over the kernel, exhaustive on
    # a small grid wherever the kernel is positive; the quotient never
    # exceeds r
    for N in (8, 17, 30):
        for k in range(1, 6):
            rk = replacement_correction(N, k)
            for alpha in range(k + 1):
                for i in range(N + 1):
                    b = iid_kernel(N, k, alpha, i)
                    if b == 0:
                        continue
                    a = conditional_prefix_prob(N, k, alpha, i)
                    assert rk * Fraction(*_ratio_terms(N, k, alpha, i)) == a / b
                    assert a / b <= rk


def test_ratio_factors_trivial_k1():
    # at k = 1 both factors are empty products and r = 1
    num, den = _ratio_terms(100, 1, 0, 42)
    assert num == den == 58
    assert replacement_correction(100, 1) == 1


def test_alpha_extremes_match_reduced_factor_forms():
    # alpha = k: the edge product is empty, ratio = falling * correction;
    # alpha = 0: falling is empty, ratio = edge * correction, with
    # falling = prod_{m<alpha} (1 - m/i), edge = prod_{0<j<k-alpha} (1 - j/(N-i))
    N = 200
    for k in (2, 4):
        rk = replacement_correction(N, k)
        for i in range(1, N):
            falling = math.prod(Fraction(i - m, i) for m in range(k))
            a = conditional_prefix_prob(N, k, k, i)
            b = iid_kernel(N, k, k, i)
            assert a / b == falling * rk
            edge = math.prod(Fraction(N - i - j, N - i) for j in range(1, k))
            a0 = conditional_prefix_prob(N, k, 0, i)
            b0 = iid_kernel(N, k, 0, i)
            assert a0 / b0 == edge * rk


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
    # the exact backend's Fractions against the log backend's scan kernel
    idx = np.arange(0, N + 1, max(1, N // 97))
    for k in (1, 2, 5, 6):
        if k > N:
            continue
        r_exact = replacement_correction(N, k)
        assert abs(replacement_correction_float(N, k) / float(r_exact) - 1) < 1e-8
        for alpha in range(k + 1):
            log_a, log_b = K.scan_log_ab(K.RESIDUALS, N, k, alpha, idx)
            for i, la, lb in zip(idx.tolist(), log_a.tolist(), log_b.tolist()):
                for exact, got in (
                    (conditional_prefix_prob(N, k, alpha, i), la),
                    (iid_kernel(N, k, alpha, i), lb),
                ):
                    if exact == 0:
                        assert got == K.NEG_INF
                    else:
                        assert abs(math.exp(got) / float(exact) - 1) < 1e-8
