import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from definetti import _kernels as K
from definetti.model import MixingMeasure, PrefixEvent, SampleMeanLaw
from definetti.model import prefix_prob_from_mean_law, sample_mean_law
from definetti.numerics import LogFactorialTable

from conftest import dense_log_mean_law


def test_table_cap_env_override():
    code = (
        "from definetti.numerics import default_table; "
        "print(default_table().cap)"
    )
    env = dict(os.environ, DEFINETTI_TABLE_CAP="55555")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "55555"


def test_residual_table_extension_matches_rebuild():
    base = K.build_residual_table(500)
    grown = K.extend_residual_table(K.build_residual_table(100), 500)
    assert np.allclose(base, grown, rtol=0, atol=1e-15)
    assert np.array_equal(base[:101], K.build_residual_table(100))


def test_residual_series_agrees_with_table():
    delta = K.build_residual_table(5000)
    for x in (1500, 3000, 5000):
        assert abs(K.residual_series(x) - delta[x]) < 1e-13


def test_log_binomial_row_vs_exact():
    delta = K.build_residual_table(2048)
    worst = 0.0
    for n in (2, 17, 300, 1999):
        row = K._log_binomial_row(delta, n, 0, n)
        for r in range(n + 1):
            worst = max(worst, abs(math.expm1(row[r] - math.log(math.comb(n, r)))))
    assert worst < 1e-12


def _falling(x, m):
    out = 1
    for j in range(m):
        out *= x - j
    return out


def _exact_log_a(N, k, alpha, i):
    """log of C(N-k, i-alpha)/C(N, i) from exact integer falling products."""
    num = _falling(i, alpha) * _falling(N - i, k - alpha) if i >= alpha else 0
    return math.log(num) - math.log(_falling(N, k)) if num > 0 else K.NEG_INF


def _exact_log_b(N, k, alpha, i):
    num = i**alpha * (N - i) ** (k - alpha)
    return math.log(num) - k * math.log(N) if num > 0 else K.NEG_INF


def _edge_and_random_indices(N, seed):
    rng = np.random.default_rng(seed)
    ends = np.arange(min(N + 1, 30), dtype=np.int64)
    return np.unique(np.concatenate([ends, N - ends, rng.integers(0, N + 1, 200)]))


def _check_scan(N, ks, tol):
    table = LogFactorialTable()
    table.ensure(N)
    idx = _edge_and_random_indices(N, seed=N)
    for k in ks:
        for alpha in range(k + 1):
            log_a, log_b = K.scan_log_ab(table.delta, N, k, alpha, idx)
            for got_a, got_b, i in zip(log_a, log_b, idx.tolist()):
                for got, want in (
                    (got_a, _exact_log_a(N, k, alpha, i)),
                    (got_b, _exact_log_b(N, k, alpha, i)),
                ):
                    if want == K.NEG_INF:
                        assert got == K.NEG_INF, (N, k, alpha, i)
                    else:
                        assert abs(got - want) <= tol(k), (N, k, alpha, i, got, want)


@pytest.mark.parametrize("N", [10**3, 10**6, 10**7])
def test_scan_product_form_matches_exact_logs(N):
    # each of the 2k + 1 roundings (k logs, k additions, one subtraction of
    # the constant) is at most about one ulp of the running sum, whose size
    # is at most k log N
    def tol(k):
        return (2 * k + 1) * np.spacing(k * math.log(N))

    ks = (1, 2, 3, 4, 5, 6, K.PRODUCT_SCAN_MAX_K) if N < 10**7 else (2, 6)
    _check_scan(N, ks, tol)


@pytest.mark.parametrize("N", [10**3, 10**4])
def test_scan_table_form_matches_exact_logs(N):
    # patterns longer than the crossover use the log-binomial table
    _check_scan(N, (K.PRODUCT_SCAN_MAX_K + 1, K.PRODUCT_SCAN_MAX_K + 3), lambda k: 1e-10)


def _mpmath_log_binomial(mpmath, n, r):
    return float(mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1))


@pytest.mark.parametrize("N, cap", [
    *(pytest.param(N, None, id=str(N)) for N in (2, 17, 300, 2000, 10**6)),
    # a table capped at 2048 leaves most of the row to the Stirling series
    *(pytest.param(N, 2048, id=f"{N}-cap2048") for N in (10_000, 99_991)),
])
def test_log_binomial_row_matches_mpmath(N, cap):
    mpmath = pytest.importorskip("mpmath")
    table = LogFactorialTable(cap=cap)
    table.ensure(N)
    row = K._log_binomial_row(table.delta, N, 0, N)
    assert row.shape == (N + 1,)
    step = max(1, N // 5000)
    with mpmath.workdps(30):
        for r in list(range(0, N + 1, step)) + [N - 1, N]:
            want = _mpmath_log_binomial(mpmath, N, r)
            tol = 1e-12 * max(1.0, abs(want))
            if cap is not None:
                tol = min(tol, 1e-9)   # the series' absolute bound
            assert abs(row[r] - want) <= tol, (N, r)


def test_log_binomial_row_above_table_cap():
    # indices past the cap take the Stirling series, as in the gather form
    delta = K.build_residual_table(1024)
    N = 5000
    row = K._log_binomial_row(delta, N, 0, N)
    gathered = K.log_binomial_array_np(delta, N, np.arange(N + 1))
    assert np.array_equal(row, gathered)


@pytest.mark.parametrize("cap", [None, 1024, 3000])
def test_log_binomial_row_window_is_a_bitwise_slice(cap):
    # cap None: every residual from the table; 1024: every index past the
    # cap takes the series; 3000: windows straddle the cap
    N = 5000
    delta = K.build_residual_table(cap or N)
    full = K._log_binomial_row(delta, N, 0, N)
    assert np.array_equal(full, K.log_binomial_array_np(delta, N, np.arange(N + 1)))
    for lo, hi in ((0, 0), (N, N), (0, 1), (N - 1, N), (0, 17), (N - 17, N),
                   (1, N - 1), (999, 1100), (2990, 3010), (1980, 2030), (4000, 4999)):
        got = K._log_binomial_row(delta, N, lo, hi)
        assert got.shape == (hi - lo + 1,)
        assert np.array_equal(got, full[lo:hi + 1]), (lo, hi)
        gathered = K.log_binomial_array_np(delta, N, np.arange(lo, hi + 1))
        assert np.array_equal(got, gathered), (lo, hi)


def test_mean_law_windows_at_1e5():
    # atoms at 0.1 and 0.9 have disjoint windows; everything between them
    # and past them is left out.  Np = 50000.45 and 69999.55 put the two
    # other windows' upper and lower edges at the Pinsker bound.
    mpmath = pytest.importorskip("mpmath")
    N = 10**5
    table = LogFactorialTable()
    table.ensure(N)
    ps = np.array([0.1, 0.5000045, 0.6999955, 0.9])
    lws = np.log(np.array([0.1, 0.2, 0.3, 0.4]))
    idx, lq = K.log_mean_law(table.delta, N, ps, lws)
    assert np.all(np.diff(idx) > 0) and idx.shape == lq.shape
    gaps = np.flatnonzero(np.diff(idx) > 1)
    assert gaps.size == 3 and idx[0] > 0 and idx[-1] < N
    # the windows hold every index the Pinsker bound leaves above
    # exp(-LOG_TERM_FLOOR): 2 (i - Np)^2 / N <= LOG_TERM_FLOOR
    kept = set(idx.tolist())
    for p in ps.tolist():
        num, den = p.as_integer_ratio()
        near = [i for i in range(N + 1)
                if 2 * (i * den - num * N) ** 2 <= K.LOG_TERM_FLOOR * N * den**2]
        assert set(near) <= kept, p
    # against the binomial mixture at 40 digits, with the float atoms' exact
    # values; the tolerance is relative to the largest summand, log C(N, i),
    # as for the row itself (the log law carries the row's rounding)
    with mpmath.workdps(40):
        logs = [(mpmath.log(mpmath.mpf(p)), mpmath.log1p(-mpmath.mpf(p)), mpmath.mpf(lw))
                for p, lw in zip(ps.tolist(), lws.tolist())]
        for i, got in zip(idx[::7].tolist(), lq[::7].tolist()):
            log_c = mpmath.loggamma(N + 1) - mpmath.loggamma(i + 1) - mpmath.loggamma(N - i + 1)
            want = log_c + mpmath.log(
                sum(mpmath.exp(lw + i * a + (N - i) * b) for a, b, lw in logs)
            )
            assert abs(got - float(want)) <= 1e-12 * max(1.0, float(log_c)), i
    # every index left out has every atom term below -LOG_TERM_FLOOR, with
    # log C(N, i) the log of the exact integer (multiplicative recurrence
    # over half the row, mirrored)
    half, c = [], 1
    for i in range(N // 2 + 1):
        half.append(math.log(c))
        c = c * (N - i) // (i + 1)
    log_choose = half + half[:(N + 1) // 2][::-1]
    left_out = np.setdiff1d(np.arange(N + 1), idx)
    assert left_out.size + idx.size == N + 1
    for i in left_out.tolist():
        for p, lw in zip(ps.tolist(), lws.tolist()):
            term = log_choose[i] + i * math.log(p) + (N - i) * math.log1p(-p) + lw
            assert term < -K.LOG_TERM_FLOOR, (i, p)
    # where q_i is representable, the windowed law is the dense row's value
    dense = dense_log_mean_law(table.delta, N, ps, lws)
    normal = lq > -745.0
    assert np.array_equal(lq[normal], dense[idx[normal]])


def test_float_count_law_callers_match_dense_row():
    # sample_mean_law scatters the support into zeros, and the float
    # prefix probability sums over nonzero weights only: both equal the
    # dense-row results bit for bit
    table = LogFactorialTable()
    N = 20_000
    table.ensure(N)
    atoms = ((0.0, 0.1), (0.004, 0.2), (0.5, 0.3), (0.93, 0.2), (1.0, 0.2))
    mu = MixingMeasure(atoms)
    ps = np.array([p for p, _ in atoms])
    lws = np.log(np.array([w for _, w in atoms]))
    dense = np.exp(dense_log_mean_law(table.delta, N, ps, lws))
    law = sample_mean_law(mu, N, table)
    assert law.weights == tuple(dense.tolist())
    idx = np.arange(N + 1)
    for pattern in ((1,), (0, 0), (1, 0, 1), (0, 0, 1, 1)):
        e = PrefixEvent(pattern)
        log_a, _ = K.scan_log_ab(table.delta, N, e.k, e.alpha, idx)
        want = math.fsum(np.exp(log_a) * dense)
        assert prefix_prob_from_mean_law(law, e, table) == want
    sparse = SampleMeanLaw(N=4, weights=(0.25, 0.0, 0.5, 0.0, 0.25))
    assert prefix_prob_from_mean_law(sparse, PrefixEvent((0,)), table) == 0.5


def test_mean_law_matches_exact_binomial_mixture():
    table = LogFactorialTable()
    N = 300
    table.ensure(N)
    atoms = ((0.0, 0.1), (0.2, 0.2), (0.5, 0.3), (0.9, 0.2), (1.0, 0.2))
    ps = np.array([p for p, _ in atoms])
    lws = np.log(np.array([w for _, w in atoms]))
    idx, lq = K.log_mean_law(table.delta, N, ps, lws)
    # every atom's concentration window covers 0..N at this size
    assert np.array_equal(idx, np.arange(N + 1))
    exact = [
        sum(
            Fraction(w) * math.comb(N, i) * Fraction(p) ** i * (1 - Fraction(p)) ** (N - i)
            for p, w in atoms
        )
        for i in range(N + 1)
    ]
    for i, want in enumerate(exact):
        assert abs(math.expm1(lq[i] - math.log(want))) < 1e-12, i
    assert abs(math.fsum(np.exp(lq)) - 1.0) < 1e-12


def test_region_sums_match_fsum_within_pairwise_bound():
    rng = np.random.default_rng(2)
    N = 200_000
    idx = np.arange(0, N + 1, 3, dtype=np.int64)   # any ascending index set
    log_a = rng.uniform(-30.0, 0.0, idx.shape)
    log_b = rng.uniform(-30.0, 0.0, idx.shape)
    log_a[:5] = K.NEG_INF
    log_q = np.log(rng.dirichlet(np.ones(idx.shape[0])))
    m1, m2 = 57, N - 446   # both in idx: each cut index belongs to the region below
    sums = K.pair_region_sums(log_a, log_b, log_q, idx, m1, m2)
    regions = (idx <= m1, (idx > m1) & (idx <= m2), idx > m2)
    for side, log_x in enumerate((log_a, log_b)):
        terms = np.exp(log_x + log_q)
        for reg, mask in enumerate(regions):
            n = int(mask.sum())
            d = math.ceil(math.log2(n)) + 25
            gamma = d * 2.0**-53 / (1 - d * 2.0**-53)
            want = math.fsum(terms[mask])
            assert abs(sums[3 * side + reg] - want) <= gamma * want


def test_max_ratio_dev_reads_only_the_mask():
    table = LogFactorialTable()
    N = 4000
    table.ensure(N)
    idx = np.arange(N + 1, dtype=np.int64)
    log_a, log_b = K.scan_log_ab(table.delta, N, 4, 2, idx)
    mask = (idx > 15) & (idx <= N - 70)
    want = np.abs(np.expm1(log_a[mask] - log_b[mask])).max()
    assert K.max_ratio_dev(log_a, log_b, mask) == want
    # i = 0 has log_a = log_b = -inf (a nan ratio) outside the mask
    assert K.max_ratio_dev(log_a, log_b, np.zeros_like(mask)) == 0.0


def test_array_log_binomial_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    table = LogFactorialTable()
    n = 10**6
    table.ensure(n)
    r = np.array([-1, 0, 1, 17, 10**5, 5 * 10**5, n - 1, n, n + 1], dtype=np.int64)
    arr = K.log_binomial_array_np(table.delta, n, r)
    with mpmath.workdps(30):
        for rv, got in zip(r.tolist(), arr.tolist()):
            if not 0 <= rv <= n:
                assert got == K.NEG_INF
            else:
                assert abs(got - _mpmath_log_binomial(mpmath, n, rv)) < 1e-8


def test_region_sums_compensated_order():
    # fixed ascending order: tiny terms after a huge one must not be lost
    idx = np.arange(4, dtype=np.int64)
    log_a = np.log(np.array([1.0, 1e-16, 1e-16, 1e-16]))
    log_b = np.full(4, K.NEG_INF)
    log_q = np.zeros(4)
    sums = K.pair_region_sums(log_a, log_b, log_q, idx, 5, 6)
    assert sums[0] == pytest.approx(1.0 + 3e-16, abs=0, rel=1e-15)
    assert sums[3] == 0.0
