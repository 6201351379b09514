import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from definetti import _kernels as K
from definetti import _blocktext
from definetti.harness import RatioScan
from definetti.model import MixingMeasure, PrefixEvent, SampleMeanLaw
from definetti.model import prefix_prob_from_mean_law, sample_mean_law
from definetti.numerics import LogFactorialTable, default_table, region_bounds

from conftest import dense_log_mean_law


def test_table_is_fixed():
    # the benchmark-facing table object hands out the fixed 1025-entry
    # table whatever N it is asked for
    table = default_table()
    assert table.cap == LogFactorialTable().cap == K.RESIDUAL_TABLE_MAX == 1024
    assert table.ensure(10**7) is K.RESIDUALS
    assert K.RESIDUALS.shape == (1025,) and not K.RESIDUALS.flags.writeable
    assert np.array_equal(K.RESIDUALS, K.build_residual_table(1024))


def test_residual_series_agrees_with_table():
    delta = K.build_residual_table(5000)
    for x in (1500, 3000, 5000):
        assert abs(K.residual_series(x) - delta[x]) < 1e-13


def test_log_binomial_row_vs_exact():
    worst = 0.0
    for n in (2, 17, 300, 1999):
        row = K.log_binomial_array_np(K.RESIDUALS, n, np.arange(n + 1))
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
    idx = _edge_and_random_indices(N, seed=N)
    for k in ks:
        for alpha in range(k + 1):
            log_a, log_b = K.scan_log_ab(K.RESIDUALS, N, k, alpha, idx)
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
    # patterns longer than the crossover use the log-binomial form
    _check_scan(N, (K.PRODUCT_SCAN_MAX_K + 1, K.PRODUCT_SCAN_MAX_K + 3), lambda k: 1e-10)


def _mpmath_log_binomial(mpmath, n, r):
    return float(mpmath.loggamma(n + 1) - mpmath.loggamma(r + 1) - mpmath.loggamma(n - r + 1))


@pytest.mark.parametrize("N, cap", [
    *(pytest.param(N, None, id=str(N)) for N in (2, 17, 300, 2000, 10**6)),
    # a table passed with 2049 entries: the series past index 2048
    *(pytest.param(N, 2048, id=f"{N}-cap2048") for N in (10_000, 99_991)),
])
def test_log_binomial_row_matches_mpmath(N, cap):
    mpmath = pytest.importorskip("mpmath")
    delta = K.RESIDUALS if cap is None else K.build_residual_table(cap)
    row = K.log_binomial_array_np(delta, N, np.arange(N + 1))
    assert row.shape == (N + 1,)
    step = max(1, N // 5000)
    with mpmath.workdps(30):
        for r in list(range(0, N + 1, step)) + [N - 1, N]:
            want = _mpmath_log_binomial(mpmath, N, r)
            tol = 1e-12 * max(1.0, abs(want))
            if cap is not None:
                tol = min(tol, 1e-9)   # the series' absolute bound
            assert abs(row[r] - want) <= tol, (N, r)


def _exact_log_binomial_row(n):
    """log C(n, r) for r = 0..n from the exact integers (multiplicative
    recurrence)."""
    out, c = [], 1
    for r in range(n + 1):
        out.append(math.log(c))
        c = c * (n - r) // (r + 1)
    return np.array(out)


def test_log_binomial_row_above_table_cap():
    # indices past the fixed table take the Stirling series; against the
    # exact integers, relative to log C as in the rows above
    N = 5000
    row = K.log_binomial_array_np(K.RESIDUALS, N, np.arange(N + 1))
    want = _exact_log_binomial_row(N)
    assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, want))


@pytest.mark.parametrize("cap", [None, 1024, 3000])
def test_log_binomial_row_window_is_a_bitwise_slice(cap):
    # the gathered form is elementwise: a window of the row is the full
    # row's slice bit for bit.  cap None: every residual from a table of N
    # entries; 1024: every index past 1024 takes the series; 3000: windows
    # straddle the table's end
    N = 5000
    delta = K.build_residual_table(cap or N)
    full = K.log_binomial_array_np(delta, N, np.arange(N + 1))
    for lo, hi in ((0, 0), (N, N), (0, 1), (N - 1, N), (0, 17), (N - 17, N),
                   (1, N - 1), (999, 1100), (2990, 3010), (1980, 2030), (4000, 4999)):
        got = K.log_binomial_array_np(delta, N, np.arange(lo, hi + 1))
        assert got.shape == (hi - lo + 1,)
        assert np.array_equal(got, full[lo:hi + 1]), (lo, hi)
    assert np.allclose(full, _exact_log_binomial_row(N), rtol=1e-12, atol=1e-12)


def test_mean_law_windows_at_1e5():
    # atoms at 0.1 and 0.9 have disjoint windows; everything between them
    # and past them is left out.  Np = 50000.45 and 69999.55 put the two
    # other windows' edges off the integers.
    mpmath = pytest.importorskip("mpmath")
    N = 10**5
    ps = np.array([0.1, 0.5000045, 0.6999955, 0.9])
    lws = np.log(np.array([0.1, 0.2, 0.3, 0.4]))
    idx, lq = K.log_mean_law(K.RESIDUALS, N, ps, lws)
    assert np.all(np.diff(idx) > 0) and idx.shape == lq.shape
    gaps = np.flatnonzero(np.diff(idx) > 1)
    assert gaps.size == 3 and idx[0] > 0 and idx[-1] < N
    # each window is the method-of-types set N D(i/N || p) <= LOG_TERM_FLOOR
    # padded by 2: by convexity it suffices that the set's edges, at 40
    # digits with the float atom's exact value, are 2 inside the window
    kept = set(idx.tolist())
    with mpmath.workdps(40):
        for p in ps.tolist():
            pm = mpmath.mpf(p)

            def n_kl(i):
                return (i * mpmath.log(i / (N * pm))
                        + (N - i) * mpmath.log((N - i) / (N * (1 - pm))))

            lo, hi = K._atom_window(N, p)
            assert set(range(lo, hi + 1)) <= kept, p
            assert n_kl(lo + 2) <= K.LOG_TERM_FLOOR < n_kl(lo + 1), p
            assert n_kl(hi - 2) <= K.LOG_TERM_FLOOR < n_kl(hi - 1), p
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
            term = log_choose[i] + i * math.log(p) + (N - i) * math.log1p(-p)
            assert term + lw < -K.LOG_TERM_FLOOR, (i, p)
    # against the binomial mixture at 40 digits wherever q_i is normal: the
    # saddle form keeps an absolute error far under the 1e-12 * log C(N, i)
    # (up to 6e-8 here) that log C + i log p + (N - i) log(1 - p) allowed
    dense = dense_log_mean_law(N, ps, lws)
    normal = lq > -708.0
    assert np.max(np.abs(lq[normal] - dense[idx[normal]])) <= 5e-12


def _full_range_window(N, p):
    """The window bisected over the whole index range: each edge from
    floor(Np) out to -1 and to N + 1 (the reference for ``_atom_window``)."""
    def edge(inside, outside):
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if K._n_kl(N, p, mid) <= K.LOG_TERM_FLOOR:
                inside = mid
            else:
                outside = mid
        return inside

    c = min(N, math.floor(N * p))
    return max(0, edge(c, -1) - 2), min(N, edge(c, N + 1) + 2)


def test_atom_window_pinsker_start_matches_full_range_bisection():
    # starting each edge's bisection from c -+ (isqrt(400 N) + 2) finds the
    # same window as bisecting over 0..N, from tiny p to the float below 1
    ns = [8, 9, 12, 31, 100, 101, 1000, 2000, 4097, 10**4, 10**5, 123_457,
          10**6, 10**7, 3 * 10**7 + 1, 10**8, 10**9]
    ps = [1e-300, 1e-100, 1e-20, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.01,
          0.05, 0.1, 0.2, 1 / 3, 0.37, 0.5, 0.6, 2 / 3, 0.9, 0.99, 0.999, 1 - 1e-6,
          1 - 1e-9, 1 - 1e-12, 1 - 2.0**-53]
    rng = np.random.default_rng(17)
    ps += (10.0 ** rng.uniform(-300, 0, 60)).tolist()
    ps += (1.0 - 10.0 ** rng.uniform(-15.9, -1, 40)).tolist()
    cases = 0
    for N in ns:
        for p in ps:
            assert K._atom_window(N, p) == _full_range_window(N, p), (N, p)
            cases += 1
    assert cases == len(ns) * len(ps) > 2000


@given(st.data())
def test_window_inside_matches_atom_window_rule(data):
    # the two N D probes decide what the bisected window decides: whether it
    # lies inside (lo_edge, hi_edge], for the edges a log verify uses
    N = data.draw(st.sampled_from([8, 100, 10**5, 10**7, 2**53]), label="N")
    k = data.draw(st.integers(1, min(N, 12)), label="k")
    alpha = data.draw(st.integers(0, k), label="alpha")
    b = region_bounds(N)
    lo_edge, hi_edge = max(b.M1, alpha - 1), min(b.M2, N - k + alpha)
    near = st.floats(-0.5, 0.5)
    p = data.draw(st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1 - 2.0**-53]),
        st.floats(0.0, 1e-3),
        st.floats(1 - 1e-3, 1.0),
        st.floats(0.0, 1.0),
        near.map(lambda u: b.M1 / N * (1 + u)),
        near.map(lambda u: 1 - (N - b.M2) / N * (1 + u)),
        # past M1 by about a window's half-width, where the rule flips
        st.floats(1.0, 4.0).map(lambda u: min(1.0, b.M1 / N * u)),
    ), label="p")
    lo, hi = K._atom_window(N, p)
    assert K._window_inside(N, p, lo_edge, hi_edge) == (lo > lo_edge and hi <= hi_edge)


@pytest.mark.parametrize("N", [10**7, 2**53, 2**53 + 1, 10**16, 10**20])
def test_n_kl_matches_mpmath_at_window_edges(N):
    # the scalar N D behind the windows and the interior test, at indices
    # where it crosses LOG_TERM_FLOOR: the ratio (N - i) / (N (1 - p)) once
    # rounded next to 1 before the log and lost about N 2^-53 nats
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for p in (1e-18, 1e-9, 1e-3, 0.1, 0.37, 0.5, 0.93, 1 - 1e-6, 1 - 2.0**-40):
            c = math.floor(N * p)
            half = math.isqrt(math.floor(1600 * N * p * (1 - p)))   # N D near 800
            for i in {1, c - half, c - half // 2, c + half // 2, c + half, N - 1}:
                if not 0 < i < N:
                    continue
                pm = mpmath.mpf(p)
                want = (i * mpmath.log(i / (N * pm))
                        + (N - i) * mpmath.log((N - i) / (N * (1 - pm))))
                if want < 2 * K.LOG_TERM_FLOOR:
                    worst = max(worst, abs(K._n_kl(N, p, i) - float(want)))
    assert worst <= 1e-3, worst
    # N D(2e-18 || 1e-18) at N = 1e20: 200 log 2 - 100, not 100 more
    assert abs(K._n_kl(10**20, 1e-18, 200) - (200 * math.log(2) - 100)) < 1e-9


def test_mean_law_saddle_form_at_1e7():
    # 50 digits against the float atom's exact value, on 401 indices of the
    # window and its first and last 5 with log q_i >= -700
    mpmath = pytest.importorskip("mpmath")
    N = 10**7
    with mpmath.workdps(50):
        log_n_fact = mpmath.loggamma(N + 1)
        for p in (0.05, 0.1, 0.37, 0.5, 0.93):
            idx, lq = K.log_mean_law(K.RESIDUALS, N, np.array([p]), np.zeros(1))
            sel = np.flatnonzero(lq >= -700.0)
            pick = np.unique(np.concatenate([
                sel[np.linspace(0, sel.size - 1, 401).astype(np.int64)], sel[:5], sel[-5:],
            ]))
            log_p, log_1mp = mpmath.log(mpmath.mpf(p)), mpmath.log1p(-mpmath.mpf(p))
            worst = 0.0
            for i, got in zip(idx[pick].tolist(), lq[pick].tolist()):
                want = (log_n_fact - mpmath.loggamma(i + 1) - mpmath.loggamma(N - i + 1)
                        + i * log_p + (N - i) * log_1mp)
                worst = max(worst, abs(got - float(want)))
            assert worst <= 5e-11, (p, worst)


@pytest.mark.parametrize("N", [10**5, 10**6, 10**7])
def test_mean_law_sums_to_one(N):
    for atoms in (((0.1, 0.5), (0.9, 0.5)), ((0.2, 0.3), (0.5, 0.4), (0.9, 0.3))):
        ps = np.array([p for p, _ in atoms])
        lws = np.log(np.array([w for _, w in atoms]))
        _, lq = K.log_mean_law(K.RESIDUALS, N, ps, lws)
        assert abs(math.fsum(np.exp(lq).tolist()) - 1.0) <= 1e-13, atoms


@pytest.mark.parametrize("p", [0.001, 0.999])
def test_mean_law_window_reaching_an_end_matches_exact(p):
    # Np = 30 and 29970: the window runs into index 0 or N, which take the
    # closed forms N log(1 - p) and N log p
    N = 30_000
    idx, lq = K.log_mean_law(K.RESIDUALS, N, np.array([p]), np.zeros(1))
    assert (idx[0] == 0) if p < 0.5 else (idx[-1] == N)
    assert np.all(np.isfinite(lq))
    num, den = p.as_integer_ratio()   # the float atom's exact value, den = 2^e
    e = den.bit_length() - 1
    # q_i = C(N, i) num^i (den - num)^(N - i) / 2^(e N) along the window, the
    # numerator exact, its log from the top 60 bits and an exact power of 2
    i0 = int(idx[0])
    t = math.comb(N, i0) * num**i0 * (den - num) ** (N - i0)
    for i, got in zip(idx.tolist(), lq.tolist()):
        shift = t.bit_length() - 60
        want = math.log(t >> shift) + (shift - e * N) * math.log(2)
        assert abs(got - want) <= 1e-12, i
        t = t * (N - i) * num // ((i + 1) * (den - num))


def test_float_count_law_callers_match_dense_row():
    # sample_mean_law scatters the support into zeros, and the float
    # prefix probability sums over nonzero weights only: both equal the
    # results over the scattered law bit for bit, and the law is the
    # 40-digit mixture to float accuracy
    N = 20_000
    atoms = ((0.0, 0.1), (0.004, 0.2), (0.5, 0.3), (0.93, 0.2), (1.0, 0.2))
    mu = MixingMeasure(atoms)
    ps = np.array([p for p, _ in atoms])
    lws = np.log(np.array([w for _, w in atoms]))
    idx, lq = K.log_mean_law(K.RESIDUALS, N, ps, lws)
    scattered = np.zeros(N + 1)
    scattered[idx] = np.exp(lq)
    law = sample_mean_law(mu, N)
    assert law.weights == tuple(scattered.tolist())
    dense = np.exp(dense_log_mean_law(N, ps, lws))
    assert np.allclose(scattered, dense, rtol=1e-11, atol=0)
    all_idx = np.arange(N + 1)
    for pattern in ((1,), (0, 0), (1, 0, 1), (0, 0, 1, 1)):
        e = PrefixEvent(pattern)
        log_a, _ = K.scan_log_ab(K.RESIDUALS, N, e.k, e.alpha, all_idx)
        assert prefix_prob_from_mean_law(law, e) == math.fsum(np.exp(log_a) * scattered)
    sparse = SampleMeanLaw(N=4, weights=(0.25, 0.0, 0.5, 0.0, 0.25))
    assert prefix_prob_from_mean_law(sparse, PrefixEvent((0,))) == 0.5


def test_mean_law_matches_exact_binomial_mixture():
    N = 300
    atoms = ((0.0, 0.1), (0.2, 0.2), (0.5, 0.3), (0.9, 0.2), (1.0, 0.2))
    ps = np.array([p for p, _ in atoms])
    lws = np.log(np.array([w for _, w in atoms]))
    idx, lq = K.log_mean_law(K.RESIDUALS, N, ps, lws)
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
    N = 4000
    idx = np.arange(N + 1, dtype=np.int64)
    log_a, log_b = K.scan_log_ab(K.RESIDUALS, N, 4, 2, idx)
    mask = (idx > 15) & (idx <= N - 70)
    want = np.abs(np.expm1(log_a[mask] - log_b[mask])).max()
    assert K.max_ratio_dev(log_a, log_b, mask) == want
    # i = 0 has log_a = log_b = -inf (a nan ratio) outside the mask
    assert K.max_ratio_dev(log_a, log_b, np.zeros_like(mask)) == 0.0


def test_array_log_binomial_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    n = 10**6
    r = np.array([-1, 0, 1, 17, 10**5, 5 * 10**5, n - 1, n, n + 1], dtype=np.int64)
    arr = K.log_binomial_array_np(K.RESIDUALS, n, r)
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


def _repr_digits(v):
    """(d, e) of repr(v) for finite nonzero v: |v| = d 10^e, d not a multiple of 10."""
    mantissa, _, exponent = repr(abs(v)).partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    d = digits.rstrip("0")
    return int(d), int(exponent or 0) - len(frac) + len(digits) - len(d)


def _repr_texts(x):
    """The texts _blocktext._format_block gives float64 x, one per entry, in the
    log_a column of a block."""
    rows = len(x)
    block = RatioScan(10**6, 2, 1, region_bounds(10**6), np.arange(rows, dtype=np.int64), x, x, x,
                      np.zeros(rows, np.int8), 1.0, 0.0, 1, False, "log")
    return [line.split(",")[1] for line in bytes(_blocktext._format_block(block)).decode().splitlines()]


def _assert_repr(x):
    assert sys.float_repr_style == "short"
    x = np.asarray(x, dtype=np.float64)
    assert _repr_texts(x) == [repr(v) for v in x.tolist()]
    finite = x[np.isfinite(x) & (x != 0)]
    d, e = K.shortest_digits(finite)
    assert d.dtype == np.uint64 and e.dtype == np.int64
    assert list(zip(d.tolist(), e.tolist())) == [_repr_digits(v) for v in finite.tolist()]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_shortest_digits_match_repr_on_bit_patterns(patterns):
    _assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_shortest_digits_match_repr_on_edges():
    tiny, smallest_normal, largest = 5e-324, 2.2250738585072014e-308, sys.float_info.max
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # repr switches notation at 1e-4 and 1e16: three ulps each side
    below = above = [np.array([1e-4, 1e16])]
    for _ in range(3):
        below = below + [np.nextafter(below[-1], 0.0)]
        above = above + [np.nextafter(above[-1], np.inf)]
    # rounding ties: x.25 and x.75 in [2^49, 2^51) are as near to x.2 and
    # x.3 (x.7 and x.8) as to each other, and the even digit wins
    ties = (np.ldexp(1.0, [[49], [50]]) + np.arange(64) + np.array([[[0.25]], [[0.75]]])).ravel()
    x = np.concatenate([twos, np.nextafter(twos, np.inf), np.nextafter(twos[1:], 0), tens,
                        *below, *above, ties, [tiny, smallest_normal, largest, 0.0, -0.0, np.inf,
                                       -np.inf, np.nan]])
    _assert_repr(np.concatenate([x, -x]))
    assert _repr_texts(np.array([tiny, smallest_normal])) == ["5e-324", "2.2250738585072014e-308"]
    assert _repr_texts(np.array([0.0001, 9.999999999999999e-05, 1e16, 9999999999999998.0])) == [
        "0.0001", "9.999999999999999e-05", "1e+16", "9999999999999998.0"]
    assert _repr_texts(2.0**50 + np.array([0.25, 0.75])) == ["1125899906842624.2", "1125899906842624.8"]


# Float64 bit patterns that reach the rare branches of the Dragonbox kernel,
# found by search with an instrumented copy of _kernels._dragonbox.  There
# the float is c 2^q, and z = 1000 s + r is the right end of its rounding
# interval scaled by 10^-e, delta the interval's scaled width.
RARE_BRANCHES = [
    # r = delta, the scaled left end's floor odd: the left end is in, and s
    # is the answer
    0x651CE836FE1B4CA6,   # 1.171390784733721e+179
    0x0E587CAD8F305E53,   # 1.46892443330588e-239
    # r = delta, that floor even: the smaller divisor decides
    0x3EBF5FD67275CE17,   # 1.8700579376946391e-06
    0x16B0198555788374,   # 2.1032960850812752e-199
    # a step-3 remainder divisible by 100, the scaled float's floor one
    # below the estimate: the digits step down (settled in the vector path,
    # from z's fraction bits)
    0x487A9C0712B2A414,   # 1.4487580532162595e+41
    0x2219CE08D4652689,   # 2.0665359344393783e-144
    # a step-3 remainder divisible by 100, the scaled float an integer and
    # the digits odd: a tie, rounded down to even
    0x42DD6F60A3EEC348,   # 129456799726349.12
    0x43116ABDD11F2E2D,   # 1225609523481483.2
    # the same with the digits even: kept
    0x431FCF3FA9796823,   # 2238399152806408.8
    # r = 0 with z an integer and c odd: the right end is excluded
    0x436DB2B0D8B3346B,   # 6.6873975553762136e+16
    0x438007F68A00699B,   # 1.4439536275208278e+17
    # the shorter interval of a power of two: the tie at binary exponent
    # q = -77 (2^-25), and the integer left end at q = 2 and 3 (2^54, 2^55),
    # which the kernel rounds up as it does every other left end
    0x3E60000000000000,
    0x4350000000000000,
    0x4360000000000000,
]
# of those, the ones the vector path settles from z's fraction bits
VECTOR_SETTLED = {0x651CE836FE1B4CA6, 0x0E587CAD8F305E53, 0x3EBF5FD67275CE17,
                  0x16B0198555788374, 0x487A9C0712B2A414, 0x2219CE08D4652689}


def test_shortest_digits_rare_branches(monkeypatch):
    x = np.array(RARE_BRANCHES, dtype=np.uint64).view(np.float64)
    for v in x:
        _assert_repr([v])
    # the scalar kernel takes every branch itself; every pattern is normal,
    # (2^52 + fraction) 2^(biased exponent - 1075)
    cq = [(b & (2**52 - 1) | 2**52, (b >> 52) - 1075) for b in RARE_BRANCHES]
    for (c, q), v in zip(cq, x.tolist()):
        d, e = K._dragonbox(c, q)
        while d % 10 == 0:
            d, e = d // 10, e + 1
        assert (d, e) == _repr_digits(v)
    scalar = []
    dragonbox = K._dragonbox
    monkeypatch.setattr(K, "_dragonbox", lambda c, q: scalar.append((c, q)) or dragonbox(c, q))
    K.shortest_digits(x)
    assert set(scalar) == {pair for pair, b in zip(cq, RARE_BRANCHES) if b not in VECTOR_SETTLED}


def test_shortest_digits_match_repr_on_a_million_patterns():
    # Hypothesis draws at most 20,000 floats a run; this sweep is seeded
    rng = np.random.default_rng(20_201_216)
    x = rng.integers(0, 2**63, size=10**6, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x) & (x != 0)]
    d, e = K.shortest_digits(x)
    assert list(zip(d.tolist(), e.tolist())) == [_repr_digits(v) for v in x.tolist()]
