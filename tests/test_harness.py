import json
import math
import pathlib
import random
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import definetti as d
from definetti import _kernels, harness, io, model
from definetti.cli import main
from definetti.harness import (
    REGION_NAMES,
    mid_window_eps,
    ratio_scan,
    scan_indices,
    tail_bounds_check,
    verify_approximation,
)
from definetti.model import (
    MixingMeasure,
    PrefixEvent,
    SampleMeanLaw,
    ValidationError,
    level_moments,
    sample_mean_law,
)
from definetti.numerics import (
    conditional_prefix_prob,
    iid_kernel,
    region_bounds,
    replacement_correction,
)

from conftest import dense_log_mean_law, kernel_mean, random_rational_measure

F = Fraction


# ---------------------------------------------------------------------------
# ratio scan
# ---------------------------------------------------------------------------

def test_scan_k1_collapses():
    scan = ratio_scan(1000, 1, 1, backend="exact")
    assert scan.eps_mid == 0
    assert scan.r == 1
    assert not scan.sampled
    for row in scan.rows:
        if row.region == "mid":
            assert row.ratio == 1


def test_scan_alpha0_k2_rows_match_reduced_form():
    N = 1000
    scan = ratio_scan(N, 2, 0, backend="exact")
    r = replacement_correction(N, 2)
    assert r == F(N**2, N * (N - 1))
    for row in scan.rows:
        if 0 < row.i < N:
            assert row.ratio == r * (1 - F(1, N - row.i))
            assert row.ratio <= r


def test_scan_row_semantics():
    scan = ratio_scan(50, 3, 2, backend="exact")
    by_i = {row.i: row for row in scan.rows}
    assert set(by_i) == set(range(51))
    for i, row in by_i.items():
        # ratio absent exactly where the kernel vanishes or i < alpha
        if iid_kernel(50, 3, 2, i) == 0 or (
            conditional_prefix_prob(50, 3, 2, i) == 0 and i < 2
        ):
            assert row.ratio is None
        else:
            assert row.ratio is not None
        assert row.region == region_bounds(50).region_of(i)


def test_scan_strided_includes_edges():
    scan = ratio_scan(10**4, 4, 2, stride=57, backend="log")
    assert scan.sampled and scan.stride == 57
    b = scan.bounds
    present = {row.i for row in scan.rows}
    for forced in (0, b.M1, b.M1 + 1, b.M2, b.M2 + 1, 10**4):
        assert forced in present


def test_scan_backend_agreement():
    N = 1500
    ex = ratio_scan(N, 4, 2, backend="exact")
    lg = ratio_scan(N, 4, 2, backend="log")
    assert abs(lg.eps_mid - float(ex.eps_mid)) < 1e-8
    for row_e, row_l in zip(ex.rows, lg.rows):
        assert (row_e.ratio is None) == (row_l.ratio is None)
        if row_e.ratio is not None:
            assert abs(row_l.ratio - float(row_e.ratio)) < 1e-8


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ratio_scan(7, 1, 1)
    with pytest.raises(ValidationError):
        ratio_scan(100, 3, 4)
    with pytest.raises(ValidationError):
        ratio_scan(100, 2, 1, stride=0)


def test_scan_indices_cover_everything_at_stride_one():
    b = region_bounds(300)
    idx = scan_indices(300, b, 1)
    assert list(idx) == list(range(301))


@pytest.mark.parametrize("N", [8, 9, 300, 10**4 + 3])
def test_scan_indices_merge_matches_unique(N):
    b = region_bounds(N)
    forced = [0, b.M1, b.M1 + 1, b.M2, min(b.M2 + 1, N), N]
    strides = {2, 3, 7, b.M1, b.M1 + 1, b.M2, N // 2 + 1, N - 1, N, N + 5}
    for stride in sorted(strides):
        idx = scan_indices(N, b, stride)
        assert idx.dtype == np.int64
        assert np.all(np.diff(idx) > 0)
        old = np.unique(np.concatenate([np.arange(0, N + 1, stride), forced]))
        assert idx.tolist() == old.tolist()


def test_scan_rows_view_matches_columns():
    N = 10**4
    scan = ratio_scan(N, 4, 2, backend="log")
    assert len(scan.rows) == N + 1 == len(scan.i)
    assert scan.rows[-1].i == N
    for j, row in enumerate(scan.rows):
        assert row.i == scan.i[j] == j
        assert row.a == scan.a[j] and row.b == scan.b[j]
        if row.ratio is None:
            assert math.isnan(scan.ratio[j])
        else:
            assert type(row.ratio) is float and row.ratio == scan.ratio[j]
        assert row.region == REGION_NAMES[scan.region[j]] == scan.bounds.region_of(j)
    ex = ratio_scan(300, 3, 1, stride=7, backend="exact")
    assert len(ex.rows) == len(ex.i) == len(ex.a) == len(ex.ratio)
    assert ex.rows[2:4] == (ex.rows[2], ex.rows[3])
    for j, row in enumerate(ex.rows):
        assert (row.i, row.a, row.b, row.ratio) == (ex.i[j], ex.a[j], ex.b[j], ex.ratio[j])
        assert row.region == ex.bounds.region_of(row.i)


def _n_with_m2_at(position, stride):
    """The least N >= 8 whose scan at ``stride`` has M2 as row ``position``."""
    lo, hi = 8, 2 * stride * (position + 2) + 64
    while lo < hi:
        mid = (lo + hi) // 2
        b = region_bounds(mid)
        if np.searchsorted(scan_indices(mid, b, stride), b.M2) < position:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _scan_cases():
    """(backend, N, stride, rows, M2's row or None): with rows = 1 every
    block edge falls between two region edges; with more rows, N puts M2
    last in block 0 (M2 | M2 + 1 across the edge) or first in block 1
    (M2 - 1 | M2).  The exact backend runs its 65,536-row blocks on one
    short block only: a scan of that many exact rows takes seconds."""
    for stride in (1, 13, 97):
        for backend in ("log", "exact"):
            yield backend, 1000, stride, 1, None
        yield "exact", 3000, stride, 65536, None
        for rows in (997, 65536):
            for position in (rows - 1, rows):
                N = _n_with_m2_at(position, stride)
                yield "log", N, stride, rows, position
                if rows == 997:
                    yield "exact", N, stride, rows, position


@pytest.mark.parametrize("backend, N, stride, rows, m2_row", list(_scan_cases()))
@pytest.mark.parametrize("k, alpha", [(5, 2), (40, 23)])
def test_scan_blocks_concatenate_to_ratio_scan(backend, N, stride, rows, m2_row, k, alpha):
    # k = 40 is above PRODUCT_SCAN_MAX_K, so each log block takes the table form
    assert 5 <= _kernels.PRODUCT_SCAN_MAX_K < 40
    scan = ratio_scan(N, k, alpha, stride=stride, backend=backend)
    size = harness.scan_length(N, stride)
    [whole] = harness.scan_blocks(N, k, alpha, stride, backend, size)   # one block spans 0..N
    blocks = list(harness.scan_blocks(N, k, alpha, stride, backend, rows))
    assert [len(block.i) for block in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 0 < len(blocks[-1].i) <= rows and len(scan.i) == size
    if m2_row is not None:
        assert scan.i[m2_row] == scan.bounds.M2 and len(blocks) > 1
    for name in ("i", "a", "b", "ratio", "region"):
        want = getattr(scan, name)
        for got in (getattr(whole, name), [x for blk in blocks for x in getattr(blk, name)]):
            if backend == "log" or name in ("i", "region"):
                assert np.asarray(got).tobytes() == want.tobytes(), name
            else:
                assert tuple(got) == want, name
    for other in (whole.eps_mid, max(blk.eps_mid for blk in blocks)):
        assert type(other) is type(scan.eps_mid) and other == scan.eps_mid
    assert all(blk.r == scan.r and blk.backend == scan.backend for blk in blocks)


@pytest.mark.parametrize("rows", [1, 997, 8192])
@pytest.mark.parametrize("stride", [1, 13, 97])
@pytest.mark.parametrize("backend", ["log", "exact"])
def test_block_shares_partition_the_scan(backend, stride, rows):
    # the blocks of W shares of the block loop, taken in turn, are the
    # blocks of scan_blocks: the pool's workers scan every block once
    N = max(1000, 5 * rows * stride // 2)   # 2.5 blocks, or 1001 one-row blocks
    k, alpha = 5, 2
    plan = harness._scan_plan(N, k, alpha, stride, backend, rows)
    want = list(harness.scan_blocks(N, k, alpha, stride, backend, rows))
    if rows > 1:   # M1 and M2 lie inside a block, not on its edge
        bounds, i = want[0].bounds, np.concatenate([blk.i for blk in want])
        assert all(0 < np.searchsorted(i, m) % rows < rows - 1 for m in (bounds.M1, bounds.M2))
    for shares in range(1, 5):
        loops = [harness._blocks(*plan, share, shares) for share in range(shares)]
        got = [next(loops[j % shares]) for j in range(len(want))]
        assert [next(loop, None) for loop in loops] == [None] * shares
        for g, w in zip(got, want):
            for name in ("i", "a", "b", "ratio", "region"):
                if backend == "log" or name in ("i", "region"):
                    assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), name
                else:
                    assert getattr(g, name) == getattr(w, name), name
            assert type(g.eps_mid) is type(w.eps_mid) and g.eps_mid == w.eps_mid


def test_scan_blocks_check_arguments_before_the_first_block():
    for args in [(7, 1, 1, 1, "log", 10), (100, 3, 4, 1, "log", 10), (100, 2, 1, 0, "log", 10),
                 (100, 2, 1, 1, "log", 0), (100, 2, 1, 1, "fast", 10), (2**63, 2, 1, 2**62, "log", 10)]:
        with pytest.raises(ValueError):
            harness.scan_blocks(*args)


@pytest.mark.parametrize("stride", [1, 5])
def test_scan_log_guard_names_smallest_violating_i(stride, monkeypatch):
    # every true ratio stays below the correction; a correction of 1/2
    # instead is crossed first where i(i-1)(i-2)/i^3 (times ~1) passes 1/2
    N, k, alpha = 1000, 3, 3
    idx = scan_indices(N, region_bounds(N), stride).tolist()
    first = min(
        i for i in idx
        if iid_kernel(N, k, alpha, i) > 0
        and conditional_prefix_prob(N, k, alpha, i) / iid_kernel(N, k, alpha, i) > F(1, 2)
    )
    assert first == (6 if stride == 1 else 10)
    monkeypatch.setattr(harness, "replacement_correction_float", lambda N, k: 0.5)
    with pytest.raises(AssertionError, match=rf"ratio bound violated at i={first}: "):
        ratio_scan(N, k, alpha, stride=stride, backend="log")


def test_eps_mid_shrinks_with_n():
    for k, alpha in [(3, 2), (5, 0)]:
        small = ratio_scan(10**3, k, alpha, backend="log").eps_mid
        big = ratio_scan(10**5, k, alpha, stride=11, backend="log").eps_mid
        assert big < small


# ---------------------------------------------------------------------------
# sandwich bound
# ---------------------------------------------------------------------------

def test_sandwich_self_test_on_verify_runs():
    # the mid-region terms of any exact verification satisfy the sandwich
    # premises at eps = eps_mid, |a_i / b_i - 1| <= eps_mid, so lhs_mid lies
    # within (1 +- eps_mid) rhs_mid
    rng = random.Random(17)
    for _ in range(4):
        mu = random_rational_measure(rng)
        N = rng.randint(20, 120)
        e = PrefixEvent((1, 1, 0))
        rep = verify_approximation(mu, e, N=N, backend="exact")
        law = sample_mean_law(mu, N)
        b = region_bounds(N)
        terms_a, terms_b = [], []
        for i in range(b.M1 + 1, b.M2 + 1):
            q = law.weights[i]
            terms_a.append(conditional_prefix_prob(N, 3, 2, i) * q)
            terms_b.append(iid_kernel(N, 3, 2, i) * q)
        pairs = list(zip(terms_a, terms_b))
        assert all(abs(x / y - 1) <= rep.eps_mid for x, y in pairs if y)
        assert all(x == 0 for x, y in pairs if not y)
        assert sum(terms_a) == rep.lhs_mid and sum(terms_b) == rep.rhs_mid
        assert (1 - rep.eps_mid) * rep.rhs_mid <= rep.lhs_mid <= (1 + rep.eps_mid) * rep.rhs_mid


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_tail_bounds_example_1e4():
    tb = tail_bounds_check(10**4, 3, 1)
    assert tb.bounds.M1 == 21
    assert tb.lower_applicable and tb.lower_ok
    assert tb.lower_sum <= tb.lower_chain_mid
    assert float(tb.lower_sum) <= 10 ** (-4 / 3)
    assert tb.upper_applicable and tb.upper_ok


def test_tail_bounds_applicability():
    tb = tail_bounds_check(10**4, 3, 3)
    assert tb.lower_applicable and tb.lower_ok
    assert not tb.upper_applicable and tb.upper_max is None
    tb0 = tail_bounds_check(10**4, 3, 0)
    assert not tb0.lower_applicable and tb0.lower_sum is None
    assert tb0.upper_applicable


def test_tail_bounds_upper_value():
    tb = tail_bounds_check(10**6, 2, 1)
    assert tb.upper_ok
    assert float(tb.upper_max) <= 10**-3
    # the max really is attained at the first index past the cut
    b = tb.bounds
    assert tb.upper_max == iid_kernel(10**6, 2, 1, b.M2 + 1)


def test_tail_bounds_upper_max_is_the_brute_force_max():
    # the max over (M2, N] is taken at three candidate indices, not found by
    # a loop over the whole tail
    for N in range(8, 401):
        m2 = tail_bounds_check(N, 1, 0).bounds.M2
        for k in range(1, min(N, 8) + 1):
            for alpha in range(k):
                brute = max(i**alpha * (N - i) ** (k - alpha) for i in range(m2 + 1, N + 1))
                assert tail_bounds_check(N, k, alpha).upper_max == F(brute, N**k), (N, k, alpha)


def test_tail_bounds_independent_float_sum():
    N, k, alpha = 10**5, 4, 2
    tb = tail_bounds_check(N, k, alpha)
    b = tb.bounds
    direct = math.fsum(
        (i / N) ** alpha * (1 - i / N) ** (k - alpha) for i in range(b.M1 + 1)
    )
    assert abs(direct - float(tb.lower_sum)) < 1e-12
    assert direct <= float(N) ** (-(2 * alpha - 1) / 3)


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def test_verify_k1_identity(fair_coin):
    rep = verify_approximation(fair_coin, PrefixEvent((1,)), N=100)
    assert rep.lhs == rep.rhs == F(1, 2)
    assert rep.abs_diff == 0
    assert not rep.pathological


def test_verify_pathological_all_zeros():
    law = SampleMeanLaw(N=100, weights=[F(1)] + [F(0)] * 100)
    rep = verify_approximation(law, PrefixEvent((1, 1)))
    assert rep.pathological
    assert rep.lhs == 0
    assert rep.rhs == rep.rhs_below_alpha == 0
    assert rep.backend == "exact"


def test_verify_pathological_above_support():
    # all mass above the matchable range: lhs = 0 but rhs > 0, carried
    # entirely by the above-support partial sum
    N = 20
    law = SampleMeanLaw(N=N, weights=[F(0)] * (N - 1) + [F(1), F(0)])
    rep = verify_approximation(law, PrefixEvent((1, 0, 0)))
    assert rep.pathological
    assert rep.lhs == 0
    assert rep.rhs > 0
    assert rep.rhs == rep.rhs_above_support + rep.rhs_below_alpha
    assert rep.rhs_below_alpha == 0


def test_verify_soundness_and_regions(three_atom_mu):
    rep = verify_approximation(three_atom_mu, PrefixEvent((1, 1, 0, 1)), N=200)
    assert rep.backend == "exact"
    assert rep.abs_diff <= rep.sandwich_bound
    assert 0 <= rep.lhs <= 1 and 0 <= rep.rhs <= 1
    for part in (
        rep.lhs_lower,
        rep.lhs_mid,
        rep.lhs_upper,
        rep.rhs_lower,
        rep.rhs_mid,
        rep.rhs_upper,
    ):
        assert part >= 0
    assert rep.lhs == rep.lhs_lower + rep.lhs_mid + rep.lhs_upper
    assert rep.rhs == rep.rhs_lower + rep.rhs_mid + rep.rhs_upper
    assert rep.lower_tail_bound == pytest.approx(200.0 ** (-5 / 3))
    assert rep.upper_tail_bound == pytest.approx(200.0 ** (-1 / 2))


def test_verify_integer_path_matches_fraction_path():
    # the common-denominator fast path against the per-term reference
    rng = random.Random(23)
    for _ in range(3):
        mu = random_rational_measure(rng)
        N = rng.randint(16, 80)
        for pattern in [(1,), (1, 0), (1, 1, 0, 1), (0, 0, 0)]:
            e = PrefixEvent(pattern)
            fast = verify_approximation(mu, e, N=N, backend="exact")
            law = sample_mean_law(mu, N)
            plain = SampleMeanLaw(N=N, weights=law.weights)
            ref = verify_approximation(plain, e, backend="exact")
            for field in (
                "lhs",
                "rhs",
                "abs_diff",
                "lhs_lower",
                "lhs_mid",
                "lhs_upper",
                "rhs_lower",
                "rhs_mid",
                "rhs_upper",
                "eps_mid",
                "sandwich_bound",
                "rhs_below_alpha",
                "rhs_above_support",
            ):
                assert getattr(fast, field) == getattr(ref, field), (field, pattern, N)


def test_verify_log_backend_agrees_with_exact(three_atom_mu):
    e = PrefixEvent((1, 1, 0, 1))
    ex = verify_approximation(three_atom_mu, e, N=1500, backend="exact")
    lg = verify_approximation(three_atom_mu, e, N=1500, backend="log")
    assert lg.backend == "log"
    assert abs(lg.lhs - float(ex.lhs)) < 1e-12
    assert abs(lg.rhs - float(ex.rhs)) < 1e-12
    assert abs(lg.abs_diff - float(ex.abs_diff)) < 1e-12
    assert lg.eps_mid == float(ex.eps_mid)
    assert lg.abs_diff <= lg.sandwich_bound * (1 + 1e-12)


def test_verify_log_integer_law_matches_fraction_law():
    # an exact law reads its floats as nums[i] / den; the same law rebuilt
    # from its reduced Fractions must give the same log report.  The
    # denominator 8^1500 is far past the float range.
    law = sample_mean_law(MixingMeasure(((F(1, 8), F(1)),)), 1500)
    plain = SampleMeanLaw(N=law.N, weights=law.weights)
    e = PrefixEvent((1, 1, 0))
    rep = verify_approximation(law, e, backend="log")
    assert rep == verify_approximation(plain, e, backend="log")
    assert rep.lhs > 0


def test_verify_log_eps_mid_closed_form_at_1e7():
    # pattern (1, 0): a_i / b_i = N / (N - 1) at every interior i, so the
    # mid-window deviation is exactly 1 / (N - 1), reported correctly rounded
    N = 10**7
    mu = MixingMeasure(((0.3, 0.5), (0.7, 0.5)))
    rep = verify_approximation(mu, PrefixEvent((1, 0)), N=N)
    assert rep.backend == "log" and rep.eps_mid_sampled is False
    assert rep.eps_mid == 1 / (N - 1)


def _dense_log_verify(log_q, N, e):
    """Log-verify sums over every index 0..N (the dense-row reference)."""
    k, alpha = e.k, e.alpha
    b = region_bounds(N)
    idx = np.arange(N + 1)
    log_a, log_b = _kernels.scan_log_ab(_kernels.RESIDUALS, N, k, alpha, idx)
    sums = _kernels.pair_region_sums(log_a, log_b, log_q, idx, b.M1, b.M2)
    fields = dict(zip(
        ("lhs_lower", "lhs_mid", "lhs_upper", "rhs_lower", "rhs_mid", "rhs_upper"),
        map(float, sums),
    ))
    fields["lhs"] = math.fsum(sums[:3])
    fields["rhs"] = math.fsum(sums[3:])
    fields["rhs_below_alpha"] = float(np.sum(np.exp(log_b[:alpha] + log_q[:alpha])))
    top = N - k + alpha + 1
    fields["rhs_above_support"] = float(np.sum(np.exp(log_b[top:] + log_q[top:])))
    return fields


def _assert_matches_dense(rep, want, N):
    # both sides sum the same nonnegative terms pairwise, the support side
    # without the exact zeros, so each differs from the exact sum by at most
    # gamma times it (module docstring of _kernels); lhs and rhs add one
    # fsum rounding, abs_diff the errors of both
    d = math.ceil(math.log2(N + 1)) + 25
    gamma = d * 2.0**-53 / (1 - d * 2.0**-53)
    for field, value in want.items():
        got = rep[field]
        assert abs(got - value) <= 3 * gamma * value, (field, got, value)
    diff_err = 3 * gamma * (want["lhs"] + want["rhs"])
    assert abs(rep["abs_diff"] - abs(want["lhs"] - want["rhs"])) <= diff_err
    budget = rep["eps_mid"] * want["rhs_mid"] + sum(
        want[f] for f in ("lhs_lower", "rhs_lower", "lhs_upper", "rhs_upper")
    )
    assert abs(rep["sandwich_bound"] - budget) <= 3 * gamma * budget


SUM_FIELDS = ("lhs_lower", "lhs_mid", "lhs_upper", "rhs_lower", "rhs_mid", "rhs_upper",
              "rhs_below_alpha", "rhs_above_support")


def _assert_rounding_rule(rep, sums):
    """A log report against the eight exact values it rests on: every field
    correctly rounded from them, abs_diff the float |lhs - rhs|, and
    sandwich_bound the least float at or above the exact budget plus what
    the float difference adds to |lhs - rhs|."""
    assert [getattr(rep, name) for name in SUM_FIELDS] == [float(x) for x in sums]
    lhs, rhs = sum(sums[:3]), sum(sums[3:6])
    assert (rep.lhs, rep.rhs) == (float(lhs), float(rhs))
    assert rep.abs_diff == abs(rep.lhs - rep.rhs)
    eps = mid_window_eps(rep.N, rep.k, rep.alpha, region_bounds(rep.N))
    assert rep.eps_mid == float(eps)
    need = (eps * sums[4] + sums[0] + sums[3] + sums[2] + sums[5]
            + max(0, F(rep.abs_diff) - abs(lhs - rhs)))
    assert F(rep.sandwich_bound) >= need > F(math.nextafter(rep.sandwich_bound, -math.inf))


def _printed_sums(rep):
    return [F(getattr(rep, name)) for name in SUM_FIELDS]


def _report_and_sums(monkeypatch, source, e, N=None, backend="log"):
    """A report and the eight exact values it was assembled from."""
    seen = []
    report = harness._report

    def spy(e, N, bounds, backend, sums):
        a, a_den, b, b_den = sums
        seen.append([F(n, a_den) for n in a] + [F(n, b_den) for n in b])
        return report(e, N, bounds, backend, sums)

    monkeypatch.setattr(harness, "_report", spy)
    rep = verify_approximation(source, e, N=N, backend=backend)
    return rep, seen[0]


@pytest.mark.parametrize(
    "atoms, N, pattern",
    [
        # point masses at the ends: windows {0} and {N} apart from the rest
        (((0.0, 0.2), (0.3, 0.5), (1.0, 0.3)), 5000, (1, 1)),
        (((0.0, 0.2), (0.3, 0.5), (1.0, 0.3)), 5000, (0, 0)),
        (((0.0, 0.2), (0.3, 0.5), (1.0, 0.3)), 5000, (1, 1, 0)),
        # disjoint windows, and one window reaching index 0
        (((0.1, 0.5), (0.9, 0.5)), 10**5, (1, 0, 1)),
        (((1e-4, 0.4), (0.6, 0.6)), 10**5, (0, 1, 0, 0)),
        # one atom reaching a tail, one interior: the per-index pass runs on
        # the first alone, the second adds its exact closed form
        (((0.0, 0.3), (0.4, 0.7)), 10**5, (1, 0, 1)),
        (((1e-6, 0.5), (0.5, 0.5)), 10**5, (0, 1, 0)),
    ],
)
def test_verify_log_on_support_matches_dense_row(atoms, N, pattern, monkeypatch):
    mu = MixingMeasure(atoms)
    e = PrefixEvent(pattern)
    ps = np.array([p for p, _ in atoms])
    lws = np.log(np.array([w for _, w in atoms]))
    want = _dense_log_verify(dense_log_mean_law(N, ps, lws), N, e)
    rep, sums = _report_and_sums(monkeypatch, mu, e, N)
    _assert_matches_dense(vars(rep), want, N)
    # an interior atom's exact totals make the mid sums non-floats, so the
    # rule is checked against the exact values behind the printed fields
    _assert_rounding_rule(rep, sums)


@pytest.mark.parametrize("pattern", [(1, 1, 0), (1, 0, 0), (1, 1, 1, 0)])
def test_verify_log_float_law_with_zeros_matches_dense_row(pattern, monkeypatch):
    # zero weights are left out of the terms; mass at 1 and N - 1 puts
    # terms below alpha and above the support
    N = 3000
    rng = np.random.default_rng(5)
    q = rng.uniform(0.0, 1.0, N + 1)
    q[::3] = 0.0
    q[[1, N - 1]] = 2.0
    q /= math.fsum(q)
    law = SampleMeanLaw(N=N, weights=tuple(q.tolist()))
    e = PrefixEvent(pattern)
    with np.errstate(divide="ignore"):
        want = _dense_log_verify(np.log(q), N, e)
    assert want["rhs_below_alpha"] > 0 or want["rhs_above_support"] > 0
    rep, sums = _report_and_sums(monkeypatch, law, e)
    _assert_matches_dense(vars(rep), want, N)
    # the report rests on the exact sums of the law's own weights
    assert sums == _reference_law_sums(N, law.weights, e)
    _assert_rounding_rule(rep, sums)


@pytest.mark.parametrize("N", [300, 1500])
def test_verify_log_exact_law_follows_rounding_rule(N, three_atom_mu, tmp_path, capsys,
                                                    monkeypatch):
    # an exact law file on the log backend rests on the exact report's sums
    mu, path = tmp_path / "mu.json", tmp_path / "law.json"
    mu.write_text(json.dumps(io.measure_to_doc(three_atom_mu)))
    assert main(["yn-law", "--measure", str(mu), "-N", str(N), "--out", str(path)]) == 0
    law = io.load_law(str(path))
    for pattern in ((1, 0), (1, 1, 0, 1), (0, 0, 0), (1, 1, 1, 1, 1, 0)):
        rep, sums = _report_and_sums(monkeypatch, law, PrefixEvent(pattern))
        exact = verify_approximation(law, PrefixEvent(pattern), backend="exact")
        assert sums == [getattr(exact, name) for name in SUM_FIELDS]
        _assert_rounding_rule(rep, sums)
        assert main(["verify", "--law", str(path), "--pattern", ",".join(map(str, pattern)),
                     "--backend", "log"]) == 0
        assert json.loads(capsys.readouterr().out) == vars(rep)


def _reference_law_sums(N, q, e):
    """The eight exact values behind the report of the float law q, summed
    term by term in Fractions of its weights' exact values, with
    ``conditional_prefix_prob`` and ``iid_kernel``."""
    b = region_bounds(N)
    sums = [F(0)] * 8
    for i, x in enumerate(q):
        if x:
            reg = 0 if i <= b.M1 else (1 if i <= b.M2 else 2)
            a_i = conditional_prefix_prob(N, e.k, e.alpha, i) * F(x)
            b_i = iid_kernel(N, e.k, e.alpha, i) * F(x)
            sums[reg] += a_i
            sums[3 + reg] += b_i
            if i < e.alpha or i > N - e.k + e.alpha:
                sums[6 if i < e.alpha else 7] += b_i
    return sums


def _law_file_runs(law_path, e, tmp):
    """The report of ``verify --law`` on a law file, log backend, and the
    value ``prefix-prob --law`` prints for it."""
    pattern = ",".join(map(str, e.pattern))
    out = pathlib.Path(tmp) / "out.json"
    assert main(["verify", "--law", str(law_path), "--pattern", pattern, "--backend", "log",
                 "--out", str(out)]) == 0
    rep = harness.VerificationReport(**json.loads(out.read_text()))
    assert main(["prefix-prob", "--law", str(law_path), "--pattern", pattern,
                 "--out", str(out)]) == 0
    return rep, json.loads(out.read_text())["value"]


@pytest.mark.parametrize("pattern", [(1, 0), (0, 1)])
def test_float_law_file_certifies_its_bound(pattern, tmp_path):
    # the yn-law file of a float measure at N = 2000: per-index float sums
    # once printed abs_diff 8.750000000004587e-05 above sandwich_bound
    # 8.7499999999999e-05 for both patterns
    N, e = 2000, PrefixEvent(pattern)
    mu, law = tmp_path / "mu.json", tmp_path / "law.json"
    mu.write_text(json.dumps({"atoms": [{"p": 0.2, "w": 0.3}, {"p": 0.5, "w": 0.4},
                                        {"p": 0.9, "w": 0.3}]}))
    assert main(["yn-law", "--measure", str(mu), "-N", str(N), "--out", str(law)]) == 0
    rep, value = _law_file_runs(law, e, tmp_path)
    assert rep.abs_diff <= rep.sandwich_bound
    sums = _reference_law_sums(N, json.loads(law.read_text())["q"], e)
    _assert_rounding_rule(rep, sums)
    assert value == float(sum(sums[:3])) == rep.lhs


@st.composite
def sparse_float_laws(draw):
    """(N, q): a float count law at N <= 3000 with a few nonzero weights
    anywhere in 0..N, the edges among them, subnormal ones included."""
    N = draw(st.integers(8, 3000), label="N")
    edges = st.sampled_from([0, 1, 2, N - 2, N - 1, N])
    idx = draw(st.lists(st.one_of(st.integers(0, N), edges), min_size=1, max_size=24,
                        unique=True), label="idx")
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(idx), max_size=len(idx)),
               label="raw")
    raw[0] += 1.0
    total = math.fsum(raw)
    q = [0.0] * (N + 1)
    for i, x in zip(idx, raw):
        q[i] = x / total
    return N, q


@given(sparse_float_laws(), st.data())
def test_float_law_file_fields_are_its_exact_values_rounded(law, data):
    # every field of a float law file's report is the exact value for the
    # file's own weights, correctly rounded, so abs_diff <= sandwich_bound
    # is a proof; prefix-prob prints the same lhs
    N, q = law
    k = data.draw(st.integers(1, min(N, 6)), label="k")
    e = PrefixEvent(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                                    label="pattern")))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "law.json"
        path.write_text(json.dumps({"N": N, "q": q}))
        rep, value = _law_file_runs(path, e, tmp)
    sums = _reference_law_sums(N, q, e)
    _assert_rounding_rule(rep, sums)
    assert rep.abs_diff <= rep.sandwich_bound
    assert value == float(sum(sums[:3])) == rep.lhs


@pytest.mark.parametrize("N", [8, 60, 300])
def test_cli_log_backend_small_n_matches_dense_row(N, three_atom_mu, tmp_path, capsys):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"atoms": [
        {"p": float(p), "w": float(w)} for p, w in three_atom_mu.atoms
    ]}))
    e = PrefixEvent((1, 0, 1))
    assert main(["verify", "--measure", str(path), "-N", str(N), "--pattern", "1,0,1",
                 "--backend", "log"]) == 0
    rep = json.loads(capsys.readouterr().out)
    ps = np.array([float(p) for p, _ in three_atom_mu.atoms])
    lws = np.log(np.array([float(w) for _, w in three_atom_mu.atoms]))
    want = _dense_log_verify(dense_log_mean_law(N, ps, lws), N, e)
    _assert_matches_dense(rep, want, N)


def test_verify_log_mixed_measure_scans_only_its_tail_atoms(monkeypatch):
    # the atom at 1e-6 reaches index 0; the one at 1/2 is interior, so only
    # the first goes through the per-index kernels, on its own window
    N = 10**5
    seen = []
    scan = harness._log_mean_law_array

    def spy(atoms, n):
        seen.append(list(atoms))
        return scan(atoms, n)

    monkeypatch.setattr(harness, "_log_mean_law_array", spy)
    mu = MixingMeasure(((1e-6, 0.5), (0.5, 0.5)))
    rep = verify_approximation(mu, PrefixEvent((0, 1, 0)), N=N)
    assert seen == [[(1e-6, 0.5)]]
    assert rep.lhs_lower > 0 and rep.rhs_lower > 0


ENDS_MU = MixingMeasure(((F(0), F(1, 4)), (F(1, 3), F(1, 4)), (F(1), F(1, 2))))


def _sum_fractions(sums):
    a, a_den, b, b_den = sums
    return [F(n, a_den) for n in a] + [F(n, b_den) for n in b]


def _assert_measure_sums_match_law_pass(mu, N, k, alpha, nums, den):
    # the reference is one pass of _exact_fields over the whole count law
    b = region_bounds(N)
    e = PrefixEvent((1,) * alpha + (0,) * (k - alpha))
    want = _sum_fractions(harness._exact_fields(enumerate(nums), den, e, N, b))
    got = _sum_fractions(harness._measure_sums(mu, e, N, b, "exact"))
    assert got == want, (N, k, alpha)


@pytest.mark.parametrize("name", ["three", "ends"])
def test_exact_measure_sums_match_the_full_law_pass(name, three_atom_mu):
    # every N in 8..64, every k <= min(N, 10) and every alpha, so the grid
    # holds the shapes where the two tail passes would overlap (lo >= hi
    # before hi is raised to lo), such as N = 8, k = 7, alpha = 0
    mu = three_atom_mu if name == "three" else ENDS_MU
    overlaps = 0
    for N in range(8, 65):
        nums, den = sample_mean_law(mu, N).integer_form()
        b = region_bounds(N)
        for k in range(1, min(N, 10) + 1):
            for alpha in range(k + 1):
                overlaps += max(b.M1, alpha - 1) >= min(b.M2, N - k + alpha)
                _assert_measure_sums_match_law_pass(mu, N, k, alpha, nums, den)
    assert overlaps > 0


@given(st.data())
def test_exact_measure_sums_match_the_full_law_pass_random(data):
    mu = random_rational_measure(random.Random(data.draw(st.integers(0, 10**6), label="seed")))
    N = data.draw(st.integers(8, 3000), label="N")
    k = data.draw(st.integers(1, min(N, 10)), label="k")
    alpha = data.draw(st.integers(0, k), label="alpha")
    _assert_measure_sums_match_law_pass(mu, N, k, alpha, *sample_mean_law(mu, N).integer_form())


def test_log_measure_totals_are_exact_and_only_tails_are_scanned(monkeypatch):
    # both atoms reach a tail: before, their whole windows were summed per
    # index and lhs and rhs came out a few ulp off the exact totals
    N, atoms = 10**7, ((1e-5, 0.2), (0.99995, 0.8))
    e = PrefixEvent((1, 1, 1, 0, 0, 0))
    b = region_bounds(N)
    lo, hi = b.M1, b.M2   # the passes of _measure_sums run over i <= lo and i > hi
    seen = []
    indexed = harness._indexed_sums

    def spy(idx, log_q, *args):
        seen.append(idx)
        return indexed(idx, log_q, *args)

    monkeypatch.setattr(harness, "_indexed_sums", spy)
    rep = verify_approximation(MixingMeasure(atoms), e, N=N, backend="log")
    lhs, rhs = kernel_mean(level_moments(atoms, e.k), N, e.k, e.alpha)
    assert (rep.lhs, rep.rhs) == (float(lhs), float(rhs))
    [idx] = seen
    assert idx.size and np.all((idx <= lo) | (idx > hi))
    # the tail and edge fields are those of a pass over the whole windows
    whole = _sum_fractions(indexed(*harness._log_mean_law_array(atoms, N), e, N, b))
    got = _printed_sums(rep)
    for j in (0, 2, 3, 5, 6, 7):
        assert got[j] == whole[j], SUM_FIELDS[j]


def _binomial_raw_moment(N, m):
    """E[S^m] for S ~ Bin(N, p) as integer coefficients of a polynomial in p,
    by the recurrence E[S^(m+1)] = p (1 - p) d/dp E[S^m] + N p E[S^m]."""
    poly = [1]
    for _ in range(m):
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            if d:
                nxt[d] += d * c      # p d/dp
                nxt[d + 1] -= d * c  # -p^2 d/dp
            nxt[d + 1] += N * c
        poly = nxt
    return poly


def _exact_log_reference(atoms, N, k, alpha):
    """(lhs, rhs) of a float measure in exact rationals: lhs is the mixture's
    prefix probability sum w p^alpha (1-p)^(k-alpha) (the exchangeable value
    of a mixture of iid laws), rhs = E[S^alpha (N-S)^(k-alpha)] / N^k with
    (N - S)^(k-alpha) expanded binomially."""
    beta = k - alpha
    lhs = rhs = F(0)
    for p, w in atoms:
        p, w = F(p), F(w)
        lhs += w * p**alpha * (1 - p) ** beta
        for t in range(beta + 1):
            moment = sum(c * p**d for d, c in enumerate(_binomial_raw_moment(N, alpha + t)))
            rhs += w * (-1) ** t * math.comb(beta, t) * N ** (beta - t) * moment
    return lhs, rhs / N**k


@given(st.data())
def test_verify_log_interior_measure_is_exact(data):
    # every atom's window inside the mid window: the report is correctly
    # rounded from exact values and abs_diff <= sandwich_bound with no slack
    N = data.draw(st.sampled_from([10**5, 10**6, 10**7]), label="N")
    k = data.draw(st.integers(1, 8), label="k")
    pattern = tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                              label="pattern"))
    alpha = sum(pattern)
    ps = data.draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=4, unique=True),
                   label="ps")
    raw = data.draw(st.lists(st.floats(0.5, 9.0), min_size=len(ps), max_size=len(ps)),
                    label="raw")
    atoms = [(p, r / math.fsum(raw)) for p, r in sorted(zip(ps, raw))]
    mu = MixingMeasure(tuple(atoms))
    b = region_bounds(N)
    for p, _ in atoms:
        lo, hi = _kernels._atom_window(N, p)
        assert b.M1 < lo and hi <= b.M2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness._kernels, "scan_log_ab", None)   # no per-index pass
        rep = verify_approximation(mu, PrefixEvent(pattern), N=N, backend="log")
    lhs, rhs = _exact_log_reference(atoms, N, k, alpha)
    # all of both totals in the mid sums, nothing elsewhere
    _assert_rounding_rule(rep, [0, lhs, 0, 0, rhs, 0, 0, 0])
    assert rep.abs_diff <= rep.sandwich_bound


def test_verify_auto_backend_switches(three_atom_mu):
    e = PrefixEvent((1, 0))
    assert verify_approximation(three_atom_mu, e, N=2000).backend == "exact"
    assert verify_approximation(three_atom_mu, e, N=2001).backend == "log"


def test_verify_float_data_routes_to_log(three_atom_mu):
    mu_f = MixingMeasure(tuple((float(p), float(w)) for p, w in three_atom_mu.atoms))
    e = PrefixEvent((1, 0))
    assert verify_approximation(mu_f, e, N=100).backend == "log"   # auto
    with pytest.raises(ValidationError):
        verify_approximation(mu_f, e, N=100, backend="exact")


def test_verify_pathological_float_label():
    weights = [0.0] * 101
    weights[0] = 1.0
    law = SampleMeanLaw(N=100, weights=tuple(weights))
    rep = verify_approximation(law, PrefixEvent((1, 1)), backend="log")
    assert rep.pathological
    assert rep.pathological_label == "numerically pathological"


def test_verify_rejects_bad_args(three_atom_mu):
    with pytest.raises(ValidationError):
        verify_approximation(three_atom_mu, PrefixEvent((1,)))   # no N
    with pytest.raises(ValidationError):
        verify_approximation(three_atom_mu, PrefixEvent((1,) * 30), N=20)
    with pytest.raises(ValueError):
        verify_approximation(three_atom_mu, PrefixEvent((1,)), N=7)


def test_exact_eps_mid_equals_brute_maximum():
    # the reported eps_mid (endpoints plus bisected peak) against a plain
    # Fraction maximum over the whole mid window
    rng = random.Random(97)
    for _ in range(12):
        mu = random_rational_measure(rng)
        N = rng.choice([8, 13, 40, 101])
        k = rng.randint(1, min(N, 6))
        alpha = rng.randint(0, k)
        e = PrefixEvent((1,) * alpha + (0,) * (k - alpha))
        rep = verify_approximation(mu, e, N=N, backend="exact")
        b = region_bounds(N)
        brute = F(0)
        for i in range(b.M1 + 1, b.M2 + 1):
            bi = iid_kernel(N, k, alpha, i)
            if bi != 0:
                brute = max(
                    brute, abs(conditional_prefix_prob(N, k, alpha, i) / bi - 1)
                )
        assert rep.eps_mid == brute, (N, k, alpha)


@given(st.data())
def test_mid_window_eps_matches_brute(data):
    # the unimodal peak search against a plain Fraction maximum
    N = data.draw(st.integers(8, 200), label="N")
    k = data.draw(st.integers(1, min(N, 10)), label="k")
    alpha = data.draw(st.integers(0, k), label="alpha")
    b = region_bounds(N)
    brute = max(
        abs(conditional_prefix_prob(N, k, alpha, i) / iid_kernel(N, k, alpha, i) - 1)
        for i in range(b.M1 + 1, b.M2 + 1)
    )
    assert mid_window_eps(N, k, alpha, b) == brute


def _fraction_bisection_eps(N, k, alpha, bounds, rho):
    """mid_window_eps as first written: a plain bisection that compares the
    Fraction ratios rho(i) = a_i / b_i at every step."""
    lo = max(bounds.M1 + 1, alpha)
    hi = min(bounds.M2, N - k + alpha)
    if lo > hi:
        return F(1)
    left, right = lo, hi
    while left < right:
        mid = (left + right) // 2
        if rho(mid + 1) > rho(mid):
            left = mid + 1
        else:
            right = mid
    eps = max(1 - rho(lo), 1 - rho(hi), rho(left) - 1)
    if lo > bounds.M1 + 1 or hi < bounds.M2:
        eps = max(eps, F(1))
    return eps


# N past 2^53 too: the seeded search works in integers at any N.  The
# binomials of a_i have millions of digits here, so rho is the Fraction
# product falling * edge * r of mid_window_eps' docstring
@pytest.mark.parametrize("N", [10**4, 10**5, 10**6, 10**7, 2**53 + 1, 10**20])
def test_mid_window_eps_matches_fraction_bisection(N):
    b = region_bounds(N)
    for k in range(1, 9):
        r = replacement_correction(N, k)
        for alpha in range(k + 1):
            def rho(i):
                falling = math.prod(F(i - m, i) for m in range(alpha))
                return falling * math.prod(F(N - i - j, N - i) for j in range(1, k - alpha)) * r
            assert mid_window_eps(N, k, alpha, b) == _fraction_bisection_eps(N, k, alpha, b, rho)


@given(st.data())
def test_mid_window_eps_matches_fraction_bisection_small_n(data):
    # small N puts the support edges inside the mid window
    N = data.draw(st.integers(8, 400), label="N")
    k = data.draw(st.integers(1, min(N, 40)), label="k")
    alpha = data.draw(st.integers(0, k), label="alpha")
    b = region_bounds(N)

    def rho(i):
        return conditional_prefix_prob(N, k, alpha, i) / iid_kernel(N, k, alpha, i)

    assert mid_window_eps(N, k, alpha, b) == _fraction_bisection_eps(N, k, alpha, b, rho)


def test_log_verify_from_measure_runs_no_search(monkeypatch):
    # two N D values per interior atom (bisecting its window takes about
    # 32), and a handful of ratio evaluations per mid_window_eps (bisecting
    # over the mid window takes up to 52 at N = 1e7)
    calls = {"n_kl": 0, "ratio": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(_kernels, "_n_kl", counted("n_kl", _kernels._n_kl))
    monkeypatch.setattr(harness, "_ratio_terms", counted("ratio", harness._ratio_terms))
    N = 10**7
    atoms = ((0.15, 0.1), (0.4, 0.2), (0.65, 0.3), (0.9, 0.4))
    monkeypatch.setattr(_kernels, "scan_log_ab", None)   # every atom interior
    verify_approximation(MixingMeasure(atoms), PrefixEvent((1, 0, 1, 1, 0, 0)), N=N)
    assert calls["n_kl"] <= 2 * len(atoms)
    for N in (10**4, 10**7, 2**53):
        b = region_bounds(N)
        for k in range(1, 13):
            for alpha in range(k + 1):
                calls["ratio"] = 0
                mid_window_eps(N, k, alpha, b)
                assert calls["ratio"] <= 8, (N, k, alpha)


def test_verify_log_subnormal_atom():
    # N p is subnormal, so d / Np overflows in the saddle form; the term at
    # i = 1 (N D about 727) must survive, warning-free
    atoms = ((5e-324, 1.0),)
    N = 10**7
    assert 700 < _kernels._n_kl(N, 5e-324, 1) < _kernels.LOG_TERM_FLOOR
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_approximation(MixingMeasure(atoms), PrefixEvent((1,)), N=N)
    lhs, rhs = kernel_mean(level_moments(atoms, 1), N, 1, 1)
    assert (rep.lhs, rep.rhs) == (float(lhs), float(rhs)) == (5e-324, 5e-324)


def _fraction_report(e, N, bounds, backend, sums):
    """``harness._report`` as it was before the integer form, the reference:
    the eight exact values as Fractions, and Fraction arithmetic throughout."""
    k, alpha = e.k, e.alpha
    eps_mid = mid_window_eps(N, k, alpha, bounds)
    lhs, rhs = sum(sums[:3]), sum(sums[3:6])
    budget = eps_mid * sums[4] + sums[0] + sums[3] + sums[2] + sums[5]
    if backend == "exact":
        show, abs_diff = F, abs(lhs - rhs)
        pathological, label = lhs == 0, "exact zero"
    else:
        show, abs_diff = float, abs(float(lhs) - float(rhs))
        budget += max(0, F(abs_diff) - abs(lhs - rhs))
        pathological = float(lhs) < harness.FLOAT_PATHOLOGICAL_TOL
        label = "numerically pathological"
    bound = show(budget)
    if bound < budget:
        bound = math.nextafter(bound, math.inf)
    return harness.VerificationReport(
        N, k, alpha, bounds.M1, bounds.M2, backend,
        show(lhs), show(rhs), abs_diff, *map(show, sums[:6]),
        show(eps_mid), False, bound, *harness._tail_caps(N, k, alpha),
        pathological, label if pathological else None, *map(show, sums[6:]),
    )


def _assert_same_report(got, want):
    """Field for field: floats bit-identical (the sign of a zero too),
    everything else equal and of the same type."""
    for name, x in vars(want).items():
        y = getattr(got, name)
        assert type(y) is type(x), (name, y, x)
        assert (y.hex() == x.hex()) if isinstance(x, float) else (y == x), (name, y, x)


def _float_atoms(data, ps):
    raw = data.draw(st.lists(st.floats(0.5, 9.0), min_size=len(ps), max_size=len(ps)),
                    label="raw")
    return MixingMeasure(tuple((p, r / math.fsum(raw)) for p, r in sorted(zip(ps, raw))))


@given(st.data())
def test_integer_report_matches_fraction_report(data):
    kind = data.draw(st.sampled_from(
        ["exact law", "float law", "rational measure", "interior measure", "mixed measure"]),
        label="kind")
    exact_source = kind in ("exact law", "rational measure")
    backend = data.draw(st.sampled_from(["exact", "log"] if exact_source else ["log"]),
                        label="backend")
    if kind == "interior measure":
        N = data.draw(st.sampled_from([10**5, 10**7, 2**53 + 1]), label="N")
        ps = data.draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=4, unique=True),
                       label="ps")
        source = _float_atoms(data, ps)
    elif kind == "mixed measure":
        N = data.draw(st.sampled_from([60, 3000, 10**5]), label="N")
        end = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.999, 1.0]), label="end")
        ps = data.draw(st.lists(st.floats(0.2, 0.8), min_size=1, max_size=3, unique=True),
                       label="ps")
        source = _float_atoms(data, [end, *ps])
    elif kind == "float law":
        N = data.draw(st.integers(8, 300), label="N")
        q = data.draw(st.lists(st.floats(0.0, 1.0), min_size=N + 1, max_size=N + 1),
                      label="q")
        q[data.draw(st.integers(0, N), label="spike")] += 1.0
        total = math.fsum(q)
        source = SampleMeanLaw(N=N, weights=tuple(x / total for x in q))
        N = None
    else:
        seed = data.draw(st.integers(0, 10**6), label="seed")
        mu = random_rational_measure(random.Random(seed))
        N = data.draw(st.integers(8, 300 if backend == "exact" else 3000), label="N")
        source = mu if kind == "rational measure" else sample_mean_law(mu, N)
        N = N if kind == "rational measure" else None
    law_n = N if N is not None else source.N
    k = data.draw(st.integers(1, min(law_n, 8)), label="k")
    pattern = tuple(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                              label="pattern"))
    e = PrefixEvent(pattern)
    with pytest.MonkeyPatch.context() as mp:
        rep, sums = _report_and_sums(mp, source, e, N, backend)
    assert rep.backend == backend
    _assert_same_report(rep, _fraction_report(e, law_n, region_bounds(law_n), backend, sums))


def test_log_verify_of_interior_float_measure_builds_no_fraction():
    # every atom interior: from the moment totals to the printed floats the
    # report is integer arithmetic, with no Fraction in between
    mu = MixingMeasure(((0.15, 0.1), (0.4, 0.2), (0.65, 0.3), (0.9, 0.4)))
    e = PrefixEvent((1, 0, 1, 1, 0, 0))
    N = 10**7
    want = verify_approximation(mu, e, N=N)

    class NoFraction:
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    with pytest.MonkeyPatch.context() as mp:
        for module in (harness, model, _kernels):
            mp.setattr(module, "Fraction", NoFraction, raising=False)
        got = verify_approximation(mu, e, N=N)
    _assert_same_report(got, want)
    assert got.backend == "log" and got.abs_diff <= got.sandwich_bound


def test_law_files_use_no_float_kernel(monkeypatch):
    # a float law is summed as integers on the log backend, and so is its
    # prefix probability: no per-index kernel runs
    def refuse(*args, **kwargs):
        raise AssertionError("float kernel called on a law path")

    for name in ("scan_log_ab", "pair_region_sums"):
        monkeypatch.setattr(_kernels, name, refuse)
    monkeypatch.setattr(harness, "_indexed_sums", refuse)
    law = sample_mean_law(MixingMeasure(((0.0, 0.3), (0.4, 0.7))), 3000)
    e = PrefixEvent((1, 0, 1))
    rep = verify_approximation(law, e, backend="log")
    assert rep.abs_diff <= rep.sandwich_bound
    assert model.prefix_prob_from_mean_law(law, e) == rep.lhs


def test_exact_verify_uses_no_float_kernel(three_atom_mu, monkeypatch):
    # the exact backend certifies eps_mid without a float scan
    def refuse(*args, **kwargs):
        raise AssertionError("float kernel called on the exact path")

    monkeypatch.setattr(harness._kernels, "scan_log_ab", refuse)
    rep = verify_approximation(
        three_atom_mu, PrefixEvent((1, 1, 0)), N=500, backend="exact"
    )
    assert rep.backend == "exact"
    assert rep.abs_diff <= rep.sandwich_bound


def test_pathological_decomposition_for_random_edge_laws():
    # laws supported only where the conditional probability vanishes:
    # lhs = 0 and rhs splits exactly into below-alpha plus above-support
    rng = random.Random(101)
    for _ in range(10):
        N = rng.choice([8, 12, 20, 40])
        k = rng.randint(2, min(N, 6))
        alpha = rng.randint(1, k - 1)
        e = PrefixEvent((1,) * alpha + (0,) * (k - alpha))
        spots = list(range(alpha)) + list(range(N - k + alpha + 1, N + 1))
        chosen = rng.sample(spots, k=rng.randint(1, min(3, len(spots))))
        q = [F(0)] * (N + 1)
        for s in chosen:
            q[s] = F(1, len(chosen))
        rep = verify_approximation(
            SampleMeanLaw(N=N, weights=q), e, backend="exact"
        )
        assert rep.pathological and rep.lhs == 0
        assert rep.rhs == rep.rhs_below_alpha + rep.rhs_above_support


def test_alpha_k_shortcut_row_identity():
    # at alpha = k the ratio reduces to falling * correction,
    # i! / ((i-k)! i^k) * r, which vanishes below i = k with a_i
    N, k = 120, 3
    r = replacement_correction(N, k)
    for i in range(1, N + 1):
        a = conditional_prefix_prob(N, k, k, i)
        b = iid_kernel(N, k, k, i)
        closed = F(math.factorial(i), math.factorial(i - k) * i**k) * r if i >= k else 0
        assert a / b == closed


@given(st.lists(st.floats(-2.0**-9, 2.0**-9), min_size=1, max_size=200))
def test_ratio_exp_matches_math_exp(xs):
    # the interval straddles the series' threshold, 2^-10
    got = harness._exp(np.array(xs, dtype=np.float64))
    assert got.view(np.uint64).tolist() == np.array([math.exp(x) for x in xs]).view(np.uint64).tolist()


def test_ratio_exp_near_rounding_midpoints():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2020)
    # exp(x) within about 2^-66 of the midpoint between two floats near 1,
    # above 1 (ulp 2^-52) and below it (ulp 2^-53), out to |x| = 2^-10
    mids = []
    with mpmath.workprec(200):
        for j in [1, 2, 3, 1000] + [rng.randrange(1, 2**42) for _ in range(40)]:
            mids.append(mpmath.mpf(1) + mpmath.mpf(2) ** -52 * (j + mpmath.mpf(1) / 2))
            mids.append(mpmath.mpf(1) - mpmath.mpf(2) ** -53 * (j + mpmath.mpf(1) / 2))
        near = np.array([float(mpmath.log(m)) for m in mids])
    near = near[np.abs(near) <= harness.EXP_SERIES_MAX]
    assert near.size > 60
    y, kept = harness._exp_series(near)
    assert not kept.any()
    # a seeded draw across the threshold takes both paths
    spread = np.random.default_rng(2020).uniform(-2.0**-9, 2.0**-9, 10_000)
    y, kept = harness._exp_series(spread)
    assert 0 < kept.sum() < spread.size
    assert kept.sum() > 0.4 * spread.size
    x = np.concatenate([near, spread])
    reference = np.array([math.exp(v) for v in x.tolist()])
    assert harness._exp(x).view(np.uint64).tolist() == reference.view(np.uint64).tolist()
    assert y[kept].view(np.uint64).tolist() == reference[near.size:][kept].view(np.uint64).tolist()
