"""Finite-N verifier for the mixture approximation of prefix probabilities.

For a count law q and a prefix pattern (k, alpha) it computes

    lhs = sum_i P(prefix | count=i) q_i      (the exchangeable value)
    rhs = sum_i (i/N)^alpha (1-i/N)^(k-alpha) q_i   (the iid-kernel value)

splits both sums into lower tail (i <= M1), mid window (M1 < i <= M2) and
upper tail (i > M2), and assembles a sound bound for |lhs - rhs| from the
max ratio deviation in the mid window plus the four tail partial sums.
The exact backend (``auto`` picks it for rational input at N <= 2000)
prints every field as an exact rational, the log backend each one rounded
to float64.  The mid-window deviation does not depend on the law, and
both backends take it from one exact function, ``mid_window_eps``, which
certifies it from the unimodality of the ratio in a few O(k) evaluations.

Every source and backend reduces to the same eight exact values (six
region sums and two edge masses), held as integer numerators over two
denominators, and one function, ``_report``, turns them into a
``VerificationReport`` in integer arithmetic: exact on the exact backend,
each field correctly rounded and the budget rounded up on the log backend.
A measure takes one algorithm on both backends (``_measure_sums``): lhs and
rhs are exact totals from its moments, the tail and edge sums come from
per-index passes over the two tails alone (exact integers, or float64
over the atoms' windows, whose int64 indices need N < 2^63), and each mid
sum is its total minus its tails.  A law file, exact or float, takes one
exact integer pass over its terms on both backends (``_exact_fields``).
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import _kernels
from .model import (
    MixingMeasure,
    PrefixEvent,
    SampleMeanLaw,
    ValidationError,
    Value,
    kernel_mean_ratios,
    level_moments,
    sample_mean_law,   # unused here: perfbench's model.sample_mean_law span wraps this name
    _law_bits,
    _law_terms,
    _log_mean_law_array,
    _tiny_multiple,
)
from .numerics import (
    DomainError,
    RegionBounds,
    check_index_range,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)

EXACT_BACKEND_MAX_N = 2000
# The most bits the exact backend lets a measure's count-law terms, and so
# the report's numbers, take (``_measure_sums``): about N log2 d for atoms
# over the denominator d.  The three-atom measure (d = 10) at N = 1e5 has
# 3.3e5 bits; the limit is measured in the README.
EXACT_MEASURE_MAX_BITS = 2**20
# rows per ``scan_blocks`` block wherever a whole scan is taken: the CLI's
# stream and ``ratio_scan``'s aggregator
SCAN_BLOCK_ROWS = 8_192
FLOAT_PATHOLOGICAL_TOL = 1e-15


def resolve_backend(backend: str, N: int) -> str:
    if backend not in ("exact", "log", "auto"):
        raise ValidationError(f"unknown backend {backend!r}")
    if backend == "auto":
        return "exact" if N <= EXACT_BACKEND_MAX_N else "log"
    return backend


# ---------------------------------------------------------------------------
# ratio scan
# ---------------------------------------------------------------------------

REGION_NAMES = ("lower", "mid", "upper")   # indexed by RatioScan.region codes


@dataclass(frozen=True)
class ScanRow:
    i: int
    a: Value          # log backend: natural log, -inf for exact zero
    b: Value
    ratio: Value | None
    region: str


@dataclass(frozen=True, eq=False)
class RatioScan:
    """Column-wise result of ``ratio_scan``, or one block of ``scan_blocks``,
    one entry per scanned index.

    * ``i``: int64 array of the scanned counts, strictly increasing.
    * ``a``, ``b``: log backend, float64 arrays of natural logs (-inf for
      an exact zero); exact backend, tuples of Fractions.
    * ``ratio``: log backend, a float64 array with NaN where the ratio is
      absent; exact backend, a tuple of Fractions with None where absent.
    * ``region``: int8 array of codes into ``REGION_NAMES``
      (0 lower, 1 mid, 2 upper).
    * ``eps_mid``: the max |ratio - 1| over the mid-window rows present in
      these columns, 0 where there are none.

    ``rows`` is a read-only sequence view that builds a ``ScanRow`` only
    when one is accessed; absent ratios read as None there in both backends.
    """

    N: int
    k: int
    alpha: int
    bounds: RegionBounds
    i: np.ndarray
    a: np.ndarray | tuple[Fraction, ...]
    b: np.ndarray | tuple[Fraction, ...]
    ratio: np.ndarray | tuple[Fraction | None, ...]
    region: np.ndarray
    r: Value
    eps_mid: Value
    stride: int
    sampled: bool
    backend: str

    @property
    def log_columns(self) -> bool:
        return self.backend == "log"

    @property
    def rows(self) -> ScanRows:
        return ScanRows(self)


class ScanRows(Sequence):
    """Lazy ``Sequence[ScanRow]`` over the columns of a ``RatioScan``."""

    __slots__ = ("_scan",)

    def __init__(self, scan: RatioScan):
        self._scan = scan

    def __len__(self) -> int:
        return len(self._scan.i)

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return tuple(self[j] for j in range(*pos.indices(len(self))))
        s = self._scan
        a, b, ratio = s.a[pos], s.b[pos], s.ratio[pos]
        if s.log_columns:
            a, b, ratio = float(a), float(b), None if math.isnan(ratio) else float(ratio)
        return ScanRow(int(s.i[pos]), a, b, ratio, REGION_NAMES[s.region[pos]])


def _scan_edges(N: int, bounds: RegionBounds, stride: int) -> list[int]:
    """The region edges a scan adds to the multiples of its stride, ascending."""
    edges = {0, bounds.M1, bounds.M1 + 1, bounds.M2, min(bounds.M2 + 1, N), N}
    return sorted(i for i in edges if i % stride)


def scan_length(N: int, stride: int) -> int:
    """The number of indices a scan of 0..N at ``stride`` visits."""
    return N // stride + 1 + len(_scan_edges(N, region_bounds(N), stride))


def scan_indices(
    N: int, bounds: RegionBounds, stride: int, start: int = 0, rows: int | None = None
) -> np.ndarray:
    """The scanned indices from ``start`` on, the first ``rows`` of them (all
    when None): the multiples of ``stride`` in 0..N with the region edges
    always included, ascending.  N must fit int64 (``scan_blocks`` checks)."""
    stop = N + 1 if rows is None else min(N + 1, start + rows * stride)
    idx = np.arange(-(-start // stride) * stride, stop, stride, dtype=np.int64)
    edges = [i for i in _scan_edges(N, bounds, stride) if start <= i < stop]
    if edges:
        idx = np.insert(idx, np.searchsorted(idx, edges), edges)
    return idx[:rows]


def scan_blocks(
    N: int, k: int, alpha: int, stride: int, backend: str, rows: int
) -> Iterator[RatioScan]:
    """The scan of ``ratio_scan`` as ``RatioScan`` blocks of ``rows``
    scanned indices each (the last may be shorter), in order, each with the
    eps_mid of its own mid-window rows.  Each block builds only its own
    indices, so memory does not grow with N.

    Every argument is checked here, before the first block: the
    (N, k, alpha) domain, the regions, the stride and the int64 index
    range.  A ratio above the replacement correction raises AssertionError
    from the block that holds it, naming the smallest offending i.
    """
    return _blocks(*_scan_plan(N, k, alpha, stride, backend, rows))


def _scan_plan(N, k, alpha, stride, backend, rows):
    """The checked arguments of ``_blocks``, with bounds, backend and r resolved."""
    if not (0 <= alpha <= k <= N):
        raise ValidationError(f"invalid (N, k, alpha) = ({N}, {k}, {alpha})")
    if k < 1:
        raise ValidationError("pattern length must be at least 1")
    if min(stride, rows) < 1:
        raise ValidationError(f"stride and block rows must be at least 1, got {stride} and {rows}")
    bounds = region_bounds(N)
    check_index_range(N)
    backend = resolve_backend(backend, N)
    r = replacement_correction(N, k) if backend == "exact" else replacement_correction_float(N, k)
    return N, k, alpha, stride, rows, bounds, backend, r


def _blocks(N, k, alpha, stride, rows, bounds, backend, r, share=0, shares=1):
    """The block loop of every scan: the blocks j = share mod ``shares``, in
    order; the other blocks only advance the start index."""
    scan = _scan_exact if backend == "exact" else _scan_log
    start, j = 0, 0
    while start <= N:
        idx = scan_indices(N, bounds, stride, start, rows)
        start = int(idx[-1]) + 1
        if j % shares == share:
            region = (idx > bounds.M1).astype(np.int8)
            region += idx > bounds.M2
            a, b, ratio, eps_mid = scan(N, k, alpha, idx, region, r)
            yield RatioScan(N, k, alpha, bounds, idx, a, b, ratio, region, r, eps_mid,
                            stride, stride > 1, backend)
        j += 1


def ratio_scan(
    N: int,
    k: int,
    alpha: int,
    stride: int = 1,
    backend: str = "auto",
) -> RatioScan:
    """Per-index scan of the two kernels and their ratio over 0..N, all of
    it in memory: the blocks of ``scan_blocks`` in one set of columns.

    The ratio column is absent exactly where the iid kernel vanishes or
    where the count is too small to match the pattern (i < alpha).  The
    scan's eps_mid is the max deviation over the mid-window ratios it
    emits, so it can fall below the certified ``mid_window_eps`` that
    ``verify_approximation`` reports (rows thinned by stride > 1, absent
    ratios at i < alpha).  Every present ratio is asserted to stay below
    the replacement correction (exactly in the exact backend, within float
    rounding in the log one); a violation raises AssertionError naming the
    smallest offending i.
    """
    blocks = scan_blocks(N, k, alpha, stride, backend, SCAN_BLOCK_ROWS)
    size, log = scan_length(N, stride), resolve_backend(backend, N) == "log"
    i, region = np.empty(size, np.int64), np.empty(size, np.int8)
    a, b, ratio = (np.empty(size) if log else [None] * size for _ in range(3))
    start, eps_mid = 0, []
    for block in blocks:
        stop = start + len(block.i)
        for column, part in zip((i, a, b, ratio, region),
                                (block.i, block.a, block.b, block.ratio, block.region)):
            column[start:stop] = part
        start = stop
        eps_mid.append(block.eps_mid)
    if not log:
        a, b, ratio = tuple(a), tuple(b), tuple(ratio)
    return replace(block, i=i, a=a, b=b, ratio=ratio, region=region, eps_mid=max(eps_mid))


def _scan_exact(N, k, alpha, idx, region, r):
    # a_i and b_i in the falling-factorial form of ``_exact_fields``
    a_den, b_den = math.perm(N, k), N**k
    a_col, b_col, ratio_col = [], [], []
    eps_mid = Fraction(0)
    for i, code in zip(idx.tolist(), region.tolist()):
        a, b = map(Fraction, _ratio_terms(N, k, alpha, i), (a_den, b_den))
        ratio = None
        if b != 0 and not (a == 0 and i < alpha):
            ratio = a / b
            if ratio > r:
                raise AssertionError(f"ratio bound violated at i={i}: {ratio} > {r}")
            if code == 1:
                eps_mid = max(eps_mid, abs(ratio - 1))
        a_col.append(a)
        b_col.append(b)
        ratio_col.append(ratio)
    return tuple(a_col), tuple(b_col), tuple(ratio_col), eps_mid


def _scan_log(N, k, alpha, idx, region, r):
    log_a, log_b = _kernels.scan_log_ab(_kernels.RESIDUALS, N, k, alpha, idx)
    log_r = math.log(r)
    a_zero = log_a == _kernels.NEG_INF
    present = (log_b != _kernels.NEG_INF) & ~(a_zero & (idx < alpha))
    finite = present & ~a_zero
    log_ratio = log_a[finite] - log_b[finite]
    # float slack for the ratio bound; the bound is exact math, only the
    # evaluation rounds
    slack = 1e-9
    over = np.flatnonzero(log_ratio > log_r + slack)
    if over.size:
        j = over[0]
        raise AssertionError(
            f"ratio bound violated at i={int(idx[finite][j])}: "
            f"log ratio {float(log_ratio[j])} > log r {log_r}"
        )
    ratio = np.full(idx.shape, np.nan)
    ratio[present] = 0.0
    ratio[finite] = _exp(log_ratio)
    mid_dev = np.abs(ratio[present & (region == 1)] - 1.0)
    eps_mid = float(mid_dev.max()) if mid_dev.size else 0.0
    return log_a, log_b, ratio, eps_mid


# _exp takes its series for |x| <= EXP_SERIES_MAX and keeps the values that
# no exp within EXP_ULP_BOUND ulp can round otherwise; glibc states its exp
# within about 0.51 ulp
EXP_SERIES_MAX = 2.0**-10
EXP_ULP_BOUND = 0.52


def _exp(x: np.ndarray) -> np.ndarray:
    """exp of each float64 in x, as a new array, equal to ``math.exp`` bit
    for bit: the CSV prints every digit of the ratio, and ``np.exp``
    differs from ``math.exp`` in the last ulp on some inputs.  Most ratios
    lie near 1, where ``_exp_series`` gives the value; the rest take
    ``math.exp`` one at a time."""
    y, kept = _exp_series(x)
    rest = np.flatnonzero(~kept)
    y[rest] = np.fromiter(map(math.exp, x[rest].tolist()), dtype=np.float64, count=rest.size)
    return y


def _exp_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, kept): y = fl(1 + t) with t = x + x^2/2 + x^3/6 + x^4/24 + x^5/120,
    and kept where |x| <= EXP_SERIES_MAX and y is exp(x) with room to spare.

    For |x| <= 2^-10, t is within 2^-60 of exp(x) - 1: Horner's rule errs
    by at most half an ulp of t (2^-63) plus about 2^-71, and the terms left
    out sum to below 2^-69.  Fast2Sum makes r = (1 - y) + t the exact
    1 + t - y (|t| < 1).  Where |r| < (1 - EXP_ULP_BOUND) ulp(y) - 2^-60,
    exp(x) lies within half an ulp of y and more than (EXP_ULP_BOUND - 1/2)
    ulp from a rounding midpoint: y is exp(x) correctly rounded, and an exp
    within EXP_ULP_BOUND ulp, as glibc's is, can return only y.  y = 1 is
    never kept, because the ulp below 1 is half the ulp above it."""
    xs = np.clip(x, -EXP_SERIES_MAX, EXP_SERIES_MAX)
    t = xs / 120.0
    t += 1.0 / 24.0
    t *= xs
    t += 1.0 / 6.0
    t *= xs
    t += 0.5
    t *= xs
    t *= xs
    t += xs
    y = t + 1.0
    r = np.subtract(1.0, y)
    r += t
    np.abs(r, out=r)
    room = 1.0 - EXP_ULP_BOUND
    kept = r < np.where(y > 1.0, room * 2.0**-52 - 2.0**-60, room * 2.0**-53 - 2.0**-60)
    kept &= xs == x
    kept &= y != 1.0
    return y, kept


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBounds:
    """Exact-arithmetic check of the two tail estimates.

    Lower tail (alpha >= 1): sum of kernels over i <= M1 against the chain
    middle M1^(1+alpha)/N^alpha and the cap N^(-(2*alpha-1)/3).
    Upper tail (alpha <= k-1): max kernel over i > M2 against N^(-(k-alpha)/2).
    Irrational caps are compared by integer cross powers, so `ok` flags are
    exact statements, not float comparisons.
    """

    N: int
    k: int
    alpha: int
    bounds: RegionBounds
    lower_applicable: bool
    lower_sum: Fraction | None
    lower_chain_mid: Fraction | None
    lower_cap: float | None
    lower_ok: bool | None
    upper_applicable: bool
    upper_max: Fraction | None
    upper_cap: float | None
    upper_ok: bool | None


def _tail_caps(N: int, k: int, alpha: int) -> tuple[float | None, float | None]:
    """The lower-tail cap N^(-(2*alpha-1)/3) (alpha >= 1) and the upper-tail
    cap N^(-(k-alpha)/2) (alpha <= k-1); None where a side does not apply."""
    return (
        float(N) ** (-(2 * alpha - 1) / 3) if alpha >= 1 else None,
        float(N) ** (-(k - alpha) / 2) if alpha <= k - 1 else None,
    )


def tail_bounds_check(N: int, k: int, alpha: int) -> TailBounds:
    """Verify both tail estimates exactly; inapplicable sides report None."""
    if not (0 <= alpha <= k <= N):
        raise ValidationError(f"invalid (N, k, alpha) = ({N}, {k}, {alpha})")
    if k < 1:
        raise ValidationError("pattern length must be at least 1")
    b = region_bounds(N)
    lower_applicable = alpha >= 1
    upper_applicable = alpha <= k - 1

    lower_cap, upper_cap = _tail_caps(N, k, alpha)
    # the kernel (i/N)^alpha (1-i/N)^beta is i^alpha (N-i)^beta over N^k:
    # sum and max the integer numerators, then reduce once
    beta = k - alpha
    lower_sum = lower_chain_mid = lower_ok = None
    if lower_applicable:
        lower_sum = Fraction(sum(i**alpha * (N - i) ** beta for i in range(b.M1 + 1)), N**k)
        lower_chain_mid = Fraction(b.M1 ** (1 + alpha), N**alpha)
        # sum <= N^(-(2a-1)/3)  <=>  sum^3 * N^(2a-1) <= 1, exactly
        chain_first = lower_sum <= lower_chain_mid
        chain_second = lower_chain_mid**3 * N ** (2 * alpha - 1) <= 1
        cap_ok = lower_sum**3 * N ** (2 * alpha - 1) <= 1
        lower_ok = bool(chain_first and cap_ok)
        if chain_first and chain_second and not cap_ok:
            raise AssertionError("inconsistent tail chain")  # unreachable
    upper_max = upper_ok = None
    if upper_applicable:
        # the kernel is log-concave in i with its real max at alpha N / k, so
        # over (M2, N] it peaks at M2 + 1 or at an integer next to alpha N / k
        top = alpha * N // k
        upper_max = Fraction(max(i**alpha * (N - i) ** beta
                                 for i in (b.M2 + 1, top, top + 1) if b.M2 < i <= N), N**k)
        # max <= N^(-(k-a)/2)  <=>  max^2 * N^(k-a) <= 1, exactly
        upper_ok = bool(upper_max**2 * N**beta <= 1)
    return TailBounds(N, k, alpha, b, lower_applicable, lower_sum, lower_chain_mid, lower_cap,
                      lower_ok, upper_applicable, upper_max, upper_cap, upper_ok)


# ---------------------------------------------------------------------------
# certified mid-window deviation
# ---------------------------------------------------------------------------

def _ratio_terms(N: int, k: int, alpha: int, i: int) -> tuple[int, int]:
    """(num, den), the integer numerators of a_i = num / N^(k) and
    b_i = den / N^k, so a_i / b_i = r num / den; both positive on the support."""
    beta = k - alpha
    return math.perm(i, alpha) * math.perm(N - i, beta), i**alpha * (N - i) ** beta


def mid_window_eps(N: int, k: int, alpha: int, bounds: RegionBounds) -> Fraction:
    """Exact max |a_i / b_i - 1| over the mid window M1 < i <= M2.

    a_i = C(N-k, i-alpha) / C(N, i) is the conditional prefix probability
    and b_i = (i/N)^alpha (1-i/N)^(k-alpha) the iid kernel.  The maximum is
    certified from a few ratio evaluations of O(k) small integers each:

    * b_i > 0 on the whole window, because 2 <= M1 < M2 < N for N >= 8.
    * Off the support alpha <= i <= N-k+alpha, a_i = 0, so the deviation
      there is exactly 1.
    * On the support, rho(i) = a_i / b_i = falling(i) * edge(i) * r with
      log falling = sum_{m<alpha} log(1 - m/i) and
      log edge = sum_{0<j<k-alpha} log(1 - j/(N-i)).  Both factors lie in
      (0, 1], so rho(i) <= r: the ratio lemma.  Every term is concave
      in i and every factor is positive there, so log rho is concave and
      rho is unimodal: rho(i+1) > rho(i) holds on a prefix of the support.
    * Hence over [lo, hi], the window inside the support,
      eps = max(1 - rho(lo), 1 - rho(hi), rho(peak) - 1), where the peak is
      the first i at which rho(i+1) > rho(i) fails.  With
      rho(i) = r i^(alpha) (N-i)^(k-alpha) / (i^alpha (N-i)^(k-alpha)),
      each test compares two cross products of integers, and so does the
      choice among the three final deviations (``_mid_window_eps_ratio``).
    * The search gallops, then bisects, from the stationary point of the
      continuous log rho, i / (N - i) = sqrt(alpha (alpha-1) / (beta (beta-1)))
      with beta = k - alpha, a few indices from the peak at large N.
    """
    return Fraction(*_mid_window_eps_ratio(N, k, alpha, bounds))


def _mid_window_eps_ratio(N: int, k: int, alpha: int, bounds: RegionBounds) -> tuple[int, int]:
    """``mid_window_eps`` as integers (num, den), den > 0."""
    lo = max(bounds.M1 + 1, alpha)
    hi = min(bounds.M2, N - k + alpha)
    if lo > hi:
        return 1, 1
    beta = k - alpha
    a_b = functools.partial(_ratio_terms, N, k, alpha)
    # the seed N sa / (sa + sb) is the stationary point to within one index
    sa, sb = (math.isqrt(x << 2 * N.bit_length())
              for x in (alpha * (alpha - 1), beta * (beta - 1)))
    i = min(max(lo, N * sa // max(1, sa + sb)), max(lo, hi - 1))
    # the peak stays in [left, right]; a probe outside it falls back to the
    # midpoint, so the gallop turns into bisection once the test flips
    left, right, step = lo, hi, 1
    while left < right:
        if not left <= i < right:
            i = (left + right) // 2
        # rho(i+1) > rho(i) by cross-multiplied integers; r cancels
        (a0, b0), (a1, b1) = a_b(i), a_b(i + 1)
        if a1 * b0 > a0 * b1:
            left, i = i + 1, i + step
        else:
            right, i = i, i - step
        step *= 2
    # rho(i) - 1 = (num N^k - den N^(k)) / (den N^(k)) for (num, den) = a_b(i)
    n_k, perm_k = N**k, math.perm(N, k)
    devs = []
    for i, sign in ((lo, -1), (hi, -1), (left, 1)):
        num, den = a_b(i)
        devs.append((sign * (num * n_k - den * perm_k), den * perm_k))
    if lo > bounds.M1 + 1 or hi < bounds.M2:
        devs.append((1, 1))
    return functools.reduce(lambda u, v: v if v[0] * u[1] > u[0] * v[1] else u, devs)


# ---------------------------------------------------------------------------
# full verification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    N: int
    k: int
    alpha: int
    M1: int
    M2: int
    backend: str
    lhs: Value
    rhs: Value
    abs_diff: Value
    lhs_lower: Value
    lhs_mid: Value
    lhs_upper: Value
    rhs_lower: Value
    rhs_mid: Value
    rhs_upper: Value
    eps_mid: Value
    eps_mid_sampled: bool            # always False: eps_mid is certified exactly
    sandwich_bound: Value
    lower_tail_bound: float | None   # N^(-(2*alpha-1)/3), alpha >= 1
    upper_tail_bound: float | None   # N^(-(k-alpha)/2), alpha <= k-1
    pathological: bool
    pathological_label: str | None
    rhs_below_alpha: Value
    rhs_above_support: Value


def verify_approximation(
    source: MixingMeasure | SampleMeanLaw,
    e: PrefixEvent,
    N: int | None = None,
    backend: str = "auto",
) -> VerificationReport:
    """Compute both sides of the approximation and a sound error budget.

    ``source`` is either a mixing measure (then ``N`` is required) or a
    ready count law.  Every source gives the same eight exact values: the
    six region sums (a-side, b-side) x (lower, mid, upper), then the b-side
    mass below alpha and above the support N - k + alpha, where the
    conditional weight is an exact zero.  They are held as integers, the
    three a-side numerators over one denominator and the five b-side ones
    over another.  A law's come from one integer pass over its terms on
    either backend (``_exact_fields``): an exact law's numerators over its
    denominator, a float law's weights as integer multiples of 2^-1074
    (``SampleMeanLaw.terms``), so its eight values are exact too.  A
    measure's come from its exact moment totals and two tail passes, on
    either backend (``_measure_sums``).  ``_report`` assembles every report
    from them, with the budget.
    """
    if isinstance(source, MixingMeasure):
        if N is None:
            raise ValidationError("N is required when verifying from a measure")
        law_n = int(N)
    else:
        law_n = source.N
        if N is not None and int(N) != law_n:
            raise ValidationError(f"law has N={law_n}, got N={N}")
    k = e.k
    if k > law_n:
        raise ValidationError(f"pattern length {k} exceeds N={law_n}")
    bounds = region_bounds(law_n)
    if backend == "auto" and not source.is_exact:
        backend = "log"       # float data cannot run the exact pipeline
    backend = resolve_backend(backend, law_n)
    if backend == "exact" and not source.is_exact:
        raise ValidationError("exact backend requires rational input data (num/den strings)")
    if isinstance(source, MixingMeasure):
        sums = _measure_sums(source, e, law_n, bounds, backend)
    else:
        sums = _exact_fields(*source.terms(), e, law_n, bounds)
    return _report(e, law_n, bounds, backend, sums)


def _report(e, N, bounds, backend, sums) -> VerificationReport:
    """The report from the eight exact values of ``verify_approximation``,
    given as ``sums = (a, a_den, b, b_den)``: the a-side region sums
    a[j] / a_den (lower, mid, upper) and the b-side ones b[j] / b_den
    (lower, mid, upper, below alpha, above the support).

    lhs and rhs are the sums of the a-side and b-side region sums.  The
    mid-window deviation eps_mid (``mid_window_eps``, exact) includes rows
    where the conditional probability is exactly zero (deviation 1), so
    for the true region sums the budget

        eps_mid * rhs_mid + lhs_lower + rhs_lower + lhs_upper + rhs_upper

    dominates |lhs - rhs| by the triangle inequality.  On the exact backend
    every field is its exact value and the domination is an identity.  On
    the log backend every field is the correctly rounded float of its exact
    value, abs_diff is |lhs - rhs| of those floats, and sandwich_bound is
    the budget plus max(0, abs_diff - |lhs - rhs|), exact, rounded up.  So
    if the budget of the eight values falls short of their |lhs - rhs| by
    less than 2^-1074, then sandwich_bound > abs_diff - 2^-1074, and as both
    are floats, abs_diff <= sandwich_bound holds exactly.  A law file has
    that, its eight values being exact, and so does a measure whose atoms
    are all interior (``_measure_sums``): its values move tail mass below
    2^-1074 into the mid sums.  A measure's float per-index tail sums carry
    their rounding into the report, so there the claim holds only up to
    that rounding, which enters its mid sums through the subtraction from
    the exact totals (lhs and rhs stay correctly rounded).

    All of it is integer arithmetic: a float field is a correctly rounded
    int / int division, the budget is one numerator over the product of the
    denominators, and it is rounded up by comparing cross products.  Only an
    exact report builds Fractions, one per field.
    """
    k, alpha = e.k, e.alpha
    a, a_den, b, b_den = sums
    eps, eps_den = _mid_window_eps_ratio(N, k, alpha, bounds)
    lhs, rhs = sum(a), sum(b[:3])
    gap, gap_den = abs(lhs * b_den - rhs * a_den), a_den * b_den   # |lhs - rhs|
    den = eps_den * gap_den
    budget = (eps * b[1] + (b[0] + b[2]) * eps_den) * a_den + (a[0] + a[2]) * eps_den * b_den
    if backend == "exact":
        show, abs_diff, bound = Fraction, Fraction(gap, gap_den), Fraction(budget, den)
        pathological, label = lhs == 0, "exact zero"
        if pathological and rhs != b[3] + b[4]:
            # impossible for nonnegative weights: lhs = 0 forces q_i = 0 at
            # every index with a positive conditional probability
            raise AssertionError("pathological run with interior kernel mass")
    else:
        show = operator.truediv
        abs_diff = abs(lhs / a_den - rhs / b_den)
        f, f_den = abs_diff.as_integer_ratio()
        over = f * gap_den - gap * f_den   # abs_diff - |lhs - rhs|, over f_den gap_den
        if over > 0:
            budget, den = budget * f_den + over * eps_den, den * f_den
        bound = budget / den
        num, num_den = bound.as_integer_ratio()
        if num * den < budget * num_den:
            bound = math.nextafter(bound, math.inf)
        pathological = lhs / a_den < FLOAT_PATHOLOGICAL_TOL
        label = "numerically pathological"
    fields = [show(n, a_den) for n in a] + [show(n, b_den) for n in b]
    return VerificationReport(
        N, k, alpha, bounds.M1, bounds.M2, backend,
        show(lhs, a_den), show(rhs, b_den), abs_diff, *fields[:6],
        show(eps, eps_den), False, bound, *_tail_caps(N, k, alpha),
        pathological, label if pathological else None, *fields[6:],
    )


def _exact_fields(terms, den, e, N, bounds):
    """The eight exact sums of ``verify_approximation`` over the count-law
    terms (i, num), q_i the sum of num / den over the terms at i,
    accumulated as integers in the form ``_report`` reads.

    With falling factorials x^(m) = x (x-1) ... (x-m+1), the conditional
    weight is a_i = C(N-k, i-alpha) / C(N, i) = i^(alpha) (N-i)^(k-alpha) / N^(k),
    which vanishes off the support alpha <= i <= N-k+alpha by itself, and
    b_i = i^alpha (N-i)^(k-alpha) / N^k (``_ratio_terms`` gives both
    numerators).  So every left sum is an integer over den * N^(k) and
    every right sum one over den * N^k: small-integer times numerator
    products, with no bignum binomials and no per-term gcd.
    """
    k, alpha = e.k, e.alpha
    m1, m2 = bounds.M1, bounds.M2
    hi = N - k + alpha  # conditional prefix probability vanishes above

    lhs_num = [0, 0, 0]   # lower, mid, upper over den * N^(k)
    rhs_num = [0] * 5     # lower, mid, upper, below alpha, above hi over den * N^k
    for i, num in terms:
        if num == 0:
            continue
        reg = 0 if i <= m1 else (1 if i <= m2 else 2)
        a, b = _ratio_terms(N, k, alpha, i)
        lhs_num[reg] += a * num
        rhs_num[reg] += b * num
        if i < alpha or i > hi:   # b_i is an edge term: at most k indices
            rhs_num[3 if i < alpha else 4] += b * num
    return lhs_num, den * math.perm(N, k), rhs_num, den * N**k


def _indexed_sums(idx, log_q, e, N, bounds):
    """The eight sums of a measure's tail atoms, given on the ascending tail
    indices ``idx`` by their count law's log q (``_measure_sums``), each
    float64 sum read exactly as an integer over 2^1074: the six region sums,
    then the b-side mass where the conditional weight is an exact zero,
    i < alpha and i > N - k + alpha."""
    k, alpha = e.k, e.alpha
    log_a, log_b = _kernels.scan_log_ab(_kernels.RESIDUALS, N, k, alpha, idx)
    sums = _kernels.pair_region_sums(log_a, log_b, log_q, idx, bounds.M1, bounds.M2)
    below = slice(0, np.searchsorted(idx, alpha))
    above = slice(np.searchsorted(idx, N - k + alpha, side="right"), None)
    edges = [float(np.sum(np.exp(log_b[s] + log_q[s]))) for s in (below, above)]
    nums = [_tiny_multiple(x) for x in (*sums.tolist(), *edges)]
    return nums[:3], 1 << 1074, nums[3:], 1 << 1074


def _measure_sums(mu, e, N, bounds, backend):
    """The eight sums of a measure, by one algorithm on both backends: exact
    totals from its moments, per-index work only in the two tails.

    lhs and rhs are the exact totals of ``model.kernel_mean_ratios`` over
    the measure's first k moments, O(k^2) integer work at any N.  The
    lower, upper and edge sums all lie at i <= lo = max(M1, alpha - 1) or
    at i > hi = min(M2, N - k + alpha), raised to lo where it is below
    (small N, long patterns), so that the two passes cover each index at
    most once.  Each mid sum is its total minus its lower and upper sums,
    over the product of the two denominators.

    * Exact backend: the passes run ``model._law_terms`` upward to lo and
      downward from N, in integers, so no count law of N + 1 numerators is
      built.  One size check, on the bits of those terms and so of the
      report's numbers (``model._law_bits``), refuses a measure past
      EXACT_MEASURE_MAX_BITS before any bignum work.
    * Log backend: an atom whose window (``_kernels._atom_window``: its
      binomial mass outside it is below exp(-800)) lies inside (lo, hi] has
      every tail and edge term below (N + 1) exp(-800) < 2^-1074, so it
      takes no pass; two values of N D decide this
      (``_kernels._window_inside``).  The other atoms take the per-index
      kernels over the tail indices of their windows (``_indexed_sums``),
      whose int64 indices need N < 2^63.  The tails' float rounding enters
      the mid sums through the subtraction; where it would make a mid sum
      negative (all of the mass in the tails), that sum is 0.
    """
    k, alpha = e.k, e.alpha
    lo = max(bounds.M1, alpha - 1)
    hi = max(lo, min(bounds.M2, N - k + alpha))
    if backend == "exact":
        check_index_range(N)
        if (bits := _law_bits(mu, N)) > EXACT_MEASURE_MAX_BITS:
            raise DomainError(f"exact verify at N={N} needs numbers of about {bits:.3g} bits, "
                              f"more than the {EXACT_MEASURE_MAX_BITS} it may take")
        tails = _exact_fields(*_law_terms(mu, N, lo, hi), e, N, bounds)
    else:
        tails = [0] * 3, 1, [0] * 5, 1
        atoms = [(p, w) for p, w in mu.atoms if not _kernels._window_inside(N, float(p), lo, hi)]
        if atoms:
            idx, log_q = _log_mean_law_array(atoms, N)
            keep = (idx <= lo) | (idx > hi)
            tails = _indexed_sums(idx[keep], log_q[keep], e, N, bounds)
    totals = kernel_mean_ratios(level_moments(mu, k), N, k, alpha)
    sums = []
    for nums, den, total, total_den in zip(tails[::2], tails[1::2], totals[::2], totals[1::2]):
        nums = [n * total_den for n in nums]
        nums[1] = max(0, total * den - nums[0] - nums[2])
        sums += [nums, den * total_den]
    return sums
