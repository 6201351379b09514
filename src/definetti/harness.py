"""Finite-N verifier for the mixture approximation of prefix probabilities.

For a count law q and a prefix pattern (k, alpha) it computes

    lhs = sum_i P(prefix | count=i) q_i      (the exchangeable value)
    rhs = sum_i (i/N)^alpha (1-i/N)^(k-alpha) q_i   (the iid-kernel value)

splits both sums into lower tail (i <= M1), mid window (M1 < i <= M2) and
upper tail (i > M2), and assembles a sound bound for |lhs - rhs| from the
max ratio deviation in the mid window plus the four tail partial sums.
The sums are exact rationals for N <= 2000 (or on request) and log-space
float64 above.  The mid-window deviation does not depend on the law, and
both backends take it from one exact function, ``mid_window_eps``, which
certifies it from the unimodality of the ratio in a few O(k) evaluations.

Every source and backend reduces to the same eight exact values (six
region sums and two edge masses), held as integer numerators over two
denominators, and one function, ``_report``, turns them into a
``VerificationReport`` in integer arithmetic: exact on the exact backend,
each field correctly rounded and the budget rounded up on the log backend.
There, a measure's atoms whose windows (``_kernels._atom_window``) lie
inside the mid window add nothing to the tails in float64, so their exact
totals from moments are their mid sums (``_kernels._window_inside`` decides
which); only the other atoms take the per-index kernels
(``_measure_log_sums``), whose int64 indices need N < 2^63.
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
    sample_mean_law,
    _log_mean_law_array,
)
from .numerics import (
    RegionBounds,
    check_index_range,
    iid_kernel,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)

EXACT_BACKEND_MAX_N = 2000
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
        a = Fraction(math.perm(i, alpha) * math.perm(N - i, k - alpha), a_den)
        b = Fraction(i**alpha * (N - i) ** (k - alpha), b_den)
        ratio = None
        if b != 0 and not (a == 0 and i < alpha):
            ratio = a / b
            if ratio > r:
                raise AssertionError(
                    f"ratio bound violated at i={i}: {ratio} > {r}"
                )
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
    lower_sum = lower_chain_mid = lower_ok = None
    if lower_applicable:
        lower_sum = sum(
            (iid_kernel(N, k, alpha, i) for i in range(b.M1 + 1)), Fraction(0)
        )
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
        upper_max = max(
            (iid_kernel(N, k, alpha, i) for i in range(b.M2 + 1, N + 1)),
            default=Fraction(0),
        )
        # max <= N^(-(k-a)/2)  <=>  max^2 * N^(k-a) <= 1, exactly
        upper_ok = bool(upper_max**2 * N ** (k - alpha) <= 1)
    return TailBounds(
        N=N,
        k=k,
        alpha=alpha,
        bounds=b,
        lower_applicable=lower_applicable,
        lower_sum=lower_sum,
        lower_chain_mid=lower_chain_mid,
        lower_cap=lower_cap,
        lower_ok=lower_ok,
        upper_applicable=upper_applicable,
        upper_max=upper_max,
        upper_cap=upper_cap,
        upper_ok=upper_ok,
    )


# ---------------------------------------------------------------------------
# certified mid-window deviation
# ---------------------------------------------------------------------------

def _ratio_terms(N: int, k: int, alpha: int, i: int) -> tuple[int, int]:
    """(num, den) with a_i / b_i = r num / den, both positive on the support."""
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
      log edge = sum_{0<j<k-alpha} log(1 - j/(N-i)).  Every term is concave
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
    over another.  On the exact backend they come from the law's integer
    numerators (``_exact_fields``); on the log backend from float64 sums,
    each an integer multiple of 2^-1074 (``_indexed_sums``), plus exact
    moment totals for a measure's interior atoms (``_measure_log_sums``).
    ``_report`` assembles every report from them, with the budget.
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
    if backend == "exact":
        if not source.is_exact:
            raise ValidationError(
                "exact backend requires rational input data (num/den strings)"
            )
        law = sample_mean_law(source, law_n) if isinstance(source, MixingMeasure) else source
        sums = _exact_fields(law, e, law_n, bounds)
    elif isinstance(source, MixingMeasure):
        sums = _measure_log_sums(source, e, law_n, bounds)
    else:
        # int / int rounds correctly, so it equals float() of the reduced Fraction
        form = source.integer_form()
        values = [n / form[1] for n in form[0]] if form else source.weights
        weights = np.array(values, dtype=np.float64)
        idx = np.flatnonzero(weights)   # the law on its float64 support
        sums = _indexed_sums(idx, np.log(weights[idx]), e, law_n, bounds)
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
    are floats, abs_diff <= sandwich_bound holds exactly.  A measure whose
    atoms are all interior (``_measure_log_sums``) has that: its values
    move tail mass below 2^-1074 into the mid sums.  Float per-index sums
    (atoms near an end, law files) carry their rounding into the mid sums,
    so there the claim holds only up to that rounding.

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


def _exact_fields(law, e, N, bounds):
    """The eight exact sums of ``verify_approximation``, accumulated as
    integers, in the form ``_report`` reads.

    With q_i = nums[i] / den and falling factorials x^(m) = x (x-1) ... (x-m+1),
    the conditional weight is a_i = C(N-k, i-alpha) / C(N, i)
    = i^(alpha) (N-i)^(k-alpha) / N^(k), which vanishes off the support
    alpha <= i <= N-k+alpha by itself, and b_i = i^alpha (N-i)^(k-alpha) / N^k.
    So every left sum is an integer over den * N^(k) and every right sum
    one over den * N^k: one pass of small-integer times numerator products,
    with no bignum binomials and no per-term gcd.
    """
    k, alpha = e.k, e.alpha
    nums, den = law.integer_form()
    m1, m2 = bounds.M1, bounds.M2
    hi = N - k + alpha  # conditional prefix probability vanishes above

    lhs_num = [0, 0, 0]   # lower, mid, upper over den * N^(k)
    rhs_num = [0] * 5     # lower, mid, upper, below alpha, above hi over den * N^k
    for i, num in enumerate(nums):
        if num == 0:
            continue
        reg = 0 if i <= m1 else (1 if i <= m2 else 2)
        lhs_num[reg] += math.perm(i, alpha) * math.perm(N - i, k - alpha) * num
        rhs_term = i**alpha * (N - i) ** (k - alpha) * num
        rhs_num[reg] += rhs_term
        if i < alpha:
            rhs_num[3] += rhs_term
        elif i > hi:
            rhs_num[4] += rhs_term
    return lhs_num, den * math.perm(N, k), rhs_num, den * N**k


def _tiny_multiple(x: float) -> int:
    """x as an integer multiple of 2^-1074, which every finite float is."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _indexed_sums(idx, log_q, e, N, bounds):
    """The eight sums of a law given on the ascending indices ``idx`` by
    log q, each float64 sum read exactly as an integer over 2^1074: the six
    region sums, then the b-side mass where the conditional weight is an
    exact zero, i < alpha and i > N - k + alpha."""
    k, alpha = e.k, e.alpha
    log_a, log_b = _kernels.scan_log_ab(_kernels.RESIDUALS, N, k, alpha, idx)
    sums = _kernels.pair_region_sums(log_a, log_b, log_q, idx, bounds.M1, bounds.M2)
    below = slice(0, np.searchsorted(idx, alpha))
    above = slice(np.searchsorted(idx, N - k + alpha, side="right"), None)
    edges = [float(np.sum(np.exp(log_b[s] + log_q[s]))) for s in (below, above)]
    nums = [_tiny_multiple(x) for x in (*sums.tolist(), *edges)]
    return nums[:3], 1 << 1074, nums[3:], 1 << 1074


def _plus_mid(nums, den, mid, mid_den):
    """Region sums nums / den with mid / mid_den added to the mid one."""
    out = [n * mid_den for n in nums]
    out[1] += mid * den
    return out, den * mid_den


def _measure_log_sums(mu, e, N, bounds):
    """The eight sums of a measure on the log backend, exact where they can be.

    An atom whose window (``_kernels._atom_window``: its binomial mass
    outside it is below exp(-800)) lies inside the mid window (M1, M2] and
    inside the support alpha <= i <= N - k + alpha has every tail and edge
    sum below (N + 1) exp(-800) < 2^-1074, so it adds its exact closed form
    (``model.kernel_mean_ratios``) to the mid sums and nothing elsewhere;
    two values of N D decide this (``_kernels._window_inside``).  Only the
    other atoms take the per-index pass, whose int64 indices need
    N < 2^63; the sums are linear in the atoms.
    """
    k, alpha = e.k, e.alpha
    lo_edge = max(bounds.M1, alpha - 1)          # a window must start above
    hi_edge = min(bounds.M2, N - k + alpha)      # and end at or below
    interior, tail = [], []
    for p, w in mu.atoms:
        inside = _kernels._window_inside(N, float(p), lo_edge, hi_edge)
        (interior if inside else tail).append((p, w))
    a, a_den, b, b_den = [0] * 3, 1, [0] * 5, 1
    if tail:
        a, a_den, b, b_den = _indexed_sums(*_log_mean_law_array(tail, N), e, N, bounds)
    if interior:
        lhs, lhs_den, rhs, rhs_den = kernel_mean_ratios(level_moments(interior, k), N, k, alpha)
        a, a_den = _plus_mid(a, a_den, lhs, lhs_den)
        b, b_den = _plus_mid(b, b_den, rhs, rhs_den)
    return a, a_den, b, b_den
