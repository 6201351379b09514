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
certifies it in O(k log N) from the unimodality of the ratio.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .model import (
    MixingMeasure,
    PrefixEvent,
    SampleMeanLaw,
    ValidationError,
    Value,
    sample_mean_law,
    _log_mean_law_array,
)
from .numerics import (
    LogFactorialTable,
    RegionBounds,
    default_table,
    iid_kernel,
    ratio_factors,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)

EXACT_BACKEND_MAX_N = 2000
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
    """Column-wise result of ``ratio_scan``, one entry per scanned index.

    * ``i``: int64 array of the scanned counts, strictly increasing.
    * ``a``, ``b``: log backend, float64 arrays of natural logs (-inf for
      an exact zero); exact backend, tuples of Fractions.
    * ``ratio``: log backend, a float64 array with NaN where the ratio is
      absent; exact backend, a tuple of Fractions with None where absent.
    * ``region``: int8 array of codes into ``REGION_NAMES``
      (0 lower, 1 mid, 2 upper).

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


def scan_indices(N: int, bounds: RegionBounds, stride: int) -> np.ndarray:
    """Strided index set over 0..N with the region edges always included."""
    idx = np.arange(0, N + 1, stride, dtype=np.int64)
    if stride == 1:
        return idx
    forced = np.unique(np.array(
        [0, bounds.M1, bounds.M1 + 1, bounds.M2, min(bounds.M2 + 1, N), N],
        dtype=np.int64,
    ))
    forced = forced[forced % stride != 0]   # the rest are already in idx
    return np.insert(idx, np.searchsorted(idx, forced), forced)


def ratio_scan(
    N: int,
    k: int,
    alpha: int,
    stride: int = 1,
    backend: str = "auto",
    table: LogFactorialTable | None = None,
) -> RatioScan:
    """Per-index scan of the two kernels and their ratio over 0..N.

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
    if not (0 <= alpha <= k <= N):
        raise ValidationError(f"invalid (N, k, alpha) = ({N}, {k}, {alpha})")
    if k < 1:
        raise ValidationError("pattern length must be at least 1")
    if stride < 1:
        raise ValidationError("stride must be at least 1")
    bounds = region_bounds(N)
    backend = resolve_backend(backend, N)
    idx = scan_indices(N, bounds, stride)
    region = (idx > bounds.M1).astype(np.int8)
    region += idx > bounds.M2
    if backend == "exact":
        a, b, ratio, eps_mid, r = _scan_exact(N, k, alpha, idx, region)
    else:
        a, b, ratio, eps_mid, r = _scan_log(N, k, alpha, idx, region, table)
    return RatioScan(
        N=N,
        k=k,
        alpha=alpha,
        bounds=bounds,
        i=idx,
        a=a,
        b=b,
        ratio=ratio,
        region=region,
        r=r,
        eps_mid=eps_mid,
        stride=stride,
        sampled=stride > 1,
        backend=backend,
    )


def _scan_exact(N, k, alpha, idx, region):
    # a_i and b_i in the falling-factorial form of ``_exact_fields``
    r = replacement_correction(N, k)
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
    return tuple(a_col), tuple(b_col), tuple(ratio_col), eps_mid, r


def _scan_log(N, k, alpha, idx, region, table):
    t = table or default_table()
    if k > _kernels.PRODUCT_SCAN_MAX_K:   # only the table form of log a_i reads delta
        t.ensure(N)
    log_a, log_b = _kernels.scan_log_ab(t.delta, N, k, alpha, idx)
    r = replacement_correction_float(N, k)
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
    # math.exp, not np.exp: the two differ in the last ulp on some inputs,
    # and the CSV prints every digit
    ratio[finite] = np.fromiter(
        map(math.exp, log_ratio.tolist()), dtype=np.float64, count=log_ratio.size
    )
    mid_dev = np.abs(ratio[present & (region == 1)] - 1.0)
    eps_mid = float(mid_dev.max()) if mid_dev.size else 0.0
    return log_a, log_b, ratio, eps_mid, r


# ---------------------------------------------------------------------------
# sandwich bound
# ---------------------------------------------------------------------------

def sandwich_bound(
    terms_a: Sequence[Value], terms_b: Sequence[Value], eps: Value
) -> tuple[Value, Value]:
    """Certified two-sided bound (1-eps) sum(b) <= sum(a) <= (1+eps) sum(b).

    Checks the premises term by term: everything nonnegative, a_j = 0
    wherever b_j = 0, and |a_j/b_j - 1| <= eps elsewhere; raises on any
    violation, returns the (lower, upper) bound for sum(a).
    """
    if len(terms_a) != len(terms_b):
        raise ValidationError("term vectors must have equal length")
    if eps < 0:
        raise ValidationError("eps must be nonnegative")
    exact = all(
        isinstance(x, (Fraction, int)) for x in (*terms_a, *terms_b, eps)
    )
    # float inputs get an ulp-scale slack so representable-boundary cases
    # like |1.01/1.0 - 1| <= 0.01 certify; exact inputs are compared exactly
    slack = 0 if exact else eps * 1e-12 + 1e-15
    for j, (a, b) in enumerate(zip(terms_a, terms_b)):
        if a < 0 or b < 0:
            raise ValidationError(f"negative term at position {j}")
        if b == 0:
            if a != 0:
                raise ValidationError(
                    f"term {j}: a={a} nonzero where b=0, ratio unbounded"
                )
        elif abs(a / b - 1) > eps + slack:
            raise ValidationError(
                f"term {j}: ratio {a / b} deviates more than eps={eps}"
            )
    total_b = sum(terms_b)
    return (1 - eps) * total_b, (1 + eps) * total_b


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


def tail_bounds_check(N: int, k: int, alpha: int) -> TailBounds:
    """Verify both tail estimates exactly; inapplicable sides report None."""
    if not (0 <= alpha <= k <= N):
        raise ValidationError(f"invalid (N, k, alpha) = ({N}, {k}, {alpha})")
    if k < 1:
        raise ValidationError("pattern length must be at least 1")
    b = region_bounds(N)
    lower_applicable = alpha >= 1
    upper_applicable = alpha <= k - 1

    lower_sum = lower_chain_mid = lower_cap = lower_ok = None
    if lower_applicable:
        lower_sum = sum(
            (iid_kernel(N, k, alpha, i) for i in range(b.M1 + 1)), Fraction(0)
        )
        lower_chain_mid = Fraction(b.M1 ** (1 + alpha), N**alpha)
        lower_cap = float(N) ** (-(2 * alpha - 1) / 3)
        # sum <= N^(-(2a-1)/3)  <=>  sum^3 * N^(2a-1) <= 1, exactly
        chain_first = lower_sum <= lower_chain_mid
        chain_second = lower_chain_mid**3 * N ** (2 * alpha - 1) <= 1
        cap_ok = lower_sum**3 * N ** (2 * alpha - 1) <= 1
        lower_ok = bool(chain_first and cap_ok)
        if chain_first and chain_second and not cap_ok:
            raise AssertionError("inconsistent tail chain")  # unreachable
    upper_max = upper_cap = upper_ok = None
    if upper_applicable:
        upper_max = max(
            (iid_kernel(N, k, alpha, i) for i in range(b.M2 + 1, N + 1)),
            default=Fraction(0),
        )
        upper_cap = float(N) ** (-(k - alpha) / 2)
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

def mid_window_eps(N: int, k: int, alpha: int, bounds: RegionBounds) -> Fraction:
    """Exact max |a_i / b_i - 1| over the mid window M1 < i <= M2.

    a_i = C(N-k, i-alpha) / C(N, i) is the conditional prefix probability
    and b_i = (i/N)^alpha (1-i/N)^(k-alpha) the iid kernel.  The maximum is
    certified from O(log N) ratio evaluations of O(k) small Fractions each:

    * b_i > 0 on the whole window, because 2 <= M1 < M2 < N for N >= 8.
    * Off the support alpha <= i <= N-k+alpha, a_i = 0, so the deviation
      there is exactly 1.
    * On the support, rho(i) = a_i / b_i = falling(i) * edge(i) * r with
      log falling = sum_{m<alpha} log(1 - m/i) and
      log edge = sum_{0<j<k-alpha} log(1 - j/(N-i)).  Every term is concave
      in i and every factor is positive there, so log rho is concave and
      rho is unimodal: rho(i+1) > rho(i) holds on a prefix of the support.
    * Hence over [lo, hi], the window inside the support,
      eps = max(1 - rho(lo), 1 - rho(hi), rho(peak) - 1), and integer
      bisection on rho(i+1) > rho(i) finds the peak.
    """
    lo = max(bounds.M1 + 1, alpha)
    hi = min(bounds.M2, N - k + alpha)
    if lo > hi:
        return Fraction(1)

    def rho(i: int) -> Fraction:
        return ratio_factors(N, k, alpha, i).product()

    left, right = lo, hi
    while left < right:
        mid = (left + right) // 2
        if rho(mid + 1) > rho(mid):
            left = mid + 1
        else:
            right = mid
    eps = max(1 - rho(lo), 1 - rho(hi), rho(left) - 1)
    if lo > bounds.M1 + 1 or hi < bounds.M2:
        eps = max(eps, Fraction(1))
    return eps


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
    table: LogFactorialTable | None = None,
) -> VerificationReport:
    """Compute both sides of the approximation and a sound error budget.

    ``source`` is either a mixing measure (then ``N`` is required) or a
    ready count law.  The mid-window deviation eps_mid here includes rows
    where the conditional probability is exactly zero (deviation 1), so the
    reported bound

        eps_mid * rhs_mid + lhs_lower + rhs_lower + lhs_upper + rhs_upper

    dominates |lhs - rhs| by the triangle inequality.  eps_mid comes from
    ``mid_window_eps`` in both backends (the log report carries its
    correctly rounded float), so ``eps_mid_sampled`` is always false.  In
    the exact backend every report field is a Fraction and the domination
    is an identity, not a float statement.
    """
    if isinstance(source, MixingMeasure):
        if N is None:
            raise ValidationError("N is required when verifying from a measure")
        law_n = int(N)
    else:
        law_n = source.N
        if N is not None and int(N) != law_n:
            raise ValidationError(f"law has N={law_n}, got N={N}")
    k, alpha = e.k, e.alpha
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
        return _verify_exact(source, e, law_n, bounds)
    return _verify_log(source, e, law_n, bounds, table)


def _verify_exact(source, e, N, bounds) -> VerificationReport:
    law = sample_mean_law(source, N) if isinstance(source, MixingMeasure) else source
    parts, rhs_below_alpha, rhs_above_support = _exact_fields(law, e, N, bounds)
    k, alpha = e.k, e.alpha
    eps_mid = mid_window_eps(N, k, alpha, bounds)
    lhs = parts[("a", "lower")] + parts[("a", "mid")] + parts[("a", "upper")]
    rhs = parts[("b", "lower")] + parts[("b", "mid")] + parts[("b", "upper")]
    abs_diff = abs(lhs - rhs)
    budget = (
        eps_mid * parts[("b", "mid")]
        + parts[("a", "lower")]
        + parts[("b", "lower")]
        + parts[("a", "upper")]
        + parts[("b", "upper")]
    )
    pathological = lhs == 0
    if pathological and rhs != rhs_below_alpha + rhs_above_support:
        # impossible for nonnegative weights: lhs = 0 forces q_i = 0 at
        # every index with a positive conditional probability
        raise AssertionError("pathological run with interior kernel mass")
    return VerificationReport(
        N=N,
        k=k,
        alpha=alpha,
        M1=bounds.M1,
        M2=bounds.M2,
        backend="exact",
        lhs=lhs,
        rhs=rhs,
        abs_diff=abs_diff,
        lhs_lower=parts[("a", "lower")],
        lhs_mid=parts[("a", "mid")],
        lhs_upper=parts[("a", "upper")],
        rhs_lower=parts[("b", "lower")],
        rhs_mid=parts[("b", "mid")],
        rhs_upper=parts[("b", "upper")],
        eps_mid=eps_mid,
        eps_mid_sampled=False,
        sandwich_bound=budget,
        lower_tail_bound=_lower_tail_bound(N, alpha),
        upper_tail_bound=_upper_tail_bound(N, k, alpha),
        pathological=pathological,
        pathological_label="exact zero" if pathological else None,
        rhs_below_alpha=rhs_below_alpha,
        rhs_above_support=rhs_above_support,
    )


def _integer_weights(law: SampleMeanLaw) -> tuple[Sequence[int], int]:
    """The law as integer numerators over one common denominator.

    Laws built from a measure carry this form; for any other exact law the
    denominator is the lcm of the weights' denominators.
    """
    form = law.integer_form()
    if form is not None:
        return form
    q = [Fraction(x) for x in law.weights]
    den = math.lcm(*(x.denominator for x in q))
    return [x.numerator * (den // x.denominator) for x in q], den


def _exact_fields(law, e, N, bounds):
    """Exact region sums of both sides, accumulated as integers.

    With q_i = nums[i] / den and falling factorials x^(m) = x (x-1) ... (x-m+1),
    the conditional weight is a_i = C(N-k, i-alpha) / C(N, i)
    = i^(alpha) (N-i)^(k-alpha) / N^(k), which vanishes off the support
    alpha <= i <= N-k+alpha by itself, and b_i = i^alpha (N-i)^(k-alpha) / N^k.
    So every left sum is an integer over den * N^(k) and every right sum
    one over den * N^k: one pass of small-integer times numerator products,
    with no bignum binomials and no per-term gcd.
    """
    k, alpha = e.k, e.alpha
    nums, den = _integer_weights(law)
    m1, m2 = bounds.M1, bounds.M2
    hi = N - k + alpha  # conditional prefix probability vanishes above

    lhs_num = [0, 0, 0]   # lower, mid, upper over den * N^(k)
    rhs_num = [0, 0, 0]   # over den * N^k
    below_num = 0
    above_num = 0
    for i, num in enumerate(nums):
        if num == 0:
            continue
        reg = 0 if i <= m1 else (1 if i <= m2 else 2)
        lhs_num[reg] += math.perm(i, alpha) * math.perm(N - i, k - alpha) * num
        rhs_term = i**alpha * (N - i) ** (k - alpha) * num
        rhs_num[reg] += rhs_term
        if i < alpha:
            below_num += rhs_term
        elif i > hi:
            above_num += rhs_term
    lhs_den = den * math.perm(N, k)
    rhs_den = den * N**k
    parts = {("a", name): Fraction(n, lhs_den) for name, n in zip(REGION_NAMES, lhs_num)}
    parts.update(
        {("b", name): Fraction(n, rhs_den) for name, n in zip(REGION_NAMES, rhs_num)}
    )
    return parts, Fraction(below_num, rhs_den), Fraction(above_num, rhs_den)


def _verify_log(source, e, N, bounds, table) -> VerificationReport:
    k, alpha = e.k, e.alpha
    t = table or default_table()
    t.ensure(N)
    # the law on its support: every index left out has q_i = 0 in float64
    if isinstance(source, MixingMeasure):
        idx, log_q = _log_mean_law_array(source, N, t)
    else:
        # int / int rounds correctly, so it equals float() of the reduced Fraction
        form = source.integer_form()
        values = [n / form[1] for n in form[0]] if form else source.weights
        weights = np.array([float(x) for x in values], dtype=np.float64)
        idx = np.flatnonzero(weights)
        log_q = np.log(weights[idx])
    log_a, log_b = _kernels.scan_log_ab(t.delta, N, k, alpha, idx)
    sums = _kernels.pair_region_sums(log_a, log_b, log_q, idx, bounds.M1, bounds.M2)
    lhs_lower, lhs_mid, lhs_upper, rhs_lower, rhs_mid, rhs_upper = map(float, sums)
    lhs = math.fsum((lhs_lower, lhs_mid, lhs_upper))
    rhs = math.fsum((rhs_lower, rhs_mid, rhs_upper))
    eps_mid = float(mid_window_eps(N, k, alpha, bounds))
    # b-side mass where the conditional weight is an exact zero:
    # i < alpha and i > N - k + alpha
    below = slice(0, np.searchsorted(idx, alpha))
    above = slice(np.searchsorted(idx, N - k + alpha, side="right"), None)
    rhs_below_alpha = float(np.sum(np.exp(log_b[below] + log_q[below])))
    rhs_above_support = float(np.sum(np.exp(log_b[above] + log_q[above])))
    pathological = lhs < FLOAT_PATHOLOGICAL_TOL
    budget = eps_mid * rhs_mid + lhs_lower + rhs_lower + lhs_upper + rhs_upper
    return VerificationReport(
        N=N,
        k=k,
        alpha=alpha,
        M1=bounds.M1,
        M2=bounds.M2,
        backend="log",
        lhs=lhs,
        rhs=rhs,
        abs_diff=abs(lhs - rhs),
        lhs_lower=lhs_lower,
        lhs_mid=lhs_mid,
        lhs_upper=lhs_upper,
        rhs_lower=rhs_lower,
        rhs_mid=rhs_mid,
        rhs_upper=rhs_upper,
        eps_mid=eps_mid,
        eps_mid_sampled=False,
        sandwich_bound=budget,
        lower_tail_bound=_lower_tail_bound(N, alpha),
        upper_tail_bound=_upper_tail_bound(N, k, alpha),
        pathological=pathological,
        pathological_label="numerically pathological" if pathological else None,
        rhs_below_alpha=rhs_below_alpha,
        rhs_above_support=rhs_above_support,
    )


def _lower_tail_bound(N: int, alpha: int) -> float | None:
    return float(N) ** (-(2 * alpha - 1) / 3) if alpha >= 1 else None


def _upper_tail_bound(N: int, k: int, alpha: int) -> float | None:
    return float(N) ** (-(k - alpha) / 2) if alpha <= k - 1 else None
