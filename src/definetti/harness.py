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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    conditional_prefix_prob,
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

@dataclass(frozen=True)
class ScanRow:
    i: int
    a: Value          # log backend: natural log, -inf for exact zero
    b: Value
    ratio: Value | None
    region: str


@dataclass(frozen=True)
class RatioScan:
    N: int
    k: int
    alpha: int
    bounds: RegionBounds
    rows: tuple[ScanRow, ...]
    r: Value
    eps_mid: Value
    stride: int
    sampled: bool
    backend: str

    @property
    def log_columns(self) -> bool:
        return self.backend == "log"


def scan_indices(N: int, bounds: RegionBounds, stride: int) -> np.ndarray:
    """Strided index set over 0..N with the region edges always included."""
    idx = np.arange(0, N + 1, stride, dtype=np.int64)
    forced = np.array(
        [0, bounds.M1, bounds.M1 + 1, bounds.M2, min(bounds.M2 + 1, N), N],
        dtype=np.int64,
    )
    return np.unique(np.concatenate([idx, forced]))


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
    rounding in the log one).
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
    if backend == "exact":
        rows, eps_mid, r = _scan_exact(N, k, alpha, bounds, idx)
    else:
        rows, eps_mid, r = _scan_log(N, k, alpha, bounds, idx, table)
    return RatioScan(
        N=N,
        k=k,
        alpha=alpha,
        bounds=bounds,
        rows=tuple(rows),
        r=r,
        eps_mid=eps_mid,
        stride=stride,
        sampled=stride > 1,
        backend=backend,
    )


def _scan_exact(N, k, alpha, bounds, idx):
    r = replacement_correction(N, k)
    rows = []
    eps_mid = Fraction(0)
    for i in map(int, idx):
        a = conditional_prefix_prob(N, k, alpha, i)
        b = iid_kernel(N, k, alpha, i)
        region = bounds.region_of(i)
        ratio = None
        if b != 0 and not (a == 0 and i < alpha):
            ratio = a / b
            if ratio > r:
                raise AssertionError(
                    f"ratio bound violated at i={i}: {ratio} > {r}"
                )
            if region == "mid":
                eps_mid = max(eps_mid, abs(ratio - 1))
        rows.append(ScanRow(i=i, a=a, b=b, ratio=ratio, region=region))
    return rows, eps_mid, r


def _scan_log(N, k, alpha, bounds, idx, table):
    t = table or default_table()
    t.ensure(N)
    log_a, log_b = _kernels.scan_log_ab(t.delta, N, k, alpha, idx)
    r = replacement_correction_float(N, k)
    log_r = math.log(r)
    rows = []
    eps_mid = 0.0
    # float slack for the row-wise ratio bound; the bound is exact math,
    # only the evaluation rounds
    slack = 1e-9
    for t_pos, i in enumerate(map(int, idx)):
        la = float(log_a[t_pos])
        lb = float(log_b[t_pos])
        region = bounds.region_of(i)
        ratio = None
        if lb != _kernels.NEG_INF and not (la == _kernels.NEG_INF and i < alpha):
            if la == _kernels.NEG_INF:
                ratio = 0.0
            else:
                if la - lb > log_r + slack:
                    raise AssertionError(
                        f"ratio bound violated at i={i}: log ratio {la - lb} > log r {log_r}"
                    )
                ratio = math.exp(la - lb)
            if region == "mid":
                eps_mid = max(eps_mid, abs(ratio - 1.0))
        rows.append(ScanRow(i=i, a=la, b=lb, ratio=ratio, region=region))
    return rows, eps_mid, r


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
    if law.class_numerators() is not None:
        fields = _exact_fields_integer(law, e, N, bounds)
    else:
        fields = _exact_fields_fractions(law, e, N, bounds)
    parts, rhs_below_alpha, rhs_above_support = fields
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


def _exact_fields_fractions(law, e, N, bounds):
    """Reference exact accumulation, Fraction per term (small N only)."""
    k, alpha = e.k, e.alpha
    q = law.weights
    zero = Fraction(0)
    parts = {("a", r): zero for r in ("lower", "mid", "upper")}
    parts.update({("b", r): zero for r in ("lower", "mid", "upper")})
    rhs_below_alpha = zero
    rhs_above_support = zero
    for i in range(N + 1):
        qi = q[i]
        if qi == 0:
            continue
        region = bounds.region_of(i)
        b = iid_kernel(N, k, alpha, i)
        a = conditional_prefix_prob(N, k, alpha, i)
        parts[("a", region)] += a * qi
        parts[("b", region)] += b * qi
        if i < alpha:
            rhs_below_alpha += b * qi
        if i - alpha > N - k:
            rhs_above_support += b * qi
    return parts, rhs_below_alpha, rhs_above_support


def _exact_fields_integer(law, e, N, bounds):
    """Integer accumulation over the law's common denominator.

    The left sums telescope to C(N-k, i-alpha) * m_i / D where m_i is the
    per-count-class word weight; the right sums live over D * N^k.  One
    pass carries C(N-k, i-alpha) by its multiplicative recurrence.
    """
    k, alpha = e.k, e.alpha
    class_nums, den = law.class_numerators()
    nums, _ = law.integer_form()
    m1, m2 = bounds.M1, bounds.M2
    n_pow_k = N**k
    hi = N - k + alpha  # conditional prefix probability vanishes above

    lhs_num = [0, 0, 0]   # lower, mid, upper over denominator den
    rhs_num = [0, 0, 0]   # over denominator den * N^k
    below_num = 0
    above_num = 0
    choose_a = 1              # C(N-k, i-alpha), valid on [alpha, hi]
    for i in range(N + 1):
        reg = 0 if i <= m1 else (1 if i <= m2 else 2)
        rhs_term = i**alpha * (N - i) ** (k - alpha) * nums[i]
        rhs_num[reg] += rhs_term
        if i < alpha:
            below_num += rhs_term
        elif i > hi:
            above_num += rhs_term
        else:
            lhs_num[reg] += choose_a * class_nums[i]
            if i < hi:
                j = i - alpha
                choose_a = choose_a * (N - k - j) // (j + 1)
    parts = {
        ("a", "lower"): Fraction(lhs_num[0], den),
        ("a", "mid"): Fraction(lhs_num[1], den),
        ("a", "upper"): Fraction(lhs_num[2], den),
        ("b", "lower"): Fraction(rhs_num[0], den * n_pow_k),
        ("b", "mid"): Fraction(rhs_num[1], den * n_pow_k),
        ("b", "upper"): Fraction(rhs_num[2], den * n_pow_k),
    }
    return (
        parts,
        Fraction(below_num, den * n_pow_k),
        Fraction(above_num, den * n_pow_k),
    )


def _verify_log(source, e, N, bounds, table) -> VerificationReport:
    k, alpha = e.k, e.alpha
    t = table or default_table()
    t.ensure(N)
    if isinstance(source, MixingMeasure):
        log_q = _log_mean_law_array(source, N, t)
    else:
        weights = np.array([float(x) for x in source.weights], dtype=np.float64)
        with np.errstate(divide="ignore"):
            log_q = np.log(weights)
    idx = np.arange(N + 1, dtype=np.int64)
    log_a, log_b = _kernels.scan_log_ab(t.delta, N, k, alpha, idx)
    sums = _kernels.pair_region_sums(log_a, log_b, log_q, idx, bounds.M1, bounds.M2)
    lhs_lower, lhs_mid, lhs_upper, rhs_lower, rhs_mid, rhs_upper = map(float, sums)
    lhs = math.fsum((lhs_lower, lhs_mid, lhs_upper))
    rhs = math.fsum((rhs_lower, rhs_mid, rhs_upper))
    eps_mid = float(mid_window_eps(N, k, alpha, bounds))
    # b-side mass where the conditional weight is an exact zero:
    # i < alpha and i > N - k + alpha (positions equal indices here)
    below = slice(0, alpha)
    above = slice(N - k + alpha + 1, N + 1)
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
