"""Exact and log-space combinatorial primitives.

Two backends share one set of formulas.  The exact backend works in
``fractions.Fraction`` (always reduced, positive denominator) and is the
ground truth for every probability this package reports.  The log-space
backend carries natural logs in float64 with ``-inf`` as the exact-zero
marker and scales to counts around 1e7 where the exact path is hopeless.

Core quantities, for a 0/1 prefix pattern of length k with alpha ones out of
a sequence of length N:

* ``conditional_prefix_prob``   P(prefix | total count = i)
                                = C(N-k, i-alpha) / C(N, i)
* ``iid_kernel``                (i/N)^alpha (1-i/N)^(k-alpha), the Bernoulli
                                product kernel at the empirical mean
* ``replacement_correction``    N^k / (N (N-1) ... (N-k+1)) >= 1, the
                                with/without-replacement correction
* ``ratio_factors``             exact three-factor decomposition of the
                                quotient of the two, bounded above by the
                                correction constant
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels

DEFAULT_TABLE_CAP = 10_000_000
_MIN_TABLE_CAP = 1024


class DomainError(ValueError):
    """Arguments outside the domain where a quantity is defined."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogSpaceValue:
    """A nonnegative quantity stored as its natural log; -inf marks exact zero."""

    log: float

    @classmethod
    def zero(cls) -> "LogSpaceValue":
        return cls(_kernels.NEG_INF)

    @classmethod
    def from_value(cls, x: float) -> "LogSpaceValue":
        if x < 0:
            raise DomainError("log-space values are nonnegative")
        return cls(math.log(x)) if x > 0 else cls.zero()

    @property
    def is_zero(self) -> bool:
        return self.log == _kernels.NEG_INF

    @property
    def value(self) -> float:
        return 0.0 if self.is_zero else math.exp(self.log)

    def __mul__(self, other: "LogSpaceValue") -> "LogSpaceValue":
        if self.is_zero or other.is_zero:
            return LogSpaceValue.zero()
        return LogSpaceValue(self.log + other.log)

    def __truediv__(self, other: "LogSpaceValue") -> "LogSpaceValue":
        if other.is_zero:
            raise ZeroDivisionError("division by log-space zero")
        if self.is_zero:
            return LogSpaceValue.zero()
        return LogSpaceValue(self.log - other.log)


@dataclass(frozen=True)
class RegionBounds:
    """Cut indices splitting 0..N into lower tail, mid window, upper tail.

    M1 = floor(N^(1/3)) and M2 = floor(N - sqrt(N)) + 1; the mid window is
    (M1, M2].  Both are integer-exact (no float cube/square roots).
    """

    N: int
    M1: int
    M2: int

    def region_of(self, i: int) -> str:
        if i <= self.M1:
            return "lower"
        return "mid" if i <= self.M2 else "upper"


@dataclass(frozen=True)
class RatioFactors:
    """Decomposition of conditional-prefix / iid-kernel into three factors.

    ``falling`` is i! / ((i-alpha)! i^alpha), ``edge`` the product of
    (1 - j/(N-i)) for j = 1..k-alpha-1, ``correction`` the replacement
    correction; their product is the exact quotient and never exceeds
    ``correction``.
    """

    falling: Fraction | float
    edge: Fraction | float
    correction: Fraction | float

    def product(self):
        return self.falling * self.edge * self.correction


# ---------------------------------------------------------------------------
# log-factorial table
# ---------------------------------------------------------------------------

class LogFactorialTable:
    """Cached log-factorials up to a cap, stored as Stirling residuals.

    The cache is grown lazily (powers of two) up to ``cap``; above the cap
    the Stirling series takes over.  The environment variable
    ``DEFINETTI_TABLE_CAP`` overrides the default cap of 1e7 entries.
    The residual representation keeps every cached log(i!) good to ~1e-12
    absolute, where a plain float64 prefix-sum table would already lose
    ~2e-9 to the ulp of the stored value at i = 1e6.

    Growth replaces the whole array atomically and existing entries never
    change, so concurrent readers are safe; a racing ensure() at worst
    duplicates work.
    """

    def __init__(self, cap: int | None = None):
        if cap is None:
            cap = int(os.environ.get("DEFINETTI_TABLE_CAP", DEFAULT_TABLE_CAP))
        self.cap = max(int(cap), _MIN_TABLE_CAP)
        self._delta = _kernels.build_residual_table(_MIN_TABLE_CAP)

    @property
    def delta(self) -> np.ndarray:
        return self._delta

    def ensure(self, n: int) -> np.ndarray:
        """Grow the cache so indices up to min(n, cap) are table hits."""
        want = min(int(n), self.cap)
        have = self._delta.shape[0] - 1
        if want > have:
            target = min(self.cap, max(want, 2 * have))
            self._delta = _kernels.extend_residual_table(self._delta, target)
        return self._delta

    def log_factorial(self, n: int) -> float:
        if n < 0:
            raise DomainError("factorial of a negative integer")
        if n < 2:
            return 0.0
        if n <= self.cap:
            delta = self.ensure(n)
            d = delta[n]
        else:
            d = _kernels.residual_series(n)
        return (n + 0.5) * math.log(n) - n + _kernels.HALF_LOG_2PI + d

    def log_binomial(self, n: int, r: int) -> float:
        """log C(n, r); -inf when r is outside [0, n]."""
        if n < 0:
            raise DomainError("negative row in binomial coefficient")
        self.ensure(n)
        return _kernels.log_binomial_scalar(self._delta, n, r)


_default_table: LogFactorialTable | None = None


def default_table() -> LogFactorialTable:
    global _default_table
    if _default_table is None:
        _default_table = LogFactorialTable()
    return _default_table


# ---------------------------------------------------------------------------
# exact primitives
# ---------------------------------------------------------------------------

def binomial(n: int, r: int) -> int:
    """C(n, r) as an exact integer; 0 when r < 0 or r > n."""
    if n < 0:
        raise DomainError("negative row in binomial coefficient")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def log_binomial(n: int, r: int, table: LogFactorialTable | None = None) -> LogSpaceValue:
    """log C(n, r) as a LogSpaceValue; the zero marker when r is out of range."""
    t = table or default_table()
    return LogSpaceValue(t.log_binomial(n, r))


def _check_prefix_args(N: int, k: int, alpha: int, i: int) -> None:
    if k > N:
        raise DomainError(f"pattern length {k} exceeds sequence length {N}")
    if not (0 <= alpha <= k):
        raise DomainError(f"one-count {alpha} outside [0, {k}]")
    if not (0 <= i <= N):
        raise DomainError(f"count index {i} outside [0, {N}]")
    if k < 1:
        raise DomainError("pattern length must be at least 1")


def conditional_prefix_prob(N: int, k: int, alpha: int, i: int) -> Fraction:
    """P(fixed length-k prefix with alpha ones | total one-count = i), exact.

    Equals C(N-k, i-alpha) / C(N, i); zero when i < alpha or
    i - alpha > N - k (no word can match).
    """
    _check_prefix_args(N, k, alpha, i)
    num = binomial(N - k, i - alpha)
    if num == 0:
        return Fraction(0)
    return Fraction(num, math.comb(N, i))


def conditional_prefix_prob_log(
    N: int, k: int, alpha: int, i: int, table: LogFactorialTable | None = None
) -> LogSpaceValue:
    """Log-space twin of conditional_prefix_prob."""
    _check_prefix_args(N, k, alpha, i)
    t = table or default_table()
    la = t.log_binomial(N - k, i - alpha)
    if la == _kernels.NEG_INF:
        return LogSpaceValue.zero()
    return LogSpaceValue(la - t.log_binomial(N, i))


def iid_kernel(N: int, k: int, alpha: int, i: int) -> Fraction:
    """(i/N)^alpha (1 - i/N)^(k-alpha), exact, with 0^0 = 1."""
    _check_prefix_args(N, k, alpha, i)
    return Fraction(i, N) ** alpha * Fraction(N - i, N) ** (k - alpha)


def iid_kernel_log(
    N: int, k: int, alpha: int, i: int, table: LogFactorialTable | None = None
) -> LogSpaceValue:
    """Log-space twin of iid_kernel."""
    _check_prefix_args(N, k, alpha, i)
    if (i == 0 and alpha > 0) or (i == N and alpha < k):
        return LogSpaceValue.zero()
    v = 0.0
    log_n = math.log(N)
    if alpha > 0:
        v += alpha * (math.log(i) - log_n)
    if alpha < k:
        v += (k - alpha) * (math.log(N - i) - log_n)
    return LogSpaceValue(v)


def falling_product(N: int, k: int) -> int:
    """N (N-1) ... (N-k+1)."""
    out = 1
    for j in range(k):
        out *= N - j
    return out


def replacement_correction(N: int, k: int) -> Fraction:
    """N^k over the k-term falling product; always >= 1."""
    if k > N:
        raise DomainError(f"pattern length {k} exceeds sequence length {N}")
    if k < 1:
        raise DomainError("pattern length must be at least 1")
    return Fraction(N**k, falling_product(N, k))


def replacement_correction_float(N: int, k: int) -> float:
    """Float evaluation of the correction; exact to ~k*eps relative."""
    if k > N:
        raise DomainError(f"pattern length {k} exceeds sequence length {N}")
    out = 1.0
    for j in range(1, k):
        out /= 1.0 - j / N
    return out


def replacement_correction_log(N: int, k: int) -> LogSpaceValue:
    if k > N:
        raise DomainError(f"pattern length {k} exceeds sequence length {N}")
    v = -math.fsum(math.log1p(-j / N) for j in range(1, k))
    return LogSpaceValue(v)


def ratio_factors(N: int, k: int, alpha: int, i: int) -> RatioFactors:
    """Exact factor decomposition of conditional-prefix / iid-kernel at i.

    Valid wherever the kernel is positive (raises otherwise).  The product
    of the three factors reproduces the quotient identically, including the
    zero cases where a factor of the edge product vanishes.
    """
    _check_prefix_args(N, k, alpha, i)
    if iid_kernel(N, k, alpha, i) == 0:
        raise DomainError(f"iid kernel vanishes at i={i}; ratio undefined")
    falling = Fraction(1)
    for m in range(alpha):
        falling *= Fraction(i - m, i)
    edge = Fraction(1)
    for j in range(1, k - alpha):
        edge *= Fraction(N - i - j, N - i)
    return RatioFactors(falling, edge, replacement_correction(N, k))


def ratio_factors_float(N: int, k: int, alpha: int, i: int) -> RatioFactors:
    """Float twin of ratio_factors for the log backend (k, alpha are small)."""
    _check_prefix_args(N, k, alpha, i)
    if (i == 0 and alpha > 0) or (i == N and alpha < k):
        raise DomainError(f"iid kernel vanishes at i={i}; ratio undefined")
    falling = 1.0
    for m in range(alpha):
        falling *= (i - m) / i
    edge = 1.0
    for j in range(1, k - alpha):
        edge *= (N - i - j) / (N - i)
    return RatioFactors(falling, edge, replacement_correction_float(N, k))


def ratio_within_correction(N: int, k: int, alpha: int, i: int) -> bool:
    """Exact check that the prefix/kernel quotient is <= the correction.

    Cross-multiplied integer comparison, no rational reduction:
    C(N-k, i-alpha) * fall(N, k) <= C(N, i) * i^alpha * (N-i)^(k-alpha).
    Requires the kernel to be positive at i.
    """
    _check_prefix_args(N, k, alpha, i)
    if (i == 0 and alpha > 0) or (i == N and alpha < k):
        raise DomainError(f"iid kernel vanishes at i={i}; ratio undefined")
    lhs = binomial(N - k, i - alpha) * falling_product(N, k)
    rhs = math.comb(N, i) * i**alpha * (N - i) ** (k - alpha)
    return lhs <= rhs


def ratio_bound_holds_all(N: int, k: int, alpha: int) -> bool:
    """ratio_within_correction over every i with a positive kernel, by
    multiplicative recurrences (one pass, exact integers)."""
    _check_prefix_args(N, k, alpha, min(N, 1))
    fall = falling_product(N, k)
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


# ---------------------------------------------------------------------------
# region bounds
# ---------------------------------------------------------------------------

def _icbrt(n: int) -> int:
    x = round(n ** (1.0 / 3.0))
    while x**3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def region_bounds(N: int) -> RegionBounds:
    """Region cuts for a scan over 0..N; N must be at least 8.

    From N = 8 on, 2 <= M1 < M2 < N, so the mid window is nonempty and
    stays clear of both ends.
    """
    if N < 8:
        raise DomainError(f"regions undefined for N={N} < 8")
    s = math.isqrt(N)
    # floor(N - sqrt(N)) is N - s for perfect squares, N - s - 1 otherwise
    m2 = (N - s if s * s == N else N - s - 1) + 1
    return RegionBounds(N=N, M1=_icbrt(N), M2=m2)
