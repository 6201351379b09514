"""Exact combinatorial primitives.

The quantities below are exact integers or ``fractions.Fraction`` (always
reduced, positive denominator), the ground truth for every probability this
package reports.  The log backend does not evaluate them index by index:
``_kernels.scan_log_ab`` computes the natural logs of the conditional weight
and the iid kernel in float64 over a whole index set, with ``-inf`` as the
exact-zero marker, and ``_kernels.log_mean_law`` evaluates the count law in
Loader's saddle-point form, from a fixed 1025-entry Stirling-residual table
and the Stirling series (no table grows with N).

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels

class DomainError(ValueError):
    """Arguments outside the domain where a quantity is defined."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

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

    falling: Fraction
    edge: Fraction
    correction: Fraction

    def product(self) -> Fraction:
        return self.falling * self.edge * self.correction


# ---------------------------------------------------------------------------
# log-factorial table
# ---------------------------------------------------------------------------

class LogFactorialTable:
    """The fixed Stirling-residual table ``_kernels.RESIDUALS`` (indices up to
    ``cap`` = 1024); the kernels take the Stirling series above it.

    Kept only until ROADMAP item 1 drops the benchmark's calls to ``ensure``
    and ``cap``; the package passes ``_kernels.RESIDUALS`` directly.
    """

    cap = _kernels.RESIDUAL_TABLE_MAX
    delta = _kernels.RESIDUALS

    def ensure(self, n: int) -> np.ndarray:
        """Return the fixed table, whatever n: no table grows with N."""
        return self.delta


def default_table() -> LogFactorialTable:
    return LogFactorialTable()


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


def iid_kernel(N: int, k: int, alpha: int, i: int) -> Fraction:
    """(i/N)^alpha (1 - i/N)^(k-alpha), exact, with 0^0 = 1."""
    _check_prefix_args(N, k, alpha, i)
    return Fraction(i, N) ** alpha * Fraction(N - i, N) ** (k - alpha)


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
