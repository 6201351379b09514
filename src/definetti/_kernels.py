"""Hot numeric kernels for the log-space backend (numpy).

Stirling residuals ``delta(x) = log(x!) - ((x + 0.5) log x - x + 0.5 log 2pi)``,
values in (0, 0.0834], come from the fixed table ``RESIDUALS`` for
x <= RESIDUAL_TABLE_MAX = 1024 (8 KB, built at import by a log1p cumulative
sum, exact to ~1e-15) and from ``residual_series`` above it (error < 1e-21).
No table grows with N.  The kernels take the table as their ``delta``
argument and read its cap from its length.

The count-conditional weight C(N-k, i-alpha) / C(N, i) is a k-term falling
product, so ``scan_log_ab`` needs k vectorized logs per index and no
residuals for the pattern lengths that occur in practice; longer patterns
take ``log_binomial_array_np``.

The count law of an atom at 0 < p < 1 is evaluated in the saddle-point form
of Loader, "Fast and Accurate Computation of Binomial Probabilities" (2000):
for 0 < i < N,

    log C(N, i) p^i (1-p)^(N-i) = delta(N) - delta(i) - delta(N - i)
                                  + 0.5 log(N / (2 pi i (N - i))) - N D(i/N || p),

with N D(i/N || p) = i log1p(d / Np) + (N - i) log1p(-d / (N (1 - p))) and
d = i - Np, Np carried to about twice float64 precision.  No term is of the
size of N, so the result keeps an absolute error near the ulp of |d|
(1.6e-11 at N = 1e7 where log q_i >= -700), where log C(N, i) + i log p +
(N - i) log(1 - p) added terms near 1e7 and lost ~1e-9.  i = 0 and i = N
take the closed forms N log(1 - p) and N log p.

The count law is evaluated only on its float64 support.  For 0 < p < 1 and
0 <= i <= N, the method of types gives
C(N, i) p^i (1-p)^(N-i) <= exp(-N D(i/N || p)): C(N, i) <= exp(N H(i/N)) and
p^i (1-p)^(N-i) = exp(-N (H(i/N) + D(i/N || p))).  So the term is below
exp(-LOG_TERM_FLOOR) outside the set N D(i/N || p) <= LOG_TERM_FLOOR, which
is an interval of indices because D(x || p) is convex in x with its minimum
0 at x = p.  ``_atom_window`` finds its ends by bisection on the float N D
from floor(Np), where N D is under 40 nats (its first term is at most 0, its
second at most (x + 1) log(1 + 1/x) with x = N (1 - p) >= 2^-53), out to a
point past each end (below), and pads them by 2; the rounding of the float
N D (below 1e-8 nats at N = 1e7) is far under the 55-nat margin below.  A weight w <= 1 only lowers the term, so
outside every atom's window the law is below exp(-LOG_TERM_FLOOR) =
exp(-800), far under the smallest float64 subnormal 2^-1074 = exp(-744.44).
Every factor a_i, b_i the verifier multiplies q_i by is at most 1, so each
product term exp(log x_i + log q_i) there already rounds to exactly 0.0, and
so does an atom's term at an index inside another atom's window but outside
its own: leaving it out changes log q_i by less than half an ulp unless
q_i < exp(-763), whose product terms round to 0.0 as well.  The rounding
error of a computed log term is far under the 55-nat margin between
exp(-800) and the subnormal floor.  So the kernels take the union of the
atoms' windows (atoms at 0 and 1 give {0} and {N}) as the index set, and the
sums over it equal the sums over 0..N up to the order of summation.  By
Pinsker's inequality D(x || p) >= 2 (x - p)^2, no window is wider than
|i - Np| <= sqrt(LOG_TERM_FLOOR N / 2) (plus the padding), and windows are
narrower for p away from 1/2.  So with c = floor(Np) and
r = isqrt(400 N) + 2, the indices c - r and c + r, clipped to -1 and
N + 1, lie outside the set: both are more than sqrt(400 N) from Np (c + r
by at least r - 1 > sqrt(400 N)), where N D >= 2 (i - Np)^2 / N > 800.
The bisection starts from them, not from -1 and N + 1, and finds the same
ends in about log2 sqrt(400 N) steps per end instead of log2 N.

The same bound lets the verifier skip an atom's per-index pass altogether.
If an atom's window lies inside the mid window (M1, M2] and inside the
support alpha <= i <= N - k + alpha, then its terms at every index outside
the window, and so its whole lower-tail, upper-tail, below-alpha and
above-support sums, are below (N + 1) exp(-800) < 2^-1074 (N <= 2^76 =
7.6e22 leaves 2.9 nats of the 55-nat margin; ``_window_inside`` refuses
larger N).  Its mid-window sums then equal its exact totals up to less than
the float spacing, and ``harness`` takes those totals from the atom's
moments (``model.kernel_mean_ratios``) instead of from these kernels.  The
set being an interval around floor(Np), ``_window_inside`` decides this
from N D next to the two edges, as the bisection does.  ``_n_kl`` takes its
log1p arguments as correctly rounded integer ratios, so it errs by about
the ulp of |i - Np|: against 50-digit mpmath at window-edge indices, at
most 1.2e-10 nats at N = 1e7, 6.4e-7 at 2^53 and 1e16 and 7.3e-5 at 1e20,
far under that margin.

Region sums add nonnegative terms with numpy's pairwise ``np.sum`` over
contiguous slices.  numpy sums blocks of up to 128 terms in 8 interleaved
lanes and splits longer ranges in halves, so each term passes through at
most ceil(log2 n) + 25 roundings and the relative error is at most
gamma_{ceil(log2 n) + 25} (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., section 4.2): below 6e-15 for n <= 2**27, far under
the error of the exponentiated log terms themselves.
"""

from __future__ import annotations

import functools
import math
import sys
import numpy as np

NEG_INF = float("-inf")
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling residual at i = 1: log(1!) - (1.5*log(1) - 1 + 0.5*log(2pi))
DELTA_ONE = 1.0 - HALF_LOG_2PI

# The only kernel implementation; perfbench/run.py records this name.
KERNEL_BACKEND = "numpy"

# Longest pattern scanned as a falling product; longer ones use two
# log-binomial passes (``log_binomial_array_np``, the series past the fixed
# table), whose cost does not grow with k.  One full scan at N = 1e7,
# alpha = k // 2, best of 5 on a 2-core x86-64 VM (numpy 2.4):
#   k        2     6     12    24    32    36    40    44
#   product  0.21  0.44  0.91  1.71  2.16  2.00  2.42  2.58 s
#   table    2.19  2.58  2.44  2.11  2.52  2.54  2.45  2.64 s
# In three such runs the product form won k = 36 every time and lost k = 40
# and k = 44 twice.  The table form has since been made in place: at k = 40
# and 44 it then took 1.9 and 2.0 s against 3.4 and 3.5 s before, best of 5
# in alternated runs on the same VM, so the crossover may now lie lower.
PRODUCT_SCAN_MAX_K = 36

# Stirling residuals of 0..RESIDUAL_TABLE_MAX come from a table, larger ones
# from the series
RESIDUAL_TABLE_MAX = 1024

# exp(-LOG_TERM_FLOOR) is under the smallest float64 subnormal, exp(-744.44);
# count-law terms below it are left out (module docstring)
LOG_TERM_FLOOR = 800


# ---------------------------------------------------------------------------
# Stirling residuals
# ---------------------------------------------------------------------------

def build_residual_table(n: int) -> np.ndarray:
    """Stirling residuals delta[0..n]; delta[0] is a filler zero.

    The increments delta[i] - delta[i-1] are ``1 + (i - 0.5) log1p(-1/i)``,
    which avoids the cancellation of a difference of Stirling main terms.
    """
    delta = np.zeros(n + 1, dtype=np.float64)
    delta[1] = DELTA_ONE
    i = np.arange(2, n + 1, dtype=np.float64)
    delta[2:] = DELTA_ONE + np.cumsum(1.0 + (i - 0.5) * np.log1p(-1.0 / i))
    return delta


def residual_series(x, out=None, work=None):
    """Stirling-series residual for large x (absolute error < 1e-21 at x >= 1024).

    Works on floats and on float arrays alike.  For an array x, ``out`` and
    ``work`` (float arrays shaped like x) take the result and 1 / x^2, so the
    series is evaluated in place.
    """
    x2 = np.divide(1.0, np.multiply(x, x, out=work), out=work)
    acc = np.divide(x2, 1680.0, out=out)
    acc = np.subtract(1.0 / 1260.0, acc, out=out)
    acc = np.multiply(acc, x2, out=out)
    acc = np.subtract(1.0 / 360.0, acc, out=out)
    acc = np.multiply(acc, x2, out=out)
    acc = np.subtract(1.0 / 12.0, acc, out=out)
    return np.divide(acc, x, out=out)


# The fixed residual table every caller passes as ``delta`` (8 KB, read-only)
RESIDUALS = build_residual_table(RESIDUAL_TABLE_MAX)
RESIDUALS.flags.writeable = False


def _residuals(delta: np.ndarray, x: np.ndarray, out=None, work=None) -> np.ndarray:
    """Stirling residuals at the integers ``x`` >= 0 (an int array or an
    integer-valued float array): table entries up to its cap, the series
    above (``out`` and ``work`` as for ``residual_series``)."""
    out = residual_series(np.asarray(x, dtype=np.float64), out, work)
    small = x <= delta.shape[0] - 1
    if np.any(small):
        out[small] = delta[x[small].astype(np.int64)]
    return out


def _residual(delta: np.ndarray, n: int) -> float:
    return float(delta[n]) if n < delta.shape[0] else residual_series(float(n))


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def log_binomial_array_np(delta: np.ndarray, n: int, r: np.ndarray) -> np.ndarray:
    """Vectorized log C(n, r_t); -inf outside [0, n].

    (The ``_np`` suffix is the name perfbench's span tracer wraps.)
    """
    r = np.ascontiguousarray(r, dtype=np.int64)
    out = np.full(r.shape, NEG_INF, dtype=np.float64)
    if n == 0:
        out[r == 0] = 0.0
        return out
    ok = (r >= 0) & (r <= n)
    edge = ok & ((r == 0) | (r == n))
    out[edge] = 0.0
    inner = ok & ~edge
    if not np.any(inner):
        return out
    ri = r[inner]
    # one work block, evaluated in place in the order of
    # r log1p(m / r) + m log1p(r / m) + 0.5 log(n / (2 pi r m))
    #   + delta(n) - delta(r) - delta(m), m = n - r
    rf, mf, acc, tmp, v = np.empty((5, ri.size), dtype=np.float64)
    rf[:] = ri
    np.subtract(n, ri, out=mf)   # in int64, then rounded once
    np.divide(mf, rf, out=acc)
    np.log1p(acc, out=acc)
    acc *= rf
    np.divide(rf, mf, out=tmp)
    np.log1p(tmp, out=tmp)
    tmp *= mf
    acc += tmp
    np.multiply(rf, 2.0 * math.pi, out=tmp)
    tmp *= mf
    np.divide(float(n), tmp, out=tmp)
    np.log(tmp, out=tmp)
    tmp *= 0.5
    acc += tmp
    acc += _residual(delta, n)
    acc -= _residuals(delta, rf, tmp, v)
    acc -= _residuals(delta, mf, tmp, v)
    out[inner] = acc
    return out


def scan_log_ab(
    delta: np.ndarray, N: int, k: int, alpha: int, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """log a_i and log b_i at every index in ``idx``; exact zeros map to -inf.

    a_i = C(N-k, i-alpha) / C(N, i) is the falling product

        prod_{m<alpha} (i - m) * prod_{j<k-alpha} (N - i - j) / prod_{j<k} (N - j),

    so log a_i sums k logs of exact integers and subtracts a constant.  A
    factor at or below zero marks an exact zero (i < alpha, or
    i > N - k + alpha).  b_i = (i/N)^alpha (1 - i/N)^(k-alpha) reuses the
    m = 0 and j = 0 logs, log i and log(N - i).  Patterns longer than
    ``PRODUCT_SCAN_MAX_K`` take the log-binomial table form for log a_i.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    log_n = math.log(N)
    with np.errstate(divide="ignore"):
        log_i = np.log(idx, dtype=np.float64) if alpha > 0 else None
        log_r = np.log(np.subtract(N, idx, dtype=np.float64)) if alpha < k else None
        if k > PRODUCT_SCAN_MAX_K:
            log_a = log_binomial_array_np(
                delta, N - k, idx - alpha
            ) - log_binomial_array_np(delta, N, idx)
        else:
            tmp = np.empty(idx.shape, dtype=np.float64)
            log_a = np.zeros(idx.shape, dtype=np.float64)
            if alpha > 0:
                log_a += log_i
            for m in range(1, alpha):
                np.subtract(idx, m, out=tmp)
                np.maximum(tmp, 0.0, out=tmp)
                log_a += np.log(tmp, out=tmp)
            if alpha < k:
                log_a += log_r
            for j in range(1, k - alpha):
                np.subtract(N - j, idx, out=tmp)
                np.maximum(tmp, 0.0, out=tmp)
                log_a += np.log(tmp, out=tmp)
            log_a -= math.fsum(math.log(N - j) for j in range(k))
    # log b = alpha (log i - log N) + (k - alpha) (log(N - i) - log N),
    # in place over the two log buffers
    if alpha > 0:
        log_i -= log_n
        log_i *= alpha
    if alpha < k:
        log_r -= log_n
        log_r *= k - alpha
    if log_i is None:
        return log_a, log_r
    if log_r is not None:
        log_i += log_r
    return log_a, log_i


def _n_kl(N: int, p: float, i: int) -> float:
    """N D(i/N || p) for one index, 0 < p < 1, 0 <= i <= N: the scalar form
    of the window bisection and of ``_window_inside`` (``_n_kl_into`` is the
    array form).  With p = num / den and t = (i - Np) den = i den - N num,

        N D(i/N || p) = i log1p(t / (N num)) + (N - i) log1p(-t / (N (den - num))),

    each log1p argument one correctly rounded ratio of exact integers, so
    no term rounds to the ulp of N."""
    if i == 0:
        return -N * math.log1p(-p)
    if i == N:
        return -N * math.log(p)
    num, den = p.as_integer_ratio()
    t = i * den - N * num
    if p < sys.float_info.min:   # subnormal p: t / (N num) can overflow
        head = math.log(i) - math.log(N) - math.log(p)
    else:
        head = math.log1p(t / (N * num))
    return i * head + (N - i) * math.log1p(-t / (N * (den - num)))


def _atom_window(N: int, p: float) -> tuple[int, int]:
    """Indices [lo, hi] outside which an atom's binomial term is below
    exp(-LOG_TERM_FLOOR): the set N D(i/N || p) <= LOG_TERM_FLOOR, padded by 2
    (module docstring)."""
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return N, N

    def edge(inside: int, outside: int) -> int:
        # bisection on the convex N D: the last index inside toward ``outside``
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if _n_kl(N, p, mid) <= LOG_TERM_FLOOR:
                inside = mid
            else:
                outside = mid
        return inside

    c = min(N, math.floor(N * p))   # inside: N D there is under 40 nats
    r = math.isqrt(LOG_TERM_FLOOR // 2 * N) + 2   # outside, by Pinsker
    return max(0, edge(c, max(-1, c - r)) - 2), min(N, edge(c, min(N + 1, c + r)) + 2)


def _window_inside(N: int, p: float, lo_edge: int, hi_edge: int) -> bool:
    """Whether ``_atom_window(N, p)`` lies inside (lo_edge, hi_edge], given
    0 <= lo_edge and hi_edge < N: N D exceeds LOG_TERM_FLOOR at lo_edge + 2
    and at hi_edge - 1, both on their side of floor(Np).  Always False past
    N = 2^76, where the terms left out may add up past 2^-1074 (module
    docstring)."""
    if not 0.0 < p < 1.0 or N > 2**76:
        return False
    c = min(N, math.floor(N * p))
    return (lo_edge + 2 < c < hi_edge - 1
            and _n_kl(N, p, lo_edge + 2) > LOG_TERM_FLOOR
            and _n_kl(N, p, hi_edge - 1) > LOG_TERM_FLOOR)


def _n_kl_into(out, N: int, p: float, i, r, w) -> None:
    """out = N D(i/N || p) = i log1p(d / Np) + (N - i) log1p(-d / (N (1 - p)))
    at the float indices 0 < i < N, with r = N - i and d = i - Np."""
    # Np to about twice float64 precision: m + m_err, with m = fl(Np) and
    # m_err the correctly rounded Np - m
    num, den = p.as_integer_ratio()
    m = N * num / den
    m_num, m_den = m.as_integer_ratio()
    m_err = (N * num * m_den - m_num * den) / (den * m_den)
    np.subtract(i, m, out=w)
    w -= m_err
    if p < sys.float_info.min:   # d / Np can overflow; take log(i / Np)
        np.log(i, out=out)
        out -= math.log(N) + math.log(p)
    else:
        np.divide(w, m, out=out)
        np.log1p(out, out=out)
    out *= i
    np.divide(w, (m - N) + m_err, out=w)
    np.log1p(w, out=w)
    w *= r
    out += w


def log_mean_law(
    delta: np.ndarray, N: int, ps: np.ndarray, log_ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(idx, log q_idx) of the mixture-of-binomials count law on its support.

    ``idx`` is the ascending union of the atoms' windows (``_atom_window``),
    merged into intervals; every index left out has q_i < exp(-LOG_TERM_FLOOR),
    an exact zero in float64.  Atoms at 0 and 1 are point masses at the ends.
    On each interval, every atom whose window it holds adds lw plus its
    binomial term (the saddle form, the closed form at 0 and N) over its own
    window by logaddexp, in input order; the first term is written in
    directly, the rest of the interval starting at -inf.
    """
    windows = [_atom_window(N, float(p)) for p in ps]
    intervals: list[list[int]] = []
    for lo, hi in sorted(windows):
        if intervals and lo <= intervals[-1][1] + 1:
            intervals[-1][1] = max(intervals[-1][1], hi)
        else:
            intervals.append([lo, hi])
    total = sum(hi - lo + 1 for lo, hi in intervals)
    idx = np.arange(total, dtype=np.int64)
    log_q = np.empty(total, dtype=np.float64)
    # one allocation for the five work rows of every interval: numpy backs
    # 4 MB and more with transparent huge pages, which fault in far fewer
    # pages than five 1 MB buffers (half the time of a one-atom law at
    # p = 1/2, N = 1e7: 3.9 against 7.8 ms)
    work = np.empty((5, max(hi - lo + 1 for lo, hi in intervals)), dtype=np.float64)
    start = 0
    for lo, hi in intervals:
        n = hi - lo + 1
        idx[start:start + n] += lo - start
        lq = log_q[start:start + n]
        i, r, row, w, v = work[:, :n]
        i[:] = idx[start:start + n]
        start += n
        np.subtract(float(N), i, out=r)   # N - i, exact in float64
        held = [(p, lw, w_lo, w_hi) for p, lw, (w_lo, w_hi)
                in zip(ps.tolist(), log_ws.tolist(), windows) if lo <= w_lo <= hi]
        lq.fill(NEG_INF)
        # the saddle form divides by zero at i = 0 and N, which take closed forms
        with np.errstate(divide="ignore", invalid="ignore"):
            # the part every atom shares:
            # delta(N) - delta(i) - delta(N - i) + 0.5 log(N / (2 pi i (N - i)))
            np.multiply(i, r, out=row)
            row *= 2.0 * math.pi
            np.divide(float(N), row, out=row)
            np.log(row, out=row)
            row *= 0.5
            row += _residual(delta, N)
            row -= _residuals(delta, i, v, w)
            row -= _residuals(delta, r, v, w)
            for j, (p, lw, w_lo, w_hi) in enumerate(held):
                s = slice(w_lo - lo, w_hi - lo + 1)   # the atom's own window
                term = lq[s] if j == 0 else v[s]
                if 0.0 < p < 1.0:
                    _n_kl_into(term, N, p, i[s], r[s], w[s])
                    np.subtract(row[s], term, out=term)
                # the ends; the point masses at p = 0 and 1 are these alone
                if w_lo == 0:
                    term[0] = N * math.log1p(-p)
                if w_hi == N:
                    term[-1] = N * math.log(p)
                term += lw
                if j > 0:
                    np.logaddexp(lq[s], term, out=lq[s])
    return idx, log_q


def pair_region_sums(
    log_a: np.ndarray,
    log_b: np.ndarray,
    log_q: np.ndarray,
    idx: np.ndarray,
    m1: int,
    m2: int,
) -> np.ndarray:
    """Six region sums: (a-side, b-side) x (lower, mid, upper).

    ``idx`` is ascending; the regions i <= m1, m1 < i <= m2 and i > m2 are
    contiguous slices of it, each summed pairwise (error bound in the
    module docstring).
    """
    s1, s2 = np.searchsorted(idx, (m1, m2), side="right")
    terms = np.empty(log_q.shape, dtype=np.float64)
    out = np.empty(6, dtype=np.float64)
    for side, log_x in enumerate((log_a, log_b)):
        np.add(log_x, log_q, out=terms)
        np.exp(terms, out=terms)
        out[3 * side] = terms[:s1].sum()
        out[3 * side + 1] = terms[s1:s2].sum()
        out[3 * side + 2] = terms[s2:].sum()
    return out


# No package caller is left; perfbench/spans.py still wraps it by name.
def max_ratio_dev(
    log_a: np.ndarray, log_b: np.ndarray, mask: np.ndarray
) -> float:
    """max |a/b - 1| over masked entries (0 when none); requires b > 0 under
    the mask.  Entries outside the mask are never read into the maximum."""
    with np.errstate(invalid="ignore"):
        dev = np.subtract(log_a, log_b)
        np.expm1(dev, out=dev)
    np.abs(dev, out=dev)
    return float(np.max(dev, where=mask, initial=0.0))


# ---------------------------------------------------------------------------
# shortest decimal digits
# ---------------------------------------------------------------------------

_U64 = np.uint64
POW10_U64 = np.array([10**j for j in range(20)], dtype=np.uint64)   # every 10^j < 2^64
_32, _LOW32, _LOW63 = _U64(32), _U64(2**32 - 1), _U64(2**63 - 1)
# the decimal exponents k of phi_k that finite float64 need
_K_MIN, _K_MAX = -292, 326
# rows of a ``shortest_digits`` workspace: it returns d and e in rows 0 and
# 1, and the other rows are scratch, free for the caller once it returns
DIGIT_SLOTS = 15


@functools.cache
def _phi_table() -> tuple[np.ndarray, np.ndarray]:
    """phi_k = ceil(10^k 2^(127 - floor(log2 10^k))), in [2^127, 2^128), for
    k = _K_MIN .. _K_MAX: its high and its low 64 bits, as two uint64
    arrays.  Built with Python ints on first use, not at import."""
    phi = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = (k * 1_741_647 >> 19) - 127   # floor(log2 10^k) - 127
        num, den = 10**max(k, 0) << max(-r, 0), 10**max(-k, 0) << max(r, 0)
        phi.append(-(-num // den))
    return (np.array([v >> 64 for v in phi], dtype=np.uint64),
            np.array([v & (2**64 - 1) for v in phi], dtype=np.uint64))


def _mulhi(a0, a1, b, out, b0, t) -> None:
    """out = the high 64 bits of a b, from the 32-bit halves a0 and a1 of a
    (uint64 arrays); b is split in place into its high half, and b0 and t
    are scratch."""
    np.bitwise_and(b, _LOW32, out=b0)
    b >>= _32
    np.multiply(a0, b0, out=t)
    t >>= _32
    np.multiply(a0, b, out=out)
    t += out   # at most (2^32 - 1)^2 + 2^32 - 1 < 2^64
    np.right_shift(t, _32, out=out)
    t &= _LOW32
    b0 *= a1
    t += b0
    t >>= _32
    out += t
    b *= a1
    out += b


def _dragonbox(c: int, q: int) -> tuple[int, int]:
    """(d, e) for c 2^q, by every branch of Dragonbox's nearest-to-even
    path, in Python ints: the entries ``shortest_digits`` leaves out of its
    common case.  d may end in zeros."""
    if c == 2**52:   # a power of two: its lower neighbour is half as far
        e = (q * 631_305 - 261_663) >> 21   # floor(log10(3/4 2^q))
        beta = q + (-e * 1_741_647 >> 19)
        hi = int(_phi_table()[0][-e - _K_MIN])   # phi_-e's high 64 bits
        # the scaled left end, rounded up: it is an integer only at q = 2
        # and 3 (2^54 and 2^55), where that gives the same digits
        left = ((hi - (hi >> 54)) >> (11 - beta)) + 1
        right = (hi + (hi >> 53)) >> (11 - beta)
        if right // 10 * 10 >= left:
            return right // 10, e + 1
        d = ((hi >> (10 - beta)) + 1) // 2
        if d % 2 and q == -77:   # the only tie: to even
            return d - 1, e
        return d + (d < left), e
    e = (q * 315_653 >> 20) - 2   # floor(log10 2^q) - 2
    beta = q + (-e * 1_741_647 >> 19)
    hi, lo = _phi_table()
    phi = int(hi[-e - _K_MIN]) << 64 | int(lo[-e - _K_MIN])
    delta = phi >> (127 - beta)

    def parity_and_integer(f):
        # floor(f phi 2^beta / 2^128) mod 2, and whether the 64 bits after it are 0
        p = f * phi
        return p >> (128 - beta) & 1, not p >> (64 - beta) & (2**64 - 1)

    # Dragonbox's x, y and z: the left end, c 2^q itself and the right end
    # of the rounding interval, scaled by 10^-e
    z = ((2 * c + 1) << beta) * phi
    s, r = divmod(z >> 128, 1000)
    if r == 0 and c % 2 and not z >> 64 & (2**64 - 1):
        s, r = s - 1, 1000   # the right end is out, and it is s 10^(e + 3)
    elif r < delta:
        return s, e + 3
    elif r == delta:
        x_odd, x_integer = parity_and_integer(2 * c - 1)
        if x_odd or x_integer and c % 2 == 0:
            return s, e + 3
    dist = r - delta // 2 + 50
    d = 10 * s + dist // 100
    if dist % 100 == 0:
        y_odd, y_integer = parity_and_integer(2 * c)
        if y_odd != dist % 2 or y_integer and d % 2:
            d -= 1
    return d, e + 2


def shortest_digits(x: np.ndarray, ws: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(d, e), uint64 and int64: for each finite nonzero float64 x, the
    shortest d 10^e (d not a multiple of 10) that reads back as |x|, the
    nearest to |x| of those, with d even on a tie: the digits of CPython's
    ``repr``.  The tests check them against ``repr`` on random bit patterns,
    every power of two and its neighbours, every power of ten, subnormals,
    ties and a frozen input for each rare branch.

    Dragonbox's nearest-to-even path (J. Jeon, "Dragonbox: A New
    Floating-Point Binary-to-Decimal Conversion Algorithm", 2020): with
    x = c 2^q, e = floor(log10 2^q) - 2 and beta = q + floor(-e log2 10),
    one 64 x 128-bit product gives z = floor((2c + 1) 2^beta phi_-e / 2^128),
    the right end of x's rounding interval scaled by 10^-e, and
    delta = floor(phi_-e 2^beta / 2^127), its width.  With z = 1000 s + r,
    s is the answer (exponent e + 3) when r < delta, or when r = delta and
    the scaled left end z - 2 phi_-e 2^beta / 2^128 has an odd floor.
    Otherwise it is 10 s + floor((r - delta/2 + 50) / 100) (exponent e + 2),
    one less when that remainder is a multiple of 100 and the scaled x,
    z - phi_-e 2^beta / 2^128, has its floor one below z - floor(delta/2).
    The top 64 bits of z's fraction against those of phi_-e 2^beta / 2^128
    and of twice it decide both floors.  Only the rare entries go to
    ``_dragonbox``: where those bits leave a floor or an integer open, r = 0
    with z an integer, and powers of two, whose interval is shorter below.
    Every uint64 operand is an array or an np.uint64, so numpy 1.x and 2.x
    promote alike.

    ``ws`` is a uint64 workspace of DIGIT_SLOTS rows of at least len(x)
    entries (a fresh one when None); every full-length step writes into
    it, and d and e are views of its rows 0 and 1.  x may be row 0 itself,
    viewed as float64: it is read once, first.  Only the entries whose
    digits end in 0 go through a loop of their own.
    """
    m = len(x)
    if ws is None:
        ws = np.empty((DIGIT_SLOTS, m), dtype=np.uint64)
    d, e, c, q, beta, hi, lo, u0, u1, delta, mid, s, t, acc, flags = (row[:m] for row in ws)
    carry, below, open_y, open_x, big, rare, flag, flag2 = flags.view(np.bool_).reshape(8, m)
    qi, ei, bi, ti = q.view(np.int64), e.view(np.int64), beta.view(np.int64), t.view(np.int64)
    np.bitwise_and(x.view(np.uint64), _LOW63, out=c)
    np.right_shift(c, _U64(52), out=q)   # the biased exponent
    np.minimum(qi, 1, out=ti)   # 1 for a normal x
    c &= _U64(2**52 - 1)
    np.left_shift(t, _U64(52), out=acc)
    c |= acc
    qi -= ti
    qi -= 1074   # x = c 2^q
    np.multiply(qi, 315_653, out=ei)
    ei >>= 20
    ei -= 2
    np.subtract(-_K_MIN, ei, out=ti)
    for half, out in zip(_phi_table(), (hi, lo)):
        np.take(half, ti, out=out, mode="clip")
    np.multiply(ei, -1_741_647, out=bi)
    bi >>= 19
    bi += qi
    # u = (2c + 1) 2^beta, below 2^63; mid = its product's low 64 bits with phi_hi
    np.left_shift(c, _U64(1), out=acc)
    acc |= _U64(1)
    acc <<= beta
    np.multiply(acc, hi, out=mid)
    np.bitwise_and(acc, _LOW32, out=u0)
    np.right_shift(acc, _32, out=u1)
    np.subtract(_U64(63), beta, out=delta)
    np.right_shift(hi, delta, out=delta)
    # d = the top 64 bits of the fraction of phi 2^beta / 2^128
    np.left_shift(hi, beta, out=d)
    np.subtract(_U64(64), beta, out=t)
    np.right_shift(lo, t, out=t)
    d |= t
    # z = u phi / 2^128: mid becomes the top 64 bits of its fraction
    _mulhi(u0, u1, lo, acc, s, t)
    mid += acc
    np.less(mid, acc, out=carry)
    _mulhi(u0, u1, hi, acc, s, t)
    acc += carry
    # below: the scaled x has its floor at z - floor(delta / 2) - 1;
    # open_y: its fraction may be under 2^-64
    np.less(mid, d, out=below)
    np.subtract(mid, d, out=t)
    np.less(t, _U64(2), out=open_y)
    # the same for the scaled left end, floor z - delta - 1 (odd where
    # r = delta), against the bits of twice the fraction, to within 2^-63
    d <<= _U64(1)
    left_odd = carry   # carry's row, free again
    np.less(mid, d, out=left_odd)
    np.subtract(mid, d, out=t)
    np.less(t, _U64(3), out=open_x)
    np.equal(mid, _U64(0), out=flag2)   # z may be an integer
    np.floor_divide(acc, _U64(1000), out=s)
    np.multiply(s, _U64(1000), out=t)
    np.subtract(acc, t, out=mid)   # r
    np.less(mid, delta, out=big)
    np.equal(mid, delta, out=rare)
    left_odd &= rare
    big |= left_odd
    rare &= open_x
    np.equal(mid, _U64(0), out=flag)
    flag &= flag2
    rare |= flag
    np.equal(c, _U64(2**52), out=flag)
    rare |= flag
    # the smaller divisor: t = 10 s + floor(dist / 100), dist = r - delta/2 + 50
    delta >>= _U64(1)
    np.add(mid, _U64(50), out=acc)
    acc -= delta
    np.floor_divide(acc, _U64(100), out=t)
    np.multiply(t, _U64(100), out=lo)
    np.equal(acc, lo, out=flag)
    open_y &= flag
    rare |= open_y
    flag &= below
    np.multiply(s, _U64(10), out=acc)
    t += acc
    t -= flag
    # d = s if big else t, selected arithmetically: a ufunc's where= costs
    # more than the rest of a step together
    np.subtract(s, t, out=acc)
    acc *= big
    np.add(t, acc, out=d)
    ei += 2
    ei += big
    z = np.flatnonzero(rare)
    if z.size:
        d[z], ei[z] = zip(*map(_dragonbox, c[z].tolist(), qi[z].tolist()))
    np.floor_divide(d, _U64(10), out=t)
    t *= _U64(10)
    np.equal(t, d, out=flag)
    z = np.flatnonzero(flag)
    while z.size:
        d[z] //= _U64(10)
        ei[z] += 1
        z = z[d[z] % _U64(10) == _U64(0)]
    return d, ei
