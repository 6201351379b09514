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
second at most (x + 1) log(1 + 1/x) with x = N (1 - p) >= 2^-53), and pads
them by 2; the rounding of the float N D (below 1e-8 nats at N = 1e7) is far
under the 55-nat margin below.  A weight w <= 1 only lowers the term, so
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
narrower for p away from 1/2.

The same bound lets the verifier skip an atom's per-index pass altogether.
If an atom's window lies inside the mid window (M1, M2] and inside the
support alpha <= i <= N - k + alpha, then its terms at every index outside
the window, and so its whole lower-tail, upper-tail, below-alpha and
above-support sums, are below (N + 1) exp(-800) < 2^-1074 (N <= 2^53).  Its
mid-window sums then equal its exact totals up to less than the float
spacing, and ``harness`` takes those totals from the atom's moments
(``model.kernel_mean``) instead of from these kernels.

Region sums add nonnegative terms with numpy's pairwise ``np.sum`` over
contiguous slices.  numpy sums blocks of up to 128 terms in 8 interleaved
lanes and splits longer ranges in halves, so each term passes through at
most ceil(log2 n) + 25 roundings and the relative error is at most
gamma_{ceil(log2 n) + 25} (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., section 4.2): below 6e-15 for n <= 2**27, far under
the error of the exponentiated log terms themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
# and k = 44 twice.
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
    mi = n - ri
    rf = ri.astype(np.float64)
    mf = mi.astype(np.float64)
    nf = float(n)
    main = (
        rf * np.log1p(mf / rf)
        + mf * np.log1p(rf / mf)
        + 0.5 * np.log(nf / (2.0 * math.pi * rf * mf))
    )
    out[inner] = (
        main + _residual(delta, n) - _residuals(delta, ri) - _residuals(delta, mi)
    )
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
    the window bisection calls some 50 times per atom (``_n_kl_into`` is the
    array form)."""
    if i == 0:
        return -N * math.log1p(-p)
    if i == N:
        return -N * math.log(p)
    return i * math.log(i / (N * p)) + (N - i) * math.log((N - i) / (N * (1.0 - p)))


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
    return max(0, edge(c, -1) - 2), min(N, edge(c, N + 1) + 2)


def _n_kl_into(out, N: int, p: float, i, r, w) -> None:
    """out = N D(i/N || p) = i log1p(d / Np) + (N - i) log1p(-d / (N (1 - p)))
    at the float indices 0 < i < N, with r = N - i and d = i - Np."""
    # Np to about twice float64 precision: m + m_err, with m = fl(Np)
    num, den = p.as_integer_ratio()
    m = N * num / den
    m_err = float(Fraction(N * num, den) - Fraction(m))
    np.subtract(i, m, out=w)
    w -= m_err
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
