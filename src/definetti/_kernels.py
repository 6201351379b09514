"""Hot numeric kernels for the log-space backend (numpy).

Log-factorials are cached in Stirling-residual form: the table stores
``delta[i] = log(i!) - ((i + 0.5) log i - i + 0.5 log 2pi)``, a value in
(0, 0.0834], instead of ``log(i!)`` itself.  Storing the absolute prefix sums
would pin the error to the float64 ulp of ``log(i!)`` (~2e-9 at i = 1e6),
which is too coarse for the backend-agreement contracts; the residual form
keeps the table exact to ~1e-12 at any index.

The count-conditional weight C(N-k, i-alpha) / C(N, i) is a k-term falling
product, so ``scan_log_ab`` needs k vectorized logs per index and no table
lookups for the pattern lengths that occur in practice.  The table serves the
count law's ``log C(N, i)`` row, the scalar API and scans with long patterns.

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

import numpy as np

NEG_INF = float("-inf")
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling residual at i = 1: log(1!) - (1.5*log(1) - 1 + 0.5*log(2pi))
DELTA_ONE = 1.0 - HALF_LOG_2PI
_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant

# The only kernel implementation; perfbench/run.py records this name.
KERNEL_BACKEND = "numpy"

# Longest pattern scanned as a falling product; longer ones use two
# log-binomial table passes, whose cost does not grow with k.  One full scan
# at N = 1e7, alpha = k // 2, best of 3 on a 2-core x86-64 VM (numpy 2.4):
#   k        2     6     12    16    20    24    28
#   product  0.28  0.58  1.03  1.23  1.64  1.71  2.42 s
#   table    1.95  1.90  1.91  1.95  1.92  1.81  1.72 s
PRODUCT_SCAN_MAX_K = 24


# ---------------------------------------------------------------------------
# residual table construction
# ---------------------------------------------------------------------------

def residual_increments(lo: int, hi: int) -> np.ndarray:
    """Increments delta[i] - delta[i-1] for i in [lo, hi], lo >= 2.

    Analytically ``1 + (i - 0.5) log((i-1)/i)``, a value in (-0.04, 0);
    evaluating it through log1p avoids the cancellation that a direct
    difference of Stirling main terms would suffer.
    """
    i = np.arange(lo, hi + 1, dtype=np.float64)
    return 1.0 + (i - 0.5) * np.log1p(-1.0 / i)


def build_residual_table(n: int) -> np.ndarray:
    """Stirling residuals delta[0..n]; delta[0] is a filler zero."""
    n = max(int(n), 1)
    delta = np.empty(n + 1, dtype=np.float64)
    delta[0] = 0.0
    delta[1] = DELTA_ONE
    if n >= 2:
        delta[2:] = DELTA_ONE + np.cumsum(residual_increments(2, n))
    return delta


def extend_residual_table(delta: np.ndarray, n: int) -> np.ndarray:
    """Grow an existing residual table up to index n."""
    old = delta.shape[0] - 1
    if n <= old:
        return delta
    tail = delta[old] + np.cumsum(residual_increments(old + 1, n))
    return np.concatenate([delta, tail])


def residual_series(x):
    """Stirling-series residual for large x (absolute error < 1e-21 at x >= 1024).

    Works on floats and on float arrays alike.
    """
    x2 = 1.0 / (x * x)
    return (
        1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - x2 / 1680.0) * x2) * x2
    ) / x


# ---------------------------------------------------------------------------
# scalar log-binomial, compensated (used by the scalar API in numerics)
# ---------------------------------------------------------------------------

def log_binomial_scalar(delta: np.ndarray, n: int, r: int) -> float:
    """log C(n, r) with compensated (Dekker/Neumaier) main-term arithmetic.

    Relative error of C(n, r) stays at the float64 representation floor of
    the log value: <= ~1.5e-10 for n <= 2e6 and a few ulp of log C beyond.
    Returns -inf when r is outside [0, n].
    """
    if r < 0 or r > n:
        return NEG_INF
    if r == 0 or r == n:
        return 0.0
    m = n - r
    t1, e1 = _two_prod(float(r), math.log1p(m / r))
    t2, e2 = _two_prod(float(m), math.log1p(r / m))
    t3 = 0.5 * math.log(n / (2.0 * math.pi * r * m))
    cap = delta.shape[0] - 1
    dn = delta[n] if n <= cap else residual_series(n)
    dr = delta[r] if r <= cap else residual_series(r)
    dm = delta[m] if m <= cap else residual_series(m)
    s, c = _two_sum(t1, t2)
    c += e1 + e2
    s, cc = _two_sum(s, t3 + (dn - dr - dm))
    return s + (c + cc)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def _residual_lookup(delta: np.ndarray, x: np.ndarray) -> np.ndarray:
    cap = delta.shape[0] - 1
    out = delta[np.minimum(x, cap)]
    big = x > cap
    if np.any(big):
        out[big] = residual_series(x[big].astype(np.float64))
    return out


def log_binomial_array_np(delta: np.ndarray, n: int, r: np.ndarray) -> np.ndarray:
    """Vectorized log C(n, r_t); -inf outside [0, n]. Plain (uncompensated) form.

    Gathers two table entries per index; ``_log_binomial_row`` is the
    gather-free form for the whole row r = 0..n.  (The ``_np`` suffix is the
    name perfbench's span tracer wraps.)
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
    dn = delta[n] if n <= delta.shape[0] - 1 else residual_series(n)
    out[inner] = (
        main + dn - _residual_lookup(delta, ri) - _residual_lookup(delta, mi)
    )
    return out


def _log_binomial_row(delta: np.ndarray, n: int) -> np.ndarray:
    """log C(n, i) for i = 0..n, bit-identical to ``log_binomial_array_np``
    on ``arange(n + 1)``.

    The residuals of i and n - i for i = 1..n-1 are one contiguous table
    slice read forwards and backwards, and the same operations run in the
    same order, in place.
    """
    out = np.zeros(n + 1, dtype=np.float64)
    if n < 2:
        return out
    cap = delta.shape[0] - 1
    rf = np.arange(1, n, dtype=np.float64)
    mf = rf[::-1]  # n - i, exact in float64
    if n - 1 <= cap:
        res = delta[1:n]
    else:
        res = np.concatenate([delta[1:], residual_series(rf[cap:])])
    main = out[1:n]
    np.divide(mf, rf, out=main)
    np.log1p(main, out=main)
    main *= rf
    tmp = rf / mf
    np.log1p(tmp, out=tmp)
    tmp *= mf
    main += tmp
    np.multiply(rf, 2.0 * math.pi, out=tmp)
    tmp *= mf
    np.divide(float(n), tmp, out=tmp)
    np.log(tmp, out=tmp)
    tmp *= 0.5
    main += tmp
    main += delta[n] if n <= cap else residual_series(n)
    main -= res
    main -= res[::-1]
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


def log_mean_law(
    delta: np.ndarray, N: int, ps: np.ndarray, log_ws: np.ndarray
) -> np.ndarray:
    """log q_i of the mixture-of-binomials count law, i = 0..N.

    Atoms at 0 and 1 are point masses at the ends.  Each interior atom adds
    lw + log C(N, i) + i log p + (N - i) log(1 - p) by logaddexp; the first
    one is copied in, as logaddexp(-inf, x) is exactly x.
    """
    log_choose = _log_binomial_row(delta, N)
    i = np.arange(N + 1, dtype=np.float64)
    lq = np.full(N + 1, NEG_INF, dtype=np.float64)
    term = np.empty(N + 1, dtype=np.float64)
    buf = np.empty(N + 1, dtype=np.float64)
    interior = False
    for p, lw in zip(ps, log_ws):
        if p <= 0.0:
            lq[0] = np.logaddexp(lq[0], lw)
        elif p >= 1.0:
            lq[N] = np.logaddexp(lq[N], lw)
        else:
            np.add(log_choose, lw, out=term)
            term += np.multiply(i, math.log(p), out=buf)
            term += np.multiply(i[::-1], math.log1p(-p), out=buf)
            if interior:
                np.logaddexp(lq, term, out=lq)
            else:
                # only the end points of lq can be finite yet
                term[[0, N]] = np.logaddexp(lq[[0, N]], term[[0, N]])
                lq, term = term, lq
                interior = True
    return lq


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
