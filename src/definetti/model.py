"""Mixing measures, prefix events, count laws, and moment sequences.

All types are immutable and every operation is a pure function, so any of
them can be shared across threads.  Arithmetic follows the inputs: rational
atoms/weights (Fraction or int) run exactly end to end, floats run in
double precision with compensated summation where cancellation bites.  An
exact count law or moment vector is always integer numerators over one
denominator, a float one float64 values (``_Ratios``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from . import _kernels
from .numerics import DomainError, binomial, check_index_range

Value = Union[Fraction, int, float]

FLOAT_SUM_TOL = 1e-12
# The most bytes of numbers a ``sample_mean_law`` law may hold.  Exact
# numerators take about N log2(d) bits each over the atoms' denominator d:
# exact N = 4e4 over d = 10, the largest size the README and ROADMAP use,
# holds 0.62 GiB (700 MB RSS).  A float law, 32 bytes an entry, stops near 3.4e7.
LAW_MAX_BYTES = 2**30
# float results whose estimated rounding error exceeds this relative level
# get the cancellation flag
CANCELLATION_TOL = 1e-6


def any_size(convert, x):
    """``convert(x)``, retried once with CPython's int<->str digit limit
    (4300 by default) lifted when it raises ValueError; the limit is
    restored before returning.

    Exact reports at N in the thousands carry integers far past the limit,
    and so can a certificate.  Only a failed conversion takes the retry, so
    short numbers pay nothing.
    """
    try:
        return convert(x)
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
            raise
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(x)
        finally:
            sys.set_int_max_str_digits(old)


class ValidationError(ValueError):
    """An input object violates one of its stated invariants."""


class ExtendabilityError(Exception):
    """A moment vector admits no exchangeable law at the requested level.

    Carries the offending negative weight as the certificate.
    """

    def __init__(self, level: int, index: int, value: Value):
        self.level = level
        self.index = index
        self.value = value
        super().__init__(
            f"moment vector is not extendable to level {level}: "
            f"weight q_{index} = {any_size(str, value)} < 0"
        )


def is_exact(values: Sequence[Value]) -> bool:
    return all(isinstance(v, (Fraction, int)) and not isinstance(v, bool) for v in values)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrefixEvent:
    """A fixed 0/1 outcome pattern for the first k coordinates."""

    pattern: tuple[int, ...]

    def __post_init__(self):
        if len(self.pattern) < 1:
            raise ValidationError("pattern must have length at least 1")
        if any(e not in (0, 1) for e in self.pattern):
            raise ValidationError(f"pattern entries must be 0 or 1: {self.pattern}")

    @property
    def k(self) -> int:
        return len(self.pattern)

    @property
    def alpha(self) -> int:
        return sum(self.pattern)

    @classmethod
    def from_string(cls, text: str) -> "PrefixEvent":
        try:
            bits = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValidationError(f"malformed pattern {text!r}") from exc
        return cls(bits)


@dataclass(frozen=True)
class MixingMeasure:
    """Discrete probability measure on [0, 1]: (location, weight) atoms.

    Locations are strictly increasing; weights are positive and sum to one
    (exactly for rational input, within 1e-12 for floats).
    """

    atoms: tuple[tuple[Value, Value], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("measure needs at least one atom")
        prev = None
        for p, w in self.atoms:
            if not 0 <= p <= 1:
                raise ValidationError(f"atom location {p} outside [0, 1]")
            if not w > 0:   # also NaN; an infinite weight fails the sum check
                raise ValidationError(f"atom weight {w} is not positive")
            if prev is not None and not p > prev:
                raise ValidationError("atom locations must be strictly increasing")
            prev = p
        total = sum(w for _, w in self.atoms)
        if self.is_exact:
            if total != 1:
                raise ValidationError(f"weights sum to {total}, expected 1")
        elif abs(total - 1) > FLOAT_SUM_TOL:
            raise ValidationError(f"weights sum to {total!r}, expected 1 within 1e-12")

    @property
    def is_exact(self) -> bool:
        return is_exact([x for pair in self.atoms for x in pair])

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[Value, Value]]) -> "MixingMeasure":
        """Build from unordered pairs, merging duplicate locations."""
        merged: dict[Value, Value] = {}
        for p, w in pairs:
            merged[p] = merged.get(p, 0) + w
        return cls(tuple(sorted(merged.items(), key=lambda pw: pw[0])))

    @classmethod
    def from_count_law(cls, law: "SampleMeanLaw") -> "MixingMeasure":
        """Atoms at i/N carrying the law's nonzero weights.  An exact law's
        own integer checks (nonnegative numerators summing to their
        denominator) are the measure's invariants, so none is repeated."""
        N, form = law.N, law.integer_form()
        if form is None:
            return cls(tuple((i / N, q) for i, q in enumerate(law.weights) if q != 0))
        nums, den = form
        mu = cls.__new__(cls)
        atoms = tuple((Fraction(i, N), Fraction(v, den)) for i, v in enumerate(nums) if v)
        object.__setattr__(mu, "atoms", atoms)
        return mu

    @classmethod
    def point_mass(cls, p: Value) -> "MixingMeasure":
        one = Fraction(1) if isinstance(p, (Fraction, int)) else 1.0
        return cls(((p, one),))


class _Ratios:
    """Values held in one of two forms: exact ones as integer numerators
    over one common denominator (``integer_form``), whose Fractions
    materialize lazily (``_values``), or float64 ones.

    This class alone picks the form.  All-exact values go over the lcm of
    their denominators, with no gcd per entry; any float among them makes
    every value float64.  A subclass supplies only its invariant check,
    ``_check(values, den, tol)``: integer numerators over ``den`` with
    ``tol = 0``, or floats over ``den = 1.0`` with slack ``tol``.
    """

    __slots__ = ("_values", "_nums", "_den")

    def _hold(self, values: Iterable[Value]) -> None:
        values = tuple(values)
        if is_exact(values):
            self._hold_ratios([(v.numerator, v.denominator) for v in values])
            return
        try:
            floats = tuple(map(float, values))
        except OverflowError as exc:   # an exact entry past the float range
            raise ValidationError(
                f"{type(self).__name__} entry outside the float range: {exc}"
            ) from exc
        self._check(floats, 1.0, FLOAT_SUM_TOL)
        self._values, self._nums, self._den = floats, None, None

    def _hold_ratios(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Fractions n/d, given as unreduced (n, d) pairs with d > 0, as
        integer numerators over the lcm of the d."""
        den = math.lcm(*{d for _, d in pairs})
        self._hold_integers([n * (den // d) for n, d in pairs], den)

    def _hold_integers(self, nums: Sequence[int], den: int) -> None:
        self._check(nums, den, 0)
        self._values, self._nums, self._den = None, tuple(nums), den

    @classmethod
    def from_integer_ratios(cls, nums: Sequence[int], den: int):
        """Exact values nums[i] / den, validated without any reduction."""
        obj = cls.__new__(cls)
        obj._hold_integers(nums, den)
        return obj

    @classmethod
    def _from_entries(cls, entries: Sequence[tuple[int, int] | float]):
        """Values read from a file (``io._entry``): unreduced (numerator,
        denominator) pairs, or floats among them."""
        obj = cls.__new__(cls)
        if any(isinstance(v, float) for v in entries):
            obj._hold(v if isinstance(v, float) else Fraction(*v) for v in entries)
        else:
            obj._hold_ratios(entries)
        return obj

    def _exact_or_float(self) -> tuple[Value, ...]:
        if self._values is None:
            self._values = tuple(Fraction(v, self._den) for v in self._nums)
        return self._values

    @property
    def _last(self) -> int:
        """Index of the last value: a law's N, a moment vector's order."""
        return len(self._values if self._nums is None else self._nums) - 1

    @property
    def is_exact(self) -> bool:
        return self._nums is not None

    def integer_form(self) -> tuple[tuple[int, ...], int] | None:
        """(numerators, denominator) of exact values; None for floats."""
        return None if self._nums is None else (self._nums, self._den)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._exact_or_float() == other._exact_or_float()


def _check_law(nums: Sequence, den: Value, tol: float) -> None:
    """q_i = nums[i] / den are nonnegative and sum to one: integers over a
    positive den with tol = 0, or floats over den = 1 within tol."""
    if len(nums) < 2:
        raise ValidationError("count law needs at least two entries (N >= 1)")
    if den <= 0:
        raise ValidationError("denominator must be positive")
    show = (lambda v: v) if tol else (lambda v: Fraction(v, den))
    if min(nums) < 0:
        i = next(i for i, v in enumerate(nums) if v < 0)
        raise ValidationError(f"weight q_{i} = {show(nums[i])} is negative")
    total = sum(nums)
    if not abs(total - den) <= tol:   # also a NaN or infinite weight
        want = "1 within 1e-12" if tol else "1"
        raise ValidationError(f"weights sum to {show(total)}, expected {want}")


class SampleMeanLaw(_Ratios):
    """Distribution of the sample mean over {0, 1/N, ..., 1} as weights q_0..q_N.

    Held in one of the two forms of ``_Ratios``, so N ~ 1e4 exact pipelines
    are free of per-entry gcd reductions, which would otherwise dominate
    the runtime.  N is the index of the last weight.
    """

    _check = staticmethod(_check_law)
    N = _Ratios._last
    cancellation_flagged = False   # for laws built without __init__

    def __init__(
        self,
        N: int,
        weights: Sequence[Value],
        cancellation_flagged: bool = False,
    ):
        if N < 1:
            raise ValidationError("N must be positive")
        weights = tuple(weights)
        if len(weights) != N + 1:
            raise ValidationError(
                f"expected {N + 1} weights for N={N}, got {len(weights)}"
            )
        self._hold(weights)
        self.cancellation_flagged = cancellation_flagged

    @property
    def weights(self) -> tuple[Value, ...]:
        return self._exact_or_float()

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "float"
        return f"SampleMeanLaw(N={self.N}, {kind})"


def _check_moments(nums: Sequence, den: Value, tol: float) -> None:
    """c_0 = 1 and 1 >= c_1 >= ... >= c_n >= 0 for c_j = nums[j] / den:
    integers over a positive den with tol = 0, or floats over den = 1 with
    slack tol.  A Fraction is built only for an error message."""
    if not nums:
        raise ValidationError("moment vector must not be empty")
    if den <= 0:
        raise ValidationError("denominator must be positive")
    if tol:   # floats: NaN would pass every comparison below
        for j, v in enumerate(nums):
            if not math.isfinite(v):
                raise ValidationError(f"moment c_{j} = {v!r} is not finite")
    show = (lambda v: v) if tol else (lambda v: Fraction(v, den))
    if abs(nums[0] - den) > tol:
        want = "1 within 1e-12" if tol else "exactly 1"
        raise ValidationError(f"c_0 = {show(nums[0])}, expected {want}")
    for j in range(len(nums) - 1):
        if nums[j + 1] - nums[j] > tol:
            raise ValidationError(
                f"moments must be nonincreasing: c_{j} = {show(nums[j])} < c_{j + 1} = {show(nums[j + 1])}"
            )
    if nums[-1] < -tol:
        raise ValidationError(f"moments must be nonnegative: c_{len(nums) - 1} = {show(nums[-1])}")


class MomentVector(_Ratios):
    """Prefix probabilities c_j = P(first j coordinates all one), c_0 = 1.

    Held in one of the two forms of ``_Ratios``, as ``SampleMeanLaw`` is.
    Construction enforces only the necessary monotonicity
    1 >= c_1 >= ... >= c_n >= 0 (floats within 1e-12), in integers for an
    exact vector; full realizability is the job of
    check_complete_monotonicity.
    """

    __slots__ = ()
    _check = staticmethod(_check_moments)
    order = _Ratios._last

    def __init__(self, c: Sequence[Value]):
        self._hold(c)

    @property
    def c(self) -> tuple[Value, ...]:
        return self._exact_or_float()


@dataclass(frozen=True)
class MonotonicityCheck:
    """Outcome of the alternating-difference test on a moment vector."""

    ok: bool
    order: int | None = None
    index: int | None = None
    value: Value | None = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def mixture_prefix_prob(mu: MixingMeasure, e: PrefixEvent) -> Value:
    """P(prefix pattern) under the mixture of iid coin flips drawn from mu."""
    k, alpha = e.k, e.alpha
    return sum(w * p**alpha * (1 - p) ** (k - alpha) for p, w in mu.atoms)


def sample_mean_law(mu: MixingMeasure, N: int) -> SampleMeanLaw:
    """Law of the sample mean of N coordinates under the mixture; exact for
    rational atoms, log-space double precision otherwise.

    An atom p = a/d with weight w = u/v adds u C(N, i) a^i (d-a)^(N-i) / (v d^N)
    to q_i.  Over the lcm D of the atoms' v d^N these are integers, built
    by one multiplicative recurrence per atom, whose exact floor divisions
    carry the binomial along: no Fractions, no gcds.  A law past
    LAW_MAX_BYTES is a DomainError, raised before any of that work.
    """
    if N < 1:
        raise ValidationError("N must be positive")
    check_index_range(N)
    size = (N + 1) * 32   # a float and its tuple slot
    if mu.is_exact:
        p_den, w_den = (math.lcm(*(x.denominator for x in xs)) for xs in zip(*mu.atoms))
        size = (N + 1) * (N * math.log2(p_den) + math.log2(w_den)) / 8
    if size > LAW_MAX_BYTES:
        raise DomainError(f"the count law at N={N} would hold about {size / 2**30:.3g} GB, "
                          f"more than the {LAW_MAX_BYTES / 2**30:g} GB it may take")
    if not mu.is_exact:
        idx, log_q = _log_mean_law_array(mu.atoms, N)
        q = np.zeros(N + 1, dtype=np.float64)
        q[idx] = np.exp(log_q)
        return SampleMeanLaw(N=N, weights=tuple(q.tolist()))
    atom_dens = [w.denominator * p.denominator**N for p, w in mu.atoms]
    den = math.lcm(*atom_dens)
    nums = [0] * (N + 1)
    for (p, w), d in zip(mu.atoms, atom_dens):
        scale = w.numerator * (den // d)
        a, b = p.numerator, p.denominator - p.numerator
        if b == 0:   # p = 1
            nums[N] += scale * a**N
            continue
        t = scale * b**N   # i = 0
        nums[0] += t
        for i in range(N if a else 0):
            t = t * ((N - i) * a) // ((i + 1) * b)
            nums[i + 1] += t
    return SampleMeanLaw.from_integer_ratios(nums, den)


def _log_mean_law_array(
    atoms: Sequence[tuple[Value, Value]], N: int
) -> tuple[np.ndarray, np.ndarray]:
    """(idx, log q_idx) of the float count law of the (p, w) atoms on its
    support (``_kernels``); the weights need not sum to one.  The indices
    are int64, so N must fit there."""
    check_index_range(N)
    ps = np.array([float(p) for p, _ in atoms], dtype=np.float64)
    log_ws = np.log(np.array([float(w) for _, w in atoms], dtype=np.float64))
    return _kernels.log_mean_law(_kernels.RESIDUALS, N, ps, log_ws)


def level_moments(
    source: SampleMeanLaw | MixingMeasure | Iterable[tuple[Value, Value]], k: int
) -> tuple[list[int], int]:
    """c_0..c_k, c_j = P(the first j coordinates are all one), as integer
    numerators over one denominator.

    For a measure (or any (p, w) atoms, whose weights need not sum to one)
    c_j = sum w p^j at every level; a float enters by its exact
    ``as_integer_ratio``, so float atoms give one power-of-two denominator.
    For an exact count law at level N, c_j = E[S^(j)] / N^(j) with falling
    factorials x^(j) = x (x-1) ... (x-j+1), and E[S^(j)] = j! B_j with the
    binomial moments B_j = sum_i C(i, j) q_i.  Since sum_i q_i x^i =
    sum_j B_j (x - 1)^j, dividing the law's polynomial by x - 1 j times
    leaves B_j as the remainder; each division is one running sum of N
    bignum additions, with no products.  No coordinate j > N exists, so
    c_j = 0 there (only its product N^(j) c_j = 0 is ever read, by
    ``kernel_mean``).
    """
    if isinstance(source, SampleMeanLaw):
        nums, den = source.integer_form()
        N = source.N
        top = min(k, N)
        out, rev = [], nums[::-1]   # highest coefficient first
        for j in range(top + 1):
            rev = list(itertools.accumulate(rev))
            # the remainder is the full sum; the rest is the quotient
            out.append(rev.pop() * math.factorial(j) * math.perm(N - j, top - j))
        return out + [0] * (k - top), den * math.perm(N, top)
    if isinstance(source, MixingMeasure):
        source = source.atoms
    atoms = [(p.as_integer_ratio(), w.as_integer_ratio()) for p, w in source]
    den = math.lcm(*(v * b**k for (_, b), (_, v) in atoms))
    out = [0] * (k + 1)
    for (a, b), (u, v) in atoms:
        t = u * (den // v)   # w p^0 over den
        for j in range(k + 1):
            out[j] += t
            t = t * a // b   # exact for j < k: den holds b^k
    return out, den


@functools.lru_cache(maxsize=64)
def _stirling2_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows n = 0..m of the Stirling numbers of the second kind S(n, j):
    x^n = sum_j S(n, j) x^(j).  Built once per m."""
    rows = [(1,)]
    for n in range(1, m + 1):
        prev = rows[-1] + (0,)
        rows.append((0, *(j * prev[j] + prev[j - 1] for j in range(1, n + 1))))
    return tuple(rows)


def kernel_mean_ratios(
    moments: tuple[Sequence[int], int], N: int, k: int, alpha: int
) -> tuple[int, int, int, int]:
    """(lhs numerator, its denominator, rhs numerator, its denominator) of a
    pattern with alpha ones among k at level N, exactly, from c_0..c_k of
    ``level_moments``:

        lhs = sum_i P(prefix | count=i) q_i = sum_t (-1)^t C(k-alpha, t) c_(alpha+t),
        rhs = E[(S/N)^alpha (1 - S/N)^(k-alpha)] = sum_j t_j N^(j) c_j / N^k.

    The first is inclusion-exclusion over the k - alpha zeros.  For the
    second, E[S^(j)] = N^(j) c_j, and the polynomial S^alpha (N - S)^(k-alpha)
    = sum_t (-1)^t C(k-alpha, t) N^(k-alpha-t) S^(alpha+t) has the falling
    coefficients t_j = sum_t (-1)^t C(k-alpha, t) N^(k-alpha-t) S(alpha+t, j)
    (Stirling numbers of the second kind).  lhs needs k <= N.
    """
    nums, den = moments
    beta = k - alpha
    lhs = sum((-1) ** t * math.comb(beta, t) * nums[alpha + t] for t in range(beta + 1))
    coef = [0] * (k + 1)
    stirling = _stirling2_rows(k)
    for t in range(beta + 1):
        scale = (-1) ** t * math.comb(beta, t) * N ** (beta - t)
        for j, s in enumerate(stirling[alpha + t]):
            coef[j] += scale * s
    rhs = sum(c * math.perm(N, j) * nums[j] for j, c in enumerate(coef) if c)
    return lhs, den, rhs, den * N**k


def kernel_mean(
    moments: tuple[Sequence[int], int], N: int, k: int, alpha: int
) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of ``kernel_mean_ratios`` as Fractions."""
    lhs, lhs_den, rhs, rhs_den = kernel_mean_ratios(moments, N, k, alpha)
    return Fraction(lhs, lhs_den), Fraction(rhs, rhs_den)


def prefix_prob_from_mean_law(law: SampleMeanLaw, e: PrefixEvent) -> Value:
    """P(prefix pattern) implied by a count law via the exchangeable
    conditional weights: sum_i P(prefix | count=i) q_i.

    An exact law's value is ``kernel_mean``'s lhs over its ``level_moments``."""
    N, k, alpha = law.N, e.k, e.alpha
    if k > N:
        raise ValidationError(f"pattern length {k} exceeds N={N}")
    if law.is_exact:
        return kernel_mean(level_moments(law, k), N, k, alpha)[0]
    q = np.array(law.weights, dtype=np.float64)
    idx = np.flatnonzero(q)
    log_a, _ = _kernels.scan_log_ab(_kernels.RESIDUALS, N, k, alpha, idx)
    return math.fsum(np.exp(log_a) * q[idx])


def moments_from_measure(mu: MixingMeasure, n: int) -> MomentVector:
    """Raw moments c_j = E[p^j], j = 0..n."""
    if n < 0:
        raise ValidationError("moment order must be nonnegative")
    return MomentVector(sum(w * p**j for p, w in mu.atoms) for j in range(n + 1))


def prefix_prob_from_moments(c: MomentVector, e: PrefixEvent) -> Value:
    """P(prefix pattern) from the moment sequence by inclusion-exclusion:
    sum_t (-1)^t C(k-alpha, t) c_{alpha+t}."""
    k, alpha = e.k, e.alpha
    if k > c.order:
        raise ValidationError(
            f"pattern length {k} needs moments up to order {k}, have {c.order}"
        )
    terms = [
        (-1) ** t * binomial(k - alpha, t) * c.c[alpha + t] for t in range(k - alpha + 1)
    ]
    if c.is_exact:
        return sum(terms, Fraction(0))
    return math.fsum(terms)


def _difference_rows(nums: Sequence) -> Iterator[Sequence]:
    """Rows m = 0..n of the alternating difference table of c_0..c_n, given
    as floats or as exact integer numerators over one denominator D
    (``integer_form``): row m holds (-1)^m Delta^m c_j, j = 0..n-m, over the
    same D.  Rows come lazily; no Fraction (and so no gcd) is built."""
    row = nums
    while row:
        yield row
        row = list(map(operator.sub, row, row[1:]))


def mean_law_from_moments(c: MomentVector, n: int) -> SampleMeanLaw:
    """The unique level-n exchangeable count law with the given moments:
    q_j = C(n, j) sum_t (-1)^t C(n-j, t) c_{j+t} = C(n, j) (-1)^(n-j) Delta^(n-j) c_j.

    The identity is the binomial expansion of (-1)^m Delta^m = (1 - E)^m,
    with E the shift c_j -> c_{j+1} and m = n - j.

    Raises ExtendabilityError carrying the first negative weight when the
    vector admits no such law.  Rational input is integer numerators over
    one denominator D (``MomentVector.integer_form``).  The inner sum for q_j
    is the last entry of row n - j of the integer alternating difference
    table of c_0..c_n (``_difference_rows``, the table that
    ``check_complete_monotonicity`` scans): O(n^2) integer subtractions and
    no per-term binomials or gcds.  The law keeps those numerators over the
    same D, so validating it sums integers.  The float path uses
    exactly-rounded summation and flags the law when cancellation may exceed
    1e-6 relative.
    """
    if n < 1:
        raise ValidationError("level must be positive")
    if c.order < n:
        raise ValidationError(f"need moments up to order {n}, have {c.order}")
    form = c.integer_form()
    if form is not None:
        c_nums, D = form
        rows = _difference_rows(c_nums[: n + 1])
        last = [row[-1] for row in rows]   # last[m] = (-1)^m Delta^m c_(n-m)
        nums = []
        choose = 1  # C(n, j)
        for j in range(n + 1):
            q = choose * last[n - j]
            if q < 0:
                raise ExtendabilityError(level=n, index=j, value=Fraction(q, D))
            nums.append(q)
            choose = choose * (n - j) // (j + 1)
        return SampleMeanLaw.from_integer_ratios(nums, D)
    weights: list[Value] = []
    flagged = False
    for j in range(n + 1):
        terms = [
            (-1) ** t * binomial(n - j, t) * c.c[j + t] for t in range(n - j + 1)
        ]
        inner = math.fsum(terms)
        gross = math.fsum(abs(t) for t in terms)
        q = binomial(n, j) * inner
        if gross > 0 and abs(inner) < CANCELLATION_TOL * gross:
            flagged = True
        if q < -FLOAT_SUM_TOL:
            raise ExtendabilityError(level=n, index=j, value=q)
        weights.append(max(q, 0.0))
    total = math.fsum(weights)
    if abs(total - 1) > FLOAT_SUM_TOL:
        raise ExtendabilityError(level=n, index=0, value=total - 1)
    return SampleMeanLaw(N=n, weights=tuple(weights), cancellation_flagged=flagged)


def check_complete_monotonicity(c: MomentVector) -> MonotonicityCheck:
    """Alternating finite differences (-1)^m Delta^m c_j >= 0 for m + j <= n.

    Scans the table of ``_difference_rows`` depth by depth and reports the
    first negative difference as the certificate: in integers for rational
    input, in floats with a 1e-12 slack otherwise.
    """
    form = c.integer_form()
    values, tol = (c.c, FLOAT_SUM_TOL) if form is None else (form[0], 0)
    rows = _difference_rows(values)
    next(rows)   # row 0 is c itself
    for m, row in enumerate(rows, start=1):
        if min(row) < -tol:
            j = next(j for j, v in enumerate(row) if v < -tol)
            value = row[j] if form is None else Fraction(row[j], form[1])
            return MonotonicityCheck(ok=False, order=m, index=j, value=value)
    return MonotonicityCheck(ok=True)

