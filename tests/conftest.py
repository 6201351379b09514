import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import definetti as d
from definetti import _kernels, model

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def three_atom_mu():
    """The reference three-atom measure {0.2: 0.3, 0.5: 0.4, 0.9: 0.3}."""
    return d.MixingMeasure(
        (
            (Fraction(1, 5), Fraction(3, 10)),
            (Fraction(1, 2), Fraction(2, 5)),
            (Fraction(9, 10), Fraction(3, 10)),
        )
    )


@pytest.fixture(scope="session")
def fair_coin():
    return d.MixingMeasure(((Fraction(1, 2), Fraction(1)),))


def random_rational_measure(rng: random.Random, max_atoms: int = 4,
                            max_den: int = 12) -> d.MixingMeasure:
    """Seeded random discrete measure with small rational data."""
    n_atoms = rng.randint(1, max_atoms)
    locs = set()
    while len(locs) < n_atoms:
        den = rng.randint(1, max_den)
        locs.add(Fraction(rng.randint(0, den), den))
    locs = sorted(locs)
    raw = [Fraction(rng.randint(1, 9)) for _ in locs]
    total = sum(raw)
    return d.MixingMeasure(tuple((p, w / total) for p, w in zip(locs, raw)))


def measure_moments(mu, n):
    """The exact moment vector c_j = E[p^j], j = 0..n, of a rational measure."""
    return model.MomentVector.from_integer_ratios(*model.level_moments(mu, n))


def kernel_mean(moments, N, k, alpha):
    """(lhs, rhs) of ``model.kernel_mean_ratios`` as Fractions."""
    lhs, lhs_den, rhs, rhs_den = model.kernel_mean_ratios(moments, N, k, alpha)
    return Fraction(lhs, lhs_den), Fraction(rhs, rhs_den)


def kernel_gap(law, target, a, k):
    """E[(S/N)^a (1 - S/N)^(k-a)] under an exact count law minus
    E[p^a (1-p)^(k-a)] under a measure, exactly; the monomial p^m is the
    a = k = m kernel.  Both sides are direct sums: the law's of
    q_i i^a (N-i)^(k-a) / N^k over its integer numerators, the measure's
    over its atoms."""
    nums, den = law.integer_form()
    N = law.N
    law_side = Fraction(sum(q * i**a * (N - i) ** (k - a) for i, q in enumerate(nums)), den * N**k)
    return law_side - sum(w * p**a * (1 - p) ** (k - a) for p, w in target.atoms)


def dense_log_mean_law(N, ps, log_ws):
    """Reference count law on every index 0..N at 40 digits (mpmath), rounded
    once to float64: each atom's binomial terms run from its mode outward by
    q_{i+1} / q_i = (N - i) p / ((i + 1) (1 - p)) until they fall below
    1e-400, far under float64's smallest subnormal; the float atoms and log
    weights are taken at their exact values."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        tiny = mpmath.mpf("1e-400")
        q = [mpmath.mpf(0)] * (N + 1)
        for p, lw in zip(np.asarray(ps).tolist(), np.asarray(log_ws).tolist()):
            w = mpmath.exp(mpmath.mpf(lw))
            if p <= 0.0 or p >= 1.0:
                q[0 if p <= 0.0 else N] += w
                continue
            pm = mpmath.mpf(p)
            odds = pm / (1 - pm)
            mode = min(N, math.floor(N * p))
            head = w * mpmath.exp(
                mpmath.loggamma(N + 1) - mpmath.loggamma(mode + 1)
                - mpmath.loggamma(N - mode + 1)
                + mode * mpmath.log(pm) + (N - mode) * mpmath.log1p(-pm)
            )
            q[mode] += head
            t, i = head, mode
            while i < N and t >= tiny:
                t = t * (N - i) * odds / (i + 1)
                i += 1
                q[i] += t
            t, i = head, mode
            while i > 0 and t >= tiny:
                t = t * i / ((N - i + 1) * odds)
                i -= 1
                q[i] += t
        return np.array([float(mpmath.log(x)) if x > 0 else _kernels.NEG_INF for x in q])
