import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import definetti as d
from definetti import _kernels

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


def dense_log_mean_law(delta, N, ps, log_ws):
    """Reference count law on every index 0..N: each atom's term over the
    whole row (the gather-form log C(N, i)), combined by logaddexp in order."""
    i = np.arange(N + 1, dtype=np.float64)
    log_choose = _kernels.log_binomial_array_np(delta, N, np.arange(N + 1))
    lq = np.full(N + 1, _kernels.NEG_INF)
    for p, lw in zip(ps, log_ws):
        term = np.full(N + 1, _kernels.NEG_INF)
        if p <= 0.0:
            term[0] = lw
        elif p >= 1.0:
            term[N] = lw
        else:
            term = log_choose + lw + i * math.log(p) + (N - i) * math.log1p(-p)
        lq = np.logaddexp(lq, term)
    return lq
