import math
import random
from fractions import Fraction

import pytest

from definetti.model import (
    ExtendabilityError,
    MixingMeasure,
    MomentVector,
    sample_mean_law,
)
from definetti.recovery import recover_from_moments

from conftest import kernel_gap, measure_moments, random_rational_measure

F = Fraction


def polya_vector(n):
    return MomentVector(tuple(F(1, j + 1) for j in range(n + 1)))


# ---------------------------------------------------------------------------
# recovery from moments
# ---------------------------------------------------------------------------

def test_recover_polya_level2():
    rec = recover_from_moments(polya_vector(2), 2)
    assert rec.level == 2
    assert rec.measure.atoms == (
        (F(0), F(1, 3)),
        (F(1, 2), F(1, 3)),
        (F(1), F(1, 3)),
    )


def test_recover_point_mass_moments():
    c = MomentVector(tuple(F(1, 2) ** j for j in range(5)))
    rec = recover_from_moments(c, 4)
    assert rec.measure.atoms == tuple(
        (F(i, 4), F(math.comb(4, i), 16)) for i in range(5)
    )


def test_recover_rejects_with_certificate():
    with pytest.raises(ExtendabilityError) as err:
        recover_from_moments(MomentVector((F(1), F(1, 2), F(0), F(0))), 3)
    assert err.value.value == F(-1, 2)


@pytest.mark.parametrize("n", [1, 2, 8, 33, 64])
def test_exact_round_trip(n):
    rng = random.Random(n)
    mu = random_rational_measure(rng)
    law = sample_mean_law(mu, n)
    rec = recover_from_moments(measure_moments(mu, n), n)
    recovered = dict(rec.measure.atoms)
    for i, q in enumerate(law.weights):
        if q != 0:
            assert recovered[F(i, n)] == q
        else:
            assert F(i, n) not in recovered


def test_degenerate_point_masses_recover_exactly():
    for p in (F(0), F(1)):
        mu = MixingMeasure.point_mass(p)
        for n in (1, 7, 32):
            rec = recover_from_moments(measure_moments(mu, n), n)
            assert rec.measure.atoms == ((p, F(1)),)


def test_recovered_atoms_in_unit_interval():
    rng = random.Random(77)
    mu = random_rational_measure(rng)
    rec = recover_from_moments(measure_moments(mu, 20), 20)
    assert all(0 <= p <= 1 for p, _ in rec.measure.atoms)


def test_moment_matching_improves_with_level():
    c = polya_vector(64)
    for j in (1, 2, 3, 4):
        gaps = []
        for n in (8, 16, 32, 64):
            rec = recover_from_moments(c, n)
            cj = sum(w * p**j for p, w in rec.measure.atoms)
            gaps.append(abs(cj - F(1, j + 1)))
        assert gaps == sorted(gaps, reverse=True)
        if j >= 2:
            assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        else:
            assert gaps[-1] == 0  # the mean is matched exactly at every level


# ---------------------------------------------------------------------------
# weak convergence diagnostics
# ---------------------------------------------------------------------------

def test_monomial_gap_m1_always_zero():
    rng = random.Random(41)
    for _ in range(4):
        mu = random_rational_measure(rng)
        N = rng.randint(8, 120)
        law = sample_mean_law(mu, N)
        assert kernel_gap(law, mu, 0, 0) == 0
        assert kernel_gap(law, mu, 1, 1) == 0


def test_variance_gap_point_mass(fair_coin):
    assert kernel_gap(sample_mean_law(fair_coin, 100), fair_coin, 2, 2) == F(1, 400)


def test_gaps_shrink_with_n(three_atom_mu):
    small = sample_mean_law(three_atom_mu, 100)
    big = sample_mean_law(three_atom_mu, 1000)
    for m in range(2, 5):
        assert abs(kernel_gap(big, three_atom_mu, m, m)) < abs(kernel_gap(small, three_atom_mu, m, m))


def test_kernel_gaps_present_and_nonnegative(three_atom_mu):
    # the kernels C(k, a) p^a (1-p)^(k-a) sum to one over a under both the
    # law and the measure, so their weighted gaps cancel at every k
    law = sample_mean_law(three_atom_mu, 50)
    for k in range(1, 4):
        gaps = [kernel_gap(law, three_atom_mu, a, k) for a in range(k + 1)]
        assert all(isinstance(g, Fraction) for g in gaps)
        assert sum(math.comb(k, a) * g for a, g in enumerate(gaps)) == 0
        assert any(gaps) == (k >= 2)


def test_gap_float_law_close_to_exact(three_atom_mu):
    mu_f = MixingMeasure(tuple((float(p), float(w)) for p, w in three_atom_mu.atoms))
    exact = sample_mean_law(three_atom_mu, 40)
    approx = sample_mean_law(mu_f, 40)
    for k in range(4):
        for a in range(k + 1):
            law_side = math.fsum(
                (i / 40) ** a * (1 - i / 40) ** (k - a) * q for i, q in enumerate(approx.weights)
            )
            mu_side = math.fsum(w * p**a * (1 - p) ** (k - a) for p, w in mu_f.atoms)
            want = float(kernel_gap(exact, three_atom_mu, a, k))
            assert abs(law_side - mu_side - want) < 1e-12, (a, k)


# ---------------------------------------------------------------------------
# level-n recovery of the uniform mixing measure
# ---------------------------------------------------------------------------

def test_polya_recovery_close_to_uniform_grid():
    rec = recover_from_moments(polya_vector(16), 16)
    assert rec.measure.atoms == tuple((F(i, 16), F(1, 17)) for i in range(17))
