"""Additive energies, difference sets, and the Salem-parameter estimator."""

import random

import pytest

from conftest import field_of_order, full_space, rand_set, translate
from fqsalem.constructions import isotropic_subspace, product_set, subgroup_power
from fqsalem.energy import (_representation, energy_bruteforce, energy_convolution,
                             energy_report, pair_counts, salem_parameter)
from fqsalem.errors import BudgetExceeded, ConfigError
from fqsalem.field import field_create
from fqsalem.geometry import PointSet
from fqsalem.harness import Analysis


def test_singleton_energy(f5):
    E = PointSet.build(f5, 2, [(2, 3)])
    for k in (1, 2, 3):
        assert energy_bruteforce(E, k) == 1
        assert energy_convolution(E, k) == 1


def test_empty_set_energy(f5):
    E = PointSet.build(f5, 2, [])
    assert energy_convolution(E, 2) == 0
    assert energy_bruteforce(E, 2) == 0


def test_subgroup_energy(f5):
    # a coordinate line is an additive subgroup of size q
    E = PointSet.build(f5, 2, [(x, 0) for x in range(5)])
    for k in (1, 2, 3):
        assert energy_convolution(E, k) == 5 ** (2 * k - 1)
        assert energy_bruteforce(E, k) == 5 ** (2 * k - 1)


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (3, 3)])
def test_full_space_energy(q, d):
    F = field_create(q, 1)
    E = full_space(F, d)
    assert energy_convolution(E, 2) == q ** (3 * d)


def test_vector_space_cubed_law(f3):
    E = isotropic_subspace(f3, 4, 2)
    assert energy_convolution(E, 2) == len(E) ** 3


def test_representation_function_totals(f5):
    E = rand_set(f5, 2, 9, seed=3)
    for k in (1, 2, 3):
        keys, counts = _representation(E, k, None)
        assert counts.sum() == len(E) ** k
        assert (counts > 0).all() and (keys[1:] > keys[:-1]).all()
    keys, counts = _representation(E, 1, None)
    assert (keys == E.codes).all() and (counts == 1).all()


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 2), (3, 3), (9, 2), (25, 2), (27, 1)])
def test_convolution_matches_bruteforce(q, d):
    F = field_of_order(q)
    rng = random.Random(q * 10 + d)
    for trial in range(6):
        size = rng.randrange(2, min(20, q ** d) + 1)
        E = rand_set(F, d, size, seed=trial)
        for k in (1, 2):
            assert energy_convolution(E, k) == energy_bruteforce(E, k)
        small = rand_set(F, d, min(size, 6), seed=trial)
        assert energy_convolution(small, 3) == energy_bruteforce(small, 3)


def test_energy_bounds_sandwich(f5):
    for seed in range(5):
        E = rand_set(f5, 2, 4 + 3 * seed, seed)
        for k in (1, 2):
            lam = energy_convolution(E, k)
            assert len(E) ** k <= lam <= len(E) ** (2 * k - 1)


def test_translation_invariance(f5):
    E = rand_set(f5, 2, 10, seed=8)
    for v in [(1, 2), (4, 4)]:
        assert energy_convolution(translate(E, v), 2) == energy_convolution(E, 2)


def test_energy_budget(f5):
    E = rand_set(f5, 2, 20, seed=1)
    with pytest.raises(BudgetExceeded):
        energy_bruteforce(E, 2, budget=10)


def test_invalid_k(f5):
    # refused before the empty set's shortcut, by the kernel and the oracle alike
    for E in (rand_set(f5, 2, 3, 0), PointSet.build(f5, 2, [])):
        for k in (0, -1):
            for energy in (energy_convolution, energy_bruteforce):
                with pytest.raises(ConfigError, match="k must be >= 1"):
                    energy(E, k)


def test_difference_set(f5, f9, f27):
    line = PointSet.build(f5, 2, [(x, 0) for x in range(5)])
    assert pair_counts(line).differences == line  # subgroup
    single = PointSet.build(f5, 2, [(3, 1)])
    assert set(pair_counts(single).differences.points) == {(0, 0)}
    for F in (f5, f9, f27):
        for seed in range(4):
            E = rand_set(F, 2, 7, seed)
            brute = {tuple(F.sub(a, b) for a, b in zip(x, y))
                     for x in E.points for y in E.points}
            assert set(pair_counts(E).differences.points) == brute


def test_cauchy_schwarz_chain(f7):
    for seed in range(5):
        E = rand_set(f7, 2, 5 + 4 * seed, seed)
        lam = energy_convolution(E, 2)
        assert lam * len(pair_counts(E).differences) >= len(E) ** 4


def test_salem_full_space(f5):
    assert salem_parameter(Analysis(full_space(f5, 2))) == 0.5


def test_salem_isotropic_near_quarter(f5):
    E = isotropic_subspace(f5, 4, 2)
    s = salem_parameter(Analysis(E))
    assert s == pytest.approx(0.25, abs=0.02)


def test_salem_singleton_warns(f5):
    E = PointSet.build(f5, 2, [(1, 1)])
    with pytest.warns(UserWarning):
        assert salem_parameter(Analysis(E)) == 0.5
    with pytest.warns(UserWarning):  # the energy section reads s from the Analysis
        assert energy_report(Analysis(E), 2)["salemS"] == 0.5
    with pytest.raises(ConfigError):
        salem_parameter(Analysis(PointSet.build(f5, 2, [])))


def test_product_multiplicativity(f5):
    for seed in range(5):
        A = rand_set(f5, 2, 4 + seed, seed)
        B = rand_set(f5, 1, 3, seed + 100)
        E = product_set(A, B)
        assert energy_convolution(E, 2) == (energy_convolution(A, 2)
                                            * energy_convolution(B, 2))


def test_subgroup_power_law(f7):
    for m in (1, 2, 3, 6):
        for d in (1, 2, 3):
            E = subgroup_power(f7, m, d)
            A = subgroup_power(f7, m, 1)
            assert energy_convolution(E, 2) == energy_convolution(A, 2) ** d


def test_energy_report_serialization(f5):
    E = rand_set(f5, 2, 8, seed=9)
    js = energy_report(Analysis(E), 2)
    assert js["lambda"] == str(energy_bruteforce(E, 2))
    assert js["size"] == 8 and js["q"] == 5 and js["k"] == 2
    assert 0.25 <= js["salemS"] <= 0.5
