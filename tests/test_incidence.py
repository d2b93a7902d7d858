"""Point-hyperplane incidence counts, bounds, dilation, and difference families."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from conftest import difference_family_oracle, field_of_order, rand_set
from fqsalem import incidence
from fqsalem.energy import energy_bruteforce, pair_counts
from fqsalem.errors import ConfigError, InvariantViolation
from fqsalem.field import field_create
from fqsalem.geometry import HyperplaneMultiset, PointSet, all_vectors, full_space, sphere
from fqsalem.harness import oracle_incidences
from fqsalem.incidence import (count_incidences, difference_family, dilate_hyperplanes,
                                incidence_bounds, incidence_via_dilation,
                                sphere_incidence_setup)


def plane_points(F, d, a, b):
    from fqsalem.geometry import dot
    return PointSet.build(F, d, (x for x in all_vectors(F, d) if dot(F, a, x) == b))


def rand_hyperplanes(F, d, n, seed, allow_zero_b=False):
    rng = random.Random(seed)
    entries = []
    for _ in range(n):
        a = tuple(rng.randrange(F.q) for _ in range(d))
        if all(c == 0 for c in a):
            a = (1,) + a[1:]
        b = rng.randrange(F.q) if allow_zero_b else rng.randrange(1, F.q)
        entries.append((a, b, rng.randrange(1, 4)))
    return HyperplaneMultiset.build(F, d, entries)


def test_plane_self_incidence(f7):
    a, b = (1, 0, 0), 1
    P = plane_points(f7, 3, a, b)
    H = HyperplaneMultiset.build(f7, 3, [(a, b, 1)])
    assert len(P) == 49
    assert count_incidences(P, H) == 49


def test_origin_misses_offset_plane(f5):
    P = PointSet.build(f5, 2, [(0, 0)])
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 1)])
    assert count_incidences(P, H) == 0


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 2), (5, 3), (9, 2), (25, 2), (27, 2)])
def test_count_matches_oracle(q, d):
    F = field_of_order(q)
    for seed in range(5):
        P = rand_set(F, d, min(8 + 2 * seed, q ** d), seed)
        H = rand_hyperplanes(F, d, 4, seed, allow_zero_b=True)
        assert count_incidences(P, H) == oracle_incidences(P, H)
        assert count_incidences(P, H) <= len(P) * H.total


def test_counting_bounds_report(f5):
    P = rand_set(f5, 2, 12, seed=2)
    H = rand_hyperplanes(f5, 2, 5, seed=2)
    rep = incidence_bounds(P, H, s=0.3)
    assert rep["N"] == oracle_incidences(P, H)
    assert rep["mainTerm"] == Fraction(12 * H.total, 5)
    assert rep["rhs"]["uniform"] >= float(rep["mainTerm"])
    assert set(rep["rhs"]) == set(rep["ratios"]) == {"sharp", "uniform", "power43", "sqmult"}
    assert rep["ratios"]["sqmult"] == rep["N"] / rep["rhs"]["sqmult"]
    # b != 0 throughout, so the sharp bound has the smaller exponent (d-1)/4
    assert rep["rhs"]["sharp"] < rep["rhs"]["uniform"]


def test_power43_equals_uniform_when_multiplicity_one(f5):
    P = rand_set(f5, 2, 10, seed=3)
    entries = [((1, 0), 1, 1), ((0, 1), 2, 1), ((1, 1), 3, 1)]
    H = HyperplaneMultiset.build(f5, 2, entries)
    rhs = incidence_bounds(P, H, s=0.25)["rhs"]
    assert rhs["power43"] == pytest.approx(rhs["uniform"], rel=1e-12)


def test_power43_dominates_uniform_with_multiplicities(f5):
    P = rand_set(f5, 2, 10, seed=4)
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 3), ((0, 1), 2, 2)])
    rhs = incidence_bounds(P, H, s=0.25)["rhs"]
    assert rhs["power43"] >= rhs["uniform"] - 1e-12


def test_incidence_bound_sharpness_plane(f7):
    a, b = (1, 0, 0), 1
    P = plane_points(f7, 3, a, b)
    H = HyperplaneMultiset.build(f7, 3, [(a, b, 1)])
    rep = incidence_bounds(P, H, s=0.25)
    assert rep["N"] == 49
    assert rep["rhs"]["sharp"] >= 49
    assert not rep["weakBranch"]


def test_incidence_bound_empty(f5):
    P = rand_set(f5, 2, 5, 0)
    H = HyperplaneMultiset.build(f5, 2, [])
    rep = incidence_bounds(P, H, s=0.25)
    assert rep["N"] == 0 and set(rep["rhs"].values()) == {0.0}
    assert all(math.isnan(r) for r in rep["ratios"].values())


def test_incidence_bound_weak_branch(f5):
    P = rand_set(f5, 2, 5, 0)
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 0, 1)])
    strong = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 1)])
    weak = incidence_bounds(P, H, s=0.25)
    assert weak["weakBranch"]
    assert incidence_bounds(P, strong, s=0.25)["weakBranch"] is False
    # same counts imply a strictly larger error term on the weak branch, which
    # is then the uniform bound's
    assert (weak["rhs"]["sharp"] - len(P) * 1 / 5) > (
        incidence_bounds(P, strong, s=0.25)["rhs"]["sharp"] - len(P) * 1 / 5)
    assert weak["rhs"]["sharp"] == weak["rhs"]["uniform"]


def dilation_oracle(F, P):
    """{lam * x : lam in F_q^*, x in P} by the scalar field methods."""
    return {tuple(F.mul(lam, c) for c in x) for lam in range(1, F.q) for x in P}


def test_dilation(f5, f9):
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 1)])
    D = dilate_hyperplanes(H)
    assert D.total == 4
    assert {b for _, b, _ in D.entries} == {1, 2, 3, 4}
    with pytest.raises(ConfigError):
        dilate_hyperplanes(HyperplaneMultiset.build(f5, 2, [((1, 0), 0, 1)]))
    # two projectively equal entries of F_9^2 merge: each of their dilates has multiplicity 2 + 3
    lam = [f9.mul(4, c) for c in (1, 2, 3)]
    H = HyperplaneMultiset.build(f9, 2, [((1, 2), 3, 2), (lam[:2], lam[2], 3), ((0, 5), 7, 1)])
    D = dilate_hyperplanes(H)
    assert D.total == 8 * H.total
    assert {(*a, b) for a, b, _ in D.entries} == dilation_oracle(f9, [(*a, b) for a, b, _ in H.entries])
    assert {m for a, _, m in D.entries if a[0]} == {5}
    # a |P'| beyond int64 is refused, not wrapped
    with pytest.raises(ConfigError):
        dilate_hyperplanes(HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2 ** 62)]))
    # a = 0 rows dilate like any other row; 0.x = 1 has no incidences
    P = full_space(f5, 2)
    for entries, expect in [([((0, 0), 1, 1)], 0), ([((0, 0), 1, 1), ((0, 1), 1, 2)], 10)]:
        H = HyperplaneMultiset.build(f5, 2, entries)
        assert incidence_via_dilation(P, H) == oracle_incidences(P, H) == expect


@pytest.mark.parametrize("q", [3, 5, 7])
def test_dilation_identity(q):
    F = field_create(q, 1)
    for seed in range(4):
        P = rand_set(F, 2, 9, seed)
        H = rand_hyperplanes(F, 2, 3, seed)
        assert incidence_via_dilation(P, H) == count_incidences(P, H)


def test_sphere_incidence_setup():
    for q in (5, 9, 25):
        F = field_of_order(q)
        E = sphere(F, 2, 1)
        P, Pp = sphere_incidence_setup(E)
        assert set(P.points) == dilation_oracle(F, E.points)
        assert sum(m for _, _, m in Pp.entries) == len(E) ** 2
        assert sum(m * m for _, _, m in Pp.entries) == energy_bruteforce(E, 2)


def test_sphere_setup_antipodal_pair(f5):
    E = PointSet.build(f5, 2, [(0, 1), (0, 4)])
    P, Pp = sphere_incidence_setup(E)
    assert sum(m * m for _, _, m in Pp.entries) == energy_bruteforce(E, 2)
    assert len(P) == 4  # the two points are parallel, orbits coincide


def test_sphere_setup_rejects_off_sphere(f5):
    with pytest.raises(ConfigError):
        sphere_incidence_setup(rand_set(f5, 2, 6, 0))
    with pytest.raises(ConfigError):
        sphere_incidence_setup(PointSet.build(f5, 2, []))


def test_distance_energy_family_singleton(f5):
    E = PointSet.build(f5, 2, [(1, 2)])
    fam = difference_family(pair_counts(E))
    assert fam.x_sizes == {0: 1}
    assert fam.total_pairs == 1 and fam.sum_m2 == 1


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 2), (9, 2), (27, 2)])
def test_distance_energy_family_random(q, d):
    F = field_of_order(q)
    for seed in range(4):
        E = rand_set(F, d, 8, seed)
        fam = difference_family(pair_counts(E))
        assert fam.total_pairs == len(E) ** 2
        assert fam.sum_m2 <= energy_bruteforce(E, 2)
        brute = difference_family_oracle(E)
        pairs = pair_counts(E)
        assert list(zip(pairs.keys.tolist(), pairs.counts.tolist())) == brute
        sizes = {}
        for key, m in brute:
            sizes[key % q] = sizes.get(key % q, 0) + m
        assert fam.x_sizes == sizes
        assert fam.sum_m2 == sum(m * m for _, m in brute)


def test_distance_energy_equality_iff_sphere(f5, f9):
    for on in (sphere(f5, 2, 2), sphere(f9, 2, 3)):
        assert difference_family(pair_counts(on)).sum_m2 == energy_bruteforce(on, 2)
    # off-sphere set where one difference occurs at two norm gaps: strict
    off = PointSet.build(f5, 2, [(0, 0), (1, 0), (2, 0)])
    assert difference_family(pair_counts(off)).sum_m2 < energy_bruteforce(off, 2)


def test_invariant_violation_is_typed(f5, monkeypatch):
    # a wrong Lambda_4 breaks the one-sphere equality, which must survive python -O
    E = sphere(f5, 2, 2)
    faulty = dataclasses.replace(pair_counts(E), lam4=energy_bruteforce(E, 2) - 1)
    with pytest.raises(InvariantViolation):
        difference_family(faulty)
    monkeypatch.setattr(incidence, "pair_counts", lambda E, budget=None: faulty)
    with pytest.raises(InvariantViolation):
        sphere_incidence_setup(E)
