"""Point-hyperplane incidence counts, bounds, dilation, and difference families."""

import random

import pytest

from conftest import difference_family_oracle, field_of_order, full_space, rand_set
from fqsalem.energy import energy_convolution
from fqsalem.errors import ConfigError, InvariantViolation
from fqsalem.field import field_create
from fqsalem.geometry import HyperplaneMultiset, PointSet, all_vectors, sphere
from fqsalem.harness import oracle_incidences
from fqsalem.incidence import (count_incidences, dilate_hyperplanes,
                                distance_energy_setup, incidence_via_dilation,
                                sphere_incidence_setup, incidence_bound,
                                verify_counting_bounds)


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
    rep = verify_counting_bounds(P, H, s=0.3)
    assert rep.count == count_incidences(P, H)
    assert rep.rhs_uniform >= float(rep.main_term)
    ratios = rep.ratios()
    assert set(ratios) == {"uniform", "power43", "sqmult"}
    js = rep.to_json_dict()
    assert js["N"] == str(rep.count)


def test_power43_equals_uniform_when_multiplicity_one(f5):
    P = rand_set(f5, 2, 10, seed=3)
    entries = [((1, 0), 1, 1), ((0, 1), 2, 1), ((1, 1), 3, 1)]
    H = HyperplaneMultiset.build(f5, 2, entries)
    rep = verify_counting_bounds(P, H, s=0.25)
    assert rep.rhs_power43 == pytest.approx(rep.rhs_uniform, rel=1e-12)


def test_power43_dominates_uniform_with_multiplicities(f5):
    P = rand_set(f5, 2, 10, seed=4)
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 3), ((0, 1), 2, 2)])
    rep = verify_counting_bounds(P, H, s=0.25)
    assert rep.rhs_power43 >= rep.rhs_uniform - 1e-12


def test_incidence_bound_sharpness_plane(f7):
    a, b = (1, 0, 0), 1
    P = plane_points(f7, 3, a, b)
    H = HyperplaneMultiset.build(f7, 3, [(a, b, 1)])
    rep = incidence_bound(P, H, s=0.25)
    assert rep["incidences"] == 49
    assert rep["bound"] >= 49
    assert not rep["weakBranch"]


def test_incidence_bound_empty(f5):
    P = rand_set(f5, 2, 5, 0)
    H = HyperplaneMultiset.build(f5, 2, [])
    rep = incidence_bound(P, H, s=0.25)
    assert rep["incidences"] == 0 and rep["bound"] == 0


def test_incidence_bound_weak_branch(f5):
    P = rand_set(f5, 2, 5, 0)
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 0, 1)], allow_degenerate=True)
    strong = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 1)])
    weak = incidence_bound(P, H, s=0.25)
    assert weak["weakBranch"]
    assert incidence_bound(P, strong, s=0.25)["weakBranch"] is False
    # same counts imply a strictly larger error term on the weak branch
    assert (weak["bound"] - len(P) * 1 / 5) > (
        incidence_bound(P, strong, s=0.25)["bound"] - len(P) * 1 / 5)


def test_dilation(f5):
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 1)])
    D = dilate_hyperplanes(H)
    assert D.total == 4
    assert {b for _, b, _ in D.entries} == {1, 2, 3, 4}
    with pytest.raises(ConfigError):
        dilate_hyperplanes(HyperplaneMultiset.build(
            f5, 2, [((1, 0), 0, 1)], allow_degenerate=True))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_dilation_identity(q):
    F = field_create(q, 1)
    for seed in range(4):
        P = rand_set(F, 2, 9, seed)
        H = rand_hyperplanes(F, 2, 3, seed)
        assert incidence_via_dilation(P, H) == count_incidences(P, H)


def test_sphere_incidence_setup(f5):
    E = sphere(f5, 2, 1)
    lam4 = energy_convolution(E, 2)
    P, Pp = sphere_incidence_setup(E, lam4)
    assert len(P) <= (5 - 1) * len(E)
    assert sum(m for _, _, m in Pp.entries) == len(E) ** 2
    assert sum(m * m for _, _, m in Pp.entries) == lam4


def test_sphere_setup_antipodal_pair(f5):
    E = PointSet.build(f5, 2, [(0, 1), (0, 4)])
    lam4 = energy_convolution(E, 2)
    P, Pp = sphere_incidence_setup(E, lam4)
    assert sum(m * m for _, _, m in Pp.entries) == lam4
    assert len(P) == 4  # the two points are parallel, orbits coincide


def test_sphere_setup_rejects_off_sphere(f5):
    with pytest.raises(ConfigError):
        sphere_incidence_setup(rand_set(f5, 2, 6, 0), 0)
    with pytest.raises(ConfigError):
        sphere_incidence_setup(PointSet.build(f5, 2, []), 0)


def test_distance_energy_family_singleton(f5):
    E = PointSet.build(f5, 2, [(1, 2)])
    fam = distance_energy_setup(E, 1)
    assert fam.x_sizes == {0: 1}
    assert fam.total_pairs == 1 and fam.sum_m2 == 1


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 2), (9, 2), (27, 2)])
def test_distance_energy_family_random(q, d):
    F = field_of_order(q)
    for seed in range(4):
        E = rand_set(F, d, 8, seed)
        lam4 = energy_convolution(E, 2)
        fam = distance_energy_setup(E, lam4)
        assert fam.total_pairs == len(E) ** 2
        assert fam.sum_m2 <= lam4
        brute = difference_family_oracle(E)
        assert list(zip(fam.keys.tolist(), fam.counts.tolist())) == brute
        sizes = {}
        for key, m in brute:
            sizes[key // q ** d] = sizes.get(key // q ** d, 0) + m
        assert fam.x_sizes == sizes
        assert fam.sum_m2 == sum(m * m for _, m in brute)


def test_distance_energy_equality_iff_sphere(f5):
    on = sphere(f5, 2, 2)
    lam4 = energy_convolution(on, 2)
    assert distance_energy_setup(on, lam4).sum_m2 == lam4
    # off-sphere set where one difference occurs at two norm gaps: strict
    off = PointSet.build(f5, 2, [(0, 0), (1, 0), (2, 0)])
    lam4 = energy_convolution(off, 2)
    assert distance_energy_setup(off, lam4).sum_m2 < lam4


def test_invariant_violation_is_typed(f5):
    # a wrong Lambda_4 breaks the one-sphere equality, which must survive python -O
    E = sphere(f5, 2, 2)
    with pytest.raises(InvariantViolation):
        distance_energy_setup(E, energy_convolution(E, 2) - 1)
    with pytest.raises(InvariantViolation):
        sphere_incidence_setup(E, energy_convolution(E, 2) - 1)
