"""Distance profiles, second moments, lifts, and the ratio checks."""

import random
from fractions import Fraction

import pytest

from conftest import full_space, rand_set, translate
from fqsalem.constructions import isotropic_subspace, rotation_orbit, two_set_sharpness
from fqsalem.analysis import Analysis, verify_difference_bounds, verify_secondmoment_bounds
from fqsalem.distance import cs_lower_bound, distance_profile, pair_profile, verify_two_set
from fqsalem.energy import energy_convolution, pair_counts
from fqsalem.errors import ConfigError
from fqsalem.field import field_create
from fqsalem.geometry import PointSet, lift_to_paraboloid, norm, sphere, vsub


def brute_profile(E):
    F = E.field
    counts = {}
    for x in E.points:
        for y in E.points:
            t = norm(F, vsub(F, x, y))
            counts[t] = counts.get(t, 0) + 1
    return counts


def test_singleton_profile(f5):
    P = pair_profile(pair_counts(PointSet.build(f5, 2, [(1, 4)])))
    assert P.support == {0} and P.nu(0) == 1 and P.total == 1
    assert P.second_moment == 1
    assert cs_lower_bound(P) == 1


def test_isotropic_distances(f5):
    E = isotropic_subspace(f5, 4, 2)
    P = pair_profile(pair_counts(E))
    assert P.support == {0}
    assert P.nu(0) == len(E) ** 2
    assert P.second_moment == len(E) ** 4  # all mass at 0


def test_full_space_distances(f3):
    E = full_space(f3, 2)
    assert pair_profile(pair_counts(E)).support == frozenset(range(3))


def test_profile_matches_bruteforce(f7, f9, f27):
    for F in (f7, f9, f27):
        for seed in range(5):
            E = rand_set(F, 2, 6 + 2 * seed, seed)
            P = pair_profile(pair_counts(E))
            assert dict(P.counts) == brute_profile(E)
            assert P.total == len(E) ** 2
            assert P.nu(0) >= len(E)
            for t in P.support - {0}:
                assert P.nu(t) % 2 == 0


def test_two_set_profile(f5):
    E = rand_set(f5, 2, 4, 0)
    F2 = rand_set(f5, 2, 7, 1)
    P = distance_profile(E, F2)
    assert P.total == len(E) * len(F2)
    assert P.size_e == 4 and P.size_f == 7
    with pytest.raises(ConfigError):
        distance_profile(E, rand_set(field_create(3, 1), 2, 3, 0))


def test_second_moment_matches_quadruple_count(f5):
    for seed in range(3):
        E = rand_set(f5, 2, 6, seed)
        F = E.field
        quad = sum(1 for x in E.points for y in E.points
                   for z in E.points for w in E.points
                   if norm(F, vsub(F, x, y)) == norm(F, vsub(F, z, w)))
        assert pair_profile(pair_counts(E)).second_moment == quad


def test_cs_lower_bound(f5):
    E = full_space(f5, 2)
    P = pair_profile(pair_counts(E))
    assert cs_lower_bound(P) <= len(P.support)
    for seed in range(5):
        Q = pair_profile(pair_counts(rand_set(f5, 2, 8, seed)))
        b = cs_lower_bound(Q)
        assert isinstance(b, Fraction) and b <= len(Q.support)
    with pytest.raises(ConfigError):
        cs_lower_bound(pair_profile(pair_counts(PointSet.build(f5, 2, []))))


def test_cs_equality_on_uniform_profile(f3):
    # the full space spreads pairs evenly enough that nu is width-q uniform
    E = full_space(f3, 2)
    P = pair_profile(pair_counts(E))
    if len(set(P.counts.values())) == 1:
        assert cs_lower_bound(P) == 3


def test_isometry_invariance(f5):
    E = rand_set(f5, 2, 9, seed=7)
    a, b = 0, 1  # the rotation (a, -b; b, a) of order 4 in F_5^2
    assert norm(f5, (a, b)) == 1
    rotated = PointSet.build(f5, 2, ((f5.sub(f5.mul(a, x), f5.mul(b, y)),
                                      f5.add(f5.mul(b, x), f5.mul(a, y))) for x, y in E.points))
    assert pair_profile(pair_counts(rotated)).counts == pair_profile(pair_counts(E)).counts
    assert pair_profile(pair_counts(translate(E, (2, 3)))).counts == pair_profile(pair_counts(E)).counts


def test_lift_to_paraboloid(f5):
    E = rand_set(f5, 2, 10, seed=4)
    L = lift_to_paraboloid(E)
    assert len(L) == len(E) and L.d == 3
    for pt in L.points:
        assert pt[-1] == norm(f5, pt[:-1])


def test_lift_preserves_energy_on_sphere(f5):
    E = sphere(f5, 2, 1)
    L = lift_to_paraboloid(E)
    assert energy_convolution(L, 2) == energy_convolution(E, 2)



def test_secondmoment_verifier_singleton(f5):
    E = PointSet.build(f5, 2, [(0, 1)])
    with pytest.warns(UserWarning):
        A = Analysis(E)
        rep = verify_secondmoment_bounds(A, A.salem_s)
    assert rep["ratioSalem"] <= 1 and rep["ratioGeneral"] <= 1


def test_secondmoment_verifier_full_space(f3):
    rep = verify_secondmoment_bounds(Analysis(full_space(f3, 2)), s=0.5)
    assert rep["ratioGeneral"] <= 1.1
    assert int(rep["secondMoment"]) == pair_profile(pair_counts(full_space(f3, 2))).second_moment


def test_difference_bounds_verifier(f5):
    E = full_space(f5, 2)
    rep = verify_difference_bounds(Analysis(E), s=0.5)
    assert rep["sizeDelta"] == 5
    assert rep["ratioDelta"] >= 1
    orbit = Analysis(rotation_orbit(3, 3))
    rep = verify_difference_bounds(orbit, orbit.salem_s)
    assert rep["sizeDelta"] >= 3 and rep["ratioDelta"] > 0


def test_difference_bounds_isotropic_reported_not_asserted(f5):
    E = isotropic_subspace(f5, 4, 2)
    rep = verify_difference_bounds(Analysis(E), s=0.25)
    assert rep["sizeDelta"] == 1  # single distance, still just reported


def test_two_set_verifier(f3):
    E, G = two_set_sharpness(f3, 6)
    rep = verify_two_set(E, G, s_e=0.25 + 1 / 12, s_f=0.25)
    assert rep["sizeDelta"] == 1
    full = full_space(f3, 2)
    rep2 = verify_two_set(full, full, s_e=0.5, s_f=0.5)
    assert rep2["sizeDelta"] == 3
