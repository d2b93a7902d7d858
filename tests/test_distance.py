"""Distance profiles, second moments, lifts, and the ratio checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import full_space, nonzero_counts, rand_set, translate
from fqsalem import distance
from fqsalem.constructions import isotropic_subspace, rotation_orbit, two_set_sharpness
from fqsalem.analysis import Analysis, verify_difference_bounds, verify_secondmoment_bounds
from fqsalem.distance import cs_lower_bound, distance_profile, second_moment, verify_two_set
from fqsalem.energy import energy_convolution, pair_counts
from fqsalem.errors import ConfigError, InvariantViolation
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
    nu = pair_counts(PointSet.build(f5, 2, [(1, 4)])).nu
    assert nu.shape == (5,) and nu.dtype == np.int64
    assert nonzero_counts(nu) == {0: 1} and nu.sum() == 1
    assert second_moment(nu) == 1
    assert cs_lower_bound(nu) == 1


def test_isotropic_distances(f5):
    E = isotropic_subspace(f5, 4, 2)
    nu = pair_counts(E).nu
    assert nonzero_counts(nu) == {0: len(E) ** 2}
    assert second_moment(nu) == len(E) ** 4  # all mass at 0


def test_full_space_distances(f3):
    E = full_space(f3, 2)
    assert np.flatnonzero(pair_counts(E).nu).tolist() == [0, 1, 2]


def test_profile_matches_bruteforce(f7, f9, f27):
    for F in (f7, f9, f27):
        for seed in range(5):
            E = rand_set(F, 2, 6 + 2 * seed, seed)
            nu = pair_counts(E).nu
            assert nonzero_counts(nu) == brute_profile(E)
            assert nu.sum() == len(E) ** 2
            assert nu[0] >= len(E)
            assert all(nu[1:] % 2 == 0)


def test_two_set_profile(f5):
    E = rand_set(f5, 2, 4, 0)
    F2 = rand_set(f5, 2, 7, 1)
    nu = distance_profile(E, F2)
    assert nu.shape == (5,) and nu.dtype == np.int64
    assert nu.sum() == len(E) * len(F2) == 4 * 7
    with pytest.raises(ConfigError):
        distance_profile(E, rand_set(field_create(3, 1), 2, 3, 0))


def test_second_moment_matches_quadruple_count(f5):
    for seed in range(3):
        E = rand_set(f5, 2, 6, seed)
        F = E.field
        quad = sum(1 for x in E.points for y in E.points
                   for z in E.points for w in E.points
                   if norm(F, vsub(F, x, y)) == norm(F, vsub(F, z, w)))
        assert second_moment(pair_counts(E).nu) == quad


def test_cs_lower_bound(f5):
    E = full_space(f5, 2)
    nu = pair_counts(E).nu
    assert cs_lower_bound(nu) <= np.count_nonzero(nu)
    for seed in range(5):
        nu = pair_counts(rand_set(f5, 2, 8, seed)).nu
        b = cs_lower_bound(nu)
        assert isinstance(b, Fraction) and b <= np.count_nonzero(nu)
    with pytest.raises(ConfigError):
        cs_lower_bound(pair_counts(PointSet.build(f5, 2, [])).nu)


def test_cs_violation_is_typed(f5, monkeypatch):
    # a second moment below (sum nu)^2 / |support| breaks Cauchy-Schwarz,
    # whose check must survive python -O
    nu = pair_counts(rand_set(f5, 2, 8, 0)).nu
    monkeypatch.setattr(distance, "second_moment", lambda nu: 1)
    with pytest.raises(InvariantViolation, match="Cauchy-Schwarz bound exceeds"):
        cs_lower_bound(nu)


def test_cs_equality_on_uniform_profile(f3, f5):
    # equality exactly when nu is constant on its support: one distance, or
    # equal counts; F_3^2 has nu = (9, 36, 36), so its bound is strict
    assert cs_lower_bound(pair_counts(isotropic_subspace(f5, 4, 2)).nu) == 1
    assert cs_lower_bound(np.array([0, 4, 4])) == 2
    nu = pair_counts(full_space(f3, 2)).nu
    assert nu.tolist() == [9, 36, 36] and cs_lower_bound(nu) == Fraction(81 ** 2, 2673) < 3


def test_isometry_invariance(f5):
    E = rand_set(f5, 2, 9, seed=7)
    a, b = 0, 1  # the rotation (a, -b; b, a) of order 4 in F_5^2
    assert norm(f5, (a, b)) == 1
    rotated = PointSet.build(f5, 2, ((f5.sub(f5.mul(a, x), f5.mul(b, y)),
                                      f5.add(f5.mul(b, x), f5.mul(a, y))) for x, y in E.points))
    assert np.array_equal(pair_counts(rotated).nu, pair_counts(E).nu)
    assert np.array_equal(pair_counts(translate(E, (2, 3))).nu, pair_counts(E).nu)


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
    assert int(rep["secondMoment"]) == second_moment(pair_counts(full_space(f3, 2)).nu)


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
