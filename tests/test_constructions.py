"""Rotation orbits, null spans, products, thinning, and witness builders."""

import math
import statistics
import warnings

import pytest

from conftest import exhaustive_null_basis, field_of_order
from fqsalem.constructions import (ConstructionSpec, bernoulli_thin, conjecture_witness,
                                    isotropic_subspace, multiplicative_subgroup, null_basis,
                                    product_set, random_pointset, rotation_orbit,
                                    subgroup_power, two_set_sharpness)
from fqsalem.distance import distance_profile
from fqsalem.energy import energy_bruteforce, energy_convolution
from fqsalem.errors import BudgetExceeded, ConfigError
from fqsalem.field import FieldSpec, field_create
from fqsalem.geometry import (PointSet, dot, full_space, norm, rotation_group_order,
                               write_pointset)
from fqsalem.harness import _child_seed


def test_rotation_orbit_q27():
    E = rotation_orbit(3, 3)  # q = 27 = 3 mod 4, order (q+1)/(p+1)
    assert len(E) == 7
    F = E.field
    assert all(norm(F, x) == 1 for x in E.points)


def test_rotation_orbit_q25():
    E = rotation_orbit(5, 2)  # q = 25 = 1 mod 4, order (q-1)/(p-1)
    assert len(E) == 6
    F = E.field
    assert all(norm(F, x) == 1 for x in E.points)


def test_rotation_orbit_energy_ratio():
    E = rotation_orbit(3, 3)
    lam = energy_bruteforce(E, 2)
    ratio = lam / len(E) ** 2
    assert 2 - 1 / len(E) <= ratio <= 4


@pytest.mark.parametrize("p,r,d", [(5, 1, 4), (3, 1, 4), (7, 1, 4), (5, 1, 6), (13, 1, 6)])
def test_null_basis_properties(p, r, d):
    F = field_create(p, r)
    if d % 4 == 2 and F.q % 4 != 1:
        with pytest.raises(ConfigError):
            null_basis(F, d)
        return
    basis = null_basis(F, d)
    assert len(basis) == d // 2
    for i, u in enumerate(basis):
        assert norm(F, u) == 0 and any(c != 0 for c in u)
        for v in basis[i + 1:]:
            assert dot(F, u, v) == 0


@pytest.mark.parametrize("q", [5, 9, 23, 25, 27, 49])
def test_null_basis_matches_scalar_roots(q):
    # the table lookups pick the smallest root of -1, or else the first a with
    # -1 - a^2 a square and b its smallest root, so witness sets keep their bytes
    F = field_of_order(q)
    first = null_basis(F, 4)[0]
    minus_one = F.neg(1)
    if q % 4 == 1:
        assert first == (1, min(y for y in range(q) if F.mul(y, y) == minus_one), 0, 0)
    else:
        a, b = next((a, b) for a in range(q) for b in range(q)
                    if F.add(F.mul(a, a), F.mul(b, b)) == minus_one)
        assert first == (1, 0, a, b)


def test_null_basis_matches_exhaustive_search(f3):
    fast = null_basis(f3, 4)[:2]
    slow = exhaustive_null_basis(f3, 4, 2)
    for basis in (fast, slow):
        span = set()
        for a in range(3):
            for b in range(3):
                span.add(tuple(f3.add(f3.mul(a, u), f3.mul(b, v))
                               for u, v in zip(*basis)))
        assert len(span) == 9
        assert all(norm(f3, x) == 0 for x in span)


def test_isotropic_subspace_f5():
    F = field_create(5, 1)
    E = isotropic_subspace(F, 4, 2)
    assert len(E) == 25
    assert distance_profile(E).support == frozenset({0})
    assert energy_convolution(E, 2) == 15625


def test_isotropic_subspace_f3():
    F = field_create(3, 1)
    E = isotropic_subspace(F, 4, 2)
    assert len(E) == 9
    assert distance_profile(E).support == frozenset({0})
    assert energy_convolution(E, 2) == 729


def test_isotropic_parameter_checks(f3):
    with pytest.raises(ConfigError):
        isotropic_subspace(f3, 4, 3)  # m > d/2
    with pytest.raises(ConfigError):
        isotropic_subspace(f3, 6, 3)  # d = 2 mod 4 needs q = 1 mod 4
    E = isotropic_subspace(field_create(5, 1), 6, 3)
    assert len(E) == 125 and distance_profile(E).support == frozenset({0})


def test_product_set(f5):
    A = PointSet.build(f5, 1, [(0,), (1,)])
    B = PointSet.build(f5, 2, [(2, 2), (3, 4), (0, 0)])
    E = product_set(A, B)
    assert len(E) == 6 and E.d == 3
    assert (1, 3, 4) in E
    empty = PointSet.build(f5, 1, [])
    assert len(product_set(empty, B)) == 0
    with pytest.raises(ConfigError):
        product_set(A, PointSet.build(field_create(3, 1), 1, [(0,)]))


def test_product_distance_set_with_null_factor(f5):
    A = PointSet.build(f5, 2, [(0, 1), (1, 0), (2, 2)])
    B = isotropic_subspace(f5, 4, 2)
    E = product_set(A, B)
    assert distance_profile(E).support == distance_profile(A).support


def test_bernoulli_thin_extremes(f5):
    from conftest import full_space
    X = full_space(f5, 2)
    assert bernoulli_thin(X, 1.0, seed=1) == X
    assert len(bernoulli_thin(X, 0.0, seed=1)) == 0
    with pytest.raises(ConfigError):
        bernoulli_thin(X, 1.5, seed=1)


def test_bernoulli_thin_deterministic_and_seeded(f5):
    from conftest import full_space
    X = full_space(f5, 2)
    a = bernoulli_thin(X, 0.5, seed=42)
    b = bernoulli_thin(X, 0.5, seed=42)
    assert a == b
    assert any(bernoulli_thin(X, 0.5, seed=s) != a for s in range(1, 5))


def test_bernoulli_thin_concentration():
    F = field_create(5, 1)
    from conftest import full_space
    X = full_space(F, 4)  # 625 points
    theta = 0.3
    sigma = math.sqrt(theta * (1 - theta) * len(X))
    hits = sum(abs(len(bernoulli_thin(X, theta, seed=s)) - theta * len(X)) <= 3 * sigma
               for s in range(1000))
    assert hits >= 990
    sizes = [len(bernoulli_thin(X, theta, seed=s)) for s in range(200)]
    assert abs(statistics.mean(sizes) - theta * len(X)) < 3 * sigma


def test_multiplicative_subgroup(f7):
    assert set(multiplicative_subgroup(f7, 1).points) == {(1,)}
    assert set(multiplicative_subgroup(f7, 2).points) == {(1,), (6,)}
    assert set(multiplicative_subgroup(f7, 6).points) == {(x,) for x in range(1, 7)}
    with pytest.raises(ConfigError):
        multiplicative_subgroup(f7, 4)


@pytest.mark.parametrize("q", [7, 25, 27])
def test_subgroups_match_scalar_walk(q):
    # the powers of g^((q-1)/m) for a primitive g, by scalar multiplication
    F = field_of_order(q)
    g = F.primitive_element()
    for m in (m for m in range(1, q) if (q - 1) % m == 0):
        h, x, walk = F.pow(g, (q - 1) // m), 1, []
        for _ in range(m):
            walk.append((x,))
            x = F.mul(x, h)
        assert multiplicative_subgroup(F, m).points == tuple(sorted(walk))


SCALAR_ARITHMETIC = ("add", "neg", "sub", "mul", "pow", "trace", "primitive_element")


@pytest.mark.parametrize("p,r", [(7, 1), (5, 2), (3, 3)])
def test_cyclic_constructions_run_on_tables(monkeypatch, p, r):
    F = field_create(p, r)
    F.tables()
    for name in SCALAR_ARITHMETIC:
        def refuse(*args, name=name):
            pytest.fail(f"scalar FieldSpec.{name} ran")
        monkeypatch.setattr(FieldSpec, name, refuse)
    orbit = ConstructionSpec("orbit", {"p": p, "r": r}).build()
    m = (F.q - 1) // 2
    power = ConstructionSpec("subgroupPower", {"p": p, "r": r, "m": m, "d": 2}).build()
    sub = p + 1 if F.q % 4 == 3 else p - 1
    assert len(orbit) == rotation_group_order(F) // sub
    assert len(power) == m * m


def test_subgroup_power(f7):
    A = multiplicative_subgroup(f7, 2)
    E = subgroup_power(f7, 2, 3)
    assert len(E) == 8 and E.d == 3
    assert energy_bruteforce(A, 2) == energy_convolution(A, 2)
    assert energy_convolution(E, 2) == energy_convolution(A, 2) ** 3


def test_conjecture_witness_even_plain():
    res = conjecture_witness(4, 0.3, p=5, r=1, seed=0)
    assert res.kind == "productOrbitSpan"
    assert res.theta == 1.0
    assert res.target_exponent == 2
    assert len(res.pointset) == res.notes["sizeA"] * res.notes["sizeX"]


def test_conjecture_witness_even_thinned():
    res = conjecture_witness(4, 0.5, p=5, r=1, seed=1)
    assert res.kind == "thinnedEvenProduct"
    assert 0 < res.theta <= 1
    assert res.target_exponent == pytest.approx(6 / 4)


def test_conjecture_witness_odd():
    res = conjecture_witness(3, 0.25, p=5, r=1, seed=0)
    assert res.kind == "thinnedOddProduct"
    assert res.theta == 1.0  # exponent vanishes at s = 1/4
    res2 = conjecture_witness(3, 0.5, p=5, r=1, seed=0)
    assert res2.theta < 1
    assert res2.target_exponent == pytest.approx(1.0)


def test_conjecture_witness_rejects_bad_s():
    with pytest.raises(ConfigError):
        conjecture_witness(4, 0.1, p=3, r=1)
    with pytest.raises(ConfigError):
        conjecture_witness(2, 0.3, p=3, r=1)


def test_two_set_sharpness_f3_d6(f3):
    E, G = two_set_sharpness(f3, 6)
    assert distance_profile(E, G).support == frozenset({1})
    assert len(G) == 3 ** 2  # span of (d-2)/2 vectors
    with pytest.raises(ConfigError):
        two_set_sharpness(f3, 5)


def test_two_set_energy_scaling(f3):
    E, _ = two_set_sharpness(f3, 6)
    lam = energy_convolution(E, 2)
    q, d = 3, 6
    circle = PointSet.build(f3, 2, [(x, y) for x in range(3) for y in range(3)
                                    if norm(f3, (x, y)) == 1])
    expected = q ** (3 * (d - 2) // 2) * energy_convolution(circle, 2)
    assert lam == expected


def test_construction_spec_dispatch(f5):
    assert len(ConstructionSpec("isotropic", {"p": 5, "d": 4, "m": 2}).build()) == 25
    assert len(ConstructionSpec("orbit", {"p": 3, "r": 3}).build()) == 7
    assert len(ConstructionSpec("fullSpace", {"p": 3, "d": 2}).build()) == 9
    assert len(ConstructionSpec("sphere", {"p": 5, "d": 2, "j": 1}).build()) == 4
    assert len(ConstructionSpec("random", {"p": 5, "d": 2, "size": 7, "seed": 1}).build()) == 7
    with pytest.raises(ConfigError):
        ConstructionSpec("nonsense", {"p": 5}).build()
    with pytest.raises(ConfigError, match="unknown construction kind"):
        ConstructionSpec(["random"], {"p": 5}).build()


def test_construction_spec_refuses_parameters_it_never_reads():
    # a misspelt parameter would otherwise leave the set as it was; the seed
    # a config injects is accepted by every kind
    assert len(ConstructionSpec("orbit", {"p": 3, "r": 3, "seed": 4}).build()) == 7
    with pytest.raises(ConfigError, match="construction 'random' takes no parameter 'sizee'"):
        ConstructionSpec("random", {"p": 5, "d": 2, "size": 3, "sizee": 4}).build()
    with pytest.raises(ConfigError, match="'orbit' takes no parameter 'd', 'm'"):
        ConstructionSpec("orbit", {"p": 3, "r": 3, "m": 1, "d": 2}).build()


def test_construction_files_deterministic(tmp_path):
    spec = ConstructionSpec("random", {"p": 5, "d": 2, "size": 9, "seed": 77})
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_pointset(spec.build(), p1)
    write_pointset(spec.build(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_random_pointset(f5):
    E = random_pointset(f5, 2, 10, seed=3)
    assert len(E) == 10
    assert random_pointset(f5, 2, 10, seed=3) == E
    assert random_pointset(f5, 2, 10, seed=4) != E
    with pytest.raises(ConfigError):
        random_pointset(f5, 2, 26, seed=0)
    assert len(random_pointset(f5, 2, 0, seed=3)) == 0
    assert random_pointset(f5, 2, 25, seed=3) == full_space(f5, 2)
    with pytest.raises(ConfigError):
        random_pointset(f5, 2, -1, seed=0)
    with pytest.raises(BudgetExceeded):
        random_pointset(f5, 4, 3, seed=0, budget=600)


def _splitmix64_reference(x):
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


@pytest.mark.parametrize("p,r,d,size,seed", [
    (5, 1, 2, 10, 3), (3, 2, 3, 40, 0), (7, 1, 3, 1, 12345),
    (3, 3, 2, 729, 9), (5, 2, 2, 17, (1 << 64) - 1), (3, 1, 4, 30, -7)])
def test_random_pointset_matches_scalar_reference(p, r, d, size, seed):
    F = field_create(p, r)
    q = F.q
    order = sorted(range(q ** d), key=lambda i: (_splitmix64_reference((seed << 20) ^ i), i))
    expect = sorted(tuple(i // q ** (d - 1 - j) % q for j in range(d)) for i in order[:size])
    assert random_pointset(F, d, size, seed).points == tuple(expect)


@pytest.mark.parametrize("master", [0, 1, -1, -7, 12345, 1 << 40, -(1 << 40), (1 << 64) - 1])
def test_child_seed_matches_scalar_reference(master):
    # a sweep cell's seed; numpy warns on a uint64 scalar that wraps, so error on any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cell in (0, 1, 11):
            seed = _child_seed(master, cell)
            assert type(seed) is int
            assert seed == _splitmix64_reference((master << 32) ^ cell)


@pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) - 1, -7])
def test_bernoulli_thin_matches_scalar_reference(seed):
    F = field_create(3, 2)
    X = random_pointset(F, 3, 300, seed=2)

    def kept(p, theta):
        i = sum(c * F.q ** (len(p) - 1 - j) for j, c in enumerate(p))
        h = _splitmix64_reference((seed & ((1 << 64) - 1)) ^ _splitmix64_reference(i))
        return (h >> 11) / float(1 << 53) < theta

    for theta in (0.0, 0.3, 0.75, 1.0):
        expect = tuple(p for p in X.points if kept(p, theta))
        assert bernoulli_thin(X, theta, seed).points == expect
    assert len(bernoulli_thin(X, 1.0, seed)) == len(X)
