"""Vectors, quadratic form, spheres, rotations, point-set I/O."""

import random

import numpy as np
import pytest

from conftest import full_space
from fqsalem.errors import BudgetExceeded, ConfigError
from fqsalem.field import field_create
from fqsalem.geometry import (HyperplaneMultiset, PointSet, all_vectors, apply_matrix,
                               decode, dot, encode, norm, paraboloid, read_hyperplanes,
                               read_pointset, rotation_group_generator,
                               rotation_group_order, sphere, unit_circle_points, vadd,
                               vsub, write_hyperplanes, write_pointset)


def test_encode_is_bijection(f5):
    X = np.array(list(all_vectors(f5, 2)))
    assert encode(X, 5).tolist() == list(range(25))  # index order is lexicographic
    assert encode(np.array([(1, 0)]), 5)[0] == 5  # first coordinate most significant
    assert (decode(encode(X, 5), 5, 2) == X).all()


def test_norm_examples(f5):
    assert norm(f5, (0, 0)) == 0
    assert norm(f5, (1, 2)) == 0  # 1 + 4 = 5
    assert norm(f5, (1, 2, 3)) == (1 + 4 + 9) % 5
    i = f5.sqrt(f5.neg(1))[0]
    assert norm(f5, (1, i)) == 0


def test_dot_examples(f7):
    rng = random.Random(3)
    for _ in range(50):
        x = tuple(rng.randrange(7) for _ in range(3))
        y = tuple(rng.randrange(7) for _ in range(3))
        assert dot(f7, x, y) == dot(f7, y, x)
        assert dot(f7, x, (0, 0, 0)) == 0
        assert norm(f7, x) == dot(f7, x, x)
    assert dot(f7, (1, 0), (0, 1)) == 0
    with pytest.raises(ConfigError):
        dot(f7, (1, 0), (1, 0, 0))


def test_vadd_vsub(f5):
    assert vadd(f5, (3, 4), (4, 3)) == (2, 2)
    assert vsub(f5, (0, 0), (1, 2)) == (4, 3)


def test_sphere_small(f3):
    S = sphere(f3, 2, 1)
    assert set(S.points) == {(0, 1), (0, 2), (1, 0), (2, 0)}


def test_sphere_q5(f5):
    assert len(sphere(f5, 2, 1)) == 4


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_spheres_partition(q, d):
    F = field_create(q, 1)
    spheres = [sphere(F, d, j) for j in range(q)]
    assert sum(len(S) for S in spheres) == q ** d
    seen = set()
    for S in spheres:
        assert seen.isdisjoint(S.points)
        seen.update(S.points)
    assert len(seen) == q ** d


@pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_paraboloid(q, d):
    F = field_create(q, 1)
    P = paraboloid(F, d)
    assert len(P) == q ** (d - 1)
    assert (0,) * d in P
    for pt in P.points:
        assert pt[-1] == norm(F, pt[:-1])
    if (q, d) == (3, 2):
        assert set(P.points) == {(0, 0), (1, 1), (2, 1)}


def test_rotation_group_orders():
    assert rotation_group_order(field_create(3, 1)) == 4
    assert rotation_group_order(field_create(5, 1)) == 4
    assert rotation_group_order(field_create(7, 1)) == 8


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3)])
def test_rotation_generator_order_and_norms(p, r):
    F = field_create(p, r)
    g = rotation_group_generator(F)
    order = rotation_group_order(F)
    assert len(unit_circle_points(F)) == order
    rng = random.Random(11)
    # the generator's first column walks the whole unit circle
    seen = set()
    x = (1, 0)
    for _ in range(order):
        x = apply_matrix(F, g, x)
        seen.add(x)
    assert len(seen) == order and (1, 0) in seen
    for _ in range(20):
        v = (rng.randrange(F.q), rng.randrange(F.q))
        y = v
        for _ in range(order):
            y = apply_matrix(F, g, y)
            assert norm(F, y) == norm(F, v)


def test_pointset_dedup_and_order(f5):
    E = PointSet.build(f5, 2, [(1, 2), (0, 0), (1, 2), (4, 4)])
    assert len(E) == 3
    assert list(E.points) == sorted(E.points)
    assert (1, 2) in E and (2, 1) not in E


def test_pointset_beyond_int64_index_range(f3):
    # 3^40 > 2^63: flat indices would not fit in int64
    with pytest.raises(BudgetExceeded):
        PointSet.from_codes(f3, 40, [0])
    with pytest.raises(BudgetExceeded):
        PointSet.build(f3, 40, [(0,) * 40])
    assert len(PointSet.build(f3, 39, [(0,) * 39, (2,) * 39])) == 2  # 3^39 < 2^63


def test_pointset_validation(f5):
    with pytest.raises(ConfigError):
        PointSet.build(f5, 2, [(1, 2, 3)])
    with pytest.raises(ConfigError):
        PointSet.build(f5, 2, [(1, 9)])


def test_translate(f5):
    E = PointSet.build(f5, 2, [(1, 2), (3, 3)])
    assert set(E.translate((4, 3)).points) == {(0, 0), (2, 1)}


def test_all_vectors_budget(f5):
    with pytest.raises(Exception):
        list(all_vectors(f5, 2, budget=3))


def test_pointset_io_roundtrip(tmp_path, f9):
    E = PointSet.build(f9, 3, [(0, 1, 2), (8, 8, 8), (3, 0, 5)])
    path = tmp_path / "set.txt"
    write_pointset(E, path)
    assert read_pointset(path) == E


def test_pointset_io_empty(tmp_path, f3):
    E = PointSet.build(f3, 2, [])
    path = tmp_path / "empty.txt"
    write_pointset(E, path)
    back = read_pointset(path)
    assert len(back) == 0 and back.field == f3 and back.d == 2


def test_pointset_io_handwritten(tmp_path, f5):
    path = tmp_path / "hand.txt"
    path.write_text("q=5^1\nd=2\n1 2\n3 4\n")
    E = read_pointset(path)
    assert len(E) == 2 and (3, 4) in E


def test_pointset_io_rejects_bad_coord(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q=5^1\nd=2\n1 7\n")
    with pytest.raises(ConfigError):
        read_pointset(path)


def test_hyperplane_multiset(f5):
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2), ((1, 0), 1, 1), ((0, 1), 2, 1)])
    assert H.total == 4  # merged multiplicities
    assert len(H.entries) == 2
    assert not H.has_zero_offset()
    with pytest.raises(ConfigError):
        HyperplaneMultiset.build(f5, 2, [((0, 0), 1, 1)])
    D = HyperplaneMultiset.build(f5, 2, [((0, 0), 0, 1)], allow_degenerate=True)
    assert D.has_zero_offset()


def test_hyperplane_io_roundtrip(tmp_path, f5):
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 4), ((0, 1), 0, 1)],
                                 allow_degenerate=True)
    path = tmp_path / "planes.txt"
    write_hyperplanes(H, path)
    assert read_hyperplanes(path, allow_degenerate=True) == H


def test_full_space_helper(f3):
    assert len(full_space(f3, 3)) == 27
    assert full_space(f3, 3) == PointSet.build(f3, 3, all_vectors(f3, 3))
