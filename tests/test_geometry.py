"""Vectors, quadratic form, spheres, rotations, point-set I/O."""

import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from conftest import full_space, translate, write_hyperplanes
from fqsalem import errors, kernels
from fqsalem.constructions import rotation_orbit
from fqsalem.errors import BudgetExceeded, ConfigError, budget_scope
from fqsalem.field import field_create
from fqsalem.geometry import (HyperplaneMultiset, PointSet, _norm_table, decode,
                               dot, encode, norm, norms, paraboloid, read_hyperplanes,
                               read_pointset, rotation_group_order, sphere, vadd, vsub,
                               write_pointset)


def test_encode_is_bijection(f5):
    X = np.array(list(product(range(5), repeat=2)))
    assert encode(X, 5).tolist() == list(range(25))  # index order is lexicographic
    assert encode(np.array([(1, 0)]), 5)[0] == 5  # first coordinate most significant
    assert (decode(encode(X, 5), 5, 2) == X).all()


def test_norm_examples(f5):
    assert norm(f5, (0, 0)) == 0
    assert norm(f5, (1, 2)) == 0  # 1 + 4 = 5: 2 is a root of -1
    assert norm(f5, (1, 2, 3)) == (1 + 4 + 9) % 5


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


# CHUNK_ELEMS = 81 splits F_9^3 into runs of 2 + 1 coordinates, F_3^5 into 4 + 1
@pytest.mark.parametrize("p,r,d,chunk", [(3, 1, 5, 81), (3, 2, 3, 81), (3, 2, 3, 1 << 15),
                                         (5, 1, 3, 1 << 15), (3, 3, 2, 1), (7, 1, 0, 1 << 15)])
def test_sphere_sizes_match_scalar_scan(p, r, d, chunk):
    F = field_create(p, r)
    sizes = Counter(norm(F, x) for x in product(range(F.q), repeat=d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_ELEMS", chunk)
        assert [len(sphere(F, d, j)) for j in range(F.q)] == [sizes[j] for j in range(F.q)]


def test_norm_table_is_cached_and_read_only(f27):
    table = _norm_table(f27, 3)
    assert _norm_table(f27, 3) is table and len(table) == 27 ** 3
    assert table[[0, 1, 27 + 2, 27 ** 3 - 1]].tolist() == [
        norm(f27, x) for x in [(0, 0, 0), (0, 0, 1), (0, 1, 2), (26, 26, 26)]]
    with pytest.raises(ValueError):
        table[0] = 1


def test_norms_charge_the_tables_to_the_callers_budget(monkeypatch):
    F = field_create(11, 1)
    E = full_space(F, 3)
    _norm_table.cache_clear()
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 1)  # no table may fall back to it
    with budget_scope(121):
        assert norms(E).tolist() == [norm(F, x) for x in E.points]
    with budget_scope(120), pytest.raises(BudgetExceeded):
        norms(E)


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
    assert len(sphere(F, 2, 1)) == rotation_group_order(F)


def _scalar_rot_compose(F, u, v):
    return (F.sub(F.mul(u[0], v[0]), F.mul(u[1], v[1])),
            F.add(F.mul(u[0], v[1]), F.mul(u[1], v[0])))


@pytest.mark.parametrize("p,r", [(3, 1), (5, 2), (7, 2), (3, 3)])
def test_rotations_match_scalar_path(p, r):
    # the unit circle by a scalar scan, a generator and the orbits by
    # scalar field multiplication
    F = field_create(p, r)
    circle = [(a, b) for a in range(F.q) for b in range(F.q)
              if F.add(F.mul(a, a), F.mul(b, b)) == 1]
    assert sphere(F, 2, 1).points == tuple(circle)

    def order(g):
        n, cur = 1, g
        while cur != (1, 0):
            cur, n = _scalar_rot_compose(F, cur, g), n + 1
        return n

    gen = next(g for g in circle if order(g) == rotation_group_order(F))
    sub = p + 1 if F.q % 4 == 3 else p - 1
    theta = gen
    for _ in range(sub - 1):
        theta = _scalar_rot_compose(F, theta, gen)
    pts, x = [], circle[0]  # the orbit starts at the first point of the circle, (0, 1)
    for _ in range(rotation_group_order(F) // sub):
        pts.append(x)
        x = _scalar_rot_compose(F, theta, x)
    assert rotation_orbit(p, r).points == tuple(sorted(pts))


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
    # a coordinate is an int or np.integer: never truncated from a float, a
    # string or a bool
    for bad in [1.5, 1.0, "1", True, np.float64(2.0)]:
        with pytest.raises(ConfigError):
            PointSet.build(f5, 1, [(bad,)])
    assert PointSet.build(f5, 1, [(np.int64(1),)]) == PointSet.build(f5, 1, [(1,)])


def test_translate(f5):
    E = PointSet.build(f5, 2, [(1, 2), (3, 3)])
    assert set(translate(E, (4, 3)).points) == {(0, 0), (2, 1)}


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


@pytest.mark.parametrize("points", [[], [()]], ids=["empty", "one-point"])
def test_pointset_io_dimension_zero(tmp_path, f5, points):
    # the one point of F_q^0 is written as an empty line, which is read back
    E = PointSet.build(f5, 0, points)
    path = tmp_path / "d0.txt"
    write_pointset(E, path)
    assert path.read_text() == "q=5^1\nd=0\n" + "\n" * len(points)
    assert read_pointset(path) == E


def test_pointset_io_dimension_zero_handwritten(tmp_path, f5):
    # blank lines before the d = 0 header are skipped; after it, each is the
    # point (), and repeats merge
    path = tmp_path / "d0.txt"
    path.write_text("\nq=5^1\n\n# comment\nd=0\n\n  \n")
    assert read_pointset(path) == PointSet.build(f5, 0, [()])


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
    Z = HyperplaneMultiset.build(f5, 2, [((0, 0), 1, 1)])  # a = 0 is a valid row
    assert Z.entries == (((0, 0), 1, 1),) and not Z.has_zero_offset()
    D = HyperplaneMultiset.build(f5, 2, [((0, 0), 0, 1)])
    assert D.has_zero_offset()
    for bad in [((1, 0), 1, 0), ((1, 0), 1, -2), ((1, 0), 1, 1.5), ((1, 0), 1, 2.0),
                ((1, 0), 1, True), ((1, 0), 1, "2"), ((1, 0), 1.0, 1), ((1.5, 0), 1, 1)]:
        with pytest.raises(ConfigError):
            HyperplaneMultiset.build(f5, 2, [bad])
    assert HyperplaneMultiset.build(f5, 2, [((1, 0), 1, np.int64(2))]).total == 2


def test_hyperplane_multiplicities_never_wrap(f5):
    # 2^62 + 2^62 is beyond int64: refused, not wrapped to a negative count
    with pytest.raises(ConfigError):
        HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2 ** 62), ((1, 0), 1, 2 ** 62)])
    with pytest.raises(ConfigError):
        HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2 ** 64)])
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2 ** 62), ((0, 1), 1, 2 ** 62 - 1)])
    assert H.total == 2 ** 63 - 1


def test_hyperplane_io_roundtrip(tmp_path, f5):
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 4), ((0, 1), 0, 1), ((0, 0), 2, 3)])
    path = tmp_path / "planes.txt"
    write_hyperplanes(H, path)
    assert read_hyperplanes(path) == H


def test_hyperplane_entries_must_lie_in_the_field(f5):
    for entry in [((9, 1), 1, 1), ((1, -1), 1, 1), ((1, 1), 5, 1), ((1, 1), -2, 1)]:
        with pytest.raises(ConfigError):
            HyperplaneMultiset.build(f5, 2, [entry])


@pytest.mark.parametrize("body", [
    "1 2 mult=1",        # no offset
    "1 2 b=x",           # offset not an integer
    "1 2 b=1 mult=one",  # multiplicity not an integer
    "1 2 b=1 weight=2",  # unknown column
    "1 b=1",             # too few coordinates
    "1 9 b=1",           # coordinate outside F_5
    "1 2 b=7",           # offset outside F_5
    "1 2 b=1 b=4",       # repeated offset: no value may silently win
    "1 2 b=1 mult=2 mult=3",  # repeated multiplicity
])
def test_hyperplane_io_rejects_bad_lines(tmp_path, body):
    path = tmp_path / "planes.txt"
    path.write_text(f"q=5^1\nd=2\n{body}\n")
    with pytest.raises(ConfigError):
        read_hyperplanes(path)


@pytest.mark.parametrize("text", ["", "q=5^1\n", "q=5^1\nd=two\n", "q=5^1\nd=-1\n",
                                  "q=5^1\nd=2\n1 x\n", "q=5^1\nd=2\n1 99999999999999999999\n"])
def test_pointset_io_rejects_bad_files(tmp_path, text):
    path = tmp_path / "set.txt"
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_pointset(path)


def test_full_space_helper(f3):
    assert len(full_space(f3, 3)) == 27
    assert full_space(f3, 3) == PointSet.build(f3, 3, product(range(3), repeat=3))
