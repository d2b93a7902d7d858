"""Vectors in F_q^d, the sum-of-squares form, classical varieties, point sets.

Vectors are tuples of canonical field integers. Point sets are immutable,
deduplicated and lexicographically sorted, so every derived file or report
is byte-reproducible. The kernels see a point set as an (n, d) integer
array and a vector as its flat index sum_i x_i q^(d-1-i), whose order is
the lexicographic order of the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_budget
from .field import FieldSpec, parse_header

Vector = tuple[int, ...]


@dataclass(frozen=True)
class PointSet:
    field: FieldSpec
    d: int
    points: tuple[Vector, ...]

    @staticmethod
    def build(field: FieldSpec, d: int, points) -> "PointSet":
        pts = sorted(set(tuple(p) for p in points))
        for p in pts:
            if len(p) != d:
                raise ConfigError(f"point {p} has dimension {len(p)}, expected {d}")
            if any(not (0 <= c < field.q) for c in p):
                raise ConfigError(f"coordinate out of range in {p}")
        return PointSet(field, d, tuple(pts))

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return tuple(p) in self._index

    @property
    def _index(self):
        cached = self.__dict__.get("_index_cache")
        if cached is None:
            cached = frozenset(self.points)
            self.__dict__["_index_cache"] = cached
        return cached

    @property
    def array(self) -> np.ndarray:
        """The points as a read-only (n, d) int64 array, in point order."""
        cached = self.__dict__.get("_array_cache")
        if cached is None:
            cached = np.array(self.points, dtype=np.int64).reshape(len(self.points), self.d)
            cached.flags.writeable = False
            self.__dict__["_array_cache"] = cached
        return cached

    @staticmethod
    def from_codes(field: FieldSpec, d: int, codes: np.ndarray) -> "PointSet":
        """The set whose flat indices are `codes`, which must be sorted and distinct."""
        return PointSet(field, d, tuple(vectors(codes, field.q, d)))

    def translate(self, v: Vector) -> "PointSet":
        F = self.field
        return PointSet.build(F, self.d,
                              (tuple(F.add(a, b) for a, b in zip(p, v)) for p in self.points))


def encode(X: np.ndarray, q: int) -> np.ndarray:
    """Flat int64 index of each row of an (n, d) coordinate array."""
    codes = np.zeros(len(X), dtype=np.int64)
    for i in range(X.shape[1]):
        codes = codes * q + X[:, i]
    return codes


def decode(codes: np.ndarray, q: int, d: int) -> np.ndarray:
    """Inverse of encode: an (n, d) int64 coordinate array."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.stack([codes // q ** (d - 1 - i) % q for i in range(d)], axis=-1)


def vectors(codes: np.ndarray, q: int, d: int):
    """Iterator over the decoded vectors, as tuples of Python ints."""
    return zip(*decode(codes, q, d).T.tolist())


def norms(E: "PointSet", budget: int | None = None) -> np.ndarray:
    """||x|| for every point of E, in point order."""
    T = E.field.tables(budget)
    acc = np.zeros(len(E), dtype=np.int64)
    for i in range(E.d):
        acc = T.add[acc, T.square[E.array[:, i]]]
    return acc


def norm(F: FieldSpec, x: Vector) -> int:
    acc = 0
    for c in x:
        acc = F.add(acc, F.mul(c, c))
    return acc


def dot(F: FieldSpec, x: Vector, y: Vector) -> int:
    if len(x) != len(y):
        raise ConfigError(f"dimension mismatch: {len(x)} vs {len(y)}")
    acc = 0
    for a, b in zip(x, y):
        acc = F.add(acc, F.mul(a, b))
    return acc


def vsub(F: FieldSpec, x: Vector, y: Vector) -> Vector:
    return tuple(F.sub(a, b) for a, b in zip(x, y))


def vadd(F: FieldSpec, x: Vector, y: Vector) -> Vector:
    return tuple(F.add(a, b) for a, b in zip(x, y))


def all_vectors(F: FieldSpec, d: int, budget: int | None = None):
    check_budget(F.q ** d, budget, f"full scan of F_{F.q}^{d}")
    return product(range(F.q), repeat=d)


def sphere(F: FieldSpec, d: int, j: int, budget: int | None = None) -> PointSet:
    """S_j: all x with ||x|| = j, by exhaustive enumeration."""
    pts = [x for x in all_vectors(F, d, budget) if norm(F, x) == j]
    return PointSet(F, d, tuple(pts))


def paraboloid(F: FieldSpec, d: int, budget: int | None = None) -> PointSet:
    """Graph x_d = x_1^2 + ... + x_{d-1}^2."""
    check_budget(F.q ** (d - 1), budget, "paraboloid enumeration")
    pts = [x + (norm(F, x),) for x in product(range(F.q), repeat=d - 1)]
    return PointSet(F, d, tuple(sorted(pts)))


# --- rotations in the plane -------------------------------------------------

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def unit_circle_points(F: FieldSpec) -> list[tuple[int, int]]:
    """All (a, b) with a^2 + b^2 = 1, in canonical order."""
    pts = []
    for a in range(F.q):
        rest = F.sub(1, F.mul(a, a))
        for b in F.sqrt(rest):
            pts.append((a, b))
    return sorted(pts)


def _rot_compose(F: FieldSpec, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    # (a1 + i b1)(a2 + i b2) with i^2 = -1
    a = F.sub(F.mul(u[0], v[0]), F.mul(u[1], v[1]))
    b = F.add(F.mul(u[0], v[1]), F.mul(u[1], v[0]))
    return a, b


def rotation_group_order(F: FieldSpec) -> int:
    return F.q + 1 if F.q % 4 == 3 else F.q - 1


def _rot_order(F: FieldSpec, g: tuple[int, int]) -> int:
    n, cur = 1, g
    while cur != (1, 0):
        cur = _rot_compose(F, cur, g)
        n += 1
    return n


def rotation_group_generator(F: FieldSpec) -> Matrix2:
    """A generator of the cyclic group of rotations, as a 2x2 matrix (a,-b;b,a)."""
    want = rotation_group_order(F)
    for ab in unit_circle_points(F):
        if _rot_order(F, ab) == want:
            a, b = ab
            return ((a, F.neg(b)), (b, a))
    raise AssertionError("rotation group generator not found")  # unreachable


def apply_matrix(F: FieldSpec, m: Matrix2, x: Vector) -> Vector:
    return tuple(
        _dot_row(F, row, x) for row in m
    )


def _dot_row(F, row, x):
    acc = 0
    for a, b in zip(row, x):
        acc = F.add(acc, F.mul(a, b))
    return acc


# --- hyperplane multisets -----------------------------------------------------

@dataclass(frozen=True)
class HyperplaneMultiset:
    """Entries (a, b, mult) standing for mult copies of the pair a.x = b.

    allow_degenerate permits a = 0 entries (needed by the second-moment
    machinery, where difference vectors may vanish).
    """

    field: FieldSpec
    d: int
    entries: tuple[tuple[Vector, int, int], ...]
    allow_degenerate: bool = False

    @staticmethod
    def build(field: FieldSpec, d: int, entries, allow_degenerate: bool = False) -> "HyperplaneMultiset":
        merged: dict[tuple[Vector, int], int] = {}
        for a, b, m in entries:
            a = tuple(a)
            if len(a) != d:
                raise ConfigError(f"normal vector {a} has wrong dimension")
            if m <= 0:
                raise ConfigError("multiplicity must be positive")
            if not allow_degenerate and all(c == 0 for c in a):
                raise ConfigError("zero normal vector in a non-degenerate multiset")
            merged[(a, b)] = merged.get((a, b), 0) + m
        ents = tuple(sorted((a, b, m) for (a, b), m in merged.items()))
        return HyperplaneMultiset(field, d, ents, allow_degenerate)

    @property
    def total(self) -> int:
        """|P'| = sum of multiplicities."""
        return sum(m for _, _, m in self.entries)

    def has_zero_offset(self) -> bool:
        return any(b == 0 for _, b, _ in self.entries)


# --- file I/O -------------------------------------------------------------------

def write_pointset(E: PointSet, path) -> None:
    lines = [E.field.header(), f"d={E.d}"]
    lines += [" ".join(map(str, p)) for p in E.points]
    Path(path).write_text("\n".join(lines) + "\n")


def read_pointset(path) -> PointSet:
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    if len(lines) < 2 or not lines[1].startswith("d="):
        raise ConfigError(f"malformed point-set file {path}")
    F = parse_header(lines[0])
    d = int(lines[1][2:])
    pts = []
    for ln in lines[2:]:
        coords = tuple(int(c) for c in ln.split())
        if len(coords) != d:
            raise ConfigError(f"point {coords} has wrong dimension in {path}")
        if any(not (0 <= c < F.q) for c in coords):
            raise ConfigError(f"coordinate out of range in {path}: {coords}")
        pts.append(coords)
    return PointSet.build(F, d, pts)


def write_hyperplanes(H: HyperplaneMultiset, path) -> None:
    lines = [H.field.header(), f"d={H.d}"]
    for a, b, m in H.entries:
        lines.append(" ".join(map(str, a)) + f" b={b} mult={m}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_hyperplanes(path, allow_degenerate: bool = False) -> HyperplaneMultiset:
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    F = parse_header(lines[0])
    d = int(lines[1][2:])
    entries = []
    for ln in lines[2:]:
        toks = ln.split()
        a = tuple(int(c) for c in toks[:d])
        kv = dict(t.split("=") for t in toks[d:])
        entries.append((a, int(kv["b"]), int(kv.get("mult", "1"))))
    return HyperplaneMultiset.build(F, d, entries, allow_degenerate)
