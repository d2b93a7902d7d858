"""Vectors in F_q^d, the sum-of-squares form, classical varieties, point sets.

A point set is held as the sorted, distinct int64 flat indices (codes) of
its vectors, the index of x being sum_i x_i q^(d-1-i) (`encode`). Index
order is the lexicographic order of the vectors, so every derived file or
report is byte-reproducible. The (n, d) coordinate array the kernels
gather from and the tuples that I/O and the scalar oracles iterate are
lazy views of the codes. Single vectors are tuples of canonical field
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_budget
from .field import FieldSpec, parse_header
from .kernels import check_int64

Vector = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PointSet:
    field: FieldSpec
    d: int
    codes: np.ndarray  # sorted distinct int64 flat indices, read-only

    @staticmethod
    def build(field: FieldSpec, d: int, points) -> "PointSet":
        """The set of the given coordinate sequences, validated as outside input."""
        pts = [tuple(p) for p in points]
        for p in pts:
            if len(p) != d:
                raise ConfigError(f"point {p} has dimension {len(p)}, expected {d}")
        X = np.array(pts, dtype=np.int64).reshape(len(pts), d)
        bad = np.flatnonzero(((X < 0) | (X >= field.q)).any(axis=1))
        if len(bad):
            raise ConfigError(f"coordinate out of range in {pts[bad[0]]}")
        return PointSet.from_codes(field, d, encode(X, field.q))

    @staticmethod
    def from_codes(field: FieldSpec, d: int, codes) -> "PointSet":
        """The set whose flat indices are `codes`, in any order, repeats allowed."""
        check_int64(field.q ** d, f"flat index space of F_{field.q}^{d}")
        codes = np.unique(np.asarray(codes, dtype=np.int64))
        codes.flags.writeable = False
        return PointSet(field, d, codes)

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        return (isinstance(other, PointSet) and (self.field, self.d) == (other.field, other.d)
                and np.array_equal(self.codes, other.codes))

    def __hash__(self):
        return hash((self.field, self.d, self.codes.tobytes()))

    def __contains__(self, p):
        p = tuple(p)
        if len(p) != self.d or not all(0 <= c < self.field.q for c in p):
            return False
        return bool((self.codes == encode(np.array([p]), self.field.q)[0]).any())

    def _view(self, key, compute):
        # the dataclass is frozen, so lazy views are kept in the instance __dict__
        if key not in self.__dict__:
            self.__dict__[key] = compute()
        return self.__dict__[key]

    @property
    def array(self) -> np.ndarray:
        """The points as a read-only (n, d) int64 array, in point order."""
        def compute():
            X = decode(self.codes, self.field.q, self.d)
            X.flags.writeable = False
            return X
        return self._view("_array", compute)

    @property
    def points(self) -> tuple[Vector, ...]:
        """The points as sorted tuples of Python ints, for I/O and the scalar oracles."""
        return self._view("_points", lambda: tuple(vectors(self.codes, self.field.q, self.d)))

    def translate(self, v: Vector) -> "PointSet":
        """E + v, through the field's addition table."""
        T = self.field.tables()
        return PointSet.from_codes(self.field, self.d,
                                   encode(T.add[self.array, np.asarray(v)], self.field.q))


def encode(X: np.ndarray, q: int) -> np.ndarray:
    """Flat int64 index of each row of an (n, d) coordinate array."""
    codes = np.zeros(len(X), dtype=np.int64)
    for i in range(X.shape[1]):
        codes = codes * q + X[:, i]
    return codes


def decode(codes: np.ndarray, q: int, d: int) -> np.ndarray:
    """Inverse of encode: an (n, d) int64 coordinate array."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes[:, None] // q ** np.arange(d - 1, -1, -1, dtype=np.int64) % q


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
    """Every vector of F_q^d as a tuple, in index order (for the scalar oracles)."""
    check_budget(F.q ** d, budget, f"full scan of F_{F.q}^{d}")
    return product(range(F.q), repeat=d)


def full_space(F: FieldSpec, d: int, budget: int | None = None) -> PointSet:
    """All of F_q^d."""
    check_budget(F.q ** d, budget, f"full scan of F_{F.q}^{d}")
    return PointSet.from_codes(F, d, np.arange(F.q ** d))


def sphere(F: FieldSpec, d: int, j: int, budget: int | None = None) -> PointSet:
    """S_j: all x with ||x|| = j, by a scan of the full space."""
    X = full_space(F, d, budget)
    return PointSet.from_codes(F, d, X.codes[norms(X, budget) == j])


def lift_to_paraboloid(E: PointSet) -> PointSet:
    """E' = {(x, ||x||)} in F_q^{d+1}: ||x|| becomes the last digit of the index."""
    return PointSet.from_codes(E.field, E.d + 1, E.codes * E.field.q + norms(E))


def paraboloid(F: FieldSpec, d: int, budget: int | None = None) -> PointSet:
    """Graph x_d = x_1^2 + ... + x_{d-1}^2."""
    check_budget(F.q ** (d - 1), budget, "paraboloid enumeration")
    return lift_to_paraboloid(full_space(F, d - 1, budget))


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
    return tuple(dot(F, row, x) for row in m)


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
    return PointSet.build(F, int(lines[1][2:]), (map(int, ln.split()) for ln in lines[2:]))


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
