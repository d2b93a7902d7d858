"""Vectors in F_q^d, the sum-of-squares form, classical varieties, point sets.

A point set is held as the sorted, distinct int64 flat indices (codes) of
its vectors, the index of x being sum_i x_i q^(d-1-i) (`encode`). Index
order is the lexicographic order of the vectors, so every derived file or
report is byte-reproducible. The (n, d) coordinate array the kernels gather
from and the tuples that I/O and the scalar oracles iterate are lazy views
of the codes; norms are read from the codes with no decode, a run of c
coordinates (q^c <= CHUNK_ELEMS) at a time from a cached table of ||x|| over
F_q^c. A hyperplane multiset is held the same way, as the codes of its rows
(a, b) in F_q^{d+1} with their multiplicities. Single vectors are tuples of
canonical field integers.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_budget, is_int
from .field import FieldSpec, parse_header
from .kernels import INT64_MAX, check_int64, chunk_width, merge

Vector = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PointSet:
    field: FieldSpec
    d: int
    codes: np.ndarray  # sorted distinct int64 flat indices, read-only

    @staticmethod
    def build(field: FieldSpec, d: int, points) -> "PointSet":
        """The set of the given coordinate sequences, validated as outside input."""
        return PointSet.from_codes(field, d, _validated_codes(field, d, points, "point"))

    @staticmethod
    def from_codes(field: FieldSpec, d: int, codes) -> "PointSet":
        """The set whose flat indices are `codes`, in any order, repeats allowed."""
        check_int64(field.q ** d, f"flat index space of F_{field.q}^{d}")
        # sort and drop repeats by comparing neighbours: np.unique takes a much
        # slower hash path on numpy 2.4, and np.diff costs twice the comparison
        codes = np.sort(np.asarray(codes, dtype=np.int64))
        if len(codes):
            codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
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

    @cached_property
    def array(self) -> np.ndarray:
        """The points as a read-only (n, d) int64 array, in point order."""
        X = decode(self.codes, self.field.q, self.d)
        X.flags.writeable = False
        return X

    @cached_property
    def points(self) -> tuple[Vector, ...]:
        """The points as sorted tuples of Python ints, for I/O and the scalar oracles."""
        return tuple(vectors(self.codes, self.field.q, self.d))


def _validated_codes(field: FieldSpec, width: int, rows, what: str) -> np.ndarray:
    """The flat indices of coordinate sequences given as outside input, each
    of length `width` with every entry an integer (errors.is_int) in [0, q)."""
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != width or not all(is_int(c) and 0 <= c < field.q for c in r):
            raise ConfigError(f"{what} {r} is not in F_{field.q}^{width}")
    return encode(np.array(rows, dtype=np.int64).reshape(len(rows), width), field.q)


def encode(X: np.ndarray, q: int) -> np.ndarray:
    """Flat int64 index of each row of an (n, d) coordinate array."""
    codes = np.zeros(len(X), dtype=np.int64)
    for i in range(X.shape[1]):
        codes = codes * q + X[:, i]
    return codes


def decode(codes: np.ndarray, q: int, d: int) -> np.ndarray:
    """Inverse of encode: an (n, d) int64 coordinate array."""
    codes = np.asarray(codes, dtype=np.int64)
    X = np.empty((len(codes), d), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        codes, X[:, i] = np.divmod(codes, q)
    return X


def vectors(codes: np.ndarray, q: int, d: int):
    """Iterator over the decoded vectors, as tuples of Python ints (one empty
    tuple per code when d = 0)."""
    return map(tuple, decode(codes, q, d).tolist())


@lru_cache(maxsize=None)
def _norm_table(F: FieldSpec, c: int) -> np.ndarray:
    """||x|| for every x in F_q^c, in flat-index order: read-only, once per (F, c)."""
    T = F.tables()
    table = np.zeros(1, dtype=T.add.dtype)
    for _ in range(c):  # x = prefix q + last digit
        table = T.add[table[:, None], T.square].ravel()
    table.flags.writeable = False
    return table


def norms(E: "PointSet") -> np.ndarray:
    """||x|| for every point of E, in point order, read from its code: one gather
    of _norm_table per run of c = chunk_width(q) coordinates (a shorter top run
    lacks only leading zeros), the runs' norms summed through the addition table."""
    q, c = E.field.q, chunk_width(E.field.q)
    T, table = E.field.tables(), _norm_table(E.field, c)
    codes, runs = E.codes, []
    for _ in range(c, E.d, c):  # split off every run below the top one
        codes, low = np.divmod(codes, q ** c)
        runs.append(low)
    acc = table[codes]  # the top run: codes < q^c remain
    for low in runs:
        acc = T.add[acc, table[low]]
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


def full_space(F: FieldSpec, d: int) -> PointSet:
    """All of F_q^d."""
    if d < 0:
        raise ConfigError(f"dimension must be >= 0, got {d}")
    check_budget(F.q ** d, f"full scan of F_{F.q}^{d}")
    return PointSet.from_codes(F, d, np.arange(F.q ** d))


def sphere(F: FieldSpec, d: int, j: int) -> PointSet:
    """S_j: all x with ||x|| = j, by a scan of the full space."""
    if not 0 <= j < F.q:
        raise ConfigError(f"radius {j} is not in F_{F.q}")
    X = full_space(F, d)
    return PointSet.from_codes(F, d, X.codes[norms(X) == j])


def lift_to_paraboloid(E: PointSet) -> PointSet:
    """E' = {(x, ||x||)} in F_q^{d+1}: ||x|| becomes the last digit of the index."""
    return PointSet.from_codes(E.field, E.d + 1, E.codes * E.field.q + norms(E))


def paraboloid(F: FieldSpec, d: int) -> PointSet:
    """Graph x_d = x_1^2 + ... + x_{d-1}^2."""
    if d < 1:
        raise ConfigError(f"a paraboloid needs d >= 1, got {d}")
    check_budget(F.q ** (d - 1), "paraboloid enumeration")
    return lift_to_paraboloid(full_space(F, d - 1))


# --- the unit circle -----------------------------------------------------------

def rotation_group_order(F: FieldSpec) -> int:
    """|S_1|, the order of the cyclic group of rotations (a, -b; b, a) with a^2 + b^2 = 1."""
    return F.q + 1 if F.q % 4 == 3 else F.q - 1


# --- hyperplane multisets -----------------------------------------------------

@dataclass(frozen=True, eq=False)
class HyperplaneMultiset:
    """mults[i] copies of the hyperplane a.x = b for the i-th row (a, b) of
    F_q^{d+1}, held as its flat index (b the last digit). codes are sorted and
    distinct, mults positive, and their total |P'| fits int64. Rows with a = 0
    are allowed (the second-moment machinery needs them)."""

    field: FieldSpec
    d: int
    codes: np.ndarray  # sorted distinct int64 flat indices of the rows (a, b), read-only
    mults: np.ndarray  # positive int64 multiplicities, in code order, read-only

    @staticmethod
    def build(field: FieldSpec, d: int, entries) -> "HyperplaneMultiset":
        """The multiset of the given (a, b, mult) entries, validated as outside input."""
        entries = list(entries)
        codes = _validated_codes(field, d + 1, [(*a, b) for a, b, _ in entries], "row (a, b) =")
        mults = [m for _, _, m in entries]
        if not all(map(is_int, mults)):
            raise ConfigError("multiplicity must be an integer")
        return HyperplaneMultiset.from_codes(field, d, codes, mults)

    @staticmethod
    def from_codes(field: FieldSpec, d: int, codes, mults) -> "HyperplaneMultiset":
        """mults[i] copies of the row coded codes[i], in any order; repeated
        rows merge, adding their multiplicities."""
        check_int64(field.q ** (d + 1), f"flat index space of F_{field.q}^{d + 1}")
        mults = np.asarray(mults)  # not int64 when some multiplicity is beyond int64
        if (mults <= 0).any():
            raise ConfigError("multiplicity must be positive")
        if sum(mults.tolist()) > INT64_MAX:  # exact: Python ints
            raise ConfigError("total multiplicity beyond the int64 range")
        codes, mults = merge(np.asarray(codes, dtype=np.int64), mults.astype(np.int64))
        codes.flags.writeable = mults.flags.writeable = False
        return HyperplaneMultiset(field, d, codes, mults)

    def __eq__(self, other):
        return (isinstance(other, HyperplaneMultiset)
                and (self.field, self.d) == (other.field, other.d)
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.mults, other.mults))

    @cached_property
    def entries(self) -> tuple[tuple[Vector, int, int], ...]:
        """(a, b, mult) in row order, as Python ints: for I/O and the scalar oracle."""
        rows = vectors(self.codes, self.field.q, self.d + 1)
        return tuple((ab[:-1], ab[-1], m) for ab, m in zip(rows, self.mults.tolist()))

    @property
    def total(self) -> int:
        """|P'| = sum of multiplicities."""
        return int(self.mults.sum())

    def has_zero_offset(self) -> bool:
        return bool((self.codes % self.field.q == 0).any())


# --- file I/O -------------------------------------------------------------------

def write_pointset(E: PointSet, path) -> None:
    lines = [E.field.header(), f"d={E.d}"]
    lines += [" ".join(map(str, p)) for p in E.points]
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_file(path, data: bytes) -> None:
    """data as the whole of path, its parent directories made first; an
    OSError is a ConfigError. The file is overwritten in place and cut to
    length: on ext4 an open that truncates frees the file's blocks and starts
    writeback on close, and a 3 KB rewrite took 73-78 us that way against
    19 us in place (2-core VM, ext4 mounted with discard). A FIFO or device
    is never truncated."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open_in_place(path) as f:
            f.write(data)
            truncate_here(f)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def open_in_place(path):
    """path opened for buffered writes (short ones retried) from its start,
    created if missing and not truncated."""
    return open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb")


def truncate_here(f) -> None:
    """Flush f and cut it where the writes reached, if it is a regular file:
    a FIFO or device refuses ftruncate."""
    f.flush()
    if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        os.ftruncate(f.fileno(), f.tell())


def _read_file(path) -> tuple[FieldSpec, int, list[list[str]]]:
    """The field, the dimension and the tokens of each body line of a point-set
    or hyperplane file. Blank lines are skipped, except in the body of a d = 0
    file: there each one is a row of F_q^0, the point () of a point file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    head = [i for i, ln in enumerate(lines) if ln.strip()][:2]
    if len(head) < 2 or not lines[head[1]].startswith("d="):
        raise ConfigError(f"malformed header in {path}")
    F = parse_header(lines[head[0]])
    d = _parse_int(lines[head[1]][2:], f"dimension in {path}")
    if d < 0:
        raise ConfigError(f"negative dimension in {path}")
    return F, d, [ln.split() for ln in lines[head[1] + 1:] if d == 0 or ln.strip()]


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ConfigError(f"{what} is not an integer: {token!r}") from exc


def read_pointset(path) -> PointSet:
    F, d, rows = _read_file(path)
    return PointSet.build(F, d, ([_parse_int(t, "coordinate") for t in toks] for toks in rows))


def read_hyperplanes(path) -> HyperplaneMultiset:
    F, d, rows = _read_file(path)
    entries = []
    for toks in rows:
        a = tuple(_parse_int(c, "normal-vector coordinate") for c in toks[:d])
        kv = dict(t.partition("=")[::2] for t in toks[d:])
        # a repeated column is malformed: dict would keep its last value
        if len(a) != d or len(kv) != len(toks) - d or "b" not in kv or not set(kv) <= {"b", "mult"}:
            raise ConfigError(f"malformed hyperplane line {' '.join(toks)!r} in {path}")
        entries.append((a, _parse_int(kv["b"], "offset b"),
                        _parse_int(kv.get("mult", "1"), "multiplicity")))
    return HyperplaneMultiset.build(F, d, entries)
