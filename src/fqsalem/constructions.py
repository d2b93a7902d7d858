"""Explicit families of Salem-type sets with few distances.

Rotation orbits on the unit circle, isotropic (null) subspace spans,
product sets, seeded Bernoulli thinnings and the sharpness witnesses for
the two-set distance bounds. Every construction is deterministic given
its parameters (and seed, where randomness is involved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import ConfigError, check_budget, check_invariant, config_value
from .field import FieldSpec, field_create
from .geometry import (PointSet, Vector, encode, full_space, norm, dot, paraboloid,
                       rotation_group_order, sphere)


# --- deterministic thinning generator: splitmix64 ---------------------------------

_MASK = (1 << 64) - 1


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each element of a uint64 array (numpy's uint64 arithmetic
    on arrays wraps mod 2^64; on a scalar it warns)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def bernoulli_thin(X: PointSet, theta: float, seed: int) -> PointSet:
    """Keep each point independently with probability theta.

    The point with flat index i is kept when the top 53 bits of
    splitmix64((seed mod 2^64) ^ splitmix64(i)), as a fraction of 2^53, are
    below theta, so the result does not depend on iteration order.
    """
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(f"theta must be in [0, 1], got {theta}")
    h = _splitmix64_array(np.uint64(seed & _MASK) ^ _splitmix64_array(X.codes.astype(np.uint64)))
    kept = (h >> np.uint64(11)) / float(1 << 53) < theta
    return PointSet.from_codes(X.field, X.d, X.codes[kept])


# --- cyclic subgroups as n-torsion ---------------------------------------------------

def _torsion(X: np.ndarray, n: int, mul, one) -> np.ndarray:
    """The rows x of X with x^n = one, where mul multiplies two arrays of group
    elements row by row. In a cyclic group of order divisible by n these are
    the n elements of its one subgroup of order n. x^n is one square and
    multiply over all rows at once.
    """
    power, base = None, X
    while n:
        if n & 1:
            power = base if power is None else mul(power, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return X[(power == one).all(axis=1)]


def _circle_mul(T, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(a + bi)(c + di) with i^2 = -1 on rows (a, b) and (c, d), through the tables."""
    a, b, c, d = u[..., 0], u[..., 1], v[..., 0], v[..., 1]
    return np.stack([T.sub[T.mul[a, c], T.mul[b, d]], T.add[T.mul[a, d], T.mul[b, c]]], axis=-1)


def rotation_orbit(p: int, r: int, budget: int | None = None) -> PointSet:
    """Orbit of the unit-circle point (0, 1) under a rotation of order
    (q+1)/(p+1) when q = 3 mod 4, or (q-1)/(p-1) when q = 1 mod 4.

    The rotations (a, -b; b, a) are the unit circle S_1 under
    (a, b)(c, d) = (ac - bd, ad + bc), a cyclic group; so the orbit is
    (0, 1) * H for H = {x in S_1 : x^n = 1}, n the rotation's order.
    """
    F = field_create(p, r)
    q = F.q
    group_order = rotation_group_order(F)
    sub = p + 1 if q % 4 == 3 else p - 1
    if group_order % sub != 0:
        raise ConfigError(
            f"order {group_order} of the rotation group is not divisible by {sub}")
    orbit_len = group_order // sub
    T = F.tables(budget)
    circle = sphere(F, 2, 1, budget)
    H = _torsion(circle.array, orbit_len, partial(_circle_mul, T), (1, 0))
    E = PointSet.from_codes(F, 2, encode(_circle_mul(T, np.array((0, 1)), H), q))
    check_invariant(len(E) == orbit_len, "rotation orbit shorter than its order")
    return E


# --- isotropic subspaces ------------------------------------------------------------

def null_basis(F: FieldSpec, d: int, budget: int | None = None) -> list[Vector]:
    """d/2 mutually orthogonal null vectors in F_q^d.

    Exists iff d = 0 mod 4, or d = 2 mod 4 with q = 1 mod 4. For
    q = 1 mod 4 use pairs e_{2j-1} + i*e_{2j} with i^2 = -1; otherwise
    use 4-coordinate blocks (1,0,a,b), (0,1,b,-a) with a^2 + b^2 = -1.
    """
    if d % 2 != 0:
        raise ConfigError("dimension must be even")
    if F.q % 4 != 1 and d % 4 != 0:
        raise ConfigError(
            f"d = {d} (2 mod 4) needs q = 1 mod 4, got q = {F.q}")
    T = F.tables(budget)
    minus_one = T.neg[1]
    if F.q % 4 == 1:
        i = int(np.flatnonzero(T.square == minus_one)[0])  # the smaller root of -1
        basis = []
        for j in range(d // 2):
            v = [0] * d
            v[2 * j], v[2 * j + 1] = 1, i
            basis.append(tuple(v))
        return basis
    # the first a with -1 - a^2 a square, and b its smaller root
    is_square = np.zeros(F.q, dtype=bool)
    is_square[T.square] = True
    a = int(np.flatnonzero(is_square[T.sub[minus_one, T.square]])[0])
    b = int(np.flatnonzero(T.square == T.sub[minus_one, T.square[a]])[0])
    basis = []
    for blk in range(d // 4):
        off = 4 * blk
        u, v = [0] * d, [0] * d
        u[off], u[off + 2], u[off + 3] = 1, a, b
        v[off + 1], v[off + 2], v[off + 3] = 1, b, int(T.neg[a])
        basis.extend([tuple(u), tuple(v)])
    return basis


def isotropic_subspace(F: FieldSpec, d: int, m: int, budget: int | None = None) -> PointSet:
    """Span of m explicitly constructed null, mutually orthogonal vectors.
    Charges its q^m points."""
    if m < 1 or 2 * m > d:
        raise ConfigError(f"need 1 <= m <= d/2, got m={m}, d={d}")
    check_budget(F.q ** m, budget, f"isotropic span in F_{F.q}^{d}")
    basis = null_basis(F, d, budget)[:m]
    for v in basis:
        check_invariant(norm(F, v) == 0, f"basis vector {v} is not null")
    for i_, u in enumerate(basis):
        for w in basis[i_ + 1:]:
            check_invariant(dot(F, u, w) == 0, f"basis vectors {u}, {w} are not orthogonal")
    # the span as all sums of c v over the basis, through the field tables
    T, X = F.tables(budget), np.zeros((1, d), dtype=np.int64)
    for v in basis:
        X = T.add[X[:, None], T.mul[np.arange(F.q)[:, None], np.array(v)]].reshape(-1, d)
    E = PointSet.from_codes(F, d, encode(X, F.q))
    check_invariant(len(E) == F.q ** m, "basis vectors were not independent")
    return E


# --- products and subgroup powers ------------------------------------------------------

def product_set(A: PointSet, B: PointSet, budget: int | None = None) -> PointSet:
    """A x B; charges its |A| |B| points."""
    if A.field != B.field:
        raise ConfigError("product factors must share one field")
    check_budget(len(A) * len(B), budget, "product set")
    # the index of (a, b) is index(a) q^{dim B} + index(b)
    codes = A.codes[:, None] * A.field.q ** B.d + B.codes[None, :]
    return PointSet.from_codes(A.field, A.d + B.d, codes.ravel())


def multiplicative_subgroup(F: FieldSpec, m: int, budget: int | None = None) -> PointSet:
    """The unique subgroup of F_q^* of order m, as a 1-dimensional set: the
    x with x^m = 1."""
    if m < 1 or (F.q - 1) % m != 0:
        raise ConfigError(f"m = {m} must divide q - 1 = {F.q - 1}")
    T = F.tables(budget)
    A = _torsion(np.arange(1, F.q)[:, None], m, lambda x, y: T.mul[x, y], (1,))
    E = PointSet.from_codes(F, 1, A[:, 0])
    check_invariant(len(E) == m, f"F_{F.q}^* has {len(E)} elements with x^{m} = 1, not {m}")
    return E


def subgroup_power(F: FieldSpec, m: int, d: int, budget: int | None = None) -> PointSet:
    """E = A^d for the multiplicative subgroup A of order m."""
    A = multiplicative_subgroup(F, m, budget)
    E = A
    for _ in range(d - 1):
        E = product_set(E, A, budget)
    return E


# --- conjecture witnesses ------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionResult:
    pointset: PointSet
    kind: str
    target_exponent: float  # conjectured size exponent of q being witnessed
    theta: float            # thinning probability used (1.0 when none)
    notes: dict


def conjecture_witness(d: int, s: Fraction | float, p: int, r: int,
                       seed: int = 0, budget: int | None = None) -> ConstructionResult:
    """Few-distance Salem set targeting the conjectured threshold exponent.

    Branches: even d with s below (d+2)/(4d) is the plain product of a
    rotation orbit with a null span; even d above the breakpoint adds a
    Bernoulli thinning of the span; odd d uses a line factor with a
    thinned null span. The null span lives in d-2 (resp. d-1)
    coordinates, so the parity condition is on that codimension.
    """
    s = Fraction(s).limit_denominator(1 << 40) if not isinstance(s, Fraction) else s
    if not Fraction(1, 4) <= s <= Fraction(1, 2):
        raise ConfigError(f"s must be in [1/4, 1/2], got {s}")
    F = field_create(p, r)
    q = F.q
    if d % 2 == 0:
        if d < 4:
            raise ConfigError("even-dimension witnesses need d >= 4")
        A = rotation_orbit(p, r, budget)
        X = isotropic_subspace(F, d - 2, (d - 2) // 2, budget)
        breakpoint_s = Fraction(d + 2, 4 * d)
        if s < breakpoint_s:
            E = product_set(A, X, budget)
            return ConstructionResult(E, "productOrbitSpan", d / 2, 1.0,
                                      {"sizeA": len(A), "sizeX": len(X)})
        alpha = math.log(len(A)) / math.log(q)
        expo = (2 * (1 - 2 * float(s)) * (alpha + (d - 2) / 2)
                + (1 - d / 2)) / (4 * float(s))
        if expo > 0:
            raise ConfigError(
                f"thinning exponent {expo:.4f} > 0: s too small for this orbit size")
        theta = q ** expo
        B = bernoulli_thin(X, theta, seed)
        E = product_set(A, B, budget)
        return ConstructionResult(E, "thinnedEvenProduct",
                                  (d + 2) / (8 * float(s)), theta,
                                  {"sizeA": len(A), "sizeX": len(X), "sizeB": len(B)})
    # odd d: full line factor (alpha = 1 in the limit construction)
    if d < 3:
        raise ConfigError("odd-dimension witnesses need d >= 3")
    A = full_space(F, 1, budget)
    X = isotropic_subspace(F, d - 1, (d - 1) // 2, budget)
    expo = (d + 1) * (1 - 4 * float(s)) / (8 * float(s))
    theta = min(1.0, q ** expo)
    B = bernoulli_thin(X, theta, seed)
    E = product_set(A, B, budget)
    return ConstructionResult(E, "thinnedOddProduct",
                              (d + 1) / (8 * float(s)), theta,
                              {"sizeA": len(A), "sizeX": len(X), "sizeB": len(B)})


# --- two-set sharpness pair ------------------------------------------------------------

def two_set_sharpness(F: FieldSpec, d: int,
                      budget: int | None = None) -> tuple[PointSet, PointSet]:
    """(E, F) with Delta(E, F) = {1}: null span times the unit circle vs
    the null span alone. Needs d = 2 mod 4, or d = 0 mod 4 with q = 1 mod 4.
    """
    if d % 2 != 0 or d < 4:
        raise ConfigError("d must be even and >= 4")
    span = isotropic_subspace(F, d - 2, (d - 2) // 2, budget)
    circle = sphere(F, 2, 1, budget)
    E = product_set(span, circle, budget)
    G = product_set(span, PointSet.build(F, 2, [(0, 0)]), budget)
    return E, G


# --- config-driven dispatch ---------------------------------------------------------------

#: each kind's builder and the parameters it reads besides the field's p and
#: r; every kind also accepts the `seed` a config injects
_KINDS = {
    "orbit": ((), lambda F, get, budget: rotation_orbit(F.p, F.r, budget)),
    "isotropic": (("d", "m"),
                  lambda F, get, budget: isotropic_subspace(F, get("d"), get("m"), budget)),
    "subgroupPower": (("m", "d"),
                      lambda F, get, budget: subgroup_power(F, get("m"), get("d"), budget)),
    "sphere": (("d", "j"), lambda F, get, budget: sphere(F, get("d"), get("j", 1), budget)),
    "paraboloid": (("d",), lambda F, get, budget: paraboloid(F, get("d"), budget)),
    "fullSpace": (("d",), lambda F, get, budget: full_space(F, get("d"), budget)),
    "random": (("d", "size"), lambda F, get, budget: random_pointset(
        F, get("d"), get("size"), get("seed", 0), budget)),
    "conjectureWitness": (("d", "s"), lambda F, get, budget: conjecture_witness(
        s=get("s", convert=lambda v: Fraction(str(v))), d=get("d"), p=F.p, r=F.r,
        seed=get("seed", 0), budget=budget).pointset),
    "twoSetPair": (("d",), lambda F, get, budget: two_set_sharpness(F, get("d"), budget)[0]),
}


@dataclass(frozen=True)
class ConstructionSpec:
    kind: str
    params: dict

    def build(self, budget: int | None = None):
        """The set; every construction charges `budget` for its scans, spans,
        products and field tables before it builds them."""
        k = self.kind
        if not (isinstance(k, str) and k in _KINDS):
            raise ConfigError(f"unknown construction kind {k!r}")
        reads, builder = _KINDS[k]
        unread = sorted(set(self.params) - {"p", "r", "seed"} - set(reads), key=str)
        if unread:
            raise ConfigError(f"construction {k!r} takes no parameter "
                              + ", ".join(map(repr, unread)))
        get = partial(config_value, self.params)
        return builder(field_create(get("p"), get("r", 1)), get, budget)


def random_pointset(F: FieldSpec, d: int, size: int, seed: int,
                    budget: int | None = None) -> PointSet:
    """Deterministic pseudo-random subset of F_q^d of the given size.

    The flat indices i with the smallest splitmix64(((seed << 20) mod 2^64) ^ i)
    are chosen; these scores are distinct (splitmix64 and xor are bijections
    of uint64), so a partial sort picks them.
    """
    space = F.q ** d
    if not 0 <= size <= space:
        raise ConfigError(f"cannot pick {size} points from {space}")
    check_budget(space, budget, f"random sample from F_{F.q}^{d}")
    key = np.uint64((seed << 20) & _MASK)
    scores = _splitmix64_array(np.arange(space, dtype=np.uint64) ^ key)
    return PointSet.from_codes(F, d, np.argpartition(scores, max(size - 1, 0))[:size])
