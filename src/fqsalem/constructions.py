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
from itertools import product

import numpy as np

from .errors import ConfigError, check_budget, check_invariant
from .field import FieldSpec, field_create
from .geometry import (PointSet, Vector, apply_matrix, norm, dot,
                       rotation_group_generator, rotation_group_order,
                       unit_circle_points)
from .spectral import point_index


# --- deterministic thinning generator: splitmix64 ---------------------------------

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _uniform01(seed: int, counter: int) -> float:
    """Order-independent per-index uniform draw in [0, 1)."""
    h = _splitmix64((seed & _MASK) ^ _splitmix64(counter))
    return (h >> 11) / float(1 << 53)


def bernoulli_thin(X: PointSet, theta: float, seed: int) -> PointSet:
    """Keep each point independently with probability theta.

    Inclusion is keyed on the point's canonical index, so the result does
    not depend on iteration order.
    """
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(f"theta must be in [0, 1], got {theta}")
    q = X.field.q
    kept = [p for p in X.points if _uniform01(seed, point_index(q, p)) < theta]
    return PointSet.build(X.field, X.d, kept)


# --- rotation orbits ---------------------------------------------------------------

def rotation_orbit(p: int, r: int, base_point: tuple[int, int] | None = None) -> PointSet:
    """Orbit of a unit-circle point under a rotation of order
    (q+1)/(p+1) when q = 3 mod 4, or (q-1)/(p-1) when q = 1 mod 4.
    """
    F = field_create(p, r)
    q = F.q
    group_order = rotation_group_order(F)
    sub = p + 1 if q % 4 == 3 else p - 1
    if group_order % sub != 0:
        raise ConfigError(
            f"order {group_order} of the rotation group is not divisible by {sub}")
    orbit_len = group_order // sub
    gen = rotation_group_generator(F)
    # theta = gen^sub has exact order orbit_len
    theta = gen
    for _ in range(sub - 1):
        theta = _mat_mul(F, theta, gen)
    if base_point is None:
        a, b = F.two_square_decomposition(1)
        base_point = (a, b)
    if norm(F, base_point) != 1:
        raise ConfigError(f"base point {base_point} is not on the unit circle")
    pts = []
    x = base_point
    for _ in range(orbit_len):
        pts.append(x)
        x = apply_matrix(F, theta, x)
    E = PointSet.build(F, 2, pts)
    check_invariant(len(E) == orbit_len, "rotation orbit shorter than its order")
    return E


def _mat_mul(F: FieldSpec, m1, m2):
    return tuple(
        tuple(_row_col(F, m1, m2, i, j) for j in range(2)) for i in range(2)
    )


def _row_col(F, m1, m2, i, j):
    acc = 0
    for k in range(2):
        acc = F.add(acc, F.mul(m1[i][k], m2[k][j]))
    return acc


# --- isotropic subspaces ------------------------------------------------------------

def null_basis(F: FieldSpec, d: int) -> list[Vector]:
    """d/2 mutually orthogonal null vectors in F_q^d.

    Exists iff d = 0 mod 4, or d = 2 mod 4 with q = 1 mod 4. For
    q = 1 mod 4 use pairs e_{2j-1} + i*e_{2j} with i^2 = -1; otherwise
    use 4-coordinate blocks (1,0,a,b), (0,1,b,-a) with a^2 + b^2 = -1.
    """
    if d % 2 != 0:
        raise ConfigError("dimension must be even")
    if F.q % 4 == 1:
        roots = F.sqrt(F.neg(1))
        i = roots[0]
        basis = []
        for j in range(d // 2):
            v = [0] * d
            v[2 * j], v[2 * j + 1] = 1, i
            basis.append(tuple(v))
        return basis
    if d % 4 != 0:
        raise ConfigError(
            f"d = {d} (2 mod 4) needs q = 1 mod 4, got q = {F.q}")
    a, b = F.two_square_decomposition(F.neg(1))
    basis = []
    for blk in range(d // 4):
        off = 4 * blk
        u, v = [0] * d, [0] * d
        u[off], u[off + 2], u[off + 3] = 1, a, b
        v[off + 1], v[off + 2], v[off + 3] = 1, b, F.neg(a)
        basis.extend([tuple(u), tuple(v)])
    return basis


def isotropic_subspace(F: FieldSpec, d: int, m: int) -> PointSet:
    """Span of m explicitly constructed null, mutually orthogonal vectors."""
    if m < 1 or 2 * m > d:
        raise ConfigError(f"need 1 <= m <= d/2, got m={m}, d={d}")
    basis = null_basis(F, d)[:m]
    for v in basis:
        check_invariant(norm(F, v) == 0, f"basis vector {v} is not null")
    for i_, u in enumerate(basis):
        for w in basis[i_ + 1:]:
            check_invariant(dot(F, u, w) == 0, f"basis vectors {u}, {w} are not orthogonal")
    pts = []
    for coeffs in product(range(F.q), repeat=m):
        acc = [0] * d
        for c, v in zip(coeffs, basis):
            for idx in range(d):
                acc[idx] = F.add(acc[idx], F.mul(c, v[idx]))
        pts.append(tuple(acc))
    E = PointSet.build(F, d, pts)
    check_invariant(len(E) == F.q ** m, "basis vectors were not independent")
    return E


def exhaustive_null_basis(F: FieldSpec, d: int, m: int) -> list[Vector]:
    """Greedy exhaustive search fallback for cross-checking at tiny q."""
    basis: list[Vector] = []
    for v in product(range(F.q), repeat=d):
        if all(c == 0 for c in v):
            continue
        if norm(F, v) != 0:
            continue
        if any(dot(F, v, u) != 0 for u in basis):
            continue
        if _in_span(F, v, basis):
            continue
        basis.append(v)
        if len(basis) == m:
            return basis
    raise ConfigError(f"no {m} mutually orthogonal null vectors in F_{F.q}^{d}")


def _in_span(F: FieldSpec, v: Vector, basis: list[Vector]) -> bool:
    if not basis:
        return all(c == 0 for c in v)
    for coeffs in product(range(F.q), repeat=len(basis)):
        acc = [0] * len(v)
        for c, u in zip(coeffs, basis):
            for idx in range(len(v)):
                acc[idx] = F.add(acc[idx], F.mul(c, u[idx]))
        if tuple(acc) == v:
            return True
    return False


# --- products and subgroup powers ------------------------------------------------------

def product_set(A: PointSet, B: PointSet) -> PointSet:
    if A.field != B.field:
        raise ConfigError("product factors must share one field")
    pts = (a + b for a in A.points for b in B.points)
    return PointSet.build(A.field, A.d + B.d, pts)


def multiplicative_subgroup(F: FieldSpec, m: int) -> PointSet:
    """The unique subgroup of F_q^* of order m, as a 1-dimensional set."""
    if m < 1 or (F.q - 1) % m != 0:
        raise ConfigError(f"m = {m} must divide q - 1 = {F.q - 1}")
    g = F.primitive_element()
    h = F.pow(g, (F.q - 1) // m)
    elems, x = [], 1
    for _ in range(m):
        elems.append((x,))
        x = F.mul(x, h)
    return PointSet.build(F, 1, elems)


def subgroup_power(F: FieldSpec, m: int, d: int) -> PointSet:
    """E = A^d for the multiplicative subgroup A of order m."""
    A = multiplicative_subgroup(F, m)
    E = A
    for _ in range(d - 1):
        E = product_set(E, A)
    return E


# --- conjecture witnesses ------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionResult:
    pointset: PointSet
    kind: str
    target_exponent: float  # conjectured size exponent of q being witnessed
    theta: float            # thinning probability used (1.0 when none)
    notes: dict


def _orbit_factor(p: int, r: int) -> PointSet:
    return rotation_orbit(p, r)


def conjecture_witness(d: int, s: Fraction | float, p: int, r: int,
                       seed: int = 0) -> ConstructionResult:
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
        A = _orbit_factor(p, r)
        X = isotropic_subspace(F, d - 2, (d - 2) // 2)
        breakpoint_s = Fraction(d + 2, 4 * d)
        if s < breakpoint_s:
            E = product_set(A, X)
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
        E = product_set(A, B)
        return ConstructionResult(E, "thinnedEvenProduct",
                                  (d + 2) / (8 * float(s)), theta,
                                  {"sizeA": len(A), "sizeX": len(X), "sizeB": len(B)})
    # odd d: full line factor (alpha = 1 in the limit construction)
    if d < 3:
        raise ConfigError("odd-dimension witnesses need d >= 3")
    A = PointSet.build(F, 1, ((x,) for x in range(q)))
    X = isotropic_subspace(F, d - 1, (d - 1) // 2)
    expo = (d + 1) * (1 - 4 * float(s)) / (8 * float(s))
    theta = min(1.0, q ** expo)
    B = bernoulli_thin(X, theta, seed)
    E = product_set(A, B)
    return ConstructionResult(E, "thinnedOddProduct",
                              (d + 1) / (8 * float(s)), theta,
                              {"sizeA": len(A), "sizeX": len(X), "sizeB": len(B)})


# --- two-set sharpness pair ------------------------------------------------------------

def two_set_sharpness(F: FieldSpec, d: int) -> tuple[PointSet, PointSet]:
    """(E, F) with Delta(E, F) = {1}: null span times the unit circle vs
    the null span alone. Needs d = 2 mod 4, or d = 0 mod 4 with q = 1 mod 4.
    """
    if d % 2 != 0 or d < 4:
        raise ConfigError("d must be even and >= 4")
    span = isotropic_subspace(F, d - 2, (d - 2) // 2)
    circle = PointSet.build(F, 2, unit_circle_points(F))
    E = product_set(span, circle)
    zero2 = PointSet.build(F, 2, [(0, 0)])
    G = product_set(span, zero2)
    return E, G


# --- config-driven dispatch ---------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionSpec:
    kind: str
    params: dict

    def build(self):
        F = field_create(int(self.params["p"]), int(self.params.get("r", 1)))
        k = self.kind
        if k == "orbit":
            return rotation_orbit(F.p, F.r)
        if k == "isotropic":
            return isotropic_subspace(F, int(self.params["d"]), int(self.params["m"]))
        if k == "subgroupPower":
            return subgroup_power(F, int(self.params["m"]), int(self.params["d"]))
        if k == "sphere":
            from .geometry import sphere
            return sphere(F, int(self.params["d"]), int(self.params.get("j", 1)))
        if k == "paraboloid":
            from .geometry import paraboloid
            return paraboloid(F, int(self.params["d"]))
        if k == "fullSpace":
            from .geometry import all_vectors
            d = int(self.params["d"])
            return PointSet.build(F, d, all_vectors(F, d))
        if k == "random":
            return random_pointset(F, int(self.params["d"]),
                                   int(self.params["size"]),
                                   int(self.params.get("seed", 0)))
        if k == "conjectureWitness":
            res = conjecture_witness(int(self.params["d"]),
                                     Fraction(str(self.params["s"])),
                                     F.p, F.r, int(self.params.get("seed", 0)))
            return res.pointset
        if k == "twoSetPair":
            return two_set_sharpness(F, int(self.params["d"]))[0]
        raise ConfigError(f"unknown construction kind {k!r}")


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """_splitmix64 on a uint64 array (numpy's uint64 arithmetic wraps mod 2^64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def random_pointset(F: FieldSpec, d: int, size: int, seed: int,
                    budget: int | None = None) -> PointSet:
    """Deterministic pseudo-random subset of F_q^d of the given size.

    The flat indices i with the smallest (splitmix64(((seed << 20) mod 2^64) ^ i), i)
    are chosen.
    """
    space = F.q ** d
    if size > space:
        raise ConfigError(f"cannot pick {size} points from {space}")
    check_budget(space, budget, f"random sample from F_{F.q}^{d}")
    key = np.uint64((seed << 20) & _MASK)
    scores = _splitmix64_array(np.arange(space, dtype=np.uint64) ^ key)
    chosen = np.sort(np.argsort(scores, kind="stable")[:size])
    return PointSet.from_codes(F, d, chosen)
