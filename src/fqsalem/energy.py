"""Exact additive energies and the Salem-parameter estimator.

L_{2k}(E) counts 2k-tuples (y_1..y_2k) in E^{2k} with
y_1 + ... + y_k = y_{k+1} + ... + y_2k. Conventions for this tuple count
vary; we adopt this one because it is the unique definition under which
the character-orthogonality identity checked in `spectral` is an exact
equality (see README).

Two independent evaluation paths:

* energy_bruteforce — tuple enumeration with a membership completion over
  the scalar field methods, O(|E|^{2k-1}); the oracle.
* energy_convolution — L = sum_v r_k(v)^2 for the representation function
  r_k(v) = #{k-tuples of E summing to v}, an iterated exact convolution of
  chunked numpy pair sums.

Reports read L_4 from the difference side instead: sum_u D(u)^2 over the
difference counts D(u) = #{(x, y) in E^2 : x - y = u} of `pair_counts`, a
pass that shares no counting with the sum side.

Counts are int64 with the range checked from |E|^k; sums of squares are exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .errors import check_budget, ConfigError
from .geometry import PointSet, decode, lift_to_paraboloid, vadd, vsub
from .kernels import (KeyCounter, group_sums, pair_codes, row_blocks,
                      sum_squares, upper_pair_codes)

if TYPE_CHECKING:
    from .harness import Analysis


def _check_order(k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _representation(E: PointSet, k: int, budget: int | None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """r_k as (sorted flat indices of its support, counts)."""
    _check_order(k)
    F, d, n = E.field, E.d, len(E)
    q = F.q
    keys, counts = E.codes, np.ones(n, dtype=np.int64)
    X = E.array
    for step in range(k - 1):
        check_budget(len(keys) * max(n, 1), budget, "energy convolution")
        T = F.tables(budget)
        V = decode(keys, q, d)
        counter = KeyCounter(q ** d, n ** (step + 2), "energy convolution")
        for rows in row_blocks(len(V), max(n, q)):
            counter.add(pair_codes(T.add, V[rows], X, q),
                        None if step == 0 else counts[rows, None])
        keys, counts = counter.result()
    return keys, counts


def energy_convolution(E: PointSet, k: int, budget: int | None = None) -> int:
    """L_{2k}(E) = sum_v r_k(v)^2, exact."""
    return sum_squares(_representation(E, k, budget)[1], len(E) ** (2 * k))


def energy_bruteforce(E: PointSet, k: int, budget: int | None = None) -> int:
    """Oracle: enumerate (2k-1)-tuples and complete the last slot by membership."""
    _check_order(k)
    n = len(E)
    if n == 0:
        return 0
    check_budget(n ** (2 * k - 1), budget, "brute-force energy")
    F = E.field
    members = set(E.points)
    count = 0
    pts = E.points
    for left in product(pts, repeat=k):
        lsum = left[0]
        for y in left[1:]:
            lsum = vadd(F, lsum, y)
        for right in product(pts, repeat=k - 1):
            rsum = right[0] if right else None
            for y in right[1:]:
                rsum = vadd(F, rsum, y)
            # last = lsum - rsum must lie in E
            last = vsub(F, lsum, rsum) if right else lsum
            if last in members:
                count += 1
    return count


@dataclass(frozen=True, eq=False)
class PairCounts:
    """The pairs (x, y) of E^2, diagonal included, counted by their lifted
    difference (x - y, ||x|| - ||y||): the one pass that Lambda_4, E - E, nu
    and the difference family m_t(u) are all read from."""

    E: PointSet
    keys: np.ndarray         # sorted u q + t: u the flat index of x - y, t the norm gap
    counts: np.ndarray       # m_t(u)
    differences: PointSet    # E - E, the support of D(u) = sum_t m_t(u)
    diff_counts: np.ndarray  # D, in the point order of differences
    lam4: int                # sum_u D(u)^2 = Lambda_4(E)


def pair_counts(E: PointSet, budget: int | None = None) -> PairCounts:
    """One pass over the pairs i < j of the lifted points; the rest by symmetry.

    The pair (j, i) has the lifted difference of (i, j) negated digit by
    digit (KeyCounter.add_negated), and the n diagonal pairs have difference 0.
    Charges |E|^2 units.
    """
    F, d, n = E.field, E.d, len(E)
    q = F.q
    check_budget(n ** 2, budget, "pair counts")
    T = F.tables(budget)
    counter = KeyCounter(q ** (d + 1), n * n, "pair counts")
    for codes in upper_pair_codes(T.sub, lift_to_paraboloid(E).array, q):
        counter.add(codes)
    counter.add_negated(F.p, F.r * (d + 1))
    counter.add_zero(n)  # the diagonal pairs (x, x): lifted difference 0
    keys, counts = counter.result()
    diff_codes, diff_counts = group_sums(keys // q, counts)  # D(u) = sum_t m_t(u)
    return PairCounts(E, keys, counts, PointSet.from_codes(F, d, diff_codes), diff_counts,
                      sum_squares(diff_counts, n ** 4))


def salem_parameter(A: Analysis) -> float:
    """Largest s in [1/4, 1/2] with L_4(E) <= |E|^4/q^d + |E|^{4-4s}, for E = A.E.

    |E| = 1 returns 1/2 by convention (the exponent is vacuous) with a warning.
    """
    E = A.E
    n = len(E)
    if n == 0:
        raise ConfigError("salem_parameter needs a nonempty set")
    if n == 1:
        warnings.warn("singleton set: Salem parameter defaults to 1/2", stacklevel=2)
        return 0.5
    q_d = E.field.q ** E.d
    residual = max(A.lam(2) - n ** 4 / q_d, 1.0)
    s = 0.25 * (4.0 - math.log(residual) / math.log(n))
    return min(0.5, max(0.25, s))


def energy_report(A: Analysis, k: int) -> dict:
    """The energy section: Lambda_{2k}(E) as a decimal string, and for k = 2
    the Salem parameter s at the constant C = 1 (None for other k or an empty set)."""
    E = A.E
    n = len(E)
    s = A.salem_s if k == 2 and n >= 1 else None
    return {"k": k, "lambda": str(A.lam(k)), "size": n, "q": E.field.q, "d": E.d,
            "salemS": s, "C": 1.0}
