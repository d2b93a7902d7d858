"""Exact additive energies and the Salem-parameter estimator.

L_{2k}(E) counts 2k-tuples (y_1..y_2k) in E^{2k} with
y_1 + ... + y_k = y_{k+1} + ... + y_2k. Conventions for this tuple count
vary; we adopt this one because it is the unique definition under which
the character-orthogonality identity checked in `spectral` is an exact
equality (see README).

Two independent evaluation paths:

* energy_bruteforce — tuple enumeration with a membership completion over
  the scalar field methods, O(|E|^{2k-1}); the oracle.
* energy_convolution — iterated exact convolution of the representation
  function r_k(v) = #{k-tuples of E summing to v}, as chunked numpy pair
  sums over the field tables whose flat indices into q^d are counted;
  L = sum r_k(v)^2.

Counts are int64 with the range checked from |E|^k; the sum of squares is
an exact Python int.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import check_budget, ConfigError
from .geometry import PointSet, Vector, decode, encode, vadd, vectors, vsub
from .kernels import KeyCounter, pair_codes, row_blocks


def _representation(E: PointSet, k: int, budget: int | None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """r_k as (sorted flat indices of its support, counts)."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    F, d, n = E.field, E.d, len(E)
    q = F.q
    keys, counts = encode(E.array, q), np.ones(n, dtype=np.int64)
    X = E.array
    for step in range(k - 1):
        check_budget(len(keys) * max(n, 1), budget, "energy convolution")
        T = F.tables(budget)
        V = decode(keys, q, d)
        counter = KeyCounter(q ** d, n ** (step + 2), "energy convolution")
        for rows in row_blocks(len(V), n):
            counter.add(pair_codes(T.add, V[rows], X, q),
                        None if step == 0 else counts[rows, None])
        keys, counts = counter.result()
    return keys, counts


def representation_function(E: PointSet, k: int, budget: int | None = None) -> dict[Vector, int]:
    """r_k(v) = number of ordered k-tuples from E summing to v."""
    keys, counts = _representation(E, k, budget)
    return dict(zip(vectors(keys, E.field.q, E.d), counts.tolist()))


def energy_convolution(E: PointSet, k: int, budget: int | None = None) -> int:
    """L_{2k}(E) = sum_v r_k(v)^2, exact."""
    if len(E) == 0:
        return 0
    # squares of the int64 counts as Python ints, so the sum cannot wrap
    return sum(c * c for c in _representation(E, k, budget)[1].tolist())


def energy_bruteforce(E: PointSet, k: int, budget: int | None = None) -> int:
    """Oracle: enumerate (2k-1)-tuples and complete the last slot by membership."""
    n = len(E)
    if n == 0:
        return 0
    check_budget(n ** (2 * k - 1), budget, "brute-force energy")
    F = E.field
    members = E._index
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


def difference_counts(E: PointSet, budget: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """#{(x, y) in E^2 : x - y = v} as (sorted flat indices of v, counts)."""
    n, d, q = len(E), E.d, E.field.q
    check_budget(n ** 2, budget, "difference set")
    T = E.field.tables(budget)
    X = E.array
    counter = KeyCounter(q ** d, n * n, "difference counts")
    for rows in row_blocks(n, n):
        counter.add(pair_codes(T.sub, X[rows], X, q))
    return counter.result()


def difference_set(E: PointSet, budget: int | None = None) -> PointSet:
    return PointSet.from_codes(E.field, E.d, difference_counts(E, budget)[0])


@dataclass(frozen=True)
class EnergyReport:
    k: int
    lam: int
    set_size: int
    q: int
    d: int
    background: Fraction  # |E|^{2k} / q^d, exact
    salem_s: float | None  # only for k = 2
    constant: float
    trivial_size_one: bool = False

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "lambda": str(self.lam),
            "size": self.set_size,
            "q": self.q,
            "d": self.d,
            "salemS": self.salem_s,
            "C": self.constant,
        }


def salem_parameter(E: PointSet, C: float = 1.0, lam4: int | None = None,
                    budget: int | None = None) -> float:
    """Largest s in [1/4, 1/2] with L_4(E) <= C(|E|^4/q^d + |E|^{4-4s}).

    |E| = 1 returns 1/2 by convention (the exponent is vacuous) with a warning.
    """
    n = len(E)
    if n == 0:
        raise ConfigError("salem_parameter needs a nonempty set")
    if n == 1:
        warnings.warn("singleton set: Salem parameter defaults to 1/2", stacklevel=2)
        return 0.5
    if lam4 is None:
        lam4 = energy_convolution(E, 2, budget)
    q_d = E.field.q ** E.d
    residual = max(lam4 / C - n ** 4 / q_d, 1.0)
    s = 0.25 * (4.0 - math.log(residual) / math.log(n))
    return min(0.5, max(0.25, s))


def energy_report(E: PointSet, k: int, C: float = 1.0, budget: int | None = None) -> EnergyReport:
    lam = energy_convolution(E, k, budget)
    n = len(E)
    q_d = E.field.q ** E.d
    s = None
    trivial = False
    if k == 2 and n >= 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = salem_parameter(E, C, lam4=lam, budget=budget)
        trivial = n == 1
    return EnergyReport(k, lam, n, E.field.q, E.d,
                        Fraction(n ** (2 * k), q_d), s, C, trivial)
