"""Distance profiles, second moments and the two-set bound.

nu(t) counts ordered pairs (x, y) in E x F with ||x - y|| = t, diagonal
included, so nu(0) >= |E| when F = E. All counts are exact integers;
`verify_two_set` reports ratios against the asymptotic bounds rather than
asserting hidden constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .energy import PairCounts
from .errors import check_budget, check_invariant, ConfigError
from .field import FieldSpec
from .geometry import PointSet, norms
from .kernels import KeyCounter, sum_squares, table_sums


@dataclass(frozen=True)
class DistanceProfile:
    """nu(t) as counts[t] for the t with nu(t) > 0; derived values are kept on first use."""

    field: FieldSpec
    counts: dict[int, int]
    size_e: int
    size_f: int

    @cached_property
    def support(self) -> frozenset[int]:
        return frozenset(t for t, c in self.counts.items() if c > 0)

    @cached_property
    def total(self) -> int:
        return sum(self.counts.values())

    @cached_property
    def second_moment(self) -> int:
        """sum_t nu(t)^2, exact."""
        return sum_squares(np.fromiter(self.counts.values(), np.int64, len(self.counts)),
                           self.total ** 2)

    def nu(self, t: int) -> int:
        return self.counts.get(t, 0)


def distance_profile(E: PointSet, F: PointSet) -> DistanceProfile:
    """nu over E x F; over E x E a report reads `pair_profile` of its pair counts."""
    if F.field != E.field or F.d != E.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(E) * len(F), "distance profile")
    K = E.field
    T = K.tables()
    counter = KeyCounter(K.q, len(E) * len(F), "distance profile")
    for t in table_sums(T.add, T.square[T.sub], E.array, F.array):
        counter.add(t)
    keys, counts = counter.result()
    return DistanceProfile(K, dict(zip(keys.tolist(), counts.tolist())), len(E), len(F))


def pair_profile(pairs: PairCounts) -> DistanceProfile:
    """nu(t) = sum of D(u) over the differences u in E - E with ||u|| = t: each
    D(u) added into the bucket of its norm, one of q (exact int64: the sum is |E|^2)."""
    E = pairs.E
    nu = np.zeros(E.field.q, dtype=np.int64)
    np.add.at(nu, norms(pairs.differences), pairs.diff_counts)
    t = np.flatnonzero(nu)
    return DistanceProfile(E.field, dict(zip(t.tolist(), nu[t].tolist())), len(E), len(E))


def cs_lower_bound(P: DistanceProfile) -> Fraction:
    """(|E||F|)^2 / sum nu^2; always <= |support| by Cauchy-Schwarz."""
    if P.total == 0:
        raise ConfigError("empty profile")
    bound = Fraction((P.size_e * P.size_f) ** 2, P.second_moment)
    check_invariant(bound <= len(P.support), "Cauchy-Schwarz bound exceeds |support|")
    return bound


def verify_two_set(E: PointSet, F: PointSet, s_e: float, s_f: float) -> dict:
    """|Delta(E,F)| against the two two-set lower-bound expressions."""
    q, d = E.field.q, E.d
    delta = distance_profile(E, F).support
    expr_pair = len(E) ** s_e * len(F) ** s_f / q ** (d / 4)
    expr_single = len(E) ** (2 * s_e) * len(F) ** 0.5 / q ** (d / 2)
    return {
        "sizeE": len(E), "sizeF": len(F), "q": q, "d": d,
        "sE": s_e, "sF": s_f, "sizeDelta": len(delta),
        "exprTwoSalem": expr_pair, "exprOneSalem": expr_single,
        "ratioTwoSalem": len(delta) / min(q, expr_pair),
        "ratioOneSalem": len(delta) / min(q, len(E), expr_single),
    }

