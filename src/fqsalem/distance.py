"""Distance profiles, second moments and bound verifiers.

nu(t) counts ordered pairs (x, y) in E x F with ||x - y|| = t, diagonal
included, so nu(0) >= |E| when F = E. All counts are exact integers;
verifiers report ratios against the asymptotic bounds rather than
asserting hidden constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .energy import PairCounts, pair_counts
from .errors import check_budget, check_invariant, ConfigError
from .field import FieldSpec
from .geometry import PointSet, norms
from .kernels import KeyCounter, merge, sum_squares, table_sums

if TYPE_CHECKING:
    from .harness import Analysis


@dataclass(frozen=True)
class DistanceProfile:
    field: FieldSpec
    counts: dict[int, int]
    size_e: int
    size_f: int

    @property
    def support(self) -> frozenset[int]:
        return frozenset(t for t, c in self.counts.items() if c > 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def nu(self, t: int) -> int:
        return self.counts.get(t, 0)


def distance_profile(E: PointSet, F: PointSet | None = None,
                     budget: int | None = None) -> DistanceProfile:
    """nu over E x F, or over E x E from the pair counts when F is omitted."""
    if F is None:
        return pair_profile(pair_counts(E, budget))
    if F.field != E.field or F.d != E.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(E) * len(F), budget, "distance profile")
    K = E.field
    T = K.tables(budget)
    counter = KeyCounter(K.q, len(E) * len(F), "distance profile")
    for t in table_sums(T.add, T.square[T.sub], E.array, F.array):
        counter.add(t)
    keys, counts = counter.result()
    return DistanceProfile(K, dict(zip(keys.tolist(), counts.tolist())), len(E), len(F))


def pair_profile(pairs: PairCounts) -> DistanceProfile:
    """nu(t) = sum of D(u) over the differences u in E - E with ||u|| = t."""
    E = pairs.E
    keys, counts = merge(norms(pairs.differences), pairs.diff_counts)
    return DistanceProfile(E.field, dict(zip(keys.tolist(), counts.tolist())), len(E), len(E))


def second_moment(P: DistanceProfile) -> int:
    return sum_squares(np.fromiter(P.counts.values(), np.int64, len(P.counts)), P.total ** 2)


def cs_lower_bound(P: DistanceProfile) -> Fraction:
    """(|E||F|)^2 / sum nu^2; always <= |support| by Cauchy-Schwarz."""
    if P.total == 0:
        raise ConfigError("empty profile")
    bound = Fraction((P.size_e * P.size_f) ** 2, second_moment(P))
    check_invariant(bound <= len(P.support), "Cauchy-Schwarz bound exceeds |support|")
    return bound


# --- verifiers (ratios, never pass/fail against hidden constants) ---------------

def verify_secondmoment_bounds(A: Analysis, s: float) -> dict:
    """Ratios of sum nu^2 against the two incidence-derived upper bounds:

    RHS1 = |E|^4/q + |E|^3 + q^{d/4} |E|^{3-s} L_4^{1/4}   (Salem route)
    RHS2 = |E|^4/q + q^{d/2} |E|^{3/2} L_4^{1/2}           (arbitrary-set route)
    """
    E, lam4 = A.E, A.lam(2)
    q, d, n = E.field.q, E.d, len(E)
    sm = second_moment(A.profile)
    rhs1 = n ** 4 / q + n ** 3 + q ** (d / 4) * n ** (3 - s) * lam4 ** 0.25
    rhs2 = n ** 4 / q + q ** (d / 2) * n ** 1.5 * lam4 ** 0.5
    return {
        "sizeE": n, "q": q, "d": d, "s": s, "lambda4": str(lam4),
        "secondMoment": str(sm),
        "rhsSalem": rhs1, "rhsGeneral": rhs2,
        "ratioSalem": sm / rhs1, "ratioGeneral": sm / rhs2,
    }


def verify_difference_bounds(A: Analysis, s: float) -> dict:
    """|Delta(E)| and |E - E| against min{q, q^{1-d}|E|^{4s}} and min{q^d, |E|^{4s}}."""
    E = A.E
    q, d, n = E.field.q, E.d, len(E)
    size_delta, size_diff = len(A.profile.support), len(A.pairs.differences)
    bound_delta = min(q, q ** (1 - d) * n ** (4 * s))
    bound_diff = min(q ** d, n ** (4 * s))
    return {
        "sizeE": n, "q": q, "d": d, "s": s,
        "sizeDelta": size_delta, "sizeDiff": size_diff,
        "boundDelta": bound_delta, "boundDiff": bound_diff,
        "ratioDelta": size_delta / bound_delta,
        "ratioDiff": size_diff / bound_diff,
    }


def verify_two_set(E: PointSet, F: PointSet, s_e: float, s_f: float,
                   budget: int | None = None) -> dict:
    """|Delta(E,F)| against the two two-set lower-bound expressions."""
    q, d = E.field.q, E.d
    delta = distance_profile(E, F, budget).support
    expr_pair = len(E) ** s_e * len(F) ** s_f / q ** (d / 4)
    expr_single = len(E) ** (2 * s_e) * len(F) ** 0.5 / q ** (d / 2)
    return {
        "sizeE": len(E), "sizeF": len(F), "q": q, "d": d,
        "sE": s_e, "sF": s_f, "sizeDelta": len(delta),
        "exprTwoSalem": expr_pair, "exprOneSalem": expr_single,
        "ratioTwoSalem": len(delta) / min(q, expr_pair),
        "ratioOneSalem": len(delta) / min(q, len(E), expr_single),
    }

