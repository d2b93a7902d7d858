"""Distance profiles, second moments and the two-set bound.

nu(t) counts ordered pairs (x, y) in E x F with ||x - y|| = t, diagonal
included, so nu(0) >= |E| when F = E. A profile is a length-q int64 array
indexed by t: `distance_profile` counts it over E x F, and over E x E it is
`energy.PairCounts.nu`. All counts are exact integers;
`verify_two_set` reports ratios against the asymptotic bounds rather than
asserting hidden constants.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import check_budget, check_invariant, ConfigError
from .geometry import PointSet
from .kernels import check_int64, sum_squares, table_sums


def distance_profile(E: PointSet, F: PointSet) -> np.ndarray:
    """nu over E x F as a length-q int64 array; over E x E a report reads
    `PairCounts.nu` of its pair pass instead."""
    if F.field != E.field or F.d != E.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(E) * len(F), "distance profile")
    check_int64(len(E) * len(F), "distance profile")
    K = E.field
    T = K.tables()
    nu = np.zeros(K.q, dtype=np.int64)
    for t in table_sums(T.add, T.square[T.sub], E.array, F.array):
        nu += np.bincount(t.ravel(), minlength=K.q)
    return nu


def second_moment(nu: np.ndarray) -> int:
    """sum_t nu(t)^2, exact."""
    return sum_squares(nu, int(nu.sum()) ** 2)


def cs_lower_bound(nu: np.ndarray) -> Fraction:
    """(|E||F|)^2 / sum nu^2, where |E||F| = sum_t nu(t); always <= |support|
    by Cauchy-Schwarz."""
    total = int(nu.sum())
    if total == 0:
        raise ConfigError("empty profile")
    bound = Fraction(total ** 2, second_moment(nu))
    check_invariant(bound <= int(np.count_nonzero(nu)), "Cauchy-Schwarz bound exceeds |support|")
    return bound


def verify_two_set(E: PointSet, F: PointSet, s_e: float, s_f: float) -> dict:
    """|Delta(E,F)| against the two two-set lower-bound expressions."""
    q, d = E.field.q, E.d
    size_delta = int(np.count_nonzero(distance_profile(E, F)))
    expr_pair = len(E) ** s_e * len(F) ** s_f / q ** (d / 4)
    expr_single = len(E) ** (2 * s_e) * len(F) ** 0.5 / q ** (d / 2)
    return {
        "sizeE": len(E), "sizeF": len(F), "q": q, "d": d,
        "sE": s_e, "sF": s_f, "sizeDelta": size_delta,
        "exprTwoSalem": expr_pair, "exprOneSalem": expr_single,
        "ratioTwoSalem": size_delta / min(q, expr_pair),
        "ratioOneSalem": size_delta / min(q, len(E), expr_single),
    }

