"""Distance profiles, distance sets, second moments and bound verifiers.

nu(t) counts ordered pairs (x, y) in E x F with ||x - y|| = t, diagonal
included, so nu(0) >= |E| when F = E. All counts are exact integers;
verifiers report ratios against the asymptotic bounds rather than
asserting hidden constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .energy import difference_set, energy_convolution, salem_parameter
from .errors import check_budget, check_invariant, ConfigError
from .field import FieldSpec
from .geometry import PointSet, norm
from .kernels import KeyCounter, row_blocks


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
    if F is None:
        F = E
    if F.field != E.field or F.d != E.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(E) * len(F), budget, "distance profile")
    K = E.field
    T = K.tables(budget)
    X, Y = E.array, F.array
    counter = KeyCounter(K.q, len(E) * len(F), "distance profile")
    for rows in row_blocks(len(X), len(Y)):
        t = 0
        for i in range(E.d):
            t = T.add[t, T.square[T.sub[X[rows, i, None], Y[None, :, i]]]]
        counter.add(t)
    keys, counts = counter.result()
    return DistanceProfile(K, dict(zip(keys.tolist(), counts.tolist())), len(E), len(F))


def distance_set(E: PointSet, F: PointSet | None = None,
                 budget: int | None = None) -> frozenset[int]:
    return distance_profile(E, F, budget).support


def second_moment(P: DistanceProfile) -> int:
    return sum(c * c for c in P.counts.values())


def cs_lower_bound(P: DistanceProfile) -> Fraction:
    """(|E||F|)^2 / sum nu^2; always <= |support| by Cauchy-Schwarz."""
    if P.total == 0:
        raise ConfigError("empty profile")
    bound = Fraction((P.size_e * P.size_f) ** 2, second_moment(P))
    check_invariant(bound <= len(P.support), "Cauchy-Schwarz bound exceeds |support|")
    return bound


def lift_to_paraboloid(E: PointSet) -> PointSet:
    """E' = {(x, ||x||)} in F_q^{d+1}."""
    F = E.field
    return PointSet.build(F, E.d + 1, (p + (norm(F, p),) for p in E.points))


# --- verifiers (ratios, never pass/fail against hidden constants) ---------------

def verify_secondmoment_bounds(E: PointSet, s: float | None = None,
                               lam4: int | None = None,
                               budget: int | None = None) -> dict:
    """Ratios of sum nu^2 against the two incidence-derived upper bounds:

    RHS1 = |E|^4/q + |E|^3 + q^{d/4} |E|^{3-s} L_4^{1/4}   (Salem route)
    RHS2 = |E|^4/q + q^{d/2} |E|^{3/2} L_4^{1/2}           (arbitrary-set route)
    """
    if lam4 is None:
        lam4 = energy_convolution(E, 2, budget)
    if s is None:
        s = salem_parameter(E, lam4=lam4, budget=budget)
    q, d, n = E.field.q, E.d, len(E)
    sm = second_moment(distance_profile(E, budget=budget))
    rhs1 = n ** 4 / q + n ** 3 + q ** (d / 4) * n ** (3 - s) * lam4 ** 0.25
    rhs2 = n ** 4 / q + q ** (d / 2) * n ** 1.5 * lam4 ** 0.5
    return {
        "sizeE": n, "q": q, "d": d, "s": s, "lambda4": str(lam4),
        "secondMoment": str(sm),
        "rhsSalem": rhs1, "rhsGeneral": rhs2,
        "ratioSalem": sm / rhs1, "ratioGeneral": sm / rhs2,
    }


def verify_difference_bounds(E: PointSet, s: float | None = None,
                  budget: int | None = None) -> dict:
    """|Delta(E)| and |E - E| against min{q, q^{1-d}|E|^{4s}} and min{q^d, |E|^{4s}}."""
    if s is None:
        s = salem_parameter(E, budget=budget)
    q, d, n = E.field.q, E.d, len(E)
    delta = distance_set(E, budget=budget)
    diff = difference_set(E, budget=budget)
    bound_delta = min(q, q ** (1 - d) * n ** (4 * s))
    bound_diff = min(q ** d, n ** (4 * s))
    return {
        "sizeE": n, "q": q, "d": d, "s": s,
        "sizeDelta": len(delta), "sizeDiff": len(diff),
        "boundDelta": bound_delta, "boundDiff": bound_diff,
        "ratioDelta": len(delta) / bound_delta,
        "ratioDiff": len(diff) / bound_diff,
    }


def verify_two_set(E: PointSet, F: PointSet, s_e: float | None = None,
                   s_f: float | None = None, budget: int | None = None) -> dict:
    """|Delta(E,F)| against the two two-set lower-bound expressions."""
    if s_e is None:
        s_e = salem_parameter(E, budget=budget)
    if s_f is None:
        s_f = salem_parameter(F, budget=budget)
    q, d = E.field.q, E.d
    delta = distance_set(E, F, budget=budget)
    expr_pair = len(E) ** s_e * len(F) ** s_f / q ** (d / 4)
    expr_single = len(E) ** (2 * s_e) * len(F) ** 0.5 / q ** (d / 2)
    return {
        "sizeE": len(E), "sizeF": len(F), "q": q, "d": d,
        "sE": s_e, "sF": s_f, "sizeDelta": len(delta),
        "exprTwoSalem": expr_pair, "exprOneSalem": expr_single,
        "ratioTwoSalem": len(delta) / min(q, expr_pair),
        "ratioOneSalem": len(delta) / min(q, len(E), expr_single),
    }


def lift_energy_comparison(E: PointSet, budget: int | None = None) -> dict:
    """Empirical check of L_4(E') <= L_4(E) for the paraboloid lift.

    The inequality is expected but unproven in general; we report both
    values and flag any counterexample instead of assuming it.
    """
    lam = energy_convolution(E, 2, budget)
    lam_lift = energy_convolution(lift_to_paraboloid(E), 2, budget)
    return {
        "lambda4": str(lam), "lambda4Lift": str(lam_lift),
        "liftNotLarger": lam_lift <= lam,
    }
