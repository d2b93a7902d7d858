"""Exact point-hyperplane incidence counts and the counting-bound machinery.

N(P, P') is the multiplicity-weighted number of pairs (x, (a, b)) with
a.x = b. All counts are exact. `incidence_bounds` evaluates the paper's
bounds on N in double precision from exact ingredients and reports each
with its ratio. The dilation trick (`dilate_hyperplanes`,
`sphere_incidence_setup`) multiplies by every lam in F_q^* through one
gather of the multiplication table, and the difference family of the
second-moment proof is read from the pair pass (`energy.pair_counts`),
whose Lambda_4 it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energy import PairCounts, pair_counts
from .errors import check_budget, check_invariant, ConfigError
from .field import FieldTables
from .geometry import HyperplaneMultiset, PointSet, decode, encode, norms
from .kernels import check_int64, sum_squares, table_sums


def count_incidences(P: PointSet, H: HyperplaneMultiset,
                     budget: int | None = None) -> int:
    """sum_(a, b, m) m * #{x in P : a.x = b}, as a chunked (points x hyperplanes) matrix."""
    if P.field != H.field or P.d != H.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(P) * max(len(H.codes), 1), budget, "incidence count")
    check_int64(len(P) * H.total, "incidence count")
    T, d = P.field.tables(budget), P.d
    rows = decode(H.codes, P.field.q, d + 1)
    hits = np.zeros(len(rows), dtype=np.int64)
    for dots in table_sums(T.add, T.mul, P.array, rows[:, :d]):
        hits += np.count_nonzero(dots == rows[:, d], axis=0)
    return int(H.mults @ hits)


def incidence_bounds(P: PointSet, H: HyperplaneMultiset, s: float,
                     budget: int | None = None) -> dict:
    """N = N(P, P') against main term |P||P'|/q plus each bound's error term.

    rhs and ratios (N / rhs) have one key per bound:
      sharp    |P'|^{3/4} q^{(d-1)/4} |P|^{1-s}, or q^{d/4} when some b = 0
               (weakBranch);
      uniform  |P'|^{3/4} q^{d/4} |P|^{1-s};
      power43  (sum m^{4/3})^{3/4} q^{d/4} |P|^{1-s};
      sqmult   (sum m^2)^{1/2} q^{d/2} |P|^{1/2}.
    A ratio is nan when its rhs is 0 (no hyperplanes or no points).
    """
    q, d, n = P.field.q, P.d, len(P)
    N = count_incidences(P, H, budget)
    total = H.total
    mults = H.mults.tolist()
    main = Fraction(n * total, q)
    weak = H.has_zero_offset()
    n_s = n ** (1 - s)
    errors = {
        "sharp": total ** 0.75 * q ** ((d if weak else d - 1) / 4) * n_s,
        "uniform": total ** 0.75 * q ** (d / 4) * n_s,
        "power43": sum(m ** (4 / 3) for m in mults) ** 0.75 * q ** (d / 4) * n_s,
        "sqmult": sum_squares(mults, total ** 2) ** 0.5 * q ** (d / 2) * n ** 0.5,
    }
    rhs = {name: float(main) + err for name, err in errors.items()}
    return {"N": N, "mainTerm": main, "weakBranch": weak, "s": s, "rhs": rhs,
            "ratios": {name: N / r if r else float("nan") for name, r in rhs.items()}}


def _dilations(T: FieldTables, X: np.ndarray) -> np.ndarray:
    """The rows lam * x for every lam in F_q^* and every row x of X, lam
    outermost: one gather of the multiplication table."""
    return T.mul[1:][:, X].reshape((len(T.mul) - 1) * len(X), X.shape[1])


def dilate_hyperplanes(H: HyperplaneMultiset) -> HyperplaneMultiset:
    """P' = {(lam*a, lam*b)}: the projective dilation trick, b != 0 only."""
    if H.has_zero_offset():
        raise ConfigError("dilation requires all b != 0")
    F, d = H.field, H.d
    dilates = _dilations(F.tables(), decode(H.codes, F.q, d + 1))
    return HyperplaneMultiset.from_codes(F, d, encode(dilates, F.q), np.tile(H.mults, F.q - 1))


def incidence_via_dilation(P: PointSet, H: HyperplaneMultiset,
                           budget: int | None = None) -> int:
    """I(P, H) recovered as N(P, dilate(H)) / (q - 1); checked exact."""
    N = count_incidences(P, dilate_hyperplanes(H), budget)
    q = P.field.q
    check_invariant(N % (q - 1) == 0, "dilated incidence count not divisible by q - 1")
    I = N // (q - 1)
    check_invariant(I == count_incidences(P, H, budget),
                    "dilation identity N(P, dilate(H)) = (q - 1) I(P, H) failed")
    return I


def sphere_incidence_setup(E: PointSet, budget: int | None = None
                           ) -> tuple[PointSet, HyperplaneMultiset]:
    """Dilated point set and zero-offset difference multiset for sets on a sphere.

    Requires E nonempty and on a single sphere of nonzero radius. The
    multiset holds each u in E - E with multiplicity D(u), so its sum of
    squared multiplicities is Lambda_4(E) (checked against the pair pass).
    """
    F, d, q = E.field, E.d, E.field.q
    radii = set(norms(E, budget).tolist())
    if len(radii) != 1 or 0 in radii:
        raise ConfigError("E must lie on one sphere of nonzero radius")
    pairs = pair_counts(E, budget)
    P = PointSet.from_codes(F, d, encode(_dilations(F.tables(budget), E.array), q))
    Pp = HyperplaneMultiset.from_codes(F, d, pairs.differences.codes * q, pairs.diff_counts)
    check_invariant(sum_squares(Pp.mults, len(E) ** 4) == pairs.lam4,
                    "sum of squared difference multiplicities differs from L_4(E)")
    return P, Pp


@dataclass(frozen=True)
class DifferenceFamily:
    """Per-t difference multisets from the second-moment proof; m_t(u) itself
    is PairCounts.counts at the key u q + t."""

    x_sizes: dict[int, int]  # t -> |X_t|
    total_pairs: int         # sum_t |X_t|
    sum_m2: int              # sum_t sum_u m_t(u)^2


def difference_family(pairs: PairCounts) -> DifferenceFamily:
    """X_t = {(y,z) in E^2 : ||y|| - ||z|| = t} with difference multiplicities,
    for E = pairs.E, read from its lifted pair counts.

    Invariants (checked against pairs.lam4 = L_4(E), InvariantViolation
    otherwise): sum_t |X_t| = |E|^2 and sum_t sum_u m_t(u)^2 <= L_4(E), with
    equality when E is on one sphere. The inequality holds for every E, and
    with it Lambda_4(E') <= Lambda_4(E) for the paraboloid lift E': summed
    over u, sum_t m_t(u)^2 <= (sum_t m_t(u))^2 = D(u)^2.
    """
    n, q = len(pairs.E), pairs.E.field.q
    sizes = np.zeros(q, dtype=np.int64)
    np.add.at(sizes, pairs.keys % q, pairs.counts)  # |X_t| = sum_u m_t(u), exactly
    gaps = np.flatnonzero(sizes)
    fam = DifferenceFamily(dict(zip(gaps.tolist(), sizes[gaps].tolist())),
                           int(sizes.sum()), sum_squares(pairs.counts, n ** 4))
    check_invariant(fam.total_pairs == n ** 2, "sum_t |X_t| differs from |E|^2")
    check_invariant(fam.sum_m2 <= pairs.lam4, "sum_t sum_u m_t(u)^2 exceeds L_4(E)")
    if set(fam.x_sizes) == {0}:  # E on one sphere: every norm gap is 0
        check_invariant(fam.sum_m2 == pairs.lam4,
                        "sum_t sum_u m_t(u)^2 differs from L_4(E) on one sphere")
    return fam
