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
from .geometry import HyperplaneMultiset, PointSet, encode, norms
from .kernels import group_sums, row_blocks, sum_squares


def count_incidences(P: PointSet, H: HyperplaneMultiset,
                     budget: int | None = None) -> int:
    """sum_(a, b, m) m * #{x in P : a.x = b}, as a chunked (points x hyperplanes) matrix."""
    if P.field != H.field or P.d != H.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(P) * max(len(H.entries), 1), budget, "incidence count")
    if not H.entries:
        return 0
    T = P.field.tables(budget)
    A = np.array([a for a, _, _ in H.entries], dtype=np.int64)
    b = np.array([b for _, b, _ in H.entries], dtype=np.int64)
    X = P.array
    hits = np.zeros(len(A), dtype=np.int64)
    for rows in row_blocks(len(X), max(len(A), P.field.q)):
        dots = np.zeros((rows.stop - rows.start, len(A)), dtype=np.int64)
        for i in range(P.d):  # row gathers: the table rows of X, then the columns of A
            dots = T.add[dots, T.mul[X[rows, i]][:, A[:, i]]]
        hits += np.count_nonzero(dots == b, axis=0)
    return sum(m * h for (_, _, m), h in zip(H.entries, hits.tolist()))


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
    mults = [m for _, _, m in H.entries]
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
    rows = np.array([(*a, b) for a, b, _ in H.entries], dtype=np.int64).reshape(-1, d + 1)
    dilates = _dilations(F.tables(), rows).tolist()
    mults = [m for _, _, m in H.entries] * (F.q - 1)
    return HyperplaneMultiset.build(F, d, ((ab[:d], ab[d], m) for ab, m in zip(dilates, mults)))


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

    Requires E on a single sphere of nonzero radius. The multiset holds each
    u in E - E with multiplicity D(u), so its sum of squared multiplicities
    is Lambda_4(E) (checked against the pair pass).
    """
    F, d, q = E.field, E.d, E.field.q
    if len(E) == 0:
        raise ConfigError("empty set")
    radii = set(norms(E, budget).tolist())
    if len(radii) != 1 or 0 in radii:
        raise ConfigError("E must lie on one sphere of nonzero radius")
    pairs = pair_counts(E, budget)
    P = PointSet.from_codes(F, d, encode(_dilations(F.tables(budget), E.array), q))
    Pp = HyperplaneMultiset.build(
        F, d, ((u, 0, m) for u, m in zip(pairs.differences.points, pairs.diff_counts.tolist())),
        allow_degenerate=True)
    check_invariant(sum_squares([m for _, _, m in Pp.entries], len(E) ** 4) == pairs.lam4,
                    "sum of squared difference multiplicities differs from L_4(E)")
    return P, Pp


@dataclass(frozen=True)
class DifferenceFamily:
    """Per-t difference multisets from the second-moment proof.

    keys are the sorted t q^d + u over the pairs with m_t(u) > 0, for the gap t
    and the flat index u of the difference; counts are the m_t(u).
    """

    keys: np.ndarray
    counts: np.ndarray
    x_sizes: dict[int, int]  # t -> |X_t|
    total_pairs: int         # sum_t |X_t|
    sum_m2: int              # sum_t sum_u m_t(u)^2


def difference_family(pairs: PairCounts) -> DifferenceFamily:
    """X_t = {(y,z) in E^2 : ||y|| - ||z|| = t} with difference multiplicities,
    for E = pairs.E, remapped from its lifted pair counts.

    Invariants (checked against pairs.lam4 = L_4(E), InvariantViolation
    otherwise): sum_t |X_t| = |E|^2 and sum_t sum_u m_t(u)^2 <= L_4(E), with
    equality when E is on one sphere. The inequality holds for every E, and
    with it Lambda_4(E') <= Lambda_4(E) for the paraboloid lift E': summed
    over u, sum_t m_t(u)^2 <= (sum_t m_t(u))^2 = D(u)^2.
    """
    E = pairs.E
    d, q, n = E.d, E.field.q, len(E)
    gap, u = pairs.keys % q, pairs.keys // q
    # keys are sorted by (u, t); a stable sort on the small gaps gives (t, u)
    order = np.argsort(gap.astype(np.min_scalar_type(q - 1)), kind="stable")
    keys, counts = (gap * q ** d + u)[order], pairs.counts[order]
    gaps, sizes = group_sums(gap[order], counts)
    fam = DifferenceFamily(keys, counts, dict(zip(gaps.tolist(), sizes.tolist())),
                           int(counts.sum()), sum_squares(counts, n ** 4))
    check_invariant(fam.total_pairs == n ** 2, "sum_t |X_t| differs from |E|^2")
    check_invariant(fam.sum_m2 <= pairs.lam4, "sum_t sum_u m_t(u)^2 exceeds L_4(E)")
    if set(fam.x_sizes) == {0}:  # E on one sphere: every norm gap is 0
        check_invariant(fam.sum_m2 == pairs.lam4,
                        "sum_t sum_u m_t(u)^2 differs from L_4(E) on one sphere")
    return fam
