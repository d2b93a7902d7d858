"""Exact point-hyperplane incidence counts and the counting-bound machinery.

N(P, P') is the multiplicity-weighted number of pairs (x, (a, b)) with
a.x = b. All counts are exact; the incidence bounds are evaluated in
double precision from exact ingredients and exported as ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .energy import difference_counts, energy_convolution, salem_parameter
from .errors import check_budget, check_invariant, ConfigError
from .geometry import HyperplaneMultiset, PointSet, Vector, norms, vectors
from .kernels import KeyCounter, pair_codes, row_blocks


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
    for rows in row_blocks(len(X), len(A)):
        dots = 0
        for i in range(P.d):
            dots = T.add[dots, T.mul[X[rows, i, None], A[None, :, i]]]
        hits += np.count_nonzero(dots == b, axis=0)
    return sum(m * h for (_, _, m), h in zip(H.entries, hits.tolist()))


@dataclass(frozen=True)
class IncidenceReport:
    count: int
    main_term: Fraction  # |P||P'|/q
    rhs_uniform: float       # main + |P'|^{3/4} q^{d/4} |P|^{1-s}
    rhs_power43: float       # main + (sum m^{4/3})^{3/4} q^{d/4} |P|^{1-s}
    rhs_sqmult: float       # main + (sum m^2)^{1/2} q^{d/2} |P|^{1/2}
    s: float

    def ratios(self) -> dict[str, float]:
        return {
            "uniform": self.count / self.rhs_uniform,
            "power43": self.count / self.rhs_power43,
            "sqmult": self.count / self.rhs_sqmult,
        }

    def to_json_dict(self) -> dict:
        return {
            "N": str(self.count),
            "mainTerm": str(self.main_term),
            "rhsUniform": self.rhs_uniform,
            "rhsPower43": self.rhs_power43,
            "rhsSqMult": self.rhs_sqmult,
            "ratios": self.ratios(),
            "s": self.s,
        }


def verify_counting_bounds(P: PointSet, H: HyperplaneMultiset,
                           s: float | None = None,
                           budget: int | None = None) -> IncidenceReport:
    if s is None:
        s = salem_parameter(P, budget=budget)
    q, d, n = P.field.q, P.d, len(P)
    count = count_incidences(P, H, budget)
    total = H.total
    main = Fraction(n * total, q)
    sum_m43 = sum(m ** (4 / 3) for _, _, m in H.entries)
    sum_m2 = sum(m * m for _, _, m in H.entries)
    err42 = total ** 0.75 * q ** (d / 4) * n ** (1 - s)
    err43 = sum_m43 ** 0.75 * q ** (d / 4) * n ** (1 - s)
    err46 = sum_m2 ** 0.5 * q ** (d / 2) * n ** 0.5
    mainf = float(main)
    return IncidenceReport(count, main, mainf + err42, mainf + err43,
                           mainf + err46, s)


def incidence_bound(P: PointSet, H: HyperplaneMultiset,
                    s: float | None = None,
                    budget: int | None = None) -> dict:
    """Incidence bound |P||H|/q + |H|^{3/4} q^{(d-1)/4} |P|^{1-s}.

    Entries with b = 0 automatically fall back to the weaker q^{d/4}
    error-term exponent.
    """
    if s is None:
        s = salem_parameter(P, budget=budget)
    q, d, n = P.field.q, P.d, len(P)
    count = count_incidences(P, H, budget)
    total = H.total
    exponent = d / 4 if H.has_zero_offset() else (d - 1) / 4
    bound = n * total / q + total ** 0.75 * q ** exponent * n ** (1 - s)
    return {
        "incidences": count,
        "bound": bound,
        "ratio": count / bound if bound else float("nan"),
        "weakBranch": H.has_zero_offset(),
        "s": s,
    }


def dilate_hyperplanes(H: HyperplaneMultiset) -> HyperplaneMultiset:
    """P' = {(lam*a, lam*b)}: the projective dilation trick, b != 0 only."""
    if H.has_zero_offset():
        raise ConfigError("dilation requires all b != 0")
    F = H.field
    entries = []
    for a, b, m in H.entries:
        for lam in range(1, F.q):
            entries.append((tuple(F.mul(lam, c) for c in a), F.mul(lam, b), m))
    return HyperplaneMultiset.build(F, H.d, entries)


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

    Requires E on a single sphere of nonzero radius; the multiset's
    sum-of-squared-multiplicities equals L_4(E) exactly (checked).
    """
    F, d, q = E.field, E.d, E.field.q
    if len(E) == 0:
        raise ConfigError("empty set")
    radii = set(norms(E, budget).tolist())
    if len(radii) != 1 or 0 in radii:
        raise ConfigError("E must lie on one sphere of nonzero radius")
    check_budget(len(E) ** 2, budget, "difference multiset")
    T = F.tables(budget)
    X = E.array
    lam = np.repeat(np.arange(1, q)[:, None], d, axis=1)  # row j multiplies every coordinate by j + 1
    dilates = KeyCounter(q ** d, len(E) * (q - 1), "dilated point set")
    for rows in row_blocks(len(X), q - 1):
        dilates.add(pair_codes(T.mul, X[rows], lam, q))
    P = PointSet.from_codes(F, d, dilates.result()[0])
    keys, mult = difference_counts(E, budget)
    diffs = vectors(keys, q, d)
    Pp = HyperplaneMultiset.build(F, d, ((u, 0, m) for u, m in zip(diffs, mult.tolist())),
                                  allow_degenerate=True)
    check_invariant(sum(m * m for _, _, m in Pp.entries) == energy_convolution(E, 2, budget),
                    "sum of squared difference multiplicities differs from L_4(E)")
    return P, Pp


@dataclass(frozen=True)
class DifferenceFamily:
    """Per-t difference multisets from the second-moment proof."""

    x_sizes: dict[int, int]                    # t -> |X_t|
    multiplicities: dict[int, dict[Vector, int]]  # t -> (u -> m_t(u))
    set_size: int

    @property
    def total_pairs(self) -> int:
        return sum(self.x_sizes.values())

    @property
    def sum_m2(self) -> int:
        return sum(m * m for ms in self.multiplicities.values() for m in ms.values())


def distance_energy_setup(E: PointSet, budget: int | None = None) -> DifferenceFamily:
    """X_t = {(y,z) in E^2 : ||y|| - ||z|| = t} with difference multiplicities.

    Invariants (checked, InvariantViolation otherwise): sum_t |X_t| = |E|^2 and
    sum_t sum_u m_t(u)^2 <= L_4(E), with equality when E is on one sphere.
    """
    F, d, q, n = E.field, E.d, E.field.q, len(E)
    check_budget(n ** 2, budget, "difference family")
    T = F.tables(budget)
    X, nrm = E.array, norms(E, budget)
    # key (t, u) = t q^d + u for the gap t = ||y|| - ||z|| and difference u = y - z
    counter = KeyCounter(q ** (d + 1), n * n, "difference family")
    for rows in row_blocks(n, n):
        gap = T.sub[nrm[rows, None], nrm[None, :]].astype(np.int64)
        counter.add(pair_codes(T.sub, X[rows], X, q, gap))
    keys, counts = counter.result()
    gaps, diffs = np.divmod(keys, q ** d)
    x_sizes: dict[int, int] = {}
    mult: dict[int, dict[Vector, int]] = {}
    for t, u, c in zip(gaps.tolist(), vectors(diffs, q, d), counts.tolist()):
        x_sizes[t] = x_sizes.get(t, 0) + c
        mult.setdefault(t, {})[u] = c
    fam = DifferenceFamily(x_sizes, mult, n)
    check_invariant(fam.total_pairs == n ** 2, "sum_t |X_t| differs from |E|^2")
    lam4 = energy_convolution(E, 2, budget)
    check_invariant(fam.sum_m2 <= lam4, "sum_t sum_u m_t(u)^2 exceeds L_4(E)")
    if len(set(nrm.tolist())) == 1:
        check_invariant(fam.sum_m2 == lam4,
                        "sum_t sum_u m_t(u)^2 differs from L_4(E) on one sphere")
    return fam
