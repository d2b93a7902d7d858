"""Exact point-hyperplane incidence counts and the counting-bound machinery.

N(P, P') is the multiplicity-weighted number of pairs (x, (a, b)) with
a.x = b. All counts are exact. `incidence_bounds` evaluates the paper's
bounds on N in double precision from exact ingredients and reports each
with its ratio. The dilation trick (`dilate_hyperplanes`,
`sphere_incidence_setup`) multiplies by every lam in F_q^* through one
gather of the multiplication table; its difference multiset is read from
the pair pass (`energy.pair_counts`), whose Lambda_4 it is checked against.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .energy import pair_counts
from .errors import check_budget, check_invariant, ConfigError
from .field import FieldTables
from .geometry import HyperplaneMultiset, PointSet, decode, encode, norms
from .kernels import check_int64, sum_squares, table_sums


def count_incidences(P: PointSet, H: HyperplaneMultiset) -> int:
    """sum_(a, b, m) m * #{x in P : a.x = b}, as a chunked (points x hyperplanes) matrix."""
    if P.field != H.field or P.d != H.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(P) * max(len(H.codes), 1), "incidence count")
    check_int64(len(P) * H.total, "incidence count")
    T, d = P.field.tables(), P.d
    rows = decode(H.codes, P.field.q, d + 1)
    hits = np.zeros(len(rows), dtype=np.int64)
    for dots in table_sums(T.add, T.mul, P.array, rows[:, :d]):
        hits += np.count_nonzero(dots == rows[:, d], axis=0)
    return int(H.mults @ hits)


def incidence_bounds(P: PointSet, H: HyperplaneMultiset, s: float) -> dict:
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
    N = count_incidences(P, H)
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


def incidence_via_dilation(P: PointSet, H: HyperplaneMultiset) -> int:
    """I(P, H) recovered as N(P, dilate(H)) / (q - 1); checked exact."""
    N = count_incidences(P, dilate_hyperplanes(H))
    q = P.field.q
    check_invariant(N % (q - 1) == 0, "dilated incidence count not divisible by q - 1")
    I = N // (q - 1)
    check_invariant(I == count_incidences(P, H),
                    "dilation identity N(P, dilate(H)) = (q - 1) I(P, H) failed")
    return I


def sphere_incidence_setup(E: PointSet) -> tuple[PointSet, HyperplaneMultiset]:
    """Dilated point set and zero-offset difference multiset for sets on a sphere.

    Requires E nonempty and on a single sphere of nonzero radius. The
    multiset holds each u in E - E with multiplicity D(u), so its sum of
    squared multiplicities is Lambda_4(E) (checked against the pair pass).
    """
    F, d, q = E.field, E.d, E.field.q
    radii = set(norms(E).tolist())
    if len(radii) != 1 or 0 in radii:
        raise ConfigError("E must lie on one sphere of nonzero radius")
    pairs = pair_counts(E)
    P = PointSet.from_codes(F, d, encode(_dilations(F.tables(), E.array), q))
    Pp = HyperplaneMultiset.from_codes(F, d, pairs.differences.codes * q, pairs.diff_counts)
    check_invariant(sum_squares(Pp.mults, len(E) ** 4) == pairs.lam4,
                    "sum of squared difference multiplicities differs from L_4(E)")
    return P, Pp

