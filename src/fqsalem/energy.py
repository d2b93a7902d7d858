"""Exact additive energies and the one pass over the pairs of a set.

L_{2k}(E) counts 2k-tuples (y_1..y_2k) in E^{2k} with
y_1 + ... + y_k = y_{k+1} + ... + y_2k. Conventions for this tuple count
vary; we adopt this one because it is the unique definition under which
the character-orthogonality identity that `analysis` checks against the
spectrum is an exact equality (see README).

Two independent evaluation paths:

* energy_bruteforce — tuple enumeration with a membership completion over
  the scalar field methods, O(|E|^{2k-1}); the oracle.
* energy_convolution — L = sum_v r_k(v)^2 for the representation function
  r_k(v) = #{k-tuples of E summing to v}, an iterated exact convolution:
  each step gathers the sums of the support of r_{k-1} with E in row blocks
  and counts all of them in one kernels.count_keys call, weighted by r_{k-1}.

Reports read L_4 from the difference side instead: sum_u D(u)^2 over the
difference counts D(u) = #{(x, y) in E^2 : x - y = u} of `pair_counts`, a
pass that shares no counting with the sum side. It gathers the lifted
differences of the pairs i < j, a chunk of base-p digits at a time where that
takes fewer gathers than one per coordinate, and counts them, with their
negations for the pairs j > i, in one count_keys call. Its `PairCounts` also
holds nu(t) and the difference family of the second-moment proof.

Counts are int64 with the range checked from |E|^k; sums of squares are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import check_budget, check_invariant, ConfigError
from .geometry import PointSet, decode, lift_to_paraboloid, norms, vadd, vsub
from .kernels import (check_int64, chunk_width, count_keys, digit_difference, group_sums,
                      pair_codes, row_blocks, sum_squares, upper_pair_codes)


def _check_order(k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _representation(E: PointSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """r_k as (sorted flat indices of its support, counts)."""
    _check_order(k)
    F, d, n = E.field, E.d, len(E)
    q = F.q
    keys, counts = E.codes, np.ones(n, dtype=np.int64)
    X = E.array
    for step in range(k - 1):
        check_budget(len(keys) * max(n, 1), "energy convolution")
        check_int64(n ** (step + 2), "energy convolution counts")
        T = F.tables()
        V = decode(keys, q, d)
        # the empty int32 block widens nothing and covers a set with no rows
        codes = np.concatenate([np.empty((0, n), dtype=np.int32)] + [
            pair_codes(T.add, V[rows], X, q, q ** d) for rows in row_blocks(len(V), max(n, q))])
        keys, counts = count_keys(codes, q ** d, None if step == 0 else counts[:, None])
    return keys, counts


def energy_convolution(E: PointSet, k: int) -> int:
    """L_{2k}(E) = sum_v r_k(v)^2, exact."""
    return sum_squares(_representation(E, k)[1], len(E) ** (2 * k))


def energy_bruteforce(E: PointSet, k: int) -> int:
    """Oracle: enumerate (2k-1)-tuples and complete the last slot by membership."""
    _check_order(k)
    n = len(E)
    if n == 0:
        return 0
    check_budget(n ** (2 * k - 1), "brute-force energy")
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
    and the difference family m_t(u) are all read from. nu and sum_m2 are
    computed on first use."""

    E: PointSet
    keys: np.ndarray         # sorted u q + t: u the flat index of x - y, t the norm gap
    counts: np.ndarray       # m_t(u)
    differences: PointSet    # E - E, the support of D(u) = sum_t m_t(u)
    diff_counts: np.ndarray  # D, in the point order of differences
    lam4: int                # sum_u D(u)^2 = Lambda_4(E)

    @cached_property
    def nu(self) -> np.ndarray:
        """nu(t) = #{(x, y) in E^2 : ||x - y|| = t} for t in F_q: each D(u) added
        into the bucket of ||u|| (exact int64: the sum is |E|^2)."""
        nu = np.zeros(self.E.field.q, dtype=np.int64)
        np.add.at(nu, norms(self.differences), self.diff_counts)
        nu.flags.writeable = False  # shared by every section of a report
        return nu

    @cached_property
    def sum_m2(self) -> int:
        """sum_t sum_u m_t(u)^2 over the difference family X_t = {(y, z) in E^2 :
        ||y|| - ||z|| = t}, whose pairs have difference u with multiplicity m_t(u).

        Invariants (InvariantViolation otherwise): sum_t |X_t| = |E|^2 and
        sum_t sum_u m_t(u)^2 <= L_4(E), with equality when every norm gap is 0
        (E on one sphere). The inequality holds for every E, and with it
        Lambda_4(E') <= Lambda_4(E) for the paraboloid lift E': summed over u,
        sum_t m_t(u)^2 <= (sum_t m_t(u))^2 = D(u)^2.
        """
        n = len(self.E)
        check_invariant(int(self.counts.sum()) == n ** 2, "sum_t |X_t| differs from |E|^2")
        m2 = sum_squares(self.counts, n ** 4)
        check_invariant(m2 <= self.lam4, "sum_t sum_u m_t(u)^2 exceeds L_4(E)")
        norm_of = norms(self.E)  # every norm gap is 0 when all |E| norms are equal
        if (norm_of[1:] == norm_of[:-1]).all():
            check_invariant(m2 == self.lam4,
                            "sum_t sum_u m_t(u)^2 differs from L_4(E) on one sphere")
        return m2


def pair_counts(E: PointSet) -> PairCounts:
    """One pass over the pairs i < j of the lifted points; the rest by symmetry.

    A lifted code is w = r(d + 1) base-p digits, and subtraction is digit-wise
    mod p, so where that takes fewer gathers than the d + 1 coordinates the
    differences are gathered c digits at a time (p^(2c) <= CHUNK_ELEMS) from
    digit_difference; a field's sub table otherwise, so p > 181 (c = 1, never
    fewer) builds no second table. The keys are the same either way. The
    pair (j, i) has the lifted difference of (i, j) negated digit by digit, so
    one count_keys call counts both halves. No pair i < j of distinct points
    has lifted difference 0, so the n diagonal pairs (x, x) are prepended as
    key 0, the least key, with count n. Charges |E|^2 units.
    """
    F, d, n = E.field, E.d, len(E)
    q, w = F.q, F.r * (d + 1)
    check_budget(n ** 2, "pair counts")
    lifted = lift_to_paraboloid(E)
    c = chunk_width(F.p ** 2)
    k = -(-w // c)  # gathers in chunks of c digits; never fewer when c = 1
    if k < d + 1:
        base = F.p ** c
        table, X = digit_difference(F.p, c), decode(lifted.codes, base, k)
    else:
        table, X, base = F.tables().sub, lifted.array, q
    keys, counts = count_keys(upper_pair_codes(table, X, base, q ** (d + 1)),
                              q ** (d + 1), negated=(F.p, w))
    if n:
        keys, counts = np.concatenate(([0], keys)), np.concatenate(([n], counts))
    # D(u) = sum_t m_t(u); the u come sorted and distinct, so no from_codes sort
    diff_codes, diff_counts = group_sums(keys // q, counts)
    diff_codes = diff_codes.astype(np.int64, copy=False)
    diff_codes.flags.writeable = False
    return PairCounts(E, keys, counts, PointSet(F, d, diff_codes), diff_counts,
                      sum_squares(diff_counts, n ** 4))
