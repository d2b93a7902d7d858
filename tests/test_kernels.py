"""The chunked numpy counting: block boundaries, both counting routes, the int64 guard."""

import random
from collections import Counter

import numpy as np
import pytest

from conftest import (counts_sorted, difference_family_oracle, field_of_order, nonzero_counts,
                      rand_set, sorts_recorded)
from fqsalem import energy, kernels
from fqsalem.energy import energy_bruteforce, energy_convolution, pair_counts
from fqsalem.errors import BudgetExceeded
from fqsalem.geometry import HyperplaneMultiset, PointSet, vsub
from fqsalem.harness import oracle_distances, oracle_incidences
from fqsalem.incidence import count_incidences


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("q,d", [(5, 2), (9, 2), (27, 1)])
def test_small_chunk_cap_matches_oracles(q, d, chunk, monkeypatch):
    # a cap of 1 puts one row in each block; under 64 the pair-pass blocks
    # hold several rows, so their triangles are cut on the block diagonal.
    # The 28 pairs sort their lifted keys (q^3 or 27^2 > 4 * 28) and the 64
    # pairs of the convolution count q^2 or 27 keys densely, under every cap
    F = field_of_order(q)
    E = rand_set(F, d, min(8, q ** d), seed=q + d)
    n = len(E)
    rng = random.Random(q * d)
    H = HyperplaneMultiset.build(F, d, [
        (tuple(rng.randrange(1, q) for _ in range(d)), rng.randrange(q), rng.randrange(1, 4))
        for _ in range(5)])
    monkeypatch.setattr(kernels, "CHUNK_ELEMS", chunk)
    blocks = []

    def recorded(table, A, B, q):
        # a block gathers (rows, q) table rows, then (rows, len(B)) entries
        blocks.append((len(A), len(A) * max(len(B), q)))
        return pair_codes_(table, A, B, q)

    pair_codes_ = kernels.pair_codes
    monkeypatch.setattr(kernels, "pair_codes", recorded)
    monkeypatch.setattr(energy, "pair_codes", recorded)
    sorts = sorts_recorded(monkeypatch)
    assert nonzero_counts(pair_counts(E).nu) == oracle_distances(E)
    assert sorts and counts_sorted(q ** (d + 1), n * (n - 1) // 2, chunk)
    sorts.clear()
    assert energy_convolution(E, 2) == energy_bruteforce(E, 2)
    assert not sorts and not counts_sorted(q ** d, n * n, chunk)
    assert energy_convolution(E, 3) == energy_bruteforce(E, 3)
    assert set(pair_counts(E).differences.points) == {vsub(F, x, y) for x in E.points for y in E.points}
    assert count_incidences(E, H) == oracle_incidences(E, H)
    pairs = pair_counts(E)
    pairs.sum_m2  # the difference family's invariants hold
    assert list(zip(pairs.keys.tolist(), pairs.counts.tolist())) == difference_family_oracle(E)
    assert dict(zip(pairs.differences.points, pairs.diff_counts.tolist())) == Counter(
        vsub(F, x, y) for x in E.points for y in E.points)
    assert any(rows > 1 for rows, _ in blocks) == (chunk == 64)
    assert all(rows == 1 or elems <= chunk for rows, elems in blocks)


def test_counts_beyond_int64_are_refused(f3):
    E = PointSet.build(f3, 1, [(0,), (1,), (2,)])
    assert energy_convolution(E, 39) == 3 ** 77
    with pytest.raises(BudgetExceeded):
        energy_convolution(E, 40)


@pytest.mark.parametrize("width,dtype", [(19, np.int32), (20, np.int64)])
def test_pair_codes_dtype_at_the_int32_boundary(f3, width, dtype):
    # 3^19 - 1 is the largest code below 2^31 - 1, 3^20 - 1 is above it
    rng = np.random.default_rng(width)
    A, B = rng.integers(0, 3, (4, width)), rng.integers(0, 3, (5, width))
    A[0], B[0] = 2, 0  # the code 3^width - 1: every digit 2 - 0 = 2
    table = f3.tables().sub
    codes = kernels.pair_codes(table, A, B, 3)
    expect = np.zeros((4, 5), dtype=np.int64)
    for i in range(width):
        expect = expect * 3 + table[A[:, i]][:, B[:, i]]
    assert codes.dtype == dtype
    assert codes[0, 0] == 3 ** width - 1
    assert np.array_equal(codes, expect)
