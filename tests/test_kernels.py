"""The chunked numpy counting: block boundaries, both counting routes, the int64
guard, and the pair pass's gathers in chunks of base-p digits."""

import random
import threading
from collections import Counter

import numpy as np
import pytest

from conftest import (counts_sorted, difference_family_oracle, field_of_order, nonzero_counts,
                      rand_set, sorts_recorded)
from fqsalem import energy, kernels
from fqsalem.energy import energy_bruteforce, energy_convolution, pair_counts
from fqsalem.errors import BudgetExceeded
from fqsalem.field import field_create
from fqsalem.geometry import HyperplaneMultiset, PointSet, lift_to_paraboloid, vsub
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

    def recorded(table, A, B, base, space):
        # a block gathers (rows, base) table rows, then (rows, len(B)) entries
        blocks.append((len(A), len(A) * max(len(B), base)))
        return pair_codes_(table, A, B, base, space)

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
    codes = kernels.pair_codes(table, A, B, 3, 3 ** width)
    expect = np.zeros((4, 5), dtype=np.int64)
    for i in range(width):
        expect = expect * 3 + table[A[:, i]][:, B[:, i]]
    assert codes.dtype == dtype
    assert codes[0, 0] == 3 ** width - 1
    assert np.array_equal(codes, expect)


@pytest.mark.parametrize("p,c", [(3, 1), (3, 4), (5, 3), (7, 2), (13, 2)])
def test_digit_difference_is_field_subtraction(p, c):
    # digit-wise subtraction mod p on [0, p^c) is the subtraction of F_{p^c},
    # whatever its modulus: the same table as its FieldTables, and the scalar sub
    F = field_create(p, c)
    table = kernels.digit_difference(p, c)
    assert table.dtype == F.tables().sub.dtype and not table.flags.writeable
    assert np.array_equal(table, F.tables().sub)
    rng = random.Random(p * c)
    for a, b in ((rng.randrange(p ** c), rng.randrange(p ** c)) for _ in range(200)):
        assert int(table[a, b]) == F.sub(a, b)


# (q, d, cap, base, gathers): the pass gathers ceil(r(d + 1) / c) chunks of
# c digits, p^(2c) <= cap, from a p^c x p^c table when those are fewer than
# the d + 1 coordinates, and the coordinates from the field's own q x q table
# otherwise
@pytest.mark.parametrize("q,d,chunk,base,gathers", [
    (7, 4, kernels.CHUNK_ELEMS, 49, 3),     # 5 digits in chunks of 2 + 2 + 1
    (25, 4, kernels.CHUNK_ELEMS, 125, 4),   # 10 digits: 3 + 3 + 3 + 1
    (25, 3, kernels.CHUNK_ELEMS, 125, 3),   # 8 digits: 3 + 3 + 2
    (5, 4, kernels.CHUNK_ELEMS, 125, 2),    # 5 digits: 3 + 2
    (9, 3, kernels.CHUNK_ELEMS, 81, 2),     # 8 digits: 4 + 4
    (5, 2, 625, 25, 2),                     # a cap of 5^4: 3 digits in 2 + 1
    (27, 2, kernels.CHUNK_ELEMS, 27, 3),    # 9 digits in 3 chunks of 4: no fewer
    (49, 2, kernels.CHUNK_ELEMS, 49, 3),    # 6 digits in 3 chunks of 2: no fewer
    (17, 2, kernels.CHUNK_ELEMS, 17, 3),    # c = 1
    (289, 1, kernels.CHUNK_ELEMS, 289, 2),  # c = 1 < r: 4 gathers would be more
    (191, 1, kernels.CHUNK_ELEMS, 191, 2),  # p^2 > CHUNK_ELEMS: c = 0
])
def test_pair_pass_gathers_digit_chunks(q, d, chunk, base, gathers, monkeypatch):
    F = field_of_order(q)
    E = rand_set(F, d, 12, seed=q + d)
    monkeypatch.setattr(kernels, "CHUNK_ELEMS", chunk)
    calls, upper = [], kernels.upper_pair_codes

    def recorded(table, X, b, space):
        keys = upper(table, X, b, space)
        calls.append((table, X.shape[1], b, space))
        # the keys of the coordinate gathers, bit for bit, in the same dtype
        coords = upper(F.tables().sub, lift_to_paraboloid(E).array, q, space)
        assert keys.dtype == coords.dtype and np.array_equal(keys, coords)
        return keys

    monkeypatch.setattr(energy, "upper_pair_codes", recorded)
    pairs = pair_counts(E)
    [(table, width, b, space)] = calls
    assert (table.shape, width, b, space) == ((base, base), gathers, base, q ** (d + 1))
    assert (table is F.tables().sub) == (gathers == d + 1)
    assert list(zip(pairs.keys.tolist(), pairs.counts.tolist())) == difference_family_oracle(E)


def test_pair_pass_beyond_the_chunk_cap_builds_no_table():
    # p = 191 > 181, so p^2 > CHUNK_ELEMS: the coordinates are gathered through
    # the field's own (charged) sub table and no digit-wise table is built
    F = field_create(191, 1)
    E = rand_set(F, 2, 10, seed=0)
    before = kernels.digit_difference.cache_info()
    pairs = pair_counts(E)
    after = kernels.digit_difference.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert list(zip(pairs.keys.tolist(), pairs.counts.tolist())) == difference_family_oracle(E)


def test_scratch_is_kept_per_thread_and_slot_and_only_grows():
    a = kernels.scratch("test a", 100, np.complex128)
    assert a.shape == (100,) and a.dtype == np.complex128
    assert np.shares_memory(kernels.scratch("test a", 50, np.float64), a)  # a smaller call reuses it
    assert not np.shares_memory(kernels.scratch("test b", 100, np.complex128), a)
    big = kernels.scratch("test a", 1000, np.uint64)  # a larger one grows it
    assert big.shape == (1000,) and np.shares_memory(kernels.scratch("test a", 2000, np.uint8), big)
    other = []
    thread = threading.Thread(target=lambda: other.append(kernels.scratch("test a", 1000, np.uint64)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and not np.shares_memory(other[0], big)
