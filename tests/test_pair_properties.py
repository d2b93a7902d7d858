"""Property tests of the one pair pass against the scalar oracles (needs hypothesis)."""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import (counts_sorted, difference_family_oracle, nonzero_counts,  # noqa: E402
                      sorts_recorded, translate)
from fqsalem import kernels  # noqa: E402
from fqsalem.analysis import Analysis  # noqa: E402
from fqsalem.constructions import random_pointset  # noqa: E402
from fqsalem.energy import energy_bruteforce, energy_convolution, pair_counts  # noqa: E402
from fqsalem.field import field_create  # noqa: E402
from fqsalem.kernels import count_keys  # noqa: E402
from fqsalem.geometry import PointSet, lift_to_paraboloid, vsub  # noqa: E402
from fqsalem.harness import oracle_distances  # noqa: E402


@st.composite
def small_sets(draw):
    F = field_create(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 3)))
    d = draw(st.integers(0, 3))
    codes = draw(st.lists(st.integers(0, F.q ** d - 1), max_size=12))
    shift = tuple(draw(st.lists(st.integers(0, F.q - 1), min_size=d, max_size=d)))
    return PointSet.from_codes(F, d, codes), shift


@settings(max_examples=40, deadline=None)
@given(small_sets())
@example((PointSet.from_codes(field_create(3, 2), 0, [0]), ()))
@example((PointSet.from_codes(field_create(3, 3), 2, []), (1, 2)))
@example((PointSet.from_codes(field_create(3, 1), 1, [0, 1, 2]), (1,)))  # D(u) in q^d slots
@example((PointSet.from_codes(field_create(3, 3), 2, [0, 5, 700]), (0, 2)))  # D(u) by runs
def test_pair_pass_matches_oracles(case):
    E, shift = case
    F, A = E.field, Analysis(E)
    lam4 = A.lam(2)
    assert lam4 == energy_bruteforce(E, 2)
    # the sum side shares no counting with the pair pass: sum_v r_2(v)^2
    assert energy_convolution(E, 2) == lam4
    diffs = Counter(vsub(F, x, y) for x in E.points for y in E.points)
    assert dict(zip(A.pairs.differences.points, A.pairs.diff_counts.tolist())) == diffs
    # E - E is held as from_codes holds a set: sorted, distinct, read-only int64
    codes = A.pairs.differences.codes
    assert codes.dtype == np.int64 and not codes.flags.writeable
    assert np.array_equal(codes, PointSet.from_codes(F, E.d, codes).codes)
    assert nonzero_counts(A.pairs.nu) == oracle_distances(E)
    assert list(zip(A.pairs.keys.tolist(), A.pairs.counts.tolist())) == difference_family_oracle(E)
    # Lambda_4(E') <= Lambda_4(E) for the paraboloid lift E'
    assert A.pairs.sum_m2 == energy_bruteforce(lift_to_paraboloid(E), 2) <= lam4
    moved = Analysis(translate(E, shift))
    assert moved.lam(2) == lam4
    assert np.array_equal(moved.pairs.nu, A.pairs.nu)
    assert moved.pairs.differences == A.pairs.differences


# the differences of F_27^4 split into norm runs of 3 + 1 coordinates, of F_49^3 into 2 + 1
@pytest.mark.parametrize("p,r,d,n", [(3, 3, 4, 40), (7, 2, 3, 20), (7, 1, 4, 1)])
def test_pair_profile_across_norm_runs(p, r, d, n):
    E = random_pointset(field_create(p, r), d, n, seed=3)
    assert nonzero_counts(pair_counts(E).nu) == oracle_distances(E)


@settings(max_examples=40, deadline=None)
@given(small_sets())
@example((PointSet.from_codes(field_create(3, 2), 0, [0]), ()))
@example((PointSet.from_codes(field_create(5, 2), 2, []), ()))
@example((PointSet.from_codes(field_create(7, 1), 3, [100]), ()))
@example((PointSet.from_codes(field_create(3, 3), 2, [0, 5, 700]), ()))
@example((PointSet.from_codes(field_create(3, 1), 1, [0, 1, 2]), ()))  # dense above a cap of 7
def test_pair_pass_paths_match_oracles(case):
    # the same pass under caps of 1, 7 and the default: counted densely while
    # the lifted space q^(d+1) is within max(4 pairs, cap), by sorting above
    E, _ = case
    F, n = E.field, len(E)
    diffs = Counter(vsub(F, x, y) for x in E.points for y in E.points)
    family = difference_family_oracle(E)
    for chunk in (1, 7, kernels.CHUNK_ELEMS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK_ELEMS", chunk)
            sorts = sorts_recorded(mp)
            pairs = pair_counts(E)
        assert bool(sorts) == counts_sorted(F.q ** (E.d + 1), n * (n - 1) // 2, chunk)
        assert pairs.keys.dtype == pairs.counts.dtype == np.int64
        assert list(zip(pairs.keys.tolist(), pairs.counts.tolist())) == family
        assert dict(zip(pairs.differences.points, pairs.diff_counts.tolist())) == diffs
        assert pairs.lam4 == sum(c * c for c in diffs.values())


@st.composite
def key_batches(draw):
    """Keys of `width` base-p digits in a (rows, cols) int32 array, as
    pair_codes builds them, with one weight per row or none, a negated flag
    and a cap."""
    p, width = draw(st.sampled_from([3, 5, 7])), draw(st.integers(0, 5))
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(1, 4))
    keys = draw(st.lists(st.integers(0, p ** width - 1), min_size=rows * cols,
                         max_size=rows * cols))
    weights = draw(st.none() | st.lists(st.integers(1, 5), min_size=rows, max_size=rows))
    return (p, width, np.array(keys, dtype=np.int32).reshape(rows, cols), weights,
            draw(st.booleans()), draw(st.sampled_from([1, 7, kernels.CHUNK_ELEMS])))


def digit_negation(key, p, width):
    neg, place = 0, 1
    for _ in range(width):
        key, digit = divmod(key, p)
        neg += (-digit) % p * place
        place *= p
    return neg


def _batch(p, width, rows, weights, negated, chunk):
    keys = np.array(rows, dtype=np.int32).reshape(len(rows), -1 if rows else 1)
    return p, width, keys, weights, negated, chunk


@settings(max_examples=100, deadline=None)
@given(key_batches())
@example(_batch(3, 0, [], None, True, 1))  # empty, width 0: dense
@example(_batch(3, 3, [], [], False, 1))  # empty: sorted
@example(_batch(3, 0, [[0], [0]], [1, 2], True, 1))  # width 0: dense
@example(_batch(7, 5, [[16806], [1], [0]], [1, 2, 3], True, 1))  # sorted, weighted, negated
@example(_batch(7, 5, [[16806, 1], [0, 1]], None, True, 1))  # sorted, negated
@example(_batch(7, 5, [[16806], [1], [0]], [1, 2, 3], True, kernels.CHUNK_ELEMS))  # dense
@example(_batch(3, 2, [[8, 1, 0]], None, True, 1))  # dense above the cap, negated
@example(_batch(3, 2, [[8], [1], [0]], [2, 1, 5], True, 7))  # dense above the cap, weighted
def test_count_keys_routes_match_counter(case):
    p, width, keys, weights, negated, chunk = case
    expect = Counter()
    for row, w in zip(keys.tolist(), [1] * len(keys) if weights is None else weights):
        for key in row:
            expect[key] += w
            if negated:
                expect[digit_negation(key, p, width)] += w
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_ELEMS", chunk)
        sorts = sorts_recorded(mp)
        got_keys, got_counts = count_keys(
            keys.copy(), p ** width, None if weights is None else np.array(weights)[:, None],
            (p, width) if negated else None)
    assert bool(sorts) == counts_sorted(p ** width, keys.size, chunk)
    assert got_keys.dtype == got_counts.dtype == np.int64
    assert got_keys.tolist() == sorted(expect)
    assert got_counts.tolist() == [expect[k] for k in sorted(expect)]
