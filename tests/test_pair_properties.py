"""Property tests of the one pair pass against the scalar oracles (needs hypothesis)."""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import difference_family_oracle, nonzero_counts, translate  # noqa: E402
from fqsalem import kernels  # noqa: E402
from fqsalem.analysis import Analysis  # noqa: E402
from fqsalem.constructions import random_pointset  # noqa: E402
from fqsalem.energy import energy_bruteforce, energy_convolution, pair_counts  # noqa: E402
from fqsalem.field import field_create  # noqa: E402
from fqsalem.kernels import KeyCounter  # noqa: E402
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
def test_pair_pass_matches_oracles(case):
    E, shift = case
    F, A = E.field, Analysis(E)
    lam4 = A.lam(2)
    assert lam4 == energy_bruteforce(E, 2)
    # the sum side shares no counting with the pair pass: sum_v r_2(v)^2
    assert energy_convolution(E, 2) == lam4
    diffs = Counter(vsub(F, x, y) for x in E.points for y in E.points)
    assert dict(zip(A.pairs.differences.points, A.pairs.diff_counts.tolist())) == diffs
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
def test_pair_pass_paths_match_oracles(case):
    # the same pass counted densely and, under a cap of 1 or 7, by sorting
    E, _ = case
    F = E.field
    diffs = Counter(vsub(F, x, y) for x in E.points for y in E.points)
    family = difference_family_oracle(E)
    for chunk in (1, 7, kernels.CHUNK_ELEMS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK_ELEMS", chunk)
            pairs = pair_counts(E)
        assert list(zip(pairs.keys.tolist(), pairs.counts.tolist())) == family
        assert dict(zip(pairs.differences.points, pairs.diff_counts.tolist())) == diffs
        assert pairs.lam4 == sum(c * c for c in diffs.values())


@st.composite
def weighted_keys(draw):
    p, width = draw(st.sampled_from([3, 5, 7])), draw(st.integers(0, 5))
    keys = draw(st.lists(st.integers(0, p ** width - 1), max_size=30))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(keys), max_size=len(keys)))
    return p, width, keys, weights


def digit_negation(key, p, width):
    neg, place = 0, 1
    for _ in range(width):
        key, digit = divmod(key, p)
        neg += (-digit) % p * place
        place *= p
    return neg


@settings(max_examples=60, deadline=None)
@given(weighted_keys())
@example((3, 0, [0, 0], [1, 2]))
@example((7, 5, [16806, 1, 0], [1, 2, 3]))
def test_add_negated_dense_and_sorted_agree(case):
    p, width, keys, weights = case
    expect = Counter()
    for key, w in zip(keys, weights):
        expect[key] += w
        expect[digit_negation(key, p, width)] += w
    for chunk, dense in ((kernels.CHUNK_ELEMS, True), (1, width == 0), (7, p ** width <= 7)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK_ELEMS", chunk)
            counter = KeyCounter(p ** width, 2 * sum(weights), "test")
            assert (counter._dense is not None) == dense
            counter.add(np.array(keys, dtype=np.int32), np.array(weights, dtype=np.int64))
            counter.add_negated(p, width)
            got_keys, got_counts = counter.result()
        assert got_keys.dtype == got_counts.dtype == np.int64
        assert dict(zip(got_keys.tolist(), got_counts.tolist())) == expect
        assert got_keys.tolist() == sorted(expect)


@settings(max_examples=60, deadline=None)
@given(weighted_keys(), st.integers(0, 3))
@example((3, 2, [0, 4], [1, 2]), 2)  # key 0 already counted
@example((3, 2, [], []), 0)  # nothing counted: no key with count 0
def test_add_zero_dense_and_sorted_agree(case, zeros):
    p, width, keys, weights = case
    expect = Counter()
    for key, w in zip(keys, weights):
        expect[key] += w
    if zeros:
        expect[0] += zeros
    # 7: the sorted path with the keys still pending when key 0 is added
    for chunk in (kernels.CHUNK_ELEMS, 1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "CHUNK_ELEMS", chunk)
            counter = KeyCounter(p ** width, sum(weights) + zeros, "test")
            counter.add(np.array(keys, dtype=np.int32), np.array(weights, dtype=np.int64))
            counter.add_zero(zeros)
            got_keys, got_counts = counter.result()
        assert got_keys.dtype == got_counts.dtype == np.int64
        assert got_keys.tolist() == sorted(expect)
        assert dict(zip(got_keys.tolist(), got_counts.tolist())) == expect
