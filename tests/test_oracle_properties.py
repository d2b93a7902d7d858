"""Property tests of the two-set kernels, the norm kernel and Lambda_6 against
their scalar oracles (needs hypothesis)."""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import blocks_recorded, nonzero_counts  # noqa: E402
from fqsalem import geometry, kernels  # noqa: E402
from fqsalem.distance import distance_profile  # noqa: E402
from fqsalem.energy import energy_bruteforce, energy_convolution  # noqa: E402
from fqsalem.field import field_create  # noqa: E402
from fqsalem.geometry import HyperplaneMultiset, PointSet, norm, norms, vsub  # noqa: E402
from fqsalem.harness import oracle_incidences  # noqa: E402
from fqsalem.incidence import count_incidences, incidence_via_dilation  # noqa: E402

# the cap on a block: CHUNK_ELEMS = 1 walks one row per block and reads
# norms one coordinate at a time; each test asserts the walk it took
CHUNKS = [1, 7, kernels.CHUNK_ELEMS]


def within_cap(blocks, chunk):
    """Every recorded block has max(1, chunk // width) rows at most: one row
    each under a cap of 1."""
    return all(rows <= max(1, chunk // width) for rows, width in blocks)


@st.composite
def spaces(draw):
    F = field_create(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 3)))
    return F, draw(st.integers(0, 3))


def point_sets(draw, F, d, max_size=12):
    codes = draw(st.lists(st.integers(0, F.q ** d - 1), max_size=max_size))
    return PointSet.from_codes(F, d, codes)


@st.composite
def set_pairs(draw):
    F, d = draw(spaces())
    return point_sets(draw, F, d), point_sets(draw, F, d), draw(st.sampled_from(CHUNKS))


@st.composite
def sets_and_hyperplanes(draw):
    F, d = draw(spaces())
    element = st.integers(0, F.q - 1)
    entries = draw(st.lists(st.tuples(st.lists(element, min_size=d, max_size=d), element,
                                      st.integers(1, 3)), max_size=10))
    H = HyperplaneMultiset.build(F, d, entries)
    return point_sets(draw, F, d), H, draw(st.sampled_from(CHUNKS))


@settings(max_examples=40, deadline=None)
@given(set_pairs())
def test_two_set_profile_matches_double_loop(case):
    E, G, chunk = case
    F = E.field
    expect = Counter(norm(F, vsub(F, x, y)) for x in E.points for y in G.points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_ELEMS", chunk)
        blocks = blocks_recorded(mp)
        profile = distance_profile(E, G)
    assert within_cap(blocks, chunk)
    assert nonzero_counts(profile) == dict(expect)
    assert profile.shape == (F.q,) and profile.sum() == len(E) * len(G)


@settings(max_examples=40, deadline=None)
@given(sets_and_hyperplanes())
def test_incidences_match_oracle(case):
    P, H, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_ELEMS", chunk)
        blocks = blocks_recorded(mp)
        count = count_incidences(P, H)
    assert within_cap(blocks, chunk)
    assert count == oracle_incidences(P, H)


@settings(max_examples=40, deadline=None)
@given(sets_and_hyperplanes())
def test_dilation_matches_oracle(case):
    # rows with a = 0 included: dilation needs only b != 0
    P, H, chunk = case
    H = HyperplaneMultiset.build(H.field, H.d, [e for e in H.entries if e[1]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_ELEMS", chunk)
        blocks = blocks_recorded(mp)
        count = incidence_via_dilation(P, H)
    assert within_cap(blocks, chunk)
    assert count == oracle_incidences(P, H)


@st.composite
def small_sets(draw):
    F, d = draw(spaces())
    return point_sets(draw, F, d, max_size=6)  # the oracle walks |E|^5 tuples


@settings(max_examples=30, deadline=None)
@given(small_sets())
def test_lambda6_matches_bruteforce(E):
    assert energy_convolution(E, 3) == energy_bruteforce(E, 3)


@st.composite
def norm_cases(draw):
    """Sets in F_q^d, q = p^r, with d up to 10 while q^d fits int64, so the
    code splits into one run or several of chunk_width(q) coordinates."""
    F = field_create(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 3)))
    d = draw(st.integers(0, max(d for d in range(11) if F.q ** d < 2 ** 62)))
    return point_sets(draw, F, d), draw(st.sampled_from(CHUNKS))


def _norms_case(F, d, codes):
    return PointSet.from_codes(F, d, codes), kernels.CHUNK_ELEMS


@settings(max_examples=60, deadline=None)
@given(norm_cases())
@example(_norms_case(field_create(3, 2), 0, [0]))
@example(_norms_case(field_create(5, 1), 3, []))
@example(_norms_case(field_create(3, 3), 4, [0, 1, 26 * 27 ** 3 + 5, 27 ** 4 - 1]))  # runs 3 + 1
@example(_norms_case(field_create(7, 2), 3, [0, 48, 49 ** 2 + 7, 49 ** 3 - 1]))  # runs 2 + 1
@example(_norms_case(field_create(3, 1), 10, [0, 2, 3 ** 9, 3 ** 10 - 1]))  # runs 9 + 1
def test_norms_match_scalar_norm(case):
    E, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "CHUNK_ELEMS", chunk)
        runs, norm_table = [], geometry._norm_table
        mp.setattr(geometry, "_norm_table", lambda F, c: runs.append(c) or norm_table(F, c))
        got = norms(E)
    # runs of one coordinate under a cap below q^2, of several at the default
    assert runs == [1 if chunk < E.field.q ** 2 else kernels.chunk_width(E.field.q)]
    assert got.tolist() == [norm(E.field, x) for x in E.points]
