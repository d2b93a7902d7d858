"""Property tests of the half spectrum against the direct transform (needs
hypothesis)."""

import math
from functools import reduce

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import folded_power, half_moment, half_total, translate  # noqa: E402
from fqsalem import spectral  # noqa: E402
from fqsalem.constructions import product_set  # noqa: E402
from fqsalem.field import field_create  # noqa: E402
from fqsalem.geometry import PointSet, encode  # noqa: E402
from fqsalem.analysis import Analysis, _fourier_section  # noqa: E402
from fqsalem.spectral import fourier_direct, half_power, power_sums, spectrum  # noqa: E402

# (p, r, largest d with q^d <= 243): the direct transform stays cheap
SMALL_SPACES = [(3, 1, 5), (5, 1, 3), (7, 1, 2), (3, 2, 2), (5, 2, 1), (3, 3, 1)]


@st.composite
def small_sets(draw):
    p, r, max_d = draw(st.sampled_from(SMALL_SPACES))
    F = field_create(p, r)
    d = draw(st.integers(1, max_d))
    codes = draw(st.lists(st.integers(0, F.q ** d - 1), max_size=12))
    return PointSet.from_codes(F, d, codes)


@settings(max_examples=40, deadline=None)
@given(small_sets())
def test_pruned_fft_matches_direct(E):
    P = half_power(E)
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12
    assert abs(half_total(P) - len(E) / E.field.q ** E.d) <= 1e-12


@st.composite
def half_spectrum_sets(draw):
    # every p in {3, 5, 7} and r in {1, 2, 3}, with q^d <= 729
    p = draw(st.sampled_from([3, 5, 7]))
    r = draw(st.integers(1, 3))
    F = field_create(p, r)
    d = draw(st.integers(1, max(1, int(math.log(729, F.q) + 1e-9))))
    codes = draw(st.lists(st.integers(0, F.q ** d - 1), max_size=12))
    return PointSet.from_codes(F, d, codes)


@settings(max_examples=40, deadline=None)
@given(half_spectrum_sets())
def test_half_spectrum_matches_direct(E):
    p, q_d = E.field.p, E.field.q ** E.d
    full = np.abs(fourier_direct(E)) ** 2  # index order; [0] is m = 0
    # P is |E_hat|^2 at the trailing frequency digits 0..(p-1)/2
    P = half_power(E)
    assert P.shape == (q_d // p, (p + 1) // 2)
    assert np.max(np.abs(P - full.reshape(-1, p)[:, :(p + 1) // 2])) <= 1e-12
    # the half stands for every frequency
    assert abs(half_total(P) - len(E) / q_d) <= 1e-12
    for k in (1, 3, 4):
        assert abs(half_moment(P, k) - np.sum(full[1:] ** k)) <= 1e-12
    # the report's record of the half, from the report's own transform
    A = Analysis(E)
    assert A.spectrum == power_sums(P)
    assert abs(A.spectrum.sum2 - full[1:].sum()) <= 1e-12
    assert abs(A.spectrum.sum4 - np.sum(full[1:] ** 2)) <= 1e-12
    assert abs(A.spectrum.zero - full[0]) <= 1e-12
    assert abs(A.spectrum.sup - full[1:].max(initial=0.0)) <= 1e-12
    results, _ = _fourier_section(A, {})
    assert abs(results["lInfNorm"] - math.sqrt(full[1:].max(initial=0.0))) <= 1e-12
    assert abs(results["l4Norm"] ** 4 - np.sum(full[1:] ** 2) / q_d) <= 1e-12


@st.composite
def one_digit_prefix_sets(draw):
    # points with distinct leading d - 1 coordinates: under the first pass each
    # prefix holds one point, whatever the digit twist, so that pass is an outer
    # product; p in {3, 5, 7}, r in {1, 2, 3}, q^d <= 729
    p = draw(st.sampled_from([3, 5, 7]))
    r = draw(st.integers(1, 3))
    F = field_create(p, r)
    d = draw(st.integers(1, max(1, int(math.log(729, F.q) + 1e-9))))
    leads = draw(st.lists(st.integers(0, F.q ** (d - 1) - 1), max_size=12, unique=True))
    lasts = draw(st.lists(st.integers(0, F.q - 1), min_size=len(leads), max_size=len(leads)))
    return PointSet.from_codes(F, d, [a * F.q + b for a, b in zip(leads, lasts)])


@settings(max_examples=40, deadline=None)
@given(one_digit_prefix_sets())
def test_one_digit_prefixes_match_direct(E):
    P = half_power(E)
    assert P.shape == folded_power(E).shape
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12
    assert abs(half_total(P) - len(E) / E.field.q ** E.d) <= 1e-12


@st.composite
def affine_subspace_sets(draw):
    # up to 12 points of b + span(rows of a k x rd matrix) in (Z/p)^{rd} = F_q^d,
    # whose base-p digit vectors are the points' codes; the affine span has
    # dimension at most k. p in {3, 5, 7}, r in {1, 2, 3}, q^d <= 729, and a shift
    p = draw(st.sampled_from([3, 5, 7]))
    r = draw(st.integers(1, 3))
    F = field_create(p, r)
    d = draw(st.integers(0, int(math.log(729, F.q) + 1e-9)))
    n = r * d
    k = draw(st.integers(0, n))
    digits = st.integers(0, p - 1)
    basis = np.array(draw(st.lists(digits, min_size=k * n, max_size=k * n)),
                     dtype=np.int64).reshape(k, n)
    base = np.array(draw(st.lists(digits, min_size=n, max_size=n)), dtype=np.int64)
    coeffs = draw(st.lists(st.lists(digits, min_size=k, max_size=k), max_size=12))
    X = (base + np.array(coeffs, dtype=np.int64).reshape(len(coeffs), k) @ basis) % p
    shift = draw(st.lists(st.integers(0, F.q - 1), min_size=d, max_size=d))
    return PointSet.from_codes(F, d, encode(X, p)), shift


def _close(got: spectral.PowerSums, want: spectral.PowerSums, n: int, q_d: int) -> bool:
    """Each field within a relative 1e-12, or 1e-15 of its scale: |E|/q^d (the
    sum of |E_hat|^2 over all m), squared for sum4."""
    scale = n / q_d
    return all(abs(getattr(got, f) - getattr(want, f)) <= 1e-12 * abs(getattr(want, f)) + 1e-15 * s
               for f, s in (("sum2", scale), ("sum4", scale ** 2), ("zero", scale), ("sup", scale)))


@settings(max_examples=60, deadline=None)
@given(affine_subspace_sets())
def test_spectrum_of_the_affine_span_matches_the_whole_grid(case):
    E, shift = case
    n, q_d = len(E), E.field.q ** E.d
    whole = power_sums(half_power(E))
    assert spectrum(E) == whole  # every grid here is below the span test's threshold
    full = np.abs(fourier_direct(E)) ** 2  # index order; [0] is m = 0
    direct = spectral.PowerSums(sum2=float(full[1:].sum()), sum4=float(np.sum(full[1:] ** 2)),
                                zero=float(full[0]), sup=float(full[1:].max(initial=0.0)))
    # the affine span is a proper subspace iff |E_hat(m)| = |E_hat(0)| at some m != 0
    deficient = n > 0 and direct.sup >= (1 - 1e-9) * direct.zero
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SPAN_TEST_MIN_CELLS", 0)
        S = spectrum(E)
        moved = spectrum(translate(E, shift))
    assert _close(S, whole, n, q_d) and _close(S, direct, n, q_d)
    assert _close(moved, S, n, q_d)
    if n:
        assert (S.sup == S.zero) == deficient
    if not deficient:  # a spanning set, or the empty one, is transformed whole
        assert S == whole


@st.composite
def product_sets(draw):
    """product_set over 1 to 3 factors of F_p^r, p in {3, 5, 7}, r in {1, 2, 3},
    on at most 5^6 cells: each factor of dimension 0 to 2 with up to 6 points
    (empty and singleton ones included), nested to the left or to the right."""
    F = field_create(draw(st.sampled_from([3, 5, 7])), draw(st.integers(1, 3)))
    room, factors = int(math.log(5 ** 6, F.q) + 1e-9), []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, min(2, room)))
        room -= d
        factors.append(PointSet.from_codes(F, d, draw(st.lists(st.integers(0, F.q ** d - 1),
                                                                max_size=6))))
    if draw(st.booleans()):
        return reduce(product_set, factors)
    return reduce(lambda B, A: product_set(A, B), reversed(factors))


@settings(max_examples=60, deadline=None)
@given(product_sets())
def test_spectrum_of_a_product_matches_the_whole_grid(E):
    # a product on a grid above the span test's threshold combines its factors'
    # records; at the default threshold every grid here is transformed whole
    n, q_d = len(E), E.field.q ** E.d
    stripped = PointSet(E.field, E.d, E.codes)
    assert E == stripped and hash(E) == hash(stripped)
    whole = power_sums(half_power(stripped))
    assert spectrum(E) == whole
    combined, product_sums = [], spectral._product_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SPAN_TEST_MIN_CELLS", 0)
        mp.setattr(spectral, "_product_sums", lambda A, B: combined.append(A) or product_sums(A, B))
        S = spectrum(E)
    assert len(combined) == max(len(E.factors) - 1, 0)
    assert _close(S, whole, n, q_d)
