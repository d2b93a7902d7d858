"""Property tests of the half spectrum against the direct transform (needs
hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import folded_power  # noqa: E402
from fqsalem.field import field_create  # noqa: E402
from fqsalem.geometry import PointSet  # noqa: E402
from fqsalem.harness import Analysis, _fourier_section  # noqa: E402
from fqsalem.spectral import fourier_direct, half_power  # noqa: E402

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
    P, w = Analysis(E).power
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12
    assert abs(np.sum(P @ w) - len(E) / E.field.q ** E.d) <= 1e-12


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
    P, w = half_power(E)
    assert P.shape == (q_d // p, (p + 1) // 2)
    assert np.max(np.abs(P - full.reshape(-1, p)[:, :(p + 1) // 2])) <= 1e-12
    # the weighted half stands for every frequency
    A = Analysis(E)
    assert all(np.array_equal(a, b) for a, b in zip(A.power, (P, w)))
    assert list(w) == [1.0] + [2.0] * ((p - 1) // 2)
    assert abs(np.sum(P @ w) - len(E) / q_d) <= 1e-12
    for k in (2, 3):
        assert abs(A.fourier_moment(k) - np.sum(full[1:] ** k) / q_d) <= 1e-12
    results, _ = _fourier_section(A, {})
    assert abs(results["lInfNorm"] - math.sqrt(full[1:].max(initial=0.0))) <= 1e-12


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
    P, w = half_power(E)
    assert P.shape == folded_power(E).shape
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12
    assert abs(np.sum(P @ w) - len(E) / E.field.q ** E.d) <= 1e-12
