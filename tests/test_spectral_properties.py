"""Property tests of the pruned FFT against the direct transform (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from fqsalem.field import field_create  # noqa: E402
from fqsalem.geometry import PointSet  # noqa: E402
from fqsalem.harness import Analysis  # noqa: E402
from fqsalem.spectral import fourier_direct, fourier_fast  # noqa: E402

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
    fast = fourier_fast(E)
    assert np.max(np.abs(fast.values - fourier_direct(E).values)) <= 1e-12
    assert abs(np.sum(Analysis(E).power) - len(E) / E.field.q ** E.d) <= 1e-12
