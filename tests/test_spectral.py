"""Fourier transform, norms, and the energy identity.

The norms are the report's: the fourier section's lInfNorm and l4Norm and
||E_hat||_4^4, read from Analysis.spectrum (spectral.power_sums). The other
moments ||E_hat||_{2k}^{2k} are read from the half by conftest.half_moment,
and the energy identity for k != 2 by conftest.identity_residual. Each is
checked against the oracle's values (conftest.oracle_moment, fourier_direct)."""

import cmath
import math
import warnings

import numpy as np
import pytest

from conftest import (folded_power, full_space, half_moment, half_total, identity_residual,
                      oracle_moment, rand_set, translate)
from fqsalem import spectral
from fqsalem.constructions import product_set
from fqsalem.field import field_create
from fqsalem.geometry import PointSet, decode, dot, encode
from fqsalem.analysis import Analysis, _fourier_section
from fqsalem.harness import run
from fqsalem.spectral import fourier_direct, half_power


def norms(E) -> dict:
    """The fourier section's lInfNorm and l4Norm."""
    results, _ = _fourier_section(Analysis(E), {})
    return {name: results[name] for name in ("lInfNorm", "l4Norm")}


def moment(E, k) -> float:
    """||E_hat||_{2k}^{2k} = q^{-d} sum_{m != 0} |E_hat(m)|^{2k}: for k = 2 the
    report's, from Analysis.spectrum; for any other k, half_moment's."""
    q_d = E.field.q ** E.d
    if k == 2:
        return Analysis(E).spectrum.sum4 / q_d
    return half_moment(half_power(E), k) / q_d


def residual(E, k) -> float:
    """The energy identity's relative residual: for k = 2 the fourier
    section's; for any other k, identity_residual's."""
    if k == 2:
        return _fourier_section(Analysis(E), {})[0]["energyIdentityResidual"]
    return identity_residual(E, k)


def test_full_space_spectrum(f5):
    P = half_power(full_space(f5, 2))
    assert P[0, 0] == pytest.approx(1)
    assert np.max(P.ravel()[1:]) < 1e-24
    assert half_total(P) == pytest.approx(1)


def test_singleton_spectrum(f7):
    E = PointSet.build(f7, 2, [(3, 4)])
    for v in fourier_direct(E):
        assert abs(abs(v) - 1 / 49) < 1e-12


@pytest.mark.parametrize("p,r,d", [(5, 1, 2), (3, 1, 3), (7, 1, 2), (3, 2, 2), (3, 2, 1), (3, 3, 1)])
def test_fast_equals_direct(p, r, d):
    F = field_create(p, r)
    q = F.q
    for seed in range(4):
        E = rand_set(F, d, min(10 + 7 * seed, q ** d), seed)
        P = half_power(E)
        assert np.max(np.abs(P - folded_power(E))) <= 1e-12


@pytest.mark.parametrize("p,r,d", [(5, 1, 2), (3, 2, 2), (7, 1, 2)])
def test_parseval(p, r, d):
    F = field_create(p, r)
    for seed in range(3):
        E = rand_set(F, d, 12, seed)
        P = half_power(E)
        total = half_total(P)
        expect = len(E) / F.q ** d
        assert abs(total - expect) <= 1e-10 * expect
        assert abs(P[0, 0] - expect ** 2) < 1e-12
        assert abs(fourier_direct(E)[0] - expect) < 1e-12


def test_lp_norm_full_space(f3):
    # every nonzero frequency of the full space vanishes
    E = full_space(f3, 2)
    for k in (1, 2, 3):
        assert moment(E, k) == pytest.approx(0, abs=1e-24)
        assert oracle_moment(E, k) == pytest.approx(0, abs=1e-24)
    assert norms(E) == pytest.approx({"lInfNorm": 0, "l4Norm": 0}, abs=1e-12)


def test_lp_norm_singleton(f5):
    # |E_hat(m)| = q^{-d} at every m, so ||E_hat||_u^u = q^{-du} (q^d - 1) / q^d
    E = PointSet.build(f5, 2, [(2, 2)])
    qd = 25
    for k in (1, 2, 3, 4):
        expect = qd ** (-2 * k) * (qd - 1) / qd
        assert moment(E, k) == pytest.approx(expect, rel=1e-10)
        assert oracle_moment(E, k) == pytest.approx(expect, rel=1e-10)
    assert norms(E) == pytest.approx(
        {"lInfNorm": 1 / qd, "l4Norm": (1 / qd) * ((qd - 1) / qd) ** 0.25}, rel=1e-10)


def test_lp_norm_parseval_form(f5):
    E = rand_set(f5, 2, 9, seed=5)
    qd = 25.0
    expect = (len(E) / qd - len(E) ** 2 / qd ** 2) / qd
    assert moment(E, 1) == pytest.approx(expect, rel=1e-9)
    assert oracle_moment(E, 1) == pytest.approx(expect, rel=1e-9)


def test_translation_invariance(f5):
    E = rand_set(f5, 2, 8, seed=2)
    for v in [(1, 0), (2, 3)]:
        moved = translate(E, v)
        for k in (1, 2, 3):
            assert moment(moved, k) == pytest.approx(moment(E, k), abs=1e-10)
            assert oracle_moment(moved, k) == pytest.approx(moment(E, k), abs=1e-10)
        assert norms(moved) == pytest.approx(norms(E), abs=1e-10)


def test_norm_dominated_by_sup(f7):
    E = rand_set(f7, 2, 15, seed=4)
    qd = 49
    direct = fourier_direct(E)
    sup = norms(E)["lInfNorm"]
    assert sup == pytest.approx(np.abs(direct[1:]).max(), rel=1e-12)
    for k in (1, 2, 3):
        assert moment(E, k) == pytest.approx(oracle_moment(E, k, direct), rel=1e-10)
        assert moment(E, k) ** (1 / (2 * k)) <= sup * ((qd - 1) / qd) ** (1 / (2 * k)) + 1e-12


def test_energy_identity_singleton(f5):
    E = PointSet.build(f5, 2, [(1, 1)])
    for k in (1, 2, 3):
        assert residual(E, k) <= 1e-9
        # both sides equal q^{-2kd}(1 - q^{-d}) here
        expect = 25.0 ** (-2 * k) * (1 - 1 / 25)
        assert oracle_moment(E, k) == pytest.approx(expect, rel=1e-9)
        assert moment(E, k) == pytest.approx(expect, rel=1e-9)


def test_energy_identity_full_space(f3):
    E = full_space(f3, 2)
    for k in (1, 2):
        assert oracle_moment(E, k) == pytest.approx(0, abs=1e-15)
        assert moment(E, k) == pytest.approx(0, abs=1e-15)
        assert residual(E, k) <= 1e-9


@pytest.mark.parametrize("p,r,d", [(5, 1, 3), (3, 2, 2), (7, 1, 2)])
def test_moments_of_full_space_minus_a_point(p, r, d):
    # |E_hat(m)| = q^{-d} at every m != 0, while |E_hat(0)|^2 = (1 - q^{-d})^2
    # is near 1: a moment that subtracted the m = 0 term from the full sum
    # would cancel to about 1e-16, far above q^{-2kd}
    F = field_create(p, r)
    q_d = F.q ** d
    E = PointSet.from_codes(F, d, np.arange(1, q_d))
    direct = fourier_direct(E)
    for k in (1, 2, 3):
        expect = (q_d - 1) / q_d ** (2 * k + 1)
        assert moment(E, k) == pytest.approx(expect, rel=1e-9)
        assert moment(E, k) == pytest.approx(oracle_moment(E, k, direct), rel=1e-9)
        assert residual(E, k) <= 1e-9
    # the report's Parseval sum, sliced as its moments are
    assert Analysis(E).spectrum.sum2 / q_d == pytest.approx((q_d - 1) / q_d ** 3, rel=1e-9)


def test_energy_identity_random(f5):
    for seed in range(5):
        E = rand_set(f5, 2, 6 + 3 * seed, seed)
        for k in (1, 2, 3):
            assert residual(E, k) <= 1e-9


def record_passes(monkeypatch) -> list:
    """Patch the kernel to record, per digit-axis pass, its matrix products, the
    zero fills of its scratch buffers and the arrays it allocates (np.zeros,
    np.empty). Each route of a pass with p <= 127 leaves its own record, and
    none allocates:

    * reshape (every prefix holds all p digits): one product, no fill;
    * outer product (every prefix holds one digit): no product, no fill;
    * one product per prefix: a product per prefix, no fill;
    * zero-fill: one product on one zero-filled scratch buffer."""
    passes, current = [], []
    axis_pass, scratch = spectral._axis_pass, spectral.scratch

    class FillSpy(np.ndarray):
        """A scratch buffer, and every view of it, that records its zero fills."""
        def fill(self, value):
            if current and value == 0:
                current[-1]["fills"] += 1
            super().fill(value)

    def recorded(*args):
        passes.append({"products": 0, "fills": 0, "allocations": 0})
        current.append(passes[-1])
        try:
            return axis_pass(*args)
        finally:
            current.pop()

    def counting(fn, key):
        def counted(*args, **kwargs):
            if current:
                current[-1][key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(spectral, "_axis_pass", recorded)
    monkeypatch.setattr(spectral, "scratch", lambda *args: scratch(*args).view(FillSpy))
    monkeypatch.setattr(np, "matmul", counting(np.matmul, "products"))
    monkeypatch.setattr(np, "zeros", counting(np.zeros, "allocations"))
    monkeypatch.setattr(np, "empty", counting(np.empty, "allocations"))
    return passes


RESHAPE = {"products": 1, "fills": 0, "allocations": 0}
OUTER = {"products": 0, "fills": 0, "allocations": 0}
ZERO_FILL = {"products": 1, "fills": 1, "allocations": 0}


def test_pruned_fft_empty_set(f9):
    P = half_power(PointSet.from_codes(f9, 2, []))
    assert P.shape == (27, 2) and not P.any()


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2), (3, 3)])
def test_pruned_fft_singleton(p, r):
    F = field_create(p, r)
    E = PointSet.build(F, 2, [(1, F.q - 1)])
    P = half_power(E)
    assert np.allclose(P, 1 / F.q ** 4, rtol=0, atol=1e-15)
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12


@pytest.mark.parametrize("p,r,d", [(3, 2, 2), (5, 1, 3)])
def test_pruned_fft_full_space_takes_reshape_path(monkeypatch, p, r, d):
    F = field_create(p, r)
    passes = record_passes(monkeypatch)
    P = half_power(full_space(F, d))
    # every prefix holds all p digits: one product per pass, no zero fill
    assert passes == [RESHAPE] * (r * d)
    assert P[0, 0] == pytest.approx(1)
    assert np.max(P.ravel()[1:]) < 1e-24


def two_points_times_one(F):
    """(0, 4, 5) and (1, 4, 5) in F^3: the two points keep apart under the two
    trailing axes, then fall under one prefix holding 2 of its p digits."""
    return product_set(PointSet.build(F, 1, [(0,), (1,)]), PointSet.build(F, 2, [(4, 5)]))


def test_pruned_fft_collapsed_prefixes(monkeypatch, f7):
    E = two_points_times_one(f7)
    passes = record_passes(monkeypatch)
    P = half_power(E)
    # the last pass carries 7 x 16 < 2^10 entries per prefix: it zero-fills a
    # scratch buffer, and allocates no array
    assert passes == [OUTER, OUTER, ZERO_FILL]
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12


def test_pruned_fft_one_product_per_prefix(monkeypatch, f7):
    # with no entry floor, the collapsed prefix of the last pass takes its own
    # product with the 2 columns of W of its digits, into a scratch buffer
    monkeypatch.setattr(spectral, "_PREFIX_PRODUCT_MIN", 1)
    E = two_points_times_one(f7)
    passes = record_passes(monkeypatch)
    P = half_power(E)
    assert passes == [OUTER, OUTER, {"products": 1, "fills": 0, "allocations": 0}]
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12


def test_pruned_fft_one_digit_prefixes_take_outer_products(monkeypatch, f9):
    # the points (x, 4, x): under each of the four trailing digit axes every
    # point has its own prefix, so those passes are outer products (the first
    # two with a different digit per point); then the nine points fill the
    # three prefixes of the leading coordinate's two digit axes
    E = PointSet.build(f9, 3, [(x, 4, x) for x in range(9)])
    passes = record_passes(monkeypatch)
    P = half_power(E)
    assert passes == [OUTER] * 4 + [RESHAPE] * 2
    assert np.max(np.abs(P - folded_power(E))) <= 1e-12


@pytest.mark.parametrize("prefix_min", [1, 1 << 30])
@pytest.mark.parametrize("p,r,d", [(3, 2, 2), (5, 1, 3), (7, 1, 2)])
def test_sparse_passes_agree(monkeypatch, prefix_min, p, r, d):
    # 1: every sparse pass with a prefix of 2 to p - 1 digits takes one product
    # per prefix; 2^30: every one scatters
    monkeypatch.setattr(spectral, "_PREFIX_PRODUCT_MIN", prefix_min)
    F = field_create(p, r)
    for seed in range(3):
        E = rand_set(F, d, 5 + 9 * seed, seed)
        direct = fourier_direct(E)
        half = np.abs(direct.reshape(-1, p)[:, :(p + 1) // 2]) ** 2
        assert np.max(np.abs(half_power(E) - half)) <= 1e-12


def direct_at(E: PointSet, code: int) -> complex:
    """E_hat at the frequency with flat index `code`, by the definition, with
    scalar field calls only (no lookup tables)."""
    F = E.field
    m = tuple(decode([code], F.q, E.d)[0].tolist())
    return sum(cmath.exp(-2j * math.pi * F.trace(dot(F, m, y)) / F.p)
               for y in E.points) / F.q ** E.d


@pytest.mark.parametrize("p,r,d", [(131, 1, 2), (131, 2, 1), (100003, 1, 1)])
def test_large_p_passes_take_the_fft(monkeypatch, p, r, d):
    # above _DFT_MATRIX_MAX_P no DFT matrix is built: every pass is an FFT
    def no_matrix(p):
        raise AssertionError(f"a {p} x {p} DFT matrix was built")

    monkeypatch.setattr(spectral, "_dft_matrix", no_matrix)
    F = field_create(p, r)
    q_d = F.q ** d
    rng = np.random.default_rng(p + r)
    E = PointSet.from_codes(F, d, rng.integers(0, q_d, 6))
    P = half_power(E)
    assert P.shape == (q_d // p, (p + 1) // 2)
    assert abs(half_total(P) - len(E) / q_d) <= 1e-12
    for code in [0, 1, (p - 1) // 2, (p + 1) // 2, p - 1, p % q_d, q_d - 1,
                 *rng.integers(0, q_d, 5).tolist()]:
        want = abs(direct_at(E, code)) ** 2
        if code % p > (p - 1) // 2:  # the half holds it at -m, whose trailing digit is p - f
            m = decode([code], F.q, d)[0].tolist()
            code = int(encode(np.array([[F.neg(c) for c in m]]), F.q)[0])
        assert code % p <= (p - 1) // 2
        assert abs(P[code // p, code % p] - want) <= 1e-15


@pytest.mark.parametrize("codes", [[], [0]])
def test_zero_dimension(codes, f5):
    # F_5^0 is one point; its one frequency m = 0 has E_hat(0) = |E|
    E = PointSet.from_codes(f5, 0, codes)
    assert fourier_direct(E).tolist() == [len(codes)]
    P = half_power(E)
    assert P.tolist() == [[len(codes)]]
    assert np.array_equal(P, folded_power(E))
    construction = ({"kind": "fullSpace", "p": 5, "d": 0} if codes
                    else {"kind": "random", "p": 5, "d": 0, "size": 0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run({"construction": construction, "analyses": ["fourier", "energy"], "seed": 0})
    assert rep["allGatesPass"]
    assert set(rep["results"]["fourier"].values()) == {0.0}
    # the one-point set warns once, when the energy section reads its Salem parameter
    warned = [str(w.message) for w in caught]
    assert warned == ["singleton set: Salem parameter defaults to 1/2"] * len(codes)


def test_report_makes_at_most_rd_passes(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("np.fft was called")

    transforms = []
    kernel = spectral.half_power

    def recorded(E):
        transforms.append(E)
        return kernel(E)

    passes = record_passes(monkeypatch)
    monkeypatch.setattr(spectral, "half_power", recorded)
    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "fftn", no_fft)
    rep = run({"construction": {"kind": "conjectureWitness", "p": 3, "r": 2, "d": 4,
                                "s": "1/4"},
               "analyses": ["fourier", "energy", "salem", "distance", "incidence"],
               "seed": 0})
    assert rep["allGatesPass"]
    assert len(transforms) == 1
    assert 1 <= len(passes) <= 2 * 4
