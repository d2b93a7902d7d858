"""Fourier transform, norms, and the energy identity."""

import cmath
import math

import numpy as np
import pytest

from conftest import full_space, rand_set
from fqsalem import spectral
from fqsalem.constructions import product_set
from fqsalem.errors import ConfigError
from fqsalem.field import field_create
from fqsalem.geometry import PointSet, decode, dot
from fqsalem.harness import Analysis, run
from fqsalem.spectral import (energy_identity_residual, fourier_direct, fourier_fast,
                              half_power, lp_norm)


def test_full_space_spectrum(f5):
    E = full_space(f5, 2)
    S = fourier_fast(E)
    assert S.at((0, 0)) == pytest.approx(1)
    nonzero = [abs(S.at((a, b))) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    assert max(nonzero) < 1e-12


def test_package_fourier_is_fourier_fast():
    import fqsalem
    assert fqsalem.fourier is fourier_fast


def test_singleton_spectrum(f7):
    E = PointSet.build(f7, 2, [(3, 4)])
    S = fourier_direct(E)
    for v in S.values:
        assert abs(abs(v) - 1 / 49) < 1e-12


@pytest.mark.parametrize("p,r,d", [(5, 1, 2), (3, 1, 3), (7, 1, 2), (3, 2, 2), (3, 2, 1), (3, 3, 1)])
def test_fast_equals_direct(p, r, d):
    F = field_create(p, r)
    q = F.q
    for seed in range(4):
        E = rand_set(F, d, min(10 + 7 * seed, q ** d), seed)
        a = fourier_direct(E).values
        b = fourier_fast(E).values
        assert np.max(np.abs(a - b)) <= 1e-9


@pytest.mark.parametrize("p,r,d", [(5, 1, 2), (3, 2, 2), (7, 1, 2)])
def test_parseval(p, r, d):
    F = field_create(p, r)
    for seed in range(3):
        E = rand_set(F, d, 12, seed)
        S = fourier_fast(E)
        total = float(np.sum(np.abs(S.values) ** 2))
        expect = len(E) / F.q ** d
        assert abs(total - expect) <= 1e-10 * expect
        assert abs(S.at((0,) * d) - expect) < 1e-12


def test_lp_norm_full_space(f3):
    S = fourier_fast(full_space(f3, 2))
    for u in (1, 2, 4, float("inf")):
        assert lp_norm(S, u) == pytest.approx(0, abs=1e-12)


def test_lp_norm_singleton(f5):
    E = PointSet.build(f5, 2, [(2, 2)])
    S = fourier_direct(E)
    qd = 25
    for u in (1, 2, 3, 8):
        expect = (1 / qd) * ((qd - 1) / qd) ** (1 / u)
        assert lp_norm(S, u) == pytest.approx(expect, rel=1e-10)
    assert lp_norm(S, float("inf")) == pytest.approx(1 / qd, rel=1e-12)


def test_lp_norm_parseval_form(f5):
    E = rand_set(f5, 2, 9, seed=5)
    S = fourier_fast(E)
    qd = 25.0
    expect = (len(E) / qd - len(E) ** 2 / qd ** 2) / qd
    assert lp_norm(S, 2) ** 2 == pytest.approx(expect, rel=1e-9)


def test_lp_norm_rejects_small_u(f5):
    S = fourier_fast(rand_set(f5, 2, 4, 0))
    with pytest.raises(ConfigError):
        lp_norm(S, 0.5)


def test_translation_invariance(f5):
    E = rand_set(f5, 2, 8, seed=2)
    for v in [(1, 0), (2, 3)]:
        for u in (1, 2, 4, float("inf")):
            assert lp_norm(fourier_fast(E.translate(v)), u) == pytest.approx(
                lp_norm(fourier_fast(E), u), abs=1e-10)


def test_norm_dominated_by_sup(f7):
    E = rand_set(f7, 2, 15, seed=4)
    S = fourier_fast(E)
    qd = 49
    sup = lp_norm(S, float("inf"))
    for u in (1, 2, 4, 6):
        assert lp_norm(S, u) <= sup * ((qd - 1) / qd) ** (1 / u) + 1e-12


def test_energy_identity_singleton(f5):
    E = PointSet.build(f5, 2, [(1, 1)])
    for k in (1, 2, 3):
        assert energy_identity_residual(Analysis(E), k) <= 1e-9
        # both sides equal q^{-2kd}(1 - q^{-d}) here
        S = fourier_direct(E)
        lhs = lp_norm(S, 2 * k) ** (2 * k)
        expect = 25.0 ** (-2 * k) * (1 - 1 / 25)
        assert lhs == pytest.approx(expect, rel=1e-9)


def test_energy_identity_full_space(f3):
    E = full_space(f3, 2)
    for k in (1, 2):
        assert lp_norm(fourier_fast(E), 2 * k) ** (2 * k) == pytest.approx(0, abs=1e-15)
        assert energy_identity_residual(Analysis(E), k) <= 1e-9


def test_energy_identity_random(f5):
    for seed in range(5):
        E = rand_set(f5, 2, 6 + 3 * seed, seed)
        for k in (1, 2, 3):
            assert energy_identity_residual(Analysis(E), k) <= 1e-9


def test_spectrum_csv_export(tmp_path, f3):
    E = rand_set(f3, 2, 4, 1)
    S = fourier_fast(E)
    path = tmp_path / "spec.csv"
    S.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,re,im"
    assert len(lines) == 1 + 9
    m, re, im = lines[1].split(",")
    assert int(m) == 0 and float(re) == pytest.approx(len(E) / 9)


def record_passes(monkeypatch) -> list:
    """Patch the kernel to record, per digit-axis pass, its matrix products and
    the scratch arrays it allocates (np.zeros, np.empty). The reshape path
    makes one product and allocates no scratch."""
    passes, current = [], []
    axis_pass = spectral._axis_pass

    def recorded(*args):
        passes.append({"products": 0, "scratch": 0})
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
    monkeypatch.setattr(np, "matmul", counting(np.matmul, "products"))
    monkeypatch.setattr(np, "zeros", counting(np.zeros, "scratch"))
    monkeypatch.setattr(np, "empty", counting(np.empty, "scratch"))
    return passes


def test_pruned_fft_empty_set(f9):
    E = PointSet.from_codes(f9, 2, [])
    S = fourier_fast(E)
    assert S.values.shape == (81,) and not S.values.any() and S.set_size == 0


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2), (3, 3)])
def test_pruned_fft_singleton(p, r):
    F = field_create(p, r)
    E = PointSet.build(F, 2, [(1, F.q - 1)])
    S = fourier_fast(E)
    assert np.allclose(np.abs(S.values), 1 / F.q ** 2, rtol=0, atol=1e-15)
    assert np.max(np.abs(S.values - fourier_direct(E).values)) <= 1e-12


@pytest.mark.parametrize("p,r,d", [(3, 2, 2), (5, 1, 3)])
def test_pruned_fft_full_space_takes_reshape_path(monkeypatch, p, r, d):
    F = field_create(p, r)
    passes = record_passes(monkeypatch)
    S = fourier_fast(full_space(F, d))
    # every prefix holds all p digits: one product per pass, no scratch array
    assert passes == [{"products": 1, "scratch": 0}] * (r * d)
    assert S.values[0] == pytest.approx(1)
    assert np.max(np.abs(S.values[1:])) < 1e-12


def test_pruned_fft_collapsed_prefixes(monkeypatch, f9):
    # a full line times one point: after the two trailing digit axes of each
    # fixed coordinate, every point falls under one prefix
    E = product_set(full_space(f9, 1), PointSet.build(f9, 2, [(4, 7)]))
    passes = record_passes(monkeypatch)
    S = fourier_fast(E)
    assert len(passes) == 6 and any(rec["scratch"] for rec in passes)
    assert np.max(np.abs(S.values - fourier_direct(E).values)) <= 1e-12


@pytest.mark.parametrize("prefix_min", [1, 1 << 30])
@pytest.mark.parametrize("p,r,d", [(3, 2, 2), (5, 1, 3), (7, 1, 2)])
def test_sparse_passes_agree(monkeypatch, prefix_min, p, r, d):
    # 1: every sparse pass takes one product per prefix; 2^30: every one scatters
    monkeypatch.setattr(spectral, "_PREFIX_PRODUCT_MIN", prefix_min)
    F = field_create(p, r)
    for seed in range(3):
        E = rand_set(F, d, 5 + 9 * seed, seed)
        direct = fourier_direct(E).values
        assert np.max(np.abs(fourier_fast(E).values - direct)) <= 1e-12
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
    values = fourier_fast(E).values
    P = half_power(E)
    assert P.shape == (q_d // p, (p + 1) // 2)
    assert np.max(np.abs(P - np.abs(values.reshape(-1, p)[:, :(p + 1) // 2]) ** 2)) <= 1e-15
    assert abs(np.sum(np.abs(values) ** 2) - len(E) / q_d) <= 1e-12
    for code in [0, 1, (p - 1) // 2, (p + 1) // 2, p - 1, p % q_d, q_d - 1,
                 *rng.integers(0, q_d, 5).tolist()]:
        want = direct_at(E, code)
        assert abs(values[code] - want) <= 1e-12
        if code % p <= (p - 1) // 2:
            assert abs(P[code // p, code % p] - abs(want) ** 2) <= 1e-15


@pytest.mark.parametrize("codes", [[], [0]])
def test_zero_dimension(codes, f5):
    # F_5^0 is one point; its one frequency m = 0 has E_hat(0) = |E|
    E = PointSet.from_codes(f5, 0, codes)
    assert fourier_fast(E).values.tolist() == [len(codes)]
    assert half_power(E).tolist() == [[len(codes)]]
    construction = ({"kind": "fullSpace", "p": 5, "d": 0} if codes
                    else {"kind": "random", "p": 5, "d": 0, "size": 0})
    rep = run({"construction": construction, "analyses": ["fourier", "energy"], "seed": 0})
    assert rep["allGatesPass"]
    assert set(rep["results"]["fourier"].values()) == {0.0}


def test_report_makes_at_most_rd_passes(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("np.fft was called")

    def no_full_spectrum(*args, **kwargs):
        raise AssertionError("fourier_fast was called")

    transforms = []
    pruned_transform = spectral._pruned_transform

    def recorded(E, half):
        transforms.append(half)
        return pruned_transform(E, half)

    passes = record_passes(monkeypatch)
    monkeypatch.setattr(spectral, "_pruned_transform", recorded)
    monkeypatch.setattr(spectral, "fourier_fast", no_full_spectrum)
    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "fftn", no_fft)
    rep = run({"construction": {"kind": "conjectureWitness", "p": 3, "r": 2, "d": 4,
                                "s": "1/4"},
               "analyses": ["fourier", "energy", "salem", "distance", "incidence"],
               "seed": 0})
    assert rep["allGatesPass"]
    assert transforms == [True]
    assert 1 <= len(passes) <= 2 * 4
