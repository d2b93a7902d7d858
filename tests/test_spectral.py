"""Fourier transform, norms, and the energy identity."""

import math

import numpy as np
import pytest

from conftest import full_space, rand_set
from fqsalem.constructions import product_set
from fqsalem.errors import ConfigError
from fqsalem.field import field_create
from fqsalem.geometry import PointSet
from fqsalem.harness import Analysis, run
from fqsalem.spectral import (energy_identity_residual, fourier, fourier_direct,
                               fourier_fast, lp_norm)


def test_full_space_spectrum(f5):
    E = full_space(f5, 2)
    S = fourier(E)
    assert S.at((0, 0)) == pytest.approx(1)
    nonzero = [abs(S.at((a, b))) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    assert max(nonzero) < 1e-12


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
        S = fourier(E)
        total = float(np.sum(np.abs(S.values) ** 2))
        expect = len(E) / F.q ** d
        assert abs(total - expect) <= 1e-10 * expect
        assert abs(S.at((0,) * d) - expect) < 1e-12


def test_lp_norm_full_space(f3):
    S = fourier(full_space(f3, 2))
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
    S = fourier(E)
    qd = 25.0
    expect = (len(E) / qd - len(E) ** 2 / qd ** 2) / qd
    assert lp_norm(S, 2) ** 2 == pytest.approx(expect, rel=1e-9)


def test_lp_norm_rejects_small_u(f5):
    S = fourier(rand_set(f5, 2, 4, 0))
    with pytest.raises(ConfigError):
        lp_norm(S, 0.5)


def test_translation_invariance(f5):
    E = rand_set(f5, 2, 8, seed=2)
    for v in [(1, 0), (2, 3)]:
        for u in (1, 2, 4, float("inf")):
            assert lp_norm(fourier(E.translate(v)), u) == pytest.approx(
                lp_norm(fourier(E), u), abs=1e-10)


def test_norm_dominated_by_sup(f7):
    E = rand_set(f7, 2, 15, seed=4)
    S = fourier(E)
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
        assert lp_norm(fourier(E), 2 * k) ** (2 * k) == pytest.approx(0, abs=1e-15)
        assert energy_identity_residual(Analysis(E), k) <= 1e-9


def test_energy_identity_random(f5):
    for seed in range(5):
        E = rand_set(f5, 2, 6 + 3 * seed, seed)
        for k in (1, 2, 3):
            assert energy_identity_residual(Analysis(E), k) <= 1e-9


def test_spectrum_csv_export(tmp_path, f3):
    E = rand_set(f3, 2, 4, 1)
    S = fourier(E)
    path = tmp_path / "spec.csv"
    S.export_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,re,im"
    assert len(lines) == 1 + 9
    m, re, im = lines[1].split(",")
    assert int(m) == 0 and float(re) == pytest.approx(len(E) / 9)


def record_fft_inputs(monkeypatch) -> list:
    """Patch np.fft.fft to record, per call, whether its input is a view (the
    reshape path) or a freshly scattered array."""
    views = []
    fft = np.fft.fft

    def recorded(a, *args, **kwargs):
        views.append(a.base is not None)
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    return views


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
    views = record_fft_inputs(monkeypatch)
    S = fourier_fast(full_space(F, d))
    assert views == [True] * (r * d)  # every prefix holds all p digits
    assert S.values[0] == pytest.approx(1)
    assert np.max(np.abs(S.values[1:])) < 1e-12


def test_pruned_fft_collapsed_prefixes(monkeypatch, f9):
    # a full line times one point: after the two trailing digit axes of each
    # fixed coordinate, every point falls under one prefix
    E = product_set(full_space(f9, 1), PointSet.build(f9, 2, [(4, 7)]))
    views = record_fft_inputs(monkeypatch)
    S = fourier_fast(E)
    assert len(views) == 6 and not all(views)
    assert np.max(np.abs(S.values - fourier_direct(E).values)) <= 1e-12


def test_report_makes_at_most_rd_ffts(monkeypatch):
    def no_fftn(*args, **kwargs):
        raise AssertionError("np.fft.fftn was called")

    views = record_fft_inputs(monkeypatch)
    monkeypatch.setattr(np.fft, "fftn", no_fftn)
    rep = run({"construction": {"kind": "conjectureWitness", "p": 3, "r": 2, "d": 4,
                                "s": "1/4"},
               "analyses": ["fourier", "energy", "salem", "distance", "incidence"],
               "seed": 0})
    assert rep["allGatesPass"]
    assert 1 <= len(views) <= 2 * 4
