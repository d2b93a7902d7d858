"""Acceptance suite: one test per release criterion, one pass/fail line each.

Golden regression values below were minted by a one-off run of the
brute-force oracles, e.g.:

    python3 -c "
    from fqsalem.field import field_create
    from fqsalem.geometry import PointSet, all_vectors
    from fqsalem.constructions import isotropic_subspace
    from fqsalem.distance import verify_secondmoment_bounds
    from fqsalem.harness import Analysis
    for q, d in [(3,2),(5,2),(3,3),(5,3)]:
        F = field_create(q, 1)
        E = PointSet.build(F, d, all_vectors(F, d))
        print(q, d, verify_secondmoment_bounds(Analysis(E), s=0.5))
    iso = isotropic_subspace(field_create(5,1), 4, 2)
    print(verify_secondmoment_bounds(Analysis(iso), s=0.25))"
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from fqsalem.constructions import (isotropic_subspace, multiplicative_subgroup,
                                    product_set, random_pointset, rotation_orbit,
                                    subgroup_power, two_set_sharpness)
from fqsalem.distance import distance_profile, verify_secondmoment_bounds
from fqsalem.energy import energy_bruteforce, energy_convolution, pair_counts
from fqsalem.field import field_create
from fqsalem.geometry import (HyperplaneMultiset, PointSet, all_vectors, norm, sphere)
from fqsalem.harness import Analysis, oracle_incidences, render_report, run, sweep
from fqsalem.incidence import (count_incidences, difference_family, incidence_bounds,
                                incidence_via_dilation)
from fqsalem.ranges import crossover_identities, subgroup_threshold
from fqsalem.spectral import energy_identity_residual, fourier_direct, half_power

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GOLDEN_SECOND_MOMENT_RATIOS = {
    # (q, d, s) -> (ratio vs Salem-route bound, ratio vs general bound)
    (3, 2, 0.5): (0.5238095238095238, 0.6111111111111112),
    (5, 2, 0.5): (0.5272727272727272, 0.58),
    (3, 3, 0.5): (0.6361259348927291, 0.680935677416714),
    (5, 3, 0.5): (0.6939151196053124, 0.7130944618050543),
}
GOLDEN_ISOTROPIC_RATIOS = (0.8064516129032258, 0.8333333333333334)


def full_space(F, d):
    return PointSet.build(F, d, all_vectors(F, d))


def test_01_fourier_energy_identity():
    t0 = time.perf_counter()
    for p, r, d in [(5, 1, 2), (7, 1, 2), (3, 1, 3)]:
        F = field_create(p, r)
        for seed in range(20):
            size = 2 + (seed * 7) % (F.q ** d - 2)
            E = random_pointset(F, d, size, seed)
            for k in (1, 2, 3):
                assert energy_identity_residual(Analysis(E), k) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30
    print(f"PASS: Fourier-energy identity, residual <= 1e-9 on 60 sets x k in 1..3 "
          f"({elapsed:.1f}s)")


def test_02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260826)
    for trial in range(50):
        q = rng.choice([3, 5, 7])
        d = rng.randrange(1, 4)
        F = field_create(q, 1)
        size = rng.randrange(2, min(60, q ** d) + 1)
        E = random_pointset(F, d, size, seed=trial)
        assert energy_convolution(E, 2) == energy_bruteforce(E, 2)
    for trial in range(50):
        q = rng.choice([3, 5, 7])
        d = rng.randrange(2, 4)
        F = field_create(q, 1)
        P = random_pointset(F, d, rng.randrange(2, min(15, q ** d) + 1), seed=trial)
        entries = []
        for _ in range(rng.randrange(1, 5)):
            a = tuple(rng.randrange(q) for _ in range(d))
            if all(c == 0 for c in a):
                a = (1,) + a[1:]
            entries.append((a, rng.randrange(q), rng.randrange(1, 4)))
        H = HyperplaneMultiset.build(F, d, entries)
        assert count_incidences(P, H) == oracle_incidences(P, H)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60
    print(f"PASS: convolution = brute force on 50 sets and incidence counter = "
          f"double-loop oracle on 50 configs ({elapsed:.1f}s)")


def test_03_isotropic_witnesses():
    t0 = time.perf_counter()
    E5 = isotropic_subspace(field_create(5, 1), 4, 2)
    assert len(E5) == 25
    assert distance_profile(E5).support == frozenset({0})
    assert energy_convolution(E5, 2) == 15625
    E3 = isotropic_subspace(field_create(3, 1), 4, 2)
    assert len(E3) == 9
    assert distance_profile(E3).support == frozenset({0})
    assert energy_convolution(E3, 2) == 729
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5
    print(f"PASS: isotropic spans have a single distance 0 and cubed energy "
          f"(25/15625 over q=5, 9/729 over q=3, {elapsed:.1f}s)")


def test_04_rotation_orbit_witness():
    t0 = time.perf_counter()
    E = rotation_orbit(3, 3)
    F = E.field
    assert len(E) == 7
    assert all(norm(F, x) == 1 for x in E.points)
    assert len(distance_profile(E).support) >= 3
    ratio = energy_bruteforce(E, 2) / len(E) ** 2
    assert 2 - 1 / 7 <= ratio <= 4
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5
    print(f"PASS: order-7 rotation orbit on the unit circle of F_27, >= 3 distances, "
          f"energy ratio {ratio:.3f} in [2 - 1/7, 4] ({elapsed:.1f}s)")


def test_05_parseval_and_dual_transforms():
    rng = random.Random(55)
    checked = 0
    for p, r, d in [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 1),
                    (5, 1, 1), (3, 3, 1), (7, 2, 1), (5, 2, 1)]:
        F = field_create(p, r)
        for _ in range(5):
            size = rng.randrange(1, min(40, F.q ** d) + 1)
            E = random_pointset(F, d, size, seed=rng.randrange(1 << 20))
            a = fourier_direct(E)
            P, w = half_power(E)
            assert np.max(np.abs(P - np.abs(a.reshape(-1, p)[:, :(p + 1) // 2]) ** 2)) <= 1e-9
            expect = len(E) / F.q ** d
            for total in (float(np.sum(np.abs(a) ** 2)), float(np.sum(P @ w))):
                assert abs(total - expect) <= 1e-10 * expect
            checked += 1
    assert checked == 50
    print("PASS: Parseval within 1e-10 relative and half-spectrum |E_hat|^2 = direct "
          "summation within 1e-9 on 50 sets including degree-2 extensions")


def test_06_incidence_sharpness():
    F = field_create(7, 1)
    a, b = (1, 0, 0), 1
    from fqsalem.geometry import dot
    P = PointSet.build(F, 3, (x for x in all_vectors(F, 3) if dot(F, a, x) == b))
    H = HyperplaneMultiset.build(F, 3, [(a, b, 1)])
    I = count_incidences(P, H)
    assert I == 49
    bound = incidence_bounds(P, H, s=0.25)["rhs"]["sharp"]
    assert bound >= 49
    assert incidence_via_dilation(P, H) == 49
    print(f"PASS: plane-on-itself incidences in F_7^3 equal 49, bound at s=1/4 is "
          f"{bound:.1f} >= 49, dilation identity exact")


def test_07_difference_family_invariants():
    rng = random.Random(77)
    for trial in range(30):
        q = rng.choice([3, 5, 7])
        d = rng.randrange(2, 4)
        F = field_create(q, 1)
        E = random_pointset(F, d, rng.randrange(2, min(20, q ** d) + 1), seed=trial)
        fam = difference_family(pair_counts(E))
        assert fam.total_pairs == len(E) ** 2
        assert fam.sum_m2 <= energy_bruteforce(E, 2)
    equalities = 0
    while equalities < 10:
        q = rng.choice([5, 7])
        F = field_create(q, 1)
        j = rng.randrange(1, q)
        S = sphere(F, 2, j)
        if len(S) < 2:
            continue
        size = rng.randrange(2, len(S) + 1)
        pts = rng.sample(S.points, size)
        E = PointSet.build(F, 2, pts)
        assert difference_family(pair_counts(E)).sum_m2 == energy_bruteforce(E, 2)
        equalities += 1
    print("PASS: difference families cover |E|^2 pairs with squared multiplicities "
          "at most the energy on 30 random sets, equality on 10 sphere subsets")


def test_08_second_moment_ratios():
    for (q, d, s), golden in sorted(GOLDEN_SECOND_MOMENT_RATIOS.items()):
        F = field_create(q, 1)
        rep = verify_secondmoment_bounds(Analysis(full_space(F, d)), s=s)
        assert rep["ratioGeneral"] <= 1.1
        assert rep["ratioSalem"] == pytest.approx(golden[0], abs=1e-9)
        assert rep["ratioGeneral"] == pytest.approx(golden[1], abs=1e-9)
    iso = isotropic_subspace(field_create(5, 1), 4, 2)
    rep = verify_secondmoment_bounds(Analysis(iso), s=0.25)
    assert rep["ratioSalem"] == pytest.approx(GOLDEN_ISOTROPIC_RATIOS[0], abs=1e-9)
    assert rep["ratioGeneral"] == pytest.approx(GOLDEN_ISOTROPIC_RATIOS[1], abs=1e-9)
    print("PASS: second-moment ratios <= 1.1 for full spaces at s=1/2 and all "
          "ratios locked to golden oracle values within 1e-9")


def test_09_energy_laws():
    rng = random.Random(99)
    instances = 0
    for trial in range(12):
        q = rng.choice([3, 5, 7])
        F = field_create(q, 1)
        da, db = rng.randrange(1, 3), rng.randrange(1, 3)
        A = random_pointset(F, da, rng.randrange(2, min(6, q ** da) + 1), seed=trial)
        B = random_pointset(F, db, rng.randrange(2, min(6, q ** db) + 1), seed=trial + 50)
        E = product_set(A, B)
        assert energy_convolution(E, 2) == (energy_convolution(A, 2)
                                            * energy_convolution(B, 2))
        instances += 1
    for q, m, d in [(7, 2, 2), (7, 3, 2), (7, 6, 2), (5, 2, 3), (5, 4, 2),
                    (13, 3, 2), (13, 4, 2), (11, 5, 2)]:
        F = field_create(q, 1)
        A = multiplicative_subgroup(F, m)
        E = subgroup_power(F, m, d)
        assert energy_convolution(E, 2) == energy_convolution(A, 2) ** d
        instances += 1
    assert instances == 20
    print("PASS: fourth-energy product multiplicativity and subgroup power law "
          "exact on 20 instances")


def test_10_threshold_algebra():
    for d in range(2, 65):
        ids = crossover_identities(d)
        assert all(ids.values()), (d, ids)
    from fractions import Fraction
    for d in range(8, 65):
        assert subgroup_threshold(d) < Fraction(1, 2)
    print("PASS: all three crossover identities exact for d in 2..64 and the "
          "subgroup threshold (9d+36)/(28d) < 1/2 for d in 8..64")


def test_11_two_set_witness():
    F = field_create(3, 1)
    d = 6
    E, G = two_set_sharpness(F, d)
    assert distance_profile(E, G).support == frozenset({1})
    s = 0.25 + 1 / (2 * d)
    expr = len(E) ** (2 * s) * len(G) ** 0.5 / 3 ** (d / 2)
    assert 0.5 <= expr <= 2
    print(f"PASS: two-set witness in F_3^6 realizes a single distance 1 with "
          f"size expression {expr:.4f} in [1/2, 2]")


def test_12_report_determinism(tmp_path):
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        config = json.loads(cfg_path.read_text())
        if "grid" in config:
            a = sweep(dict(config), tmp_path / (cfg_path.stem + "-j1"), jobs=1)
            b = sweep(dict(config), tmp_path / (cfg_path.stem + "-j8"), jobs=8)
            assert a.read_bytes() == b.read_bytes()
            c = sweep(dict(config), tmp_path / (cfg_path.stem + "-j1b"), jobs=1)
            assert a.read_bytes() == c.read_bytes()
        else:
            first = render_report(run(json.loads(cfg_path.read_text())))
            second = render_report(run(json.loads(cfg_path.read_text())))
            assert first.encode() == second.encode()
            assert json.loads(first)["allGatesPass"]
    print("PASS: every shipped config yields byte-identical reports across "
          "repeat runs and across --jobs 1 vs --jobs 8")
