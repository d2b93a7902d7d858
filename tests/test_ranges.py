"""Exact rational threshold evaluators and crossover identities."""

from fractions import Fraction

import pytest

from fqsalem.errors import ConfigError
from fqsalem.ranges import (ThresholdQuery, conjectured_alpha, family_thresholds,
                             crossover_identities, energy_threshold, gamma,
                             conditional_sphere_exponents, salem_s_ranges, sphere_threshold,
                             improved_threshold)

F = Fraction


def test_conjectured_alpha_cases():
    assert conjectured_alpha(2, F(3, 10)) == 1
    assert conjectured_alpha(4, F(1, 4)) == 2  # d/2 branch, s <= (d+2)/(4d)
    assert conjectured_alpha(4, F(1, 2)) == F(6, 4)  # (d+2)/(8s) branch
    assert conjectured_alpha(3, F(1, 2)) == 1  # odd: (d+1)/(8s)
    with pytest.raises(ConfigError):
        conjectured_alpha(4, F(3, 5))
    with pytest.raises(ConfigError):
        conjectured_alpha(1, F(1, 4))


def test_conjectured_alpha_continuous_at_breakpoint():
    for d in range(4, 33, 2):
        s = F(d + 2, 4 * d)
        assert F(d, 2) == F(d + 2) / (8 * s)
        assert conjectured_alpha(d, s) == F(d, 2)


def test_improved_threshold():
    val, branch = improved_threshold(2, F(1, 2))
    assert val == F(4, 3) and branch == "incidence"
    val, branch = improved_threshold(4, F(1, 2))
    assert val == 2 and branch == "tie"
    for d in range(2, 20):
        s = F(1, 4) + F(1, d)
        if s <= F(1, 2):
            assert improved_threshold(d, s)[1] == "tie"


def test_energy_and_sphere_thresholds():
    assert energy_threshold(2, F(1, 2)) == 1
    assert energy_threshold(4, F(1, 4)) == 4
    assert sphere_threshold(3, F(1, 2)) == F(4, 3)
    for d in range(2, 17):
        s = F(d + 2, 4 * d)
        if F(1, 4) <= s <= F(1, 2):
            assert sphere_threshold(d, s) == F(d, 2)
    # monotone decreasing in s
    vals = [sphere_threshold(5, F(1, 4) + F(k, 40)) for k in range(0, 11)]
    assert vals == sorted(vals, reverse=True)


def test_improved_below_energy_threshold():
    for d in range(4, 12):
        for num in range(10, 21):
            s = F(num, 40)  # dense grid in [1/4, 1/2]
            assert improved_threshold(d, s)[0] <= energy_threshold(d, s)


def test_crossover_identities_all_d():
    for d in range(2, 65):
        assert all(crossover_identities(d).values())


def test_subgroup_threshold_below_half():
    for d in range(8, 65):
        assert family_thresholds("subgroup", d) < F(1, 2)
    assert family_thresholds("subgroup", 8) == F(108, 224)
    assert family_thresholds("subgroup", 7) >= F(1, 2)


def test_multigroup_and_variety_thresholds():
    assert family_thresholds("multigroup", 4) == 2
    v = family_thresholds("variety", 5, n=2, ell=0)
    assert v == min(F(7) / F(9, 4), F(9) / F(5, 2))
    with pytest.raises(ConfigError):
        family_thresholds("variety", 5)
    with pytest.raises(ConfigError):
        family_thresholds("nope", 5)


def test_gamma():
    assert gamma(2) == F(1, 4)
    assert gamma(3) == F(1, 11)
    with pytest.raises(ConfigError):
        gamma(1)


def test_conditional_sphere_exponents_labeled():
    rep = conditional_sphere_exponents(5)
    assert rep["conditional"] is True
    assert rep["unconditional_on_conjecture"] == F(5, 2) - F(1, 4)
    assert rep["with_energy_estimate"] == F(5, 2) - F(1, 2)


def test_sphere_even_windows():
    d = 6
    r = salem_s_ranges(ThresholdQuery(d=d, s=F(1, 4), geometry="sphereEven"))
    cases = {w.case: w for w in r.windows}
    assert cases["i"].s_hi == F(1, 4) + F(1, 2 * d)
    assert cases["i"].lo == F(d - 2) / F(4 * (1 - 2 * F(1, 4)))
    assert cases["ii"].s_hi == F(1, 4) + F(1, 4 * (d - 1))
    assert cases["iv"].lo == cases["iv"].hi == d - 1
    # paraboloid shares the same table
    r2 = salem_s_ranges(ThresholdQuery(d=d, s=F(1, 4), geometry="paraboloid"))
    assert r2.windows == r.windows


def test_sphere_odd_windows_crossover():
    d = 5
    s = F(1, 4) + F(1, 4 * d)
    r = salem_s_ranges(ThresholdQuery(d=d, s=s, geometry="sphereOdd"))
    cases = {w.case: w for w in r.windows}
    assert cases["i"].lo == F(d - 1) / (4 * (1 - 2 * s)) == F(d, 2)
    assert F(d + 1) / (8 * s) == F(d, 2)


def test_epsilon_ranges_require_positive_epsilon():
    q = ThresholdQuery(d=5, s=F(1, 4), geometry="sphereOddPrimitiveEps")
    with pytest.raises(ConfigError):
        salem_s_ranges(q)
    r = salem_s_ranges(ThresholdQuery(d=5, s=F(1, 4), geometry="sphereOddPrimitiveEps",
                                      epsilon=F(1, 10)))
    assert r.notes["epsilon"] == F(1, 10)
    assert r.windows


def test_epsilon_windows_pinned():
    # minted before the epsilon branch shared _even_style_windows
    r = salem_s_ranges(ThresholdQuery(d=5, s=F(1, 4), geometry="sphereOddPrimitiveEps",
                                      epsilon=F(1, 10)))
    assert [(w.case, w.s_lo, w.s_hi, w.lo, w.hi) for w in r.windows] == [
        ("i", F(1, 4), F(69, 196), F(29, 20), F(49, 20)),
        ("ii", F(1, 4), F(5, 16), F(49, 20), F(4)),
        ("iv", F(1, 4), F(1, 2), F(4), F(4))]


@pytest.mark.parametrize("query", [
    ThresholdQuery(d=2, s=F(1, 2), geometry="sphereEven"),
    ThresholdQuery(d=2, s=F(1, 2), geometry="paraboloid"),
    ThresholdQuery(d=2, s=F(1, 2), geometry="sphereOddPrimitive"),
    ThresholdQuery(d=3, s=F(1, 2), geometry="sphereOddPrimitiveEps", epsilon=F(1)),
    ThresholdQuery(d=3, s=F(1, 4), geometry="sphereOddPrimitiveEps", epsilon=F(3)),
    ThresholdQuery(d=1, s=F(1, 4), geometry="sphereOdd")])
def test_undefined_windows_are_config_errors(query):
    # each of these divided by zero before
    with pytest.raises(ConfigError):
        salem_s_ranges(query)


def test_subgroup_range():
    r = salem_s_ranges(ThresholdQuery(d=4, s=F(1, 3), geometry="subgroup"))
    assert r.notes["valid"] and r.notes["sMax"] == F(7, 18)
    r2 = salem_s_ranges(ThresholdQuery(d=4, s=F(2, 5), geometry="subgroup"))
    assert not r2.notes["valid"]


def test_variety_range():
    r = salem_s_ranges(ThresholdQuery(d=9, s=F(5, 16), geometry="varietyParams",
                                      n=2, ell=F(0), alpha=F(1)))
    assert r.notes["sMax"] == F(5, 16)
    assert r.notes["valid"]
    assert r.notes["nontrivial"] == (F(1, 4) >= F(2, 10))
    with pytest.raises(ConfigError):
        salem_s_ranges(ThresholdQuery(d=9, s=F(5, 16), geometry="varietyParams",
                                      n=2, ell=F(2), alpha=F(1)))


def test_unknown_geometry():
    with pytest.raises(ConfigError):
        salem_s_ranges(ThresholdQuery(d=4, s=F(1, 4), geometry="torus"))
