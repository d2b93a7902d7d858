"""Exact rational threshold evaluators and crossover identities."""

from fractions import Fraction

import pytest

from fqsalem.errors import ConfigError
from fqsalem.ranges import (SUBGROUP_S_MAX, conditional_sphere_exponents,
                             conjectured_alpha, crossover_identities, energy_threshold,
                             gamma, improved_threshold, multigroup_threshold,
                             sphere_threshold, sphere_windows, subgroup_threshold,
                             variety_s_max, variety_threshold)

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


def test_formulas_match_their_fraction_expressions():
    # the formulas build each value from s = a/b in one Fraction; here they are
    # checked against the expressions as written, on a grid of d and s
    for d in range(2, 25):
        for num in range(30, 61):
            s = F(num, 120)
            b1, b2 = F(d + 2) / (4 * s + 1), F(d + 4) / (8 * s)
            improved = (b1, "tie") if b1 == b2 else min((b1, "incidence"), (b2, "energy"))
            assert improved_threshold(d, s) == improved
            assert energy_threshold(d, s) == F(d) / (4 * s)
            assert sphere_threshold(d, s) == F(d + 1) / (4 * s + 1)
            if d == 2:
                alpha = F(1)
            elif d % 2:
                alpha = F(d + 1) / (8 * s)
            else:
                alpha = F(d, 2) if s <= F(d + 2, 4 * d) else F(d + 2) / (8 * s)
            assert conjectured_alpha(d, s) == alpha
            assert conjectured_alpha(d, str(s)) == alpha  # s as a string, as in configs


@pytest.mark.parametrize("s", [F(1, 4) - F(1, 10**9), F(1, 2) + F(1, 10**9), "3/5", 0.2])
def test_s_outside_the_range_is_refused(s):
    for formula in (conjectured_alpha, improved_threshold, energy_threshold, sphere_threshold):
        with pytest.raises(ConfigError, match=r"s must be in \[1/4, 1/2\]"):
            formula(4, s)


def test_crossover_identities_all_d():
    for d in range(2, 65):
        assert all(crossover_identities(d).values())


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_formulas_dividing_by_d_need_d_at_least_2(d):
    # crossover_identities and subgroup_threshold divided by zero at d = 0
    for formula in (crossover_identities, subgroup_threshold,
                    lambda d: conjectured_alpha(d, F(1, 4)),
                    lambda d: sphere_windows(d, F(1, 4), d - 2)):
        with pytest.raises(ConfigError):
            formula(d)


def test_subgroup_threshold_below_half():
    for d in range(8, 65):
        assert subgroup_threshold(d) < F(1, 2)
    assert subgroup_threshold(8) == F(108, 224)
    assert subgroup_threshold(7) >= F(1, 2)


def test_multigroup_and_variety_thresholds():
    assert multigroup_threshold(4) == 2
    v = variety_threshold(5, n=2, ell=0)
    assert v == min(F(7) / F(9, 4), F(9) / F(5, 2))
    with pytest.raises(ConfigError):
        variety_threshold(5, n=1, ell=0)


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


def _windows(d, s, numer):
    return {w.case: w for w in sphere_windows(d, s, numer)}


def test_sphere_even_windows():
    # even spheres, paraboloids and odd primitive-radius spheres: numer = d - 2
    d = 6
    cases = _windows(d, F(1, 4), d - 2)
    assert cases["i"].s_hi == F(1, 4) + F(1, 2 * d)
    assert cases["i"].lo == F(d - 2) / F(4 * (1 - 2 * F(1, 4)))
    assert cases["ii"].s_hi == F(1, 4) + F(1, 4 * (d - 1))
    assert cases["iv"].lo == cases["iv"].hi == d - 1


def test_sphere_odd_windows_crossover():
    # odd spheres: numer = d - 1
    d = 5
    s = F(1, 4) + F(1, 4 * d)
    cases = _windows(d, s, d - 1)
    assert cases["i"].lo == F(d - 1) / (4 * (1 - 2 * s)) == F(d, 2)
    assert F(d + 1) / (8 * s) == F(d, 2)


def test_epsilon_windows_pinned():
    # the epsilon family, numer = d - 2 - eps; minted before it shared the
    # window code of the other families
    windows = sphere_windows(5, F(1, 4), 5 - 2 - F(1, 10))
    assert [(w.case, w.s_lo, w.s_hi, w.lo, w.hi) for w in windows] == [
        ("i", F(1, 4), F(69, 196), F(29, 20), F(49, 20)),
        ("ii", F(1, 4), F(5, 16), F(49, 20), F(4)),
        ("iv", F(1, 4), F(1, 2), F(4), F(4))]


@pytest.mark.parametrize("query", [
    (2, F(1, 2), 0),             # numer = d - 2 at d = 2, s = 1/2
    (3, F(1, 2), F(-1, 2)),      # eps = 3/2 at s = 1/2
    (4, F(1, 4), -3),            # eps = 5 > d
    (3, F(1, 2), 3 - 2 - 1),     # eps = 1 at s = 1/2
    (3, F(1, 4), 3 - 2 - 3),     # eps = d
    (1, F(1, 4), 1 - 1)])        # numer = d - 1 at d = 1
def test_undefined_windows_are_config_errors(query):
    # each of these divided by zero before
    with pytest.raises(ConfigError):
        sphere_windows(*query)


def test_subgroup_range():
    # powers of a subgroup of size at most p^(3/5) are Salem for s < 7/18
    assert SUBGROUP_S_MAX == F(7, 18)
    assert F(1, 3) < SUBGROUP_S_MAX
    assert not F(2, 5) < SUBGROUP_S_MAX


def test_variety_range():
    s_max, nontrivial = variety_s_max(9, n=2, ell=F(0), alpha=F(1))
    assert s_max == F(5, 16)
    assert nontrivial == (F(1, 4) >= F(2, 10))
    with pytest.raises(ConfigError):
        variety_s_max(9, n=2, ell=F(2), alpha=F(1))
