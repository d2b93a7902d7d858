"""Exact rational evaluators for every threshold and s-range formula.

Everything here is pure arithmetic over fractions.Fraction; geometry
parameters (variety dimension, coset-content exponent, set-size exponent)
are user inputs. Conditional results are labeled, never asserted against
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def _check_s(s) -> Fraction:
    if type(s) is not Fraction:  # converting a Fraction again costs more than the check
        s = Fraction(s)
    if not s.denominator <= 4 * s.numerator <= 2 * s.denominator:  # 1/4 <= s <= 1/2
        raise ConfigError(f"s must be in [1/4, 1/2], got {s}")
    return s


def _check_d(d: int) -> int:
    """The formulas below that divide by d or d - 1 need d >= 2."""
    if d < 2:
        raise ConfigError("d must be >= 2")
    return d


def _over(n: int, s: Fraction, c: int, e: int = 0) -> Fraction:
    """n / (c*s + e) as one Fraction: with s = a/b it is n*b / (c*a + e*b)."""
    return Fraction(n * s.denominator, c * s.numerator + e * s.denominator)


def conjectured_alpha(d: int, s) -> Fraction:
    """The conjectured smallest size exponent forcing a full distance set."""
    s, d = _check_s(s), _check_d(d)
    if d == 2:
        return Fraction(1)
    if d % 2 == 0:
        if 4 * d * s.numerator <= (d + 2) * s.denominator:  # s <= (d+2)/(4d)
            return Fraction(d, 2)
        return _over(d + 2, s, 8)
    return _over(d + 1, s, 8)


def improved_threshold(d: int, s) -> tuple[Fraction, str]:
    """min{(d+2)/(4s+1), (d+4)/(8s)} plus which branch wins ('tie' at the crossover)."""
    s = _check_s(s)
    b1 = _over(d + 2, s, 4, 1)
    b2 = _over(d + 4, s, 8)
    if b1 == b2:
        return b1, "tie"
    return (b1, "incidence") if b1 < b2 else (b2, "energy")


def energy_threshold(d: int, s) -> Fraction:
    return _over(d, _check_s(s), 4)


def sphere_threshold(d: int, s) -> Fraction:
    return _over(d + 1, _check_s(s), 4, 1)


def conditional_sphere_exponents(d: int) -> dict:
    """Conditional thresholds for primitive-radius spheres. Never asserted."""
    return {
        "conditional": True,
        "unconditional_on_conjecture": Fraction(d, 2) - QUARTER,
        "with_energy_estimate": Fraction(d, 2) - HALF,
        "hypothesis": "conjectured threshold plus, for the second value, "
                      "the unproven sharper sphere energy bound",
    }


def gamma(n: int) -> Fraction:
    """gamma(n) = 1 / (2^{n+1} - n - 2)."""
    if n < 2:
        raise ConfigError("variety dimension must be >= 2")
    return Fraction(1, 2 ** (n + 1) - n - 2)


@dataclass(frozen=True)
class SizeWindow:
    case: str
    s_lo: Fraction
    s_hi: Fraction
    lo: Fraction   # exponent of q, lower end of the size window
    hi: Fraction   # exponent of q, upper end


def sphere_windows(d: int, s, numer: int | Fraction) -> list[SizeWindow]:
    """The size windows (cases i-iv) in which a set of Salem parameter s has
    many distances, for a family with L_4 <= |E|^3/q + q^{numer/2}|E|^2:
    numer = d-2 for even spheres, paraboloids and odd primitive-radius
    spheres, d-1 for odd spheres, and d-2-eps (0 < eps < d) for the
    epsilon-improved odd primitive-radius spheres. The upper bulk exponent
    is (numer + 2)/2 and the sup size is d-1."""
    s, d = _check_s(s), _check_d(d)
    if numer <= -2:
        raise ConfigError(f"numer must exceed -2 (eps < d), got {numer}")
    bulk = Fraction(numer + 2, 2)
    windows = []
    if s <= QUARTER + Fraction(1, 2 * (numer + 2)):
        if s == HALF:  # reached only when numer <= 0: the lower end divides by 0
            raise ConfigError(f"window (i) is undefined at s = 1/2 for d = {d}")
        windows.append(SizeWindow("i", QUARTER, QUARTER + Fraction(1, 2 * (numer + 2)),
                                  Fraction(numer) / (4 * (1 - 2 * s)), bulk))
    if s <= QUARTER + Fraction(1, 4 * (d - 1)):
        windows.append(SizeWindow("ii", QUARTER, QUARTER + Fraction(1, 4 * (d - 1)),
                                  bulk, Fraction(d - 1)))
    if QUARTER + Fraction(1, 4 * (d - 1)) <= s <= QUARTER + Fraction(1, 2 * (numer + 2)):
        windows.append(SizeWindow("iii", QUARTER + Fraction(1, 4 * (d - 1)),
                                  QUARTER + Fraction(1, 2 * (numer + 2)),
                                  bulk, Fraction(1) / (4 * s - 1)))
    windows.append(SizeWindow("iv", QUARTER, HALF, Fraction(d - 1), Fraction(d - 1)))
    return windows


# powers of a multiplicative subgroup A with |A| <= p^{3/5} are Salem sets for
# every s below this
SUBGROUP_S_MAX = Fraction(7, 18)


def variety_s_max(d: int, n: int, ell, alpha) -> tuple[Fraction, bool]:
    """(s_max, nontrivial) for a set of size q^alpha on an n-dimensional
    variety with coset-content exponent ell: it is a Salem set for every
    s <= s_max, and the bound is nontrivial when gamma(n)(1 - ell/alpha) >=
    2/(d+1)."""
    ell, alpha = Fraction(ell), Fraction(alpha)
    if not (alpha > ell >= 0):
        raise ConfigError("need alpha > ell >= 0")
    g = gamma(n)
    s_max = (1 + g) / 4 - g * ell / (4 * alpha)
    return s_max, g * (1 - ell / alpha) >= Fraction(2, d + 1)


def multigroup_threshold(d: int) -> Fraction:
    """Size exponent for sets with L_4 <= |E|^2 (s = 1/2 in the main bound)."""
    return Fraction(d, 4) + 1


def subgroup_threshold(d: int) -> Fraction:
    """(9d + 36)/(28d), the size exponent for powers of a multiplicative subgroup."""
    return Fraction(9 * d + 36, 28 * _check_d(d))


def variety_threshold(d: int, n: int, ell) -> Fraction:
    """Size exponent for sets on an n-dimensional variety with coset-content
    exponent ell."""
    g, ell = gamma(n), Fraction(ell)
    return min((d + 2 + g * ell) / (2 + g),
               (d + 4 + 2 * g * ell) / (2 + 2 * g))


def crossover_identities(d: int) -> dict[str, bool]:
    """The three exact crossover identities; each must be an equality."""
    half_d = Fraction(_check_d(d), 2)
    s1 = Fraction(d + 2, 4 * d)
    sphere_eq = sphere_threshold(d, s1) == half_d == _over(d + 2, s1, 8)
    s2 = Fraction(d + 4, 4 * d)  # 1/4 + 1/d
    tie = _over(d + 2, s2, 4, 1) == _over(d + 4, s2, 8)
    s3 = Fraction(d + 1, 4 * d)  # 1/4 + 1/(4d)
    odd_eq = _over(d - 1, s3, -8, 4) == _over(d + 1, s3, 8) == half_d  # (d-1)/(4(1-2s))
    return {"sphereBreakpoint": sphere_eq, "improvedBranchTie": tie,
            "oddPrimitiveCrossover": odd_eq}
