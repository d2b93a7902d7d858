"""Exact rational evaluators for every threshold and s-range formula.

Everything here is pure arithmetic over fractions.Fraction; geometry
parameters (variety dimension, coset-content exponent, set-size exponent)
are user inputs. Conditional results are labeled, never asserted against
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ConfigError

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def _check_s(s: Fraction) -> Fraction:
    s = Fraction(s)
    if not QUARTER <= s <= HALF:
        raise ConfigError(f"s must be in [1/4, 1/2], got {s}")
    return s


def conjectured_alpha(d: int, s) -> Fraction:
    """The conjectured smallest size exponent forcing a full distance set."""
    s = _check_s(s)
    if d < 2:
        raise ConfigError("d must be >= 2")
    if d == 2:
        return Fraction(1)
    if d % 2 == 0:
        if s <= Fraction(d + 2, 4 * d):
            return Fraction(d, 2)
        return Fraction(d + 2) / (8 * s)
    return Fraction(d + 1) / (8 * s)


def improved_threshold(d: int, s) -> tuple[Fraction, str]:
    """min{(d+2)/(4s+1), (d+4)/(8s)} plus which branch wins ('tie' at the crossover)."""
    s = _check_s(s)
    b1 = Fraction(d + 2) / (4 * s + 1)
    b2 = Fraction(d + 4) / (8 * s)
    if b1 == b2:
        return b1, "tie"
    return (b1, "incidence") if b1 < b2 else (b2, "energy")


def energy_threshold(d: int, s) -> Fraction:
    return Fraction(d) / (4 * _check_s(s))


def sphere_threshold(d: int, s) -> Fraction:
    return Fraction(d + 1) / (4 * _check_s(s) + 1)


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


@dataclass(frozen=True)
class SRange:
    geometry: str
    s: Fraction
    windows: tuple[SizeWindow, ...]
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ThresholdQuery:
    d: int
    s: Fraction
    geometry: str = "sphereEven"  # sphereEven | sphereOddPrimitive | sphereOdd | paraboloid | varietyParams | subgroup
    epsilon: Optional[Fraction] = None
    n: Optional[int] = None       # variety dimension
    ell: Optional[Fraction] = None  # coset-content exponent
    alpha: Optional[Fraction] = None  # set-size exponent


def _even_style_windows(d: int, s: Fraction, numer: int | Fraction) -> list[SizeWindow]:
    """Case lists shared by the even-sphere/paraboloid family (numer = d-2),
    the odd-sphere family (numer = d-1) and the epsilon-improved odd family
    (numer = d-2-eps); upper bulk exponent is (numer + 2)/2 and the sup size
    is d-1."""
    if d < 2:
        raise ConfigError("d must be >= 2")
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


def salem_s_ranges(query: ThresholdQuery) -> SRange:
    d, s = query.d, _check_s(query.s)
    geo = query.geometry
    if geo in ("sphereEven", "paraboloid", "sphereOddPrimitive"):
        # all three carry the L_4 <= |E|^3/q + q^{(d-2)/2}|E|^2 energy bound
        return SRange(geo, s, tuple(_even_style_windows(d, s, d - 2)))
    if geo == "sphereOdd":
        return SRange(geo, s, tuple(_even_style_windows(d, s, d - 1)))
    if geo == "sphereOddPrimitiveEps":
        eps = query.epsilon
        if eps is None or not 0 < eps < d:
            raise ConfigError("0 < epsilon < d is required for the epsilon-improved ranges")
        return SRange(geo, s, tuple(_even_style_windows(d, s, d - 2 - eps)), {"epsilon": eps})
    if geo == "subgroup":
        # powers of a multiplicative subgroup with |A| <= p^{3/5}
        ok = s < Fraction(7, 18)
        return SRange(geo, s, tuple(), {"sMax": Fraction(7, 18), "valid": ok,
                                        "sizeCondition": "base subgroup at most p^(3/5)"})
    if geo == "varietyParams":
        n, ell, alpha = query.n, query.ell, query.alpha
        if n is None or ell is None or alpha is None:
            raise ConfigError("variety queries need n, ell, alpha")
        ell, alpha = Fraction(ell), Fraction(alpha)
        if not (alpha > ell >= 0):
            raise ConfigError("need alpha > ell >= 0")
        g = gamma(n)
        s_max = (1 + g) / 4 - g * ell / (4 * alpha)
        nontrivial = g * (1 - ell / alpha) >= Fraction(2, d + 1)
        return SRange(geo, s, tuple(), {
            "sMax": s_max, "valid": s <= s_max, "gamma": g,
            "nontrivial": nontrivial,
        })
    raise ConfigError(f"unknown geometry tag {geo!r}")


def family_thresholds(kind: str, d: int, n: int | None = None,
                         ell=None) -> Fraction:
    """Size-exponent thresholds for specific structured set families."""
    if kind == "multigroup":
        # sets with L_4 <= |E|^2 (s = 1/2 in the main bound)
        return Fraction(d, 4) + 1
    if kind == "subgroup":
        return Fraction(9 * d + 36, 28 * d)
    if kind == "variety":
        if n is None or ell is None:
            raise ConfigError("variety family needs n and ell")
        g = gamma(n)
        ell = Fraction(ell)
        return min((d + 2 + g * ell) / (2 + g),
                   (d + 4 + 2 * g * ell) / (2 + 2 * g))
    raise ConfigError(f"unknown family kind {kind!r}")


def crossover_identities(d: int) -> dict[str, bool]:
    """The three exact crossover identities; each must be an equality."""
    s1 = Fraction(d + 2, 4 * d)
    sphere_eq = sphere_threshold(d, s1) == Fraction(d, 2) == Fraction(d + 2) / (8 * s1)
    s2 = QUARTER + Fraction(1, d)
    tie = Fraction(d + 2) / (4 * s2 + 1) == Fraction(d + 4) / (8 * s2)
    s3 = QUARTER + Fraction(1, 4 * d)
    odd_eq = (Fraction(d - 1) / (4 * (1 - 2 * s3))
              == Fraction(d + 1) / (8 * s3) == Fraction(d, 2))
    return {"sphereBreakpoint": sphere_eq, "improvedBranchTie": tie,
            "oddPrimitiveCrossover": odd_eq}
