"""How a report is computed: the cached `Analysis` of one set, the section
registry `SECTIONS`, `report` and `render_report`.

A report reads a few quantities of one set E (Lambda_{2k}, nu, the sums of
|E_hat|^2, the Salem parameter s, E - E and the difference family) from one
`Analysis`, which computes each on first use. Every formula that reads an
`Analysis` lives here: the energy identity's residual, s, and the bound checks
of the distance section. The kernel modules take point sets or pair counts, never
an `Analysis`; every sum over the half spectrum is `spectral.power_sums`'s.

Reports are deterministic byte-for-byte given a config, on any BLAS thread
count. `render_report` writes their canonical JSON in one walk: ints and
Fractions as decimal strings, floats as strings to 12 significant digits,
strs escaped to ASCII as `json` escapes them, dict keys and sets sorted,
two-space indents and a final newline. Any other type, a numpy scalar say,
raises TypeError as in `json`, against which the tests check the bytes.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction

import numpy as np

from . import distance, energy, spectral
from .errors import ConfigError, DEFAULT_BUDGET, as_int, budget_scope, config_value
from .geometry import PointSet
from .ranges import (conjectured_alpha, crossover_identities, energy_threshold,
                     improved_threshold, sphere_threshold, subgroup_threshold)


_quote = json.encoder.encode_basestring_ascii  # the C function json itself uses
#: bumped whenever the goldens are re-minted; `sweep.stamp` hashes it
REPORT_FORMAT = 1


def _emit(value, put, pad: str) -> None:
    """put() the pieces of value's canonical JSON; pad is the newline and indent
    before value. Module-level, not a closure over itself: that would leave each
    render's pieces in a reference cycle until the cyclic GC ran."""
    if value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, str):
        put(_quote(value))
    elif isinstance(value, (int, Fraction)):
        put('"' + str(value) + '"')
    elif isinstance(value, float):
        put(f'"{value:.12g}"')
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for key in sorted(value):  # _quote raises TypeError on a key that is not a str
            put(f"{sep}{inner}{_quote(key)}: ")
            _emit(value[key], put, inner)
            sep = ","
        put(pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple, set, frozenset)):
        inner, sep = pad + "  ", "["
        for item in sorted(value) if isinstance(value, (set, frozenset)) else value:
            put(sep + inner)
            _emit(item, put, inner)
            sep = ","
        put(pad + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report(report: dict) -> str:
    """The report's canonical JSON (see the module docstring)."""
    pieces: list[str] = []
    _emit(report, pieces.append, "\n")
    pieces.append("\n")
    return "".join(pieces)


class Analysis:
    """The quantities of one point set that a report reads.

    Each is computed on first use and kept for the lifetime of the object,
    which `report()` creates once per report, so a report computes Lambda_{2k},
    nu and the sums of |E_hat|^2 once each however many sections read them.
    Lambda_4, nu, E - E and the difference family are all read from one pass
    over the pairs of E (`pairs`, whose nu and sum_m2 are themselves computed
    on first read). A value is charged to the budget scope of its first read.
    """

    def __init__(self, E: PointSet):
        self.E = E
        self._values: dict = {}

    def _once(self, key, compute):
        # one dict for every value, the keyed ones such as ("lam", k) included
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    @property
    def pairs(self) -> energy.PairCounts:
        return self._once("pairs", lambda: energy.pair_counts(self.E))

    def lam(self, k: int) -> int:
        """Lambda_{2k}(E)."""
        if k == 2:
            return self.pairs.lam4
        return self._once(("lam", k), lambda: energy.energy_convolution(self.E, k))

    @property
    def spectrum(self) -> spectral.PowerSums:
        """spectral.spectrum: the PowerSums of |E_hat|^2, from its factors'
        records for a product on a large grid, or from the transform of E's
        affine F_p-span when that is smaller than F_q^d; no half is kept."""
        return self._once("spectrum", lambda: spectral.spectrum(self.E))

    @property
    def salem_s(self) -> float:
        """Largest s in [1/4, 1/2] with L_4(E) <= |E|^4/q^d + |E|^{4-4s}.

        |E| = 1 gives 1/2 by convention (the exponent is vacuous) with a warning.
        """
        def compute():
            n = len(self.E)
            if n == 0:
                raise ConfigError("the Salem parameter needs a nonempty set")
            if n == 1:
                warnings.warn("singleton set: Salem parameter defaults to 1/2")
                return 0.5
            residual = max(self.lam(2) - n ** 4 / self.E.field.q ** self.E.d, 1.0)
            s = 0.25 * (4.0 - math.log(residual) / math.log(n))
            return min(0.5, max(0.25, s))
        return self._once("salem_s", compute)


# --- bound checks (ratios, never pass/fail against hidden constants) -----------

def verify_secondmoment_bounds(A: Analysis, s: float) -> dict:
    """Ratios of sum nu^2 against the two incidence-derived upper bounds:

    RHS1 = |E|^4/q + |E|^3 + q^{d/4} |E|^{3-s} L_4^{1/4}   (Salem route)
    RHS2 = |E|^4/q + q^{d/2} |E|^{3/2} L_4^{1/2}           (arbitrary-set route)
    """
    E, lam4 = A.E, A.lam(2)
    q, d, n = E.field.q, E.d, len(E)
    sm = distance.second_moment(A.pairs.nu)
    rhs1 = n ** 4 / q + n ** 3 + q ** (d / 4) * n ** (3 - s) * lam4 ** 0.25
    rhs2 = n ** 4 / q + q ** (d / 2) * n ** 1.5 * lam4 ** 0.5
    return {
        "sizeE": n, "q": q, "d": d, "s": s, "lambda4": str(lam4),
        "secondMoment": str(sm),
        "rhsSalem": rhs1, "rhsGeneral": rhs2,
        "ratioSalem": sm / rhs1, "ratioGeneral": sm / rhs2,
    }


def verify_difference_bounds(A: Analysis, s: float) -> dict:
    """|Delta(E)| and |E - E| against min{q, q^{1-d}|E|^{4s}} and min{q^d, |E|^{4s}}."""
    E = A.E
    q, d, n = E.field.q, E.d, len(E)
    size_delta, size_diff = int(np.count_nonzero(A.pairs.nu)), len(A.pairs.differences)
    bound_delta = min(q, q ** (1 - d) * n ** (4 * s))
    bound_diff = min(q ** d, n ** (4 * s))
    return {
        "sizeE": n, "q": q, "d": d, "s": s,
        "sizeDelta": size_delta, "sizeDiff": size_diff,
        "boundDelta": bound_delta, "boundDiff": bound_diff,
        "ratioDelta": size_delta / bound_delta,
        "ratioDiff": size_diff / bound_diff,
    }


# --- report sections: name -> section(A, config) -> (results, gates) ------------

#: the fourier section's gates and their default tolerances
TOLERANCES = {"parseval": 1e-10, "energyIdentity": 1e-9}


def _fourier_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    tol = {**TOLERANCES, **config.get("tolerances", {})}
    S, n, q_d = A.spectrum, len(A.E), A.E.field.q ** A.E.d
    # Parseval: the sum of |E_hat(m)|^2 over every m is q^{-d} |E|
    parseval = abs(S.sum2 + S.zero - n / q_d)
    # the energy identity ||E_hat||_4^4 = q^{-4d} L_4 - q^{-5d} |E|^4, its right
    # side one correctly rounded quotient of exact integers: the difference of
    # the two terms as floats cancels on a dense set
    moment = S.sum4 / q_d
    rhs = (A.lam(2) * q_d - n ** 4) / q_d ** 5
    resid = abs(moment - rhs) / max(abs(rhs), q_d ** -5)
    results = {
        "parsevalResidual": parseval,
        "energyIdentityResidual": resid,
        "lInfNorm": math.sqrt(S.sup),
        "l4Norm": moment ** 0.25,
    }
    return results, {"parseval": parseval <= tol["parseval"],
                     "energyIdentity": resid <= tol["energyIdentity"]}


def _energy_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    """Lambda_{2k}(E) as a decimal string, and for k = 2 the Salem parameter s
    at the constant C = 1 (None for other k or an empty set)."""
    k, E = config_value(config, "k", 2), A.E
    n = len(E)
    s = A.salem_s if k == 2 and n >= 1 else None
    return {"k": k, "lambda": str(A.lam(k)), "size": n, "q": E.field.q, "d": E.d,
            "salemS": s, "C": 1.0}, {}


def _salem_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    return {"s": A.salem_s}, {}


def _distance_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    nu = A.pairs.nu
    return {
        "support": np.flatnonzero(nu).tolist(),
        "secondMoment": distance.second_moment(nu),
        "csLowerBound": distance.cs_lower_bound(nu),
        "energyRoute": verify_difference_bounds(A, A.salem_s),
        "secondMomentRatios": verify_secondmoment_bounds(A, A.salem_s),
    }, {}


def _incidence_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    pairs = A.pairs
    return {"pairTotal": int(pairs.counts.sum()), "sumM2": pairs.sum_m2, "lambda4": A.lam(2)}, {}


def _ranges_section(A: Analysis | None, config: dict) -> tuple[dict, dict]:
    ds = config_value(config, "dims", [2, 3, 4, 5, 6], lambda v: list(map(as_int, v)))
    ss = config_value(config, "sValues", ["1/4", "3/8", "1/2"],
                      lambda v: [Fraction(str(x)) for x in v])
    table = []
    for d in ds:
        for s in ss:
            val, branch = improved_threshold(d, s)
            table.append({"d": d, "s": s, "conjecturedAlpha": conjectured_alpha(d, s),
                          "improved": val, "improvedBranch": branch,
                          "energyRoute": energy_threshold(d, s),
                          "sphere": sphere_threshold(d, s)})
    return {
        "table": table,
        "crossoversExact": {str(d): all(crossover_identities(d).values())
                            for d in ds},
        "subgroupThreshold": {str(d): subgroup_threshold(d) for d in ds},
    }, {}


SECTIONS = {
    "fourier": _fourier_section,
    "energy": _energy_section,
    "salem": _salem_section,
    "distance": _distance_section,
    "incidence": _incidence_section,
    "ranges": _ranges_section,
}
#: the config keys each section reads; a config holding one must request a
#: section that reads it
SECTION_KEYS = {"fourier": ("tolerances",), "energy": ("k",), "ranges": ("dims", "sValues")}
#: the config keys that `report` and the sections read
CONFIG_KEYS = frozenset({"analyses", "budget"}).union(*SECTION_KEYS.values())


def report(config: dict, E: PointSet | None) -> dict:
    """A validated config's report on its set E (None without a construction), under its budget."""
    results: dict = {}
    gates: dict[str, bool] = {}
    A = None
    if E is not None:
        A = Analysis(E)
        results["set"] = {"size": len(E), "q": E.field.q, "d": E.d}
    with budget_scope(config.get("budget", DEFAULT_BUDGET)):
        for name in config.get("analyses", []):
            if A is None and name != "ranges":
                raise ConfigError(f"analysis {name!r} needs a construction")
            results[name], section_gates = SECTIONS[name](A, config)
            gates.update(section_gates)
    return {"config": config, "results": results, "gates": gates,
            "allGatesPass": all(gates.values())}
