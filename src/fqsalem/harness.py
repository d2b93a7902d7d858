"""Experiment harness: configs, reports, sweeps, brute-force oracles.

Reports are deterministic byte-for-byte given a config: exact integers
serialize as decimal strings, floats are formatted to 12 significant
digits, keys are sorted, and sweep cells derive their seeds from
(masterSeed, cellIndex) so results are independent of worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from . import distance, energy, incidence, spectral
from .constructions import ConstructionSpec
from .errors import (BudgetExceeded, ConfigError, DEFAULT_BUDGET, check_budget,
                     config_value)
from .geometry import PointSet
from .ranges import (conjectured_alpha, family_thresholds, crossover_identities,
                     energy_threshold, sphere_threshold, improved_threshold)

EXIT_OK = 0
EXIT_GATE_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_BUDGET = 4
EXIT_INVARIANT = 5


def _fmt(value):
    """Canonical JSON-ready form: ints/Fractions as strings, floats to 12 sig digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_fmt(v) for v in items]
    return value


def render_report(report: dict) -> str:
    return json.dumps(_fmt(report), sort_keys=True, indent=2) + "\n"


class Analysis:
    """The exact quantities of one point set that a report reads.

    Each is computed on first use and kept for the lifetime of the object,
    which `run()` creates once per report, so a report computes Lambda_{2k},
    nu and E_hat once each however many sections read them.
    """

    def __init__(self, E: PointSet, budget: int | None = None):
        self.E = E
        self.budget = budget
        self._values: dict = {}

    def _once(self, key, compute):
        # not functools.cached_property: before Python 3.12 its lock is shared
        # by all instances, which would serialize the cells of a threaded sweep
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    def lam(self, k: int) -> int:
        """Lambda_{2k}(E)."""
        return self._once(("lam", k), lambda: energy.energy_convolution(self.E, k, self.budget))

    @property
    def profile(self) -> distance.DistanceProfile:
        return self._once("profile", lambda: distance.distance_profile(self.E, budget=self.budget))

    @property
    def spectrum(self) -> spectral.Spectrum:
        return self._once("spectrum", lambda: spectral.fourier(self.E, self.budget))

    @property
    def salem_s(self) -> float:
        return self._once("salem_s", lambda: energy.salem_parameter(self))

    @property
    def difference_set(self) -> PointSet:
        return self._once("difference_set", lambda: energy.difference_set(self.E, self.budget))

    @property
    def difference_family(self) -> incidence.DifferenceFamily:
        return self._once("difference_family", lambda: incidence.distance_energy_setup(
            self.E, self.lam(2), self.budget))


# --- report sections: name -> section(A, config) -> (results, gates) ------------

def _fourier_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    tol = config.get("tolerances", {})
    E, spec = A.E, A.spectrum
    # fsum is correctly rounded, so the bytes do not depend on summation order
    parseval = abs(math.fsum(np.abs(spec.values) ** 2) - len(E) / E.field.q ** E.d)
    resid = spectral.energy_identity_residual(A, 2)
    results = {
        "parsevalResidual": parseval,
        "energyIdentityResidual": resid,
        "lInfNorm": spectral.lp_norm(spec, float("inf")),
        "l4Norm": spectral.lp_norm(spec, 4),
    }
    return results, {"parseval": parseval <= tol.get("parseval", 1e-10),
                     "energyIdentity": resid <= tol.get("energyIdentity", 1e-9)}


def _energy_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    return energy.energy_report(A, config_value(config, "k", 2)).to_json_dict(), {}


def _salem_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    return {"s": A.salem_s}, {}


def _distance_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    prof = A.profile
    return {
        "support": sorted(prof.support),
        "secondMoment": distance.second_moment(prof),
        "csLowerBound": distance.cs_lower_bound(prof),
        "energyRoute": distance.verify_difference_bounds(A, A.salem_s),
        "secondMomentRatios": distance.verify_secondmoment_bounds(A, A.salem_s),
    }, {}


def _incidence_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    fam = A.difference_family
    return {"pairTotal": fam.total_pairs, "sumM2": fam.sum_m2, "lambda4": A.lam(2)}, {}


def ranges_row(d: int, s: Fraction) -> dict:
    """The threshold exponents at one (d, s)."""
    val, branch = improved_threshold(d, s)
    return {
        "d": d, "s": s,
        "conjecturedAlpha": conjectured_alpha(d, s),
        "improved": val, "improvedBranch": branch,
        "energyRoute": energy_threshold(d, s),
        "sphere": sphere_threshold(d, s),
    }


def _ranges_section(A: Analysis | None, config: dict) -> tuple[dict, dict]:
    ds = config.get("dims", [2, 3, 4, 5, 6])
    ss = [Fraction(str(x)) for x in config.get("sValues", ["1/4", "3/8", "1/2"])]
    return {
        "table": [ranges_row(d, s) for d in ds for s in ss],
        "crossoversExact": {str(d): all(crossover_identities(d).values())
                            for d in ds},
        "subgroupThreshold": {str(d): family_thresholds("subgroup", d)
                              for d in ds if d >= 2},
    }, {}


SECTIONS = {
    "fourier": _fourier_section,
    "energy": _energy_section,
    "salem": _salem_section,
    "distance": _distance_section,
    "incidence": _incidence_section,
    "ranges": _ranges_section,
}
KNOWN_ANALYSES = tuple(SECTIONS)


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    analyses = config.get("analyses", [])
    for a in analyses:
        if a not in KNOWN_ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}; known: {KNOWN_ANALYSES}")
    if "construction" in config:
        c = config["construction"]
        if "kind" not in c:
            raise ConfigError("construction needs a 'kind'")
    tol = config.get("tolerances", {})
    for name, t in tol.items():
        if not (isinstance(t, (int, float)) and t > 0):
            raise ConfigError(f"tolerance {name} must be positive")
    budget = config.get("budget", DEFAULT_BUDGET)
    if not (isinstance(budget, int) and budget > 0):
        raise ConfigError("budget must be a positive integer")
    return config


def build_set(config: dict) -> PointSet:
    """The config's construction; it takes the config's seed unless it sets its own."""
    if "construction" not in config:
        raise ConfigError("config needs a 'construction'")
    params = dict(config["construction"])
    kind = params.pop("kind", None)
    if "seed" not in params and "seed" in config:
        params["seed"] = config["seed"]
    return ConstructionSpec(kind, params).build()


def run(config: dict) -> dict:
    """Execute the requested analyses; returns the report dict."""
    validate_config(config)
    results: dict = {}
    gates: dict[str, bool] = {}
    A = None
    if "construction" in config:
        E = build_set(config)
        A = Analysis(E, config.get("budget", DEFAULT_BUDGET))
        results["set"] = {"size": len(E), "q": E.field.q, "d": E.d}
    for name in config.get("analyses", []):
        if A is None and name != "ranges":
            raise ConfigError(f"analysis {name!r} needs a construction")
        results[name], section_gates = SECTIONS[name](A, config)
        gates.update(section_gates)
    return {"config": config, "results": results, "gates": gates,
            "allGatesPass": all(gates.values())}


# --- sweep --------------------------------------------------------------------

def _child_seed(master: int, cell_index: int) -> int:
    from .constructions import _splitmix64
    return _splitmix64((master << 32) ^ cell_index)


def sweep(config: dict, out_dir, jobs: int = 1) -> Path:
    """Cartesian product over the grid; one CSV row per cell; resumable."""
    validate_config({k: v for k, v in config.items() if k != "grid"})
    grid = config.get("grid")
    if not grid:
        raise ConfigError("sweep needs a 'grid' mapping")
    keys = sorted(grid)
    cells = list(product(*(grid[k] for k in keys)))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = out_dir / "sweep.ledger"
    csv_path = out_dir / "sweep.csv"
    done: dict[int, str] = {}
    if ledger_path.exists():
        for line in ledger_path.read_text().splitlines(keepends=True):
            idx, _, row = line.partition("\t")
            if row.endswith("\n"):  # a line cut short by a crash is redone
                done[int(idx)] = row

    master = int(config.get("seed", 0))

    def run_cell(i: int) -> str:
        if i in done:
            return done[i]
        cell = dict(zip(keys, cells[i]))
        sub = dict(config)
        sub.pop("grid", None)
        sub["seed"] = _child_seed(master, i)
        construction = dict(sub.get("construction", {}))
        for k, v in cell.items():
            construction[k] = v
        sub["construction"] = construction
        try:
            return _csv_row(i, "ok", _cell_detail(cell, run(sub)))
        except BudgetExceeded as exc:
            return _csv_row(i, "error", f"budget:{exc}")
        except ConfigError as exc:
            return _csv_row(i, "error", f"config:{exc}")

    # each finished row is appended and flushed in cell order, so an
    # interrupted or failed sweep resumes from every row before the failure;
    # on a failure the cells not yet started are dropped, not run
    rows = []
    with open(ledger_path, "w") as ledger, ThreadPoolExecutor(max_workers=max(jobs, 1)) as ex:
        ledger.write("".join(f"{i}\t{row}" for i, row in sorted(done.items())))
        try:
            for i, row in enumerate(ex.map(run_cell, range(len(cells)))):
                if i not in done:
                    ledger.write(f"{i}\t{row}")
                    ledger.flush()
                rows.append(row)
        finally:
            ex.shutdown(cancel_futures=True)
    csv_path.write_text(_csv_row("cell", "status", "detail") + "".join(rows))
    return csv_path


def _csv_row(*fields) -> str:
    """One CSV line, quoted where a field holds a comma, quote or newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _cell_detail(cell: dict, rep: dict) -> str:
    size = rep["results"].get("set", {}).get("size", "")
    s = rep["results"].get("salem", {}).get("s", "")
    detail = ";".join(f"{k}={v}" for k, v in sorted(cell.items()))
    extra = f"size={size}"
    if s != "":
        extra += f";salemS={format(s, '.12g')}"
    return f"{detail};{extra}"


# --- oracles --------------------------------------------------------------------

def oracle_lambda4(E: PointSet, budget: int | None = None) -> int:
    return energy.energy_bruteforce(E, 2, budget)


def oracle_distances(E: PointSet, budget: int | None = None) -> dict[int, int]:
    """Plain double loop over the scalar field methods, kept separate from
    distance.distance_profile."""
    check_budget(len(E) ** 2, budget, "distance oracle")
    F = E.field
    counts: dict[int, int] = {}
    for x in E.points:
        for y in E.points:
            t = 0
            for a, b in zip(x, y):
                c = F.sub(a, b)
                t = F.add(t, F.mul(c, c))
            counts[t] = counts.get(t, 0) + 1
    return dict(sorted(counts.items()))


def oracle_incidences(P: PointSet, H, budget: int | None = None) -> int:
    """Plain double loop, kept separate from incidence.count_incidences."""
    check_budget(len(P) * max(len(H.entries), 1), budget, "incidence oracle")
    F = P.field
    total = 0
    for a, b, m in H.entries:
        for x in P.points:
            acc = 0
            for u, v in zip(a, x):
                acc = F.add(acc, F.mul(u, v))
            if acc == b:
                total += m
    return total
