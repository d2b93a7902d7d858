"""Experiment harness: configs, reports, sweeps, brute-force oracles.

Reports are deterministic byte-for-byte given a config: exact integers
serialize as decimal strings, floats are formatted to 12 significant
digits, keys are sorted, and sweep cells derive their seeds from
(masterSeed, cellIndex) so results are independent of worker count.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from . import distance, energy, incidence, spectral
from .constructions import ConstructionSpec, random_pointset
from .errors import BudgetExceeded, ConfigError, DEFAULT_BUDGET, check_budget
from .field import field_create
from .geometry import PointSet, read_pointset
from .ranges import (ThresholdQuery, conjectured_alpha, family_thresholds,
                     crossover_identities, energy_threshold, salem_s_ranges,
                     sphere_threshold, improved_threshold)

KNOWN_ANALYSES = ("fourier", "energy", "salem", "distance", "incidence", "ranges")

EXIT_OK = 0
EXIT_GATE_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_BUDGET = 4


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


def _build_set(config: dict) -> PointSet:
    c = config["construction"]
    params = dict(c)
    kind = params.pop("kind")
    if "seed" not in params and "seed" in config:
        params["seed"] = config["seed"]
    return ConstructionSpec(kind, params).build()


def run(config: dict, include_timings: bool = False) -> dict:
    """Execute the requested analyses; returns the report dict."""
    validate_config(config)
    budget = config.get("budget", DEFAULT_BUDGET)
    tol = config.get("tolerances", {})
    report: dict = {"config": config, "results": {}}
    results = report["results"]
    gates: dict[str, bool] = {}
    t0 = time.perf_counter()

    E = _build_set(config) if "construction" in config else None
    if E is not None:
        results["set"] = {"size": len(E), "q": E.field.q, "d": E.d}

    analyses = config.get("analyses", [])
    for name in analyses:
        if name == "ranges":
            results["ranges"] = _ranges_tables(config)
            continue
        if E is None:
            raise ConfigError(f"analysis {name!r} needs a construction")
        if name == "fourier":
            spec = spectral.fourier(E, budget)
            # fsum is correctly rounded, so the bytes do not depend on summation order
            parseval = abs(math.fsum(np.abs(spec.values) ** 2) - len(E) / E.field.q ** E.d)
            resid = spectral.energy_identity_residual(E, 2, budget)
            results["fourier"] = {
                "parsevalResidual": parseval,
                "energyIdentityResidual": resid,
                "lInfNorm": spectral.lp_norm(spec, float("inf")),
                "l4Norm": spectral.lp_norm(spec, 4),
            }
            gates["parseval"] = parseval <= tol.get("parseval", 1e-10)
            gates["energyIdentity"] = resid <= tol.get("energyIdentity", 1e-9)
        elif name == "energy":
            k = int(config.get("k", 2))
            results["energy"] = energy.energy_report(E, k, budget=budget).to_json_dict()
        elif name == "salem":
            results["salem"] = {"s": energy.salem_parameter(E, budget=budget)}
        elif name == "distance":
            prof = distance.distance_profile(E, budget=budget)
            results["distance"] = {
                "support": sorted(prof.support),
                "secondMoment": distance.second_moment(prof),
                "csLowerBound": distance.cs_lower_bound(prof),
                "energyRoute": distance.verify_difference_bounds(E, budget=budget),
                "secondMomentRatios": distance.verify_secondmoment_bounds(E, budget=budget),
            }
        elif name == "incidence":
            fam = incidence.distance_energy_setup(E, budget)
            results["incidence"] = {
                "pairTotal": fam.total_pairs,
                "sumM2": fam.sum_m2,
                "lambda4": energy.energy_convolution(E, 2, budget),
            }
    report["gates"] = gates
    report["allGatesPass"] = all(gates.values()) if gates else True
    if include_timings:
        report["wallClockSeconds"] = time.perf_counter() - t0
    return report


def _ranges_tables(config: dict) -> dict:
    ds = config.get("dims", [2, 3, 4, 5, 6])
    ss = [Fraction(str(x)) for x in config.get("sValues", ["1/4", "3/8", "1/2"])]
    table = []
    for d in ds:
        for s in ss:
            val, branch = improved_threshold(d, s)
            table.append({
                "d": d, "s": s,
                "conjecturedAlpha": conjectured_alpha(d, s),
                "improved": val, "improvedBranch": branch,
                "energyRoute": energy_threshold(d, s),
                "sphere": sphere_threshold(d, s),
            })
    return {
        "table": table,
        "crossoversExact": {str(d): all(crossover_identities(d).values())
                            for d in ds},
        "subgroupThreshold": {str(d): family_thresholds("subgroup", d)
                              for d in ds if d >= 2},
    }


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
        for line in ledger_path.read_text().splitlines():
            idx, _, row = line.partition("\t")
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
            rep = run(sub)
            row = _cell_row(i, cell, rep)
        except BudgetExceeded as exc:
            row = f"{i},error,budget:{exc}"
        except ConfigError as exc:
            row = f"{i},error,config:{exc}"
        return row

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(run_cell, range(len(cells))))
    else:
        rows = [run_cell(i) for i in range(len(cells))]

    with open(ledger_path, "w") as fh:
        for i, row in enumerate(rows):
            fh.write(f"{i}\t{row}\n")
    header = "cell,status,detail"
    csv_path.write_text("\n".join([header] + rows) + "\n")
    return csv_path


def _cell_row(i: int, cell: dict, rep: dict) -> str:
    size = rep["results"].get("set", {}).get("size", "")
    s = rep["results"].get("salem", {}).get("s", "")
    detail = ";".join(f"{k}={v}" for k, v in sorted(cell.items()))
    extra = f"size={size}"
    if s != "":
        extra += f";salemS={format(s, '.12g')}"
    return f"{i},ok,{detail};{extra}"


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
    from .geometry import dot
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
