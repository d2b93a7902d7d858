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
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from . import distance, energy, incidence, spectral
from .constructions import _MASK, ConstructionSpec, _splitmix64_array
from .errors import (BudgetExceeded, ConfigError, DEFAULT_BUDGET, check_budget,
                     as_int, config_value, is_int)
from .geometry import PointSet
from .ranges import (conjectured_alpha, crossover_identities, energy_threshold,
                     improved_threshold, sphere_threshold, subgroup_threshold)

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
    which `report()` creates once per report, so a report computes Lambda_{2k},
    nu and |E_hat|^2 once each however many sections read them. Lambda_4, nu,
    E - E and the difference family all come from one pass over the pairs
    of E (`pairs`).
    """

    def __init__(self, E: PointSet, budget: int | None = None):
        self.E = E
        self.budget = budget
        self._values: dict = {}

    def _once(self, key, compute):
        # one dict for every value, the keyed ones such as ("lam", k) included
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    @property
    def pairs(self) -> energy.PairCounts:
        return self._once("pairs", lambda: energy.pair_counts(self.E, self.budget))

    def lam(self, k: int) -> int:
        """Lambda_{2k}(E)."""
        if k == 2:
            return self.pairs.lam4
        return self._once(("lam", k), lambda: energy.energy_convolution(self.E, k, self.budget))

    @property
    def profile(self) -> distance.DistanceProfile:
        return self._once("profile", lambda: distance.pair_profile(self.pairs))

    @property
    def power(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, w) of spectral.half_power: |E_hat|^2 on the Hermitian half and its
        column weights. P[0, 0] is m = 0."""
        return self._once("power", lambda: spectral.half_power(self.E, self.budget))

    def fourier_moment(self, k: int) -> float:
        """||E_hat||_{2k}^{2k} = q^{-d} sum_{m != 0} |E_hat(m)|^{2k}: over the half,
        twice the sum over every entry but [0, 0] (m = 0, left out by slicing, so
        no large term cancels) less the sum over column 0, whose weight is 1."""
        def compute():
            P, _ = self.power
            flat, col = P.ravel()[1:], P[1:, 0]
            if k == 2:  # two dots, no temporary
                total = 2.0 * float(flat @ flat) - float(col @ col)
            else:
                total = 2.0 * float(np.sum(flat ** k)) - float(np.sum(col ** k))
            return total / self.E.field.q ** self.E.d
        return self._once(("moment", k), compute)

    @property
    def salem_s(self) -> float:
        return self._once("salem_s", lambda: energy.salem_parameter(self))

    @property
    def difference_family(self) -> incidence.DifferenceFamily:
        return self._once("difference_family",
                          lambda: incidence.difference_family(self.pairs))


# --- report sections: name -> section(A, config) -> (results, gates) ------------

def _fourier_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    tol = config.get("tolerances", {})
    E, (P, _) = A.E, A.power
    # the weighted sum of the half: column 0 has weight 1, every other 2
    parseval = abs(2.0 * float(P.sum()) - float(P[:, 0].sum()) - len(E) / E.field.q ** E.d)
    resid = spectral.energy_identity_residual(A, 2)
    results = {
        "parsevalResidual": parseval,
        "energyIdentityResidual": resid,
        "lInfNorm": math.sqrt(P.ravel()[1:].max(initial=0.0)),  # [0, 0]: m = 0
        "l4Norm": A.fourier_moment(2) ** 0.25,
    }
    return results, {"parseval": parseval <= tol.get("parseval", 1e-10),
                     "energyIdentity": resid <= tol.get("energyIdentity", 1e-9)}


def _energy_section(A: Analysis, config: dict) -> tuple[dict, dict]:
    return energy.energy_report(A, config_value(config, "k", 2)), {}


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
KNOWN_ANALYSES = tuple(SECTIONS)


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    analyses = config.get("analyses", [])
    if not isinstance(analyses, list):
        raise ConfigError("analyses must be a list")
    for a in analyses:
        if a not in KNOWN_ANALYSES:
            raise ConfigError(f"unknown analysis {a!r}; known: {KNOWN_ANALYSES}")
    if "construction" in config:
        _construction(config)
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    for name, t in tol.items():
        if isinstance(t, bool) or not (isinstance(t, (int, float)) and t > 0):
            raise ConfigError(f"tolerance {name} must be positive")
    budget = config.get("budget", DEFAULT_BUDGET)
    if not (is_int(budget) and budget > 0):
        raise ConfigError("budget must be a positive integer")
    if not is_int(config.get("seed", 0)):
        raise ConfigError("seed must be an integer")
    grid = config.get("grid", {})
    if not (isinstance(grid, dict) and all(isinstance(v, list) for v in grid.values())):
        raise ConfigError("grid must map construction parameters to lists of values")
    return config


def _construction(config: dict) -> dict:
    c = config["construction"]
    if not (isinstance(c, dict) and "kind" in c):
        raise ConfigError("construction must be an object with a 'kind'")
    return c


def build_set(config: dict) -> PointSet:
    """The config's construction; it takes the config's seed unless it sets its own."""
    if "construction" not in config:
        raise ConfigError("config needs a 'construction'")
    params = dict(_construction(config))
    kind = params.pop("kind")
    if "seed" not in params and "seed" in config:
        params["seed"] = config["seed"]
    return ConstructionSpec(kind, params).build(config.get("budget", DEFAULT_BUDGET))


def run(config: dict) -> dict:
    """Execute the requested analyses; returns the report dict."""
    validate_config(config)
    return report(config, build_set(config) if "construction" in config else None)


def report(config: dict, E: PointSet | None) -> dict:
    """The report of a validated config on its set E (None without a construction)."""
    results: dict = {}
    gates: dict[str, bool] = {}
    A = None
    if E is not None:
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
    x = np.array([((master << 32) ^ cell_index) & _MASK], dtype=np.uint64)
    return int(_splitmix64_array(x)[0])


def _sweep_file(verb: str, path: Path, op):
    """op() on a file or directory of the sweep, with an OSError as a config error."""
    try:
        return op()
    except OSError as exc:
        raise ConfigError(f"cannot {verb} {path}: {exc}") from exc


def sweep(config: dict, out_dir, jobs: int = 1) -> Path:
    """Cartesian product over the grid; one CSV row per cell; resumable.

    Every cell runs in the calling thread, whatever `jobs` (a positive
    integer). A report is a chain of short numpy calls, and two threads making
    those hand the GIL back and forth on every call, so a thread pool made the
    sweeps slower.
    """
    import hashlib  # here, not at module load: it loads OpenSSL, which only sweeps need
    validate_config(config)
    if not (is_int(jobs) and jobs >= 1):
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
    grid = config.get("grid")
    if not grid:
        raise ConfigError("sweep needs a 'grid' mapping")
    keys = sorted(grid)
    cells = list(product(*(grid[k] for k in keys)))
    out_dir = Path(out_dir)
    _sweep_file("create", out_dir, lambda: out_dir.mkdir(parents=True, exist_ok=True))
    ledger_path = out_dir / "sweep.ledger"
    stamp_path = out_dir / "sweep.stamp"
    csv_path = out_dir / "sweep.csv"
    # the ledger's rows are replayed only into a rerun of the config (grid and
    # seed included) that wrote them; otherwise it is rewritten from scratch
    stamp = hashlib.sha256(json.dumps(config, sort_keys=True, default=str).encode()).hexdigest() + "\n"
    done: dict[int, str] = {}
    if _sweep_file("read", stamp_path, lambda: stamp_path.exists() and stamp_path.read_text()) == stamp:
        data = _sweep_file("read", ledger_path,
                           lambda: ledger_path.read_bytes() if ledger_path.exists() else b"")
        try:  # what follows the last newline is a line cut short
            lines = data.decode("utf-8").split("\n")[:-1]
        except UnicodeDecodeError:  # not a ledger a sweep wrote
            lines = []
        # a line is "<cell index>\t<row as a JSON string>\n", so a row whose
        # detail holds a newline stays on one line; any other line is dropped
        # and its cell redone
        index = {str(i): i for i in range(len(cells))}
        for line in lines:
            idx, _, text = line.partition("\t")
            if idx not in index or not text.startswith('"'):
                continue
            try:
                row = json.loads(text)
            except ValueError:
                continue
            if row.startswith(f"{idx},") and row.endswith("\n"):
                done[index[idx]] = row

    master = int(config.get("seed", 0))

    def run_cell(i: int) -> str:
        cell = dict(zip(keys, cells[i]))
        sub = dict(config)
        sub.pop("grid", None)
        sub["seed"] = _child_seed(master, i)
        sub["construction"] = {**sub.get("construction", {}), **cell}
        try:
            rep = report(sub, build_set(sub))
        except BudgetExceeded as exc:
            return _csv_row(i, "error", f"budget:{exc}")
        except ConfigError as exc:
            return _csv_row(i, "error", f"config:{exc}")
        return _csv_row(i, "ok" if rep["allGatesPass"] else "gate", _cell_detail(cell, rep))

    # each finished row is appended and flushed in cell order, so an
    # interrupted or failed sweep resumes from every row before the failure;
    # on a failure the cells after it are not run
    ledger = _sweep_file("write", ledger_path, lambda: open(ledger_path, "w", encoding="utf-8"))
    with ledger:
        ledger.write("".join(_ledger_line(i, row) for i, row in sorted(done.items())))
        ledger.flush()
        # after the rows of any other config are gone
        _sweep_file("write", stamp_path, lambda: stamp_path.write_text(stamp))
        for i in range(len(cells)):
            if i not in done:
                done[i] = run_cell(i)
                ledger.write(_ledger_line(i, done[i]))
                ledger.flush()
    text = _csv_row("cell", "status", "detail") + "".join(done[i] for i in range(len(cells)))
    _sweep_file("write", csv_path, lambda: csv_path.write_text(text))
    return csv_path


def _ledger_line(i: int, row: str) -> str:
    return f"{i}\t{json.dumps(row)}\n"


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
    failed = "+".join(name for name, ok in rep["gates"].items() if not ok)
    if failed:
        extra += f";failedGates={failed}"
    return f"{detail};{extra}"


# --- oracles --------------------------------------------------------------------

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
    if P.field != H.field or P.d != H.d:
        raise ConfigError("mismatched fields or dimensions")
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
