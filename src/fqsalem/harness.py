"""Experiment harness: configs, sweeps and the brute-force oracles.

`run` validates a config, builds its set and hands both to `analysis.report`,
which a sweep cell calls too. Sweep cells derive their seeds from
(masterSeed, cellIndex), so a sweep's rows depend on its config only.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import product
from pathlib import Path

import numpy as np

from . import analysis
from .constructions import _MASK, ConstructionSpec, _splitmix64_array
from .errors import BudgetExceeded, ConfigError, DEFAULT_BUDGET, budget_scope, check_budget, is_int
from .geometry import PointSet

#: every key a config may have: the ones the harness reads, and the report's
CONFIG_KEYS = analysis.CONFIG_KEYS | {"construction", "seed", "grid"}


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for key in config:
        if key not in CONFIG_KEYS:  # a misspelt key would be ignored
            raise ConfigError(f"unknown config key {key!r}; known: {sorted(CONFIG_KEYS)}")
    analyses = config.get("analyses", [])
    if not isinstance(analyses, list):
        raise ConfigError("analyses must be a list")
    for a in analyses:  # a str first: an unhashable name cannot be looked up
        if not isinstance(a, str) or a not in analysis.SECTIONS:
            raise ConfigError(f"unknown analysis {a!r}; known: {tuple(analysis.SECTIONS)}")
    for key in config:  # a section key would be ignored unless its section runs
        readers = [name for name, keys in analysis.SECTION_KEYS.items() if key in keys]
        if readers and not any(name in analyses for name in readers):
            raise ConfigError(f"no requested analysis reads config key {key!r}; "
                              f"read by: {readers}")
    if "construction" in config:
        _construction(config)
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    for name, t in tol.items():
        if name not in analysis.TOLERANCES:
            raise ConfigError(f"unknown tolerance {name!r}; known: {sorted(analysis.TOLERANCES)}")
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
    """The config's construction under its budget; it takes the config's seed unless it has one."""
    if "construction" not in config:
        raise ConfigError("config needs a 'construction'")
    params = dict(_construction(config))
    kind = params.pop("kind")
    if "seed" not in params and "seed" in config:
        params["seed"] = config["seed"]
    with budget_scope(config.get("budget", DEFAULT_BUDGET)):
        return ConstructionSpec(kind, params).build()


def run(config: dict) -> dict:
    """Execute the requested analyses; returns the report dict."""
    validate_config(config)
    return analysis.report(config, build_set(config) if "construction" in config else None)


# --- sweep --------------------------------------------------------------------

def _child_seed(master: int, cell_index: int) -> int:
    x = np.array([((master << 32) ^ cell_index) & _MASK], dtype=np.uint64)
    return int(_splitmix64_array(x)[0])


def file_op(verb: str, path: Path, op):
    """op() on a file or directory, with an OSError as a config error: "cannot <verb> <path>"."""
    try:
        return op()
    except OSError as exc:
        raise ConfigError(f"cannot {verb} {path}: {exc}") from exc


def sweep(config: dict, out_dir) -> Path:
    """Cartesian product over the grid; one CSV row per cell; resumable.

    Every cell runs in the calling thread. A report is a chain of short numpy
    calls, and two threads making those hand the GIL back and forth on every
    call, so a thread pool made the sweeps slower.
    """
    import hashlib  # here, not at module load: it loads OpenSSL, which only sweeps need
    validate_config(config)
    grid = config.get("grid")
    if not grid:
        raise ConfigError("sweep needs a 'grid' mapping")
    keys = sorted(grid)
    cells = list(product(*(grid[k] for k in keys)))
    out_dir = Path(out_dir)
    file_op("create", out_dir, lambda: out_dir.mkdir(parents=True, exist_ok=True))
    ledger_path = out_dir / "sweep.ledger"
    stamp_path = out_dir / "sweep.stamp"
    csv_path = out_dir / "sweep.csv"
    # the ledger's rows are replayed only into a rerun of the config (grid and
    # seed included) that wrote them; otherwise it is rewritten from scratch
    stamp = hashlib.sha256(json.dumps(config, sort_keys=True, default=str).encode()).hexdigest() + "\n"
    done: dict[int, str] = {}
    if file_op("read", stamp_path, lambda: stamp_path.exists() and stamp_path.read_text()) == stamp:
        data = file_op("read", ledger_path,
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
            rep = analysis.report(sub, build_set(sub))
        except BudgetExceeded as exc:
            return _csv_row(i, "error", f"budget:{exc}")
        except ConfigError as exc:
            return _csv_row(i, "error", f"config:{exc}")
        return _csv_row(i, "ok" if rep["allGatesPass"] else "gate", _cell_detail(cell, rep))

    # each finished row is appended and flushed in cell order, so an
    # interrupted or failed sweep resumes from every row before the failure;
    # on a failure the cells after it are not run
    ledger = file_op("write", ledger_path, lambda: open(ledger_path, "w", encoding="utf-8"))
    with ledger:
        ledger.write("".join(_ledger_line(i, row) for i, row in sorted(done.items())))
        ledger.flush()
        # after the rows of any other config are gone
        file_op("write", stamp_path, lambda: stamp_path.write_text(stamp))
        for i in range(len(cells)):
            if i not in done:
                done[i] = run_cell(i)
                ledger.write(_ledger_line(i, done[i]))
                ledger.flush()
    text = _csv_row("cell", "status", "detail") + "".join(done[i] for i in range(len(cells)))
    file_op("write", csv_path, lambda: csv_path.write_text(text))
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

def oracle_distances(E: PointSet) -> dict[int, int]:
    """Plain double loop over the scalar field methods, kept separate from
    energy.PairCounts.nu and distance.distance_profile."""
    check_budget(len(E) ** 2, "distance oracle")
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


def oracle_incidences(P: PointSet, H) -> int:
    """Plain double loop, kept separate from incidence.count_incidences."""
    if P.field != H.field or P.d != H.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(P) * max(len(H.codes), 1), "incidence oracle")  # before .entries builds
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
