"""Experiment harness: configs, sweeps and the brute-force oracles.

`run` validates a config, builds its set and hands both to `analysis.report`,
which a sweep cell calls too. Sweep cells derive their seeds from
(masterSeed, cellIndex), so a sweep's rows depend on its config only.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import suppress
from itertools import product
from pathlib import Path

import numpy as np

from . import analysis
from .constructions import _MASK, ConstructionSpec, _splitmix64_array
from .errors import BudgetExceeded, ConfigError, DEFAULT_BUDGET, budget_scope, check_budget, is_int
from .geometry import PointSet, dot, norm, open_in_place, truncate_here, vsub, write_file

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
        if isinstance(t, bool) or not (isinstance(t, (int, float)) and 0 < t < float("inf")):
            raise ConfigError(f"tolerance {name} must be positive and finite")
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

    `sweep.csv` gets its header, then each row in cell order, flushed as it is
    written. A rerun under the same `sweep.stamp` (a hash of the config and
    `analysis.REPORT_FORMAT`) replays the rows `_replay` accepts and computes
    the cells after them; under any other stamp the CSV is rewritten.

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
    stamp_path = out_dir / "sweep.stamp"
    csv_path = out_dir / "sweep.csv"
    # "csv": no stamp written beside the JSON-line ledger of earlier versions matches
    stamp = json.dumps(["csv", analysis.REPORT_FORMAT, config], sort_keys=True, default=str)
    stamp = (hashlib.sha256(stamp.encode()).hexdigest() + "\n").encode()
    header = _csv_row("cell", "status", "detail")
    rows: list[str] = []
    if (file_op("read", stamp_path, lambda: stamp_path.exists() and stamp_path.read_bytes())
            == stamp and csv_path.exists()):
        rows = _replay(file_op("read", csv_path, csv_path.read_bytes), header, len(cells))

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

    # not truncated on open (geometry.write_file says why), and never cut to
    # zero length: the header is never empty
    out = file_op("write", csv_path, lambda: open_in_place(csv_path))
    with out:
        out.write((header + "".join(rows)).encode("utf-8"))
        file_op("write", csv_path, lambda: truncate_here(out))
        write_file(stamp_path, stamp)  # after the rows of any other config are gone
        for i in range(len(rows), len(cells)):
            out.write(run_cell(i).encode("utf-8"))
            out.flush()
    return csv_path


def _replay(data: bytes, header: str, n: int) -> list[str]:
    """The longest run of rows 0, 1, ..., at most n, after the header of a
    sweep CSV that each re-render byte for byte. A row of another cell, one
    cut short or one in a form `_csv_row` never writes ends the run."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # what precedes the first byte that is not UTF-8
        text = data[:exc.start].decode("utf-8")
    if not text.startswith(header):
        return []
    rows, end = [], len(header)
    with suppress(csv.Error):  # a field over csv's size limit, say: the run ends there
        for fields in csv.reader(io.StringIO(text[end:], newline="")):
            row = _csv_row(*fields)
            if (len(rows) == n or len(fields) != 3 or fields[0] != str(len(rows))
                    or not text.startswith(row, end)):
                break
            rows.append(row)
            end += len(row)
    return rows


def _csv_row(*fields) -> str:
    """One CSV line ending in "\n", quoted where a field holds a comma, a quote,
    "\n" or "\r": the writer quotes a field that holds a character of its line
    terminator, so it writes "\r\n", and the "\r" is dropped."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


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
    """Plain double loop over the scalar geometry.norm and vsub, kept separate
    from energy.PairCounts.nu and distance.distance_profile."""
    check_budget(len(E) ** 2, "distance oracle")
    F = E.field
    counts: dict[int, int] = {}
    for x in E.points:
        for y in E.points:
            t = norm(F, vsub(F, x, y))
            counts[t] = counts.get(t, 0) + 1
    return dict(sorted(counts.items()))


def oracle_incidences(P: PointSet, H) -> int:
    """Plain double loop over the scalar geometry.dot, apart from incidence.count_incidences."""
    if P.field != H.field or P.d != H.d:
        raise ConfigError("mismatched fields or dimensions")
    check_budget(len(P) * max(len(H.codes), 1), "incidence oracle")  # before .entries builds
    total = 0
    for a, b, m in H.entries:
        for x in P.points:
            if dot(P.field, a, x) == b:
                total += m
    return total
