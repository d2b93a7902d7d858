"""The benchmark's workloads: which configs are verified and which grid is swept.

Each workload is a list of `verify` configs (one pass verifies each once) and
one `sweep` config run with `--jobs 2`. README.md says why each was chosen.
Bench-owned configs take their `seed` from the benchmark's `--seed`; the
shipped configs under `configs/` are used as they are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

DENSE = ["fourier", "energy", "salem", "distance", "incidence"]
SHIPPED = ("isotropic-f5-d4", "orbit-q27", "ranges")


@dataclass(frozen=True)
class Workload:
    name: str
    verify: dict   # label -> config dict (without seed) or a shipped config name
    sweep: dict    # sweep config with a `grid`, without seed


def _random(p, r, d, **extra):
    return {"kind": "random", "p": p, "r": r, "d": d, **extra}


FULL = {
    "prime-random": Workload(
        "prime-random",
        {"random-p7-d4": {"construction": _random(7, 1, 4, size=300),
                          "analyses": DENSE}},
        {"construction": _random(7, 1, 4), "analyses": DENSE,
         "grid": {"size": [25, 50, 75, 100]}}),
    "extension-witness": Workload(
        "extension-witness",
        {"witness-p5r2-d4": {"construction": {"kind": "conjectureWitness",
                                              "p": 5, "r": 2, "d": 4,
                                              "s": "1/4"},
                             "analyses": DENSE}},
        {"construction": _random(5, 2, 3), "analyses": DENSE,
         "grid": {"size": [20, 30, 40, 60]}}),
    "small-configs-sweep": Workload(
        "small-configs-sweep",
        {name: name for name in SHIPPED},
        {"construction": {"kind": "random", "d": 3}, "analyses": DENSE,
         "grid": {"p": [3, 5, 7], "r": [1, 2], "size": [12, 24]}}),
}

# Tiny sizes for the smoke test: same code paths, a fraction of a second each.
SMOKE = {
    "prime-random": Workload(
        "prime-random",
        {"random-p5-d2": {"construction": _random(5, 1, 2, size=10),
                          "analyses": DENSE}},
        {"construction": _random(5, 1, 2), "analyses": DENSE,
         "grid": {"size": [4, 8]}}),
    "extension-witness": Workload(
        "extension-witness",
        {"witness-p3r2-d4": {"construction": {"kind": "conjectureWitness",
                                              "p": 3, "r": 2, "d": 4,
                                              "s": "1/4"},
                             "analyses": DENSE}},
        {"construction": _random(3, 2, 2), "analyses": DENSE,
         "grid": {"size": [5, 10]}}),
    "small-configs-sweep": Workload(
        "small-configs-sweep",
        {name: name for name in SHIPPED},
        {"construction": {"kind": "random", "d": 2}, "analyses": DENSE,
         "grid": {"p": [3, 5], "size": [4]}}),
}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else FULL)[name]


def verify_configs(w: Workload, seed: int, root: Path) -> dict[str, dict]:
    """label -> the config dict verified, with bench-owned seeds filled in."""
    out = {}
    for label, cfg in w.verify.items():
        if isinstance(cfg, str):
            out[label] = json.loads((root / "configs" / f"{cfg}.json").read_text())
        else:
            out[label] = {**cfg, "seed": seed}
    return out


def sweep_config(w: Workload, seed: int) -> dict:
    return {**w.sweep, "seed": seed}


def sweep_cells(sweep: dict) -> list[dict]:
    """The grid cells in the harness's order (sorted keys, Cartesian product)."""
    keys = sorted(sweep["grid"])
    return [dict(zip(keys, vals))
            for vals in product(*(sweep["grid"][k] for k in keys))]


def fields_used(configs: dict[str, dict], sweep: dict) -> list[tuple[int, int]]:
    """Every (p, r) a workload's constructions create."""
    fields = set()
    for cfg in configs.values():
        c = cfg.get("construction")
        if c:
            fields.add((int(c["p"]), int(c.get("r", 1))))
    for cell in sweep_cells(sweep):
        c = {**sweep["construction"], **cell}
        fields.add((int(c["p"]), int(c.get("r", 1))))
    return sorted(fields)
