"""Report and sweep bytes pinned against committed goldens.

Every shipped config, the benchmark workloads' verify configs at seed 0 and
one thinned witness run through the CLI; each output must equal its golden
in tests/golden/. The four float fields of results.fourier are left out of
the comparison, since FFT rounding may differ between numpy builds; the
parseval and energyIdentity gates still check them.

Mint the goldens (only when a change is meant to alter report bytes, and
say so in CHANGES.md) with:

    PYTHONPATH=src python tests/test_report_bytes.py
"""

import json
import sys
from pathlib import Path

import pytest

from fqsalem.cli import main

ROOT = Path(__file__).resolve().parent
CONFIG_DIR = ROOT.parent / "configs"
GOLDEN_DIR = ROOT / "golden"

DENSE = ["fourier", "energy", "salem", "distance", "incidence"]
FOURIER_FLOATS = ("parsevalResidual", "energyIdentityResidual", "lInfNorm", "l4Norm")

# the verify configs of the prime-random and extension-witness benchmark
# workloads at seed 0 (small-configs-sweep verifies the shipped configs)
# and the thinned even witness
EXTRA_REPORTS = {
    "random-p7-d4": {"construction": {"kind": "random", "p": 7, "r": 1, "d": 4,
                                      "size": 300},
                     "analyses": DENSE, "seed": 0},
    "witness-p5r2-d4": {"construction": {"kind": "conjectureWitness", "p": 5,
                                         "r": 2, "d": 4, "s": "1/4"},
                        "analyses": DENSE, "seed": 0},
    "thinned-witness-p3r2-d4": {"construction": {"kind": "conjectureWitness",
                                                 "p": 3, "r": 2, "d": 4,
                                                 "s": "1/2"},
                                "analyses": DENSE, "seed": 0},
}


def _configs() -> dict[str, dict]:
    """name -> config, for every shipped config and every extra report."""
    shipped = {p.stem: json.loads(p.read_text())
               for p in sorted(CONFIG_DIR.glob("*.json"))}
    return {**shipped, **EXTRA_REPORTS}


def _output(config: dict, work: Path) -> str:
    """The CLI's output for one config: the report, or the sweep CSV if it has a grid."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    path.write_text(json.dumps(config))
    if "grid" in config:
        out = work / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        return (out / "sweep.csv").read_text()
    out = work / "report.json"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
    return out.read_text()


def _golden_path(name: str, config: dict) -> Path:
    return GOLDEN_DIR / (f"{name}.csv" if "grid" in config else f"{name}.json")


def _without_fourier_floats(text: str) -> dict:
    report = json.loads(text)
    for key in FOURIER_FLOATS:
        report["results"].get("fourier", {}).pop(key, None)
    return report


@pytest.mark.parametrize("name", sorted(_configs()))
def test_output_matches_golden(tmp_path, capsys, name):
    config = _configs()[name]
    golden = _golden_path(name, config).read_text()
    got = _output(config, tmp_path)
    capsys.readouterr()
    if "grid" in config:
        assert got == golden
    else:
        assert _without_fourier_floats(got) == _without_fourier_floats(golden)


if __name__ == "__main__":
    import tempfile
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in _configs().items():
            _golden_path(name, config).write_text(_output(config, Path(tmp) / name))
    sys.exit(0)
