"""Config validation, reports, sweeps, oracles, and the CLI."""

import csv
import json
import sys

import pytest

from conftest import rand_set
from fqsalem.cli import main
from fqsalem.distance import distance_profile
from fqsalem.energy import energy_convolution
from fqsalem.errors import BudgetExceeded, ConfigError, InvariantViolation
from fqsalem.geometry import (HyperplaneMultiset, PointSet, write_hyperplanes,
                               write_pointset)
from fqsalem.harness import (oracle_distances, oracle_incidences, oracle_lambda4,
                              render_report, run, sweep, validate_config)
from fqsalem.incidence import count_incidences
from fqsalem.spectral import fourier_fast

ISO_CONFIG = {
    "construction": {"kind": "isotropic", "p": 5, "r": 1, "d": 4, "m": 2},
    "analyses": ["fourier", "energy", "salem", "distance"],
    "seed": 0,
}
ALL_SET_ANALYSES = ["fourier", "energy", "salem", "distance", "incidence"]


def patch_everywhere(monkeypatch, fn, replacement):
    """Rebind every fqsalem module attribute that is `fn`, whatever the import style."""
    for name, module in list(sys.modules.items()):
        if name.startswith("fqsalem") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


def count_calls(monkeypatch, fn) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    patch_everywhere(monkeypatch, fn, counted)
    return calls


def test_validate_config():
    assert validate_config({"analyses": ["energy"]})
    with pytest.raises(ConfigError):
        validate_config({"analyses": ["astrology"]})
    with pytest.raises(ConfigError):
        validate_config({"construction": {"p": 5}})
    with pytest.raises(ConfigError):
        validate_config({"tolerances": {"parseval": -1}})
    with pytest.raises(ConfigError):
        validate_config({"budget": 0})
    with pytest.raises(ConfigError):
        validate_config([1, 2])


def test_run_ranges_only():
    rep = run({"analyses": ["ranges"], "dims": [2, 4], "sValues": ["1/4", "1/2"]})
    table = rep["results"]["ranges"]["table"]
    assert len(table) == 4
    assert rep["results"]["ranges"]["crossoversExact"] == {"2": True, "4": True}
    assert rep["allGatesPass"]
    assert "set" not in rep["results"]


def test_run_needs_construction_for_set_analyses():
    with pytest.raises(ConfigError):
        run({"analyses": ["energy"]})


def test_run_full_report():
    rep = run(ISO_CONFIG)
    assert rep["results"]["set"] == {"size": 25, "q": 5, "d": 4}
    assert rep["results"]["energy"]["lambda"] == "15625"
    assert rep["results"]["distance"]["support"] == [0]
    assert rep["gates"]["parseval"] and rep["gates"]["energyIdentity"]
    assert rep["allGatesPass"]


@pytest.mark.parametrize("construction", [
    {"kind": "random", "p": 7, "d": 3, "size": 60},
    {"kind": "conjectureWitness", "p": 5, "r": 2, "d": 4, "s": "1/4"},
    {"kind": "orbit", "p": 3, "r": 3}])
def test_run_never_reads_point_tuples(monkeypatch, construction):
    # the kernels work on codes; the tuple view is for I/O and the oracles
    def no_tuples(self):
        raise AssertionError("the tuple view of a point set was read")

    monkeypatch.setattr(PointSet, "points", property(no_tuples))
    rep = run({"construction": construction, "analyses": ALL_SET_ANALYSES, "seed": 0})
    assert rep["allGatesPass"]


@pytest.mark.parametrize("p,r", [(7, 1), (3, 2)])
def test_run_computes_each_quantity_once(monkeypatch, p, r):
    calls = {fn.__name__: count_calls(monkeypatch, fn)
             for fn in (energy_convolution, distance_profile, fourier_fast)}
    rep = run({"construction": {"kind": "random", "p": p, "r": r, "d": 3, "size": 40},
               "analyses": ALL_SET_ANALYSES, "k": 2, "seed": 3})
    assert rep["allGatesPass"]
    assert {name: len(c) for name, c in calls.items()} == {
        "energy_convolution": 1, "distance_profile": 1, "fourier_fast": 1}


def test_report_rendering_is_deterministic():
    a = render_report(run(ISO_CONFIG))
    b = render_report(run(ISO_CONFIG))
    assert a == b
    parsed = json.loads(a)
    assert parsed["results"]["energy"]["lambda"] == "15625"  # ints as strings


def test_run_gate_failure_with_tight_tolerance():
    cfg = {"construction": {"kind": "random", "p": 5, "d": 2, "size": 9, "seed": 3},
           "analyses": ["fourier"],
           "tolerances": {"parseval": 1e-30, "energyIdentity": 1e-30}}
    rep = run(cfg)
    assert not rep["allGatesPass"]


def test_sweep_grid_and_resume(tmp_path):
    cfg = {"construction": {"kind": "random", "size": 6},
           "analyses": ["energy", "salem"],
           "grid": {"p": [3, 5, 7], "d": [2, 3]},
           "seed": 11}
    out = tmp_path / "sweep1"
    csv_path = sweep(cfg, out, jobs=1)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "cell,status,detail"
    assert len(rows) == 1 + 6
    # resume: a ledger row is trusted verbatim, so finished cells are not redone
    ledger = out / "sweep.ledger"
    lines = ledger.read_text().splitlines()
    lines[0] = "0\t0,ok,resumed-marker"
    ledger.write_text("\n".join(lines) + "\n")
    sweep(cfg, out, jobs=1)
    assert "resumed-marker" in csv_path.read_text()


def test_sweep_keeps_finished_rows_when_a_cell_fails(tmp_path, monkeypatch):
    # ISO_CONFIG's sets lie on one sphere, so the incidence section checks the
    # difference family against Lambda_4 exactly; only cell 1 (m = 2, 25
    # points) gets a Lambda_4 off by one
    patch_everywhere(monkeypatch, energy_convolution,
                     lambda E, k, budget=None: energy_convolution(E, k, budget) + (len(E) > 5))
    cfg = {**ISO_CONFIG, "analyses": ["incidence"], "grid": {"m": [1, 2]}}
    out = tmp_path / "s"
    with pytest.raises(InvariantViolation):
        sweep(cfg, out, jobs=1)
    ledger = out / "sweep.ledger"
    assert [ln.split("\t")[0] for ln in ledger.read_text().splitlines()] == ["0"]
    assert not (out / "sweep.csv").exists()
    # without the fault, cell 0 is resumed from the ledger and cell 1 computed
    monkeypatch.undo()
    ledger.write_text("0\t0,ok,resumed-marker\n")
    rows = sweep(cfg, out, jobs=1).read_text().splitlines()
    assert rows[1] == "0,ok,resumed-marker"
    assert rows[2].startswith("1,ok,")


def test_sweep_jobs_independent(tmp_path):
    cfg = {"construction": {"kind": "random", "size": 8},
           "analyses": ["energy", "salem"],
           "grid": {"p": [3, 5], "d": [2, 3]},
           "seed": 5}
    a = sweep(cfg, tmp_path / "a", jobs=1).read_bytes()
    b = sweep(cfg, tmp_path / "b", jobs=8).read_bytes()
    assert a == b


def test_sweep_records_cell_errors(tmp_path):
    cfg = {"construction": {"kind": "isotropic", "p": 3},
           "analyses": ["energy"],
           # d = 5 is invalid for this construction, and d = 6 needs q = 1 mod 4
           "grid": {"d": [4, 5, 6], "m": [1, 2]},
           "seed": 0}
    csv_path = sweep(cfg, tmp_path / "s", jobs=1)
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert any(",ok," in r for r in rows)
    assert any(",error," in r for r in rows)
    with open(csv_path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["cell", "status", "detail"]
    assert all(len(row) == 3 for row in parsed)
    # the cell d = 6, m = 1: its message holds commas
    assert parsed[1 + 4] == ["4", "error",
                             "config:d = 6 (2 mod 4) needs q = 1 mod 4, got q = 3"]


def test_sweep_records_bad_config_value(tmp_path):
    cfg = {"construction": {"kind": "random", "p": 5, "d": 2},
           "analyses": ["energy"], "grid": {"size": [4, "four"]}, "seed": 0}
    with open(sweep(cfg, tmp_path / "s"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][:2] == ["0", "ok"]
    assert rows[2] == ["1", "error",
                       "config:config value 'size' is missing or ill-typed: 'four'"]


def test_sweep_requires_grid(tmp_path):
    with pytest.raises(ConfigError):
        sweep({"analyses": ["energy"]}, tmp_path / "x")


def test_oracles(f5, f9):
    E = rand_set(f5, 2, 10, seed=2)
    assert oracle_lambda4(E) == energy_convolution(E, 2)
    single = PointSet.build(f5, 2, [(1, 1)])
    assert oracle_distances(single) == {0: 1}
    E9 = rand_set(f9, 3, 30, seed=4)
    assert oracle_distances(E9) == distance_profile(E9).counts
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2)])
    assert oracle_incidences(E, H) == count_incidences(E, H)


def test_cli_field(capsys):
    assert main(["field", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q"] == 5 and out["primitiveElement"] == 2


def test_cli_field_rejects_even_p(capsys):
    assert main(["field", "2"]) == 3


def test_cli_construct_and_oracle(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"construction": {"kind": "isotropic", "p": 3,
                                                "d": 4, "m": 2}}))
    out = tmp_path / "iso.txt"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["oracle", "lambda4", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "729"


def test_cli_oracle_incidences(tmp_path, capsys, f5):
    E = rand_set(f5, 2, 6, seed=1)
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 1)])
    ep, hp = tmp_path / "e.txt", tmp_path / "h.txt"
    write_pointset(E, ep)
    write_hyperplanes(H, hp)
    assert main(["oracle", "incidences", str(ep), str(hp)]) == 0
    assert int(capsys.readouterr().out) == count_incidences(E, H)
    assert main(["oracle", "incidences", str(ep)]) == 3  # missing hyperplane file
    # the oracle charges |P| * |H| = 6 units
    with pytest.raises(BudgetExceeded):
        oracle_incidences(E, H, budget=5)
    assert main(["oracle", "incidences", str(ep), str(hp), "--budget", "1"]) == 4


@pytest.mark.parametrize("config", [
    {"construction": {"kind": "random", "p": 5, "d": 2}, "analyses": ["energy"]},
    {"construction": {"kind": "random", "p": 5, "d": 2, "size": 5},
     "analyses": ["energy"], "k": "two"},
    {"construction": {"kind": "conjectureWitness", "p": 3, "d": 4, "s": "1/0"},
     "analyses": ["energy"]}])
def test_cli_bad_config_values_exit_3(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_verify_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(ISO_CONFIG))
    assert main(["verify", "--config", str(good)]) == 0
    capsys.readouterr()

    bad_gate = tmp_path / "gate.json"
    bad_gate.write_text(json.dumps({
        "construction": {"kind": "random", "p": 5, "d": 2, "size": 9, "seed": 3},
        "analyses": ["fourier"],
        "tolerances": {"parseval": 1e-30, "energyIdentity": 1e-30}}))
    assert main(["verify", "--config", str(bad_gate)]) == 2
    capsys.readouterr()

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"analyses": ["astrology"]}))
    assert main(["verify", "--config", str(bad_cfg)]) == 3
    assert main(["verify"]) == 3  # --config missing

    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps({**ISO_CONFIG, "budget": 2}))
    assert main(["verify", "--config", str(tight)]) == 4


def test_cli_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    # ISO_CONFIG's set lies on one sphere (radius 0), so the difference family
    # must reproduce Lambda_4 exactly; a Lambda_4 off by one breaks that
    patch_everywhere(monkeypatch, energy_convolution,
                     lambda E, k, budget=None: energy_convolution(E, k, budget) + 1)
    cfg = {**ISO_CONFIG, "analyses": ["incidence"]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 5
    assert capsys.readouterr().err.startswith("invariant violated: ")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({**cfg, "grid": {"m": [1, 2]}}))
    assert main(["sweep", "--config", str(grid), "--out", str(tmp_path / "s"),
                 "--jobs", "2"]) == 5
    assert capsys.readouterr().err.startswith("invariant violated: ")


def test_cli_analyze_writes_report(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(ISO_CONFIG))
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["allGatesPass"] is True


def test_cli_ranges(capsys):
    assert main(["ranges", "--d", "2", "4", "--s", "1/4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2 and all(r["crossoversExact"] for r in rows)


def test_cli_sweep(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"construction": {"kind": "random", "d": 2, "size": 5},
                               "analyses": ["energy"],
                               "grid": {"p": [3, 5]}, "seed": 1}))
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
