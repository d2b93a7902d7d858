"""Config validation, reports, sweeps, oracles, and the CLI."""

import json

import pytest

from conftest import rand_set
from fqsalem.cli import main
from fqsalem.distance import distance_profile
from fqsalem.energy import energy_convolution
from fqsalem.errors import ConfigError
from fqsalem.geometry import (HyperplaneMultiset, PointSet, write_hyperplanes,
                               write_pointset)
from fqsalem.harness import (oracle_distances, oracle_incidences, oracle_lambda4,
                              render_report, run, sweep, validate_config)
from fqsalem.incidence import count_incidences

ISO_CONFIG = {
    "construction": {"kind": "isotropic", "p": 5, "r": 1, "d": 4, "m": 2},
    "analyses": ["fourier", "energy", "salem", "distance"],
    "seed": 0,
}


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


def test_sweep_jobs_independent(tmp_path):
    cfg = {"construction": {"kind": "random", "size": 8},
           "analyses": ["energy", "salem"],
           "grid": {"p": [3, 5], "d": [2, 3]},
           "seed": 5}
    a = sweep(cfg, tmp_path / "a", jobs=1).read_bytes()
    b = sweep(cfg, tmp_path / "b", jobs=8).read_bytes()
    assert a == b


def test_sweep_records_cell_errors(tmp_path):
    cfg = {"construction": {"kind": "isotropic", "p": 3, "m": 2},
           "analyses": ["energy"],
           "grid": {"d": [4, 5]},  # d = 5 is invalid for this construction
           "seed": 0}
    csv_path = sweep(cfg, tmp_path / "s", jobs=1)
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert any(",ok," in r for r in rows)
    assert any(",error," in r for r in rows)


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
