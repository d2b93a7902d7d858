"""Config validation, reports, sweeps, oracles, and the CLI."""

import csv
import dataclasses
import inspect
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import folded_power, rand_set
from fqsalem import harness, spectral
from fqsalem.cli import build_parser, main
from fqsalem.distance import distance_profile
from fqsalem.energy import energy_bruteforce, energy_convolution, pair_counts, salem_parameter
from fqsalem.errors import BudgetExceeded, ConfigError, InvariantViolation
from fqsalem.field import field_create
from fqsalem.geometry import (HyperplaneMultiset, PointSet, read_pointset,
                               write_hyperplanes, write_pointset)
from fqsalem.harness import (oracle_distances, oracle_incidences, render_report, run,
                              sweep, validate_config)
from fqsalem.incidence import count_incidences
from fqsalem.spectral import half_power

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


def lam4_off_by(offset):
    """pair_counts with Lambda_4 moved by offset(E)."""
    def faulty(E, budget=None):
        pairs = pair_counts(E, budget)
        return dataclasses.replace(pairs, lam4=pairs.lam4 + offset(E))
    return faulty


def count_calls(monkeypatch, fn) -> list:
    """Patch fn everywhere to record each call's bound arguments."""
    calls = []
    signature = inspect.signature(fn)

    def counted(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
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
    # Lambda_4, nu, E - E and the difference family are read from one pair
    # pass; energy_convolution and distance_profile would each be another.
    # The spectrum is transformed once, on the Hermitian half only, and the
    # energy, salem and distance sections share one Salem parameter
    calls = {fn.__name__: count_calls(monkeypatch, fn)
             for fn in (pair_counts, energy_convolution, distance_profile, half_power,
                        salem_parameter)}
    rep = run({"construction": {"kind": "random", "p": p, "r": r, "d": 3, "size": 40},
               "analyses": ALL_SET_ANALYSES, "k": 2, "seed": 3})
    assert rep["allGatesPass"]
    assert {name: len(c) for name, c in calls.items()} == {
        "pair_counts": 1, "energy_convolution": 0, "distance_profile": 0, "half_power": 1,
        "salem_parameter": 1}


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
    lines[0] = '0\t"0,ok,resumed-marker\\n"'
    ledger.write_text("\n".join(lines) + "\n")
    sweep(cfg, out, jobs=1)
    assert "resumed-marker" in csv_path.read_text()


def test_sweep_refuses_rows_of_another_config(tmp_path):
    cfg = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["energy"],
           "grid": {"p": [3, 5]}, "seed": 2}
    out = tmp_path / "s"
    rows = sweep(cfg, out, jobs=1).read_text().splitlines()
    assert rows[1:] == ["0,ok,p=3;size=5", "1,ok,p=5;size=5"]
    cfg = {**cfg, "construction": {"kind": "random", "d": 2, "size": 7},
           "analyses": ["energy", "salem"]}
    rows = sweep(cfg, out, jobs=1).read_text().splitlines()
    assert [r.split(";")[:2] for r in rows[1:]] == [["0,ok,p=3", "size=7"],
                                                    ["1,ok,p=5", "size=7"]]
    assert all("salemS=" in r for r in rows[1:])
    # the same config again resumes from the rewritten ledger
    ledger = out / "sweep.ledger"
    ledger.write_text(ledger.read_text().replace("size=7", "size=resumed", 1))
    assert "size=resumed" in sweep(cfg, out, jobs=1).read_text()
    # another seed is another config
    assert "size=resumed" not in sweep({**cfg, "seed": 3}, out, jobs=1).read_text()


def test_sweep_keeps_finished_rows_when_a_cell_fails(tmp_path, monkeypatch):
    # ISO_CONFIG's sets lie on one sphere, so the incidence section checks the
    # difference family against Lambda_4 exactly; only cell 1 (m = 2, 25
    # points) gets a Lambda_4 off by one
    patch_everywhere(monkeypatch, pair_counts, lam4_off_by(lambda E: len(E) > 5))
    cfg = {**ISO_CONFIG, "analyses": ["incidence"], "grid": {"m": [1, 2]}}
    out = tmp_path / "s"
    with pytest.raises(InvariantViolation):
        sweep(cfg, out, jobs=1)
    ledger = out / "sweep.ledger"
    assert [ln.split("\t")[0] for ln in ledger.read_text().splitlines()] == ["0"]
    assert not (out / "sweep.csv").exists()
    # without the fault, cell 0 is resumed from the ledger and cell 1 computed
    monkeypatch.undo()
    ledger.write_text('0\t"0,ok,resumed-marker\\n"\n')
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_runs_every_cell_in_the_calling_thread(tmp_path, monkeypatch, jobs):
    caller, before = threading.current_thread(), set(threading.enumerate())
    seen = []
    real = harness.report

    def recorded(config, E):
        seen.append((threading.current_thread(), set(threading.enumerate()) - before))
        return real(config, E)

    monkeypatch.setattr(harness, "report", recorded)
    cfg = {"construction": {"kind": "random", "p": 5, "r": 2, "d": 3},
           "analyses": ["energy"], "grid": {"size": [10, 20]}, "seed": 3}
    sweep(cfg, tmp_path / "s", jobs=jobs)
    assert seen == [(caller, set())] * 2


def test_sweep_cli_stops_at_a_failing_cell(tmp_path, capsys, monkeypatch):
    real = harness.report

    def faulty(config, E):
        if len(E) == 20:
            raise InvariantViolation("cell 1")
        return real(config, E)

    monkeypatch.setattr(harness, "report", faulty)
    cfg = {"construction": {"kind": "random", "p": 5, "d": 2},
           "analyses": ["energy"], "grid": {"size": [10, 20, 15]}, "seed": 3}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "2"]) == 5
    assert capsys.readouterr().err == "invariant violated: cell 1\n"
    assert (out / "sweep.ledger").read_text() == '0\t"0,ok,size=10;size=10\\n"\n'
    assert not (out / "sweep.csv").exists()


def test_sweep_grid_without_construction(tmp_path):
    # each cell's construction holds only the grid's keys, so it has no kind
    cfg = {"analyses": ["ranges"], "grid": {"p": [5, 7]}}
    rows = sweep(cfg, tmp_path / "s").read_text().splitlines()
    assert rows[1:] == [f"{i},error,config:construction must be an object with a 'kind'"
                        for i in (0, 1)]


SWEEP_RANDOM = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "sweep-random.json").read_text())


@pytest.mark.parametrize("tamper", [
    lambda ledger: b'x\t"0,ok,bad\\n"\n' + ledger.split(b"\n", 1)[1],  # no cell index
    lambda ledger: ledger + b'\xff0\t"0,ok,bad\\n"\n',  # not UTF-8
    lambda ledger: ledger + b'99\t"99,ok,stray\\n"\n',  # no cell of this grid
    lambda ledger: b"0\t0,ok,bad\n" + ledger.split(b"\n", 1)[1],  # a bare row, not JSON
    lambda ledger: b'0\t"0,ok,bad"\n' + ledger.split(b"\n", 1)[1],  # no row end
], ids=["index", "utf8", "stray", "bare", "unended"])
def test_sweep_redoes_malformed_ledger_lines(tmp_path, tamper):
    # a line that is not "<cell index>\t<row as a JSON string>\n" is redone
    # and not written back
    out = tmp_path / "s"
    expected = sweep(SWEEP_RANDOM, out).read_bytes()
    ledger = out / "sweep.ledger"
    clean = ledger.read_bytes()
    ledger.write_bytes(tamper(clean))
    assert sweep(SWEEP_RANDOM, out).read_bytes() == expected
    assert sorted(ledger.read_bytes().splitlines()) == sorted(clean.splitlines())


def test_sweep_resumes_rows_that_hold_a_newline(tmp_path, monkeypatch):
    # Fraction strips the newline of "1/4\n", so the cell runs, and its detail
    # keeps the newline: the CSV quotes it across two lines, the ledger keeps
    # the row on one
    cfg = {"construction": {"kind": "conjectureWitness", "p": 5, "d": 4},
           "analyses": ["energy"], "grid": {"s": ["1/4\n", "1/3"]}, "seed": 0}
    out = tmp_path / "s"
    first = sweep(cfg, out).read_bytes()
    assert first.splitlines()[1:3] == [b'0,ok,"s=1/4', b';size=5"']
    assert len((out / "sweep.ledger").read_bytes().splitlines()) == 2

    def no_report(config, E):
        raise AssertionError("a finished cell was run again")

    # the rerun replays both rows whole and runs no cell
    monkeypatch.setattr(harness, "report", no_report)
    assert sweep(cfg, out).read_bytes() == first


def test_sweep_records_grid_keys_the_construction_never_reads(tmp_path):
    cfg = {"construction": {"kind": "random", "p": 5, "d": 2, "size": 3},
           "analyses": ["energy"], "grid": {"sizee": [1, 2]}, "seed": 0}
    rows = sweep(cfg, tmp_path / "s").read_text().splitlines()
    assert rows[1:] == [f"{i},error,config:construction 'random' takes no parameter 'sizee'"
                        for i in (0, 1)]


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


def test_sweep_marks_cells_with_failing_gates(tmp_path, monkeypatch):
    # the p = 5 cell's energy identity is off: its row says which gate failed
    residual = spectral.energy_identity_residual
    monkeypatch.setattr(spectral, "energy_identity_residual",
                        lambda A, k: 1.0 if A.E.field.q == 5 else residual(A, k))
    cfg = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["fourier"],
           "grid": {"p": [3, 5]}, "seed": 0}
    rows = sweep(cfg, tmp_path / "s").read_text().splitlines()
    assert rows[1:] == ["0,ok,p=3;size=5", "1,gate,p=5;size=5;failedGates=energyIdentity"]


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_jobs_must_be_positive(tmp_path, jobs):
    with pytest.raises(ConfigError, match="jobs must be a positive integer"):
        sweep(SWEEP_CONFIG, tmp_path / "s", jobs=jobs)
    assert not (tmp_path / "s").exists()


def test_sweep_requires_grid(tmp_path):
    with pytest.raises(ConfigError):
        sweep({"analyses": ["energy"]}, tmp_path / "x")


def test_oracles(f5, f9):
    E = rand_set(f5, 2, 10, seed=2)
    single = PointSet.build(f5, 2, [(1, 1)])
    assert oracle_distances(single) == {0: 1}
    E9 = rand_set(f9, 3, 30, seed=4)
    assert oracle_distances(E9) == distance_profile(E9).counts
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2)])
    assert oracle_incidences(E, H) == count_incidences(E, H)


@pytest.mark.parametrize("d,codes", [(0, [0]), (0, []), (2, [])])
def test_oracles_match_kernels_on_degenerate_sets(f5, d, codes):
    # the one point of F_5^0, and empty sets
    E = PointSet.from_codes(f5, d, codes)
    assert len(E.points) == len(E)
    assert np.array_equal(half_power(E)[0], folded_power(E))
    assert oracle_distances(E) == distance_profile(E).counts
    for k in (2, 3):
        assert energy_bruteforce(E, k) == energy_convolution(E, k)


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
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 1), ((0, 0), 0, 2)])  # a = 0 allowed
    ep, hp = tmp_path / "e.txt", tmp_path / "h.txt"
    write_pointset(E, ep)
    write_hyperplanes(H, hp)
    assert main(["oracle", "incidences", str(ep), str(hp)]) == 0
    assert int(capsys.readouterr().out) == count_incidences(E, H)
    assert main(["oracle", "incidences", str(ep)]) == 3  # missing hyperplane file
    # the oracle charges |P| * |H| = 12 units
    with pytest.raises(BudgetExceeded):
        oracle_incidences(E, H, budget=11)
    assert main(["oracle", "incidences", str(ep), str(hp), "--budget", "1"]) == 4


@pytest.mark.parametrize("p,d", [(5, 3), (7, 2)], ids=["dimension", "field"])
def test_cli_oracle_incidences_mismatch_exit_3(tmp_path, capsys, f5, p, d):
    # points of F_p^d against hyperplanes of F_5^2, which count_incidences refuses
    E = rand_set(field_create(p, 1), d, 6, seed=1)
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 1)])
    for count in (oracle_incidences, count_incidences):
        with pytest.raises(ConfigError):
            count(E, H)
    ep, hp = tmp_path / "e.txt", tmp_path / "h.txt"
    write_pointset(E, ep)
    write_hyperplanes(H, hp)
    assert main(["oracle", "incidences", str(ep), str(hp)]) == 3
    assert capsys.readouterr().err == "config error: mismatched fields or dimensions\n"


@pytest.mark.parametrize("kind", ["lambda4", "incidences"])
@pytest.mark.parametrize("content", [
    None, b"\xff\xfe not text\n", b"q=3^2 modulus=x,0,1\nd=1\n1\n", b"q=5^1 modulus=\nd=1\n1\n"],
    ids=["missing", "not-text", "bad-modulus", "empty-modulus"])
def test_cli_oracle_unreadable_files_exit_3(tmp_path, capsys, f5, kind, content):
    # a missing file, one that is not text, and a malformed modulus: one line
    # on stderr and exit 3, as the point-set file and as the hyperplane file
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    if content is not None:
        bad.write_bytes(content)
    write_pointset(rand_set(f5, 2, 6, seed=1), good)
    files = [[bad]] if kind == "lambda4" else [[bad, good], [good, bad]]
    for paths in files:
        assert main(["oracle", kind, *map(str, paths)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_cli_oracle_budget_must_be_positive(tmp_path, capsys, f5, budget):
    # the rule a config's budget follows: a positive integer, else exit 3
    path = tmp_path / "e.txt"
    write_pointset(rand_set(f5, 2, 6, seed=1), path)
    assert main(["oracle", "lambda4", str(path), "--budget", budget]) == 3
    assert capsys.readouterr().err == "config error: budget must be a positive integer\n"


@pytest.mark.parametrize("body", ["1 2 mult=2", "9 2 b=1"])
def test_cli_oracle_incidences_bad_hyperplane_file(tmp_path, capsys, f5, body):
    # a line without an offset, and a normal vector outside F_5: both exit 3
    ep, hp = tmp_path / "e.txt", tmp_path / "h.txt"
    write_pointset(rand_set(f5, 2, 6, seed=1), ep)
    hp.write_text(f"q=5^1\nd=2\n{body}\n")
    assert main(["oracle", "incidences", str(ep), str(hp)]) == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"construction": {"kind": "random", "p": 5, "d": 2}, "analyses": ["energy"]},
    {"construction": {"kind": "random", "p": 5, "d": 2, "size": 5},
     "analyses": ["energy"], "k": "two"},
    {"construction": {"kind": "conjectureWitness", "p": 3, "d": 4, "s": "1/0"},
     "analyses": ["energy"]},
    {"construction": {"kind": "random", "p": 3, "d": 2, "size": -2}, "analyses": ["energy"]},
    # integer values are JSON integers: never truncated or parsed
    {"construction": {"kind": "random", "p": 7.9, "d": 2, "size": 3}, "analyses": ["energy"]},
    {"construction": {"kind": "random", "p": 5, "d": 2, "size": 3.7}, "analyses": ["energy"]},
    {"construction": {"kind": "random", "p": 5, "d": 2, "size": 3},
     "analyses": ["energy"], "k": 2.9},
    {"construction": {"kind": "random", "p": "7", "d": 2, "size": 3}, "analyses": ["energy"]},
    {"construction": {"kind": "fullSpace", "p": 5, "d": True}, "analyses": ["energy"]},
    {"analyses": ["ranges"], "dims": [True]},
    # k < 1 is refused on the empty set too
    {"construction": {"kind": "random", "p": 5, "d": 2, "size": 0},
     "analyses": ["energy"], "k": 0},
    # the threshold formulas need d >= 2; d = 0 divided by zero
    {"analyses": ["ranges"], "dims": [0], "sValues": []}])
def test_cli_bad_config_values_exit_3(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["analyze", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command,config", [
    ("analyze", {"analyses": 5}),
    ("analyze", {"construction": 5, "analyses": ["energy"]}),
    ("analyze", {**ISO_CONFIG, "tolerances": []}),
    ("analyze", {"analyses": ["ranges"], "sValues": ["abc"]}),
    ("analyze", {"analyses": ["ranges"], "dims": ["x"]}),
    ("sweep", {**ISO_CONFIG, "grid": {"size": 5}}),
    ("analyze", {**ISO_CONFIG, "budget": True}),
    # --seed and --budget are written into the config, which must be an object
    ("analyze --seed 1", [1, 2]),
    ("sweep --budget 5", [1, 2]),
    # a seed is an integer, for run and sweep alike
    ("analyze", {**ISO_CONFIG, "seed": "x"}),
    ("analyze", {**ISO_CONFIG, "seed": None}),
    ("analyze", {**ISO_CONFIG, "seed": 1.5}),
    ("sweep", {**ISO_CONFIG, "grid": {"m": [2]}, "seed": "x"}),
    ("sweep", {**ISO_CONFIG, "grid": {"m": [2]}, "seed": None}),
    ("sweep", {**ISO_CONFIG, "grid": {"m": [2]}, "seed": 1.5})])
def test_cli_malformed_config_exit_3(tmp_path, capsys, command, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = [*command.split(), "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", [
    "verify --confg c.json", "field 5 x", "analyze --config c.json --jobs 4", ""])
def test_cli_usage_error_exit_3(capsys, argv):
    # argparse exits 2, the gate-failure code; a usage error is a config error
    assert main(argv.split()) == 3
    assert "usage: fqsalem" in capsys.readouterr().err


def test_cli_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: fqsalem" in capsys.readouterr().out
    assert build_parser() is build_parser()  # built once per process


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


@pytest.mark.parametrize("construction", [
    {"kind": "orbit", "p": 3, "r": 3},
    {"kind": "subgroupPower", "p": 5, "r": 3, "m": 2, "d": 2}])
def test_tables_charge_the_report_budget(tmp_path, capsys, construction):
    # the construction builds the tables first; the report's budget is still
    # charged q^2 for them (the pair pass needs only 49 and 16 units)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"construction": construction, "analyses": ["energy"],
                                "budget": 700}))
    assert main(["analyze", "--config", str(path)]) == 4
    assert capsys.readouterr().err.startswith("budget exceeded: F_")


@pytest.mark.parametrize("construction,scan", [
    ({"kind": "sphere", "p": 5, "d": 7, "j": 1}, "full scan of F_5^7 needs 78125 units"),
    ({"kind": "fullSpace", "p": 3, "d": 5}, "full scan of F_3^5 needs 243 units"),
    ({"kind": "paraboloid", "p": 5, "d": 5}, "paraboloid enumeration needs 625 units"),
    ({"kind": "random", "p": 5, "d": 4, "size": 3}, "random sample from F_5^4 needs 625 units"),
    ({"kind": "subgroupPower", "p": 7, "m": 6, "d": 7}, "product set needs 216 units"),
    ({"kind": "isotropic", "p": 5, "d": 16, "m": 8},
     "isotropic span in F_5^16 needs 390625 units"),
    ({"kind": "orbit", "p": 3, "r": 3}, "F_27 lookup tables needs 729 units")])
def test_constructions_charge_the_config_budget(tmp_path, capsys, construction, scan):
    # the scan is refused before it runs, with no analysis asked for
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"construction": construction, "analyses": [], "budget": 100}))
    for command in ("analyze", "construct"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == f"budget exceeded: {scan}, budget is 100\n"


def test_pair_pass_charges_n_squared(tmp_path, capsys):
    # the one pair pass charges |E|^2 = 100 units; the set and the field
    # tables charge q^d = q^2 = 25
    cfg = {"construction": {"kind": "random", "p": 5, "d": 2, "size": 10},
           "analyses": ["energy", "salem", "distance", "incidence"], "seed": 1}
    path = tmp_path / "c.json"
    for budget, code in ((100, 0), (99, 4)):
        path.write_text(json.dumps({**cfg, "budget": budget}))
        assert main(["verify", "--config", str(path)]) == code
    assert capsys.readouterr().err == "budget exceeded: pair counts needs 100 units, budget is 99\n"


def test_cli_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    # ISO_CONFIG's set lies on one sphere (radius 0), so the difference family
    # must reproduce Lambda_4 exactly; a Lambda_4 off by one breaks that
    patch_everywhere(monkeypatch, pair_counts, lam4_off_by(lambda E: 1))
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


SWEEP_CONFIG = {"construction": {"kind": "random", "p": 3, "d": 2, "size": 5},
                "analyses": ["energy"], "grid": {"p": [3]}}


def test_cli_construct_creates_parent_directories(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    out = tmp_path / "a" / "b" / "set.txt"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_pointset(out)) == 5


@pytest.mark.parametrize("command", ["construct", "analyze", "sweep"])
def test_cli_output_path_that_cannot_be_created_exit_3(tmp_path, capsys, command):
    # the output, or its parent directory, is an existing file
    cfg, blocker = tmp_path / "c.json", tmp_path / "file"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    blocker.write_text("")
    out = blocker if command == "sweep" else blocker / "out.txt"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["sweep.ledger", "sweep.stamp", "sweep.csv"])
def test_cli_sweep_output_file_that_is_a_directory_exit_3(tmp_path, capsys, name):
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    (out / name).mkdir(parents=True)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot ") and name in err and err.count("\n") == 1


def test_cli_sweep_jobs_0_exit_3(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "0"]) == 3
    assert capsys.readouterr().err == "config error: jobs must be a positive integer, got 0\n"
    assert not out.exists()


def test_cli_ranges(capsys):
    assert main(["ranges", "--d", "2", "4", "--s", "1/4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2 and all(r["crossoversExact"] for r in rows)


RANGES_TEXT = """\
  d      s     conj improved     branch energyRoute   sphere
  2    1/4        1        2  incidence        2      3/2
  2    3/8        1      8/5  incidence      4/3      6/5
  2    1/2        1      4/3  incidence        1        1
  3    1/4        2      5/2  incidence        3        2
  3    3/8      4/3        2  incidence        2      8/5
  3    1/2        1      5/3  incidence      3/2      4/3
  4    1/4        2        3  incidence        4      5/2
  4    3/8        2     12/5  incidence      8/3        2
  4    1/2      3/2        2        tie        2      5/3
  5    1/4        3      7/2  incidence        5        3
  5    3/8        2     14/5  incidence     10/3     12/5
  5    1/2      3/2      9/4     energy      5/2        2
  6    1/4        3        4  incidence        6      7/2
  6    3/8      8/3     16/5  incidence        4     14/5
  6    1/2        2      5/2     energy        3      7/3
"""


def test_cli_ranges_output_pinned(capsys):
    # the default table as text and as JSON, byte for byte
    assert main(["ranges"]) == 0
    assert capsys.readouterr().out == RANGES_TEXT
    keys = ("d", "s", "conjectured", "improved", "branch", "energyRoute", "sphere")
    rows = [{**dict(zip(keys, line.split())), "crossoversExact": True}
            for line in RANGES_TEXT.splitlines()[1:]]
    for row in rows:
        row["d"] = int(row["d"])
    assert main(["ranges", "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"


@pytest.mark.parametrize("s", ["abc", "0/0"])
def test_cli_ranges_bad_s_exit_3(capsys, s):
    assert main(["ranges", "--d", "2", "--s", s]) == 3
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_sweep(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"construction": {"kind": "random", "d": 2, "size": 5},
                               "analyses": ["energy"],
                               "grid": {"p": [3, 5]}, "seed": 1}))
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
