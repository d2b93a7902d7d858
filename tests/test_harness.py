"""Config validation, reports, sweeps, oracles, and the CLI."""

import builtins
import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

try:
    import resource
except ImportError:  # no such module off Unix
    resource = None

import numpy as np
import pytest

from conftest import folded_power, nonzero_counts, rand_set, write_hyperplanes
import fqsalem
from fqsalem import analysis, energy, harness
from fqsalem.analysis import Analysis, render_report
from fqsalem.cli import build_parser, main
from fqsalem.distance import distance_profile
from fqsalem.energy import PairCounts, energy_bruteforce, energy_convolution, pair_counts
from fqsalem.errors import BudgetExceeded, ConfigError, InvariantViolation, budget_scope
from fqsalem.field import field_create
from fqsalem.geometry import (HyperplaneMultiset, PointSet, read_pointset, write_file,
                              write_pointset)
from fqsalem.harness import oracle_distances, oracle_incidences, run, sweep, validate_config
from fqsalem.incidence import count_incidences
from fqsalem.spectral import half_power, power_sums

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
    def faulty(E):
        pairs = pair_counts(E)
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
    with pytest.raises(ConfigError, match=r"unknown analysis \['x'\]"):
        validate_config({"analyses": [["x"]]})  # unhashable: not a TypeError
    with pytest.raises(ConfigError):
        validate_config({"construction": {"p": 5}})
    with pytest.raises(ConfigError, match="tolerance parseval must be positive and finite"):
        validate_config({"analyses": ["fourier"], "tolerances": {"parseval": -1}})
    with pytest.raises(ConfigError, match="tolerance parseval must be positive and finite"):
        validate_config({"analyses": ["fourier"], "tolerances": {"parseval": float("inf")}})
    with pytest.raises(ConfigError):
        validate_config({"budget": 0})
    with pytest.raises(ConfigError):
        validate_config([1, 2])


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("extra,message", [
    ({"analysis": ["fourier"]}, "unknown config key 'analysis'"),  # for analyses
    ({"sValue": ["1/4"]}, "unknown config key 'sValue'"),
    ({"budjet": 100}, "unknown config key 'budjet'"),
    ({"tolerances": {"parsevl": 1e-300}}, "unknown tolerance 'parsevl'"),
    ({"tolerances": {"parseval": 1e-3, "lInfNorm": 1.0}}, "unknown tolerance 'lInfNorm'")],
    ids=["analysis", "sValue", "budjet", "parsevl", "lInfNorm"])
def test_config_keys_that_nothing_reads_are_config_errors(tmp_path, capsys, command,
                                                          extra, message):
    # a misspelt key would be ignored: a verify that checks nothing exits 0
    config = {**ISO_CONFIG, **extra}
    if command == "sweep":
        config["grid"] = {"m": [1, 2]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"config error: {message}; known: ")


def test_every_key_a_config_may_have_is_read(tmp_path):
    config = {**ISO_CONFIG, "analyses": ["fourier", "energy", "ranges"], "budget": 10 ** 6,
              "tolerances": {"parseval": 1e-9, "energyIdentity": 1e-8}, "k": 3,
              "dims": [2], "sValues": ["1/4"], "grid": {"m": [1, 2]}}
    assert validate_config(config) is config
    rows = sweep(config, tmp_path).read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["ok", "ok"]


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
    # The spectrum is transformed once, on the Hermitian half only, and summed
    # in one power_sums call, and the energy, salem and distance sections
    # share one Salem parameter. nu is summed once, though the distance section
    # reads it five times
    calls = {fn.__name__: count_calls(monkeypatch, fn)
             for fn in (pair_counts, energy_convolution, distance_profile, half_power,
                        power_sums)}
    nu_sums, nu = [], PairCounts.nu.func

    def counted_nu(self):
        nu_sums.append(self)
        return nu(self)

    monkeypatch.setattr(PairCounts, "nu", functools.cached_property(counted_nu))
    PairCounts.nu.__set_name__(PairCounts, "nu")
    computed, once = [], Analysis._once

    def recorded_once(self, key, compute):
        if key not in self._values:
            computed.append(key)
        return once(self, key, compute)

    monkeypatch.setattr(Analysis, "_once", recorded_once)
    rep = run({"construction": {"kind": "random", "p": p, "r": r, "d": 3, "size": 40},
               "analyses": ALL_SET_ANALYSES, "k": 2, "seed": 3})
    assert rep["allGatesPass"]
    assert {name: len(c) for name, c in calls.items()} == {
        "pair_counts": 1, "energy_convolution": 0, "distance_profile": 0, "half_power": 1,
        "power_sums": 1}
    assert computed.count("salem_s") == 1
    assert len(nu_sums) == 1


@pytest.mark.parametrize("construction,cells,transforms", [
    # the witness is a rotation orbit times a null span, each in F_25^2: its
    # record combines the whole 625-cell transforms of its two factors
    pytest.param({"kind": "conjectureWitness", "p": 5, "r": 2, "d": 4, "s": "1/4"}, 25 ** 2, 2,
                 id="construction0-625"),
    # 150 random points span F_25^4: the whole grid is transformed
    pytest.param({"kind": "random", "p": 5, "r": 2, "d": 4, "size": 150}, 25 ** 4, 1,
                 id="construction1-390625"),
    # a null span, no product, lies in an affine F_5-subspace of dimension 4
    # of (Z/5)^8: its span is transformed
    pytest.param({"kind": "isotropic", "p": 5, "r": 2, "d": 4, "m": 2}, 5 ** 4, 1,
                 id="construction2-625")])
def test_the_spectrum_transforms_the_affine_span(monkeypatch, construction, cells, transforms):
    calls = count_calls(monkeypatch, half_power)
    rep = run({"construction": construction, "analyses": ["fourier"], "seed": 0})
    assert rep["allGatesPass"]
    assert [c["E"].field.q ** c["E"].d for c in calls] == [cells] * transforms


@pytest.mark.parametrize("construction,passes", [
    # products whose factors' keys multiply to a small share of the n^2 pairs
    # are counted from one pass per factor: the witness's 6 x 25 (19 x 25
    # keys) and the null span times the circle, 25 x 24 (25 x 289 keys)
    ({"kind": "conjectureWitness", "p": 5, "r": 2, "d": 4, "s": "1/4"}, [6, 25]),
    ({"kind": "twoSetPair", "p": 5, "r": 2, "d": 4}, [25, 24]),
    # A x A of 13 points has 157 x 157 keys: its one factor pass, then the
    # direct pass over its 169 points
    ({"kind": "subgroupPower", "p": 3, "r": 3, "m": 13, "d": 2}, [13, 169])])
def test_the_pair_counts_of_a_product_come_from_its_factors(monkeypatch, construction, passes):
    calls = count_calls(monkeypatch, energy._pair_pass)
    run({"construction": construction, "analyses": ALL_SET_ANALYSES, "seed": 0})
    assert [len(c["E"]) for c in calls] == passes


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
    csv_path = sweep(cfg, out)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "cell,status,detail"
    assert len(rows) == 1 + 6
    # resume: a row that re-renders byte for byte is trusted verbatim, so
    # finished cells are not redone
    rows[1] = "0,ok,resumed-marker"
    csv_path.write_text("\n".join(rows) + "\n")
    sweep(cfg, out)
    assert "resumed-marker" in csv_path.read_text()


def test_sweep_refuses_rows_of_another_config(tmp_path):
    cfg = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["energy"],
           "grid": {"p": [3, 5]}, "seed": 2}
    out = tmp_path / "s"
    rows = sweep(cfg, out).read_text().splitlines()
    assert rows[1:] == ["0,ok,p=3;size=5", "1,ok,p=5;size=5"]
    cfg = {**cfg, "construction": {"kind": "random", "d": 2, "size": 7},
           "analyses": ["energy", "salem"]}
    rows = sweep(cfg, out).read_text().splitlines()
    assert [r.split(";")[:2] for r in rows[1:]] == [["0,ok,p=3", "size=7"],
                                                    ["1,ok,p=5", "size=7"]]
    assert all("salemS=" in r for r in rows[1:])
    # the same config again resumes from the rewritten CSV
    csv_path = out / "sweep.csv"
    csv_path.write_text(csv_path.read_text().replace("size=7", "size=resumed", 1))
    assert "size=resumed" in sweep(cfg, out).read_text()
    # another seed is another config
    assert "size=resumed" not in sweep({**cfg, "seed": 3}, out).read_text()


def test_sweep_refuses_rows_of_another_report_format(tmp_path, monkeypatch):
    # the CSV and stamp of an fqsalem whose reports had another format: a
    # rerun after the upgrade recomputes every row
    cfg = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["energy"],
           "grid": {"p": [3, 5]}, "seed": 2}
    out = tmp_path / "s"
    monkeypatch.setattr(analysis, "REPORT_FORMAT", analysis.REPORT_FORMAT - 1)
    csv_path = sweep(cfg, out)
    csv_path.write_text(csv_path.read_text().replace("size=5", "size=stale"))
    monkeypatch.undo()
    assert sweep(cfg, out).read_text().splitlines()[1:] == ["0,ok,p=3;size=5", "1,ok,p=5;size=5"]
    # the rewritten CSV is this format's, so the next rerun replays it
    csv_path.write_text(csv_path.read_text().replace("size=5", "size=resumed", 1))
    assert "size=resumed" in sweep(cfg, out).read_text()


def test_sweep_keeps_finished_rows_when_a_cell_fails(tmp_path, monkeypatch):
    # ISO_CONFIG's sets lie on one sphere, so the incidence section checks the
    # difference family against Lambda_4 exactly; only cell 1 (m = 2, 25
    # points) gets a Lambda_4 off by one
    patch_everywhere(monkeypatch, pair_counts, lam4_off_by(lambda E: len(E) > 5))
    cfg = {**ISO_CONFIG, "analyses": ["incidence"], "grid": {"m": [1, 2]}}
    out = tmp_path / "s"
    with pytest.raises(InvariantViolation):
        sweep(cfg, out)
    csv_path = out / "sweep.csv"
    assert [ln.split(",")[0] for ln in csv_path.read_text().splitlines()] == ["cell", "0"]
    # without the fault, cell 0 is resumed from the CSV and cell 1 computed
    monkeypatch.undo()
    csv_path.write_text("cell,status,detail\n0,ok,resumed-marker\n")
    rows = sweep(cfg, out).read_text().splitlines()
    assert rows[1] == "0,ok,resumed-marker"
    assert rows[2].startswith("1,ok,")


def test_sweep_jobs_independent(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"construction": {"kind": "random", "size": 8},
                               "analyses": ["energy", "salem"],
                               "grid": {"p": [3, 5], "d": [2, 3]},
                               "seed": 5}))
    for jobs in ("1", "8"):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    assert (tmp_path / "1" / "sweep.csv").read_bytes() == (tmp_path / "8" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_runs_every_cell_in_the_calling_thread(tmp_path, capsys, monkeypatch, jobs):
    caller, before = threading.current_thread(), set(threading.enumerate())
    seen = []
    real = analysis.report

    def recorded(config, E):
        seen.append((threading.current_thread(), set(threading.enumerate()) - before))
        return real(config, E)

    monkeypatch.setattr(analysis, "report", recorded)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"construction": {"kind": "random", "p": 5, "r": 2, "d": 3},
                               "analyses": ["energy"], "grid": {"size": [10, 20]}, "seed": 3}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                 "--jobs", str(jobs)]) == 0
    assert seen == [(caller, set())] * 2


@pytest.mark.skipif(not sys.platform.startswith("linux") or resource is None
                    or not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"),
                    reason="counts Linux minor faults")
def test_sweep_cells_on_one_grid_touch_no_fresh_memory(tmp_path):
    # the sampler's and the transform's q^d-sized temporaries live in per-thread
    # scratch, so a repeated sweep over the 117 649 cells of F_49^3 does not
    # fault them in again (2 304 faults a sweep when each was fresh)
    config = {"construction": {"kind": "random", "p": 7, "r": 2, "d": 3},
              "analyses": ALL_SET_ANALYSES, "grid": {"size": [12, 24, 48, 96]}, "seed": 0}
    sweep(config, tmp_path / "warm-up")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweep(config, tmp_path / "again")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 100 * 4


def test_sweep_cli_stops_at_a_failing_cell(tmp_path, capsys, monkeypatch):
    real = analysis.report

    def faulty(config, E):
        if len(E) == 20:
            raise InvariantViolation("cell 1")
        return real(config, E)

    monkeypatch.setattr(analysis, "report", faulty)
    cfg = {"construction": {"kind": "random", "p": 5, "d": 2},
           "analyses": ["energy"], "grid": {"size": [10, 20, 15]}, "seed": 3}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--jobs", "2"]) == 5
    assert capsys.readouterr().err == "invariant violated: cell 1\n"
    assert (out / "sweep.csv").read_text() == "cell,status,detail\n0,ok,size=10;size=10\n"
    assert sorted(f.name for f in out.iterdir()) == ["sweep.csv", "sweep.stamp"]
    # the rerun computes cells 1 and 2 only, and writes what one run would
    monkeypatch.undo()
    seen = count_cells(monkeypatch)
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert [c["size"] for c in seen] == [20, 15]
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "whole")]) == 0
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "whole" / "sweep.csv").read_bytes()


def test_sweep_grid_without_construction(tmp_path):
    # each cell's construction holds only the grid's keys, so it has no kind
    cfg = {"analyses": ["ranges"], "grid": {"p": [5, 7]}}
    rows = sweep(cfg, tmp_path / "s").read_text().splitlines()
    assert rows[1:] == [f"{i},error,config:construction must be an object with a 'kind'"
                        for i in (0, 1)]


SWEEP_RANDOM = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "sweep-random.json").read_text())


def count_cells(monkeypatch) -> list:
    """Record the construction of each cell a sweep computes."""
    seen, real = [], harness.build_set

    def recorded(config):
        seen.append(config["construction"])
        return real(config)

    monkeypatch.setattr(harness, "build_set", recorded)
    return seen


# each tamper, and how many of sweep-random's six cells a rerun computes again
@pytest.mark.parametrize("tamper,redone", [
    (lambda text: text.replace(b"\n0,", b"\nx,", 1), 6),  # no cell index
    (lambda text: text.replace(b"\n5,", b"\n\xff5,", 1), 1),  # not UTF-8
    (lambda text: text + b"99,ok,stray\n", 0),  # no cell of this grid
    (lambda text: text.replace(b"\n3,ok,d=3;", b"\n3,ok,d=3,", 1), 3),  # a bare comma
    (lambda text: text.replace(b"\n2,ok,", b'\n"2",ok,', 1), 4),  # quoted, as never written
    (lambda text: text[:-1], 1),  # no row end
], ids=["index", "utf8", "stray", "bare", "quoted", "unended"])
def test_sweep_redoes_malformed_ledger_lines(tmp_path, monkeypatch, tamper, redone):
    # sweep.csv is the sweep's ledger: the first line that is not the row the
    # sweep would write for its cell is redone, and so is every line after it
    out = tmp_path / "s"
    expected = sweep(SWEEP_RANDOM, out).read_bytes()
    (out / "sweep.csv").write_bytes(tamper(expected))
    seen = count_cells(monkeypatch)
    assert sweep(SWEEP_RANDOM, out).read_bytes() == expected
    assert len(seen) == redone


def test_sweep_resumes_rows_that_hold_a_newline(tmp_path, monkeypatch):
    # Fraction strips the newline of "1/4\n", so the cell runs, and its detail
    # keeps the newline: the CSV quotes it across two lines
    cfg = {"construction": {"kind": "conjectureWitness", "p": 5, "d": 4},
           "analyses": ["energy"], "grid": {"s": ["1/4\n", "1/3"]}, "seed": 0}
    first = sweep(cfg, tmp_path / "whole").read_bytes()
    assert first.splitlines()[1:3] == [b'0,ok,"s=1/4', b';size=5"']
    # a failure at cell 1 keeps row 0 whole, and the rerun computes cell 1 only
    out = tmp_path / "s"
    real = analysis.report

    def fail_cell_1(config, E):
        if config["construction"]["s"] == "1/3":
            raise InvariantViolation("cell 1")
        return real(config, E)

    monkeypatch.setattr(analysis, "report", fail_cell_1)
    with pytest.raises(InvariantViolation):
        sweep(cfg, out)
    assert (out / "sweep.csv").read_bytes() == first[:first.index(b"\n1,") + 1]
    monkeypatch.undo()
    seen = count_cells(monkeypatch)
    assert sweep(cfg, out).read_bytes() == first
    assert seen == [{"kind": "conjectureWitness", "p": 5, "d": 4, "s": "1/3"}]
    # the rerun replays both rows whole and runs no cell
    seen.clear()
    assert sweep(cfg, out).read_bytes() == first
    assert seen == []
    # row 0 cut short inside its quotes is redone, with every row after it
    (out / "sweep.csv").write_bytes(first[:first.index(b";size=5")])
    assert sweep(cfg, out).read_bytes() == first
    assert len(seen) == 2


def test_sweep_resumes_rows_that_hold_a_carriage_return(tmp_path, monkeypatch):
    # Fraction strips "1/4\r" as it strips "1/4\n", and the detail keeps the
    # carriage return: unquoted, csv.reader would split row 0 in two there, so
    # no rerun could replay it
    cfg = {"construction": {"kind": "conjectureWitness", "p": 5, "d": 4},
           "analyses": ["energy"], "grid": {"s": ["1/4\r", "1/3"]}, "seed": 0}
    out = tmp_path / "s"
    first = sweep(cfg, out).read_bytes()
    assert first.split(b"\n")[1] == b'0,ok,"s=1/4\r;size=5"'
    seen = count_cells(monkeypatch)
    assert sweep(cfg, out).read_bytes() == first
    assert seen == []


def test_sweep_rerun_of_another_config_leaves_no_stale_rows(tmp_path, monkeypatch):
    # config A runs to the end, then config B fails at its cell 1 in the same
    # directory: the CSV holds B's row 0 alone, and B's rerun computes cell 1 on
    cfg_a = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["energy"],
             "grid": {"p": [3, 5, 7]}, "seed": 2}
    cfg_b = {**cfg_a, "analyses": ["energy", "salem"]}
    out = tmp_path / "s"
    sweep(cfg_a, out)
    whole = sweep(cfg_b, tmp_path / "whole").read_bytes()
    real = analysis.report

    def fail_cell_1(config, E):
        if E.field.q == 5:
            raise InvariantViolation("cell 1")
        return real(config, E)

    monkeypatch.setattr(analysis, "report", fail_cell_1)
    with pytest.raises(InvariantViolation):
        sweep(cfg_b, out)
    assert (out / "sweep.csv").read_bytes() == whole[:whole.index(b"\n1,") + 1]
    monkeypatch.undo()
    seen = count_cells(monkeypatch)
    assert sweep(cfg_b, out).read_bytes() == whole
    assert [c["p"] for c in seen] == [5, 7]


def test_cli_sweep_rewrites_a_stamp_that_is_not_utf8(tmp_path, capsys):
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    out.mkdir()
    (out / "sweep.stamp").write_bytes(b"\xff\xff")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    stamp = (out / "sweep.stamp").read_bytes()
    assert len(stamp) == 65 and stamp.endswith(b"\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "fresh")]) == 0
    assert (tmp_path / "fresh" / "sweep.stamp").read_bytes() == stamp
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "fresh" / "sweep.csv").read_bytes()


def test_sweep_recomputes_a_directory_of_the_json_line_ledger(tmp_path, monkeypatch):
    # what earlier versions left after config A ran to the end and config B
    # failed at its cell 1: B's stamp (a hash of the report format and the
    # config), B's row 0 in sweep.ledger as "<index>\t<row as JSON>\n", and
    # A's rows in sweep.csv. A rerun of B replays neither file
    cfg_a = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["energy"],
             "grid": {"p": [3, 5, 7]}, "seed": 2}
    cfg_b = {**cfg_a, "analyses": ["energy", "salem"]}
    whole = sweep(cfg_b, tmp_path / "whole").read_bytes()
    out = tmp_path / "s"
    sweep(cfg_a, out)
    stamp = json.dumps([analysis.REPORT_FORMAT, cfg_b], sort_keys=True, default=str)
    (out / "sweep.stamp").write_text(hashlib.sha256(stamp.encode()).hexdigest() + "\n")
    row0 = whole.decode().splitlines(keepends=True)[1]
    (out / "sweep.ledger").write_text(f"0\t{json.dumps(row0)}\n")
    seen = count_cells(monkeypatch)
    assert sweep(cfg_b, out).read_bytes() == whole
    assert [c["p"] for c in seen] == [3, 5, 7]


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
    csv_path = sweep(cfg, tmp_path / "s")
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


@pytest.mark.parametrize("construction,message", [
    ({"kind": "fullSpace", "d": -1}, "dimension must be >= 0, got -1"),
    ({"kind": "random", "d": -1, "size": 0}, "dimension must be >= 0, got -1"),
    ({"kind": "paraboloid", "d": 0}, "a paraboloid needs d >= 1, got 0"),
    ({"kind": "paraboloid", "d": -1}, "a paraboloid needs d >= 1, got -1"),
    ({"kind": "sphere", "d": -2, "j": 1}, "dimension must be >= 0, got -2"),
    ({"kind": "sphere", "d": 2, "j": 7}, "radius 7 is not in F_5"),
    ({"kind": "sphere", "d": 2, "j": -1}, "radius -1 is not in F_5"),
    ({"kind": "subgroupPower", "m": 2, "d": 0}, "a subgroup power needs d >= 1, got 0")])
def test_out_of_range_dimensions_and_radii_are_config_errors(tmp_path, capsys,
                                                             construction, message):
    # never a set in F_q^{-1}, a TypeError, A itself for A^0 or an empty sphere
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"construction": {**construction, "p": 5},
                                "analyses": ["energy"]}))
    assert main(["analyze", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    cfg = {"construction": construction, "analyses": ["energy"], "grid": {"p": [5]}, "seed": 0}
    with open(sweep(cfg, tmp_path / "s"), newline="") as fh:
        assert list(csv.reader(fh))[1] == ["0", "error", f"config:{message}"]


def test_sweep_marks_cells_with_failing_gates(tmp_path, monkeypatch):
    # the p = 5 cell's energy identity is off: its row says which gate failed
    spectrum = Analysis.spectrum.fget

    def off(A):
        S = spectrum(A)
        return dataclasses.replace(S, sum4=2 * S.sum4) if A.E.field.q == 5 else S

    monkeypatch.setattr(Analysis, "spectrum", property(off))
    cfg = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["fourier"],
           "grid": {"p": [3, 5]}, "seed": 0}
    rows = sweep(cfg, tmp_path / "s").read_text().splitlines()
    assert rows[1:] == ["0,ok,p=3;size=5", "1,gate,p=5;size=5;failedGates=energyIdentity"]


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_jobs_must_be_positive(tmp_path, capsys, jobs):
    # refused before --out is created
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == 3
    assert capsys.readouterr().err == f"config error: jobs must be a positive integer, got {jobs}\n"
    assert not out.exists()


def test_sweep_requires_grid(tmp_path):
    with pytest.raises(ConfigError):
        sweep({"analyses": ["energy"]}, tmp_path / "x")


def test_oracles(f5, f9):
    E = rand_set(f5, 2, 10, seed=2)
    single = PointSet.build(f5, 2, [(1, 1)])
    assert oracle_distances(single) == {0: 1}
    E9 = rand_set(f9, 3, 30, seed=4)
    assert oracle_distances(E9) == nonzero_counts(pair_counts(E9).nu)
    H = HyperplaneMultiset.build(f5, 2, [((1, 0), 1, 2)])
    assert oracle_incidences(E, H) == count_incidences(E, H)


@pytest.mark.parametrize("d,codes", [(0, [0]), (0, []), (2, [])])
def test_oracles_match_kernels_on_degenerate_sets(f5, d, codes):
    # the one point of F_5^0, and empty sets
    E = PointSet.from_codes(f5, d, codes)
    assert len(E.points) == len(E)
    assert np.array_equal(half_power(E), folded_power(E))
    assert oracle_distances(E) == nonzero_counts(pair_counts(E).nu)
    for k in (2, 3):
        assert energy_bruteforce(E, k) == energy_convolution(E, k)


def test_cli_field(capsys):
    assert main(["field", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["q"] == 5 and out["primitiveElement"] == 2


def test_cli_field_large_safe_prime(capsys):
    # q - 1 = 2 * prime: dividing up to sqrt(q - 1) to factor it took 31 s
    q = 72057594037930967
    assert main(["field", str(q)]) == 0
    g = json.loads(capsys.readouterr().out)["primitiveElement"]
    assert pow(g, 2, q) != 1 and pow(g, (q - 1) // 2, q) != 1


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


def test_cli_construct_and_oracle_dimension_zero(tmp_path, capsys):
    # F_5^0 has one point, written as an empty line; the oracles read it back
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"construction": {"kind": "fullSpace", "p": 5, "d": 0}}))
    out = tmp_path / "point.txt"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 1 points to {out}\n"
    assert out.read_text() == "q=5^1\nd=0\n\n"
    assert main(["oracle", "lambda4", str(out)]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["oracle", "distances", str(out)]) == 0
    assert capsys.readouterr().out == '{"0": 1}\n'


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
    with budget_scope(11), pytest.raises(BudgetExceeded):
        oracle_incidences(E, H)
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


def test_oracle_incidences_charges_before_it_builds_the_tuples(f5):
    # the charge counts the coded rows; the (a, b, mult) tuple view is built
    # only for a call within the budget
    E = rand_set(f5, 2, 6, seed=1)
    H = HyperplaneMultiset.build(f5, 2, [((1, 2), 3, 1), ((0, 0), 0, 2)])
    with budget_scope(11), pytest.raises(BudgetExceeded, match="oracle needs 12 units"):
        oracle_incidences(E, H)
    assert "entries" not in H.__dict__
    with budget_scope(12):
        N = oracle_incidences(E, H)
    assert "entries" in H.__dict__ and N == count_incidences(E, H)


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_cli_oracle_budget_must_be_positive(tmp_path, capsys, f5, budget):
    # the rule a config's budget follows: a positive integer, else exit 3
    path = tmp_path / "e.txt"
    write_pointset(rand_set(f5, 2, 6, seed=1), path)
    assert main(["oracle", "lambda4", str(path), "--budget", budget]) == 3
    assert capsys.readouterr().err == "config error: budget must be a positive integer\n"


@pytest.mark.parametrize("body", ["1 2 mult=2", "9 2 b=1", "1 2 b=1 b=4"])
def test_cli_oracle_incidences_bad_hyperplane_file(tmp_path, capsys, f5, body):
    # a line without an offset, a normal vector outside F_5 and a repeated
    # offset: each exits 3
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
    ("sweep", {**ISO_CONFIG, "grid": {"m": [2]}, "seed": 1.5}),
    # an analysis name that is not a str cannot be looked up
    ("analyze", {"analyses": [["x"]]}),
    ("analyze", {"analyses": [{"a": 1}]}),
    # json writes and reads these as Infinity and NaN; Infinity would turn the gate off
    ("verify", {**ISO_CONFIG, "tolerances": {"parseval": float("inf")}}),
    ("verify", {**ISO_CONFIG, "tolerances": {"energyIdentity": float("nan")}})])
def test_cli_malformed_config_exit_3(tmp_path, capsys, command, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = [*command.split(), "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", ["construct", "analyze", "verify", "sweep"])
def test_cli_config_that_is_not_utf8_exit_3(tmp_path, capsys, command):
    # UTF-16 with its byte-order mark, \xff\xfe
    path = tmp_path / "c.json"
    path.write_bytes(json.dumps(SWEEP_CONFIG).encode("utf-16"))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config: ") and err.count("\n") == 1


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


# tolerances below the float residuals: verify exits 2
GATE_FAILURE_CONFIG = {
    "construction": {"kind": "random", "p": 5, "d": 2, "size": 9, "seed": 3},
    "analyses": ["fourier"],
    "tolerances": {"parseval": 1e-30, "energyIdentity": 1e-30}}


def test_cli_verify_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(ISO_CONFIG))
    assert main(["verify", "--config", str(good)]) == 0
    capsys.readouterr()

    bad_gate = tmp_path / "gate.json"
    bad_gate.write_text(json.dumps(GATE_FAILURE_CONFIG))
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
    verb = "create" if command == "sweep" else "write"
    assert err.startswith(f"config error: cannot {verb} {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,code", [
    (["ranges", "--json"], 0),
    (["ranges"], 0),
    (["verify", "--config", "configs/orbit-q27.json"], 0),
    (["verify", "--config", "{tmp}/gate.json"], 2)], ids=["ranges-json", "ranges", "verify", "gate"])
def test_cli_keeps_its_exit_code_when_the_reader_is_gone(tmp_path, argv, code, unbuffered):
    # stdout is a pipe whose read end is closed before the command starts, so
    # its first write fails with EPIPE; the command still exits with its own
    # code, and says nothing on stderr
    (tmp_path / "gate.json").write_text(json.dumps(GATE_FAILURE_CONFIG))
    src = str(Path(fqsalem.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run([sys.executable, "-m", "fqsalem.cli",
                                *(a.format(tmp=tmp_path) for a in argv)],
                               cwd=Path(__file__).resolve().parent.parent, stdout=write,
                               stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr.decode()) == (code, "")


@pytest.mark.parametrize("name", ["sweep.stamp", "sweep.csv"])
def test_cli_sweep_output_file_that_is_a_directory_exit_3(tmp_path, capsys, name):
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    (out / name).mkdir(parents=True)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot ") and name in err and err.count("\n") == 1


def test_cli_sweep_rerun_whose_csv_is_a_directory_exit_3(tmp_path, capsys):
    # the stamp matches, so the rerun reads sweep.csv, and cannot
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    (out / "sweep.csv").unlink()
    (out / "sweep.csv").mkdir()
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {out / 'sweep.csv'}: ")
    assert err.count("\n") == 1


def output_paths(out: Path) -> dict:
    return {"report": out / "report.json", "points": out / "set.txt",
            "csv": out / "sweep" / "sweep.csv", "stamp": out / "sweep" / "sweep.stamp"}


def write_outputs(cfg: Path, out: Path) -> dict:
    """A verify report, a point set and a sweep's two files of cfg, written
    under out: name -> bytes."""
    paths = output_paths(out)
    assert main(["verify", "--config", str(cfg), "--out", str(paths["report"])]) == 0
    assert main(["construct", "--config", str(cfg), "--out", str(paths["points"])]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(paths["csv"].parent)]) == 0
    return {name: path.read_bytes() for name, path in paths.items()}


def fill_outputs(out: Path, old: bytes) -> None:
    for path in output_paths(out).values():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(old)


@pytest.mark.parametrize("old", [bytes(range(256)) * 256, b"x"], ids=["64KB", "1B"])
def test_outputs_written_over_a_file_match_a_fresh_write(tmp_path, capsys, old):
    # each output is overwritten in place, then cut where the write ended
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    fresh = write_outputs(cfg, tmp_path / "fresh")
    fill_outputs(tmp_path / "old", old)
    assert write_outputs(cfg, tmp_path / "old") == fresh
    assert all(1 < len(data) < 1 << 16 for data in fresh.values())  # longer, or shorter


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_cli_verify_out_to_a_fifo_and_the_null_device(tmp_path, capsys):
    # neither is a regular file, so neither is truncated (ftruncate raises EINVAL there)
    config = str(Path(__file__).resolve().parent.parent / "configs" / "orbit-q27.json")
    assert main(["verify", "--config", config]) == 0
    expected = capsys.readouterr().out.encode()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["verify", "--config", config, "--out", str(fifo)]) == 0
    reader.join(60)
    assert received == [expected]
    assert main(["verify", "--config", config, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_no_output_is_truncated_when_it_is_opened(tmp_path, capsys, monkeypatch):
    # an open that truncates frees the file's blocks (geometry.write_file says
    # what that costs): each output is opened by os.open without O_TRUNC, and
    # never by an open() whose mode holds "w"
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    fill_outputs(out, b"x" * 100)
    opened = []  # (path, how, truncates)
    real_os_open, real_open = os.open, io.open

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((Path(path), "os.open", bool(flags & os.O_TRUNC)))
        return real_os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append((Path(file), "open", "w" in mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(io, "open", spy_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    write_outputs(cfg, out)
    monkeypatch.undo()
    targets = set(output_paths(out).values())
    seen = [entry for entry in opened if entry[0] in targets]
    assert [entry for entry in seen if entry[2]] == []
    assert {path for path, how, _ in seen if how == "os.open"} == targets


def test_write_file_makes_the_parents_only_when_one_is_missing(tmp_path, monkeypatch):
    made, mkdir = [], Path.mkdir

    def spy(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", spy)
    write_file(tmp_path / "report.json", b"first")
    write_file(tmp_path / "report.json", b"2")
    assert made == [] and (tmp_path / "report.json").read_bytes() == b"2"
    deep = tmp_path / "a" / "b" / "report.json"
    write_file(deep, b"made")
    assert made and made[0] == deep.parent and deep.read_bytes() == b"made"
    made.clear()
    write_file(deep, b"again")
    assert made == [] and deep.read_bytes() == b"again"


def test_sweep_rerun_cuts_a_longer_csv_before_it_writes_the_stamp(tmp_path, monkeypatch):
    # config A left three rows; config B, another stamp, has one. B's CSV is
    # cut after its header, before its stamp is written, so no row of A is
    # ever left under B's stamp
    cfg_a = {"construction": {"kind": "random", "d": 2, "size": 5}, "analyses": ["energy"],
             "grid": {"p": [3, 5, 7]}, "seed": 2}
    cfg_b = {**cfg_a, "grid": {"p": [3]}}
    whole = sweep(cfg_b, tmp_path / "whole").read_bytes()
    out = tmp_path / "s"
    assert len(sweep(cfg_a, out).read_bytes()) > len(whole)
    events, names = [], {}
    real_open, real_ftruncate = os.open, os.ftruncate

    def spy_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        names[fd] = Path(path).name
        events.append(("open", names[fd]))
        return fd

    def spy_ftruncate(fd, length):
        events.append(("truncate", names.get(fd), length))
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
    assert sweep(cfg_b, out).read_bytes() == whole
    monkeypatch.undo()
    header = len("cell,status,detail\n")
    assert [e for e in events if e[1] in ("sweep.csv", "sweep.stamp")] == [
        ("open", "sweep.csv"), ("truncate", "sweep.csv", header),
        ("open", "sweep.stamp"), ("truncate", "sweep.stamp", 65)]


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


@pytest.mark.parametrize("argv,d_values,s_values", [
    (["--d", "3", "5"], ("3", "5"), ("1/4", "3/8", "1/2")),
    (["--s", "1/2"], ("2", "3", "4", "5", "6"), ("1/2",))], ids=["d", "s"])
def test_cli_ranges_flag_not_given_takes_section_default(capsys, argv, d_values, s_values):
    # one flag given: the other takes the ranges section's default
    assert main(["ranges", *argv]) == 0
    header, *rows = RANGES_TEXT.splitlines(keepends=True)
    kept = [row for row in rows if row.split()[0] in d_values and row.split()[1] in s_values]
    assert capsys.readouterr().out == header + "".join(kept)


@pytest.mark.parametrize("s", ["abc", "0/0"])
def test_cli_ranges_bad_s_exit_3(capsys, s):
    assert main(["ranges", "--d", "2", "--s", s]) == 3
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("dims,s_values,message", [
    ([1], ["1/4"], "d must be >= 2"),
    ([2], ["1/5"], "s must be in [1/4, 1/2], got 1/5"),
    ([1], ["1/5"], "s must be in [1/4, 1/2], got 1/5")],  # a bad s before a bad d
    ids=["d", "s", "s-and-d"])
def test_ranges_section_errors(dims, s_values, message):
    with pytest.raises(ConfigError) as exc:
        run({"analyses": ["ranges"], "dims": dims, "sValues": s_values})
    assert str(exc.value) == message


def test_section_keys_need_a_section_that_reads_them(tmp_path, capsys):
    # a key no requested section reads would be ignored, like a misspelt one
    config = {"construction": {"kind": "random", "p": 5, "d": 2, "size": 5},
              "analyses": ["energy"], "tolerances": {"parseval": 1e-300}, "dims": [0]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["verify", "--config", str(path)]) == 3
    assert capsys.readouterr().err == ("config error: no requested analysis reads config "
                                       "key 'tolerances'; read by: ['fourier']\n")
    for key, value, reader in [("k", 3, "energy"), ("sValues", ["1/4"], "ranges")]:
        with pytest.raises(ConfigError) as exc:
            validate_config({"analyses": ["fourier", "salem"], key: value})
        assert str(exc.value).endswith(f"key {key!r}; read by: [{reader!r}]")
    assert validate_config({**config, "analyses": ["energy", "fourier", "ranges"]})


def test_cli_sweep(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"construction": {"kind": "random", "d": 2, "size": 5},
                               "analyses": ["energy"],
                               "grid": {"p": [3, 5]}, "seed": 1}))
    out = tmp_path / "sweepdir"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["sweep.csv", "sweep.stamp"]
