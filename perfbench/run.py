"""End-to-end benchmark of the fqsalem CLI, with an optional per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload prime-random --seed 0 --seconds 30 --trace 0

One client drives a closed loop in this process: each call into
`fqsalem.cli.main` starts after the previous one returned. A round is one
`verify` pass over the workload's configs, then one `sweep --jobs 2` into an
empty directory. Every output is checked (see checks.py). The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
first half of the time is measured untraced and the second half traced, and
the metrics are the per-layer ones. Times are scaled to a reference machine
speed (see calibration.py); the raw wall-clock medians are printed on the
line before. `--smoke` swaps in tiny sizes. README.md lists the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import calibration
import checks
import workloads
from tracer import FieldOpCounter, Tracer

SETUP_SAMPLES = 7
SETUP_CHILD = """
import json, sys, time
import calibration
before = calibration.loop_seconds()
t0 = time.perf_counter()
import fqsalem
t1 = time.perf_counter()
for p, r in json.loads(sys.argv[1]):
    fqsalem.field_create(p, r)
t2 = time.perf_counter()
slowdown = calibration.slowdown(before, calibration.loop_seconds())
print(json.dumps({"import_s": t1 - t0, "field_s": t2 - t1, "slowdown": slowdown}))
"""


def measure_setup(root: Path, fields: list) -> dict:
    """Medians over fresh processes of (import + field_create) and field_create.

    The first child is not timed: it may still be writing bytecode caches.
    Children start numpy with one BLAS thread: fqsalem makes no BLAS calls,
    and on a 2-core VM starting the BLAS thread pool made the import take
    0.09 s or 0.21 s, depending on whether the other core was free.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(Path(__file__).resolve().parent),
                      env.get("PYTHONPATH")]))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(fields)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            samples.append(json.loads(proc.stdout))
    return {
        "setup_s": statistics.median((s["import_s"] + s["field_s"]) / s["slowdown"]
                                     for s in samples),
        "field_s": statistics.median(s["field_s"] / s["slowdown"] for s in samples),
        "wall_setup_s": statistics.median(s["import_s"] + s["field_s"] for s in samples),
    }


def _cpu_seconds() -> float:
    """CPU time of this process and its reaped children, so a process pool counts."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Bench:
    """The workload's closed loop, with the outputs it checks along the way."""

    def __init__(self, w: workloads.Workload, seed: int, smoke: bool,
                 root: Path, work: Path):
        from fqsalem import cli
        self.cli = cli
        self.w, self.seed, self.smoke, self.work = w, seed, smoke, work
        self.configs = workloads.verify_configs(w, seed, root)
        self.sweep = workloads.sweep_config(w, seed)
        self.cells = workloads.sweep_cells(self.sweep)
        self.paths = {}
        for label, cfg in {**self.configs, "sweep": self.sweep}.items():
            self.paths[label] = work / f"{label}.json"
            self.paths[label].write_text(json.dumps(cfg))
        self.expected = {}        # label -> warm-up report bytes
        self.expected_rows = []   # warm-up sweep rows, from --jobs 1
        self.bad_cells = set()
        self.attempted = {label: 0 for label in self.configs}
        self.failed = {label: 0 for label in self.configs}
        self.cells_attempted = self.cells_failed = 0
        self.problems = []
        self.sweep_count = 0

    def _call(self, argv: list[str]) -> int:
        """Exit code of one CLI call; an exception counts as a failed call."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except Exception as exc:  # the loop must go on and report the failure
            self.problems.append(f"{argv[0]} raised {exc!r}")
            return -1

    def _report_path(self, label: str) -> Path:
        return self.work / f"{label}.report.json"

    def warm_up(self):
        """One round that fills caches and records the outputs later passes must repeat."""
        for label in self.configs:
            out = self._report_path(label)
            rc = self._call(["verify", "--config", str(self.paths[label]), "--out", str(out)])
            self.expected[label] = out.read_bytes() if out.exists() else b""
            self.attempted[label] += 1
            if rc != 0:
                self.failed[label] += 1
                self.problems.append(f"{label}: verify exited {rc}")
        _, _, rows = self._sweep(jobs=1)
        self.expected_rows = rows
        problems = checks.check_sweep_rows(rows, self.cells)
        self.problems += problems.values()
        self.bad_cells = set(problems)
        self.cells_attempted += len(self.cells)
        self.cells_failed += len(self.bad_cells)

    def verify_pass(self) -> float:
        t0 = time.perf_counter()
        rcs = {label: self._call(["verify", "--config", str(self.paths[label]),
                                  "--out", str(self._report_path(label))])
               for label in self.configs}
        elapsed = time.perf_counter() - t0
        for label, rc in rcs.items():
            self.attempted[label] += 1
            if rc != 0 or self._report_path(label).read_bytes() != self.expected[label]:
                self.failed[label] += 1
                self.problems.append(f"{label}: exit {rc} or report differs from warm-up")
        return elapsed

    def _sweep(self, jobs: int) -> tuple[int, float, list[str]]:
        out = self.work / f"sweep-{self.sweep_count}"   # fresh: no ledger to replay
        self.sweep_count += 1
        t0 = time.perf_counter()
        rc = self._call(["sweep", "--config", str(self.paths["sweep"]),
                         "--out", str(out), "--jobs", str(jobs)])
        elapsed = time.perf_counter() - t0
        csv = out / "sweep.csv"
        rows = csv.read_text().splitlines() if rc == 0 and csv.exists() else []
        shutil.rmtree(out, ignore_errors=True)
        return rc, elapsed, rows[1:] if rows[:1] == ["cell,status,detail"] else []

    def sweep_pass(self) -> tuple[float, float]:
        """(seconds, CPU seconds of this process and its reaped children per second)."""
        cpu0 = _cpu_seconds()
        rc, elapsed, rows = self._sweep(jobs=2)
        cpu = _cpu_seconds() - cpu0
        bad = {i for i in range(len(self.cells))
               if rows[i:i + 1] != self.expected_rows[i:i + 1]}
        if bad:
            self.problems.append(f"sweep exit {rc}; cells {sorted(bad)} differ from --jobs 1")
        self.cells_attempted += len(self.cells)
        self.cells_failed += len(bad | self.bad_cells)
        return elapsed, cpu / elapsed

    def loop(self, seconds: float, tracer: Tracer | None = None):
        """Rounds until `seconds` have passed.

        Returns the verify passes as (wall seconds, slowdown) and the sweep
        passes as ((wall seconds, CPU/wall), slowdown). The calibration loop
        runs between passes, so each pass has one just before and after it.
        """
        reports, sweeps = [], []
        before = calibration.loop_seconds()

        def measured(label, fn):
            nonlocal before
            if tracer:
                tracer.pass_label = label
            result = fn()
            after = calibration.loop_seconds()
            slowdown, before = calibration.slowdown(before, after), after
            return result, slowdown

        end = time.perf_counter() + seconds
        while True:
            reports.append(measured(f"verify{len(reports)}", self.verify_pass))
            sweeps.append(measured(f"sweep{len(sweeps)}", self.sweep_pass))
            if time.perf_counter() >= end:
                return reports, sweeps

    def deep_check(self, refs: dict):
        """Check each warm-up report against counts computed outside fqsalem.

        Every pass repeated the warm-up bytes, so a wrong report fails all of them.
        """
        for label, cfg in self.configs.items():
            ref = checks.reference_for(refs, self.w.name, label, self.seed, self.smoke)
            try:
                counts = None
                if "construction" in cfg:
                    pts = self.work / f"{label}.points"
                    self._call(["construct", "--config", str(self.paths[label]),
                                "--out", str(pts)])
                    counts = checks.independent_counts(pts)
                problems = checks.check_report(json.loads(self.expected[label]), counts, ref)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"cannot check: {exc!r}"]
            if problems:
                self.failed[label] = self.attempted[label]
                self.problems += [f"{label}: {p}" for p in problems]

    def provenance(self) -> dict:
        configs = {}
        for label, cfg in self.configs.items():
            entry = {"analyses": cfg.get("analyses", [])}
            if "construction" in cfg:
                c = cfg["construction"]
                entry.update(kind=c["kind"], p=c["p"], r=c.get("r", 1))
                with contextlib.suppress(ValueError, KeyError):
                    res = json.loads(self.expected[label])["results"]["set"]
                    entry.update(d=int(res["d"]), size=int(res["size"]))
            configs[label] = entry
        return {"verify": configs,
                "sweep": {"construction": self.sweep["construction"],
                          "grid": self.sweep["grid"], "cells": len(self.cells),
                          "analyses": self.sweep["analyses"], "jobs": 2}}

    def totals(self) -> tuple[int, int]:
        attempted = sum(self.attempted.values()) + self.cells_attempted
        failed = sum(self.failed.values()) + self.cells_failed
        return attempted, failed


PER_LAYER = [
    ("field.ops", "count"), ("field.create_s", "s"),
    ("energy.self_s", "s"), ("energy.lambda_calls", "count"),
    ("energy.lambda_useful_ratio", "ratio"),
    ("distance.self_s", "s"), ("distance.profile_calls", "count"),
    ("distance.pairs", "count"), ("distance.profile_useful_ratio", "ratio"),
    ("incidence.self_s", "s"), ("incidence.pairs", "count"),
    ("geometry.build_s", "s"), ("geometry.build_points", "count"),
    ("spectral.self_s", "s"), ("spectral.direct_calls", "count"),
    ("spectral.fft_calls", "count"),
    ("constructions.self_s", "s"), ("ranges.self_s", "s"), ("cli.self_s", "s"),
    ("harness.self_s", "s"), ("harness.sweep_parallelism", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fqsalem" / "__init__.py").is_file():
        print("perfbench: run from a checkout of fqsalem (no src/fqsalem here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    w = workloads.get(args.workload, args.smoke)
    base = root / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    work = base / f"run-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(w, args.seed, args.smoke, root, work)
        setup = measure_setup(root, workloads.fields_used(bench.configs, bench.sweep))
        bench.warm_up()
        seconds = args.seconds / 2 if args.trace else args.seconds
        reports, sweeps = bench.loop(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = bench.loop(seconds, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(base / f"spans-{w.name}-seed{args.seed}.json")
            counter = FieldOpCounter()
            counter.install()
            try:
                bench.verify_pass()
            finally:
                counter.uninstall()
        bench.deep_check(checks.load_reference())
        provenance = bench.provenance()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cells = len(bench.cells)
    report_s = statistics.median(wall / slow for wall, slow in reports)
    if args.trace:
        layer = tracer.layer_metrics(
            {f"verify{i}": slow for i, (_, slow) in enumerate(traced)})
        layer.update({
            "field.ops": counter.count,
            "field.create_s": setup["field_s"],
            "harness.sweep_parallelism": statistics.median(p for (_, p), _ in sweeps),
            "trace.overhead_frac": statistics.median(
                wall / slow for wall, slow in traced) / report_s - 1,
        })
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "report_s": {"value": report_s, "unit": "s"},
            "sweep_cells_per_s": {
                "value": statistics.median(cells * slow / wall
                                           for (wall, _), slow in sweeps),
                "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    attempted, failed = bench.totals()
    print(json.dumps({
        "workload": w.name, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), **provenance,
        "samples": {"setup": SETUP_SAMPLES, "report": len(reports),
                    "sweep": len(sweeps)},
        "wall_medians": {
            "setup_s": setup["wall_setup_s"],
            "report_s": statistics.median(wall for wall, _ in reports),
            "sweep_cells_per_s": statistics.median(cells / wall
                                                   for (wall, _), _ in sweeps)},
        "slowdown_median": statistics.median(slow for _, slow in reports + sweeps),
        "report_samples": reports, "fail_frac": failed / attempted,
        "problems": bench.problems[:20],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
