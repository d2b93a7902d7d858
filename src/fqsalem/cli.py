"""Command-line interface.

Exit codes: 0 all gates pass, 2 gate failure, 3 config or usage error, 4
budget exceeded, 5 an internal invariant failed (a defect, never bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .analysis import _ranges_section, render_report
from .energy import energy_bruteforce
from .errors import DEFAULT_BUDGET, BudgetExceeded, ConfigError, InvariantViolation, budget_scope
from .field import field_create
from .geometry import read_hyperplanes, read_pointset, write_pointset
from .harness import (build_set, file_op, oracle_distances, oracle_incidences, run, sweep,
                      validate_config)

EXIT_OK = 0
EXIT_GATE_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_BUDGET = 4
EXIT_INVARIANT = 5


def _add_common(p):
    p.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--budget", type=int, default=None)


@functools.cache  # built once per process, on first use
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fqsalem")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="print field parameters")
    p.add_argument("p", type=int)
    p.add_argument("r", type=int, nargs="?", default=1)

    p = sub.add_parser("construct", help="build a point set and write it out")
    _add_common(p)

    p = sub.add_parser("analyze", help="run analyses from a config")
    _add_common(p)

    p = sub.add_parser("verify", help="run analyses and fail on gate violations")
    _add_common(p)

    p = sub.add_parser("ranges", help="print threshold tables")
    p.add_argument("--d", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    p.add_argument("--s", type=str, nargs="+", default=["1/4", "3/8", "1/2"])
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="grid sweep to CSV")
    _add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="a positive integer; every cell runs in the calling thread, since "
                        "threads slowed sweeps down under the GIL (default 1)")

    p = sub.add_parser("oracle", help="brute-force reference computations")
    p.add_argument("kind", choices=["lambda4", "distances", "incidences"])
    p.add_argument("pointset", type=Path)
    p.add_argument("hyperplanes", type=Path, nargs="?")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    return ap


def _load_config(args) -> dict:
    if args.config is None:
        raise ConfigError("--config is required for this command")
    try:
        config = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "budget", None) is not None:
        config["budget"] = args.budget
    return config


def _out(text: str) -> None:
    """text on stdout. A reader that closed the pipe early is no error: the rest
    of the output goes to the null device, and the command keeps its exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse's: 0 after --help, 2 on a usage error
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def _dispatch(args) -> int:
    if args.command == "field":
        F = field_create(args.p, args.r)
        _out(json.dumps({"p": F.p, "r": F.r, "q": F.q,
                         "modulus": list(F.modulus),
                         "primitiveElement": F.primitive_element()}) + "\n")
        return EXIT_OK

    if args.command == "construct":
        E = build_set(validate_config(_load_config(args)))
        out = args.out or Path("pointset.txt")
        file_op("write", out, lambda: (out.parent.mkdir(parents=True, exist_ok=True),
                                       write_pointset(E, out)))
        _out(f"wrote {len(E)} points to {out}\n")
        return EXIT_OK

    if args.command in ("analyze", "verify"):
        config = _load_config(args)
        report = run(config)
        text = render_report(report)
        out = args.out
        if out:
            file_op("write", out, lambda: (out.parent.mkdir(parents=True, exist_ok=True),
                                           out.write_text(text)))
        else:
            _out(text)
        if args.command == "verify" and not report["allGatesPass"]:
            return EXIT_GATE_FAILURE
        return EXIT_OK

    if args.command == "ranges":
        section, _ = _ranges_section(None, {"dims": args.d, "sValues": args.s})
        rows = [{"d": row["d"], "s": str(row["s"]),
                 "conjectured": str(row["conjecturedAlpha"]),
                 "improved": str(row["improved"]),
                 "branch": row["improvedBranch"],
                 "energyRoute": str(row["energyRoute"]),
                 "sphere": str(row["sphere"]),
                 "crossoversExact": section["crossoversExact"][str(row["d"])]}
                for row in section["table"]]
        if args.json:
            _out(json.dumps(rows, indent=2) + "\n")
        else:
            hdr = f"{'d':>3} {'s':>6} {'conj':>8} {'improved':>8} {'branch':>10} {'energyRoute':>8} {'sphere':>8}\n"
            _out(hdr + "".join(f"{r['d']:>3} {r['s']:>6} {r['conjectured']:>8} "
                               f"{r['improved']:>8} {r['branch']:>10} {r['energyRoute']:>8} "
                               f"{r['sphere']:>8}\n" for r in rows))
        return EXIT_OK

    if args.command == "sweep":
        if args.jobs < 1:  # checked before --out is created
            raise ConfigError(f"jobs must be a positive integer, got {args.jobs}")
        config = _load_config(args)
        out = args.out or Path("sweep-out")
        csv_path = sweep(config, out)
        _out(f"wrote {csv_path}\n")
        return EXIT_OK

    if args.command == "oracle":
        validate_config({"budget": args.budget})  # a config's rule: a positive integer
        E = read_pointset(args.pointset)
        with budget_scope(args.budget):
            if args.kind == "lambda4":
                _out(f"{energy_bruteforce(E, 2)}\n")
            elif args.kind == "distances":
                _out(json.dumps(oracle_distances(E)) + "\n")
            else:
                if args.hyperplanes is None:
                    raise ConfigError("incidences oracle needs a hyperplane file")
                _out(f"{oracle_incidences(E, read_hyperplanes(args.hyperplanes))}\n")
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
