"""Command-line interface.

Exit codes: 0 all gates pass, 2 gate failure, 3 config or usage error, 4
budget exceeded, 5 an internal invariant failed (a defect, never bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .energy import energy_bruteforce
from .errors import DEFAULT_BUDGET, BudgetExceeded, ConfigError, InvariantViolation
from .field import field_create
from .geometry import read_hyperplanes, read_pointset, write_pointset
from .harness import (EXIT_BUDGET, EXIT_CONFIG_ERROR, EXIT_GATE_FAILURE,
                      EXIT_INVARIANT, EXIT_OK, _ranges_section, build_set,
                      oracle_distances, oracle_incidences, render_report, run, sweep,
                      validate_config)


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


def _write(path: Path, write) -> None:
    """write(path) once path's parent directories exist; an OSError is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


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
        print(json.dumps({"p": F.p, "r": F.r, "q": F.q,
                          "modulus": list(F.modulus),
                          "primitiveElement": F.primitive_element()}))
        return EXIT_OK

    if args.command == "construct":
        E = build_set(validate_config(_load_config(args)))
        out = args.out or Path("pointset.txt")
        _write(out, lambda path: write_pointset(E, path))
        print(f"wrote {len(E)} points to {out}")
        return EXIT_OK

    if args.command in ("analyze", "verify"):
        config = _load_config(args)
        report = run(config)
        text = render_report(report)
        if args.out:
            _write(args.out, lambda path: path.write_text(text))
        else:
            print(text, end="")
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
            print(json.dumps(rows, indent=2))
        else:
            hdr = f"{'d':>3} {'s':>6} {'conj':>8} {'improved':>8} {'branch':>10} {'energyRoute':>8} {'sphere':>8}"
            print(hdr)
            for r in rows:
                print(f"{r['d']:>3} {r['s']:>6} {r['conjectured']:>8} "
                      f"{r['improved']:>8} {r['branch']:>10} {r['energyRoute']:>8} {r['sphere']:>8}")
        return EXIT_OK

    if args.command == "sweep":
        config = _load_config(args)
        out = args.out or Path("sweep-out")
        csv_path = sweep(config, out, jobs=args.jobs)
        print(f"wrote {csv_path}")
        return EXIT_OK

    if args.command == "oracle":
        validate_config({"budget": args.budget})  # a config's rule: a positive integer
        E = read_pointset(args.pointset)
        if args.kind == "lambda4":
            print(energy_bruteforce(E, 2, args.budget))
        elif args.kind == "distances":
            print(json.dumps(oracle_distances(E, args.budget)))
        else:
            if args.hyperplanes is None:
                raise ConfigError("incidences oracle needs a hyperplane file")
            H = read_hyperplanes(args.hyperplanes)
            print(oracle_incidences(E, H, args.budget))
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
