"""Output checks for the benchmark, independent of the fqsalem kernels.

A `verify` report is checked against counts computed here from the point
file that `fqsalem construct` writes, with a separate field implementation
built from the file's modulus: nu(t) and Lambda_4 by numpy tables. The
checks hold on any seed:

* all gates pass and the set size matches the point file;
* the distance support and second moment equal the ones computed here, and
  csLowerBound = |E|^4 / sum nu^2, i.e. sum nu = |E|^2;
* lambda (energy and incidence) equals Lambda_4 computed here;
* pairTotal = |E|^2 and sumM2 <= Lambda_4;
* the Salem s values match the closed form from Lambda_4 within tolerance;
* the threshold tables report every crossover identity as exact.

Where `reference.json` has an entry for a config (minted by running this
file at the commit that added the benchmark), its exact fields must be
equal and its floats equal within `FLOAT_RTOL`, since summation order may
change last digits.

Mint the reference from the repository root with

    python3 perfbench/checks.py
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0
FLOAT_RTOL = 1e-9


# --- an independent F_{p^r} ------------------------------------------------------

def _digits(x: int, p: int, r: int) -> list[int]:
    return [(x // p ** i) % p for i in range(r)]


def _value(ds, p: int) -> int:
    return sum(c * p ** i for i, c in enumerate(ds))


def field_tables(p: int, r: int, modulus: list[int]):
    """(sub, add, square) tables over canonical values, from the modulus alone."""
    q = p ** r
    D = np.array([_digits(x, p, r) for x in range(q)], dtype=np.int64)
    weights = p ** np.arange(r, dtype=np.int64)
    add = ((D[:, None, :] + D[None, :, :]) % p) @ weights
    sub = ((D[:, None, :] - D[None, :, :]) % p) @ weights
    square = np.empty(q, dtype=np.int64)
    for x in range(q):
        prod = [0] * (2 * r - 1)
        for i, a in enumerate(D[x]):
            for j, b in enumerate(D[x]):
                prod[i + j] += int(a) * int(b)
        for k in range(2 * r - 2, r - 1, -1):  # reduce by the monic modulus
            c, prod[k] = prod[k], 0
            for i in range(r):
                prod[k - r + i] -= c * modulus[i]
        square[x] = _value([c % p for c in prod[:r]], p)
    return sub, add, square


def read_points(path: Path):
    """(p, r, modulus, d, points as an (n, d) array) from a point-set file."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    head = dict(tok.split("=", 1) for tok in lines[0].split())
    p, r = (int(v) for v in head["q"].split("^"))
    modulus = [int(c) for c in head.get("modulus", "0,1").split(",")]
    d = int(lines[1].removeprefix("d="))
    pts = np.array([[int(c) for c in ln.split()] for ln in lines[2:]],
                   dtype=np.int64).reshape(-1, d)
    return p, r, modulus, d, pts


def independent_counts(path: Path) -> dict:
    """|E|, nu(t) for all t, and Lambda_4 = sum_v #{(x, y): x - y = v}^2."""
    p, r, modulus, d, X = read_points(path)
    q = p ** r
    sub, add, square = field_tables(p, r, modulus)
    diff = sub[X[:, None, :], X[None, :, :]]  # (n, n, d)
    t = np.zeros(diff.shape[:2], dtype=np.int64)
    for i in range(d):
        t = add[t, square[diff[..., i]]]
    nu = np.bincount(t.ravel(), minlength=q)
    flat = (diff * q ** np.arange(d - 1, -1, -1, dtype=np.int64)).sum(axis=2)
    _, mult = np.unique(flat, return_counts=True)
    return {"size": len(X), "q": q, "d": d,
            "nu": {int(k): int(v) for k, v in enumerate(nu) if v},
            "lambda4": int(np.sum(mult.astype(object) ** 2))}


# --- report fields -----------------------------------------------------------------

def exact_fields(report: dict) -> dict:
    res = report["results"]
    out = {}
    if "set" in res:
        out["size"] = res["set"]["size"]
    if "energy" in res:
        out["lambda"] = res["energy"]["lambda"]
    if "distance" in res:
        out["support"] = res["distance"]["support"]
        out["secondMoment"] = res["distance"]["secondMoment"]
    if "incidence" in res:
        for key in ("pairTotal", "sumM2", "lambda4"):
            out[key] = res["incidence"][key]
    if "ranges" in res:
        blob = json.dumps(res["ranges"], sort_keys=True).encode()
        out["rangesSha256"] = hashlib.sha256(blob).hexdigest()
    return out


def float_fields(report: dict) -> dict:
    res = report["results"]
    out = {}
    if "energy" in res:
        out["energySalemS"] = float(res["energy"]["salemS"])
    if "salem" in res:
        out["salemS"] = float(res["salem"]["s"])
    return out


def _salem_s(lam4: int, n: int, q_d: int) -> float:
    if n == 1:
        return 0.5
    residual = max(lam4 - n ** 4 / q_d, 1.0)
    return min(0.5, max(0.25, 0.25 * (4.0 - math.log(residual) / math.log(n))))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)


def check_report(report: dict, counts: dict | None, ref: dict | None) -> list[str]:
    """Problems found in one verify report; empty when it is correct."""
    problems = []
    if report.get("allGatesPass") is not True:
        problems.append(f"gates failed: {report.get('gates')}")
    res = report["results"]
    if counts is not None:
        n, lam4 = counts["size"], counts["lambda4"]
        nu = counts["nu"]
        want = {"size": str(n), "lambda": str(lam4), "lambda4": str(lam4),
                "pairTotal": str(n * n),
                "support": [str(t) for t in sorted(nu)],
                "secondMoment": str(sum(c * c for c in nu.values()))}
        for key, value in exact_fields(report).items():
            if key in want and value != want[key]:
                problems.append(f"{key} = {value}, computed {want[key]}")
        if "incidence" in res and int(res["incidence"]["sumM2"]) > lam4:
            problems.append("sumM2 exceeds Lambda_4")
        if "distance" in res:
            dist = res["distance"]
            if Fraction(dist["csLowerBound"]) != Fraction(n ** 4, int(want["secondMoment"])):
                problems.append("csLowerBound is not |E|^4 / sum nu^2")
            if int(dist["energyRoute"]["sizeDelta"]) != len(nu):
                problems.append("energyRoute.sizeDelta differs from |support|")
        s = _salem_s(lam4, n, counts["q"] ** counts["d"])
        for key, value in float_fields(report).items():
            if not _close(value, s):
                problems.append(f"{key} = {value}, computed {s}")
    if "ranges" in res and not all(res["ranges"]["crossoversExact"].values()):
        problems.append("a crossover identity is not exact")
    if ref is not None:
        got = exact_fields(report)
        for key, value in ref["exact"].items():
            if got.get(key) != value:
                problems.append(f"{key} = {got.get(key)}, reference {value}")
        got_f = float_fields(report)
        for key, value in ref["floats"].items():
            if key not in got_f or not _close(got_f[key], value):
                problems.append(f"{key} = {got_f.get(key)}, reference {value}")
    return problems


def check_sweep_rows(rows: list[str], cells: list[dict]) -> dict[int, str]:
    """cell index -> problem, for each row that is missing, an error, or the wrong size."""
    by_index = {}
    for row in rows:
        idx, _, rest = row.partition(",")
        by_index[idx] = rest
    problems = {}
    for i, cell in enumerate(cells):
        row = by_index.get(str(i))
        if row is None or not row.startswith("ok,"):
            problems[i] = f"cell {i}: {row!r}"
            continue
        fields = dict(kv.split("=", 1) for kv in row[3:].split(";"))
        if "size" in cell and fields.get("size") != str(cell["size"]):
            problems[i] = f"cell {i}: size {fields.get('size')}, want {cell['size']}"
    return problems


# --- reference -------------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_for(refs: dict, workload: str, label: str, seed: int,
                  smoke: bool) -> dict | None:
    ref = refs.get(f"{workload}/{label}")
    if smoke or ref is None or ref["seed"] not in (None, seed):
        return None
    return ref


def mint(root: Path) -> dict:
    """Reference fields for every full-size verify config at DEFAULT_SEED.

    `seed` is null where the set does not depend on the seed: the shipped
    configs and the witness below the (d+2)/(4d) breakpoint, which is a
    plain product with no thinning.
    """
    import contextlib
    import io
    import tempfile

    import workloads
    sys.path.insert(0, str(root / "src"))
    from fqsalem import cli

    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.FULL.values():
            for label, cfg in workloads.verify_configs(w, DEFAULT_SEED, root).items():
                cfg_path = Path(tmp) / "config.json"
                cfg_path.write_text(json.dumps(cfg))
                out = Path(tmp) / "report.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["verify", "--config", str(cfg_path), "--out", str(out)])
                if rc != 0:
                    raise SystemExit(f"{w.name}/{label}: verify exited {rc}")
                report = json.loads(out.read_text())
                owned = not isinstance(w.verify[label], str)
                seeded = owned and w.verify[label]["construction"]["kind"] == "random"
                refs[f"{w.name}/{label}"] = {
                    "seed": DEFAULT_SEED if seeded else None,
                    "exact": exact_fields(report),
                    "floats": float_fields(report),
                }
    return refs


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(mint(Path.cwd()), indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
