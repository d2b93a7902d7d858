"""Report bytes that do not depend on the BLAS thread count.

Every golden report of test_report_bytes (each config without a grid) is
written by `python -m fqsalem.cli analyze` in two child processes side by
side, one with one OpenBLAS thread and one with two. The two files must be
equal byte for byte, the four fourier floats included, which the goldens
leave out. A threaded BLAS reduction sums in an order that follows its
thread count: two ddot calls over the half spectrum once wrote the
witness-p5r2-d4 report's energyIdentityResidual as 7.149e-15 under one
thread and 2.043e-15 under two. On a one-core machine OpenBLAS runs one
thread either way, and the test shows nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fqsalem
from test_report_bytes import _configs

REPORTS = sorted(name for name, config in _configs().items() if "grid" not in config)


def _analyze(config: Path, out: Path, threads: int) -> subprocess.Popen:
    src = str(Path(fqsalem.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "fqsalem.cli", "analyze", "--config",
                             str(config), "--out", str(out)], env=env, stderr=subprocess.PIPE)


@pytest.mark.parametrize("name", REPORTS)
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_configs()[name]))
    children = {t: _analyze(config, tmp_path / f"{t}.json", t) for t in (1, 2)}
    for child in children.values():
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()
