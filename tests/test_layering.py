"""The kernel modules never import the report, harness or CLI layers.

Kernels take point sets or pair counts; `analysis` reads them into a
report, `harness` runs configs and sweeps, and `cli` drives both. An import
the other way, even one under `if TYPE_CHECKING:`, ties a kernel to a layer
above it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fqsalem"
KERNELS = ("field", "geometry", "kernels", "energy", "distance", "spectral", "incidence",
           "constructions", "ranges", "errors")
UPPER = ("analysis", "harness", "cli")


def imported_names(tree: ast.AST):
    """Every module name an import in the tree names, with relative imports
    resolved against the package; `from a import b` names a and a.b."""
    for node in ast.walk(tree):  # every block, TYPE_CHECKING and functions included
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"fqsalem.{base}" if base else "fqsalem"
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in SRC.glob("*.py")) == sorted(
        ("__init__",) + KERNELS + UPPER)


@pytest.mark.parametrize("module", KERNELS)
def test_kernel_modules_import_no_upper_layer(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    upper = {name for name in imported_names(tree)
             if name.startswith("fqsalem.") and name.split(".")[1] in UPPER}
    assert not upper, f"{module} imports {sorted(upper)}"
