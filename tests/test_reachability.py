"""Every top-level name in `src/fqsalem` is reached from a command.

The roots are `cli.main` and the names `fqsalem/__init__.py` re-exports. From
them the scan follows the names each top-level def, class and constant reads
(its body, decorators, defaults and annotations; a class with all its
methods), through the package's own imports. A name it does not reach fails
the test unless ALLOWED names it with a reason: "oracle" for a reference
computation the tests check a kernel against, or the open ROADMAP item that
will wire it into a command. ALLOWED names are roots too, so their helpers
need no entry of their own. An entry that a command reaches, or that no
longer exists, fails the test as well: the list only shrinks. Dunder names
are out of scope. Names are matched, not bound, so a local that shadows a
top-level name counts as a read of it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fqsalem"

ALLOWED = {
    "spectral.fourier_direct": "oracle",
    "spectral._char_table": "oracle",
    # the incidence section on the paper's sphere setup, and its dilation gate
    "incidence.count_incidences": "ROADMAP item 10",
    "incidence.incidence_bounds": "ROADMAP item 7",
    "incidence.dilate_hyperplanes": "ROADMAP item 7",
    "incidence.incidence_via_dilation": "ROADMAP item 7",
    "incidence.sphere_incidence_setup": "ROADMAP item 7",
    # the twoSet section
    "distance.distance_profile": "ROADMAP item 7",
    "distance.verify_two_set": "ROADMAP item 7",
    # the family formulas of the ranges section
    "ranges.conditional_sphere_exponents": "ROADMAP item 12",
    "ranges.SizeWindow": "ROADMAP item 12",
    "ranges.sphere_windows": "ROADMAP item 12",
    "ranges.gamma": "ROADMAP item 8",
    "ranges.SUBGROUP_S_MAX": "ROADMAP item 8",
    "ranges.variety_s_max": "ROADMAP item 8",
    "ranges.multigroup_threshold": "ROADMAP item 8",
    "ranges.variety_threshold": "ROADMAP item 8",
}


class Module:
    """The top-level names of one module, and what its package imports bind."""

    def __init__(self, name: str):
        self.defs: dict[str, list[ast.AST]] = {}
        self.imports: dict[str, tuple[str, str | None]] = {}  # local -> (module, name)
        for node in ast.parse((SRC / f"{name}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for n in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    self.defs.setdefault(n.id, []).append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:  # `from . import m` binds the module m
                    self.imports[alias.asname or alias.name] = (
                        (alias.name, None) if node.module is None else (node.module, alias.name))
        self.defs = {k: v for k, v in self.defs.items()
                     if not (k.startswith("__") and k.endswith("__"))}


def modules() -> dict[str, Module]:
    return {path.stem: Module(path.stem) for path in SRC.glob("*.py")}


def resolve(mods, module: str, name: str):
    """The (module, name) where `name`, read in `module`, is defined, through
    the package's imports; None for a module or a name from outside."""
    while module in mods:
        if name in mods[module].defs:
            return module, name
        if name not in mods[module].imports:
            return None
        module, name = mods[module].imports[name]
        if name is None:
            return None
    return None


def reads(mods, module: str, nodes):
    """The package names that the nodes read: bare names, and m.name for a
    module m that `from . import m` bound."""
    imports = mods[module].imports
    for n in (n for node in nodes for n in ast.walk(node)):
        if isinstance(n, ast.Name):
            hit = resolve(mods, module, n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and imports.get(n.value.id, ("", ""))[1] is None):
            hit = resolve(mods, imports[n.value.id][0], n.attr)
        else:
            continue
        if hit:
            yield hit


def reached(mods, roots) -> set:
    """The roots and every (module, name) they read, directly or through others."""
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(reads(mods, key[0], mods[key[0]].defs[key[1]]))
    return seen


def command_roots(mods) -> list:
    """cli.main and the names the package re-exports."""
    return [("cli", "main")] + [resolve(mods, "__init__", name)
                                for name in mods["__init__"].imports]


def every_name(mods) -> set:
    return {(m, name) for m, mod in mods.items() for name in mod.defs}


def key(dotted: str) -> tuple[str, str]:
    module, _, name = dotted.partition(".")
    return module, name


def test_every_reason_is_an_oracle_or_an_open_roadmap_item():
    items = set(re.findall(r"^(\d+)\. \*\*", (ROOT / "ROADMAP.md").read_text(), re.M))
    bad = {name: reason for name, reason in ALLOWED.items()
           if reason != "oracle" and reason.removeprefix("ROADMAP item ") not in items}
    assert bad == {}


def test_every_allowed_name_exists_and_no_command_reaches_it():
    mods = modules()
    gone = sorted(k for k in ALLOWED if key(k) not in every_name(mods))
    assert gone == [], f"ALLOWED names that no longer exist: {gone}"
    wired = sorted(k for k in ALLOWED if key(k) in reached(mods, command_roots(mods)))
    assert wired == [], f"ALLOWED names that a command reaches; remove their entries: {wired}"


def test_every_name_is_reached():
    mods = modules()
    every = every_name(mods)
    roots = command_roots(mods) + [key(k) for k in ALLOWED if key(k) in every]
    unreached = sorted(f"{m}.{n}" for m, n in every - reached(mods, roots))
    assert unreached == [], ("no command reaches these names: delete them, wire them in, "
                             f"or give each an ALLOWED reason: {unreached}")
