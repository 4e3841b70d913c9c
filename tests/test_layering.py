"""Each layer imports alone: importing a module loads the package's modules
it reads and no others, and the package namespace loads none. And the
library and the benchmark harness define nothing public that only the tests
use, save the names listed with their reasons below."""

from __future__ import annotations

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import revealtrack

# The revealtrack modules each import loads besides itself, from the
# ``from .`` imports of each module. The bottom layers load none.
LIBRARY = {"automaton", "householder", "joint", "marginal", "perm", "scenarios", "trace"}
LOADS = {
    "perm": set(),
    "automaton": set(),
    "householder": set(),
    "marginal": {"perm"},
    "trace": {"perm"},
    "joint": {"automaton", "perm"},
    "scenarios": {"automaton", "joint", "marginal", "perm"},
    "checks": LIBRARY,
    "cli": LIBRARY | {"checks"},
}


def _loaded_after(statement: str) -> set[str]:
    """The ``revealtrack.*`` modules a fresh interpreter holds after
    running ``statement``, by their names within the package."""
    src = str(Path(revealtrack.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); {statement}; "
        "print(' '.join(m for m in sys.modules if m.startswith('revealtrack.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    return {name.removeprefix("revealtrack.") for name in out.split()}


def test_every_module_has_a_row():
    assert {info.name for info in pkgutil.iter_modules(revealtrack.__path__)} == set(LOADS)


def test_the_package_loads_no_module():
    assert _loaded_after("import revealtrack") == set()


@pytest.mark.parametrize("module", sorted(LOADS))
def test_a_module_loads_only_what_it_imports(module):
    assert _loaded_after(f"import revealtrack.{module}") == LOADS[module] | {module}


# Public names that no module of the library or the harness uses, each kept
# for a reason.
UNUSED = {
    "build_trace": "tests compare generate against it",
    "inverse": "item 4 of ROADMAP.md maps commands through it",
    "sample_uniform": "the perfbench tracer names it, and item 1b of ROADMAP.md removes both",
    "write_automaton": "the one writer of the automaton files that simulate reads; it calls only itself",
}


def _spelled(tree: ast.AST) -> set[str]:
    """Every name that a Name, an Attribute or an import alias in ``tree`` spells."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_the_library_defines_nothing_public_that_only_the_tests_use():
    # A definition's own body does not count as a use of it; pytest
    # collects the test_ functions.
    root = Path(revealtrack.__file__).parents[2]
    defined, used = set(), set()
    for path in sorted(root.glob("src/revealtrack/*.py")) + sorted(root.glob("perfbench/*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            own = set()
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = {statement.name}
                if not statement.name.startswith(("_", "test_")):
                    defined.add(statement.name)
            used |= _spelled(statement) - own
    assert {name: UNUSED.get(name) for name in defined - used} == UNUSED
