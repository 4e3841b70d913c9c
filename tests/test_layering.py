"""Each layer imports alone: importing a module loads the package's modules
it reads and no others, and the package namespace loads none."""

from __future__ import annotations

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
