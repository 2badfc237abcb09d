"""Source-level rules of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "m4kit"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_check_rests_on_assert(path):
    # python -O strips assert statements; every check must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


# what checker.py may take from the engine: the certificate it replays and the
# names of the verdicts; everything else it re-derives by word algebra
CHECKER_MAY_IMPORT = {"Certificate", "TRIVIAL", "INFINITE_CYCLIC",
                      "FINITE_CYCLIC", "INCONCLUSIVE"}


def imports_of(path):
    """Map each package module that `path` imports from to the names it
    takes (an empty set for a whole-module import)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name.removeprefix("m4kit."), set())
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("m4kit.")
            if node.level and not node.module:      # from . import coset
                for alias in node.names:
                    found.setdefault(alias.name, set())
            else:
                found.setdefault(module, set()).update(
                    alias.name for alias in node.names)
    return found


def test_checker_stays_independent_of_the_engine():
    imported = imports_of(PACKAGE / "checker.py")
    assert imported.get("certify", set()) <= CHECKER_MAY_IMPORT, \
        imported["certify"] - CHECKER_MAY_IMPORT
    assert "coset" not in imported and "abelian" not in imported
