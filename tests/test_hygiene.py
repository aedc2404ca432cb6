"""Source hygiene checks that need no linter: unused module-level imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tabfusion"
MODULES = sorted(SRC.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Module-level imports never referenced in `source` and not in its `__all__`."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    keep = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [name for name in bound if name not in keep]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import pi, tau as turn\nfrom .x import Kept\n"
        "__all__ = ['Kept']\n"
        "def f() -> float:\n    return os.path.sep, pi\n"
    )
    assert unused_imports(source) == ["json", "turn"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
