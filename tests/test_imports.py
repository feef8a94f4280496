"""Every top-level import of a package module is used in that module. The
check reads the source with ``ast``: a name bound by an import must be
read somewhere in the module (``__init__.py`` re-exports, so it is left
out)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stackgrasp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module body's import statements bind and that no
    ``ast.Name`` in the module reads, in the order they are imported."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_an_unused_import():
    source = "import json\nimport math as m\nfrom typing import Mapping, Sequence\nx: Sequence = m.pi\n"
    assert unused_imports(source) == ["json", "Mapping"]


def test_future_import_is_not_a_name():
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
