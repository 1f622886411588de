"""No ``src/sgcap`` module imports a name it never uses.

Each module's syntax tree is read, not imported: a name an import binds
counts as used if the module references it or lists it in ``__all__``.
A line marked ``# noqa: F401`` may import a name for others to find
there (decoder.py keeps the names perfbench's tracer patches), and
``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgcap"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import (\n"
        "    kept,\n"
        "    listed,\n"
        "    unused,\n"
        ")\n"
        "from .b import hook  # noqa: F401\n"
        "__all__ = ['listed']\n"
        "print(os.sep, kept)\n"
    )
    assert unused_imports(source) == ["np", "unused"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
