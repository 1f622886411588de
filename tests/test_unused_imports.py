"""No ``src/sgcap`` module imports a name it never uses.

Each module's syntax tree is read, not imported: a name an import binds
counts as used if the module references it or lists it in ``__all__``.
A line marked ``# noqa: F401`` may import a name for others to find
there, but only a name that perfbench's tracer patches on that module
(decoder.py keeps such names), and ``from __future__`` imports bind no
name.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

from test_tracing import new_tracer

SRC = Path(__file__).resolve().parents[1] / "src" / "sgcap"


def _unused(source: str) -> list[tuple[str, bool]]:
    """The names ``source`` imports and never uses, in import order, each
    with whether its line is marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name.split(".")[0],
                                 "# noqa: F401" in lines[alias.lineno - 1]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(name, noqa) for name, noqa in imported if name not in used]


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, in import order, but
    for those on ``# noqa: F401`` lines."""
    return [name for name, noqa in _unused(source) if not noqa]


def exempt_imports(source: str) -> list[str]:
    """The names ``source`` imports on ``# noqa: F401`` lines and never uses."""
    return [name for name, noqa in _unused(source) if noqa]


@pytest.fixture(scope="module")
def traced() -> set[tuple[str, str]]:
    """(module, attribute) of every module attribute perfbench's tracer patches."""
    tracer = new_tracer()
    tracer.install()
    try:
        return {(owner.__name__, attr) for owner, attr, _ in tracer._patches if isinstance(owner, ModuleType)}
    finally:
        tracer.uninstall()


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


def test_finds_exempt_names():
    source = (
        "from .a import kept, hook  # noqa: F401\n"
        "from .b import unused\n"
        "print(kept)\n"
    )
    assert exempt_imports(source) == ["hook"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exempt_imports_are_traced(path, traced):
    module = f"sgcap.{path.stem}"
    assert [name for name in exempt_imports(path.read_text(encoding="utf-8")) if (module, name) not in traced] == []
