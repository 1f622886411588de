"""The benchmark's workloads: every sgcap name they read must exist.

perfbench/workloads.py builds its inputs and runs its items through
sgcap's own functions, imported inside the functions that use them. A
name that is renamed or removed from sgcap fails only when the workload
runs, so this test reads the file's syntax tree instead: each
``from sgcap... import`` and ``import sgcap...``, and each attribute chain
rooted at a name so imported (``Vocabulary.load``,
``captioner.CaptionerParams.init``), must resolve. tests/test_tracing.py
covers the names the tracer patches.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def sgcap_bindings(tree) -> dict[str, str]:
    """Local name -> dotted sgcap path, for every sgcap import in ``tree``."""
    bound: dict[str, str] = {}

    def bind(name, target):
        assert bound.setdefault(name, target) == target, f"{name} names both {bound[name]} and {target}"

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sgcap":
            for alias in node.names:
                bind(alias.asname or alias.name, f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sgcap":
                    bind(alias.asname or alias.name.split(".")[0],
                         alias.name if alias.asname else "sgcap")
    return bound


def attribute_chains(tree, roots) -> set[tuple[str, ...]]:
    """Every maximal ``root.a.b...`` chain in ``tree`` whose root is one of ``roots``."""
    inner = set()
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
                inner.add(id(node))
            if isinstance(node, ast.Name) and node.id in roots:
                chains.add((node.id, *reversed(parts)))
    return chains


def resolve(dotted: str):
    """The object at a dotted sgcap path: the longest importable module, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for k, attr in enumerate(parts[cut:], cut):
            assert hasattr(obj, attr), f"{'.'.join(parts[:k])} has no attribute {attr!r}"
            obj = getattr(obj, attr)
        return obj
    raise AssertionError(f"no sgcap module in {dotted}")


def test_every_sgcap_name_the_workloads_read_resolves():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    bound = sgcap_bindings(tree)
    assert {"Vocabulary", "captioner", "trainer", "features"} <= set(bound)
    for target in bound.values():
        resolve(target)
    chains = attribute_chains(tree, bound)
    assert ("Vocabulary", "load") in chains and ("captioner", "CaptionerParams", "init") in chains
    for root, *attrs in chains:
        resolve(".".join([bound[root], *attrs]))
