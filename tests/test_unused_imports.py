"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ploop"

# Imports kept on purpose, each with its reason.
KEPT = {
    # perfbench traces ploop.harness.detail_str by name, so the name stays
    # in harness until engine metrics replace the tracer (ROADMAP item 4).
    ("harness.py", "detail_str"),
}


def unused_imports(source: str) -> list[str]:
    """The names source binds by import and never reads, in import order.
    A ``__future__`` import binds no name to read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unused = [(module.name, name) for module in modules
              for name in unused_imports(module.read_text(encoding="utf-8"))]
    assert sorted(set(unused) - KEPT) == []
    assert KEPT <= set(unused), "a kept import is now used or gone: drop it from KEPT"


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path as p\n"
              "from .agents import AgentError, AgentRole\n"
              "def f(x: AgentRole) -> str:\n"
              "    return json.dumps(x)\n")
    assert unused_imports(source) == ["p", "AgentError"]
