"""Every name a module of the package imports is used in that module, and
every private name a module binds at top level is read by some module."""

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


def private_bindings(tree: ast.Module) -> list[str]:
    """The ``_name``s a module binds at top level by a def, a class or an
    assignment, in source order; dunder names are left out."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def reads(tree: ast.Module) -> set[str]:
    """Every name a module reads: as a name, as an attribute, or by importing it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Each (module, name) whose top-level private name no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return [(module, name) for module, tree in trees.items()
            for name in private_bindings(tree) if name not in read]


def test_every_private_name_is_read():
    sources = {module.name: module.read_text(encoding="utf-8")
               for module in sorted(SRC.rglob("*.py"))}
    assert sources
    assert dead_private_names(sources) == []


def test_finds_a_dead_private_name():
    sources = {
        "a.py": ("_USED, _SPARE = 1, 2\n"
                 "_total: int = 0\n"
                 "__all__ = ['f']\n"
                 "def _handle_x(): return _USED\n"
                 "class _Old: pass\n"
                 "def f(): return b._shared\n"),
        "b.py": ("from .a import _total\n"
                 "_shared = 3\n"
                 "def _enum_value(): return _total\n"),
    }
    assert dead_private_names(sources) == [("a.py", "_SPARE"), ("a.py", "_handle_x"),
                                           ("a.py", "_Old"), ("b.py", "_enum_value")]
