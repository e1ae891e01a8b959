"""Every module of the package parses as the oldest Python that
pyproject.toml's ``requires-python`` admits, so syntax from a later
release cannot land while the tests run on a newer interpreter."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ploop"


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert match, "requires-python must read >=MAJOR.MINOR"
    return int(match[1]), int(match[2])


def test_every_module_parses_as_the_oldest_python():
    version = oldest_python()
    modules = sorted(SRC.glob("*.py"))
    assert modules
    refused = []
    for module in modules:
        try:
            ast.parse(module.read_text(encoding="utf-8"), filename=module.name,
                      feature_version=version)
        except SyntaxError as exc:
            refused.append(f"{module.name}:{exc.lineno}: {exc.msg}")
    assert refused == []

