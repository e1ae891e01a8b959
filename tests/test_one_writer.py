"""Every file the package writes goes through ``knowledge.write_lines``: no
other function of a module under src/ploop calls ``write_text``,
``write_bytes``, or an ``open`` in a write mode."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ploop"

# The one function that may open a file for writing.
WRITER = ("knowledge.py", "write_lines")

# A mode string of open, io.open or Path.open that writes, appends, creates
# or updates; and the os.open flags that do.
WRITE_MODE = re.compile(r"[rbt]*[wax+][rwaxbt+]*")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call names a write mode or a write flag."""
    for arg in (*call.args, *(kw.value for kw in call.keywords)):
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                and WRITE_MODE.fullmatch(arg.value):
            return True
        for node in ast.walk(arg):
            if isinstance(node, ast.Attribute) and node.attr in WRITE_FLAGS \
                    or isinstance(node, ast.Name) and node.id in WRITE_FLAGS:
                return True
    return False


def file_writes(source: str) -> list[tuple[str | None, int]]:
    """Each call in source that writes a file, as the top-level function it
    is in (None outside any) and its line, in source order."""
    writes = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes") \
                    or name == "open" and _opens_for_writing(node):
                writes.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            top = child.name if function is None and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else function
            visit(child, top)

    visit(ast.parse(source), None)
    return writes


def test_only_write_lines_writes_a_file():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    writes = [(module.name, function, line) for module in modules
              for function, line in file_writes(module.read_text(encoding="utf-8"))]
    assert [w for w in writes if w[:2] != WRITER] == []
    assert any(w[:2] == WRITER for w in writes), "the writer no longer writes"


def test_finds_each_kind_of_write():
    source = ("import os\n"
              "from pathlib import Path\n"
              "def save(p):\n"
              "    Path(p).write_text('x')\n"
              "    with open(p, 'rb') as f, open(p, mode='a') as g:\n"
              "        pass\n"
              "class Store:\n"
              "    def dump(self, p):\n"
              "        Path(p).open('w+').close()\n"
              "        os.open(p, os.O_WRONLY | os.O_CREAT)\n"
              "        os.open(p, os.O_RDONLY)\n"
              "def load(p):\n"
              "    return Path(p).read_text(), open(p).read()\n"
              "Path('x').write_bytes(b'')\n")
    assert file_writes(source) == [("save", 4), ("save", 5), ("Store", 9), ("Store", 10),
                                   (None, 14)]
