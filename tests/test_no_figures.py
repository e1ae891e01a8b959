"""Timings and sizes live in the BENCH files, not in the code or its prose.

A figure taken on one host on one day goes stale with the next change
that moves it, and then the prose misleads. So no docstring or comment
of ``src/ploop`` and no README line outside ``## Performance`` quotes a
number with a unit of time, size or share, or names the host a figure
was taken on. README's Performance table is the one place that prints
the current figures, and each of its rows equals, at the precision it
prints, the BENCH file it names.
"""

import ast
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ploop"
README = ROOT / "README.md"

# A number followed by a unit of time, size or share, or a host description.
FIGURE = re.compile(r"(?<![\w.])\d[\d,.]*\s?(?:µs|us|ns|ms|s|KB|MB|GB|B|%|×)(?!\w)"
                    r"|\bx86|\bVM\b")

# The Performance table's figure columns: each one's metric in a BENCH file,
# the factor from the file's unit (s, MB) to the printed one (ms, MB), and
# the decimal places printed.
COLUMNS = (("setup_s", 1000, 3), ("run_s", 1000, 3), ("report_s", 1000, 3),
           ("peak_rss_mb", 1, 2))


def prose(source: str) -> list[tuple[int, str]]:
    """Each line of a module's docstrings (the module's, each class's and
    each function's) and each comment, as (line number, text)."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            doc = node.body[0]
            found += [(n, lines[n - 1]) for n in range(doc.lineno, doc.end_lineno + 1)]
    found += [(token.start[0], token.string)
              for token in tokenize.generate_tokens(io.StringIO(source).readline)
              if token.type == tokenize.COMMENT]
    return found


def readme_sections() -> dict[str, list[tuple[int, str]]]:
    """README's lines, numbered from 1, under the heading of the ``## ``
    section each falls in ("" before the first)."""
    sections: dict[str, list[tuple[int, str]]] = {}
    heading = ""
    for n, line in enumerate(README.read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("## "):
            heading = line[3:].strip()
        sections.setdefault(heading, []).append((n, line))
    return sections


@pytest.mark.parametrize("text", [
    "0.2 µs", "(0.18 us)", "1.6-1.7 us", "5 ns", "20 ms", "30 s", "58 KB", "29.26 MB",
    "1 GB", "180 KB", "512 B", "11.3%", "86% of", "1.8×", "2-core x86-64", "a shared VM",
])
def test_the_pattern_flags_a_figure(text):
    assert FIGURE.search(text)


@pytest.mark.parametrize("text", [
    "512 lines", "32 texts", "Python 3.11", "sha256", "utf-8", "ext4", "'m%06d' % seq",
    "seed 1", "10 of 10", "generation 2 at tick 19", "tests/test_golden.py", "VMs",
])
def test_the_pattern_passes_what_is_no_figure(text):
    assert not FIGURE.search(text)


def test_no_docstring_or_comment_in_src_quotes_a_figure():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    flagged = [f"{module.name}:{n}: {text.strip()}" for module in modules
               for n, text in prose(module.read_text(encoding="utf-8")) if FIGURE.search(text)]
    assert flagged == []


def test_readme_quotes_figures_only_under_performance():
    sections = readme_sections()
    flagged = [f"README.md:{n}: {line}" for heading, lines in sections.items()
               if heading != "Performance" for n, line in lines if FIGURE.search(line)]
    assert flagged == []
    assert "Performance" in sections


def test_the_performance_table_is_the_bench_files_it_names():
    section = "\n".join(line for _, line in readme_sections()["Performance"])
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    assert rows[0] == ["workload", "setup", "run", "report", "peak RSS", "BENCH file"]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(row[0] for row in rows[2:]) == sorted(workloads)
    for workload, *figures, name in rows[2:]:
        path = ROOT / name.strip("`")
        assert path.name.startswith("BENCH_") and path.is_file(), name
        bench = json.loads(path.read_text(encoding="utf-8"))
        summary = bench["workloads"][workload]["summary"]
        for printed, (metric, factor, places) in zip(figures, COLUMNS, strict=True):
            value = summary[metric]["change_median"] * factor
            assert f"{value:.{places}f}" == printed, (workload, metric)
        assert f"command: `{bench['command']}`" in section, name
        assert f"host: {bench['host']}" in section, name
