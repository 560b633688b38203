"""Every imported name in src/ and tests/ is used in its module.

A package __init__.py is exempt: its imports are the public API. Names in
string annotations count as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _annotation_names(tree):
    """Names inside string annotations such as "MatrixControlField"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                expr = ast.parse(sub.value, mode="eval")
                names |= {n.id for n in ast.walk(expr)
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list:
    """(line, name) of every import in source that nothing references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import TYPE_CHECKING\n"
              "from a import b, c as d\n"
              "if TYPE_CHECKING:\n"
              "    from f import G\n"
              "def h(x: \"G\") -> int:\n"
              "    return d(x)\n")
    assert unused_imports(source) == [(2, "os"), (4, "b")]


def test_no_unused_imports_in_src_and_tests():
    files = sorted((ROOT / "src").rglob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []
