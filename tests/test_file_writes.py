"""Only ``cli`` and ``text`` touch the file system for output.

``cli`` decides where each output goes and stages it so that a failed run
keeps the old one; ``text`` reads and writes the JSON-lines formats. Every
other module returns values. This test parses the package source and fails
on a file-opening or file-writing call anywhere else.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chunkkit"
ALLOWED = {"cli.py", "text.py"}
WRITE_METHODS = {"open", "write_text", "mkdir"}


def file_calls(tree: ast.AST) -> list[str]:
    """``open``, ``<x>.open``, ``<x>.write_text``, ``<x>.mkdir`` and
    ``os.replace`` calls in ``tree``, as ``line N: name``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            name = "open"
        elif isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
            name = func.attr
        elif (isinstance(func, ast.Attribute) and func.attr == "replace"
              and isinstance(func.value, ast.Name) and func.value.id == "os"):
            name = "os.replace"
        else:
            continue
        found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name not in ALLOWED))
def test_module_writes_no_files(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert file_calls(tree) == []


def test_the_check_sees_each_call():
    tree = ast.parse("open(p)\np.open()\np.write_text(s)\np.mkdir()\n"
                     "os.replace(a, b)\nreplace(c, index=0)\ns.replace('a', 'b')\n")
    assert file_calls(tree) == ["line 1: open", "line 2: open", "line 3: write_text",
                                "line 4: mkdir", "line 5: os.replace"]
