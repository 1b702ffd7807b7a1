"""Every module of the package uses each name it imports.

A deletion can leave an import behind, such as a class or helper whose
last reader went with it. This test parses each module of ``src/chunkkit``
but ``__init__.py``, whose imports are the package's exports, and fails on
an imported name that the module never reads. A name read only inside a
quoted annotation counts as read.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chunkkit"


def unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import in ``tree`` and never read, as
    ``line N: name``."""
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "ChunkSet"
                quoted = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):  # ValueError: a lone surrogate
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_the_check_sees_each_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\n"
                     "from .rules import GranularityLabel, label_for_mean\n"
                     "from .text import ChunkSet\n"
                     "import json\n"
                     "def f(x: 'ChunkSet') -> None:\n"
                     "    return json.dumps(label_for_mean(x))\n")
    assert unused_imports(tree) == ["line 2: os", "line 3: regex",
                                    "line 4: GranularityLabel"]
