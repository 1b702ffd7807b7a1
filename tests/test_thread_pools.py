"""Only ``backends`` makes thread pools.

An HTTP scorer's ``score_many`` sends a request list on threads of the
client's own pool; the metrics hand it whole lists and never make a pool,
and offline scorers score on the calling thread. This test parses the
package source and fails on an import of ``concurrent.futures`` in any
other module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chunkkit"
ALLOWED = {"backends.py"}


def futures_imports(tree: ast.AST) -> list[str]:
    """Imports of ``concurrent`` or a submodule of it in ``tree``, as
    ``line N: module``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules
                  if m == "concurrent" or m.startswith("concurrent.")]
    return found


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name not in ALLOWED))
def test_module_makes_no_pool(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert futures_imports(tree) == []


def test_the_check_sees_each_import():
    tree = ast.parse("import concurrent.futures\nfrom concurrent import futures\n"
                     "from concurrent.futures import ThreadPoolExecutor\n"
                     "import concurrency\nfrom .concurrent import x\nimport os\n")
    assert futures_imports(tree) == ["line 1: concurrent.futures", "line 2: concurrent",
                                     "line 3: concurrent.futures"]
