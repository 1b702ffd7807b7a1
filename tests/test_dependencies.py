"""The declared runtime dependencies are exactly what the package imports.

Every top-level third-party module imported anywhere under ``src/chunkkit``
must be listed in ``pyproject.toml``'s ``[project] dependencies``, and every
listed distribution must be imported somewhere: a dependency left in the
list after its last import, or an import added without its dependency,
fails here.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
DISTRIBUTION = {"yaml": "pyyaml"}  # import name -> distribution, where they differ


def imported_third_party() -> set[str]:
    """Distribution names of the top-level modules the package imports."""
    names: set[str] = set()
    for path in (ROOT / "src" / "chunkkit").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    third_party = names - set(sys.stdlib_module_names) - {"__future__", "chunkkit"}
    return {DISTRIBUTION.get(name, name) for name in third_party}


def declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("_", "-")
            for r in requirements}


def test_declared_dependencies_are_what_the_package_imports():
    assert imported_third_party() == declared() == {"click", "pyyaml"}
