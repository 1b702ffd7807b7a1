"""Heavy third-party modules load only on a path that uses them.

``requests`` serves only the HTTP backends, ``numpy`` only the embedders,
``cosine`` and ``pearson``, and ``yaml`` only a YAML config. Each check runs
in a fresh interpreter and asserts which modules are loaded, never how long
loading takes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("requests", "numpy", "yaml")


def loaded_after(code: str) -> set[str]:
    """The modules of HEAVY that are in ``sys.modules`` after ``code`` runs."""
    script = (f"import json, sys\n{code}\n"
              f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_none_of_them():
    assert loaded_after("import chunkkit.cli") == set()


@pytest.mark.parametrize("code,expected", [
    ("config.build_embedder(config.BackendSpec('hash'))", {"numpy"}),
    ("config.build_scorer(config.BackendSpec("
     "'http', {'endpoint': 'http://127.0.0.1:9', 'model': 'm'}))", {"requests"}),
    ("config.build_scorer(config.BackendSpec('ngram', {'alphabet': 'ab'}))", set()),
], ids=["hash-embedder-loads-numpy", "http-scorer-loads-requests",
        "ngram-scorer-loads-neither"])
def test_building_a_backend_loads_what_it_uses(code, expected):
    loaded = loaded_after(f"from chunkkit import config\n{code}")
    assert expected <= loaded
    assert not ({"requests", "numpy"} - expected) & loaded


def test_yaml_config_loads_yaml(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("concurrency: 2\n")
    assert loaded_after(
        f"from chunkkit.config import load_config\nload_config({str(path)!r})"
    ) == {"yaml"}
