"""Heavy third-party modules load only on a path that uses them.

``yaml`` serves only a YAML config. No path loads ``requests`` or
``numpy``: the HTTP backends use ``http.client``, and the embedders,
``adjacent_cosines`` and ``pearson`` use the standard library. Both stay
in HEAVY so that an import of either added back fails here. Each check
runs in a fresh interpreter and asserts which modules are loaded, never
how long loading takes.
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


@pytest.mark.parametrize("code", [
    "config.build_embedder(config.BackendSpec('hash'))",
    "config.build_scorer(config.BackendSpec("
    "'http', {'endpoint': 'http://127.0.0.1:9', 'model': 'm'}))",
    "config.build_scorer(config.BackendSpec('ngram', {'alphabet': 'ab'}))",
], ids=["hash-embedder-loads-none", "http-scorer-loads-none",
        "ngram-scorer-loads-neither"])
def test_building_a_backend_loads_what_it_uses(code):
    assert loaded_after(f"from chunkkit import config\n{code}") == set()


@pytest.mark.parametrize("args", [
    ["--config", "{tmp}/config.json", "chunk", "--method", "semantic",
     "--corpus", "{tmp}/corpus.jsonl", "--out", "{tmp}/chunks.jsonl"],
    ["pearson", "{tmp}/table.json", "--x", "a", "--y", "b"],
], ids=["chunk-semantic", "pearson"])
def test_offline_command_loads_none_of_them(tmp_path, args):
    (tmp_path / "config.json").write_text(json.dumps({"embedder": {"kind": "hash"}}))
    (tmp_path / "corpus.jsonl").write_text(json.dumps(
        {"id": "d0", "text": "Roses are red. Violets are blue. Sugar is sweet."}) + "\n")
    (tmp_path / "table.json").write_text(json.dumps({"a": [1, 2, 3], "b": [2, 1, 4]}))
    args = [a.format(tmp=tmp_path) for a in args]
    assert loaded_after(
        "from chunkkit.cli import main\n"
        f"try:\n    main({args!r})\nexcept SystemExit as exc:\n    assert not exc.code\n"
    ) == set()


def test_yaml_config_loads_yaml(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("concurrency: 2\n")
    assert loaded_after(
        f"from chunkkit.config import load_config\nload_config({str(path)!r})"
    ) == {"yaml"}
