"""The benchmark's hooks still fit the CLI.

``perfbench/probes.py`` wraps names in ``chunkkit.cli`` and the layers below
it, and ends a set-up-only command at its first per-document call. A renamed
or unused name fails a benchmark run only after the change lands; this test
installs the probes in a fresh interpreter and runs each benchmarked command
on a tiny corpus.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
import probes

rec = probes.Recorder(trace=True, setup_only=True)
probes.install(rec)  # raises AttributeError if a wrapped name is gone
from chunkkit import cli

outcomes = {}
for name, argv in json.loads(sys.argv[1]).items():
    rec.first_doc = None
    try:
        cli.main.main(args=argv, prog_name="chunkkit")
        outcome = "completed"
    except probes.SetupDone:
        outcome = "setup-done" if rec.first_doc is not None else "unmarked"
    except SystemExit as exc:
        outcome = f"exit {exc.code}"
    outcomes[name] = outcome
print(json.dumps(outcomes))
"""


def test_set_up_only_commands_stop_at_first_document(tmp_path):
    text = "Alpha sentence one. Beta sentence two. Gamma sentence three."
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": f"d{i}", "text": text}) + "\n" for i in range(2)))
    (tmp_path / "chunks.jsonl").write_text("".join(
        json.dumps({"doc_id": f"d{i}", "method": "fixed",
                    "chunks": [{"index": 0, "start": 0, "end": 19},
                               {"index": 1, "start": 20, "end": len(text)}]}) + "\n"
        for i in range(2)))
    (tmp_path / "empty.json").write_text(json.dumps({"entries": []}))
    fixture = {"kind": "fixture", "table": "empty.json"}
    (tmp_path / "config.json").write_text(json.dumps({
        "scorer": {"kind": "ngram", "order": 2, "corpus": "corpus.jsonl"},
        "embedder": {"kind": "hash", "dim": 16},
        "router": fixture,
        "experts": {str(i): fixture for i in range(4)},
        "generator": fixture,
    }))
    config = ["--config", "config.json"]
    commands = {
        "chunk-semantic": [*config, "chunk", "--corpus", "corpus.jsonl", "--out",
                           "semantic.jsonl", "--method", "semantic",
                           "--calibrate-avg", "30"],
        "chunk-moc": [*config, "chunk", "--corpus", "corpus.jsonl", "--out",
                      "moc.jsonl", "--method", "moc", "--report", "report.jsonl"],
        "eval": [*config, "eval", "--corpus", "corpus.jsonl", "--chunksets",
                 "chunks.jsonl", "--metrics", "bc,cs_c,cs_i,ds", "--out", "r.jsonl"],
        "distill": [*config, "dataset", "distill", "--corpus", "corpus.jsonl",
                    "--out-dir", "distilled"],
    }
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout.splitlines()[-1])
    assert outcomes == {name: "setup-done" for name in commands}, proc.stderr
    # a command stopped in set-up leaves no output and no temporary file
    left = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert left == ["chunks.jsonl", "config.json", "corpus.jsonl", "empty.json"]
