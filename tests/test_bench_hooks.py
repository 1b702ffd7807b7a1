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

from chunkkit import prompts
from chunkkit.rules import DEFAULT_PLACEHOLDER

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


def write_inputs(tmp_path: Path) -> None:
    """A two-document corpus, a chunk set of two chunks per document and a
    config of offline backends, in ``tmp_path``."""
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


def run_script(script: str, arg, tmp_path: Path) -> dict:
    """The JSON last line ``script`` prints when it runs in a fresh
    interpreter with the probes importable, ``arg`` as JSON its argument."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(arg)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_set_up_only_commands_stop_at_first_document(tmp_path):
    write_inputs(tmp_path)
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
    outcomes = run_script(SCRIPT, commands, tmp_path)
    assert outcomes == {name: "setup-done" for name in commands}
    # a command stopped in set-up leaves no output and no temporary file
    left = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert left == ["chunks.jsonl", "config.json", "corpus.jsonl", "empty.json"]


TRACED = r"""
import json, sys
import probes

rec = probes.Recorder(trace=True)
probes.install(rec)
from chunkkit import cli, metrics

# each function of chunkkit.metrics that a probe wraps, by its probe's name
wrapped = sorted({attr for owner in (cli, metrics) for attr, fn in vars(owner).items()
                  if getattr(getattr(fn, "__wrapped__", None), "__module__", None)
                  == metrics.__name__})
cli.main.main(args=json.loads(sys.argv[1]), prog_name="chunkkit",
              standalone_mode=False)
print(json.dumps({name: rec.counts[f"metrics.{name}.calls"] for name in wrapped}))
"""


def test_traced_eval_calls_every_wrapped_metric(tmp_path):
    # a probe on a name the command no longer calls reads 0; each metric
    # the eval workload asks for is counted where it is computed, once per
    # chunk set (build_graph once per variant)
    write_inputs(tmp_path)
    calls = run_script(TRACED, [
        "--config", "config.json", "eval", "--corpus", "corpus.jsonl",
        "--chunksets", "chunks.jsonl", "--metrics", "bc,cs_c,cs_i,ds",
        "--out", "r.jsonl"], tmp_path)
    assert calls == {"boundary_clarity": 2, "build_graph": 4,
                     "dissimilarity": 2, "evaluate_chunksets": 2}


TRACED_MOC = r"""
import json, sys
import probes

rec = probes.Recorder(trace=True)
probes.install(rec)
from chunkkit import cli

names, argv = json.loads(sys.argv[1])
cli.main.main(args=argv, prog_name="chunkkit", standalone_mode=False)
print(json.dumps({name: rec.counts[f"{name}.calls"] for name in names}))
"""

# d0 and d1 are one window each; their rule lists corrupt one prefix each
# ("Bexa" and "Epsiloo"), which str.find misses and recovery finds
MOC_DOCS = {
    "d0": ("Alpha sentence one. Beta sentence two. Gamma sentence three.",
           ["Alpha sen[MASK]nce one.", "Bexa sen[MASK]ce three."]),
    "d1": ("Delta line four. Epsilon line five. Zeta line six.",
           ["Delta line[MASK]four.", "Epsiloo line[MASK] six."]),
}


def test_traced_moc_chunk_calls_every_anchor_layer(tmp_path):
    # each layer of the MoC path is counted where it runs: one call per
    # document, and one anchor recovery, and one search, per corrupted prefix
    (tmp_path / "corpus.jsonl").write_text("".join(
        json.dumps({"id": doc_id, "text": text}) + "\n"
        for doc_id, (text, _) in MOC_DOCS.items()))
    (tmp_path / "expert.json").write_text(json.dumps({"entries": [
        {"prompt": prompts.render(prompts.RULE_CHUNK_PROMPT, text=text,
                                  placeholder=DEFAULT_PLACEHOLDER),
         "response": json.dumps(rules)}
        for text, rules in MOC_DOCS.values()]}))
    expert = {"kind": "fixture", "table": "expert.json"}
    (tmp_path / "config.json").write_text(json.dumps({
        "router": {"kind": "ngram", "order": 2, "corpus": "corpus.jsonl"},
        "experts": {str(i): expert for i in range(4)},
    }))
    names = ["moc.moc_chunk", "dataset.sliding_windows", "moc.route",
             "moc.generate_rules", "rules.parse_rule_list", "fuzzy.recover_anchor",
             "fuzzy.best_substring_match"]
    calls = run_script(TRACED_MOC, [names, [
        "--config", "config.json", "chunk", "--corpus", "corpus.jsonl",
        "--out", "moc.jsonl", "--method", "moc", "--report", "report.jsonl"]], tmp_path)
    assert calls == {"moc.moc_chunk": 2, "dataset.sliding_windows": 2, "moc.route": 2,
                     "moc.generate_rules": 2, "rules.parse_rule_list": 2,
                     "fuzzy.recover_anchor": 2, "fuzzy.best_substring_match": 2}
    reports = [json.loads(line) for line in
               (tmp_path / "report.jsonl").read_text().splitlines()[1:]]
    assert [[rule["mode"] for rule in report["rules"]] for report in reports] == \
        [["exact", "recovered"]] * 2
