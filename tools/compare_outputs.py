"""Compare the output bodies of two chunkkit trees on the benchmark's inputs.

    python tools/compare_outputs.py PARENT_DIR [--seeds 0-19] [--workloads chunk,distill,eval,eval-k,dataset,chunk-flat,clean]

Run from the repository root. For each workload and seed it builds the
benchmark's inputs with ``perfbench/corpus.py``'s ``build`` (imported from
this tree) and runs the workload's commands, ``perfbench/run.py``'s
``COMMANDS``, once with ``PARENT_DIR/src`` and once with this tree's
``src``, each in a subprocess and in its own copy of the inputs. Every
file in ``run.OUTPUTS`` is then compared with its header line dropped, so
the timestamp does not count. Each body that differs is printed as a
unified diff, and so is each command that exits other than 0; the exit
code is 1 if anything is printed, else 0. ``eval-http`` needs the
benchmark's fake LM server and is not offered.

The ``eval-k`` set is the ``eval`` workload's command with ``--k 0.025``
on the same inputs. At the benchmark's K = 0.8 no graph keeps an edge, so
every ``cs_c`` and ``cs_i`` is 0.0 and a wrong edge cannot show; at 0.025
every graph keeps some.

The ``dataset`` set is no benchmark workload. On the ``eval`` workload's
inputs it runs ``dataset windows``, ``label``, ``rules`` and ``emit`` over
the reference chunk sets, and ``chunk --method fixed`` and ``boundary``
with ``--calibrate-avg 178``, and compares every file they write.

The ``chunk-flat`` set is no benchmark workload either. It runs the
``chunk`` workload's commands on the ``chunk`` inputs with each ``\n\n``
replaced by one space, with reference chunk sets recorded again by
``chunk_boundary_aware`` and expert tables by ``corpus._moc_tables``. With
no paragraph break, every window is cut at a sentence end, a fallback that
no benchmark window takes.

The ``clean`` set is no benchmark workload either. On the ``distill``
workload's inputs it runs ``dataset clean``, which searches whole
documents, on a ``--generated`` file that this tool writes from the
reference chunk texts: every third chunk verbatim, every third with one to
three characters replaced by a mark no document holds, and the rest with
every fifth character replaced by the next code point.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
import run  # noqa: E402
from chunkkit.chunkers import chunk_boundary_aware  # noqa: E402
from chunkkit.text import Document, save_chunksets, save_corpus  # noqa: E402

_DATASET_ARGS = ["--corpus", "corpus.jsonl", "--chunksets", "reference.jsonl"]
# each set: the workload whose inputs it runs on, its commands, its outputs
SETS = {workload: (workload, run.COMMANDS[workload], run.OUTPUTS[workload])
        for workload in ("chunk", "distill", "eval")}
SETS["eval-k"] = ("eval", [[*run.COMMANDS["eval"][0], "--k", "0.025"]],
                  run.OUTPUTS["eval"])
SETS["dataset"] = ("eval", [
    ["dataset", "windows", "--corpus", "corpus.jsonl", "--out", "windows.jsonl"],
    ["dataset", "label", *_DATASET_ARGS, "--out", "labels.jsonl"],
    ["dataset", "rules", *_DATASET_ARGS, "--out", "rules.jsonl"],
    ["dataset", "emit", *_DATASET_ARGS, "--out-dir", "emitted"],
    *(["chunk", "--corpus", "corpus.jsonl", "--out", f"{method}.jsonl",
       "--method", method, "--calibrate-avg", "178"] for method in ("fixed", "boundary")),
], [("windows.jsonl", True), ("labels.jsonl", True), ("rules.jsonl", True),
    *((f"emitted/expert_{label}.jsonl", False) for label in range(4)),
    ("emitted/router.jsonl", False), ("emitted/manifest.json", False),
    ("fixed.jsonl", False), ("boundary.jsonl", False)])
SETS["chunk-flat"] = ("chunk", run.COMMANDS["chunk"], run.OUTPUTS["chunk"])
SETS["clean"] = ("distill", [
    ["dataset", "clean", "--corpus", "corpus.jsonl", "--generated", "generated.jsonl",
     "--out", "verdicts.jsonl"],
], [("verdicts.jsonl", True)])
WORKLOADS = tuple(SETS)
_CLI = "from chunkkit.cli import main; main(prog_name='chunkkit')"


def parse_seeds(text: str) -> list[int]:
    """``0-19``, ``3`` or ``1,4,7-9`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_workloads(text: str) -> list[str]:
    names = [w for w in text.split(",") if w]
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(f"choose from {', '.join(WORKLOADS)}")
    return names


def _edited(text: str, i: int) -> str:
    """Chunk ``i`` of a document as the ``clean`` set gives it back."""
    if i % 3 == 0:
        return text
    if i % 3 == 1:
        marks = 1 + i // 3 % 3  # one to three, spread out
        at = {len(text) * k // (marks + 1) for k in range(1, marks + 1)}
        return "".join(corpus.EDIT_MARK if j in at else ch for j, ch in enumerate(text))
    return "".join(chr(ord(ch) + 1) if j % 5 == 2 else ch for j, ch in enumerate(text))


def write_generated(inputs: corpus.Inputs, path: Path) -> None:
    """The ``clean`` set's ``--generated`` file, one record per document."""
    path.write_text("".join(
        json.dumps({"doc_id": cs.doc_id,
                    "chunks": [_edited(c.text, i) for i, c in enumerate(cs.chunks)]},
                   ensure_ascii=False) + "\n"
        for cs in inputs.reference), encoding="utf-8")


def build_flat(seed: int, out: Path) -> corpus.Inputs:
    """The ``chunk-flat`` set's inputs, written into ``out``."""
    docs = [Document(id=d.id, text=d.text.replace("\n\n", " "))
            for d in corpus.make_documents("chunk", seed)]
    inputs = corpus.Inputs(docs=docs, reference=[
        chunk_boundary_aware(d, corpus.TARGET_LEN) for d in docs])
    out.mkdir(parents=True)
    save_corpus(docs, out / "corpus.jsonl")
    save_chunksets(inputs.reference, out / "reference.jsonl")
    corpus._moc_tables(inputs, out)
    return inputs


def run_tree(src: Path, workload: str, work: Path) -> tuple[list[int], dict]:
    """Exit codes of the workload's commands run with ``src`` in ``work``,
    and each output's body (None when the file is missing)."""
    _, commands, outputs = SETS[workload]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    codes = [subprocess.run([sys.executable, "-c", _CLI, *args], cwd=work, env=env,
                            capture_output=True).returncode
             for args in commands]
    bodies = {}
    for name, header in outputs:
        path = work / name
        lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else None
        bodies[name] = lines[1:] if lines and header else lines
    return codes, bodies


def compare(parent_src: Path, workload: str, seed: int) -> list[str]:
    """The differences between the two trees on one workload and seed."""
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        inputs = Path(tmp) / "inputs"
        built = SETS[workload][0]
        if workload == "chunk-flat":
            built_inputs = build_flat(seed, inputs)
        else:
            built_inputs = corpus.build(built, seed, inputs)
        corpus.write_config(built, inputs)
        if workload == "clean":
            write_generated(built_inputs, inputs / "generated.jsonl")
        results = {}
        for side, src in (("parent", parent_src), ("tree", ROOT / "src")):
            shutil.copytree(inputs, Path(tmp) / side)
            results[side] = run_tree(src, workload, Path(tmp) / side)
    (parent_codes, parent), (codes, bodies) = results["parent"], results["tree"]
    where = f"{workload} seed {seed}"
    found = []
    if codes != parent_codes or any(codes):  # every benchmark command exits 0
        found.append(f"{where}: exit codes {parent_codes} -> {codes}")
    for name, body in bodies.items():
        if body != parent[name]:
            diff = difflib.unified_diff(parent[name] or [], body or [], lineterm="",
                                        fromfile=f"parent/{name}", tofile=f"tree/{name}")
            found.append(f"{where}: {name} differs\n" + "\n".join(diff))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="checkout whose src/ gives the reference outputs")
    parser.add_argument("--seeds", type=parse_seeds, default="0-19")
    parser.add_argument("--workloads", type=parse_workloads, default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    parent_src = args.parent.resolve() / "src"
    if not (parent_src / "chunkkit" / "__init__.py").is_file():
        parser.error(f"{parent_src}/chunkkit not found")

    differences = []
    for workload in args.workloads:
        for seed in args.seeds:
            differences += compare(parent_src, workload, seed)
    for difference in differences:
        print(difference)
    runs = len(args.workloads) * len(args.seeds)
    print(f"{runs} workload runs compared: {len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
