"""How the exact work of each per-document command grows with its input.

``tests/test_kernel_work.py`` and ``tests/test_scorer_work.py`` pin exact
work at one input size, so a loop that turns quadratic still passes them.
Here each command runs on an input L and on one of about 2L, and its work
may grow at most 1.1 times as much as the input (Goldsmith, Aiken &
Wilkerson, "Measuring empirical computational complexity", ESEC/FSE 2007).

L is ``perfbench/corpus.py``'s documents of seed 1 for a workload. 2L
joins seed-1 document i to seed-2 document i with ``"\\n\\n"``. The
reference chunk sets are ``chunk_boundary_aware`` at the corpus's target
length, and the fixture tables are recorded on each input with the
corpus's own recorders, ``_moc_tables`` and ``_distill_table``.

- ``dataset distill`` and ``chunk --method moc``: the characters the
  edit-distance kernel reads (the ``kernel_chars`` fixture).
- ``chunk --method semantic --calibrate-avg 178``: the texts embedded.
- ``eval --metrics bc,cs_c,cs_i,ds``: the distinct ``(text, context)``
  score requests equal n + n(n - 1) per document of n chunks, each chunk
  alone and under every other. The paper's complete graph is quadratic in
  chunks by definition, so this gate is a closed form, not a ratio.

No gate for ``dataset clean`` yet. It searches each generated chunk over
its whole document, so one-edit chunks read 3.51 times the kernel
characters for twice the length. Its gate lands with the exact candidate
filter of ROADMAP item 19.
"""

from __future__ import annotations

import pytest
from click.testing import CliRunner

from chunkkit import scoring
from chunkkit.chunkers import chunk_boundary_aware
from chunkkit.cli import main
from chunkkit.text import Document, save_chunksets, save_corpus

GROWTH_BOUND = 1.1  # work ratio over length ratio


def build(corpus, workload: str, scale: int, out):
    """The inputs of ``workload`` at L (``scale`` 1) or 2L (``scale`` 2),
    written into ``out`` with their config and fixture tables."""
    docs = corpus.make_documents(workload, 1)
    if scale == 2:
        docs = [Document(id=a.id, text=a.text + "\n\n" + b.text)
                for a, b in zip(docs, corpus.make_documents(workload, 2))]
    inputs = corpus.Inputs(docs=docs, reference=[
        chunk_boundary_aware(d, corpus.TARGET_LEN) for d in docs])
    out.mkdir()
    save_corpus(docs, out / "corpus.jsonl")
    save_chunksets(inputs.reference, out / "reference.jsonl")
    if workload == "chunk":
        corpus._moc_tables(inputs, out)
    elif workload == "distill":
        corpus._distill_table(inputs, out)
    corpus.write_config(workload, out)
    return inputs


def run(args: list[str], work, monkeypatch) -> None:
    monkeypatch.chdir(work)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


@pytest.fixture
def embedded_texts(monkeypatch) -> list[int]:
    """One running total of the texts every hash embedder embeds."""
    total = [0]
    embed = scoring.HashEmbedder.embed

    def counted(self, text):
        total[0] += 1
        return embed(self, text)
    monkeypatch.setattr(scoring.HashEmbedder, "embed", counted)
    return total


# Measured (L -> 2L): distill reads 3,230 -> 5,791 kernel characters
# (x1.79) for 4,360 -> 8,726 characters; moc 9,700 -> 18,115 (x1.87) for
# 76,814 -> 153,652; semantic embeds 1,040 -> 2,080 texts (x2.00).
@pytest.mark.parametrize("workload,command,counter", [
    ("distill", 0, "kernel_chars"),
    ("chunk", 1, "kernel_chars"),
    ("chunk", 0, "embedded_texts"),
], ids=["distill", "chunk-moc", "chunk-semantic"])
def test_work_grows_no_faster_than_the_input(tmp_path, monkeypatch, request,
                                             compare_tool, workload, command, counter):
    args = compare_tool.run.COMMANDS[workload][command]
    lengths, work = [], []
    for scale in (1, 2):
        inputs = build(compare_tool.corpus, workload, scale, tmp_path / f"x{scale}")
        total = request.getfixturevalue(counter)
        total[0] = 0  # recording the tables ran the kernel too
        run(args, tmp_path / f"x{scale}", monkeypatch)
        lengths.append(inputs.chars)
        work.append(total[0])
    assert work[0] > 0
    assert work[1] / work[0] <= GROWTH_BOUND * lengths[1] / lengths[0], (lengths, work)


@pytest.mark.parametrize("scale", [1, 2], ids=["L", "2L"])
def test_eval_requests_are_the_complete_graph(tmp_path, monkeypatch, compare_tool,
                                              scale):
    requests = []
    score = scoring.NGramScorer.score

    def recorded(self, text, context=None):
        requests.append((text, context))
        return score(self, text, context)
    monkeypatch.setattr(scoring.NGramScorer, "score", recorded)
    inputs = build(compare_tool.corpus, "eval", scale, tmp_path / "x")
    run(compare_tool.run.COMMANDS["eval"][0], tmp_path / "x", monkeypatch)
    sizes = [len(cs) for cs in inputs.reference]
    # at L, the inputs of tests/data/eval_seed1: 1,557 distinct of 2,492 calls
    assert len(set(requests)) == sum(n + n * (n - 1) for n in sizes)
