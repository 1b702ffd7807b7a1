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

- ``dataset clean`` on the ``distill`` inputs, each reference chunk given
  back with one edit (``tools/compare_outputs.py``'s one-mark chunk): the
  kernel characters. When each search read its document from the start
  up to the match, they read 3.58 times the kernel characters for twice
  the length; the candidate filter reads only the windows around the
  chunk's parts.

Two bounds hold per search, stated as formulas:

- ``dataset clean`` on chunks rewritten past the flag ratio (every fifth
  character replaced): each search reads its document at most once in
  free-start rows, and at most twice the longest span it can return in
  reverse rows. Chunks times document length is the one super-linear term.
- ``dataset distill``: each free-start row reads at most the region its
  window showed the generator, from the search's start on.

Two gates count the calls of ``chunk --method moc`` at L: it recovers only
the anchors that ``str.find`` misses, and it splits no document into
sentences when every window cut is a paragraph break.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from chunkkit import dataset, fuzzy, moc, scoring
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


def write_generated(compare_tool, inputs, edit: int, path) -> None:
    """A ``dataset clean`` ``--generated`` file: every reference chunk as
    ``tools/compare_outputs.py``'s ``clean`` set gives back chunk ``edit``
    (1: one mark in the middle, 2: every fifth character rewritten)."""
    path.write_text("".join(
        json.dumps({"doc_id": cs.doc_id,
                    "chunks": [compare_tool._edited(c.text, edit) for c in cs.chunks]},
                   ensure_ascii=False) + "\n"
        for cs in inputs.reference), encoding="utf-8")


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
# (x1.79) for 4,360 -> 8,726 characters; moc 2,456 -> 4,641 (x1.89) for
# 76,814 -> 153,652, and 9,700 -> 18,115 (x1.87) when each anchor search
# read from the cursor to its match; semantic embeds 1,040 -> 2,080 texts
# (x2.00); clean reads 9,096 -> 17,921 (x1.97) for 4,360 -> 8,726, and
# 29,819 -> 106,674 (x3.58) when each search read its whole document.
@pytest.mark.parametrize("workload,command,counter", [
    ("distill", 0, "kernel_chars"),
    ("chunk", 1, "kernel_chars"),
    ("chunk", 0, "embedded_texts"),
    ("clean", 0, "kernel_chars"),
], ids=["distill", "chunk-moc", "chunk-semantic", "clean-one-edit"])
def test_work_grows_no_faster_than_the_input(tmp_path, monkeypatch, request,
                                             compare_tool, workload, command, counter):
    built, commands = compare_tool.SETS[workload][:2]
    args = commands[command]
    lengths, work = [], []
    for scale in (1, 2):
        inputs = build(compare_tool.corpus, built, scale, tmp_path / f"x{scale}")
        if workload == "clean":
            write_generated(compare_tool, inputs, 1, tmp_path / f"x{scale}" / "generated.jsonl")
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


@pytest.fixture
def searches(monkeypatch) -> list[dict]:
    """Each search ``dataset`` makes: its needle and range, the distance
    found, the characters its free-start and reverse rows read, and the
    region of the window being distilled (None outside ``distill``)."""
    done: list[dict] = []
    rows = {True: 0, False: 0}
    region = [None]
    last_row, search = fuzzy._last_row, dataset.best_substring_match
    windowed = dataset.windowed_chunk

    def counted(pattern, text, free_start, floor=None):
        row = last_row(pattern, text, free_start, floor)
        rows[free_start] += len(row) - 1
        return row

    def recorded(needle, haystack, search_from=0, search_to=None):
        rows[True] = rows[False] = 0
        match = search(needle, haystack, search_from, search_to)
        done.append({"m": len(needle), "from": search_from, "length": len(haystack),
                     "distance": match.distance, "free": rows[True],
                     "reverse": rows[False], "region_end": region[0]})
        return match

    def per_region(doc, windows, per_window):
        def shown(text, offset):
            region[0] = offset + len(text)
            return per_window(text, offset)
        return windowed(doc, windows, shown)
    monkeypatch.setattr(fuzzy, "_last_row", counted)
    monkeypatch.setattr(dataset, "best_substring_match", recorded)
    monkeypatch.setattr(dataset, "windowed_chunk", per_region)
    return done


# Measured at L and 2L: 31 and 62 searches, whose free-start rows read
# 14,173 and 28,045 characters of 46,900 and 187,724 allowed.
@pytest.mark.parametrize("scale", [1, 2], ids=["L", "2L"])
def test_clean_reads_each_document_at_most_once(tmp_path, monkeypatch, compare_tool,
                                                searches, scale):
    inputs = build(compare_tool.corpus, "distill", scale, tmp_path / "x")
    write_generated(compare_tool, inputs, 2, tmp_path / "x" / "generated.jsonl")
    searches.clear()  # recording the tables searched too
    run(compare_tool.SETS["clean"][1][0], tmp_path / "x", monkeypatch)
    assert len(searches) == sum(len(cs) for cs in inputs.reference)
    for s in searches:
        assert s["from"] == 0
        # the document once; each reverse row reads at most m + d characters
        assert s["free"] <= s["length"], s
        assert s["reverse"] <= 2 * (s["m"] + s["distance"]), s


@pytest.mark.parametrize("scale", [1, 2], ids=["L", "2L"])
def test_distill_reads_only_the_region_its_window_showed(tmp_path, monkeypatch,
                                                         compare_tool, searches, scale):
    build(compare_tool.corpus, "distill", scale, tmp_path / "x")
    searches.clear()
    run(compare_tool.run.COMMANDS["distill"][0], tmp_path / "x", monkeypatch)
    assert searches and all(s["region_end"] is not None for s in searches)
    for s in searches:
        assert s["free"] <= s["region_end"] - s["from"], s


@pytest.fixture
def moc_calls(tmp_path, monkeypatch, compare_tool) -> dict:
    """One ``chunk --method moc`` pass at L: the edit marks in its expert
    tables, the documents, and what ``str.find`` gave for each anchor that
    went to ``recover_anchor``, and each ``split_sentences`` call of
    ``dataset``."""
    corpus = compare_tool.corpus
    inputs = build(corpus, "chunk", 1, tmp_path / "x")
    marks = sum(entry["response"].count(corpus.EDIT_MARK)
                for table in (tmp_path / "x").glob("expert_*.json")
                for entry in json.loads(table.read_text(encoding="utf-8"))["entries"])
    finds, splits = [], []
    recover, split = moc.recover_anchor, dataset.split_sentences

    def recorded(anchor, haystack, search_from=0):
        finds.append(haystack.find(anchor, search_from))
        return recover(anchor, haystack, search_from)

    def counted(doc):
        splits.append(doc)
        return split(doc)
    monkeypatch.setattr(moc, "recover_anchor", recorded)
    monkeypatch.setattr(dataset, "split_sentences", counted)
    run(compare_tool.run.COMMANDS["chunk"][1], tmp_path / "x", monkeypatch)
    return {"marks": marks, "docs": inputs.docs, "finds": finds, "splits": splits}


# Measured at L: 109 of the 1,306 anchors miss, and each holds the edit
# mark; the 109 windows all end at paragraph breaks. When every anchor went
# to recover_anchor and every window split its document, the pass made
# 1,306 calls and 12 splits.
def test_moc_recovers_only_the_anchors_str_find_misses(moc_calls):
    # the mark occurs in no document, so each marked anchor is one miss
    assert moc_calls["marks"] == 109
    assert moc_calls["finds"] == [-1] * moc_calls["marks"]


def test_moc_splits_no_document_whose_cuts_are_paragraph_breaks(moc_calls):
    assert moc_calls["splits"] == []
    for doc in moc_calls["docs"]:
        for _, end in dataset.sliding_windows(doc)[:-1]:
            assert doc.text[end - 2:end] == "\n\n"
