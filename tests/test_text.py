"""Document/chunk primitives, sentence splitting, and corpus IO."""

from __future__ import annotations

import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkkit.errors import CorpusFormatError
from chunkkit.rules import PLACEHOLDERS
from chunkkit.text import (
    _CLOSERS,
    _TERMINALS,
    Chunk,
    ChunkSet,
    Document,
    SentenceSpan,
    load_chunksets,
    load_corpus,
    save_chunksets,
    save_corpus,
    split_sentences,
)

from conftest import make_doc, random_text

_NEWLINES = frozenset("\n\r")


def char_loop_split_sentences(text: str) -> list[SentenceSpan]:
    """Reference: the per-character loop the one-regex split replaced."""
    n = len(text)
    spans: list[SentenceSpan] = []
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in _TERMINALS:
            j = i + 1
            while j < n and text[j] in _CLOSERS:
                j += 1
            spans.append(SentenceSpan(start, j, ch))
            start = j
            i = j
        elif ch in _NEWLINES:
            j = i + 1
            while j < n and text[j] in _NEWLINES:
                j += 1
            if start < i:
                # The run terminates the sentence in progress.
                spans.append(SentenceSpan(start, j, None))
                start = j
            # A run at span start just accumulates into the next span.
            i = j
        else:
            i += 1
    if start < n:
        spans.append(SentenceSpan(start, n, None))
    return spans


# The split's pattern before it opened on one character class: a terminal
# and its closers (group 1 is the terminal), or a newline run.
TWO_BRANCH_BREAK = re.compile("([{}])[{}]*|[\n\r]+".format(
    *(re.escape("".join(sorted(chars))) for chars in (_TERMINALS, _CLOSERS))))


def two_branch_split_sentences(text: str) -> list[SentenceSpan]:
    """Reference: the split over the two-branch pattern."""
    spans: list[SentenceSpan] = []
    start = 0
    for match in TWO_BRANCH_BREAK.finditer(text):
        terminal = match.group(1)
        if terminal is None and match.start() == start:
            continue
        spans.append(SentenceSpan(start, match.end(), terminal))
        start = match.end()
    if start < len(text):
        spans.append(SentenceSpan(start, len(text), None))
    return spans


class TestDocumentInvariants:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Document(id="d", text="   \n ")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Document(id="", text="hello")


class TestChunkInvariants:
    def test_text_must_match_span_length(self):
        with pytest.raises(ValueError):
            Chunk(index=0, start=0, end=5, text="abc")

    def test_degenerate_span_rejected(self):
        with pytest.raises(ValueError):
            Chunk(index=0, start=3, end=3, text="")

    def test_slice_identity(self):
        doc = make_doc("hello world")
        cs = ChunkSet.from_spans(doc, [(0, 5), (6, 11)], method="t")
        for chunk in cs:
            assert doc.text[chunk.start:chunk.end] == chunk.text
        cs.validate_against(doc)


class TestChunkSetInvariants:
    def test_starts_strictly_increasing(self):
        doc = make_doc("abcdef")
        with pytest.raises(ValueError):
            ChunkSet.from_spans(doc, [(2, 4), (0, 2)], method="t")

    def test_indexes_consecutive(self):
        doc = make_doc("abcdef")
        good = ChunkSet.from_spans(doc, [(0, 3), (3, 6)], method="t")
        with pytest.raises(ValueError):
            ChunkSet(doc_id=doc.id, chunks=(good.chunks[1],), method="t")

    def test_validate_against_detects_mismatch(self):
        doc = make_doc("abcdef")
        other = make_doc("xbcdef", doc_id="doc")
        cs = ChunkSet.from_spans(doc, [(0, 3)], method="t")
        with pytest.raises(ValueError, match="does not match"):
            cs.validate_against(other)
        short = make_doc("ab", doc_id="doc")
        with pytest.raises(ValueError, match="exceeds"):
            cs.validate_against(short)


class TestSplitSentences:
    def test_one_split_per_terminal(self):
        spans = split_sentences(make_doc("A. B! C"))
        texts = ["A. B! C"[s.start:s.end] for s in spans]
        assert texts == ["A.", " B!", " C"]

    def test_cjk_terminals(self):
        doc = make_doc("你好。再见！")
        spans = split_sentences(doc)
        assert len(spans) == 2
        assert [doc.text[s.start:s.end] for s in spans] == ["你好。", "再见！"]

    def test_closing_quote_attaches(self):
        doc = make_doc('He said "go." Then left.')
        spans = split_sentences(doc)
        assert doc.text[spans[0].start:spans[0].end] == 'He said "go."'

    def test_no_terminal_yields_one_span(self):
        spans = split_sentences(make_doc("no terminal here"))
        assert len(spans) == 1
        assert spans[0].terminal is None

    def test_newline_run_splits(self):
        doc = make_doc("para one\n\npara two")
        spans = split_sentences(doc)
        assert [doc.text[s.start:s.end] for s in spans] == \
            ["para one\n\n", "para two"]

    def test_thousand_sentence_doc_tiles(self):
        # oracle: build the doc from known sentences, then check tiling
        rng = random.Random(7)
        sentences = [random_text(rng, sentences=1) for _ in range(1000)]
        doc = make_doc(" ".join(sentences))
        spans = split_sentences(doc)
        assert len(spans) == 1000
        assert spans[0].start == 0
        assert spans[-1].end == len(doc.text)
        for a, b in zip(spans, spans[1:]):
            assert a.end == b.start

    @given(st.text(alphabet=st.sampled_from(sorted(
        _TERMINALS | _CLOSERS | _NEWLINES | set("ab 你好"))), max_size=60))
    @settings(max_examples=300)
    def test_regex_split_matches_char_loop(self, text):
        # SentenceSpan equality compares start, end and terminal
        assert split_sentences(text) == char_loop_split_sentences(text)

    @given(st.lists(st.sampled_from(sorted(_TERMINALS | _CLOSERS) + [
        "\n", "\r", "\r\n", "\n\n\n", "\r\r", "a", "bc", " ", "你好", "."]),
        max_size=40).map("".join))
    @settings(max_examples=300)
    def test_split_matches_two_branch_pattern(self, text):
        # terminals (CJK ones too), closers, newline runs and letters
        assert split_sentences(text) == two_branch_split_sentences(text)

    @given(st.text(min_size=1, max_size=200))
    @settings(max_examples=200)
    def test_spans_tile_any_text(self, text):
        if not text.strip():
            return
        doc = Document(id="d", text=text)
        spans = split_sentences(doc)
        assert spans[0].start == 0
        assert spans[-1].end == len(text)
        assert all(a.end == b.start for a, b in zip(spans, spans[1:]))

    @given(st.text(min_size=1, max_size=120))
    @settings(max_examples=200)
    def test_idempotent_on_own_boundaries(self, text):
        if not text.strip():
            return
        doc = Document(id="d", text=text)
        for span in split_sentences(doc):
            piece = text[span.start:span.end]
            again = split_sentences(piece)
            assert [(s.start, s.end) for s in again] == [(0, len(piece))]


class TestCorpusIO:
    def test_corpus_round_trip(self, tmp_path):
        docs = [
            Document(id="a", text="first doc."),
            Document(id="b", text="second doc.", meta={"lang": "en"}),
        ]
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        loaded = list(load_corpus(path))
        assert loaded == docs

    def test_placeholders_survive_round_trip(self, tmp_path):
        # placeholder markers appearing literally in text stay byte-exact
        text = "before " + " ".join(PLACEHOLDERS) + " after"
        path = tmp_path / "corpus.jsonl"
        save_corpus([Document(id="p", text=text)], path)
        (loaded,) = list(load_corpus(path))
        assert loaded.text == text

    def test_missing_text_field_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\n{"id": "b"}\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(load_corpus(path))

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\nnot json\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(load_corpus(path))

    def test_missing_or_null_meta_is_empty(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n'
                        '{"id": "b", "text": "y", "meta": null}\n')
        assert [d.meta for d in load_corpus(path)] == [{}, {}]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(CorpusFormatError, match="duplicate"):
            list(load_corpus(path))

    def test_streaming_constant_memory(self, tmp_path):
        # 10k docs (~6 MB on disk) iterated with peak traced allocations
        # far below the file size
        path = tmp_path / "big.jsonl"
        with path.open("w") as fh:
            for i in range(10_000):
                fh.write(json.dumps({"id": f"d{i}", "text": "y" * 600}))
                fh.write("\n")
        file_size = path.stat().st_size
        stream = load_corpus(path)
        tracemalloc.start()
        count = sum(1 for _ in stream)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 10_000
        assert peak < file_size / 4

    def test_chunkset_round_trip(self, tmp_path):
        doc = make_doc("alpha beta gamma", doc_id="d1")
        cs = ChunkSet.from_spans(doc, [(0, 5), (6, 10), (11, 16)], method="fixed")
        path = tmp_path / "chunks.jsonl"
        save_chunksets([cs], path)
        (loaded,) = load_chunksets(path, {"d1": doc})
        assert loaded == cs
        raw = path.read_text()
        assert "alpha" not in raw  # text never duplicated on disk

    @pytest.mark.parametrize("start", [True, 1.0, "1"],
                             ids=["bool", "float", "string"])
    def test_chunkset_offset_not_an_integer_names_line(self, tmp_path, start):
        # JSON true is a Python bool, which is an int: it must not read as 1
        doc = make_doc("alpha beta", doc_id="d1")
        path = tmp_path / "chunks.jsonl"
        save_chunksets([ChunkSet.from_spans(doc, [(0, 5)], method="fixed")], path)
        with path.open("a") as fh:
            fh.write(json.dumps({"doc_id": "d1", "method": "fixed",
                                 "chunks": [{"index": 0, "start": start, "end": 5}]}))
        with pytest.raises(CorpusFormatError, match="line 2: chunk offsets must be"):
            load_chunksets(path, {"d1": doc})

    @pytest.mark.parametrize("record", [
        {"doc_id": ["d1"], "method": "fixed", "chunks": []},
        {"doc_id": {"id": "d1"}, "method": "fixed", "chunks": []},
        {"doc_id": "d1", "method": ["fixed"], "chunks": []},
    ], ids=["doc-id-list", "doc-id-object", "method-list"])
    def test_chunkset_field_not_a_string_names_line(self, tmp_path, record):
        # an unhashable doc_id must not reach the document look-up
        doc = make_doc("alpha beta", doc_id="d1")
        path = tmp_path / "chunks.jsonl"
        save_chunksets([ChunkSet.from_spans(doc, [(0, 5)], method="fixed")], path)
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError,
                           match="line 2: 'doc_id' and 'method' must be strings"):
            load_chunksets(path, {"d1": doc})

    def test_chunkset_duplicate_doc_id_names_line(self, tmp_path):
        # a repeat would be scored, counted and emitted twice
        doc = make_doc("alpha beta", doc_id="d1")
        cs = ChunkSet.from_spans(doc, [(0, 5)], method="fixed")
        path = tmp_path / "chunks.jsonl"
        save_chunksets([cs, cs], path)
        with pytest.raises(CorpusFormatError,
                           match="line 2: duplicate document id 'd1'"):
            load_chunksets(path, {"d1": doc})

    def test_chunkset_load_requires_document(self, tmp_path):
        doc = make_doc("alpha beta", doc_id="d1")
        cs = ChunkSet.from_spans(doc, [(0, 5)], method="fixed")
        path = tmp_path / "chunks.jsonl"
        save_chunksets([cs], path)
        with pytest.raises(CorpusFormatError, match="unknown document"):
            load_chunksets(path, {})
