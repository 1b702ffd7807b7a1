"""Windows, chunk buffering, cleaning, and training-set synthesis."""

from __future__ import annotations

import bisect
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkkit import dataset, fuzzy
from chunkkit.dataset import (
    _PARAGRAPH_BREAK,
    CleaningVerdict,
    detect_hallucination,
    distill_document,
    expert_samples,
    make_rules,
    parse_tagged_chunks,
    router_text,
    sliding_windows,
    windowed_chunk,
)
from chunkkit.errors import ExtractionError, RuleParseError, ScoringError
from chunkkit.moc import extract_chunks
from chunkkit.rules import GranularityLabel, label_for_mean, parse_rule_list
from chunkkit.scoring import FixtureGenerator, GenerationResult
from chunkkit.text import ChunkSet, Document, split_sentences
from chunkkit import prompts

from conftest import make_doc, random_text


class TestSlidingWindows:
    def test_under_budget_single_window(self, rng):
        doc = make_doc(random_text(rng, sentences=5))
        assert len(doc.text) < 1024
        windows = sliding_windows(doc, max_tokens=1024)
        assert len(windows) == 1
        assert windows[0] == (0, len(doc.text))

    def test_paragraph_breaks_preferred(self, rng):
        # paragraphs of ~400 chars: cuts land exactly on paragraph breaks
        paragraphs = []
        while sum(len(p) + 2 for p in paragraphs) < 2500:
            text = random_text(rng, sentences=6)
            paragraphs.append(text[:398].rstrip() + ".")
        doc = make_doc("\n\n".join(paragraphs))
        windows = sliding_windows(doc, max_tokens=1024)
        breaks = set()
        pos = 0
        for p in paragraphs[:-1]:
            pos += len(p) + 2
            breaks.add(pos)
        for _, end in windows[:-1]:
            assert end in breaks
        assert all(end - start <= 1024 for start, end in windows)

    def test_sentence_ends_when_no_paragraphs(self, rng):
        doc = make_doc(random_text(rng, sentences=60))
        windows = sliding_windows(doc, max_tokens=256)
        for start, end in windows[:-1]:
            assert doc.text[end - 1] == "."
            assert end - start <= 256

    def test_hard_cut_fallback(self):
        doc = make_doc("x" * 3000)
        windows = sliding_windows(doc, max_tokens=1024)
        assert [end - start for start, end in windows] == [1024, 1024, 952]

    def test_windows_tile_document(self, rng):
        for i in range(25):
            doc = make_doc(random_text(rng, sentences=rng.randint(1, 80)),
                           doc_id=f"d{i}")
            windows = sliding_windows(doc, max_tokens=200)
            assert windows[0][0] == 0
            assert windows[-1][1] == len(doc.text)
            assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))

    @pytest.mark.parametrize("max_tokens", [10**6, sys.maxsize, 10**400],
                             ids=["10**6", "maxsize", "10**400"])
    def test_budget_beyond_the_text_is_one_window(self, max_tokens):
        # the budget is an integer clamped to the text: no count overflows
        doc = make_doc("y" * 1000)
        windows = sliding_windows(doc, max_tokens=max_tokens)
        assert windows == [(0, 1000)]


# The paragraph break as it was when it read only ``\n`` as a newline.
_OLD_PARAGRAPH_BREAK = re.compile(r"\n[ \t]*\n+")
_NEWLINE = re.compile(r"\r\n|\r|\n")
_BLANK_LINE = re.compile(r"(?:\r\n|\r|\n)[ \t]*(?:\r\n|\r|\n)+")


def whole_newline_break(text, pos, limit):
    r"""The last cut in (pos, limit] at a blank line found from pos: the end
    of its second newline or of one after it, each newline (``\r\n``,
    ``\r``, ``\n``) read whole, so no cut falls inside a ``\r\n``."""
    cut = None
    for run in _BLANK_LINE.finditer(text, pos):
        if run.start() >= limit:
            break
        ends = [nl.end() for nl in _NEWLINE.finditer(text, run.start(), run.end())]
        cut = max((e for e in ends[1:] if e <= limit), default=cut)
    return cut


def old_lf_break(text, pos, limit):
    r"""The last cut by the paragraph break as it was when it read only
    ``\n`` as a newline."""
    return max((m.end() for m in _OLD_PARAGRAPH_BREAK.finditer(text, pos, limit)),
               default=None)


def reference_sliding_windows(doc, max_tokens=1024, last_break=whole_newline_break):
    """``sliding_windows`` as it was before it split sentences lazily: every
    call split the whole document first. ``last_break(text, pos, limit)``
    gives a window's paragraph cut, or None."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    text = doc.text
    n = len(text)
    budget = min(max_tokens, n)
    sentence_ends = [s.end for s in split_sentences(doc) if s.terminal is not None]
    windows = []
    pos = 0
    while pos < n:
        limit = pos + budget
        if limit >= n:
            windows.append((pos, n))
            break
        cut = reference_cut(text, pos, limit, sentence_ends, last_break)
        if cut == limit and text[limit - 1:limit + 1] == "\r\n" and limit - 1 > pos:
            cut = limit - 1  # a hard cut never splits a \r\n
        windows.append((pos, cut))
        pos = cut
    return windows


def reference_cut(text, pos, limit, sentence_ends, last_break):
    """A window's cut in (pos, limit]: the paragraph cut, else the last
    sentence end, else the limit."""
    cut = last_break(text, pos, limit)
    if cut is None:
        idx = bisect.bisect_right(sentence_ends, limit) - 1
        if idx >= 0 and sentence_ends[idx] > pos:
            cut = sentence_ends[idx]
    return limit if cut is None else cut


def lf_twin_windows(text, budget):
    r"""The windows of ``text``, whose only ``\r`` begin ``\r\n``, at a budget
    of 2 or more, each cut chosen in its LF twin and mapped back. From a
    window's start the twin's limit is its last offset whose image is
    within the budget, so a limit inside a ``\r\n`` moves back one."""
    lf = text.replace("\r\n", "\n")
    image = [i + lf.count("\n", 0, i) for i in range(len(lf) + 1)]
    lf_ends = [s.end for s in split_sentences(make_doc(lf)) if s.terminal is not None]
    windows = []
    pos = 0
    while pos < len(text):
        limit = pos + budget
        if limit >= len(text):
            windows.append((pos, len(text)))
            break
        lf_pos = image.index(pos)
        lf_limit = bisect.bisect_right(image, limit) - 1
        cut = image[reference_cut(lf, lf_pos, lf_limit, lf_ends, old_lf_break)]
        windows.append((pos, cut))
        pos = cut
    return windows


# words, terminals (CJK too), closers, and newline runs with and without \r
_WINDOW_PIECES = st.sampled_from([
    "ab", "cde", " ", "  ", ".", "!", "?", ";", "。", "！", "？", "；", '"', "'", ")",
    "」", "”", "\n", "\n\n", "\r\n", "\r\n\r\n", " \n \n", "\n\t\n", "\r",
])
window_texts = st.lists(_WINDOW_PIECES, min_size=1, max_size=60).map("".join).filter(str.strip)


class TestParagraphBreakNewlines:
    r"""A blank line ends a paragraph in each newline convention that the
    sentence splitter reads: ``\n``, ``\r\n`` and ``\r``."""

    @settings(max_examples=400)
    @given(text=window_texts.map(lambda t: t.replace("\r", "")).filter(str.strip),
           data=st.data())
    def test_text_without_cr_keeps_its_windows(self, text, data):
        doc = make_doc(text)
        budget = data.draw(st.integers(1, len(text) + 1), label="budget")
        assert sliding_windows(doc, budget) == \
            reference_sliding_windows(doc, budget, old_lf_break)
        # and the pattern that reads every newline finds the same breaks
        pos = data.draw(st.integers(0, len(text)), label="pos")
        end = data.draw(st.integers(pos, len(text)), label="end")
        assert [m.span() for m in _PARAGRAPH_BREAK.finditer(text, pos, end)] == \
            [m.span() for m in _OLD_PARAGRAPH_BREAK.finditer(text, pos, end)]

    @pytest.mark.parametrize("blank", ["\n\n", "\n \t\n", "\n\n\n"],
                             ids=["empty", "spaces", "run"])
    def test_cuts_where_the_lf_twin_does(self, blank):
        lf = blank.join(["alpha beta gamma delta", "epsilon zeta eta theta",
                         "lambda mu nu"])
        crlf, cr = lf.replace("\n", "\r\n"), lf.replace("\n", "\r")

        def mapped(i):  # an LF offset in the CRLF text
            return i + lf.count("\n", 0, i)
        lf_windows = sliding_windows(make_doc(lf), 30)
        assert [lf[end - 1] for _, end in lf_windows[:-1]] == ["\n", "\n"]
        assert sliding_windows(make_doc(crlf), 30) == \
            [(mapped(start), mapped(end)) for start, end in lf_windows]
        for budget in range(1, len(crlf) + 2):
            assert sliding_windows(make_doc(cr), budget) == \
                sliding_windows(make_doc(lf), budget)
            if budget > 1:
                assert sliding_windows(make_doc(crlf), budget) == \
                    lf_twin_windows(crlf, budget)

    @settings(max_examples=400)
    @given(text=window_texts.map(lambda t: t.replace("\r", "")).filter(str.strip),
           data=st.data())
    def test_crlf_and_cr_texts_cut_where_their_lf_twins_do(self, text, data):
        budget = data.draw(st.integers(1, 2 * len(text) + 1), label="budget")
        assert sliding_windows(make_doc(text.replace("\n", "\r")), budget) == \
            sliding_windows(make_doc(text), budget)
        if budget > 1:
            crlf = text.replace("\n", "\r\n")
            assert sliding_windows(make_doc(crlf), budget) == lf_twin_windows(crlf, budget)

    def test_a_budget_inside_a_crlf_cuts_before_it(self):
        # the blank line's second \r\n ends one past the budget of 7, so the
        # hard cut moves back before its \r, and the next window starts on it
        assert sliding_windows(make_doc("aaaa\r\n\r\nbbbb cccc"), 7) == \
            [(0, 6), (6, 13), (13, 17)]
        # a budget of 1 is the one window that can end inside a \r\n
        assert sliding_windows(make_doc("a\r\nb"), 1) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @settings(max_examples=400)
    @given(text=st.tuples(window_texts, st.sampled_from(["\r\n", "\r"])).map(
        lambda t: t[0].replace("\n", t[1])), data=st.data())
    def test_a_cut_at_a_break_ends_a_whole_newline(self, text, data):
        doc = make_doc(text)
        budget = data.draw(st.integers(1, len(text) + 1), label="budget")
        assert sliding_windows(doc, budget) == reference_sliding_windows(doc, budget)

    def test_a_budget_inside_a_crlf_ends_no_break(self):
        # the second \r\n of the blank line ends one past the budget of 8,
        # so the window ends at the sentence end, not on that \r
        assert sliding_windows(make_doc("aaaa.\r\n\r\nbbbb"), 8)[0] == (0, 5)
        # a run of three keeps the blank line that ends by the budget
        assert sliding_windows(make_doc("aaaa\r\n\r\n\r\nbbbb"), 9)[0] == (0, 8)

    def test_one_line_break_is_no_paragraph_break(self):
        for newline in ("\n", "\r\n", "\r"):
            assert _PARAGRAPH_BREAK.search(f"one{newline}two") is None
        # LF then CR is two line breaks
        assert _PARAGRAPH_BREAK.search("one\n\rtwo").group() == "\n\r"


class TestLazySentenceEnds:
    """``sliding_windows`` splits sentences only for a window that has no
    paragraph break within budget, and at most once per call."""

    @settings(max_examples=400)
    @given(text=window_texts, data=st.data())
    def test_matches_the_eager_reference(self, text, data):
        doc = make_doc(text)
        budget = data.draw(st.integers(1, len(text) + 1), label="budget")
        assert sliding_windows(doc, budget) == reference_sliding_windows(doc, budget)

    @pytest.fixture
    def splits(self, monkeypatch):
        calls = []

        def counted(doc):
            calls.append(doc)
            return split_sentences(doc)
        monkeypatch.setattr(dataset, "split_sentences", counted)
        return calls

    def test_paragraph_cuts_split_nothing(self, splits):
        doc = make_doc("\n\n".join(["One two. Three four."] * 20))
        assert len(sliding_windows(doc, 50)) == 10
        assert splits == []

    def test_sentence_cuts_split_once(self, splits, rng):
        doc = make_doc(random_text(rng, sentences=60))
        assert len(sliding_windows(doc, 256)) > 2
        assert len(splits) == 1


class TestWindowedChunk:
    """The chunk buffer and per-window failures of ``windowed_chunk``."""

    DOC = make_doc("aaa bbb ccc ddd eee fff")
    WINDOWS = [(0, 12), (12, 23)]

    def run(self, answers):
        calls = []

        def per_window(region, offset):
            calls.append((region, offset))
            answer = answers[len(calls) - 1]
            if isinstance(answer, Exception):
                raise answer
            return list(answer)

        spans, failed = windowed_chunk(self.DOC, self.WINDOWS, per_window)
        return spans, failed, calls

    def test_last_span_re_offered_to_next_window(self):
        spans, failed, calls = self.run([[(0, 3), (4, 7), (8, 11)],
                                         [(8, 11), (12, 15)]])
        assert calls[1] == ("ccc ddd eee fff", 8)
        assert spans == [(0, 3), (4, 7), (8, 11), (12, 15)]
        assert failed == 0

    def test_single_span_window_kept_whole(self):
        spans, _, calls = self.run([[(0, 11)], [(12, 23)]])
        assert calls[1] == ("ddd eee fff", 12)
        assert spans == [(0, 11), (12, 23)]

    def test_window_without_spans_advances(self):
        spans, _, calls = self.run([[], [(12, 23)]])
        assert calls[1] == ("ddd eee fff", 12)
        assert spans == [(12, 23)]

    def test_last_window_keeps_all_spans(self):
        spans, _, _ = self.run([[(0, 11)], [(12, 15), (16, 19), (20, 23)]])
        assert spans == [(0, 11), (12, 15), (16, 19), (20, 23)]

    @pytest.mark.parametrize("fault", [
        RuleParseError("bad list"),
        ExtractionError("too many misses"), ScoringError("backend down"),
    ], ids=["parse", "extraction", "scoring"])
    def test_failed_window_advances_to_its_end(self, fault, caplog):
        with caplog.at_level("WARNING"):
            spans, failed, calls = self.run([fault, [(12, 15), (16, 23)]])
        assert calls[1] == ("ddd eee fff", 12)
        assert spans == [(12, 15), (16, 23)]
        assert failed == 1
        assert "window 0 failed" in caplog.text

    def test_other_errors_propagate(self):
        with pytest.raises(ValueError):
            self.run([ValueError("a bug, not a window fault")])

    def test_span_re_offered_to_a_failed_window_is_kept(self):
        doc = make_doc("aaaa bbbb cccc dddd eeee ffff")
        windows = [(0, 15), (15, 25), (25, 29)]
        calls = []

        def per_window(region, offset):  # 5-character spans
            calls.append(offset)
            if len(calls) == 2:
                raise ScoringError("backend down")
            end = offset + len(region)
            return [(s, min(s + 5, end)) for s in range(offset, end, 5)]

        spans, failed = windowed_chunk(doc, windows, per_window)
        # window 0 re-offered "cccc " to window 1, which failed: window 0
        # resolved it, so it is kept, and window 2 starts at window 1's end
        assert calls == [0, 10, 25]
        assert [doc.text[s:e] for s, e in spans] == ["aaaa ", "bbbb ", "cccc ",
                                                     "ffff"]
        assert failed == 1


class TestDetectHallucination:
    def test_verbatim_chunk_unflagged(self, rng):
        doc = make_doc(random_text(rng, sentences=10))
        chunk = doc.text[25:125]
        verdict = detect_hallucination(chunk, doc)
        assert verdict.min_edit_distance == 0
        assert not verdict.flagged
        assert (verdict.start, verdict.end) == (25, 125)

    def _mutated_chunk(self, doc: Document, n_edits: int) -> str:
        # substitute with a character outside the document alphabet, at
        # spread positions: the minimum distance is then exactly n_edits
        chunk = list(doc.text[40:140])
        positions = range(0, 100, 100 // n_edits)
        for i, pos in enumerate(positions):
            if i == n_edits:
                break
            chunk[pos] = "Z"
        return "".join(chunk)

    def test_eleven_edits_on_hundred_chars_flagged(self, rng):
        doc = make_doc(random_text(rng, sentences=12).lower())
        assert "Z" not in doc.text and len(doc.text) >= 150
        chunk = self._mutated_chunk(doc, 11)
        verdict = detect_hallucination(chunk, doc)
        assert verdict.min_edit_distance == 11
        assert verdict.threshold == 10
        assert verdict.flagged

    def test_ten_edits_on_hundred_chars_not_flagged(self, rng):
        # "exceeds" is strict: distance 10 with threshold 10 passes
        doc = make_doc(random_text(rng, sentences=12).lower())
        chunk = self._mutated_chunk(doc, 10)
        verdict = detect_hallucination(chunk, doc)
        assert verdict.min_edit_distance == 10
        assert verdict.threshold == 10
        assert not verdict.flagged

    @pytest.mark.parametrize("flag_ratio", [-0.1, 1.5, float("inf"), float("nan")])
    def test_flag_ratio_outside_zero_one_rejected(self, flag_ratio):
        # inf * len(chunk) made math.ceil raise OverflowError
        doc = make_doc("alpha beta gamma")
        with pytest.raises(ValueError, match="flag_ratio"):
            detect_hallucination("alpha", doc, flag_ratio=flag_ratio)

    def test_flag_ratio_one_flags_nothing(self):
        doc = make_doc("alpha beta gamma")
        verdict = detect_hallucination("ZZZZZZ", doc, flag_ratio=1.0)
        assert verdict.threshold == 6 and not verdict.flagged

    def test_appending_noise_never_decreases_distance(self, rng):
        doc = make_doc(random_text(rng, sentences=8).lower())
        chunk = doc.text[10:60]
        last = 0
        for i in range(6):
            verdict = detect_hallucination(chunk, doc)
            assert verdict.min_edit_distance >= last
            last = verdict.min_edit_distance
            chunk += "Q"


def unbounded_verdict(chunk: str, doc: Document, cursor: int) -> CleaningVerdict:
    """The search as distillation ran it before its bound: from the cursor
    to the end of the document."""
    return detect_hallucination(chunk, doc, search_from=min(cursor, len(doc.text) - 1))


@st.composite
def chunk_against_region(draw):
    """A document, a region of it with a cursor inside, and a chunk copied
    from anywhere in the document (inside, straddling or past the region)
    with a few substitutions."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    doc = make_doc(random_text(rng, sentences=draw(st.integers(2, 10))))
    n = len(doc.text)
    lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2,
                                  unique=True)))
    cursor = draw(st.integers(lo, hi - 1))
    start = draw(st.integers(0, n - 1))
    chunk = list(doc.text[start:start + draw(st.integers(1, 60))])
    for pos in draw(st.lists(st.integers(0, len(chunk) - 1), max_size=4)):
        chunk[pos] = "Z"
    return doc, hi, cursor, "".join(chunk)


class TestSearchBound:
    """Distillation matches a chunk only inside its window's region."""

    @given(chunk_against_region())
    @settings(max_examples=300)
    def test_bounded_search_agrees_when_the_best_span_is_inside(self, case):
        doc, region_end, cursor, chunk = case
        reference = unbounded_verdict(chunk, doc, cursor)
        bounded = detect_hallucination(chunk, doc, search_from=cursor,
                                       search_to=region_end)
        if reference.end <= region_end:
            assert bounded == reference
        else:  # the best span lies past the region: the bound finds no better
            assert cursor <= bounded.start <= bounded.end <= region_end
            assert bounded.min_edit_distance >= reference.min_edit_distance

    def test_chunk_found_only_past_its_region_is_flagged(self):
        para1 = "The harbour wakes at dawn. Gulls circle the fishing boats."
        para2 = "Inland, the orchards bloom. Farmers walk between the rows."
        doc = make_doc(para1 + "\n\n" + para2)
        windows = sliding_windows(doc, max_tokens=len(para1) + 2)
        assert windows == [
            (0, len(para1) + 2), (len(para1) + 2, len(doc.text))]
        first, later = para1[:26], para2[:26]  # later is in window 2 only
        generator = FixtureGenerator({
            prompts.render(prompts.DISTILL_PROMPT, text=doc.text[:windows[0][1]]):
                f"<chunk>{first}</chunk><chunk>{later}</chunk>",
            prompts.render(prompts.DISTILL_PROMPT, text=para2):
                f"<chunk>{para2}</chunk>",
        })
        result = distill_document(doc, generator, max_window_tokens=windows[0][1])
        verdict = result.verdicts[1]
        # unbounded, "later" matched exactly at its place in paragraph 2
        assert doc.text.find(later) == windows[1][0]
        assert verdict.flagged and verdict.min_edit_distance > 0
        assert len(first) <= verdict.start <= verdict.end <= windows[0][1]
        assert [c.text for c in result.chunkset.chunks] == [first, para2]
        assert result.failed_windows == 0

    def test_no_search_reads_past_its_region(self, monkeypatch):
        rng = random.Random(5)
        doc = make_doc(random_text(rng, sentences=60))
        generator = RegionDistiller()
        rows = []  # (length of the region searched, length of a free-start row)
        last_row = fuzzy._last_row

        def counted(pattern, text, free_start, floor=None):
            row = last_row(pattern, text, free_start, floor)
            if free_start:
                rows.append((generator.regions[-1], len(row)))
            return row
        monkeypatch.setattr(fuzzy, "_last_row", counted)
        result = distill_document(doc, generator, max_window_tokens=300)
        assert result.window_count >= 8 and result.flagged > 0
        assert rows and all(length <= region + 1 for region, length in rows)


class RegionDistiller:
    """Answers a distill prompt with its region's sentences, every third
    one garbled, and records the length of each region."""

    def __init__(self):
        self.regions: list[int] = []

    def generate(self, prompt: str) -> GenerationResult:
        head, tail = prompts.DISTILL_PROMPT.split("{text}")
        region = prompt[len(head):len(prompt) - len(tail)]
        self.regions.append(len(region))
        pieces = [region[s.start:s.end] for s in split_sentences(Document("r", region))]
        return GenerationResult("".join(
            f"<chunk>{p.upper()[::-1] if i % 3 == 2 else p}</chunk>"
            for i, p in enumerate(pieces)))


class TestMakeRules:
    def test_thirty_char_chunk_sliced(self):
        doc = make_doc("x" * 9 + "A" + "y" * 10 + "B" + "z" * 9)
        cs = ChunkSet.from_spans(doc, [(0, 30)], method="t")
        rules = make_rules(cs, anchor_len=10)
        rule = rules.rules[0]
        assert rule.prefix == doc.text[:10]
        assert rule.suffix == doc.text[20:30]
        assert rule.placeholder == "[MASK]"

    def test_short_chunk_becomes_literal(self):
        doc = make_doc("short chunk txt")  # 15 chars <= 2 * 10
        cs = ChunkSet.from_spans(doc, [(0, 15)], method="t")
        rules = make_rules(cs, anchor_len=10)
        assert rules.rules[0].literal

    def test_round_trip_on_random_docs(self, rng):
        # unique anchors: extraction reproduces the chunk set byte-exactly
        for i in range(20):
            doc = make_doc(random_text(rng, sentences=12), doc_id=f"d{i}")
            bounds = sorted(rng.sample(range(20, len(doc.text) - 10), 4))
            spans = []
            prev = 0
            for b in bounds + [len(doc.text)]:
                spans.append((prev, b))
                prev = b
            cs = ChunkSet.from_spans(doc, spans, method="t")
            for anchor_len in (5, 10, 20):
                recovered, report = extract_chunks(
                    doc, make_rules(cs, anchor_len=anchor_len)
                )
                assert recovered.chunks == cs.chunks
                assert all(m.mode == "exact" for m in report)


class TestLabelGranularity:
    @pytest.mark.parametrize("length,label", [
        (120, 0), (150, 1), (180, 2), (181, 3), (1, 0),
    ])
    def test_boundary_means(self, length, label):
        doc = make_doc("x" * length)
        cs = ChunkSet.from_spans(doc, [(0, length)], method="t")
        assert label_for_mean(cs.mean_length()) == GranularityLabel(label)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChunkSet(doc_id="d", chunks=(), method="t").mean_length()


def uniform_chunkset(chunk_len: int, n: int, doc_id: str = "d"):
    doc = make_doc("x" * (chunk_len * n), doc_id=doc_id)
    spans = [(i * chunk_len, (i + 1) * chunk_len) for i in range(n)]
    return doc, ChunkSet.from_spans(doc, spans, method="t")


class TestRouterText:
    def test_closest_prefix_selected(self):
        # 300-char chunks: 3 of them (900) beat 4 (1200) for target 1024
        doc, cs = uniform_chunkset(300, 6)
        assert router_text(doc, cs, target_chars=1024) == doc.text[:900]

    def test_tie_goes_to_fewer_chunks(self):
        # 200 and 400 characters are both 100 from the target
        doc, cs = uniform_chunkset(200, 3)
        assert router_text(doc, cs, target_chars=300) == doc.text[:200]

    def test_oversize_single_chunk_skipped(self, caplog):
        doc, cs = uniform_chunkset(5000, 1)
        with caplog.at_level("WARNING"):
            assert router_text(doc, cs, target_chars=1024) is None
        assert "smallest chunk exceeds 2x target (2048), skipped" in caplog.text


class TestExpertSamples:
    def test_one_pair_per_window_with_the_chunks_inside(self):
        doc = make_doc("alpha beta gamma delta. " * 8 + "\n\n" + "omega psi chi. " * 8)
        cut = doc.text.index("\n\n") + 2  # the one window boundary
        end = len(doc.text)
        cs = ChunkSet.from_spans(doc, [(0, 96), (96, cut), (cut, end)], "t")
        samples = expert_samples(doc, cs, anchor_len=5, max_window_tokens=cut)
        windows = [((0, cut), cs.chunks[:2]), ((cut, end), cs.chunks[2:])]
        assert len(samples) == len(windows)
        for (prompt, target), ((start, stop), inside) in zip(samples, windows):
            assert prompt == prompts.render(prompts.RULE_CHUNK_PROMPT,
                                            text=doc.text[start:stop],
                                            placeholder="[MASK]")
            assert parse_rule_list(target).rules == make_rules(inside, 5).rules


class TestParseTaggedChunks:
    def test_extracts_in_order(self):
        text = "noise <chunk>first part</chunk>\n<chunk>second part</chunk> tail"
        assert parse_tagged_chunks(text) == ["first part", "second part"]

    def test_no_chunks_raises(self):
        with pytest.raises(RuleParseError):
            parse_tagged_chunks("nothing tagged here")


class TestDistillDocument:
    def test_verbatim_generation_round_trip(self, rng):
        doc = make_doc(random_text(rng, sentences=8))
        # a generator that returns the window text split at sentence ends
        from chunkkit.text import split_sentences
        windows = sliding_windows(doc, max_tokens=4096)
        assert len(windows) == 1
        pieces = [doc.text[s.start:s.end] for s in split_sentences(doc)]
        generation = "".join(f"<chunk>{p}</chunk>\n" for p in pieces)
        prompt = prompts.render(prompts.DISTILL_PROMPT, text=doc.text)
        generator = FixtureGenerator({prompt: generation})
        result = distill_document(doc, generator)
        assert result.flagged == 0
        assert result.window_count == 1
        texts = [c.text for c in result.chunkset.chunks]
        assert [t.strip() for t in texts] == [p.strip() for p in pieces]

    def test_failed_window_skipped_and_counted(self, rng):
        para1 = random_text(rng, sentences=4)
        para2 = random_text(rng, sentences=4)
        doc = make_doc(para1 + "\n\n" + para2)
        budget = len(para1) + 10
        windows = sliding_windows(doc, max_tokens=budget)
        assert len(windows) == 2

        region1 = doc.text[slice(*windows[0])]
        half = len(para1) // 2
        generation = (f"<chunk>{doc.text[:half]}</chunk>"
                      f"<chunk>{doc.text[half:len(para1)]}</chunk>")
        generator = FixtureGenerator({
            prompts.render(prompts.DISTILL_PROMPT, text=region1): generation,
        })  # window 2's prompt is unknown: that window fails
        result = distill_document(doc, generator, max_window_tokens=budget)
        assert result.window_count == 2
        assert result.failed_windows == 1
        # window 1 keeps both chunks: its last, re-offered to the failed
        # window, too
        assert [c.text for c in result.chunkset.chunks] == [
            doc.text[:half], doc.text[half:len(para1)]]

    def test_cut_off_generation_fails_its_window(self, caplog):
        # the document's one window fails, and with it the document
        doc = make_doc("Alpha one here. Beta two here. Gamma 3 here.")  # 44 chars
        prompt = prompts.render(prompts.DISTILL_PROMPT, text=doc.text)
        generator = FixtureGenerator().add(
            prompt, "<chunk>Alpha one here.</chunk><chunk>Beta two",
            finish_reason="length")
        with caplog.at_level("WARNING"), pytest.raises(
                ExtractionError, match="^all 1 windows failed for doc doc$"):
            distill_document(doc, generator)
        assert "generation cut off at max_tokens" in caplog.text

    def test_cut_off_window_leaves_the_other_windows_chunks(self, caplog):
        doc = make_doc("Alpha one here. Beta two here.\n\nGamma 3 here.")
        windows = sliding_windows(doc, max_tokens=35)
        assert windows == [(0, 32), (32, 45)]
        generator = FixtureGenerator().add(
            prompts.render(prompts.DISTILL_PROMPT, text=doc.text[:32]),
            "<chunk>Alpha one here.</chunk><chunk>Beta two", finish_reason="length",
        ).add(prompts.render(prompts.DISTILL_PROMPT, text=doc.text[32:]),
              "<chunk>Gamma 3 here.</chunk>")
        with caplog.at_level("WARNING"):
            result = distill_document(doc, generator, max_window_tokens=35)
        assert (result.window_count, result.failed_windows) == (2, 1)
        assert [c.text for c in result.chunkset.chunks] == ["Gamma 3 here."]
        assert [(v.start, v.end) for v in result.verdicts] == [(32, 45)]
        assert "window 0 failed: generation cut off at max_tokens" in caplog.text

    def test_hallucinated_chunk_flagged_and_dropped(self, rng):
        doc = make_doc(random_text(rng, sentences=6).lower())
        good = doc.text[: len(doc.text) // 2]
        bad = "THIS TEXT NEVER APPEARED IN THE SOURCE DOCUMENT AT ALL ZZZZ"
        generation = f"<chunk>{good}</chunk><chunk>{bad}</chunk>"
        prompt = prompts.render(prompts.DISTILL_PROMPT, text=doc.text)
        generator = FixtureGenerator({prompt: generation})
        result = distill_document(doc, generator)
        assert result.flagged == 1
        assert len(result.chunkset.chunks) == 1
