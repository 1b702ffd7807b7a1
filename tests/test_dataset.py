"""Windows, chunk buffering, cleaning, and training-set synthesis."""

from __future__ import annotations

import sys

import pytest

from chunkkit.dataset import (
    Window,
    detect_hallucination,
    distill_document,
    expert_samples,
    label_granularity,
    make_rules,
    parse_tagged_chunks,
    router_text,
    sliding_windows,
    windowed_chunk,
)
from chunkkit.errors import ExtractionError, RuleParseError, ScoringError
from chunkkit.moc import extract_chunks
from chunkkit.rules import GranularityLabel, parse_rule_list
from chunkkit.scoring import FixtureGenerator
from chunkkit.text import ChunkSet, Document
from chunkkit import prompts

from conftest import make_doc, random_text


class TestSlidingWindows:
    def test_under_budget_single_window(self, rng):
        doc = make_doc(random_text(rng, sentences=5))
        assert len(doc.text) < 1024
        windows = sliding_windows(doc, max_tokens=1024)
        assert len(windows) == 1
        assert (windows[0].start, windows[0].end) == (0, len(doc.text))

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
        for w in windows[:-1]:
            assert w.end in breaks
        assert all(len(w) <= 1024 for w in windows)

    def test_sentence_ends_when_no_paragraphs(self, rng):
        doc = make_doc(random_text(rng, sentences=60))
        windows = sliding_windows(doc, max_tokens=256)
        for w in windows[:-1]:
            assert doc.text[w.end - 1] == "."
            assert len(w) <= 256

    def test_hard_cut_fallback(self):
        doc = make_doc("x" * 3000)
        windows = sliding_windows(doc, max_tokens=1024)
        assert [len(w) for w in windows] == [1024, 1024, 952]

    def test_windows_tile_document(self, rng):
        for i in range(25):
            doc = make_doc(random_text(rng, sentences=rng.randint(1, 80)),
                           doc_id=f"d{i}")
            windows = sliding_windows(doc, max_tokens=200)
            assert windows[0].start == 0
            assert windows[-1].end == len(doc.text)
            assert all(a.end == b.start for a, b in zip(windows, windows[1:]))

    @pytest.mark.parametrize("max_tokens", [10**6, sys.maxsize, 10**400],
                             ids=["10**6", "maxsize", "10**400"])
    def test_budget_beyond_the_text_is_one_window(self, max_tokens):
        # the budget is an integer clamped to the text: no count overflows
        doc = make_doc("y" * 1000)
        windows = sliding_windows(doc, max_tokens=max_tokens)
        assert [(w.start, w.end) for w in windows] == [(0, 1000)]


class TestWindowedChunk:
    """The chunk buffer and per-window failures of ``windowed_chunk``."""

    DOC = make_doc("aaa bbb ccc ddd eee fff")
    WINDOWS = [Window("doc", 0, 12), Window("doc", 12, 23)]

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
                assert all(m.mode == "exact" for m in report.matches)


class TestLabelGranularity:
    @pytest.mark.parametrize("length,label", [
        (120, 0), (150, 1), (180, 2), (181, 3), (1, 0),
    ])
    def test_boundary_means(self, length, label):
        doc = make_doc("x" * length)
        cs = ChunkSet.from_spans(doc, [(0, length)], method="t")
        assert label_granularity(cs) == GranularityLabel(label)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            label_granularity(ChunkSet(doc_id="d", chunks=(), method="t"))


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

        region1 = doc.text[windows[0].start:windows[0].end]
        half = len(para1) // 2
        generation = (f"<chunk>{doc.text[:half]}</chunk>"
                      f"<chunk>{doc.text[half:len(para1)]}</chunk>")
        generator = FixtureGenerator({
            prompts.render(prompts.DISTILL_PROMPT, text=region1): generation,
        })  # window 2's prompt is unknown: that window fails
        result = distill_document(doc, generator, max_window_tokens=budget)
        assert result.window_count == 2
        assert result.failed_windows == 1
        # window 1 kept its first chunk; its last was re-offered and lost
        # with the failed window
        assert [c.text for c in result.chunkset.chunks] == [doc.text[:half]]

    def test_cut_off_generation_fails_its_window(self, caplog):
        doc = make_doc("Alpha one here. Beta two here. Gamma 3 here.")  # 44 chars
        prompt = prompts.render(prompts.DISTILL_PROMPT, text=doc.text)
        generator = FixtureGenerator().add(
            prompt, "<chunk>Alpha one here.</chunk><chunk>Beta two",
            finish_reason="length")
        with caplog.at_level("WARNING"):
            result = distill_document(doc, generator)
        assert (result.window_count, result.failed_windows) == (1, 1)
        assert result.chunkset.chunks == () and result.verdicts == []
        assert "generation cut off at max_tokens" in caplog.text

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
