"""Routing, rule generation, extraction, and the windowed pipeline."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkkit import prompts
from chunkkit.dataset import make_rules, sliding_windows
from chunkkit.errors import (
    AnchorNotFoundError,
    ExtractionError,
    FixtureMissingError,
    RuleParseError,
    TransportError,
)
from chunkkit.fuzzy import recover_anchor
from chunkkit.moc import (
    RuleMatch,
    _extract_spans,
    extract_chunks,
    generate_rules,
    moc_chunk,
    route,
)
from chunkkit.rules import ChunkRule, GranularityLabel, RuleList, parse_rule_list
from chunkkit.scoring import FixtureGenerator, FixtureScorer, NGramScorer
from chunkkit.text import ChunkSet, Document

from conftest import CountingGenerator, make_doc


def router_fixture(text: str, probs: dict[int, float],
                   scorer: FixtureScorer | None = None) -> FixtureScorer:
    """Fixture scorer answering the routing prompt with given label probs."""
    prompt = prompts.render(prompts.ROUTER_PROMPT, text=text)
    scorer = scorer or FixtureScorer()
    for label, p in probs.items():
        scorer.add(str(label), prompt, logprobs=[math.log(p)])
    return scorer


def favouring(label: int) -> dict[int, float]:
    """Probabilities of all four labels, ``label`` the most probable."""
    return {lab.value: 0.7 if lab.value == label else 0.1 for lab in GranularityLabel}


class TestRoute:
    def test_argmax(self):
        scorer = router_fixture("t", {0: 0.1, 1: 0.2, 2: 0.5, 3: 0.2})
        assert route("t", scorer) == GranularityLabel(2)

    def test_tie_breaks_to_smaller_label(self):
        scorer = router_fixture("t", {0: 0.1, 1: 0.4, 2: 0.4, 3: 0.1})
        assert route("t", scorer) == GranularityLabel(1)

    def test_fixture_table_drives_label(self):
        long_paragraph = "long paragraph " * 30
        scorer = router_fixture(long_paragraph,
                                {0: 0.05, 1: 0.05, 2: 0.1, 3: 0.8})
        assert route(long_paragraph, scorer) == GranularityLabel(3)

    def test_no_label_probability_raises(self):
        assert isinstance(FixtureScorer(), object)
        with pytest.raises(FixtureMissingError):
            route("t", FixtureScorer())  # empty table: every label fails

    def test_deterministic(self):
        scorer = router_fixture("t", {0: 0.2, 1: 0.25, 2: 0.3, 3: 0.25})
        assert all(route("t", scorer) == GranularityLabel(2) for _ in range(5))

    @pytest.mark.parametrize("label", list(GranularityLabel))
    def test_scoring_fault_on_one_label_raises(self, label):
        # no label is skipped: routing among the other three would hide it
        scorer = FailingLabel(router_fixture("t", favouring(1)), label)
        with pytest.raises(TransportError, match="router down"):
            route("t", scorer)


    def test_labels_sent_as_one_list(self):
        # the four labels in order, as one list; the tie still goes to the
        # finer label
        scorer = ListRouter(router_fixture("t", {0: 0.1, 1: 0.4, 2: 0.4, 3: 0.1}))
        assert route("t", scorer) == GranularityLabel(1)
        prompt = prompts.render(prompts.ROUTER_PROMPT, text="t")
        assert scorer.lists == [[(str(lab.value), prompt) for lab in GranularityLabel]]


class ListRouter:
    """A router that only has ``score_many``: it records each request list
    and answers it from ``inner``."""

    def __init__(self, inner):
        self.inner, self.lists = inner, []

    def score_many(self, requests):
        self.lists.append(list(requests))
        return [self.inner.score(text, context) for text, context in self.lists[-1]]


class FailingLabel:
    """A router that raises a TransportError scoring ``label``, in every
    context or only in ``context``; else it asks ``inner``."""

    def __init__(self, inner, label: int, context: str | None = None):
        self.inner, self.label, self.context = inner, label, context

    def score(self, text: str, context: str | None = None):
        if text == str(self.label) and self.context in (None, context):
            raise TransportError("router down", attempts=3)
        return self.inner.score(text, context)


class TestGenerateRules:
    def _expert(self, text: str, response: str,
                placeholder: str = "[MASK]") -> FixtureGenerator:
        prompt = prompts.render(prompts.RULE_CHUNK_PROMPT, text=text,
                                placeholder=placeholder)
        return FixtureGenerator({prompt: response})

    def test_five_element_round_trip(self):
        paragraphs = [f"paragraph {i} text body {i} tail." for i in range(5)]
        text = "\n\n".join(paragraphs)
        response = json.dumps(
            [f"paragraph {i} [MASK] {i} tail." for i in range(5)]
        )
        expert = self._expert(text, response)
        rules = generate_rules(text, expert)
        assert len(rules) == 5
        assert [r.prefix for r in rules] == \
            [f"paragraph {i} " for i in range(5)]

    def test_unparseable_generation_raises_with_raw(self):
        expert = self._expert("text", "I refuse to answer.")
        with pytest.raises(RuleParseError, match="no bracketed list found"):
            generate_rules("text", expert)

    def test_empty_list_generation_rejected(self):
        expert = self._expert("text", "[]")
        with pytest.raises(RuleParseError):
            generate_rules("text", expert)

    def test_uses_near_greedy_params_by_default(self):
        expert = CountingGenerator(self._expert("text", '["a [MASK] b"]'))
        generate_rules("text", expert)
        assert expert.prompts == 1


# a region holding every slot name, and a brace pair that is no slot
SLOT_REGION = "a {text} b {placeholder} c {x y} d {"


@pytest.mark.parametrize("template", [
    prompts.DISTILL_PROMPT, prompts.RULE_CHUNK_PROMPT, prompts.ROUTER_PROMPT,
], ids=["distill", "rule-chunk", "router"])
def test_rendered_region_is_verbatim(template):
    # each template holds one {text} slot; its other slots are filled
    head, tail = (part.replace("{placeholder}", "<P>")
                  for part in template.split("{text}"))
    assert prompts.render(template, text=SLOT_REGION, placeholder="<P>") == \
        head + SLOT_REGION + tail


def anchored(prefix: str, suffix: str) -> ChunkRule:
    return ChunkRule(prefix=prefix, placeholder="[MASK]", suffix=suffix)


class TestExtractChunks:
    def test_exact_anchors(self):
        doc = make_doc("AAA BBB CCC DDD")
        rules = RuleList(rules=(anchored("AAA", "BBB"), anchored("CCC", "DDD")))
        cs, report = extract_chunks(doc, rules)
        assert [c.text for c in cs.chunks] == ["AAA BBB", "CCC DDD"]
        assert [m.mode for m in report] == ["exact", "exact"]

    def test_spaced_generation_elements_still_resolve(self):
        # anchors parsed from "X [MASK] Y" carry the separator spaces and
        # fall back to recovery for the missing one
        doc = make_doc("AAA BBB CCC DDD")
        rules = parse_rule_list('["AAA [MASK] BBB", "CCC [MASK] DDD"]')
        cs, report = extract_chunks(doc, rules)
        assert [c.text for c in cs.chunks] == ["AAA BBB", "CCC DDD"]

    def test_recovery_reports_distance(self):
        doc = make_doc("AAA BBB CCC DDD")
        rules = RuleList(rules=(anchored("AAA", "BBb"), anchored("CCC", "DDD")))
        cs, report = extract_chunks(doc, rules)
        assert [c.text for c in cs.chunks] == ["AAA BBB", "CCC DDD"]
        assert report[0].mode == "recovered"
        assert report[0].distance == 1

    def test_suffix_searched_strictly_after_prefix(self):
        doc = make_doc("ABxAB")
        rules = RuleList(rules=(anchored("AB", "AB"),))
        cs, report = extract_chunks(doc, rules)
        assert cs.chunks[0].text == "ABxAB"

    def test_literal_rule_matches_whole_text(self):
        doc = make_doc("one two three")
        rules = parse_rule_list('["one two", "three"]')
        cs, _ = extract_chunks(doc, rules)
        assert [c.text for c in cs.chunks] == ["one two", "three"]

    def test_literal_rule_recovery_counts_its_text_once(self):
        # a literal rule's tail is its head: one distance, not two
        doc = make_doc("one two three four")
        rules = parse_rule_list('["one twO", "zzzzzzzzzzzzzz", "three four"]')
        cs, report = extract_chunks(doc, rules)
        assert [c.text for c in cs.chunks] == ["one two", "three four"]
        assert [(m.mode, m.distance) for m in report] == [
            ("recovered", 1), ("failed", 0), ("exact", 0)]

    def test_unresolvable_rule_skipped_and_reported(self):
        doc = make_doc("AAA BBB CCC DDD")
        rules = RuleList(rules=(
            anchored("AAA", "BBB"),
            anchored("zzzzzzzzzz", "qqqqqqqqqq"),
            anchored("CCC", "DDD"),
        ))
        cs, report = extract_chunks(doc, rules)
        assert [c.text for c in cs.chunks] == ["AAA BBB", "CCC DDD"]
        assert report[1].mode == "failed"
        assert sum(m.mode == "failed" for m in report) == 1

    def test_suffix_failure_leaves_cursor_for_next_rule(self):
        # rule 0's prefix resolves but its suffix cannot; later rules must
        # still match from the untouched cursor
        doc = make_doc("AAA BBB CCC DDD")
        rules = RuleList(rules=(
            anchored("AAA", "qqqqqqqqqqqq"),
            anchored("AAA", "BBB"),
            anchored("CCC", "DDD"),
        ))
        cs, report = extract_chunks(doc, rules)
        assert [m.mode for m in report] == ["failed", "exact", "exact"]
        assert [c.text for c in cs.chunks] == ["AAA BBB", "CCC DDD"]

    def test_majority_failure_aborts_document(self):
        doc = make_doc("AAA BBB")
        rules = RuleList(rules=(
            anchored("zzzzzzzzzz", "qqqqqqqqqq"),
            anchored("xxxxxxxxxx", "wwwwwwwwww"),
        ))
        with pytest.raises(ExtractionError) as err:
            extract_chunks(doc, rules)
        assert sum(m.mode == "failed" for m in err.value.report) == 2

    def test_spans_strictly_increasing(self, rng):
        doc = make_doc("alpha beta gamma delta epsilon zeta eta theta")
        cs0 = ChunkSet.from_spans(doc, [(0, 10), (11, 22), (23, 35), (36, 45)],
                                  method="t")
        rules = make_rules(cs0, anchor_len=4)
        cs, report = extract_chunks(doc, rules)
        starts = [c.start for c in cs.chunks]
        ends = [c.end for c in cs.chunks]
        assert starts == sorted(starts)
        assert all(e <= s for e, s in zip(ends, starts[1:]))


def reference_extract_spans(text, rules, base_offset=0):
    """``_extract_spans`` as it was before exact anchors skipped recovery:
    every anchor went through ``recover_anchor`` and a ``SpanMatch``."""
    def locate(needle, start):
        if start >= len(text):
            return None
        try:
            return recover_anchor(needle, text, search_from=start)
        except AnchorNotFoundError:
            return None

    matches = []
    cursor = 0
    for rule in rules.rules:
        head = locate(rule.prefix, cursor)
        tail = head if head is None or rule.literal else locate(rule.suffix, head.end)
        if tail is None:
            matches.append(RuleMatch())
            continue
        distance = head.distance if rule.literal else head.distance + tail.distance
        matches.append(RuleMatch(distance, base_offset + head.start, base_offset + tail.end))
        cursor = tail.end
    failed = sum(m.start is None for m in matches)
    if failed * 2 > len(rules.rules):
        raise ExtractionError(f"{failed} of {len(rules.rules)} rules failed to resolve",
                              report=matches)
    return [(m.start, m.end) for m in matches if m.start is not None], matches


@st.composite
def anchor_of(draw, text):
    """A piece of ``text`` as it is, with one character changed, the text's
    last characters (so the cursor reaches the region end), or text that
    does not occur."""
    # an exact anchor twice as often as each other kind
    kind = draw(st.sampled_from(["exact", "exact", "corrupted", "end", "missing"]))
    size = draw(st.integers(1, 12))
    if kind == "missing":
        return "qz" * size
    if kind == "end":
        return text[-size:]
    at = draw(st.integers(0, len(text) - 1))
    piece = text[at:at + size]
    if kind == "corrupted":
        i = draw(st.integers(0, len(piece) - 1))
        piece = piece[:i] + draw(st.sampled_from("~ab")) + piece[i + 1:]
    return piece


@st.composite
def extraction_cases(draw):
    text = draw(st.text("ab .\n", min_size=1, max_size=90).filter(str.strip))
    rules = []
    for _ in range(draw(st.integers(1, 8))):
        prefix = draw(anchor_of(text))
        if draw(st.booleans()):
            rules.append(ChunkRule(prefix=prefix, placeholder=None))
        else:
            rules.append(anchored(prefix, draw(anchor_of(text))))
    return text, RuleList(tuple(rules)), draw(st.integers(0, 50))


def outcome(text, rules, base_offset, extract):
    try:
        return extract(text, rules, base_offset)
    except ExtractionError as exc:
        return str(exc), exc.report


@settings(max_examples=500)
@given(case=extraction_cases())
def test_extract_spans_matches_reference(case):
    assert outcome(*case, _extract_spans) == outcome(*case, reference_extract_spans)


def build_moc_fixtures(doc: Document, label: int, chunk_texts: list[str],
                       windows=None):
    """Router + expert fixtures that reproduce a known segmentation."""
    windows = windows or sliding_windows(doc)
    router = FixtureScorer()
    expert = FixtureGenerator()
    region_start = 0
    for wi, (_, window_end) in enumerate(windows):
        region = doc.text[region_start:window_end]
        router_fixture(region, favouring(label), router)
        # chunks fully inside the region, as anchor rules
        inside = [t for t in chunk_texts if region.find(t) >= 0]
        elements = []
        for t in inside:
            if len(t) <= 12:
                elements.append(t)
            else:
                elements.append(f"{t[:6]}[MASK]{t[-6:]}")
        expert.add(
            prompts.render(prompts.RULE_CHUNK_PROMPT, text=region,
                           placeholder="[MASK]"),
            json.dumps(elements),
        )
        region_start = window_end
    experts = {lab: expert for lab in GranularityLabel}
    return router, experts


class TestMocChunk:
    def test_short_doc_single_window_single_calls(self):
        doc = make_doc("First chunk sentence one. Second chunk sentence two.")
        chunk_texts = ["First chunk sentence one.", " Second chunk sentence two."]
        router, experts = build_moc_fixtures(doc, 1, chunk_texts)
        expert = CountingGenerator(experts[GranularityLabel(0)])
        cs, reports = moc_chunk(doc, router, dict.fromkeys(experts, expert))
        assert [c.text for c in cs.chunks] == chunk_texts
        assert cs.method == "moc"
        # exactly one routing call and one expert call for one window
        assert expert.prompts == 1

    def test_fixture_end_to_end_matches_intended_segmentation(self):
        body = " ".join(f"sentence number {i} speaks plainly." for i in range(4))
        doc = make_doc(body)
        texts = []
        pos = 0
        for i in range(4):
            piece = f"sentence number {i} speaks plainly."
            start = body.find(piece, pos)
            texts.append(body[start:start + len(piece)])
            pos = start + len(piece)
        router, experts = build_moc_fixtures(doc, 2, texts)
        cs, _ = moc_chunk(doc, router, experts)
        assert [c.text.strip() for c in cs.chunks] == [t.strip() for t in texts]

    def test_router_gets_one_list_per_window(self):
        body = " ".join(f"sentence number {i} speaks plainly." for i in range(12))
        doc = make_doc(body)
        windows = sliding_windows(doc, max_tokens=120)
        assert len(windows) > 2
        texts = [f"sentence number {i} speaks plainly." for i in range(12)]
        _, experts = build_moc_fixtures(doc, 0, texts, windows)
        # uniform over the labels, so it answers every window's requests
        router = ListRouter(NGramScorer(1, alphabet="0123"))
        moc_chunk(doc, router, experts, max_window_tokens=120)
        assert len(router.lists) == len(windows)
        for requests in router.lists:
            assert [text for text, _ in requests] == ["0", "1", "2", "3"]
            assert len({context for _, context in requests}) == 1

    def test_missing_expert_rejected(self):
        doc = make_doc("abc def.")
        router = FixtureScorer()
        with pytest.raises(ValueError, match="no expert"):
            moc_chunk(doc, router, {0: FixtureGenerator()})

    def test_every_window_failing_raises(self):
        doc = make_doc("abc def.")
        router = FixtureScorer()  # empty: routing fails
        experts = {lab: FixtureGenerator() for lab in GranularityLabel}
        with pytest.raises(ExtractionError):
            moc_chunk(doc, router, experts)

    def test_every_window_of_many_failing_raises(self):
        doc = make_doc(" ".join(f"sentence {i} ends here." for i in range(12)))
        assert len(sliding_windows(doc, max_tokens=60)) > 2
        router = FixtureScorer()  # empty: routing fails in every window
        experts = {lab: FixtureGenerator() for lab in GranularityLabel}
        with pytest.raises(ExtractionError, match="all .* windows failed"):
            moc_chunk(doc, router, experts, max_window_tokens=60)

    def test_two_window_buffer_no_duplicates(self):
        # straddle: last chunk of window 1 is re-offered to window 2
        doc, budget, sentences, router, expert, _ = two_window_fixtures()
        experts = {lab: expert for lab in GranularityLabel}
        cs, reports = moc_chunk(doc, router, experts, max_window_tokens=budget)

        starts = [c.start for c in cs.chunks]
        assert starts == sorted(set(starts))
        assert all(a.end <= b.start for a, b in zip(cs.chunks, cs.chunks[1:]))
        # every sentence present exactly once (no duplicated spans)
        joined = " ".join(c.text.strip() for c in cs.chunks)
        for s in sentences:
            assert joined.count(s) == 1

    def test_router_fault_fails_only_its_window(self, caplog):
        doc, budget, sentences, router, expert, regions = two_window_fixtures()
        window2 = prompts.render(prompts.ROUTER_PROMPT, text=regions[1])
        router = FailingLabel(router, 3, context=window2)
        experts = {lab: expert for lab in GranularityLabel}
        with caplog.at_level("WARNING"):
            cs, reports = moc_chunk(doc, router, experts, max_window_tokens=budget)
        assert "window 1 failed: router down" in caplog.text
        # window 1 keeps all its chunks: the last, which it re-offered to the
        # failed window, too
        inside1 = [s for s in sentences if s in regions[0]]
        assert [c.text.strip() for c in cs.chunks] == inside1
        assert len(reports) == 1

    def test_failed_extraction_still_reports(self, caplog):
        doc, budget, sentences, router, expert, regions = two_window_fixtures()
        expert.add(prompts.render(prompts.RULE_CHUNK_PROMPT, text=regions[1],
                                  placeholder="[MASK]"),
                   json.dumps(["qqqqq [MASK] zzzzz"] * 3))
        experts = {lab: expert for lab in GranularityLabel}
        with caplog.at_level("WARNING"):
            cs, reports = moc_chunk(doc, router, experts, max_window_tokens=budget)
        assert "window 1 failed: 3 of 3 rules failed to resolve" in caplog.text
        inside1 = [s for s in sentences if s in regions[0]]
        assert [c.text.strip() for c in cs.chunks] == inside1
        assert [sum(m.mode == "failed" for m in r) for r in reports] == [0, 3]
        assert [m.mode for m in reports[1]] == ["failed"] * 3


def two_window_fixtures():
    """A two-window document whose window 1 covers whole sentences, with
    router and expert fixtures for both regions. Window 1's final chunk is
    dropped and re-offered, so window 2's region starts at its start."""
    sentences = [f"w{i} body text charges ahead plainly." for i in range(8)]
    doc = make_doc(" ".join(sentences))
    budget = len(doc.text) // 2 + 10
    windows = sliding_windows(doc, max_tokens=budget)
    assert len(windows) == 2
    region1 = doc.text[slice(*windows[0])]
    inside1 = [s for s in sentences if s in region1]
    region2 = doc.text[doc.text.find(inside1[-1]):windows[1][1]]
    router = FixtureScorer()
    expert = FixtureGenerator()
    for region in (region1, region2):
        router_fixture(region, favouring(1), router)
        inside = [s for s in sentences if s in region]
        expert.add(
            prompts.render(prompts.RULE_CHUNK_PROMPT, text=region,
                           placeholder="[MASK]"),
            json.dumps([f"{s[:5]}[MASK]{s[-8:]}" for s in inside]),
        )
    return doc, budget, sentences, router, expert, (region1, region2)
