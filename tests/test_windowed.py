"""Pins the shared window loop against the per-pipeline loops it replaced.

``reference_moc_chunk`` and ``reference_distill`` are the window loops that
``moc_chunk`` and ``distill_document`` each carried before both moved onto
``dataset.windowed_chunk``, restated for three later rules: a span
re-offered to a window that fails is kept, distillation matches each
generated chunk only inside its window's region, and a distilled document
whose every window fails fails, as a MoC one does. Random documents, window
budgets and injected window faults (routing, parse, extraction, backend)
must give the same spans, extraction reports, verdicts, failed-window
counts and document failures. A last test states how far a region may
pass its window's budget.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkkit import prompts
from chunkkit.dataset import (
    CleaningVerdict,
    detect_hallucination,
    distill_document,
    parse_tagged_chunks,
    sliding_windows,
    windowed_chunk,
)
from chunkkit.errors import (
    ExtractionError,
    FixtureMissingError,
    RuleParseError,
    ScoringError,
)
from chunkkit.moc import (
    RuleMatch,
    _extract_spans,
    generate_rules,
    moc_chunk,
    route,
)
from chunkkit.rules import DEFAULT_PLACEHOLDER, GranularityLabel
from chunkkit.scoring import (
    FixtureGenerator,
    FixtureScorer,
    GenerationResult,
    ScoredText,
)
from chunkkit.text import ChunkSet, Document, split_sentences

from conftest import random_word

FAULTS = ("routing", "parse", "extraction", "backend")


# -- the loops as they were ---------------------------------------------------

def reference_moc_chunk(doc, router, experts, max_window_tokens):
    experts = {GranularityLabel(int(k)): v for k, v in experts.items()}
    windows = sliding_windows(doc, max_tokens=max_window_tokens)
    reports: list[list[RuleMatch]] = []
    all_spans: list[tuple[int, int]] = []
    dropped = None
    region_start = 0
    failures = 0
    for wi, (_, window_end) in enumerate(windows):
        last_window = wi == len(windows) - 1
        region = doc.text[region_start:window_end]
        try:
            label = route(region, router)
            rule_list = generate_rules(region, experts[label])
            spans, report = _extract_spans(
                region, rule_list, base_offset=region_start
            )
        except (RuleParseError, ExtractionError, ScoringError) as exc:
            # a window whose extraction failed still reports its rules
            if isinstance(exc, ExtractionError):
                reports.append(exc.report)
            failures += 1
            if dropped is not None:
                all_spans.append(dropped)
            dropped = None
            region_start = window_end
            continue
        reports.append(report)
        if not last_window and len(spans) > 1:
            dropped = spans.pop()
            region_start = dropped[0]
        else:
            dropped = None
            region_start = window_end
        all_spans.extend(spans)
    if failures == len(windows):
        raise ExtractionError(f"all {len(windows)} windows failed for doc {doc.id}")
    return ChunkSet.from_spans(doc, all_spans, method="moc"), reports


def reference_distill(doc, generator, max_window_tokens, flag_ratio=0.10):
    windows = sliding_windows(doc, max_tokens=max_window_tokens)
    spans: list[tuple[int, int]] = []
    verdicts: list[CleaningVerdict] = []
    dropped = None
    region_start = 0
    failed = 0
    for wi, (_, window_end) in enumerate(windows):
        last_window = wi == len(windows) - 1
        region = doc.text[region_start:window_end]
        prompt = prompts.render(prompts.DISTILL_PROMPT, text=region)
        try:
            generation = generator.generate(prompt)
            chunk_texts = parse_tagged_chunks(generation.text)
        except (ScoringError, RuleParseError):
            failed += 1
            if dropped is not None:
                spans.append(dropped)
            dropped = None
            region_start = window_end
            continue
        window_spans: list[tuple[int, int]] = []
        cursor = region_start
        for text in chunk_texts:
            text = text.strip()
            verdict = detect_hallucination(
                text, doc, search_from=min(cursor, window_end - 1),
                flag_ratio=flag_ratio, search_to=window_end,
            )
            verdicts.append(verdict)
            if verdict.flagged or verdict.start >= verdict.end:
                continue
            window_spans.append((verdict.start, verdict.end))
            cursor = verdict.end
        if not last_window and len(window_spans) > 1:
            dropped = window_spans.pop()
            region_start = dropped[0]
        else:
            dropped = None
            region_start = window_end
        spans.extend(window_spans)
    if failed == len(windows):
        raise ExtractionError(f"all {len(windows)} windows failed for doc {doc.id}")
    return (ChunkSet.from_spans(doc, spans, method="distilled"), verdicts,
            len(windows), failed)


# -- backends that answer from the region inside the prompt -------------------

def _region_of(prompt: str, template: str, **slots: str) -> str:
    head, tail = prompts.render(template, **slots).split("{text}")
    assert prompt.startswith(head) and prompt.endswith(tail)
    return prompt[len(head):len(prompt) - len(tail)]


def _sentences(region: str) -> list[str]:
    if not region.strip():
        return []
    return [region[s.start:s.end] for s in split_sentences(Document("r", region))]


class _Faults:
    """Which window (by its end offset) fails, and how."""

    def __init__(self, doc: Document, windows, faults: dict[int, str]):
        self.doc = doc
        self.by_end = {windows[i][1]: kind for i, kind in faults.items()
                       if i < len(windows)}

    def __call__(self, region: str) -> str | None:
        for end, kind in self.by_end.items():
            if self.doc.text[end - len(region):end] == region:
                return kind
        return None


class AnsweringRouter(FixtureScorer):
    def __init__(self, fault_of):
        super().__init__()
        self.fault_of = fault_of

    def score(self, text: str, context: str | None = None) -> ScoredText:
        region = _region_of(context, prompts.ROUTER_PROMPT)
        if self.fault_of(region) == "routing":
            raise FixtureMissingError("no label probabilities")
        # a label the region's length picks, so experts differ by window
        probs = {str(lab.value): 0.1 for lab in GranularityLabel}
        probs[str(len(region) % 4)] = 0.7
        return ScoredText(tokens=(text,), logprobs=(math.log(probs[text]),))


class AnsweringExpert(FixtureGenerator):
    """Anchor rules for the sentences inside the region."""

    def generate(self, prompt):
        region = _region_of(prompt, prompts.RULE_CHUNK_PROMPT,
                            placeholder=DEFAULT_PLACEHOLDER)
        kind = self.fault_of(region)
        if kind == "backend":
            raise FixtureMissingError("expert unavailable")
        if kind == "parse":
            return GenerationResult("no list here")
        if kind == "extraction":
            rules = ["qqqq[MASK]zzzz"] * 3
        else:
            rules = []
            for text in map(str.strip, _sentences(region)):
                rules.append(text if len(text) <= 12
                             else f"{text[:5]}{DEFAULT_PLACEHOLDER}{text[-5:]}")
        return GenerationResult(json.dumps(rules))


class AnsweringDistiller(FixtureGenerator):
    """Tagged sentence chunks for the region; every third one is garbled."""

    def generate(self, prompt):
        region = _region_of(prompt, prompts.DISTILL_PROMPT)
        kind = self.fault_of(region)
        if kind == "backend":
            raise FixtureMissingError("generator unavailable")
        if kind == "parse":
            return GenerationResult("no tags here")
        pieces = []
        for i, text in enumerate(_sentences(region)):
            if i % 3 == 2:
                text = text.upper()[::-1]
            pieces.append(f"<chunk>{text}</chunk>")
        return GenerationResult("".join(pieces))


def _document(seed: int, sentences: int, paragraph_every: int) -> Document:
    rng = random.Random(seed)
    parts = []
    for i in range(sentences):
        words = " ".join(random_word(rng) for _ in range(rng.randint(2, 9)))
        sep = "\n\n" if paragraph_every and i and i % paragraph_every == 0 else " "
        parts.append((sep if parts else "") + words.capitalize() + ".")
    return Document(id=f"doc{seed}", text="".join(parts))


cases = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "sentences": st.integers(1, 40),
    "paragraph_every": st.integers(0, 6),
    "budget": st.integers(30, 400),
    "faults": st.dictionaries(st.integers(0, 6), st.sampled_from(FAULTS),
                              max_size=4),
})


def _setup(case, expert_cls):
    doc = _document(case["seed"], case["sentences"], case["paragraph_every"])
    windows = sliding_windows(doc, max_tokens=case["budget"])
    fault_of = _Faults(doc, windows, case["faults"])
    backend = expert_cls()
    backend.fault_of = fault_of
    return doc, fault_of, backend


@settings(max_examples=60)
@given(case=cases)
def test_moc_chunk_matches_reference_loop(case):
    doc, fault_of, expert = _setup(case, AnsweringExpert)
    experts = {lab: expert for lab in GranularityLabel}
    router = AnsweringRouter(fault_of)
    try:
        expected = reference_moc_chunk(doc, router, experts, case["budget"])
    except ExtractionError as exc:
        with pytest.raises(ExtractionError, match=str(exc)):
            moc_chunk(doc, router, experts, max_window_tokens=case["budget"])
        return
    cs, reports = moc_chunk(doc, router, experts, max_window_tokens=case["budget"])
    assert cs == expected[0]
    assert reports == expected[1]


@settings(max_examples=60)
@given(case=cases)
def test_distill_document_matches_reference_loop(case):
    doc, _, generator = _setup(case, AnsweringDistiller)
    try:
        chunkset, verdicts, window_count, failed = reference_distill(
            doc, generator, case["budget"])
    except ExtractionError as exc:
        with pytest.raises(ExtractionError, match=str(exc)):
            distill_document(doc, generator, max_window_tokens=case["budget"])
        return
    result = distill_document(doc, generator, max_window_tokens=case["budget"])
    assert result.chunkset == chunkset
    assert result.verdicts == verdicts
    assert (result.window_count, result.failed_windows) == (window_count, failed)


@settings(max_examples=100)
@given(case=cases)
def test_a_region_is_at_most_its_window_plus_the_held_span(case):
    # the held span is offered again whole, so a region can pass the budget
    doc = _document(case["seed"], case["sentences"], case["paragraph_every"])
    windows = sliding_windows(doc, max_tokens=case["budget"])
    offered, found = [], []

    def per_window(region, offset):  # sentence spans, which tile the region
        offered.append((offset, offset + len(region)))
        found.append([(offset + s.start, offset + s.end)
                      for s in split_sentences(region)])
        return list(found[-1])

    windowed_chunk(doc, windows, per_window)
    for i, ((start, end), (region_start, region_end)) in enumerate(zip(windows, offered)):
        held = found[i - 1][-1] if i and len(found[i - 1]) > 1 else None
        assert region_end == end
        assert region_start == (held[0] if held else start)
        held_len = held[1] - held[0] if held else 0
        assert region_end - region_start <= (end - start) + held_len
