"""LM-guided chunking: granularity routing, rule generation, extraction.

The pipeline windows a document, routes each window to a granularity
expert, asks the expert for anchor+placeholder rules, extracts chunk spans
from the source text, and stitches windows with the chunk-buffer
discipline (the last chunk of a window is held back and its text
re-offered to the next window, and kept if that window fails). An exact
anchor costs one ``str.find``; only a miss runs the edit-distance kernel
of anchor recovery. A backend fault in any step, the router's score of
any label included, fails its window and no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import prompts
from .dataset import sliding_windows, windowed_chunk
from .errors import AnchorNotFoundError, ExtractionError, RuleParseError
from .fuzzy import recover_anchor
from .rules import (
    DEFAULT_PLACEHOLDER,
    GranularityLabel,
    RuleList,
    parse_rule_list,
)
from .scoring import Generator, Scorer, score_many
from .text import ChunkSet, Document


def route(text: str, scorer: Scorer) -> GranularityLabel:
    """Pick the granularity label whose token is most probable at the end
    of the routing prompt; ties break toward the smaller (finer) label.

    The four label requests go to the scorer as one list (see
    :func:`score_many`). Every label is scored, so a scorer's fault on any
    label propagates (a :class:`ScoringError` fails the caller's window);
    no label is skipped.
    """
    if not text:
        raise ValueError("cannot route empty text")
    prompt = prompts.render(prompts.ROUTER_PROMPT, text=text)
    results = score_many(scorer, [(str(label.value), prompt) for label in GranularityLabel])
    return max(zip(GranularityLabel, results), key=lambda pair: sum(pair[1].logprobs))[0]


def generate_rules(
    text: str,
    generator: Generator,
    placeholder: str = DEFAULT_PLACEHOLDER,
) -> RuleList:
    """Ask the expert for a rule list over ``text`` and parse it.

    The prompt requests one placeholder, but parsing accepts any of the
    known set. Raises :class:`RuleParseError` on a generation cut off at
    max_tokens, and on output with no string element.
    """
    if not text:
        raise ValueError("cannot chunk empty text")
    prompt = prompts.render(prompts.RULE_CHUNK_PROMPT, text=text,
                            placeholder=placeholder)
    result = generator.generate(prompt)
    if result.truncated:
        raise RuleParseError("generation cut off at max_tokens")
    return parse_rule_list(result.text)


@dataclass(frozen=True)
class RuleMatch:
    """How one rule resolved: its span ``[start, end)`` in the document and
    the edit distance of its anchors, or no span when it failed. A match's
    rule is the one at its position in its window's match list."""

    distance: int = 0
    start: int | None = None
    end: int | None = None

    @property
    def mode(self) -> str:
        """``"failed"``, ``"exact"`` or ``"recovered"``."""
        if self.start is None:
            return "failed"
        return "exact" if self.distance == 0 else "recovered"


def _locate(needle: str, text: str, start: int) -> tuple[int, int, int] | None:
    """``(start, end, distance)`` of the earliest acceptable recovery of an
    anchor that ``str.find`` missed at or after ``start``; None when nothing
    qualifies."""
    if start >= len(text):
        return None
    try:
        match = recover_anchor(needle, text, search_from=start)
    except AnchorNotFoundError:
        return None
    return match.start, match.end, match.distance


def _extract_spans(
    text: str,
    rules: RuleList,
    base_offset: int = 0,
) -> tuple[list[tuple[int, int]], list[RuleMatch]]:
    """Resolve rules against ``text`` with a forward-only cursor: the spans
    and one :class:`RuleMatch` per rule, in rule order.

    Anchors match earliest-first: one ``str.find`` answers an exact anchor,
    and only a miss goes to recovery. The cursor advances past each
    resolved chunk, so spans come out strictly increasing and
    non-overlapping. An unresolvable rule gets a failed match and no span;
    more than 50% failures raise :class:`ExtractionError`, whose ``report``
    is the matches.
    """
    matches: list[RuleMatch] = []
    cursor = 0
    for rule in rules.rules:
        prefix = rule.prefix
        pos = text.find(prefix, cursor)
        head = (pos, pos + len(prefix), 0) if pos >= 0 else _locate(prefix, text, cursor)
        if head is None:
            matches.append(RuleMatch())
            continue
        start, end, distance = head
        if not rule.literal:  # a literal rule is its own anchor: its tail is its head
            suffix = rule.suffix
            pos = text.find(suffix, end)
            tail = (pos, pos + len(suffix), 0) if pos >= 0 else _locate(suffix, text, end)
            if tail is None:
                matches.append(RuleMatch())
                continue
            end, distance = tail[1], distance + tail[2]
        matches.append(RuleMatch(distance, base_offset + start, base_offset + end))
        cursor = end
    failed = sum(m.start is None for m in matches)
    if failed * 2 > len(rules.rules):
        raise ExtractionError(f"{failed} of {len(rules.rules)} rules failed to resolve",
                              report=matches)
    return [(m.start, m.end) for m in matches if m.start is not None], matches


def extract_chunks(doc: Document, rules: RuleList) -> tuple[ChunkSet, list[RuleMatch]]:
    """Turn a rule list into document chunk spans and its rule matches.

    For each rule the prefix anchor is located from the cursor (exact
    search first, then recovery), the suffix anchor strictly after the
    prefix; the chunk runs from prefix start to suffix end.
    """
    if not rules.rules:
        raise ValueError("rule list is empty")
    spans, matches = _extract_spans(doc.text, rules)
    return ChunkSet.from_spans(doc, spans, method="moc"), matches


def moc_chunk(
    doc: Document,
    router: Scorer,
    experts: Mapping[GranularityLabel | int, Generator],
    max_window_tokens: int = 1024,
    placeholder: str = DEFAULT_PLACEHOLDER,
) -> tuple[ChunkSet, list[list[RuleMatch]]]:
    """Route, generate, and extract per window; stitch with the chunk buffer.

    Returns the chunk set and one match list per window that reached
    extraction, in window order. Every label must resolve to an expert
    (aliases allowed). A window whose routing, generation, or extraction
    fails contributes no chunks; one whose extraction fails still adds its
    matches. The document fails only when every window fails.
    """
    experts = {GranularityLabel(int(k)): v for k, v in experts.items()}
    missing = [lab.value for lab in GranularityLabel if lab not in experts]
    if missing:
        raise ValueError(f"no expert configured for labels {missing}")

    windows = sliding_windows(doc, max_tokens=max_window_tokens)
    reports: list[list[RuleMatch]] = []

    def per_window(region: str, offset: int) -> list[tuple[int, int]]:
        label = route(region, router)
        rule_list = generate_rules(region, experts[label], placeholder=placeholder)
        try:
            spans, matches = _extract_spans(region, rule_list, base_offset=offset)
        except ExtractionError as exc:
            reports.append(exc.report)
            raise
        reports.append(matches)
        return spans

    spans, _ = windowed_chunk(doc, windows, per_window)
    return ChunkSet.from_spans(doc, spans, method="moc"), reports
