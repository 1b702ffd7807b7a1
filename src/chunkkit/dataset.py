"""Training-data distillation: windows, cleaning, rule synthesis.

A long document is cut into windows of at most the token budget
(preferring paragraph breaks, then sentence ends, then hard cuts), a
generator proposes chunk texts per window, hallucinated chunks are flagged
by minimum edit distance against the source, and surviving chunks become
anchor rules. A chunking also yields training samples: one router text per
document and one expert prompt/target pair per window. Nothing here writes
a file; the CLI decides where samples go.

A window budget counts characters as a stand-in for tokens, since the
backend tokenizer is remote. The windows keep to it, but the region a
window shows does not always: it starts at the chunk held back from the
window before, when there is one, so it can pass the budget by that chunk
and the text after it (see :func:`windowed_chunk`).
"""

from __future__ import annotations

import bisect
import logging
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import prompts
from .errors import ExtractionError, RuleParseError, ScoringError
from .fuzzy import best_substring_match
from .rules import DEFAULT_PLACEHOLDER, ChunkRule, RuleList, render_rule_targets
from .scoring import Generator
from .text import Chunk, ChunkSet, Document, split_sentences

logger = logging.getLogger(__name__)

# A blank line, in each newline that ``text._BREAK`` reads (``\r\n``, ``\r``,
# ``\n``); the group takes the ``\n`` of a ``\r\n``, one line break, not two.
_PARAGRAPH_BREAK = re.compile(r"[\n\r](?:(?<=\r)\n|(?<!\r)|(?!\n))[ \t]*[\n\r]+")


def sliding_windows(
    doc: Document,
    max_tokens: int = 1024,
) -> list[tuple[int, int]]:
    r"""Tile the document into windows ``(start, end)`` of at most
    ``max_tokens`` characters, each non-empty and starting where the one
    before ends.

    Cut points are chosen at the last paragraph break within budget, else
    the last sentence end, else a hard cut exactly at the budget. No cut
    falls between the ``\r`` and ``\n`` of a ``\r\n`` unless the window
    would be empty: a hard cut there moves one character back. A budget
    of the whole text or more is one window. The text is split into
    sentences only when a window has no paragraph break within budget, and
    at most once.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    text = doc.text
    n = len(text)
    budget = min(max_tokens, n)

    sentence_ends = None  # split once, when a window first needs a sentence end

    windows: list[tuple[int, int]] = []
    pos = 0
    while pos < n:
        limit = pos + budget
        if limit >= n:
            windows.append((pos, n))
            break
        # a break found in [pos, end) ends past pos and by limit; where the
        # limit splits a \r\n, end stops short of it, so no cut falls inside
        end = limit - 1 if text[limit - 1] == "\r" and text[limit] == "\n" else limit
        cut = None
        for match in _PARAGRAPH_BREAK.finditer(text, pos, end):
            cut = match.end()
        if cut is None:
            if sentence_ends is None:
                sentence_ends = [s.end for s in split_sentences(doc) if s.terminal is not None]
            idx = bisect.bisect_right(sentence_ends, limit) - 1
            if idx >= 0 and sentence_ends[idx] > pos:
                cut = sentence_ends[idx]
        if cut is None:
            cut = end if end > pos else limit
        windows.append((pos, cut))
        pos = cut
    return windows


_WINDOW_FAULTS = (RuleParseError, ExtractionError, ScoringError)


def windowed_chunk(
    doc: Document,
    windows: Sequence[tuple[int, int]],
    per_window: Callable[[str, int], list[tuple[int, int]]],
) -> tuple[list[tuple[int, int]], int]:
    """Chunk a document window by window, stitched with the chunk buffer.

    ``windows`` are the ``(start, end)`` pairs of :func:`sliding_windows`.
    ``per_window(region, offset)`` returns the document spans it finds in
    ``region = doc.text[offset:end]`` of a window's ``end``. The first
    region starts at 0. Unless the window is the last or gave a single
    span, its last span is held back and the next region starts where that
    span began, so the next window sees the held text again. A region is
    thus its window plus, when a span was held, the text from that span's
    start to the window's start: it can exceed the windows' budget, and
    nothing cuts it back. A window whose ``per_window`` raises
    a parse, extraction or backend error (a router's scoring fault is a
    backend error) contributes no spans, is logged, and the next region
    starts at its end; the span held back for it is kept, since the window
    before resolved it. When every window fails, so does the document: an
    :class:`ExtractionError`. Any other exception propagates. Returns the
    kept spans and the number of failed windows.
    """
    spans: list[tuple[int, int]] = []
    held: tuple[int, int] | None = None  # the span re-offered to this window
    region_start = 0
    failed = 0
    for wi, (_, window_end) in enumerate(windows):
        try:
            found = per_window(doc.text[region_start:window_end], region_start)
        except _WINDOW_FAULTS as exc:
            logger.warning("doc %s window %d failed: %s", doc.id, wi, exc)
            failed += 1
            if held is not None:
                spans.append(held)
                held = None
            region_start = window_end
            continue
        if wi < len(windows) - 1 and len(found) > 1:
            held = found.pop()
            region_start = held[0]
        else:
            held = None
            region_start = window_end
        spans.extend(found)
    if failed == len(windows):
        raise ExtractionError(f"all {len(windows)} windows failed for doc {doc.id}")
    return spans, failed


# ---------------------------------------------------------------------------
# Hallucination detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CleaningVerdict:
    """Minimum-edit-distance audit of one generated chunk: the closest
    source span ``[start, end)`` and its distance. ``threshold`` is
    ``ceil(flag_ratio * len)`` of the chunk, and the chunk is flagged when
    the distance strictly exceeds it. A verdict's number is its position
    in the list that holds it.
    """

    min_edit_distance: int
    threshold: int
    start: int
    end: int

    @property
    def flagged(self) -> bool:
        return self.min_edit_distance > self.threshold


def detect_hallucination(
    generated_chunk: str,
    doc: Document,
    search_from: int = 0,
    flag_ratio: float = 0.10,
    search_to: int | None = None,
) -> CleaningVerdict:
    """Compare a generated chunk against the closest span of
    ``doc.text[search_from:search_to]``; ``search_to`` None is the end of
    the document.

    ``flag_ratio`` is a share of the chunk's length, in [0, 1]: no edit
    distance exceeds the length, so a larger ratio could flag nothing.
    """
    if not generated_chunk:
        raise ValueError("chunk must be non-empty")
    if not 0 <= flag_ratio <= 1:
        raise ValueError(f"flag_ratio must be >= 0 and <= 1, got {flag_ratio}")
    match = best_substring_match(generated_chunk, doc.text, search_from, search_to)
    threshold = math.ceil(flag_ratio * len(generated_chunk))
    return CleaningVerdict(match.distance, threshold, match.start, match.end)


# ---------------------------------------------------------------------------
# Rule synthesis
# ---------------------------------------------------------------------------

def make_rules(
    chunks: ChunkSet | Sequence[Chunk],
    anchor_len: int = 10,
    placeholder: str = DEFAULT_PLACEHOLDER,
) -> RuleList:
    """Anchor rules from real chunks: first/last ``anchor_len`` characters
    around one placeholder. Chunks of at most 2 * anchor_len characters
    become literal rules (anchors would overlap)."""
    if anchor_len < 1:
        raise ValueError("anchor_len must be >= 1")
    rules = []
    for chunk in chunks:
        text = chunk.text
        if len(text) <= 2 * anchor_len:
            rules.append(ChunkRule(prefix=text, placeholder=None))
        else:
            rules.append(ChunkRule(
                prefix=text[:anchor_len],
                placeholder=placeholder,
                suffix=text[-anchor_len:],
            ))
    return RuleList(rules=tuple(rules))


# ---------------------------------------------------------------------------
# Training samples
# ---------------------------------------------------------------------------

def router_text(
    doc: Document,
    chunks: ChunkSet,
    target_chars: int = 1024,
) -> str | None:
    """A router training text: the whole-chunk prefix of a non-empty
    chunking closest to the target length (never splitting a chunk; ties go
    to fewer chunks). None, with a notice, when the smallest chunk exceeds
    twice the target."""
    if target_chars < 1:
        raise ValueError("target_chars must be >= 1")
    if min(len(c) for c in chunks) > 2 * target_chars:
        logger.warning(
            "doc %s: smallest chunk exceeds 2x target (%d), skipped",
            doc.id, 2 * target_chars,
        )
        return None
    first = chunks.chunks[0].start
    end = min((c.end for c in chunks), key=lambda end: abs(end - first - target_chars))
    return doc.text[first:end]


def expert_samples(
    doc: Document,
    chunks: ChunkSet,
    anchor_len: int = 10,
    placeholder: str = DEFAULT_PLACEHOLDER,
    max_window_tokens: int = 1024,
) -> list[tuple[str, str]]:
    """Expert training pairs ``(prompt, target)``: per window ``(start,
    end)`` of :func:`sliding_windows`, the rule-chunking prompt over the
    window text and the rule list of the chunks falling inside it."""
    samples = []
    for start, end in sliding_windows(doc, max_tokens=max_window_tokens):
        inside = [c for c in chunks if c.start >= start and c.end <= end]
        if inside:
            samples.append((
                prompts.render(prompts.RULE_CHUNK_PROMPT,
                               text=doc.text[start:end],
                               placeholder=placeholder),
                render_rule_targets(make_rules(inside, anchor_len, placeholder)),
            ))
    return samples


# ---------------------------------------------------------------------------
# Distillation driver
# ---------------------------------------------------------------------------

_CHUNK_TAG = re.compile(r"<chunk>(.*?)</chunk>", re.DOTALL)


def parse_tagged_chunks(generated: str) -> list[str]:
    """Chunk texts from a <chunk>...</chunk> tagged generation."""
    found = [m.group(1) for m in _CHUNK_TAG.finditer(generated)]
    found = [t for t in found if t.strip()]
    if not found:
        raise RuleParseError("generation contains no <chunk> elements")
    return found


@dataclass
class DistillResult:
    """Per-document outcome of the distillation pipeline."""

    chunkset: ChunkSet
    verdicts: list[CleaningVerdict] = field(default_factory=list)
    window_count: int = 0
    failed_windows: int = 0

    @property
    def flagged(self) -> int:
        return sum(1 for v in self.verdicts if v.flagged)


def distill_document(
    doc: Document,
    generator: Generator,
    max_window_tokens: int = 1024,
    flag_ratio: float = 0.10,
) -> DistillResult:
    """Generate raw chunk texts per window, anchor them to source spans in
    order, flag hallucinations, and stitch windows via the chunk buffer.

    Each generated chunk is matched only inside the region its window
    showed the generator, from the end of the window's last kept span: text
    the generator never saw cannot vouch for a chunk, and each search costs
    the region's length, not the rest of the document's."""
    windows = sliding_windows(doc, max_tokens=max_window_tokens)
    verdicts: list[CleaningVerdict] = []

    def per_window(region: str, offset: int) -> list[tuple[int, int]]:
        prompt = prompts.render(prompts.DISTILL_PROMPT, text=region)
        generation = generator.generate(prompt)
        if generation.truncated:
            raise RuleParseError("generation cut off at max_tokens")
        spans = []
        cursor = offset
        region_end = offset + len(region)
        for text in parse_tagged_chunks(generation.text):
            verdict = detect_hallucination(
                text.strip(), doc, search_from=min(cursor, region_end - 1),
                flag_ratio=flag_ratio, search_to=region_end,
            )
            verdicts.append(verdict)
            if not verdict.flagged and verdict.start < verdict.end:
                spans.append((verdict.start, verdict.end))
                cursor = verdict.end
        return spans

    spans, failed = windowed_chunk(doc, windows, per_window)
    return DistillResult(
        chunkset=ChunkSet.from_spans(doc, spans, method="distilled"),
        verdicts=verdicts,
        window_count=len(windows),
        failed_windows=failed,
    )
