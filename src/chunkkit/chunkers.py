"""Baseline chunking strategies: fixed-length, boundary-aware, semantic.

All chunkers emit valid chunk sets whose spans re-slice exactly from the
source document. Oversize single sentences are emitted whole and flagged
via a warning, never split.

The boundary-aware and semantic chunkers each run in two steps: a
per-document step that depends only on the document (its sentence spans,
and for semantic chunking the adjacent-sentence similarities from one
``embed_many`` call) and a cheap step that cuts those at the size knob.
Calibration runs the first step once per document and bisects over the
second. Its result keeps each document's first step, and
:meth:`CalibrationResult.cut` cuts it at the chosen knob with the chunkers'
own cut, so a calibrated run outputs calibration's own chunking: each
sentence is split and embedded once per command.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .scoring import Embedder, adjacent_cosines
from .text import ChunkSet, Document, SentenceSpan, split_sentences

logger = logging.getLogger(__name__)

CHUNKER_METHODS = ("fixed", "boundary", "semantic")


def chunk_fixed(doc: Document, length: int) -> ChunkSet:
    """Segments of exactly ``length`` characters (last may be shorter)."""
    return _cut(doc, "fixed", None, length)


def chunk_boundary_aware(doc: Document, target: int, overlap: int = 0) -> ChunkSet:
    """Greedy whole-sentence packing up to ``target`` characters.

    Chunks are concatenations of consecutive sentence spans; a chunk never
    splits a sentence. A single sentence longer than ``target`` is emitted
    alone (flagged with a warning). With ``overlap`` > 0 each chunk after
    the first re-includes trailing whole sentences of its predecessor worth
    up to ``overlap`` characters, so spans may overlap while starts stay
    strictly increasing.
    """
    return _cut(doc, "boundary", split_sentences(doc), target, overlap)


def _pack_sentences(
    sentences: Sequence[SentenceSpan], target: int, overlap: int = 0
) -> tuple[list[tuple[int, int]], list[int]]:
    """The packing of :func:`chunk_boundary_aware` over a document's
    sentence spans: the chunk spans, and the indexes of the oversize
    single-sentence chunks among them."""
    spans: list[tuple[int, int]] = []
    oversize: list[int] = []

    start_idx = 0  # index of the first sentence of the current chunk
    while start_idx < len(sentences):
        chunk_start = sentences[start_idx].start
        end_idx = start_idx
        # always take one sentence, then fill while the budget allows
        while (
            end_idx + 1 < len(sentences)
            and sentences[end_idx + 1].end - chunk_start <= target
        ):
            end_idx += 1
        chunk_end = sentences[end_idx].end
        if end_idx == start_idx and chunk_end - chunk_start > target:
            oversize.append(len(spans))
        spans.append((chunk_start, chunk_end))

        next_idx = end_idx + 1
        if next_idx >= len(sentences):
            break
        if overlap > 0:
            # back up over whole trailing sentences, staying past the
            # previous chunk's first sentence so starts keep increasing
            backed = next_idx
            while (
                backed - 1 > start_idx
                and sentences[next_idx].start - sentences[backed - 1].start <= overlap
            ):
                backed -= 1
            next_idx = backed
        start_idx = next_idx
    return spans, oversize


def chunk_semantic(doc: Document, embedder: Embedder, threshold: float) -> ChunkSet:
    """Split between consecutive sentences whose embedding similarity drops
    below ``threshold``; a chunk is a maximal run of similar sentences.

    Embeds the document's sentences once, in one ``embed_many`` call; a
    one-sentence document is not embedded.
    """
    # checked here, not in _cut: a bad threshold must cost no embedding
    if not (-1.0 <= threshold <= 1.0):
        raise ValueError("threshold must be in [-1, 1]")
    return _cut(doc, "semantic", _similarity_profile(doc, embedder), threshold)


# A document's sentence spans and the cosine similarity of each pair of
# adjacent sentences (one fewer than the sentences).
_Profile = tuple[list[SentenceSpan], list[float]]


def _similarity_profile(doc: Document, embedder: Embedder) -> _Profile:
    sentences = split_sentences(doc)
    if len(sentences) == 1:
        return sentences, []
    vectors = embedder.embed_many([doc.text[s.start:s.end] for s in sentences])
    return sentences, adjacent_cosines(vectors)


def _split_profile(profile: _Profile, threshold: float) -> list[tuple[int, int]]:
    """The chunk spans of a profile: a cut wherever similarity < threshold."""
    sentences, similarities = profile
    spans: list[tuple[int, int]] = []
    run_start = sentences[0].start
    for i, similarity in enumerate(similarities):
        if similarity < threshold:
            spans.append((run_start, sentences[i].end))
            run_start = sentences[i + 1].start
    spans.append((run_start, sentences[-1].end))
    return spans


def _cut(doc: Document, method: str, step, knob, overlap: int = 0) -> ChunkSet:
    """The second step of every chunker: ``doc``'s first ``step`` (None for
    fixed-length, the sentence spans for boundary-aware, the :data:`_Profile`
    for semantic chunking) cut at the size ``knob`` (a length in characters,
    or the similarity threshold for semantic chunking)."""
    if method == "fixed":
        if knob < 1:
            raise ValueError("length must be >= 1")
        n = len(doc.text)
        spans = [(i, min(i + knob, n)) for i in range(0, n, knob)]
    elif method == "boundary":
        if knob < 1:
            raise ValueError("target must be >= 1")
        if not (0 <= overlap < knob):
            raise ValueError("overlap must satisfy 0 <= overlap < target")
        spans, oversize = _pack_sentences(step, knob, overlap)
        if oversize:
            logger.warning(
                "doc %s: %d oversize single-sentence chunk(s) emitted whole: %s",
                doc.id, len(oversize), oversize,
            )
    else:
        spans = _split_profile(step, knob)
    return ChunkSet.from_spans(doc, spans, method=method)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of searching a chunker knob for a target mean chunk length.

    ``knob`` is the value found: a length in characters (an int) for
    fixed-length and boundary-aware chunking, the similarity threshold for
    semantic chunking. ``steps`` holds each document's first step, in
    corpus order, for :meth:`cut`.
    """

    method: str
    knob: int | float
    achieved_avg: float
    ok: bool
    steps: tuple = field(repr=False, compare=False)

    def cut(self, doc: Document, step, overlap: int = 0) -> ChunkSet:
        """``doc`` chunked from its first ``step`` at the calibrated knob:
        what the method's chunker outputs at that knob, without running the
        first step again. ``overlap`` applies to boundary-aware chunking,
        which calibration searched without it."""
        return _cut(doc, self.method, step, self.knob, overlap)


def _mean_length(spans: Iterable[tuple[int, int]]) -> float:
    lengths = [end - start for start, end in spans]
    if not lengths:
        raise ValueError("no chunks produced")
    return sum(lengths) / len(lengths)


def calibrate_avg_len(
    method: str,
    docs: Sequence[Document],
    target_avg: float = 178,
    tolerance: float = 5,
    embedder: Embedder | None = None,
) -> CalibrationResult:
    """Search the method's size knob until the corpus mean chunk length is
    within ``tolerance`` of ``target_avg``, or the knob space is exhausted.

    Fixed-length has the closed form L = target. The boundary-aware and
    semantic searches bisect; each splits every document into sentences
    once (and the semantic one embeds them once) before the first step, so
    a step only re-cuts the cached spans. The result keeps those spans (and
    similarities) as its ``steps``. Unreachable targets yield a best-effort
    result with ``ok`` False rather than an error; a target that is not
    positive is a ValueError.
    """
    if not target_avg > 0:
        raise ValueError(f"target_avg must be > 0, got {target_avg}")
    if not docs:
        raise ValueError("calibration needs a non-empty corpus")
    if method not in CHUNKER_METHODS:
        raise ValueError(f"unknown method {method!r}")

    def result(knob: int | float, achieved: float, steps) -> CalibrationResult:
        ok = abs(achieved - target_avg) <= tolerance
        if not ok:
            logger.warning(
                "calibration best-effort: method=%s achieved=%.1f target=%.1f",
                method, achieved, target_avg,
            )
        return CalibrationResult(method, knob, achieved, ok, tuple(steps))

    if method == "fixed":
        length = max(1, round(target_avg))
        achieved = _mean_length(
            (c.start, c.end) for d in docs for c in chunk_fixed(d, length).chunks
        )
        return result(length, achieved, [None] * len(docs))

    if method == "boundary":
        sentences = [split_sentences(d) for d in docs]
        lo, hi = 1, max(len(d.text) for d in docs)
        best = None  # (|gap|, knob, achieved)
        while lo <= hi:
            mid = (lo + hi) // 2
            achieved = _mean_length(
                span for s in sentences for span in _pack_sentences(s, mid)[0]
            )
            gap = achieved - target_avg
            if best is None or abs(gap) < best[0]:
                best = (abs(gap), mid, achieved)
            if abs(gap) <= tolerance:
                break
            if gap < 0:
                lo = mid + 1
            else:
                hi = mid - 1
        _, knob, achieved = best
        return result(knob, achieved, sentences)

    # semantic: mean length decreases as the threshold rises (more splits)
    if embedder is None:
        raise ValueError("semantic calibration needs an embedder")
    profiles = [_similarity_profile(d, embedder) for d in docs]
    lo, hi = -0.999, 0.999
    best = None
    for _ in range(40):
        mid = (lo + hi) / 2
        achieved = _mean_length(
            span for p in profiles for span in _split_profile(p, mid)
        )
        gap = achieved - target_avg
        if best is None or abs(gap) < best[0]:
            best = (abs(gap), mid, achieved)
        if abs(gap) <= tolerance:
            break
        if gap > 0:
            lo = mid  # chunks too long: split more
        else:
            hi = mid
    _, knob, achieved = best
    return result(knob, achieved, profiles)
