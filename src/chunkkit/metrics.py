"""Chunking-quality metrics.

Boundary clarity BC(q, d) = ppl(q|d) / ppl(q): near 1 the chunks are
independent, near 0 strongly entangled. Edge(q, d) = (ppl(q) - ppl(q|d)) /
ppl(q), clamped below at 0, so Edge == 1 - BC whenever BC <= 1. Chunk
stickiness is the base-2 entropy of the degree distribution of a semantic
graph whose edges keep pairs with Edge above a threshold K: lower means a
cleaner, more independent chunking. Conditional perplexity prepends the
context chunk and scores only the target's tokens.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from statistics import fmean
from typing import Sequence

from .errors import CorpusFormatError, GraphBuildError, UndefinedCorrelationError
from .scoring import (Embedder, Scorer, _unit_scaled, adjacent_cosines, perplexity,
                      score_many)
from .text import Chunk, ChunkSet, Document

logger = logging.getLogger(__name__)

GRAPH_VARIANTS = ("complete", "sequence")


def _text_of(piece: Chunk | str) -> str:
    return piece.text if isinstance(piece, Chunk) else piece


def boundary_clarity(chunks: ChunkSet | Sequence[Chunk | str], scorer: Scorer) -> float:
    """Mean over adjacent chunk pairs of BC(q, d) = ppl(q|d) / ppl(q), the
    later chunk q given the earlier d; > 0, near 1 means each chunk is
    independent of the one before it. ``boundary_clarity([d, q], scorer)``
    is the BC of one pair.

    The 2(n - 1) requests, q and then q given d per pair, go to the scorer
    as one list through :func:`score_many`.
    """
    texts = [_text_of(c) for c in chunks]
    if len(texts) < 2:
        raise ValueError(f"boundary clarity needs >= 2 chunks, got {len(texts)}")
    if not all(texts):
        raise ValueError("boundary clarity needs non-empty chunks")
    scored = score_many(scorer, [request for d, q in zip(texts, texts[1:])
                                 for request in ((q, None), (q, d))])
    return fmean(
        perplexity(q_given_d) / perplexity(q) for q, q_given_d in zip(scored, scored)
    )


def _edge_from_ppl(ppl_q: float, ppl_q_given_d: float) -> float:
    """Normalized perplexity reduction of q given d, clamped below at 0."""
    return max(0.0, (ppl_q - ppl_q_given_d) / ppl_q)


@dataclass(frozen=True)
class SemanticGraph:
    """Thresholded chunk-affinity graph.

    Nodes are chunks in document order. Edges are stored as (i, j, weight)
    with i < j; the degree of a node is the number of incident edges. The
    "complete" variant considers every unordered pair and keeps the larger
    of the two conditional directions; the "sequence" variant scores only
    the later chunk against the earlier one for pairs with j - i > delta.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    variant: str = "complete"
    delta: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise GraphBuildError(f"graph needs >= 2 nodes, got {self.n}")
        if self.variant not in GRAPH_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        seen = set()
        for i, j, w in self.edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range or unordered")
            if self.variant == "sequence" and j - i <= self.delta:
                raise ValueError(
                    f"edge ({i}, {j}) violates sequence constraint delta={self.delta}"
                )
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for i, j, _ in self.edges:
            degs[i] += 1
            degs[j] += 1
        return degs


def build_graph(
    chunks: ChunkSet | Sequence[Chunk | str],
    scorer: Scorer,
    k: float = 0.8,
    variant: str = "complete",
    delta: int = 0,
) -> SemanticGraph:
    """Score pairwise edges and keep those strictly above the threshold ``k``.

    The plain perplexities go to the scorer as one request list and the
    conditional ones as a second, each through :func:`score_many`.
    """
    texts = [_text_of(c) for c in chunks]
    n = len(texts)
    if n < 2:
        raise GraphBuildError(f"graph needs >= 2 chunks, got {n}")
    if not (0.0 < k < 1.0):
        raise ValueError(f"threshold K must be in (0, 1), got {k}")
    if variant not in GRAPH_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if delta < 0:
        raise ValueError("delta must be >= 0")

    ppl_plain = list(map(perplexity, score_many(scorer, [(t, None) for t in texts])))
    if variant == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # q conditioned on d, both directions
        directed = [qd for i, j in pairs for qd in ((i, j), (j, i))]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1 + delta, n)]
        # reading order: the later chunk is scored given the earlier one
        directed = [(j, i) for i, j in pairs]
    scored = score_many(scorer, [(texts[q], texts[d]) for q, d in directed])
    # the edge weight of chunk q given chunk d, per directed request
    weights = list(map(_edge_from_ppl, [ppl_plain[q] for q, _ in directed],
                       map(perplexity, scored)))
    if variant == "complete":  # keep the stronger pull
        weights = list(map(max, weights[::2], weights[1::2]))
    edges = tuple(
        (i, j, w) for (i, j), w in zip(pairs, weights) if w > k
    )
    return SemanticGraph(n=n, edges=edges, variant=variant, delta=delta)


def chunk_stickiness(graph: SemanticGraph) -> float:
    """Base-2 entropy of the degree distribution h_i / 2m.

    Isolated nodes contribute nothing (x log x -> 0); an edgeless graph has
    stickiness 0 by convention so threshold sweeps stay total.
    """
    m = graph.edge_count
    if m == 0:
        return 0.0
    two_m = 2.0 * m
    total = 0.0
    for h in graph.degrees():
        if h > 0:
            p = h / two_m
            total -= p * math.log2(p)
    return total


def dissimilarity(chunks: ChunkSet | Sequence[Chunk | str], embedder: Embedder) -> float:
    """Mean over adjacent chunk pairs of 1 - the cosine of their embeddings
    (:func:`adjacent_cosines`), in [0, 1]."""
    texts = [_text_of(c) for c in chunks]
    if len(texts) < 2:
        raise ValueError("dissimilarity needs >= 2 chunks")
    vectors = embedder.embed_many(texts)
    gaps = [1.0 - c for c in adjacent_cosines(vectors)]
    return min(1.0, max(0.0, fmean(gaps)))


def conditional_support(
    answer: str,
    retrieved: Sequence[Chunk | str],
    scorer: Scorer,
) -> float:
    """Mean negative log-probability of the answer given the retrieved
    chunks, joined by newlines.

    Lower means the retrieved context supports the answer more strongly.
    """
    if not answer:
        raise ValueError("answer must be non-empty")
    context = "\n".join(_text_of(c) for c in retrieved)
    (scored,) = score_many(scorer, [(answer, context if context else None)])
    return -fmean(scored.logprobs)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation in [-1, 1] of two sequences of finite
    numbers; a NaN or an infinity is a ValueError."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("correlation needs at least two points")
    # scaled by a power of two, exactly: r does not depend on scale, but no
    # sum of squares can then overflow to infinity or underflow to 0
    x, y = _unit_scaled(_finite_floats(x)), _unit_scaled(_finite_floats(y))
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    xd = [a - mx for a in x]
    yd = [b - my for b in y]
    sx = math.fsum(map(operator.mul, xd, xd))
    sy = math.fsum(map(operator.mul, yd, yd))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError(
            "correlation undefined for a zero-variance sequence"
        )
    r = math.fsum(map(operator.mul, xd, yd)) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


def _finite_floats(values: Sequence[float]) -> list[float]:
    """``values`` as floats; a value that is not finite is a ValueError."""
    values = [float(v) for v in values]
    if not all(map(math.isfinite, values)):
        raise ValueError("correlation needs finite values")
    return values


# ---------------------------------------------------------------------------
# All requested metrics of one chunk set
# ---------------------------------------------------------------------------

#: The backend role that every metric needs, by metric.
METRIC_BACKENDS = {"bc": "scorer", "cs_c": "scorer", "cs_i": "scorer",
                   "ds": "embedder", "cp": "scorer"}


def evaluate_chunksets(
    doc: Document,
    cs: ChunkSet,
    metrics: Sequence[str] = ("bc", "cs_c", "cs_i"),
    scorer: Scorer | None = None,
    embedder: Embedder | None = None,
    k: float = 0.8,
    delta: int = 0,
) -> dict[str, float | None]:
    """The requested metrics of one chunk set of ``doc``, by name; a metric
    that does not apply to it is None.

    Each metric is one call: BC :func:`boundary_clarity`, ``cs_c`` and
    ``cs_i`` :func:`chunk_stickiness` of a complete and a sequence
    :func:`build_graph`, DS :func:`dissimilarity`; each is None for a chunk
    set of fewer than two chunks. CP reads the reference answer from
    ``doc.meta["answer"]`` and scores it against the document's own chunks,
    and is None without one; an answer that is not a string is a
    CorpusFormatError.
    """
    unknown = [m for m in metrics if m not in METRIC_BACKENDS]
    if unknown:
        raise ValueError(f"unknown metrics: {unknown}; known: {tuple(METRIC_BACKENDS)}")
    backends = {"scorer": scorer, "embedder": embedder}
    missing = {m: METRIC_BACKENDS[m] for m in metrics
               if backends[METRIC_BACKENDS[m]] is None}
    if missing:
        raise ValueError(f"metrics need backends that were not given: {missing}")

    # the metrics of two or more chunks, one call each, in this order
    pairwise = {
        "bc": lambda: boundary_clarity(cs, scorer),
        "cs_c": lambda: chunk_stickiness(
            build_graph(cs, scorer, k=k, variant="complete")),
        "cs_i": lambda: chunk_stickiness(
            build_graph(cs, scorer, k=k, variant="sequence", delta=delta)),
        "ds": lambda: dissimilarity(cs, embedder),
    }
    values: dict[str, float | None] = {
        name: metric() if len(cs) >= 2 else None
        for name, metric in pairwise.items() if name in metrics
    }
    if "cp" in metrics:
        answer = doc.meta.get("answer")
        if answer is not None and not isinstance(answer, str):
            raise CorpusFormatError(f"meta 'answer' must be a string, "
                                    f"got {type(answer).__name__}")
        if answer:
            values["cp"] = conditional_support(answer, cs.chunks, scorer)
        else:
            values["cp"] = None
            logger.warning("doc %s has no 'answer' meta; cp skipped", doc.id)
    return values
