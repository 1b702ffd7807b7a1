"""Chunking toolkit for retrieval-augmented generation.

Measures chunking quality directly (perplexity-based boundary clarity and
degree-entropy chunk stickiness), ships rule-based/semantic baseline
chunkers, and runs an LM-guided pipeline that routes text to granularity
experts, asks them for anchor+placeholder regex rules, and extracts chunk
spans with edit-distance recovery.
"""

from .chunkers import (
    CalibrationResult,
    calibrate_avg_len,
    chunk_boundary_aware,
    chunk_fixed,
    chunk_semantic,
)
from .dataset import (
    CleaningVerdict,
    DistillResult,
    detect_hallucination,
    distill_document,
    expert_samples,
    make_rules,
    router_text,
    sliding_windows,
)
from .fuzzy import SpanMatch, best_substring_match, edit_distance, recover_anchor
from .metrics import (
    SemanticGraph,
    boundary_clarity,
    build_graph,
    chunk_stickiness,
    conditional_support,
    dissimilarity,
    evaluate_chunksets,
    pearson,
)
from .moc import RuleMatch, extract_chunks, generate_rules, moc_chunk, route
from .rules import (
    DEFAULT_PLACEHOLDER,
    PLACEHOLDERS,
    ChunkRule,
    GranularityLabel,
    RuleList,
    label_for_mean,
    parse_rule_list,
)
from .scoring import (
    FixtureEmbedder,
    FixtureGenerator,
    FixtureScorer,
    GenerationResult,
    HashEmbedder,
    NGramScorer,
    ScoredText,
    perplexity,
)
from .text import (
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

__version__ = "0.1.0"
