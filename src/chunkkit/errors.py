"""Exception types shared across the toolkit."""

from __future__ import annotations


class ChunkKitError(Exception):
    """Base class for all toolkit errors."""


class CorpusFormatError(ChunkKitError):
    """A corpus or chunk-set file violates the line-record schema."""


class ScoringError(ChunkKitError):
    """Base class for scoring/generation/embedding backend failures."""


class TransportError(ScoringError):
    """Backend unreachable after the configured number of attempts; the
    message ends with ``(attempts=N)``, the attempts made."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(f"{message} (attempts={attempts})")


class ProtocolError(ScoringError):
    """Backend returned a malformed response (e.g. token/logprob mismatch)."""


class FixtureMissingError(ScoringError):
    """A fixture backend has no entry for the requested input (fail-closed)."""


class UndefinedSimilarityError(ChunkKitError):
    """Cosine similarity requested against a zero vector."""


class UndefinedCorrelationError(ChunkKitError):
    """Pearson correlation requested for a zero-variance sequence."""


class GraphBuildError(ChunkKitError):
    """Semantic graph cannot be built (fewer than two chunks)."""


class RuleParseError(ChunkKitError):
    """A generation could not be parsed into rules or chunks, or was cut
    off at max_tokens."""


class AnchorNotFoundError(ChunkKitError):
    """No substring within the edit-distance budget matches the anchor; the
    message states the best distance found and the limit."""


class ExtractionError(ChunkKitError):
    """Extraction failed: a window had too many unresolvable rules, or
    every window of a document failed.

    For a window, ``report`` holds one :class:`~chunkkit.moc.RuleMatch`
    per rule, in rule order, failed ones included; for a document it is
    None."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ChunkKitError):
    """Invalid or incomplete run configuration."""
