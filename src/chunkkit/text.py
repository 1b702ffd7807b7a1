"""Document, chunk, and sentence primitives plus line-oriented corpus IO.

All offsets are Python string indices (code points) into ``Document.text``,
so ``doc.text[chunk.start:chunk.end] == chunk.text`` holds exactly for any
valid chunk, including CJK and mixed-script text. Types are immutable after
construction and safe to share across threads.

Corpus files are JSON lines, one document per line: ``{id, text, meta?}``.
Chunk-set files are JSON lines too: ``{doc_id, method, chunks: [{index,
start, end}]}`` — chunk text is never duplicated on disk, it is re-sliced
from the source document on load.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import CorpusFormatError


@dataclass(frozen=True)
class Document:
    """A raw long-form text with a corpus-unique id."""

    id: str
    text: str
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("document id must be a non-empty string")
        if not isinstance(self.text, str):
            raise TypeError(f"document {self.id!r}: text must be a string")
        for name in ("id", "text"):
            try:  # a lone surrogate is valid JSON, but no writer can encode it
                getattr(self, name).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(f"document {self.id!r}: {name} holds a lone "
                                 f"surrogate at index {exc.start}") from None
        if not isinstance(self.meta, Mapping):
            raise TypeError(f"document {self.id!r}: meta must be an object")
        if not self.text.strip():
            raise ValueError(f"document {self.id!r}: text is empty")


@dataclass(frozen=True)
class Chunk:
    """One contiguous span of a document; its document is the one of the
    :class:`ChunkSet` that holds it, and ``index`` its position there."""

    index: int
    start: int
    end: int
    text: str

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("chunk index must be >= 0")
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid chunk span [{self.start}, {self.end})")
        if len(self.text) != self.end - self.start:
            raise ValueError(
                f"chunk text length {len(self.text)} does not match span "
                f"[{self.start}, {self.end})"
            )

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ChunkSet:
    """An ordered segmentation of one document.

    Starts are strictly increasing. Chunks are normally disjoint; chunkers
    that emit overlapping spans (boundary-aware with overlap > 0) relax the
    disjointness but keep starts strictly increasing.
    """

    doc_id: str
    chunks: tuple[Chunk, ...]
    method: str

    def __post_init__(self):
        object.__setattr__(self, "chunks", tuple(self.chunks))
        prev_start = -1
        for position, chunk in enumerate(self.chunks):
            if chunk.index != position:
                raise ValueError(
                    f"chunk index {chunk.index} at position {position}: "
                    "indexes must be consecutive from 0"
                )
            if chunk.start <= prev_start:
                raise ValueError("chunk starts must be strictly increasing")
            prev_start = chunk.start

    @classmethod
    def from_spans(
        cls, doc: Document, spans: Iterable[tuple[int, int]], method: str
    ) -> "ChunkSet":
        """Build a chunk set by slicing ``doc`` at the given (start, end) spans."""
        chunks = []
        for i, (start, end) in enumerate(spans):
            if end > len(doc.text):
                raise ValueError(f"span [{start}, {end}) exceeds document length")
            chunks.append(Chunk(index=i, start=start, end=end,
                                text=doc.text[start:end]))
        return cls(doc_id=doc.id, chunks=tuple(chunks), method=method)

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self.chunks)

    def texts(self) -> list[str]:
        return [c.text for c in self.chunks]

    def mean_length(self) -> float:
        if not self.chunks:
            raise ValueError("empty chunk set has no mean length")
        return sum(len(c) for c in self.chunks) / len(self.chunks)

    def validate_against(self, doc: Document) -> None:
        """Check every chunk re-slices exactly from ``doc``."""
        if doc.id != self.doc_id:
            raise ValueError(f"document {doc.id!r} does not match set {self.doc_id!r}")
        for chunk in self.chunks:
            if chunk.end > len(doc.text):
                raise ValueError(
                    f"chunk {chunk.index} span [{chunk.start}, {chunk.end}) "
                    f"exceeds document length {len(doc.text)}"
                )
            if doc.text[chunk.start:chunk.end] != chunk.text:
                raise ValueError(
                    f"chunk {chunk.index} text does not match document slice"
                )


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

# A terminal ends a sentence; closers (quotes, brackets) directly after it
# stay attached to that sentence.
_TERMINALS = frozenset(".!?;。！？；")
_CLOSERS = frozenset("\"'”’』」》〉〕】)]")
# A terminal and its closers, or a newline run. The pattern opens on one
# character class, so ``re`` skips in C to each character that can start a
# break; the terminal, if any, is the match's first character.
_BREAK = re.compile("[{0}\n\r](?:(?<=[\n\r])[\n\r]*|[{1}]*)".format(
    *(re.escape("".join(sorted(chars))) for chars in (_TERMINALS, _CLOSERS))))


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence-like span; ``terminal`` is None at EOF / newline splits."""

    start: int
    end: int
    terminal: str | None = None

    def __len__(self) -> int:
        return self.end - self.start


def split_sentences(doc: Document | str) -> list[SentenceSpan]:
    """Split a document into sentence spans that tile its text.

    Splits occur only after a terminal (plus trailing closers) or at newline
    runs, with the run attached to the span it ends; a text with neither
    yields a single span. Deterministic, and idempotent on its own output
    boundaries.
    """
    text = doc.text if isinstance(doc, Document) else doc
    spans: list[SentenceSpan] = []
    start = 0
    for match in _BREAK.finditer(text):
        first = text[match.start()]
        terminal = first if first in _TERMINALS else None
        if terminal is None and match.start() == start:
            continue  # a newline run at span start accumulates into the next span
        spans.append(SentenceSpan(start, match.end(), terminal))
        start = match.end()
    if start < len(text):
        spans.append(SentenceSpan(start, len(text), None))
    return spans


# ---------------------------------------------------------------------------
# Corpus and chunk-set IO
# ---------------------------------------------------------------------------

# What ``surrogateescape`` decodes each byte that is not UTF-8 to.
_UNDECODED = re.compile("[\udc80-\udcff]")


def read_jsonl(path: str | Path) -> Iterator[tuple[str, object]]:
    """``(where, record)`` for each non-blank line of a JSON-lines file, where
    ``where`` reads ``<path>: line N``; invalid JSON, or a line that is not
    UTF-8, is a CorpusFormatError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}: line {line_no}"
            bad = None if line.isascii() else _UNDECODED.search(line)
            if bad:
                raise CorpusFormatError(
                    f"{where}: not UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x} "
                    f"at column {bad.start() + 1}")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{where}: invalid JSON: {exc}") from exc
            yield where, record


def load_corpus(path: str | Path) -> Iterator[Document]:
    """Stream documents from a JSONL corpus file.

    Lazy: one record is held in memory at a time (plus the set of seen ids
    for duplicate detection). Raises :class:`CorpusFormatError` naming the
    offending line on malformed records or duplicate ids.
    """
    seen: set[str] = set()
    for where, record in read_jsonl(Path(path)):
        if not isinstance(record, dict) or "id" not in record \
                or "text" not in record:
            raise CorpusFormatError(f"{where}: record needs 'id' and 'text'")
        try:
            doc = Document(
                id=record["id"],
                text=record["text"],
                # a missing or null meta is empty; Document rejects a non-object
                meta={} if record.get("meta") is None else record["meta"],
            )
        except (ValueError, TypeError) as exc:
            raise CorpusFormatError(f"{where}: {exc}") from exc
        if doc.id in seen:
            raise CorpusFormatError(f"{where}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        yield doc


def write_jsonl(records: Iterable[dict], path: str | Path) -> int:
    """Write records as JSON lines (keys sorted). Returns how many."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
            count += 1
    return count


def save_corpus(docs: Iterable[Document], path: str | Path) -> int:
    """Write documents as JSONL. Returns the number of records written."""
    return write_jsonl((
        {"id": doc.id, "text": doc.text,
         **({"meta": dict(doc.meta)} if doc.meta else {})}
        for doc in docs
    ), path)


def save_chunksets(chunksets: Iterable[ChunkSet], path: str | Path) -> int:
    """Write chunk sets as JSONL records of offsets (no chunk text)."""
    return write_jsonl((
        {"doc_id": cs.doc_id, "method": cs.method,
         "chunks": [{"index": c.index, "start": c.start, "end": c.end}
                    for c in cs.chunks]}
        for cs in chunksets
    ), path)


def load_chunksets(
    path: str | Path, documents: Mapping[str, Document]
) -> list[ChunkSet]:
    """Load chunk sets, re-slicing chunk text from the source documents,
    which ``documents`` maps by id.

    Raises :class:`CorpusFormatError` naming the offending line on malformed
    records, unknown document ids or a document id seen before.
    """
    path = Path(path)
    out: list[ChunkSet] = []
    seen: set[str] = set()
    for where, record in read_jsonl(path):
        try:
            doc_id = record["doc_id"]
            method = record["method"]
            chunk_records = record["chunks"]
        except (KeyError, TypeError) as exc:
            raise CorpusFormatError(
                f"{where}: record needs 'doc_id', 'method' and 'chunks'"
            ) from exc
        if not (isinstance(doc_id, str) and isinstance(method, str)):
            raise CorpusFormatError(f"{where}: 'doc_id' and 'method' must be strings")
        doc = documents.get(doc_id)
        if doc is None:
            raise CorpusFormatError(f"{where}: unknown document id {doc_id!r}")
        try:
            spans = [(c["start"], c["end"]) for c in chunk_records]
            if not all(type(x) is int for span in spans for x in span):
                raise ValueError("chunk offsets must be integers")
            chunkset = ChunkSet.from_spans(doc, spans, method)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{where}: {exc}") from exc
        if doc.id in seen:
            raise CorpusFormatError(f"{where}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        out.append(chunkset)
    return out
