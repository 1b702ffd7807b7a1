"""Language-model scoring, generation, and embedding interfaces.

Two deterministic in-process scorers back the offline tests: a table-driven
fixture (exact control over every logprob) and a character n-gram scorer
with add-one smoothing (realistic perplexity gradients). Remote backends
implementing the same protocols live in :mod:`chunkkit.backends`.

Log-probabilities are natural log throughout; any base-2 conversion happens
at the metrics layer only.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections import Counter
from dataclasses import dataclass, field
from statistics import fmean
from typing import Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

from .errors import FixtureMissingError, UndefinedSimilarityError


@dataclass(frozen=True)
class ScoredText:
    """Per-token log-probabilities of a text, excluding any context tokens.

    ``truncated`` is set when the context had to be left-truncated to fit a
    backend limit.

    Logprobs are checked where they enter: this constructor checks every
    value (a finite float, not above 0, one per token), so fixtures and
    library callers go through it; ``HttpScorer`` checks the wire reply
    before it; and :class:`NGramScorer` checks its rows once per ``fit``,
    then builds each result with :meth:`_trusted`, which skips the check.

    Both ways compute the perplexity once, when the result is built, and
    raise ``ValueError`` when it is out of float range (a mean logprob
    below about -709.78); :func:`perplexity` reads the stored value.
    """

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]
    truncated: bool = False
    _perplexity: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "logprobs", tuple(map(float, self.logprobs)))
        if len(self.tokens) != len(self.logprobs):
            raise ValueError(
                f"{len(self.tokens)} tokens vs {len(self.logprobs)} logprobs"
            )
        if not self.tokens:
            raise ValueError("scored text must contain at least one token")
        if any(map((0.0).__lt__, self.logprobs)) \
                or not all(map(math.isfinite, self.logprobs)):
            raise ValueError("logprobs must be finite and <= 0")
        object.__setattr__(self, "_perplexity", _perplexity_of(self.logprobs))

    @classmethod
    def _trusted(cls, tokens: tuple[str, ...],
                 logprobs: tuple[float, ...]) -> "ScoredText":
        """A ScoredText of values checked where they were made, built
        without ``__post_init__``. Only ``NGramScorer.score`` calls it."""
        scored = object.__new__(cls)
        scored.__dict__.update(tokens=tokens, logprobs=logprobs, truncated=False,
                               _perplexity=_perplexity_of(logprobs))
        return scored


def _perplexity_of(logprobs: tuple[float, ...]) -> float:
    """exp(-mean logprob), or ValueError past the float range."""
    try:
        return math.exp(-fmean(logprobs))
    except OverflowError:
        raise ValueError("perplexity is out of float range") from None


def perplexity(scored: ScoredText) -> float:
    """exp(-mean logprob); >= 1 for any valid ScoredText."""
    return scored._perplexity


@dataclass(frozen=True)
class GenerationResult:
    text: str
    finish_reason: str = "stop"

    @property
    def truncated(self) -> bool:
        return self.finish_reason == "length"


class Scorer(Protocol):
    def score(self, text: str, context: str | None = None) -> ScoredText: ...


class Generator(Protocol):
    def generate(self, prompt: str) -> GenerationResult: ...


class Embedder(Protocol):
    def embed(self, text: str) -> tuple[float, ...]: ...

    def embed_many(self, texts: Sequence[str]) -> list[tuple[float, ...]]: ...


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity in [-1, 1]; zero vectors have no defined similarity.

    The dot product is summed with ``math.fsum``, which rounds correctly, so
    the value does not depend on summation order or on the CPU.
    """
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} vs {len(v)}")
    nu, nv = math.hypot(*u), math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        raise UndefinedSimilarityError("similarity with a zero vector is undefined")
    value = math.fsum(map(operator.mul, u, v)) / (nu * nv)
    return max(-1.0, min(1.0, value))


def _ngrams(text: str, n: int) -> Iterator[str]:
    """The n-character substrings of ``text`` in order (none when it is
    shorter than ``n``), built by ``zip`` and ``str.join`` in C."""
    return map("".join, zip(*(text[i:] for i in range(n))))


# ---------------------------------------------------------------------------
# Character n-gram scorer
# ---------------------------------------------------------------------------

# Positions NGramScorer keeps cached, 8 bytes each: 512 KiB. Pair metrics
# rescore the chunks of one document; n chunks of L characters need at most
# n * L * (n + 1) positions, so 18 chunks of 178 characters fit whole.
_CACHE_POSITIONS = 1 << 16


class _CachedText(NamedTuple):
    """What :class:`NGramScorer` keeps of a text it scored."""

    tokens: tuple[str, ...]
    tail: tuple[float, ...]  # the logprobs of positions >= order - 1
    results: dict[str, ScoredText]  # last order - 1 context chars -> result

    @property
    def positions(self) -> int:
        """The positions it holds: the text's own, and each result's."""
        return len(self.tokens) * (1 + len(self.results))


class NGramScorer:
    """Character-level n-gram scorer with add-one smoothing.

    Deterministic: the same training corpus and text always produce the same
    logprobs. P(c | ctx) = (count(ctx, c) + 1) / (count(ctx) + V) where V is
    the alphabet size; at sequence start the longest available shorter
    context is used. Conditional scoring is exactly the suffix of scoring
    the concatenation: score(text, context) == score(context + text)
    restricted to the text positions.

    :meth:`fit` turns the counts into log-prob rows, one per seen context:
    the row of ``ctx`` gives log P(c | ctx) for every char seen after it,
    stored under the n-gram ``ctx + c``, plus one value for every unseen
    char, log(1 / (count(ctx) + V)). A context never seen gets log(1 / V).
    Scoring reads the rows: one dict look-up per character, two when the
    n-gram is unseen.

    Only the last ``order - 1`` context characters reach any row, so a
    result depends on the text and those characters alone, and
    :meth:`score` caches it on them: each text it scored keeps its tokens,
    the logprobs of its positions from ``order - 1`` on (no context reaches
    them), and the :class:`ScoredText` built under each context tail. A
    repeat request returns the cached object in O(order), however long the
    context, and a known text under a new tail looks up ``order - 1``
    n-grams instead of ``len(text)``. A cached text
    costs ``len(text)`` positions, and so does each cached result; one
    position is one 8-byte reference. The cache holds at most
    ``_CACHE_POSITIONS`` positions: a text that gains a result moves to
    the back, and the texts at the front are dropped until it fits. A text
    too long to fit at all is scored uncached. Every :meth:`fit` rebuilds
    the rows and empties the cache, since a larger alphabet changes V.

    :meth:`fit` checks every row value once: each is a float, and none is
    above 0 (the clamp keeps a rounded-up ``log`` at 0). Every value
    :meth:`score` returns is one of them, one per character of a non-empty
    text, so its result skips the per-call check of the public
    :class:`ScoredText` constructor.

    The rows are read-only after :meth:`fit`, so a scorer is safe to share
    across threads: a cached result is immutable, and a lock lets one
    thread at a time score a request the cache misses and store it.
    """

    def __init__(
        self,
        order: int = 2,
        corpus: str | Iterable[str] | None = None,
        alphabet: Iterable[str] | None = None,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        # _counts[k][ctx] -> Counter of next char, for context length k-1
        self._counts: list[dict[str, Counter]] = [dict() for _ in range(order + 1)]
        self._alphabet: set[str] = set(alphabet or ())
        self._lock = threading.Lock()
        self.fit([corpus] if isinstance(corpus, str) else corpus or ())

    def fit(self, texts: Iterable[str]) -> "NGramScorer":
        for text in texts:
            self._alphabet.update(text)
            for k in range(1, self.order + 1):
                table = self._counts[k]
                for gram, count in Counter(_ngrams(text, k)).items():
                    ctx = gram[:-1]
                    bucket = table.get(ctx)
                    if bucket is None:
                        bucket = table[ctx] = Counter()
                    bucket[gram[-1]] += count
        self._build_rows()
        return self

    def _build_rows(self) -> None:
        # A context's length k-1 tells its order, so one dict holds all orders.
        v = len(self._alphabet)
        self._logprob: dict[str, float] = {}  # ctx + char -> log P(char | ctx)
        self._unseen: dict[str, float] = {}  # ctx -> log P(unseen char | ctx)
        self._floor = math.log(1 / v) if v else 0.0
        self._cache: dict[str, _CachedText] = {}
        self._positions = 0  # held by the cache
        for table in self._counts[1:]:
            for ctx, bucket in table.items():
                total = sum(bucket.values())
                self._unseen[ctx] = math.log(1 / (total + v))
                for char, count in bucket.items():
                    self._logprob[ctx + char] = min(
                        math.log((count + 1) / (total + v)), 0.0
                    )
        rows = (*self._logprob.values(), *self._unseen.values(), self._floor)
        # the ScoredText check, once per fit: 0.0 < lp is false for NaN too
        if {*map(type, rows)} - {float} or any(map((0.0).__lt__, rows)):
            raise ValueError("n-gram logprob rows must be floats <= 0")

    def _lookup(self, grams: list[str]) -> tuple[float, ...]:
        """log P(last char | the rest) of each n-gram, from the rows."""
        logprobs = tuple(map(self._logprob.get, grams))
        if None in logprobs:
            unseen, floor = self._unseen.get, self._floor
            logprobs = tuple(
                unseen(gram[:-1], floor) if lp is None else lp
                for gram, lp in zip(grams, logprobs)
            )
        return logprobs

    def score(self, text: str, context: str | None = None) -> ScoredText:
        if not text:
            raise ValueError("cannot score empty text")
        if not self._alphabet:
            raise ValueError("scorer has an empty alphabet; fit it or pass one")
        n = self.order - 1
        context = context or ""
        ctx = context[max(0, len(context) - n):]  # all that any row reads
        cache = self._cache
        entry = cache.get(text)
        if entry is not None:
            scored = entry.results.get(ctx)
            if scored is not None:
                return scored
        with self._lock:
            # out of the cache while it changes, then back in as the newest
            entry = cache.pop(text, None)
            if entry is None:
                # text positions t >= n read the n-gram text[t-n:t+1],
                # whatever the context
                entry = _CachedText(tuple(text),
                                    self._lookup(list(_ngrams(text, self.order))), {})
            else:
                self._positions -= entry.positions
            scored = entry.results.get(ctx)  # set if another thread was first
            if scored is None:
                full = ctx + text[:n]
                # a head position reads its order chars, or the whole prefix
                # when fewer precede it
                head = self._lookup([full[max(0, t - n):t + 1]
                                     for t in range(len(ctx), len(full))])
                scored = entry.results[ctx] = ScoredText._trusted(
                    entry.tokens, head + entry.tail)
            if entry.positions <= _CACHE_POSITIONS:  # else it stays out
                while self._positions + entry.positions > _CACHE_POSITIONS:
                    self._positions -= cache.pop(next(iter(cache))).positions
                cache[text] = entry
                self._positions += entry.positions
            return scored


# ---------------------------------------------------------------------------
# Table-driven fixtures (fail closed on unknown inputs)
# ---------------------------------------------------------------------------

class FixtureScorer:
    """Scorer returning preset logprobs for exact (text, context) pairs."""

    def __init__(self):
        self._table: dict[tuple[str, str | None], ScoredText] = {}

    def add(
        self,
        text: str,
        context: str | None = None,
        *,
        logprobs: Sequence[float] | None = None,
        probs: Sequence[float] | None = None,
    ) -> "FixtureScorer":
        if (logprobs is None) == (probs is None):
            raise ValueError("provide exactly one of logprobs or probs")
        if probs is not None:
            logprobs = [math.log(p) for p in probs]
        toks = tuple(text)
        if len(toks) != len(logprobs):
            toks = tuple(f"t{i}" for i in range(len(logprobs)))
        self._table[(text, context)] = ScoredText(tokens=toks, logprobs=tuple(logprobs))
        return self

    def add_ppl(
        self, text: str, context: str | None = None, *, ppl: float, length: int = 4
    ) -> "FixtureScorer":
        """Convenience: constant logprobs realizing the given perplexity."""
        if ppl < 1.0:
            raise ValueError("perplexity must be >= 1")
        return self.add(text, context, logprobs=[-math.log(ppl)] * length)

    def score(self, text: str, context: str | None = None) -> ScoredText:
        if not text:
            raise ValueError("cannot score empty text")
        try:
            return self._table[(text, context)]
        except KeyError:
            raise FixtureMissingError(
                f"no fixture for text={text[:40]!r} context="
                f"{None if context is None else context[:40]!r}"
            ) from None


class FixtureGenerator:
    """Generator returning canned responses for exact prompts."""

    def __init__(self, table: Mapping[str, str] | None = None):
        self._table: dict[str, GenerationResult] = {}
        for prompt, response in (table or {}).items():
            self.add(prompt, response)

    def add(
        self, prompt: str, response: str, finish_reason: str = "stop"
    ) -> "FixtureGenerator":
        self._table[prompt] = GenerationResult(response, finish_reason)
        return self

    def generate(self, prompt: str) -> GenerationResult:
        if not prompt:
            raise ValueError("cannot generate from an empty prompt")
        try:
            return self._table[prompt]
        except KeyError:
            raise FixtureMissingError(
                f"no fixture for prompt starting {prompt[:60]!r}"
            ) from None


class FixtureEmbedder:
    """Embedder returning preset vectors for exact texts."""

    def __init__(self, table: Mapping[str, Sequence[float]] | None = None):
        self._table: dict[str, tuple[float, ...]] = {}
        for text, vector in (table or {}).items():
            self.add(text, vector)

    def add(self, text: str, vector: Sequence[float]) -> "FixtureEmbedder":
        self._table[text] = tuple(map(float, vector))
        return self

    def embed(self, text: str) -> tuple[float, ...]:
        if not text:
            raise ValueError("cannot embed empty text")
        try:
            return self._table[text]
        except KeyError:
            raise FixtureMissingError(f"no fixture for text {text[:40]!r}") from None

    def embed_many(self, texts: Sequence[str]) -> list[tuple[float, ...]]:
        return [self.embed(t) for t in texts]


class HashEmbedder:
    """Deterministic character n-gram hashing embedder.

    Dependency-free stand-in for a sentence embedding model: texts sharing
    character n-grams land near each other. FNV-1a hashes each n-gram into
    one of ``dim`` buckets, and the vector is the integer count of n-grams
    per bucket (feature hashing). It is not normalised: :func:`cosine`,
    its only reader, does not depend on scale. A text's n-grams are
    counted first, so each distinct n-gram is hashed once per text. The
    hash of each n-gram string is also memoised in a bounded process-wide
    cache shared by all instances (see :func:`_gram_hash`), so an n-gram
    seen in an earlier text skips the per-byte loop.
    """

    def __init__(self, dim: int = 64, ngram: int = 3):
        if dim < 2 or ngram < 1:
            raise ValueError("dim must be >= 2 and ngram >= 1")
        self.dim = dim
        self.ngram = ngram

    @staticmethod
    def _fnv1a(data: bytes) -> int:
        h = 0x811C9DC5
        for byte in data:
            h ^= byte
            h = (h * 0x01000193) & 0xFFFFFFFF
        return h

    def embed(self, text: str) -> tuple[int, ...]:
        if not text:
            raise ValueError("cannot embed empty text")
        n = self.ngram
        padded = text if len(text) >= n else text.ljust(n)
        vec = [0] * self.dim
        for gram, count in Counter(_ngrams(padded, n)).items():
            vec[_gram_hash(gram) % self.dim] += count
        return tuple(vec)

    def embed_many(self, texts: Sequence[str]) -> list[tuple[int, ...]]:
        return [self.embed(t) for t in texts]


@functools.lru_cache(maxsize=1 << 15)
def _gram_hash(gram: str) -> int:
    """FNV-1a of an n-gram's UTF-8 bytes. Natural-language text has a few
    thousand distinct short n-grams, so this bounded cache catches nearly
    every repeat and holds at most a few MiB."""
    return HashEmbedder._fnv1a(gram.encode("utf-8"))
