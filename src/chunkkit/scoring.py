"""Language-model scoring, generation, and embedding interfaces.

Two deterministic in-process scorers back the offline tests: a table-driven
fixture (exact control over every logprob) and a character n-gram scorer
with add-one smoothing (realistic perplexity gradients). Remote backends
implementing the same protocols live in :mod:`chunkkit.backends`.

Log-probabilities are natural log throughout; any base-2 conversion happens
at the metrics layer only.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, starmap
from typing import Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

from .errors import FixtureMissingError, UndefinedSimilarityError


class ScoredText:
    """Per-token log-probabilities of a text, excluding any context tokens.

    ``truncated`` is set when the context had to be left-truncated to fit a
    backend limit.

    ``logprobs`` is one tuple for every reader, but a result holds it as a
    head and a tail, joined when read. A result of this constructor holds
    all of its logprobs as the head. An :class:`NGramScorer` result holds
    as its head only the ``order - 1`` positions its context tail reaches,
    and shares the tail with every other result of the same text.

    Logprobs are checked where they enter: this constructor checks every
    value (a finite float, not above 0, one per token), so fixtures and
    library callers go through it; ``HttpScorer`` checks the wire reply
    before it; and :class:`NGramScorer` checks its rows once, when built,
    then builds each result with :meth:`_trusted`, which skips the check.

    Both ways compute the perplexity once, when the result is built, and
    raise ``ValueError`` when it is out of float range (a mean logprob
    below about -709.78); :data:`perplexity` reads the stored value.
    Results are immutable, and equal when their tokens, logprobs and
    ``truncated`` are.
    """

    def __init__(self, tokens: Iterable[str], logprobs: Iterable[float],
                 truncated: bool = False):
        tokens, logprobs = tuple(tokens), tuple(map(float, logprobs))
        if len(tokens) != len(logprobs):
            raise ValueError(f"{len(tokens)} tokens vs {len(logprobs)} logprobs")
        if not tokens:
            raise ValueError("scored text must contain at least one token")
        if any(map((0.0).__lt__, logprobs)) or not all(map(math.isfinite, logprobs)):
            raise ValueError("logprobs must be finite and <= 0")
        self._fill(tokens, logprobs, (), truncated, logprobs)

    @classmethod
    def _trusted(cls, tokens: tuple[str, ...], head: tuple[float, ...],
                 tail: tuple[float, ...], parts: tuple[float, ...]) -> "ScoredText":
        """A ScoredText of the logprobs ``head + tail``, values checked where
        they were made, built without the check. ``parts`` has the exact
        sum of ``tail``, so the perplexity costs ``len(head + parts)``
        additions. Only ``NGramScorer.score`` calls it."""
        scored = object.__new__(cls)
        scored._fill(tokens, head, tail, False, (*head, *parts))
        return scored

    def _fill(self, tokens, head, tail, truncated, summands) -> None:
        """Set the fields, and the perplexity from ``summands``, which have
        the exact sum of ``head + tail``. ``fsum`` rounds the exact sum
        correctly and ``statistics.fmean`` is ``fsum / n``, so any summands
        of that sum give ``exp(-fmean(logprobs))`` to the bit."""
        try:
            perplexity = math.exp(-(math.fsum(summands) / len(tokens)))
        except OverflowError:
            raise ValueError("perplexity is out of float range") from None
        self.__dict__.update(tokens=tokens, _head=head, _tail=tail, truncated=truncated,
                             _perplexity=perplexity)

    @property
    def logprobs(self) -> tuple[float, ...]:
        return self._head + self._tail

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tokens, self.logprobs, self.truncated) == \
            (other.tokens, other.logprobs, other.truncated)

    def __hash__(self):
        return hash((self.tokens, self.logprobs, self.truncated))

    def __repr__(self):
        return (f"ScoredText(tokens={self.tokens!r}, logprobs={self.logprobs!r}, "
                f"truncated={self.truncated!r})")


def _exact_parts(values: tuple[float, ...]) -> tuple[float, ...]:
    """Two floats ``(hi, lo)`` whose exact sum is that of ``values``, or
    ``values`` itself when no two floats have it (its sum needs more than
    two floats' bits)."""
    hi = math.fsum(values)
    lo = math.fsum((*values, -hi))
    return values if math.fsum((*values, -hi, -lo)) else (hi, lo)


# exp(-mean logprob) of a ScoredText, >= 1 for any valid one: the value
# stored when it was built, read without a Python call
perplexity = operator.attrgetter("_perplexity")


@dataclass(frozen=True)
class GenerationResult:
    text: str
    finish_reason: str = "stop"

    @property
    def truncated(self) -> bool:
        return self.finish_reason == "length"


class Scorer(Protocol):
    def score(self, text: str, context: str | None = None) -> ScoredText: ...


def score_many(scorer: Scorer,
               requests: Sequence[tuple[str, str | None]]) -> Iterator[ScoredText]:
    """The result of each ``(text, context)`` request, in order, as the
    caller reads them: from the scorer's own ``score_many`` when it has one
    (an HTTP scorer fans the list out on its threads), else from one
    ``score`` call per request. A caller that reads each result once holds
    no more of them than it keeps."""
    many = getattr(scorer, "score_many", None)
    if many is not None:
        return iter(many(requests))
    return starmap(scorer.score, requests)


class Generator(Protocol):
    def generate(self, prompt: str) -> GenerationResult: ...


class Embedder(Protocol):
    def embed(self, text: str) -> tuple[float, ...]: ...

    def embed_many(self, texts: Sequence[str]) -> list[tuple[float, ...]]: ...


# Outside this range a pair's norm product, or the terms of its dot
# product, leave the float range: two subnormal vectors gave 0 / 0, and
# two of norm 1e160 gave inf / inf, which the clamp read as 1. Inside it no
# term, nor their sum, exceeds the product (|u . v| <= |u| |v|).
_MIN_NORMS, _MAX_NORMS = 2.0 ** -1000, 2.0 ** 1000


def _unit_scaled(v: Sequence[float]) -> list[float]:
    """``v`` times the power of two that takes its largest magnitude into
    [0.5, 1): exact unless a component falls below the float range."""
    shift = -math.frexp(max(map(abs, v)))[1]
    return [math.ldexp(x, shift) for x in v]


def adjacent_cosines(vectors: Sequence[Sequence[float]]) -> list[float]:
    """The cosine similarity, in [-1, 1], of each adjacent pair of
    ``vectors``: one fewer than the vectors, each vector's norm computed
    once.

    Pairs are checked in order: lengths first, then zero vectors, which
    have no defined similarity. The dot product is summed with
    ``math.fsum``, which rounds correctly, so the value does not depend on
    summation order or on the CPU. A pair whose norm product is outside
    [``_MIN_NORMS``, ``_MAX_NORMS``] is scaled into it first.
    """
    values = []
    nu = None
    for u, v in zip(vectors, vectors[1:]):
        if len(u) != len(v):
            raise ValueError(f"vector lengths differ: {len(u)} vs {len(v)}")
        if nu is None:
            nu = math.hypot(*u)
        nv = math.hypot(*v)
        if nu == 0.0 or nv == 0.0:
            raise UndefinedSimilarityError("similarity with a zero vector is undefined")
        norms = nu * nv
        if not _MIN_NORMS <= norms <= _MAX_NORMS:  # powers of two leave the cosine as it is
            u, v = _unit_scaled(u), _unit_scaled(v)
            norms = math.hypot(*u) * math.hypot(*v)
        value = math.fsum(map(operator.mul, u, v)) / norms
        values.append(max(-1.0, min(1.0, value)))
        nu = nv
    return values


def _gram_tuples(text: str, n: int) -> Iterator[tuple[str, ...]]:
    """The n-character windows of ``text`` in order as tuples of characters
    (none when it is shorter than ``n``), built by ``zip`` in C."""
    return zip(*(text[i:] for i in range(n)))


def _ngrams(text: str, n: int) -> Iterator[str]:
    """The n-character substrings of ``text`` in order (none when it is
    shorter than ``n``), built by ``zip`` and ``str.join`` in C."""
    return map("".join, _gram_tuples(text, n))


# ---------------------------------------------------------------------------
# Character n-gram scorer
# ---------------------------------------------------------------------------

# Positions NGramScorer keeps cached, 8 bytes each: 512 KiB. Pair metrics
# rescore the chunks of one document; n chunks of L characters, each under
# at most n context tails, need at most n * (L + n * (order - 1))
# positions, so at order 3, 141 chunks of 178 characters fit whole.
_CACHE_POSITIONS = 1 << 16


class _CachedText(NamedTuple):
    """What :class:`NGramScorer` keeps of a text it scored."""

    tokens: tuple[str, ...]
    tail: tuple[float, ...]  # the logprobs of positions >= order - 1
    parts: tuple[float, ...]  # _exact_parts(tail)
    results: dict[str, ScoredText]  # last order - 1 context chars -> result

    @property
    def positions(self) -> int:
        """The positions it holds: the text's own, and each result's head."""
        return len(self.tokens) + (len(self.tokens) - len(self.tail)) * len(self.results)


class NGramScorer:
    """Character-level n-gram scorer with add-one smoothing.

    Deterministic: the same training corpus and text always produce the same
    logprobs. P(c | ctx) = (count(ctx, c) + 1) / (count(ctx) + V) where V is
    the alphabet size; at sequence start the longest available shorter
    context is used. Conditional scoring is exactly the suffix of scoring
    the concatenation: score(text, context) == score(context + text)
    restricted to the text positions.

    The constructor counts only the ``order``-grams of the corpus, in one
    ``Counter.update`` over every text's n-grams that runs in C, and derives
    each shorter order from them: a (k-1)-gram is the prefix of a k-gram,
    or the last k-1 characters of its text. So it builds one n-gram string
    per ``order``-gram position, and loops in Python only over distinct
    n-grams. It turns the counts into log-prob rows, one per seen context,
    then drops the counts: the row of ``ctx``
    gives log P(c | ctx) for every char seen after it, stored under the
    n-gram ``ctx + c``, plus one value for every unseen char,
    log(1 / (count(ctx) + V)). A context never seen gets log(1 / V).
    Scoring reads the rows: one dict look-up per character, two when the
    n-gram is unseen.

    Only the last ``order - 1`` context characters reach any row, so a
    result depends on the text and those characters alone, and
    :meth:`score` caches it on them: each text it scored keeps its tokens,
    its tail row (the logprobs of its positions from ``order - 1`` on, which
    no context reaches), the row's exact sum as two floats, and the
    :class:`ScoredText` built under each context tail. A result holds only
    its head, the ``order - 1`` logprobs its context tail reaches, and
    shares the text's tokens and tail row. A repeat request returns the
    cached object in O(order), however long the context, and a known text
    under a new tail costs O(order) too: it looks up ``order - 1`` n-grams,
    and its perplexity sums its head and the two floats, not ``len(text)``
    values. A cached text costs ``len(text)`` positions, and each cached
    result the length of its head; one position is one 8-byte reference.
    The cache holds at most ``_CACHE_POSITIONS`` positions: a text that
    gains a result moves to the back, and the texts at the front are
    dropped until it fits. A text too long to fit at all is scored
    uncached.

    The constructor checks every row value once: each is a float, and none
    is above 0 (the clamp keeps a rounded-up ``log`` at 0). Every value
    :meth:`score` returns is one of them, one per character of a non-empty
    text, so its result skips the per-call check of the public
    :class:`ScoredText` constructor.

    The rows are fixed at construction (nothing refits a scorer), so a
    scorer is safe to share across threads: a cached result is immutable,
    and a lock lets one thread at a time score a request the cache misses
    and store it.
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
        texts = [corpus] if isinstance(corpus, str) else list(corpus or ())
        # the order-grams of all texts, counted in one pass in C; a shorter
        # gram is the prefix of a longer one, or lies in the last order - 1
        # characters of its text, that text's end
        level = Counter(chain.from_iterable(_ngrams(text, order) for text in texts))
        ends = Counter(text[1 - order:] for text in texts) if order > 1 else Counter()
        levels = []  # (k-grams' counts, their contexts' totals), k = order .. 1
        for k in range(order, 0, -1):
            totals = Counter()  # ctx -> how many k-grams open with it
            for gram, count in level.items():
                totals[gram[:-1]] += count
            levels.append((level, totals))
            # the (k-1)-grams: each k-gram's prefix, and the last k - 1
            # characters of each end at least that long
            level = totals.copy()
            for end, count in ends.items():
                if len(end) >= k - 1:
                    level[end[len(end) - k + 1:]] += count
        v = self._v = len(set(alphabet or ()).union(levels[-1][0]))
        self._logprob: dict[str, float] = {}  # ctx + char -> log P(char | ctx)
        self._unseen: dict[str, float] = {}  # ctx -> log P(unseen char | ctx)
        self._floor = math.log(1 / v) if v else 0.0
        for level, totals in levels:
            for ctx, total in totals.items():
                self._unseen[ctx] = math.log(1 / (total + v))
            for gram, count in level.items():
                self._logprob[gram] = min(
                    math.log((count + 1) / (totals[gram[:-1]] + v)), 0.0
                )
        rows = (*self._logprob.values(), *self._unseen.values(), self._floor)
        # the ScoredText check, once per scorer: 0.0 < lp is false for NaN too
        if {*map(type, rows)} - {float} or any(map((0.0).__lt__, rows)):
            raise ValueError("n-gram logprob rows must be floats <= 0")
        self._cache: dict[str, _CachedText] = {}
        self._positions = 0  # held by the cache
        self._lock = threading.Lock()

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
        if not self._v:
            raise ValueError("scorer has an empty alphabet; pass a corpus or an alphabet")
        n = self.order - 1
        ctx = context[-n:] if n and context else ""  # all that any row reads
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
                tail = self._lookup(list(_ngrams(text, self.order)))
                entry = _CachedText(tuple(text), tail, _exact_parts(tail), {})
            else:
                self._positions -= entry.positions
            scored = entry.results.get(ctx)  # set if another thread was first
            if scored is None:
                full = ctx + text[:n]
                # a head position reads its order chars, or the whole prefix
                # when fewer precede it
                head = self._lookup([full[t - n:t + 1] if t >= n else full[:t + 1]
                                     for t in range(len(ctx), len(full))])
                scored = entry.results[ctx] = ScoredText._trusted(
                    entry.tokens, head, entry.tail, entry.parts)
            held = entry.positions
            if held <= _CACHE_POSITIONS:  # else it stays out
                while self._positions + held > _CACHE_POSITIONS:
                    self._positions -= cache.pop(next(iter(cache))).positions
                cache[text] = entry
                self._positions += held
            return scored


# ---------------------------------------------------------------------------
# Table-driven fixtures (fail closed on unknown inputs)
# ---------------------------------------------------------------------------

class FixtureScorer:
    """Scorer returning preset logprobs for exact (text, context) pairs."""

    def __init__(self):
        self._table: dict[tuple[str, str | None], ScoredText] = {}

    def add(self, text: str, context: str | None = None, *,
            logprobs: Sequence[float]) -> "FixtureScorer":
        toks = tuple(text)
        if len(toks) != len(logprobs):
            toks = tuple(f"t{i}" for i in range(len(logprobs)))
        self._table[(text, context)] = ScoredText(tokens=toks, logprobs=tuple(logprobs))
        return self

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
    per bucket (feature hashing). It is not normalised:
    :func:`adjacent_cosines`, its only reader, does not depend on scale.

    Each embedder keeps a table from n-gram to bucket, so FNV-1a runs once
    per distinct n-gram it has seen, and a text's n-grams are looked up and
    counted in C. The table is keyed by the tuples of characters that
    ``zip`` yields, so no n-gram string is built except on a miss. It holds
    at most ``_BUCKET_GRAMS`` n-grams: an n-gram it misses when full empties
    it first.
    """

    def __init__(self, dim: int = 64, ngram: int = 3):
        if dim < 2 or ngram < 1:
            raise ValueError("dim must be >= 2 and ngram >= 1")
        self.dim = dim
        self.ngram = ngram
        self._buckets = _Buckets(dim)

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
        for bucket in map(self._buckets.__getitem__, _gram_tuples(padded, n)):
            vec[bucket] += 1
        return tuple(vec)

    def embed_many(self, texts: Sequence[str]) -> list[tuple[int, ...]]:
        return [self.embed(t) for t in texts]


# n-grams a HashEmbedder's table holds: natural-language text has a few
# thousand distinct short n-grams, so a full table is rare, and it holds a
# few MiB
_BUCKET_GRAMS = 1 << 15


class _Buckets(dict):
    """n-gram, as its tuple of characters -> its bucket, FNV-1a of the
    UTF-8 bytes of the joined n-gram mod ``dim``, computed when first looked
    up. A lock makes each miss check the size, empty a full table and store
    as one step, so threads sharing an embedder never grow it past
    ``_BUCKET_GRAMS``."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self._lock = threading.Lock()

    def __missing__(self, gram: tuple[str, ...]) -> int:
        bucket = HashEmbedder._fnv1a("".join(gram).encode("utf-8")) % self.dim
        with self._lock:
            if len(self) >= _BUCKET_GRAMS:
                self.clear()
            self[gram] = bucket
        return bucket
