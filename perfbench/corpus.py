"""Seeded synthetic corpus and fixture tables for the benchmark workloads.

Every workload has a fixed *skeleton*: the number of documents, the
sentence lengths, the paragraph and topic-segment boundaries, which MoC
anchors are corrupted and which distilled chunks are edited all come from
a constant structure seed. The run seed picks the text: vocabularies,
which topic each segment is about, the words and the odd ``。`` terminal.
So a new seed gives new text while the reference chunk counts, window
cuts, LM-call counts and the edit-distance work stay put, which keeps the
figures of different seeds comparable.

The fixture generators answer exact prompts. The prompts depend on how the
chunk buffer moved the previous window's region, so they are recorded by
running ``moc_chunk`` and ``distill_document`` once with generators that
answer from the reference chunking.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from chunkkit import prompts
from chunkkit.dataset import distill_document, make_rules
from chunkkit.moc import moc_chunk
from chunkkit.rules import GranularityLabel, RuleList, render_rule_targets
from chunkkit.scoring import GenerationResult, NGramScorer
from chunkkit.text import ChunkSet, Document, save_chunksets, save_corpus
from chunkkit.chunkers import chunk_boundary_aware

TARGET_LEN = 178          # reference chunk length and calibration target
NGRAM_ORDER = 3
EDIT_MARK = "~"           # never occurs in generated text, so each mark costs one edit
CORRUPT_SHARE = 0.15      # MoC rules with one corrupted anchor character
REWRITE_SHARE = 0.12      # distilled chunks rewritten past the 10% limit
LIGHT_EDIT_SHARE = 0.20   # distilled chunks edited within the limit

# Target document lengths in characters per workload. Documents longer
# than 1024 characters span several windows in ``chunk`` and ``distill``.
DOC_LENGTHS = {
    "eval": (1000, 2600, 4000),
    "chunk": (900, 2600, 4800, 7000, 9500, 12000) * 2,
    "distill": (600, 1100, 1500),
    "eval-http": (1200, 2200),
}

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_FUNCTION_WORDS = ("the", "of", "and", "to", "in", "is", "that", "for", "on",
                   "with", "as", "by", "at", "from", "this", "it", "was", "are")
_TOPICS = 8


@dataclass
class Inputs:
    """The generated files of one workload and what the checks need."""

    docs: list[Document]
    reference: list[ChunkSet]
    corrupted: set[tuple[str, int]] = field(default_factory=set)  # (doc, chunk start)
    rewritten: int = 0        # generated chunks rewritten past the limit

    @property
    def chars(self) -> int:
        return sum(len(d.text) for d in self.docs)

    def position(self, doc: Document) -> int:
        return self.docs.index(doc)


def _unit(*key) -> float:
    """A uniform draw in [0, 1) fixed by ``key``, independent of call order."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _skeleton(workload: str) -> list[list[list[list[int]]]]:
    """doc -> paragraph -> topic segment -> sentence lengths (without the
    joining space). Fixed per workload."""
    rng = random.Random(f"skeleton:{workload}")
    docs = []
    for target in DOC_LENGTHS[workload]:
        paragraphs, total = [], 0
        while total < target:
            paragraph = []
            for _ in range(rng.randint(2, 4)):
                segment = [rng.randint(37, 110) for _ in range(rng.randint(2, 3))]
                paragraph.append(segment)
                total += sum(segment) + len(segment)
            paragraphs.append(paragraph)
        docs.append(paragraphs)
    return docs


class _Writer:
    """Seeded words and sentences over topical vocabulary clusters.

    Each topic spells its words with two consonants no other topic uses, so
    sentences of one topic share character trigrams and sentences of two
    topics share almost none: hash-embedding similarity is high inside a
    topic segment and low across a topic shift.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        consonants = list(_CONSONANTS)
        rng.shuffle(consonants)
        self.letters = [(consonants[2 * t:2 * t + 2], rng.sample(_VOWELS, 2))
                        for t in range(_TOPICS)]
        self.vocab = [[self.word(t, rng.randint(1, 4)) for _ in range(40)]
                      for t in range(_TOPICS)]
        self.endings: set[str] = set()

    def word(self, topic: int, syllables: int) -> str:
        cons, vows = self.letters[topic]
        return "".join(self.rng.choice(cons) + self.rng.choice(vows)
                       for _ in range(syllables))

    def sentence(self, topic: int, length: int) -> str:
        """A sentence of exactly ``length`` characters, terminal included.
        No other sentence of the document ends in the same last nine
        letters, so its last ten characters make an unambiguous anchor:
        two last words that differ only before their last nine letters
        would share it."""
        rng = self.rng
        while True:
            last = self.word(topic, 5)[:rng.randint(7, 10)]
            if last[-9:] not in self.endings:
                self.endings.add(last[-9:])
                break
        body_len = length - len(last) - 2   # space before the last word, terminal
        words: list[str] = []
        size = -1
        while True:
            room = body_len - size - 1
            if room <= 10:
                break
            pool = self.vocab[topic] if rng.random() < 0.95 else _FUNCTION_WORDS
            pick = rng.choice(pool)
            if len(pick) > room - 3:
                continue
            words.append(pick)
            size += len(pick) + 1
        words.append(self.word(topic, 5)[:body_len - size - 1])
        terminal = "。" if rng.random() < 0.05 else "."
        text = " ".join(words + [last]) + terminal
        text = text[0].upper() + text[1:]
        assert len(text) == length, (text, length)
        return text


def make_documents(workload: str, seed: int) -> list[Document]:
    writer = _Writer(random.Random(f"content:{workload}:{seed}"))
    docs = []
    for i, paragraphs in enumerate(_skeleton(workload)):
        writer.endings.clear()
        topic = -1
        parts = []
        for paragraph in paragraphs:
            sentences = []
            for segment in paragraph:
                topic = (topic + writer.rng.randint(1, _TOPICS - 1)) % _TOPICS
                sentences += [writer.sentence(topic, n) for n in segment]
            parts.append(" ".join(sentences))
        docs.append(Document(id=f"{workload}-{seed}-{i}", text="\n\n".join(parts)))
    return docs


def _region(prompt: str, template: str, **slots: str) -> str:
    """The ``{text}`` slot of a prompt rendered from ``template``."""
    head, tail = prompts.render(template, **slots).split("\x00")
    return prompt[len(head):len(prompt) - len(tail)]


class _RecordingGenerator:
    """Answers from the reference chunking and records prompt -> response."""

    def __init__(self, answer, model: str):
        self.answer = answer
        self.model = model
        self.table: dict[str, str] = {}

    def generate(self, prompt, params=None):
        response = self.table.get(prompt)
        if response is None:
            response = self.table[prompt] = self.answer(prompt)
        return GenerationResult(response)


def _inside(doc: Document, chunks: ChunkSet, region: str, strip: bool):
    start = doc.text.find(region)
    assert start >= 0, "region is not a slice of its document"
    end = start + len(region)
    for chunk in chunks.chunks:
        s, e = chunk.start, chunk.end
        if strip:
            s += len(chunk.text) - len(chunk.text.lstrip())
            e -= len(chunk.text) - len(chunk.text.rstrip())
        if s >= start and e <= end:
            yield chunk, doc.text[s:e]


def _write_table(path: Path, table: dict[str, str]) -> None:
    entries = [{"prompt": p, "response": r} for p, r in sorted(table.items())]
    path.write_text(json.dumps({"entries": entries}, ensure_ascii=False,
                               sort_keys=True), encoding="utf-8")


def _moc_tables(inputs: Inputs, out: Path) -> None:
    """Expert tables for ``chunk --method moc``: make_rules over the
    reference chunks inside each region, a fixed share of them with one
    anchor character corrupted."""
    ref = {cs.doc_id: cs for cs in inputs.reference}
    current: list[Document] = []

    def answer(prompt: str) -> str:
        doc = current[0]
        region = _region(prompt, prompts.RULE_CHUNK_PROMPT, text="\x00",
                         placeholder="[MASK]")
        inside = [c for c, _ in _inside(doc, ref[doc.id], region, strip=False)]
        window_set = ChunkSet(doc.id, tuple(replace(c, index=i) for i, c in enumerate(inside)),
                              "reference")
        rules = list(make_rules(window_set).rules)
        for i, chunk in enumerate(inside):
            if _unit("corrupt", inputs.position(doc), chunk.start) >= CORRUPT_SHARE:
                continue
            inputs.corrupted.add((doc.id, chunk.start))
            rule = rules[i]
            if _unit("side", inputs.position(doc), chunk.start) < 0.5:
                rules[i] = replace(rule, prefix=rule.prefix[:5] + EDIT_MARK + rule.prefix[6:])
            else:
                rules[i] = replace(rule, suffix=rule.suffix[:4] + EDIT_MARK + rule.suffix[5:])
        return render_rule_targets(RuleList(tuple(rules)))

    router = NGramScorer(order=NGRAM_ORDER, corpus=[d.text for d in inputs.docs])
    experts = {label: _RecordingGenerator(answer, f"expert-{label.value}")
               for label in GranularityLabel}
    for doc in inputs.docs:
        current[:] = [doc]
        moc_chunk(doc, router, experts)
    for label, expert in experts.items():
        _write_table(out / f"expert_{label.value}.json", expert.table)


def _distill_table(inputs: Inputs, out: Path) -> None:
    """Distiller table: the reference chunk texts inside each region in
    ``<chunk>`` tags; a fixed share rewritten past the 10% limit and
    another share edited within it."""
    ref = {cs.doc_id: cs for cs in inputs.reference}
    current: list[Document] = []

    def answer(prompt: str) -> str:
        doc = current[0]
        region = _region(prompt, prompts.DISTILL_PROMPT, text="\x00")
        pieces = []
        for chunk, text in _inside(doc, ref[doc.id], region, strip=True):
            u = _unit("edit", inputs.position(doc), chunk.start)
            if u < REWRITE_SHARE:
                step = 3      # a third of the characters: far past 10%
                inputs.rewritten += 1
            elif u < REWRITE_SHARE + LIGHT_EDIT_SHARE:
                step = 60     # under 2%: within the limit
            else:
                step = 0
            if step:
                text = "".join(EDIT_MARK if i % step == step // 2 else ch
                               for i, ch in enumerate(text))
            pieces.append(f"<chunk>{text}</chunk>")
        return "\n".join(pieces)

    generator = _RecordingGenerator(answer, "distiller")
    for doc in inputs.docs:
        current[:] = [doc]
        distill_document(doc, generator)
    _write_table(out / "distill.json", generator.table)


def build(workload: str, seed: int, out: Path) -> Inputs:
    """Write the corpus, reference chunk sets and fixture tables of one
    workload into ``out``; the same seed gives the same bytes."""
    out.mkdir(parents=True, exist_ok=True)
    docs = make_documents(workload, seed)
    reference = [chunk_boundary_aware(d, TARGET_LEN) for d in docs]
    inputs = Inputs(docs=docs, reference=reference)
    save_corpus(docs, out / "corpus.jsonl")
    save_chunksets(reference, out / "reference.jsonl")
    if workload == "chunk":
        _moc_tables(inputs, out)
    elif workload == "distill":
        _distill_table(inputs, out)
    return inputs


def write_config(workload: str, out: Path, port: int | None = None) -> None:
    """The run configuration; ``eval-http`` needs the fake server's port."""
    ngram = {"kind": "ngram", "order": NGRAM_ORDER, "corpus": "corpus.jsonl"}
    hash_embedder = {"kind": "hash", "dim": 128}
    if workload == "eval":
        config = {"scorer": ngram, "embedder": hash_embedder}
    elif workload == "eval-http":
        config = {"scorer": {"kind": "http", "endpoint": f"http://127.0.0.1:{port}",
                             "model": f"ngram-{NGRAM_ORDER}", "max_in_flight": 2}}
    elif workload == "chunk":
        config = {"embedder": hash_embedder, "router": ngram, "experts": {
            str(label.value): {"kind": "fixture", "model": f"expert-{label.value}",
                               "table": f"expert_{label.value}.json"}
            for label in GranularityLabel}}
    else:
        config = {"generator": {"kind": "fixture", "model": "distiller",
                                "table": "distill.json"}}
    (out / "config.json").write_text(json.dumps(config, indent=1, sort_keys=True),
                                     encoding="utf-8")
