"""Shared fixtures and corpus generators."""

from __future__ import annotations

import importlib.util
import math
import os
import random
import string
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from chunkkit import backends, fuzzy
from chunkkit.scoring import FixtureScorer
from chunkkit.text import Document

# deterministic property tests, no per-example deadline on slow machines
settings.register_profile("chunkkit", deadline=None, derandomize=True)
settings.load_profile("chunkkit")

# Two disjoint letter pools for synthetic two-topic corpora.
TOPIC_A_LETTERS = "abcdef"
TOPIC_B_LETTERS = "tuvwxyz"


def make_doc(text: str, doc_id: str = "doc") -> Document:
    return Document(id=doc_id, text=text)


def random_word(rng: random.Random, letters: str = string.ascii_lowercase,
                lo: int = 3, hi: int = 8) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def random_sentence(rng: random.Random, letters: str = string.ascii_lowercase,
                    words: int = 6) -> str:
    return " ".join(random_word(rng, letters) for _ in range(words)) + "."


def random_text(rng: random.Random, sentences: int = 10,
                letters: str = string.ascii_lowercase) -> str:
    return " ".join(random_sentence(rng, letters) for _ in range(sentences))


def two_topic_doc(rng: random.Random, doc_id: str = "doc",
                  sentences_per_topic: int = 6) -> tuple[Document, int]:
    """A document with a single topic shift; returns (doc, boundary offset)."""
    part_a = " ".join(
        random_sentence(rng, TOPIC_A_LETTERS) for _ in range(sentences_per_topic)
    )
    part_b = " ".join(
        random_sentence(rng, TOPIC_B_LETTERS) for _ in range(sentences_per_topic)
    )
    text = part_a + " " + part_b
    return Document(id=doc_id, text=text), len(part_a) + 1


def add_ppl(scorer: FixtureScorer, text: str, context: str | None = None, *,
            ppl: float, length: int = 4) -> FixtureScorer:
    """Add constant logprobs realizing the given perplexity to ``scorer``."""
    if ppl < 1.0:
        raise ValueError("perplexity must be >= 1")
    return scorer.add(text, context, logprobs=[-math.log(ppl)] * length)


class CountingEmbedder:
    """Counts the texts an embedder is asked to embed."""

    def __init__(self, inner):
        self.inner = inner
        self.texts = 0

    def embed(self, text):
        self.texts += 1
        return self.inner.embed(text)

    def embed_many(self, texts):
        self.texts += len(texts)
        return self.inner.embed_many(texts)


class CountingGenerator:
    """Counts the prompts a generator is asked to complete."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts = 0

    def generate(self, prompt):
        self.prompts += 1
        return self.inner.generate(prompt)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def no_proxy_env(monkeypatch):
    """Every request goes straight to its endpoint unless a test names a
    proxy itself."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def pools_made(monkeypatch) -> list[int]:
    """The thread count of each pool an HTTP client makes."""
    made = []

    class Pool(backends.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(backends, "ThreadPoolExecutor", Pool)
    return made


@pytest.fixture
def compare_tool(monkeypatch):
    """``tools/compare_outputs.py``, which imports the benchmark's modules
    (its ``corpus`` and ``run``)."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel_chars(monkeypatch) -> list[int]:
    """One running total of the characters every edit-distance kernel row
    reads: ``len(row) - 1`` over every ``fuzzy._last_row`` call."""
    total = [0]
    last_row = fuzzy._last_row

    def counted(pattern, text, free_start, floor=None):
        row = last_row(pattern, text, free_start, floor)
        total[0] += len(row) - 1
        return row
    monkeypatch.setattr(fuzzy, "_last_row", counted)
    return total
