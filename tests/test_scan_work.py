"""Text-scan work of the n-gram fit and the hash embedder, counted exactly
on committed inputs.

``data/eval_seed1/corpus.jsonl`` is the benchmark generator's ``eval``
corpus of seed 1: three documents, 8,644 characters. The work counted is
what each scan builds or computes in Python: the n-gram strings the fit
builds (each ``scoring._ngrams`` call yields ``len(text) - n + 1``) and the
FNV-1a hashes the embedder computes. The inputs are fixed, so the totals
are exact and do not depend on the machine.
"""

from __future__ import annotations

import json
from pathlib import Path

from click.testing import CliRunner

from chunkkit import scoring
from chunkkit.cli import main
from chunkkit.text import load_corpus

EVAL_DATA = Path(__file__).resolve().parent / "data" / "eval_seed1"
ORDER = 3


def test_fit_builds_one_gram_per_top_order_position(monkeypatch):
    built = [0]
    ngrams = scoring._ngrams

    def counted(text, n):
        built[0] += max(0, len(text) - n + 1)
        return ngrams(text, n)
    monkeypatch.setattr(scoring, "_ngrams", counted)

    texts = [doc.text for doc in load_corpus(EVAL_DATA / "corpus.jsonl")]
    scoring.NGramScorer(ORDER, texts)
    # 8,644 - 3 * (ORDER - 1): one string per order-gram position. When the
    # fit counted each text once per order, it built 25,923 (8,644 + 8,641
    # + 8,638).
    assert built[0] == sum(len(t) - ORDER + 1 for t in texts) == 8638


def embed_semantic(tmp_path, monkeypatch) -> tuple[list[str], int, list[int]]:
    """Run ``chunk --method semantic --calibrate-avg 178`` with a hash
    embedder on the corpus: the texts embedded, the FNV-1a calls made, and
    the size of the embedder's table after each text."""
    texts, hashes, sizes = [], [0], []
    fnv1a, embed = scoring.HashEmbedder._fnv1a, scoring.HashEmbedder.embed

    def counted_fnv1a(data):
        hashes[0] += 1
        return fnv1a(data)

    def recorded_embed(self, text):
        vector = embed(self, text)
        texts.append(text)
        sizes.append(len(self._buckets))
        return vector
    monkeypatch.setattr(scoring.HashEmbedder, "_fnv1a", staticmethod(counted_fnv1a))
    monkeypatch.setattr(scoring.HashEmbedder, "embed", recorded_embed)

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"embedder": {"kind": "hash", "dim": 128}}))
    result = CliRunner().invoke(main, [
        "--config", str(config), "chunk", "--corpus", str(EVAL_DATA / "corpus.jsonl"),
        "--out", str(tmp_path / "semantic.jsonl"), "--method", "semantic",
        "--calibrate-avg", "178"])
    assert result.exit_code == 0, result.output
    return texts, hashes[0], sizes


def test_embedder_hashes_each_distinct_gram_once(tmp_path, monkeypatch):
    texts, hashes, sizes = embed_semantic(tmp_path, monkeypatch)
    grams = {g for t in texts for g in scoring._ngrams(t.ljust(3), 3)}
    # 119 sentences of 8,644 characters hold 8,406 3-grams, 548 distinct.
    # Before the embedder kept its own table, a process-wide memo of the
    # hash made 548 hashes in a fresh process, and fewer in one that had
    # embedded before; each text made one Python call to it per distinct
    # gram of the text, 3,578 in all.
    assert (len(texts), len(grams), hashes) == (119, 548, 548)
    assert max(sizes) == len(grams) <= scoring._BUCKET_GRAMS


def test_full_table_is_emptied_and_vectors_stay(tmp_path, monkeypatch):
    unbounded = tmp_path / "unbounded"
    unbounded.mkdir()
    embed_semantic(unbounded, monkeypatch)
    monkeypatch.undo()
    monkeypatch.setattr(scoring, "_BUCKET_GRAMS", 64)
    texts, hashes, sizes = embed_semantic(tmp_path, monkeypatch)
    assert max(sizes) <= 64 and hashes > 548
    assert (tmp_path / "semantic.jsonl").read_bytes() == \
        (unbounded / "semantic.jsonl").read_bytes()
