"""N-gram scorer work of ``eval``, counted exactly on committed inputs.

``eval --metrics bc,cs_c,cs_i`` on ``data/eval_seed1`` (the benchmark
generator's ``eval`` corpus of seed 1 and its reference chunk sets) scores
each chunk alone and under every other chunk. The work counted is what the
scorer builds and adds up: the characters of each text it builds a cache
entry for, the results it builds, and the floats that ``scoring`` passes
to ``math.fsum``. The inputs are fixed, so the totals are exact and do not
depend on the machine.

A text costs three sums over its tail row (the row's two-part sum and its
check); a result costs one sum of its head and those two parts, at most
``order + 1`` floats, whatever the text's length.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

from click.testing import CliRunner

from chunkkit import scoring
from chunkkit.cli import main

EVAL_DATA = Path(__file__).resolve().parent / "data" / "eval_seed1"
ORDER = 3


def test_eval_scorer_work(tmp_path, monkeypatch):
    work = {"text_chars": 0, "results": 0, "floats": 0}

    def fsum(values):
        values = tuple(values)
        work["floats"] += len(values)
        return math.fsum(values)
    monkeypatch.setattr(scoring, "math", SimpleNamespace(**{**vars(math), "fsum": fsum}))

    entry = scoring._CachedText

    def counted_entry(tokens, *rest):
        work["text_chars"] += len(tokens)
        return entry(tokens, *rest)
    monkeypatch.setattr(scoring, "_CachedText", counted_entry)

    trusted = scoring.ScoredText._trusted

    def counted_result(cls, *row):
        work["results"] += 1
        return trusted(*row)
    monkeypatch.setattr(scoring.ScoredText, "_trusted", classmethod(counted_result))

    corpus = EVAL_DATA / "corpus.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scorer": {"kind": "ngram", "order": ORDER,
                                             "corpus": str(corpus)}}))
    result = CliRunner().invoke(main, [
        "--config", str(config), "eval", "--corpus", str(corpus),
        "--chunksets", str(EVAL_DATA / "reference.jsonl"),
        "--metrics", "bc,cs_c,cs_i", "--out", str(tmp_path / "report.jsonl")])
    assert result.exit_code == 0, result.output

    assert work["floats"] <= 3 * work["text_chars"] + (ORDER + 1) * work["results"]
    # 65 texts: 3 * 8,644 - 3 * 65 floats; 863 results: 4 floats each.
    # When each result held and summed its whole row, the same command
    # summed about 117,000 floats, and texts were evicted and built again
    # (9,119 text characters for 869 results).
    assert work == {"text_chars": 8644, "results": 863, "floats": 29189}
