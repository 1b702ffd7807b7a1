"""Golden record bodies: the chunk-set file, ``chunk --report`` records and
the ``dataset distill`` and ``dataset clean`` verdicts, pinned byte for
byte on small hand-made inputs.

The inputs hold a failed rule, a recovered rule, a flagged chunk and more
than one window, so every field each writer derives (a rule's number and
mode, a verdict's chunk position and flag) shows in a pinned line.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from chunkkit import prompts
from chunkkit.cli import main
from chunkkit.text import save_corpus

from conftest import make_doc

# Two windows at a budget of 60: [0, 50) ends at the paragraph break, and
# the second region starts where the span held back from the first begins.
TEXT = ("Alpha one sentence here. Beta two sentence here.\n\n"
        "Gamma three sentence now. Delta four sentence now.")
BUDGET = 60
FIRST_REGION = TEXT[:50]
SECOND_REGION = TEXT[25:]


@pytest.fixture
def runner():
    return CliRunner()


def _body(path, header: bool) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if header:
        assert "_header" in json.loads(lines[0])
        return lines[1:]
    return lines


def _write_json(path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _invoke(runner, args) -> None:
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_moc_chunk_set_and_report_bodies(runner, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([make_doc(TEXT, "d0")], corpus)
    rules = {
        # exact, recovered ("x" for "t" in the prefix), failed
        FIRST_REGION: ["Alpha one[MASK]here.", "Bexa two [MASK]here.", "Qqqq[MASK]Zzzz"],
        SECOND_REGION: ["Beta two[MASK]here.", "Gamma[MASK]now.", "Delta[MASK]now."],
    }
    router_entries, expert_entries = [], []
    for label, (region, answer) in zip((0, 2), rules.items()):
        router_prompt = prompts.render(prompts.ROUTER_PROMPT, text=region)
        router_entries += [{"text": str(lab), "context": router_prompt,
                            "logprobs": [-0.1 if lab == label else -3.0]}
                           for lab in range(4)]
        expert_entries.append({
            "prompt": prompts.render(prompts.RULE_CHUNK_PROMPT, text=region,
                                     placeholder="[MASK]"),
            "response": json.dumps(answer)})
    router = _write_json(tmp_path / "router.json", {"entries": router_entries})
    expert = _write_json(tmp_path / "expert.json", {"entries": expert_entries})
    config = _write_json(tmp_path / "config.json", {
        "router": {"kind": "fixture", "table": router},
        "experts": {str(i): {"kind": "fixture", "table": expert} for i in range(4)},
        "dataset": {"max_window_tokens": BUDGET},
    })
    out, report = tmp_path / "moc.jsonl", tmp_path / "report.jsonl"
    _invoke(runner, ["--config", config, "chunk", "--corpus", str(corpus),
                     "--out", str(out), "--method", "moc", "--report", str(report)])

    assert _body(out, header=False) == [
        '{"chunks": [{"end": 24, "index": 0, "start": 0}, '
        '{"end": 48, "index": 1, "start": 25}, '
        '{"end": 75, "index": 2, "start": 50}, '
        '{"end": 100, "index": 3, "start": 76}], '
        '"doc_id": "d0", "method": "moc"}',
    ]
    assert _body(report, header=True) == [
        '{"doc_id": "d0", "rules": ['
        '{"distance": 0, "mode": "exact", "rule": 0, "span": [0, 24]}, '
        '{"distance": 1, "mode": "recovered", "rule": 1, "span": [25, 48]}, '
        '{"distance": 0, "mode": "failed", "rule": 2, "span": null}]}',
        '{"doc_id": "d0", "rules": ['
        '{"distance": 0, "mode": "exact", "rule": 0, "span": [25, 48]}, '
        '{"distance": 0, "mode": "exact", "rule": 1, "span": [50, 75]}, '
        '{"distance": 0, "mode": "exact", "rule": 2, "span": [76, 100]}]}',
    ]


def test_distill_bodies_number_chunks_across_windows(runner, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([make_doc(TEXT, "d0")], corpus)
    chunks = {
        FIRST_REGION: ["Alpha one sentence here.", "Beta two sentence here."],
        # a rewritten chunk past the 10% limit, and a light edit within it
        SECOND_REGION: ["Beta two sentence here.", "Gxmmx thxxe sxntxnce now.",
                        "Delta four sentense now."],
    }
    table = _write_json(tmp_path / "gen.json", {"entries": [
        {"prompt": prompts.render(prompts.DISTILL_PROMPT, text=region),
         "response": "".join(f"<chunk>{c}</chunk>" for c in texts)}
        for region, texts in chunks.items()]})
    config = _write_json(tmp_path / "config.json", {
        "generator": {"kind": "fixture", "table": table},
        "dataset": {"max_window_tokens": BUDGET},
    })
    out_dir = tmp_path / "distilled"
    _invoke(runner, ["--config", config, "dataset", "distill",
                     "--corpus", str(corpus), "--out-dir", str(out_dir)])

    assert _body(out_dir / "verdicts.jsonl", header=True) == [
        '{"chunk": 0, "distance": 0, "doc_id": "d0", "flagged": false, '
        '"span": [0, 24], "threshold": 3}',
        '{"chunk": 1, "distance": 0, "doc_id": "d0", "flagged": false, '
        '"span": [25, 48], "threshold": 3}',
        '{"chunk": 2, "distance": 0, "doc_id": "d0", "flagged": false, '
        '"span": [25, 48], "threshold": 3}',
        '{"chunk": 3, "distance": 6, "doc_id": "d0", "flagged": true, '
        '"span": [50, 75], "threshold": 3}',
        '{"chunk": 4, "distance": 1, "doc_id": "d0", "flagged": false, '
        '"span": [76, 100], "threshold": 3}',
    ]
    assert _body(out_dir / "chunksets.jsonl", header=False) == [
        '{"chunks": [{"end": 24, "index": 0, "start": 0}, '
        '{"end": 48, "index": 1, "start": 25}, '
        '{"end": 100, "index": 2, "start": 76}], '
        '"doc_id": "d0", "method": "distilled"}',
    ]


def test_clean_body_numbers_chunks_per_record(runner, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([make_doc(TEXT[:48], "d0"), make_doc(TEXT[50:], "d1")], corpus)
    generated = tmp_path / "generated.jsonl"
    generated.write_text("".join(json.dumps(record) + "\n" for record in [
        {"doc_id": "d0", "chunks": ["Alpha one sentence here.", "Beta twa sentence here."]},
        {"doc_id": "d1", "chunks": ["Gamma three sentence now.", "Zzzz qqqq"]},
    ]), encoding="utf-8")
    out = tmp_path / "verdicts.jsonl"
    _invoke(runner, ["dataset", "clean", "--corpus", str(corpus),
                     "--generated", str(generated), "--out", str(out)])

    assert _body(out, header=True) == [
        '{"chunk": 0, "distance": 0, "doc_id": "d0", "flagged": false, '
        '"span": [0, 24], "threshold": 3}',
        '{"chunk": 1, "distance": 1, "doc_id": "d0", "flagged": false, '
        '"span": [25, 48], "threshold": 3}',
        '{"chunk": 0, "distance": 0, "doc_id": "d1", "flagged": false, '
        '"span": [0, 25], "threshold": 3}',
        '{"chunk": 1, "distance": 8, "doc_id": "d1", "flagged": true, '
        '"span": [1, 10], "threshold": 1}',
    ]
