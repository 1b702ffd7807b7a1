"""Golden record bodies: the chunk-set file, ``chunk --report`` records,
the ``dataset distill`` and ``dataset clean`` verdicts, and the files of
``dataset windows``, ``label``, ``rules`` and ``emit``, pinned byte for
byte on small hand-made inputs.

The inputs hold a failed rule, a recovered rule, a flagged chunk, more
than one window and three granularity labels, so every field each writer
derives (a rule's number and mode, a verdict's chunk position and flag, a
window's span, a label, an expert sample's window) shows in a pinned line.

The ``eval`` body is pinned on larger inputs, committed under
``data/eval_seed1``: the benchmark generator's ``eval`` corpus of seed 1
and its reference chunk sets, at K = 0.025, where every graph keeps edges.
An oracle that calls only ``Scorer.score`` recomputes BC and both
stickiness variants from those inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import fmean

import pytest
from click.testing import CliRunner

from chunkkit import prompts
from chunkkit.cli import main
from chunkkit.scoring import NGramScorer
from chunkkit.text import ChunkSet, load_chunksets, load_corpus, save_chunksets, save_corpus

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


# Three chunkings of mean length 24, 130.5 and 199: labels 0, 1 and 3. At
# anchor_len 12 the chunks of d0 of at most 24 characters become literal
# rules, and only d0's chunks fit inside one window of BUDGET characters.
RIVER = ("The river runs past the old mill and on into the quiet town below. "
         "Boats wait by the bank while the ferryman counts his coins twice. "
         "At dusk the lamps come on one by one along the stone embankment. "
         "Nobody hurries here, and the church bell marks every half hour.")
WINTER = ("Winter came early that year, and the pass closed before the last "
          "caravan reached the valley. The traders camped below the ridge and "
          "waited for a thaw that did not come until the first week of spring.")
SPANS = {"d0": [(0, 24), (25, 48), (50, 75), (76, 100)],
         "d1": [(0, 60), (60, 261)],
         "d2": [(0, 199)]}


@pytest.fixture
def labeled_inputs(tmp_path):
    """A corpus, its chunk-set file and a config for the dataset commands."""
    docs = [make_doc(TEXT, "d0"), make_doc(RIVER, "d1"), make_doc(WINTER, "d2")]
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(docs, corpus)
    chunksets = tmp_path / "chunksets.jsonl"
    save_chunksets([ChunkSet.from_spans(d, SPANS[d.id], "given") for d in docs],
                   chunksets)
    config = _write_json(tmp_path / "config.json", {"dataset": {
        "max_window_tokens": BUDGET, "anchor_len": 12, "router_target_chars": 100}})
    return ["--config", config], ["--corpus", str(corpus), "--chunksets", str(chunksets)]



def test_windows_body(runner, tmp_path, labeled_inputs):
    config, inputs = labeled_inputs
    out = tmp_path / "windows.jsonl"
    _invoke(runner, [*config, "dataset", "windows", *inputs[:2], "--out", str(out)])

    assert _body(out, header=True) == [
        f'{{"doc_id": "{doc_id}", "end": {end}, "start": {start}}}'
        for doc_id, start, end in [
            ("d0", 0, 50), ("d0", 50, 100),
            ("d1", 0, 60), ("d1", 60, 66), ("d1", 66, 126), ("d1", 126, 132),
            ("d1", 132, 192), ("d1", 192, 197), ("d1", 197, 257), ("d1", 257, 261),
            ("d2", 0, 60), ("d2", 60, 92), ("d2", 92, 152), ("d2", 152, 199)]
    ]


def test_label_body(runner, tmp_path, labeled_inputs):
    config, inputs = labeled_inputs
    out = tmp_path / "labels.jsonl"
    _invoke(runner, [*config, "dataset", "label", *inputs, "--out", str(out)])

    assert _body(out, header=True) == [
        '{"doc_id": "d0", "label": 0, "mean_length": 24.0}',
        '{"doc_id": "d1", "label": 1, "mean_length": 130.5}',
        '{"doc_id": "d2", "label": 3, "mean_length": 199.0}',
    ]


def test_rules_body(runner, tmp_path, labeled_inputs):
    config, inputs = labeled_inputs
    out = tmp_path / "rules.jsonl"
    _invoke(runner, [*config, "dataset", "rules", *inputs, "--out", str(out)])

    assert _body(out, header=True) == [
        '{"doc_id": "d0", "label": 0, "rules": ['
        '{"placeholder": null, "prefix": "Alpha one sentence here.", "suffix": ""}, '
        '{"placeholder": null, "prefix": "Beta two sentence here.", "suffix": ""}, '
        '{"placeholder": "[MASK]", "prefix": "Gamma three ", "suffix": "entence now."}, '
        '{"placeholder": null, "prefix": "Delta four sentence now.", "suffix": ""}]}',
        '{"doc_id": "d1", "label": 1, "rules": ['
        '{"placeholder": "[MASK]", "prefix": "The river ru", "suffix": " quiet town "}, '
        '{"placeholder": "[MASK]", "prefix": "below. Boats", "suffix": "y half hour."}]}',
        '{"doc_id": "d2", "label": 3, "rules": ['
        '{"placeholder": "[MASK]", "prefix": "Winter came ", "suffix": "k of spring."}]}',
    ]


def _expert_line(doc_id: str, window: str, target: str) -> str:
    prompt = prompts.render(prompts.RULE_CHUNK_PROMPT, text=window, placeholder="[MASK]")
    return f'{{"doc_id": "{doc_id}", "prompt": {json.dumps(prompt)}, "target": {target}}}'


def test_emit_bodies(runner, tmp_path, labeled_inputs):
    config, inputs = labeled_inputs
    out_dir = tmp_path / "emitted"
    _invoke(runner, [*config, "dataset", "emit", *inputs, "--out-dir", str(out_dir)])

    # a sample per window holding whole chunks: d0's two, and d1's first
    assert _body(out_dir / "expert_0.jsonl", header=False) == [
        _expert_line("d0", TEXT[:50], '"[\\n \\"Alpha one sentence here.\\",'
                                      '\\n \\"Beta two sentence here.\\"\\n]"'),
        _expert_line("d0", TEXT[50:], '"[\\n \\"Gamma three [MASK]entence now.\\",'
                                      '\\n \\"Delta four sentence now.\\"\\n]"'),
    ]
    assert _body(out_dir / "expert_1.jsonl", header=False) == [
        _expert_line("d1", RIVER[:60], '"[\\n \\"The river ru[MASK] quiet town \\"\\n]"'),
    ]
    assert _body(out_dir / "expert_2.jsonl", header=False) == []
    assert _body(out_dir / "expert_3.jsonl", header=False) == []
    assert _body(out_dir / "router.jsonl", header=False) == [
        '{"doc_id": "d0", "label": 0, "text": "Alpha one sentence here. '
        'Beta two sentence here.\\n\\nGamma three sentence now. Delta four sentence now."}',
        '{"doc_id": "d1", "label": 1, "text": "The river runs past the old mill '
        'and on into the quiet town "}',
        f'{{"doc_id": "d2", "label": 3, "text": "{WINTER}"}}',
    ]
    assert (out_dir / "manifest.json").read_text(encoding="utf-8") == (
        '{\n  "expert_counts": {\n    "0": 2,\n    "1": 1,\n    "2": 0,\n    "3": 0\n  },\n'
        '  "router_count": 3,\n  "total_samples": 6,\n  "warnings": [\n'
        '    "expert bucket 2 is empty",\n    "expert bucket 3 is empty"\n  ]\n}')


EVAL_DATA = Path(__file__).resolve().parent / "data" / "eval_seed1"
EVAL_K = 0.025


def _ppl(scorer, text: str, context: str | None = None) -> float:
    logprobs = scorer.score(text, context).logprobs
    return math.exp(-math.fsum(logprobs) / len(logprobs))


def _oracle(scorer, texts: list[str]) -> dict:
    """BC, the two stickiness variants (delta 0), each variant's edge count
    and every directed edge weight of one chunk set, from ``score`` alone."""
    n = len(texts)
    plain = [_ppl(scorer, t) for t in texts]
    given = {(q, d): _ppl(scorer, texts[q], texts[d])
             for q in range(n) for d in range(n) if q != d}
    weight = {qd: max(0.0, (plain[qd[0]] - ppl) / plain[qd[0]])
              for qd, ppl in given.items()}
    found = {"bc": fmean(given[j, j - 1] / plain[j] for j in range(1, n)),
             "weights": list(weight.values())}
    for name, pair_weight in (("cs_c", lambda i, j: max(weight[i, j], weight[j, i])),
                              ("cs_i", lambda i, j: weight[j, i])):
        degree = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if pair_weight(i, j) > EVAL_K:
                    degree[i] += 1
                    degree[j] += 1
        two_m = sum(degree)
        found[name] = -sum(h / two_m * math.log2(h / two_m) for h in degree if h)
        found[f"{name}_edges"] = two_m // 2
    return found


def test_eval_body_and_stickiness_oracle(runner, tmp_path):
    corpus = EVAL_DATA / "corpus.jsonl"
    config = _write_json(tmp_path / "config.json", {
        "scorer": {"kind": "ngram", "order": 3, "corpus": str(corpus)}})
    report = tmp_path / "report.jsonl"
    _invoke(runner, ["--config", config, "eval", "--corpus", str(corpus),
                     "--chunksets", str(EVAL_DATA / "reference.jsonl"),
                     "--metrics", "bc,cs_c,cs_i", "--k", str(EVAL_K),
                     "--out", str(report)])

    body = _body(report, header=True)
    assert body == (EVAL_DATA / "report_k0.025.jsonl").read_text(
        encoding="utf-8").splitlines()
    rows = {row["doc_id"]: row for row in map(json.loads, body)}
    docs = list(load_corpus(corpus))
    scorer = NGramScorer(order=3, corpus=[d.text for d in docs])
    chunksets = load_chunksets(EVAL_DATA / "reference.jsonl", {d.id: d for d in docs})
    assert len(chunksets) == 3
    for cs in chunksets:
        assert len(cs) >= 3
        found = _oracle(scorer, cs.texts())
        for metric in ("bc", "cs_c", "cs_i"):
            assert rows[cs.doc_id][metric] == pytest.approx(found[metric], rel=1e-9)
        # every graph keeps an edge, and no weight is close enough to K
        # that a last-bit difference could flip it
        assert found["cs_c_edges"] >= 1 and found["cs_i_edges"] >= 1
        assert min(abs(w - EVAL_K) for w in found["weights"]) > 1e-9
