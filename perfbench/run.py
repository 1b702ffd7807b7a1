"""chunkkit benchmark: seeded corpus, CLI end to end, checked outputs.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. The
benchmark writes the workload's inputs into a scratch directory under
``.perfbench_work/``, then runs passes until ``--seconds`` have gone by.
A pass is one fresh client process (``client.py``) that runs the
workload's chunkkit commands in order: a closed loop with one client, and
for ``eval-http`` one fake LM server process. Every output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over passes); with ``--trace 1`` passes
alternate untraced and traced and the object holds the per-layer metrics
of the traced passes plus the tracing overhead. See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent

WORKLOADS = ("eval", "chunk", "distill", "eval-http")
MIN_PASSES = 3
MIN_SETUPS = 9            # set-up samples for the setup_s median of an untraced run
PASS_TIMEOUT = 150        # seconds; a run must end within 180
TOLERANCE = 1e-9          # relative, for values the checks recompute

_EVAL = ["eval", "--corpus", "corpus.jsonl", "--chunksets", "reference.jsonl",
         "--out", "report.jsonl"]
COMMANDS = {
    "eval": [["--config", "config.json", "--concurrency", "1", *_EVAL,
              "--metrics", "bc,cs_c,cs_i,ds"]],
    "chunk": [
        ["--config", "config.json", "chunk", "--corpus", "corpus.jsonl",
         "--out", "semantic.jsonl", "--method", "semantic", "--calibrate-avg", "178"],
        ["--config", "config.json", "chunk", "--corpus", "corpus.jsonl",
         "--out", "moc.jsonl", "--method", "moc", "--report", "moc_report.jsonl"],
    ],
    "distill": [["--config", "config.json", "dataset", "distill",
                 "--corpus", "corpus.jsonl", "--out-dir", "distilled"]],
    "eval-http": [["--config", "config.json", "--concurrency", "2", *_EVAL,
                   "--metrics", "bc,cs_i"]],
}
OUTPUTS = {  # files a pass writes; the ones with a report header are marked
    "eval": [("report.jsonl", True)],
    "chunk": [("semantic.jsonl", False), ("moc.jsonl", False),
              ("moc_report.jsonl", True)],
    "distill": [("distilled/chunksets.jsonl", False), ("distilled/verdicts.jsonl", True),
                ("distilled/manifest.json", False)],
    "eval-http": [("report.jsonl", True)],
}

# Throughput of these workloads is bound by the fake server's fixed service
# time, not by the speed of one CPU: it is reported in wall-clock time.
WALL_CLOCK = ("eval-http",)
# figures that are counts of work and must repeat exactly from pass to pass
EXACT = ("lm_calls", "lm_chars", "score_calls", "scored_chars", "generate_calls",
         "prompt_chars", "embed_texts", "http_requests")
END_TO_END = [("setup_s", "s"), ("chars_per_s", "chars/s"), ("peak_rss_mb", "MiB"),
              ("lm_calls", "count"), ("lm_chars", "chars")]

# per-layer metrics from the traced passes: (name, unit)
_LAYER_COUNTS = [
    "scoring.score.calls", "scoring.score.text_chars", "scoring.score.context_chars",
    "scoring.generate.calls", "scoring.generate.prompt_chars",
    "scoring.embed.texts", "scoring.embed.chars",
    "metrics.boundary_clarity.calls", "metrics.build_graph.calls",
    "metrics.build_graph.pairs", "metrics.build_graph.edges_kept",
    "metrics.dissimilarity.calls", "metrics.dissimilarity.pairs",
    "chunkers.calibrate_avg_len.calls", "chunkers.chunk_semantic.calls",
    "fuzzy.best_substring_match.calls", "fuzzy.best_substring_match.needle_chars",
    "fuzzy.best_substring_match.haystack_chars", "fuzzy.best_substring_match.cells",
    "fuzzy.recover_anchor.calls", "fuzzy.recover_anchor.accepted",
    "fuzzy.recover_anchor.rejected",
    "dataset.detect_hallucination.calls", "dataset.detect_hallucination.exact",
    "dataset.detect_hallucination.flagged",
    "dataset.sliding_windows.calls", "dataset.sliding_windows.windows",
    "dataset.distill_document.calls", "dataset.distill_document.windows",
    "dataset.distill_document.failed_windows",
    "text.split_sentences.calls", "text.split_sentences.chars",
    "moc.route.calls", "moc.generate_rules.calls", "moc.moc_chunk.calls",
    "rules.parse_rule_list.calls", "rules.parse_rule_list.rules",
]
_LAYER_BUSY = [
    "scoring.score", "scoring.generate", "scoring.embed",
    "chunkers.calibrate_avg_len", "chunkers.chunk_semantic",
    "fuzzy.best_substring_match", "dataset.detect_hallucination",
    "text.split_sentences", "moc.route", "moc.generate_rules", "moc.moc_chunk",
    "rules.parse_rule_list", "text.load_corpus", "text.load_chunksets",
    "text.save_chunksets", "config.load_config", "config.build_scorer",
    "config.build_embedder", "config.build_generator", "config.build_experts",
]
_LAYER_SELF = [
    "metrics.boundary_clarity", "metrics.build_graph", "metrics.dissimilarity",
    "dataset.sliding_windows", "dataset.distill_document",
    "moc.route", "moc.generate_rules", "moc.moc_chunk", "cli",
]


def _count_unit(name: str) -> str:
    return "chars" if name.endswith("_chars") or name.endswith(".chars") else "count"


PER_LAYER = (
    [(n, _count_unit(n)) for n in _LAYER_COUNTS]
    + [(f"{n}.busy_s", "s") for n in _LAYER_BUSY]
    + [(f"{n}.self_s", "s") for n in _LAYER_SELF]
    + [("fuzzy.recover_anchor.accept_ratio", "ratio"),
       ("moc.rules.exact", "count"), ("moc.rules.recovered", "count"),
       ("moc.rules.failed", "count"),
       ("backends.http.requests", "count"), ("backends.http.request_bytes", "bytes"),
       ("backends.http.retries", "count"), ("backends.http.busy_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


class Checks:
    """Output checks; every failed one counts against ``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _body(path: Path, header: bool) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[1:] if header else lines


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.9e}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def report_digest(path: Path) -> str:
    """sha256 of a report body, floats cut to ten significant digits so the
    last bit of another CPU's arithmetic does not count."""
    body = [json.dumps(_rounded(json.loads(line)), sort_keys=True)
            for line in _body(path, header=True)]
    return hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()


def _outputs_digest(workload: str, work: Path) -> str:
    digest = hashlib.sha256()
    for name, header in OUTPUTS[workload]:
        path = work / name
        if path.exists():
            digest.update("\n".join(_body(path, header)).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


# -- checks ------------------------------------------------------------------

def _ppl(scorer, text: str, context: str | None = None) -> float:
    return math.exp(-statistics.fmean(scorer.score(text, context=context).logprobs))


def _close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=TOLERANCE)


def expected_score_calls(workload: str, reference) -> int:
    """Closed form of ``Scorer.score`` calls for the eval metrics, per
    document with n >= 2 chunks: bc 2(n-1), cs_c n + n(n-1), cs_i (delta 0)
    n + n(n-1)/2."""
    total = 0
    for cs in reference:
        n = len(cs)
        if n < 2:
            continue
        total += 2 * (n - 1) + n + n * (n - 1) // 2
        if workload == "eval":
            total += n + n * (n - 1)
    return total


def _check_eval(workload, work, inputs, seed, counts, checks) -> None:
    from chunkkit.scoring import NGramScorer
    from corpus import NGRAM_ORDER

    rows = {r["doc_id"]: r for r in map(json.loads, _body(work / "report.jsonl", True))}
    recorded = json.loads((BENCH / "digests.json").read_text())[workload].get(str(seed))
    if recorded is not None:
        checks("report body digest", report_digest(work / "report.jsonl") == recorded,
               "report body differs from the recorded one")
    checks("score calls closed form",
           counts.get("scoring.score.calls") == expected_score_calls(workload, inputs.reference),
           f"{counts.get('scoring.score.calls')} calls, closed form "
           f"{expected_score_calls(workload, inputs.reference)}")

    scorer = NGramScorer(order=NGRAM_ORDER, corpus=[d.text for d in inputs.docs])
    for cs in inputs.reference:
        texts = cs.texts()
        pairs = list(zip(texts, texts[1:]))
        bcs = [_ppl(scorer, q, d) / _ppl(scorer, q) for d, q in pairs]
        row = rows.get(cs.doc_id, {})
        checks(f"bc {cs.doc_id}", _close(row.get("bc"), statistics.fmean(bcs)),
               f"report {row.get('bc')}, recomputed {statistics.fmean(bcs)}")

    # cs_i of the smallest document from Edge values: a sequence graph
    # with delta 0 keeps pairs i < j whose Edge(j | i) exceeds k = 0.8
    cs = min(inputs.reference, key=len)
    texts = cs.texts()
    plain = [_ppl(scorer, t) for t in texts]
    degrees = [0] * len(texts)
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            edge = max(0.0, (plain[j] - _ppl(scorer, texts[j], texts[i])) / plain[j])
            if edge > 0.8:
                degrees[i] += 1
                degrees[j] += 1
    two_m = sum(degrees)
    cs_i = -sum(h / two_m * math.log2(h / two_m) for h in degrees if h) if two_m else 0.0
    got = rows.get(cs.doc_id, {}).get("cs_i")
    checks(f"cs_i {cs.doc_id}", _close(got, cs_i) or got == cs_i == 0.0,
           f"report {got}, recomputed {cs_i}")


def _chunksets(name, work, docs, checks) -> dict:
    from chunkkit.errors import ChunkKitError
    from chunkkit.text import load_chunksets

    try:
        sets = load_chunksets(work / name, docs)
    except (OSError, ValueError, ChunkKitError) as exc:
        checks(f"{name} loads", False, str(exc))
        return {}
    for cs in sets:
        try:
            cs.validate_against(docs[cs.doc_id])
            checks(f"{name} {cs.doc_id} validates", True)
        except ValueError as exc:
            checks(f"{name} {cs.doc_id} validates", False, str(exc))
    return {cs.doc_id: cs for cs in sets}


def _check_chunk(work, inputs, checks) -> None:
    docs = {d.id: d for d in inputs.docs}
    for doc_id, cs in _chunksets("semantic.jsonl", work, docs, checks).items():
        spans = [(c.start, c.end) for c in cs.chunks]
        tiles = (spans[0][0] == 0 and spans[-1][1] == len(docs[doc_id].text)
                 and all(a[1] == b[0] for a, b in zip(spans, spans[1:])))
        checks(f"semantic {doc_id} tiles the document", tiles)
    moc = _chunksets("moc.jsonl", work, docs, checks)
    for ref in inputs.reference:
        want = {(c.start, c.end) for c in ref.chunks
                if (ref.doc_id, c.start) not in inputs.corrupted}
        got = {(c.start, c.end) for c in moc[ref.doc_id].chunks} if ref.doc_id in moc else set()
        checks(f"moc {ref.doc_id} reproduces uncorrupted reference spans", want <= got,
               f"{len(want - got)} of {len(want)} missing")


def _check_distill(work, inputs, checks) -> None:
    _chunksets("distilled/chunksets.jsonl", work, {d.id: d for d in inputs.docs}, checks)
    flagged = sum(json.loads(line)["flagged"]
                  for line in _body(work / "distilled/verdicts.jsonl", True))
    checks("flagged chunks equal rewritten chunks", flagged == inputs.rewritten,
           f"{flagged} flagged, {inputs.rewritten} rewritten")


def check_outputs(workload, work, inputs, seed, counts, checks) -> None:
    """The full output checks, made on the first pass."""
    try:
        if workload in ("eval", "eval-http"):
            _check_eval(workload, work, inputs, seed, counts, checks)
        elif workload == "chunk":
            _check_chunk(work, inputs, checks)
        else:
            _check_distill(work, inputs, checks)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
        checks("outputs readable", False, repr(exc))


def document_outcomes(workload: str, work: Path, inputs) -> tuple[int, int]:
    """(attempted, failed) documents over the workload's commands; a
    document fails when its output record is missing or incomplete."""
    ids = {d.id for d in inputs.docs}
    if workload in ("eval", "eval-http"):
        files = ["report.jsonl"]
    elif workload == "chunk":
        files = ["semantic.jsonl", "moc.jsonl"]
    else:
        files = ["distilled/chunksets.jsonl"]
    failed = 0
    for name in files:
        path = work / name
        done = set()
        if path.exists():
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if record.get("doc_id") in ids and None not in record.values():
                    done.add(record["doc_id"])
        failed += len(ids - done)
    return len(ids) * len(files), failed


# -- passes --------------------------------------------------------------------

def _no_proxy_get(url: str) -> dict:
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(url, timeout=10) as response:
        return json.load(response)


def run_pass(workload, work, env, trace, server_url, deadline, setup_only=False) -> dict:
    for name, _ in OUTPUTS[workload]:
        (work / name).unlink(missing_ok=True)
    spec = work / "spec.json"
    spec.write_text(json.dumps({"commands": COMMANDS[workload], "trace": trace,
                                "setup_only": setup_only,
                                "sample_speed": workload not in WALL_CLOCK}))
    before = _no_proxy_get(server_url + "/stats") if server_url else None
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "client.py"), repr(spawned), "spec.json", "result.json"],
        cwd=work, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((work / "result.json").read_text())
    result["stderr"] = proc.stderr
    if server_url:
        after = _no_proxy_get(server_url + "/stats")
        result["http"] = {k: after[k] - before[k] for k in after}
    return result


def _span(start: float, end: float, pauses) -> float:
    """Time from start to end, less the speed samples taken in between."""
    return end - start - sum(hi - lo for lo, hi in pauses if start <= lo < end)


def pass_figures(result: dict, chars: int, workload: str) -> dict:
    """One pass's end-to-end figures. Times are scaled to the reference
    host speed (see reference.py); the wall-clock ones are kept too."""
    commands, pauses = result["commands"], result["pauses"]
    setup = sum(_span(c["start"], c["first_doc"], pauses) for c in commands)
    work = sum(_span(c["first_doc"], c["end"], pauses) for c in commands)
    speed = result["host_speed"]
    counts = Counter(result["counts"])
    return {
        "setup_s": setup * speed,
        "chars_per_s": (chars / (work * (1.0 if workload in WALL_CLOCK else speed))
                        if work > 0 else 0.0),
        "peak_rss_mb": result["peak_rss_mb"],
        "lm_calls": counts["scoring.score.calls"] + counts["scoring.generate.calls"]
        + counts["scoring.embed.texts"],
        "lm_chars": counts["scoring.score.text_chars"] + counts["scoring.score.context_chars"]
        + counts["scoring.generate.prompt_chars"] + counts["scoring.embed.chars"],
        "wall_setup_s": setup,
        "wall_chars_per_s": chars / work if work > 0 else 0.0,
        "host_speed": speed,
        # the per-backend counters, printed by name alongside the totals
        "score_calls": counts["scoring.score.calls"],
        "scored_chars": counts["scoring.score.text_chars"]
        + counts["scoring.score.context_chars"],
        "generate_calls": counts["scoring.generate.calls"],
        "prompt_chars": counts["scoring.generate.prompt_chars"],
        "embed_texts": counts["scoring.embed.texts"],
        "http_requests": result.get("http", {}).get("requests", 0),
    }


def _self_times(spans) -> tuple[Counter, Counter]:
    """Busy and self time per span name; self time is a span's duration
    minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, name, start, end, parent, run in spans:
        if parent is not None:
            children[parent].append((start, end))
    busy, own = Counter(), Counter()
    for sid, name, start, end, parent, run in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        busy[name] += end - start
        own[name] += end - start - covered
    return busy, own


def layer_figures(result: dict, work: Path, workload: str) -> dict:
    counts = Counter(result["counts"])
    busy, own = _self_times(result["spans"])
    values = {name: float(counts[name]) for name in _LAYER_COUNTS}
    values.update({f"{n}.busy_s": busy[n] for n in _LAYER_BUSY})
    values.update({f"{n}.self_s": own[n] for n in _LAYER_SELF})
    calls = counts["fuzzy.recover_anchor.calls"]
    values["fuzzy.recover_anchor.accept_ratio"] = (
        counts["fuzzy.recover_anchor.accepted"] / calls if calls else 0.0)
    modes = Counter()
    if workload == "chunk":
        for line in _body(work / "moc_report.jsonl", True):
            modes.update(rule["mode"] for rule in json.loads(line)["rules"])
    for mode in ("exact", "recovered", "failed"):
        values[f"moc.rules.{mode}"] = float(modes[mode])
    http = result.get("http", {})
    values["backends.http.requests"] = float(http.get("requests", 0))
    values["backends.http.request_bytes"] = float(http.get("request_bytes", 0))
    values["backends.http.retries"] = float(
        http.get("requests", 0) - counts["backends.http.calls"]) if http else 0.0
    values["backends.http.busy_s"] = counts["backends.http.busy_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the fake server and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "chunkkit" / "__init__.py").is_file():
        print(f"error: {src}/chunkkit not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import corpus

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
           "NO_PROXY": "127.0.0.1,localhost", "no_proxy": "127.0.0.1,localhost"}
    server = None
    try:
        inputs = corpus.build(args.workload, args.seed, work)
        server_url = None
        if args.workload == "eval-http":
            server = subprocess.Popen(
                [sys.executable, str(BENCH / "fake_server.py"), "corpus.jsonl",
                 str(corpus.NGRAM_ORDER)],
                cwd=work, env=env, stdout=subprocess.PIPE, text=True)
            port = int(server.stdout.readline().split()[1])
            server_url = f"http://127.0.0.1:{port}"
            corpus.write_config(args.workload, work, port)
        else:
            corpus.write_config(args.workload, work)

        checks = Checks()
        docs_attempted = docs_failed = 0
        plain, traced, durations, spans = [], [], [], []
        first = None
        measuring = last = time.monotonic()
        deadline = started + PASS_TIMEOUT
        while True:
            trace = bool(args.trace) and len(plain) > len(traced)
            result = run_pass(args.workload, work, env, trace, server_url, deadline)
            figures = pass_figures(result, inputs.chars, args.workload)
            attempted, failed = document_outcomes(args.workload, work, inputs)
            docs_attempted += attempted
            docs_failed += failed
            codes = [c["code"] for c in result["commands"]]
            checks("commands exit 0", codes == [0] * len(codes),
                   f"exit codes {codes}: {result['stderr'][-2000:]}")
            if first is None:
                first = (figures, _outputs_digest(args.workload, work))
                check_outputs(args.workload, work, inputs, args.seed,
                              result["counts"], checks)
            else:
                checks("outputs repeat exactly",
                       _outputs_digest(args.workload, work) == first[1])
                checks("counters repeat exactly",
                       all(figures[k] == first[0][k] for k in EXACT))
            if args.workload == "eval-http":
                checks("one request per score call",
                       figures["http_requests"] == figures["score_calls"])
            if trace:
                traced.append((figures, layer_figures(result, work, args.workload)))
                spans += [{"pass": len(durations), "run": run, "id": sid, "parent": parent,
                           "name": name, "start": start, "end": end}
                          for sid, name, start, end, parent, run in result["spans"]]
            else:
                plain.append(figures)
            # stop before a pass that would end past --seconds
            now = time.monotonic()
            durations.append(now - last)
            last = now
            enough = len(plain) + len(traced) >= MIN_PASSES * (1 + args.trace)
            if enough and (now + statistics.median(durations) > measuring + args.seconds
                           or now + statistics.median(durations) > deadline):
                break
        # workloads with few, long passes get set-up-only passes, which stop
        # each command at its first document, so setup_s is a median of
        # MIN_SETUPS samples on every workload
        setups = [p["setup_s"] for p in plain]
        while not args.trace and len(setups) < MIN_SETUPS:
            result = run_pass(args.workload, work, env, False, server_url, deadline,
                              setup_only=True)
            codes = [c["code"] for c in result["commands"]]
            checks("set-up-only commands exit 0", codes == [0] * len(codes),
                   f"exit codes {codes}: {result['stderr'][-2000:]}")
            setups.append(pass_figures(result, inputs.chars, args.workload)["setup_s"])
    finally:
        if server is not None:
            server.terminate()
            server.wait(timeout=30)
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    if spans:
        out = root / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        out.write_text("".join(json.dumps(span) + "\n" for span in spans))

    e2e = {name: statistics.median([p[name] for p in plain]) for name in plain[0]}
    if not args.trace:
        e2e["setup_s"] = statistics.median(setups)
    attempted = docs_attempted + checks.attempted
    failed = docs_failed + len(checks.failures)
    print(f"workload={args.workload} seed={args.seed} chars={inputs.chars} "
          f"passes={len(plain)} untraced, {len(traced)} traced; {len(setups)} set-ups")
    shown = [*END_TO_END, ("wall_setup_s", "s"), ("wall_chars_per_s", "chars/s"),
             ("host_speed", "ratio"), ("score_calls", "count"), ("scored_chars", "chars"),
             ("generate_calls", "count"), ("prompt_chars", "chars"),
             ("embed_texts", "count"), ("http_requests", "count")]
    for name, unit in shown:
        print(f"  {name:<16} {e2e[name]:>14.6g} {unit}")
    print(f"  {'failed_ratio':<16} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted}: documents and output checks)")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    if args.trace:
        layers = {name: statistics.median([t[1][name] for t in traced]) for name, _ in PER_LAYER
                  if name != "trace.overhead_ratio"}
        layers["trace.overhead_ratio"] = (
            e2e["chars_per_s"] / statistics.median([t[0]["chars_per_s"] for t in traced]))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        print(f"  tracing overhead: untraced/traced chars_per_s = "
              f"{layers['trace.overhead_ratio']:.4f}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
