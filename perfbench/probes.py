"""Counting proxies and spans, installed around chunkkit from outside.

Nothing in ``src/`` is edited. A public function is wrapped at the point
where the calling module binds it (``chunkkit.moc.route`` is what
``moc_chunk`` calls, ``chunkkit.cli.moc_chunk`` is what the CLI calls), and
a backend object built by the CLI gets counting wrappers on its own
``score`` / ``generate`` / ``embed`` methods, so its type and report name do
not change.

Backend counters are always on; they are the LM-cost metrics. Spans and
per-layer counts are recorded only when tracing. Spans stay in memory and
are written out once, with the rest of the client's result.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes on Linux


class SetupDone(BaseException):
    """Ends a set-up-only command at its first per-document call. A
    BaseException, so the CLI's own error handling lets it through."""


class Recorder:
    def __init__(self, trace: bool, setup_only: bool = False):
        self.trace = trace
        self.setup_only = setup_only
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []   # (id, name, start, end, parent, run)
        self.run = 0
        self.first_doc: float | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._ids = 0

    # -- counters ---------------------------------------------------------
    def add(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread of the program's fan-out: its work belongs to
            # the main thread's innermost open span
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            self._ids += 1
            sid = self._ids
        stack.append(sid)
        return sid, parent, stack

    def _close(self, name, sid, parent, stack, start) -> None:
        end = now()
        stack.pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent, self.run))

    def call(self, name: str, fn, args, kwargs, stats=None):
        """Run ``fn``, count the call and, when tracing, record its span."""
        self.add(name + ".calls")
        if not self.trace:
            result = fn(*args, **kwargs)
            if stats:
                stats(self, args, kwargs, result, None)
            return result
        sid, parent, stack = self._open()
        start = now()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(name, sid, parent, stack, start)
            if stats:
                stats(self, args, kwargs, None, exc)
            raise
        self._close(name, sid, parent, stack, start)
        if stats:
            stats(self, args, kwargs, result, None)
        return result

    # -- installation -----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, stats=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, stats)

        setattr(owner, attr, traced)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a function returning a lazy iterator: each
        step of the iteration is a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = self.call(name, fn, args, kwargs)

            def steps():
                while True:
                    sid, parent, stack = self._open()
                    start = now()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, sid, parent, stack, start)
                    yield item
            return steps()

        setattr(owner, attr, traced)

    def mark_first_doc(self, owner, attr: str) -> None:
        """Set-up ends when the command first enters per-document work."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if self.first_doc is None:
                self.first_doc = now()
            if self.setup_only:
                raise SetupDone
            return fn(*args, **kwargs)

        setattr(owner, attr, marked)

    # -- backends -----------------------------------------------------------
    def instrument(self, backend):
        """Count LM work on one backend object; trace it when tracing."""
        if backend is None or getattr(backend, "_perfbench", False):
            return backend
        backend._perfbench = True
        http = type(backend).__module__.endswith(".backends")
        if hasattr(backend, "score"):
            self._method(backend, "score", "scoring.score", _score_stats, http)
        if hasattr(backend, "generate"):
            self._method(backend, "generate", "scoring.generate", _generate_stats, http)
        if hasattr(backend, "embed_many"):
            depth = threading.local()
            self._method(backend, "embed", "scoring.embed", _embed_one, http, depth)
            self._method(backend, "embed_many", "scoring.embed", _embed_many, http, depth)
        return backend

    def _method(self, backend, attr, name, stats, http, depth=None) -> None:
        fn = getattr(backend, attr)

        def counted(*args, **kwargs):
            level = getattr(depth, "level", 0) if depth else 0
            if level:  # embed called from embed_many: counted by the outer call
                return fn(*args, **kwargs)
            if depth:
                depth.level = 1
            try:
                start = now()
                result = self.call(name, fn, args, kwargs, stats)
                if http and self.trace:
                    self.add("backends.http.busy_s", now() - start)
                    self.add("backends.http.calls")
                return result
            finally:
                if depth:
                    depth.level = 0

        setattr(backend, attr, counted)


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _score_stats(rec, args, kwargs, result, exc):
    rec.add("scoring.score.text_chars", len(_arg(args, kwargs, 0, "text")))
    rec.add("scoring.score.context_chars", len(_arg(args, kwargs, 1, "context") or ""))


def _generate_stats(rec, args, kwargs, result, exc):
    rec.add("scoring.generate.prompt_chars", len(_arg(args, kwargs, 0, "prompt")))


def _embed_one(rec, args, kwargs, result, exc):
    rec.add("scoring.embed.texts")
    rec.add("scoring.embed.chars", len(_arg(args, kwargs, 0, "text")))


def _embed_many(rec, args, kwargs, result, exc):
    texts = _arg(args, kwargs, 0, "texts")
    rec.add("scoring.embed.texts", len(texts))
    rec.add("scoring.embed.chars", sum(len(t) for t in texts))


# -- per-layer counts, recorded only when tracing -------------------------

def _split_stats(rec, args, kwargs, result, exc):
    doc = _arg(args, kwargs, 0, "doc")
    rec.add("text.split_sentences.chars", len(getattr(doc, "text", doc)))


def _graph_stats(rec, args, kwargs, result, exc):
    if result is None:
        return
    n, delta = result.n, result.delta
    pairs = n * (n - 1) // 2
    if result.variant == "sequence":
        pairs -= sum(n - d for d in range(1, min(delta, n - 1) + 1))
    rec.add("metrics.build_graph.pairs", pairs)
    rec.add("metrics.build_graph.edges_kept", result.edge_count)


def _dissimilarity_stats(rec, args, kwargs, result, exc):
    rec.add("metrics.dissimilarity.pairs", len(list(_arg(args, kwargs, 0, "chunks"))) - 1)


def _match_stats(rec, args, kwargs, result, exc):
    needle = _arg(args, kwargs, 0, "needle")
    hay = len(_arg(args, kwargs, 1, "haystack")) - _arg(args, kwargs, 2, "search_from", 0)
    rec.add("fuzzy.best_substring_match.needle_chars", len(needle))
    rec.add("fuzzy.best_substring_match.haystack_chars", hay)
    rec.add("fuzzy.best_substring_match.cells", len(needle) * hay)


def _anchor_stats(rec, args, kwargs, result, exc):
    rec.add("fuzzy.recover_anchor.rejected" if exc else "fuzzy.recover_anchor.accepted")


def _verdict_stats(rec, args, kwargs, result, exc):
    if result is not None:
        rec.add("dataset.detect_hallucination.exact", int(result.min_edit_distance == 0))
        rec.add("dataset.detect_hallucination.flagged", int(result.flagged))


def _windows_stats(rec, args, kwargs, result, exc):
    rec.add("dataset.sliding_windows.windows", len(result or ()))


def _distill_stats(rec, args, kwargs, result, exc):
    if result is not None:
        rec.add("dataset.distill_document.windows", result.window_count)
        rec.add("dataset.distill_document.failed_windows", result.failed_windows)


def _rules_stats(rec, args, kwargs, result, exc):
    rec.add("rules.parse_rule_list.rules", len(result or ()))


def install(rec: Recorder) -> None:
    """Wrap the CLI's backend builders and, when tracing, every layer."""
    from chunkkit import chunkers, cli, config, dataset, fuzzy, metrics, moc, text

    for name in ("evaluate_chunksets", "calibrate_avg_len", "chunk_semantic",
                 "moc_chunk", "distill_document"):
        rec.mark_first_doc(cli, name)

    def builder(owner, attr, name):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def build(*args, **kwargs):
            built = rec.call(name, fn, args, kwargs)
            for backend in (built.values() if isinstance(built, dict) else [built]):
                rec.instrument(backend)
            return built

        setattr(owner, attr, build)

    for attr in ("build_scorer", "build_embedder", "build_generator", "build_experts"):
        builder(cli, attr, f"config.{attr}")
    if not rec.trace:
        return

    rec.wrap(config, "build_generator", "config.build_generator")  # inside build_experts
    rec.wrap(cli, "load_config", "config.load_config")
    for owner in (cli, text):  # config loads the n-gram corpus through text
        rec.wrap_iter(owner, "load_corpus", "text.load_corpus")
    rec.wrap(cli, "load_chunksets", "text.load_chunksets")
    rec.wrap(cli, "save_chunksets", "text.save_chunksets")
    rec.wrap(cli, "evaluate_chunksets", "metrics.evaluate_chunksets")
    rec.wrap(metrics, "boundary_clarity", "metrics.boundary_clarity")
    rec.wrap(metrics, "build_graph", "metrics.build_graph", _graph_stats)
    rec.wrap(metrics, "dissimilarity", "metrics.dissimilarity", _dissimilarity_stats)
    for owner in (cli, chunkers):  # calibration calls the chunker per step
        rec.wrap(owner, "chunk_semantic", "chunkers.chunk_semantic")
    rec.wrap(cli, "calibrate_avg_len", "chunkers.calibrate_avg_len")
    for owner in (chunkers, dataset):
        rec.wrap(owner, "split_sentences", "text.split_sentences", _split_stats)
    for owner in (cli, dataset, moc):
        rec.wrap(owner, "sliding_windows", "dataset.sliding_windows", _windows_stats)
    rec.wrap(cli, "moc_chunk", "moc.moc_chunk")
    rec.wrap(moc, "route", "moc.route")
    rec.wrap(moc, "generate_rules", "moc.generate_rules")
    rec.wrap(moc, "parse_rule_list", "rules.parse_rule_list", _rules_stats)
    rec.wrap(moc, "recover_anchor", "fuzzy.recover_anchor", _anchor_stats)
    for owner in (fuzzy, dataset):  # recover_anchor and detect_hallucination
        rec.wrap(owner, "best_substring_match", "fuzzy.best_substring_match", _match_stats)
    rec.wrap(cli, "distill_document", "dataset.distill_document", _distill_stats)
    for owner in (cli, dataset):
        rec.wrap(owner, "detect_hallucination", "dataset.detect_hallucination",
                 _verdict_stats)
