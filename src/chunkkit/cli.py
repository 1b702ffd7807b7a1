"""Command-line entry point wiring corpora, backends, chunkers, and metrics.

Reports are line-oriented JSON: the first line is a header record (the only
place timestamps live, so bodies diff cleanly), followed by one record per
document and one aggregate record. Reports and chunk sets are written as the
run goes into a temporary file beside each one, which replaces it only when
the command completes: an interrupted run leaves the old output as it was.
``dataset emit`` holds its training samples in memory and stages its files
the same way at the end. Only this module and ``text`` write files.
``concurrency`` reaches only ``eval``'s scorer: an HTTP scorer sends each
request list on that many threads, at most its ``max_in_flight``, and an
offline scorer ignores it.

``chunk``, ``eval`` and ``dataset distill/rules/label/emit`` share one
per-document driver: a document whose work fails gets one ``error: doc
<id>: ...`` line, and the other documents still reach the output. Exit
codes: 0 success; 1 a failed document or a data error (a malformed input
line, a backend fault); 2 a configuration error. Every error is one
``error:`` line.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from statistics import fmean
from typing import Callable, Iterable, Iterator

import click

from . import __version__
from .chunkers import calibrate_avg_len, chunk_boundary_aware, chunk_fixed, chunk_semantic
from .config import (
    CHUNK_METHODS,
    RunConfig,
    build_embedder,
    build_experts,
    build_generator,
    build_scorer,
    finite_number,
    load_config,
    override,
)
from .dataset import (
    detect_hallucination,
    distill_document,
    expert_samples,
    make_rules,
    router_text,
    sliding_windows,
)
from .errors import ChunkKitError, ConfigError, CorpusFormatError
from .metrics import METRIC_BACKENDS, evaluate_chunksets, pearson
from .moc import moc_chunk
from .rules import GranularityLabel, label_for_mean
from .text import (
    ChunkSet,
    Document,
    load_chunksets,
    load_corpus,
    read_jsonl,
    save_chunksets,
    write_jsonl,
)

_Failures = list[tuple[str, str]]  # (doc_id, message) of each failed document
# an input file: a missing path or a directory is a usage error (exit 2)
_INPUT_FILE = click.Path(exists=True, dir_okay=False)
# an output directory: an existing file there is a usage error (exit 2)
_OUTPUT_DIR = click.Path(file_okay=False)


class _FiniteFloat(click.types.FloatParamType):
    """A float option that takes no NaN or infinity (a usage error, exit 2)."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return number


_FINITE = _FiniteFloat()


@contextmanager
def _staged(path: str | Path) -> Iterator[Path]:
    """A temporary path beside ``path`` that replaces it when the block ends
    normally and is removed on any other exit. A path with no file name
    (``''``, ``.``, ``/``), or a failure to write or rename the temporary
    file, is a ChunkKitError that names ``path``."""
    given, path = path, Path(path)
    if not path.name:
        raise ChunkKitError(f"{given!r}: not a file name")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != os.fspath(tmp):
            raise
        raise ChunkKitError(f"{given}: {exc.strerror}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _out_dir(path: str) -> Path:
    """Create an output directory and its parents. A failure, such as a
    file where a parent should be, is a ChunkKitError that names ``path``."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ChunkKitError(f"{path}: {exc.strerror}") from exc
    return out


@contextmanager
def _report(path: str | Path, params: dict) -> Iterator[Callable[[dict], None]]:
    """Write a report as the run goes: the header record first, then one
    line per call of the yielded ``write(record)``. ``-`` is stdout."""
    with (nullcontext() if path == "-" else _staged(path)) as tmp, \
            (open(tmp, "w", encoding="utf-8") if tmp
             else nullcontext(sys.stdout)) as fh:
        def write(record: dict) -> None:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")

        write({"_header": {"tool": f"chunkkit {__version__}",
                           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                           **params}})
        yield write


def _each_doc(items: Iterable[tuple[str, object]], work: Callable,
              failures: _Failures) -> Iterator:
    """The per-document driver: yield ``work(item)`` for each ``(doc_id,
    item)`` in order. A document whose work raises a ChunkKitError yields
    nothing; ``(doc_id, message)`` is appended to ``failures`` instead."""
    for doc_id, item in items:
        try:
            result = work(item)
        except ChunkKitError as exc:
            failures.append((doc_id, str(exc)))
            continue
        yield result


def _load_docs(corpus: str) -> dict[str, Document]:
    return {d.id: d for d in load_corpus(corpus)}


def _owned(backend):
    """``backend``, closed when the running command ends if it has a
    ``close`` (an HTTP client holds connections; an offline backend none)."""
    if hasattr(backend, "close"):
        click.get_current_context().call_on_close(backend.close)
    return backend


def _backend_name(backend) -> str | None:
    """Class name, plus the remote model id when the backend has one."""
    if backend is None:
        return None
    model = getattr(getattr(backend, "handle", None), "model", None)
    name = type(backend).__name__
    return f"{name}:{model}" if model else name


def _labeled(chunksets: Iterable[ChunkSet],
             failures: _Failures) -> Iterator[tuple[ChunkSet, GranularityLabel]]:
    """Every chunk set with the granularity label of its mean chunk length.
    An empty chunk set, which no command writes but a chunk-set file may
    hold, has none: it fails its document."""
    def label(cs: ChunkSet) -> tuple[ChunkSet, GranularityLabel]:
        if not cs.chunks:
            raise ChunkKitError("cannot label an empty chunk set")
        return cs, label_for_mean(cs.mean_length())

    return _each_doc(((cs.doc_id, cs) for cs in chunksets), label, failures)


class _Group(click.Group):
    """The command group, and the one place errors become exit codes: a
    ConfigError exits 2; any other ChunkKitError, and the ``(doc_id,
    message)`` failures a per-document command returns, exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            failures = super().invoke(ctx) or []
        except ChunkKitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, ConfigError) else 1)
        for doc_id, message in failures:
            click.echo(f"error: doc {doc_id}: {message}", err=True)
        if failures:
            sys.exit(1)


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON or YAML run configuration.")
@click.option("--concurrency", type=int, default=None,
              help="Overrides the config's concurrency (1-64): the threads "
                   "on which eval's HTTP scorer sends each metric's requests, "
                   "at most its max_in_flight. Offline scorers and other "
                   "commands ignore it.")
@click.version_option(__version__)
@click.pass_context
def main(ctx: click.Context, config_path: str | None,
         concurrency: int | None) -> None:
    """Chunking toolkit: chunk corpora, score chunkings, build datasets."""
    config = load_config(config_path) if config_path else RunConfig()
    if concurrency is not None:
        config = replace(config, concurrency=concurrency)
    ctx.obj = config


@main.command("chunk")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--out", required=True, type=click.Path())
@click.option("--method", type=click.Choice(CHUNK_METHODS),
              default=None, help="Overrides chunker.method from config.")
@click.option("--target-len", type=int, default=None)
@click.option("--overlap", type=int, default=None)
@click.option("--threshold", type=_FINITE, default=None)
@click.option("--calibrate-avg", type=_FINITE, default=None,
              help="Calibrate the size knob (not moc) to this corpus mean chunk length.")
@click.option("--placeholder", default=None)
@click.option("--max-window", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Where to write per-rule extraction reports (moc only).")
@click.pass_obj
def cmd_chunk(config: RunConfig, corpus: str, out: str, method: str | None,
              target_len: int | None, overlap: int | None,
              threshold: float | None, calibrate_avg: float | None,
              placeholder: str | None, max_window: int | None,
              report_path: str | None) -> _Failures:
    """Chunk every document of a corpus with one method."""
    config = override(
        config,
        chunker={"method": method, "target_len": target_len,
                 "overlap": overlap, "threshold": threshold},
        dataset={"placeholder": placeholder, "max_window_tokens": max_window},
    )
    method = config.chunker.method
    if calibrate_avg is not None and method == "moc":
        raise ConfigError("--calibrate-avg does not apply to moc: it has no size knob")
    if calibrate_avg is not None and not calibrate_avg > 0:
        raise ConfigError(f"--calibrate-avg must be > 0, got {calibrate_avg}")
    # backends first: a config error surfaces before any document is read
    embedder = router = experts = None
    if method == "semantic":
        if config.embedder is None:
            raise ConfigError("semantic chunking needs an embedder in config")
        embedder = _owned(build_embedder(config.embedder))
    elif method == "moc":
        if config.router is None:
            raise ConfigError("moc chunking needs a router backend in config")
        router = _owned(build_scorer(config.router, "router"))
        experts = {label: _owned(expert)
                   for label, expert in build_experts(config).items()}

    params, dataset = config.chunker, config.dataset
    docs: Iterable[Document] = load_corpus(corpus)
    if calibrate_avg is not None:
        docs = list(docs)
        try:
            result = calibrate_avg_len(method, docs, target_avg=calibrate_avg,
                                       embedder=embedder)
        except (ChunkKitError, ValueError) as exc:  # ValueError: an empty corpus
            raise ChunkKitError(f"calibration: {exc}") from exc
        knob = (f"threshold={result.knob:.4f}" if method == "semantic"
                else f"target_len={result.knob}")
        click.echo(f"calibrated {method}: {knob} "
                   f"achieved={result.achieved_avg:.1f} ok={result.ok}")
        if method == "boundary" and params.overlap >= result.knob:
            raise ConfigError(
                f"chunker.overlap={params.overlap} must be below the calibrated "
                f"{knob}")
        # write calibration's own cut: no document is split or embedded again
        steps = dict(zip((d.id for d in docs), result.steps))

        def run(doc: Document):
            return result.cut(doc, steps[doc.id], params.overlap), []
    else:
        run = {
            "fixed": lambda doc: (chunk_fixed(doc, params.target_len), []),
            "boundary": lambda doc: (
                chunk_boundary_aware(doc, params.target_len, params.overlap), []),
            "semantic": lambda doc: (
                chunk_semantic(doc, embedder, params.threshold), []),
            "moc": lambda doc: moc_chunk(
                doc, router, experts,
                max_window_tokens=dataset.max_window_tokens,
                placeholder=dataset.placeholder,
            ),
        }[method]

    failures: _Failures = []
    totals = [0, 0]  # chunks, their characters
    with _staged(out) as out_tmp, \
            (_report(report_path, {"method": method}) if report_path is not None
             else nullcontext(lambda record: None)) as write_report:

        def chunksets():
            for cs, extraction in _each_doc(((d.id, d) for d in docs), run, failures):
                totals[0] += len(cs)
                totals[1] += sum(len(c) for c in cs.chunks)
                for rep in extraction:
                    write_report({"doc_id": cs.doc_id, "rules": [
                        {"rule": i, "mode": m.mode, "distance": m.distance,
                         "span": None if m.start is None else [m.start, m.end]}
                        for i, m in enumerate(rep)
                    ]})
                yield cs

        saved = save_chunksets(chunksets(), out_tmp)
    mean_len = totals[1] / totals[0] if totals[0] else 0.0
    click.echo(f"chunked {saved} doc(s) with {method}: "
               f"{totals[0]} chunks, mean length {mean_len:.1f}")
    return failures


@main.command("eval")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--chunksets", "chunksets_path", required=True, type=_INPUT_FILE)
@click.option("--metrics", "metrics_csv", default="bc,cs_c,cs_i",
              help="Comma-separated subset of bc,cs_c,cs_i,ds,cp.")
@click.option("--k", type=_FINITE, default=None)
@click.option("--delta", type=int, default=None)
@click.option("--out", default="-", help="Report path, or - for stdout.")
@click.pass_obj
def cmd_eval(config: RunConfig, corpus: str, chunksets_path: str,
             metrics_csv: str, k: float | None, delta: int | None,
             out: str) -> _Failures:
    """Score chunk sets with the requested metrics."""
    config = override(config, metrics={"k": k, "delta": delta})
    metric_names = tuple(dict.fromkeys(m.strip() for m in metrics_csv.split(",") if m.strip()))
    unknown = [m for m in metric_names if m not in METRIC_BACKENDS]
    if unknown or not metric_names:
        what = f"unknown metrics {unknown}" if unknown else "no metrics given"
        raise ConfigError(f"{what}; choose from {tuple(METRIC_BACKENDS)}")
    backends = {}
    for role, article in (("scorer", "a"), ("embedder", "an")):
        needing = [m for m in metric_names if METRIC_BACKENDS[m] == role]
        if needing:
            spec = getattr(config, role)
            if spec is None:
                raise ConfigError(f"metrics {needing} need {article} {role} in config")
            backends[role] = _owned(
                build_scorer(spec, threads=config.concurrency) if role == "scorer"
                else build_embedder(spec))

    docs = _load_docs(corpus)
    chunksets = load_chunksets(chunksets_path, docs)
    params = {"metrics": list(metric_names), "k": config.metrics.k,
              "delta": config.metrics.delta,
              **{role: _backend_name(backends.get(role))
                 for role in ("scorer", "embedder")}}
    failures: _Failures = []
    columns: dict[str, list[float]] = {}  # each metric's non-null values
    with _report(out, params) as write:

        def evaluate(cs: ChunkSet) -> tuple[str, dict]:
            return cs.doc_id, evaluate_chunksets(
                docs[cs.doc_id], cs, metric_names, k=config.metrics.k,
                delta=config.metrics.delta, **backends)

        for doc_id, values in _each_doc(((cs.doc_id, cs) for cs in chunksets),
                                        evaluate, failures):
            write({"doc_id": doc_id, **values})
            for key, value in values.items():
                column = columns.setdefault(key, [])
                if value is not None:
                    column.append(value)
        write({"doc_id": "__aggregate__",
               **{key: fmean(column) if column else None
                  for key, column in columns.items()}})
    return failures


@main.command("pearson")
@click.argument("table", type=_INPUT_FILE)
@click.option("--x", "x_col", required=True, help="Column name for x.")
@click.option("--y", "y_col", required=True, help="Column name for y.")
def cmd_pearson(table: str, x_col: str, y_col: str) -> None:
    """Pearson correlation between two columns of a JSON table file."""
    try:
        data = json.loads(Path(table).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ChunkKitError(f"{table}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ChunkKitError(f"{table}: table must be an object of columns")
    missing = [c for c in (x_col, y_col) if c not in data]
    if missing:
        raise ChunkKitError(f"table has no column(s) {missing}")
    bad = [c for c in (x_col, y_col) if not (
        isinstance(data[c], list) and all(map(finite_number, data[c])))]
    if bad:
        raise ChunkKitError(f"{table}: column(s) {bad} must be lists of numbers, "
                            f"each finite and not a bool")
    try:
        r = pearson(data[x_col], data[y_col])
    except ValueError as exc:
        raise ChunkKitError(str(exc)) from exc
    click.echo(f"{r:.4f}")


@main.group("dataset")
def dataset_group() -> None:
    """Training-data pipeline stages."""


@dataset_group.command("windows")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--out", required=True, type=click.Path())
@click.option("--max-window", type=int, default=None)
@click.pass_obj
def cmd_windows(config: RunConfig, corpus: str, out: str,
                max_window: int | None) -> None:
    """Cut documents into token-budget windows."""
    config = override(config, dataset={"max_window_tokens": max_window})
    count = 0
    with _report(out, {"max_window_tokens": config.dataset.max_window_tokens}) as write:
        for doc in load_corpus(corpus):
            for start, end in sliding_windows(
                    doc, max_tokens=config.dataset.max_window_tokens):
                write({"doc_id": doc.id, "start": start, "end": end})
                count += 1
    click.echo(f"wrote {count} windows")


def _verdict_record(doc_id: str, chunk: int, verdict) -> dict:
    return {"doc_id": doc_id, "chunk": chunk,
            "distance": verdict.min_edit_distance, "threshold": verdict.threshold,
            "flagged": verdict.flagged, "span": [verdict.start, verdict.end]}


@dataset_group.command("distill")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--out-dir", required=True, type=_OUTPUT_DIR)
@click.pass_obj
def cmd_distill(config: RunConfig, corpus: str, out_dir: str) -> _Failures:
    """Generate raw chunkings for a corpus and clean them."""
    if config.generator is None:
        raise ConfigError("distill needs a generator in config")
    generator = _owned(build_generator(config.generator))
    params = config.dataset
    out = _out_dir(out_dir)

    def distill(doc: Document):
        return distill_document(
            doc, generator,
            max_window_tokens=params.max_window_tokens,
            flag_ratio=params.flag_ratio,
        )

    failures: _Failures = []
    totals = [0, 0, 0]  # chunks, verdicts, flagged verdicts
    # the manifest is entered first, so it is the last file replaced
    with _staged(out / "manifest.json") as manifest_tmp, \
            _staged(out / "chunksets.jsonl") as chunksets_tmp, \
            _report(out / "verdicts.jsonl",
                    {"flag_ratio": params.flag_ratio}) as write:

        def chunksets():
            docs = ((d.id, d) for d in load_corpus(corpus))
            for result in _each_doc(docs, distill, failures):
                for i, v in enumerate(result.verdicts):
                    write(_verdict_record(result.chunkset.doc_id, i, v))
                totals[0] += len(result.chunkset)
                totals[1] += len(result.verdicts)
                totals[2] += result.flagged
                yield result.chunkset

        distilled = save_chunksets(chunksets(), chunksets_tmp)
        manifest = {
            "documents": distilled + len(failures),
            "distilled": distilled,
            "failed": [doc_id for doc_id, _ in failures],
            "chunks": totals[0],
            "flagged_chunks": totals[2],
            "flag_rate": totals[2] / totals[1] if totals[1] else 0.0,
            "parameters": {
                "max_window_tokens": params.max_window_tokens,
                "flag_ratio": params.flag_ratio,
            },
        }
        manifest_tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                encoding="utf-8")
    click.echo(f"distilled {distilled}/{manifest['documents']} docs, "
               f"{totals[2]} flagged chunk(s)")
    return failures


@dataset_group.command("clean")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--generated", required=True, type=_INPUT_FILE,
              help="JSONL of {doc_id, chunks: [text, ...]} records.")
@click.option("--out", required=True, type=click.Path())
@click.pass_obj
def cmd_clean(config: RunConfig, corpus: str, generated: str, out: str) -> None:
    """Flag generated chunks whose edit distance to the source is too large."""
    docs = _load_docs(corpus)
    count = flagged = 0
    with _report(out, {"flag_ratio": config.dataset.flag_ratio}) as write:
        for where, record in read_jsonl(generated):
            if not (isinstance(record, dict) and isinstance(record.get("doc_id"), str)
                    and isinstance(record.get("chunks"), list)):
                raise CorpusFormatError(
                    f"{where}: record needs a 'doc_id' and a 'chunks' list")
            doc = docs.get(record["doc_id"])
            if doc is None:
                raise CorpusFormatError(f"{where}: unknown doc id {record['doc_id']!r}")
            for i, text in enumerate(record["chunks"]):
                if not isinstance(text, str) or not text:
                    raise CorpusFormatError(
                        f"{where}: chunk {i} is not a non-empty string")
                verdict = detect_hallucination(
                    text, doc, flag_ratio=config.dataset.flag_ratio)
                flagged += int(verdict.flagged)
                count += 1
                write(_verdict_record(doc.id, i, verdict))
    click.echo(f"checked {count} chunk(s), {flagged} flagged")


@dataset_group.command("rules")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--chunksets", "chunksets_path", required=True, type=_INPUT_FILE)
@click.option("--out", required=True, type=click.Path())
@click.option("--anchor-len", type=int, default=None)
@click.option("--placeholder", default=None)
@click.pass_obj
def cmd_rules(config: RunConfig, corpus: str, chunksets_path: str, out: str,
              anchor_len: int | None, placeholder: str | None) -> _Failures:
    """Turn chunk sets into anchor+placeholder rule lists."""
    config = override(config, dataset={"anchor_len": anchor_len,
                                       "placeholder": placeholder})
    chunksets = load_chunksets(chunksets_path, _load_docs(corpus))
    failures: _Failures = []
    with _report(out, {"anchor_len": config.dataset.anchor_len,
                       "placeholder": config.dataset.placeholder}) as write:
        for cs, label in _labeled(chunksets, failures):
            rule_list = make_rules(cs, anchor_len=config.dataset.anchor_len,
                                   placeholder=config.dataset.placeholder)
            write({
                "doc_id": cs.doc_id,
                "label": label.value,
                "rules": [
                    {"prefix": r.prefix, "placeholder": r.placeholder,
                     "suffix": r.suffix}
                    for r in rule_list.rules
                ],
            })
    click.echo(f"wrote rules for {len(chunksets) - len(failures)} doc(s)")
    return failures


@dataset_group.command("label")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--chunksets", "chunksets_path", required=True, type=_INPUT_FILE)
@click.option("--out", required=True, type=click.Path())
def cmd_label(corpus: str, chunksets_path: str, out: str) -> _Failures:
    """Assign granularity labels from mean chunk lengths."""
    chunksets = load_chunksets(chunksets_path, _load_docs(corpus))
    failures: _Failures = []
    with _report(out, {}) as write:
        for cs, label in _labeled(chunksets, failures):
            write({"doc_id": cs.doc_id, "label": label.value,
                   "mean_length": round(cs.mean_length(), 2)})
    click.echo(f"labeled {len(chunksets) - len(failures)} doc(s)")
    return failures


@dataset_group.command("emit")
@click.option("--corpus", required=True, type=_INPUT_FILE)
@click.option("--chunksets", "chunksets_path", required=True, type=_INPUT_FILE)
@click.option("--out-dir", required=True, type=_OUTPUT_DIR)
@click.option("--router-target", type=int, default=None)
@click.pass_obj
def cmd_emit(config: RunConfig, corpus: str, chunksets_path: str,
             out_dir: str, router_target: int | None) -> _Failures:
    """Emit per-label expert files plus the router file and manifest."""
    config = override(config, dataset={"router_target_chars": router_target})
    params = config.dataset
    docs = _load_docs(corpus)
    chunksets = load_chunksets(chunksets_path, docs)
    failures: _Failures = []
    router: list[dict] = []
    # load_chunksets rejects a repeated doc_id, so no document reaches two
    # label buckets
    experts: dict[int, list[dict]] = {label.value: [] for label in GranularityLabel}
    for cs, label in _labeled(chunksets, failures):
        doc = docs[cs.doc_id]
        text = router_text(doc, cs, target_chars=params.router_target_chars)
        if text is not None:
            router.append({"doc_id": doc.id, "text": text, "label": label.value})
        samples = expert_samples(
            doc, cs,
            anchor_len=params.anchor_len,
            placeholder=params.placeholder,
            max_window_tokens=params.max_window_tokens,
        )
        experts[label.value] += (
            {"doc_id": doc.id, "prompt": prompt, "target": target}
            for prompt, target in samples)

    expert_counts = {str(label): len(records) for label, records in experts.items()}
    warnings = [f"expert bucket {label} is empty"
                for label, count in expert_counts.items() if count == 0]
    manifest = {
        "expert_counts": expert_counts,
        "router_count": len(router),
        "total_samples": len(router) + sum(expert_counts.values()),
        "warnings": warnings,
    }
    out = _out_dir(out_dir)
    # every file is written before any is replaced; the last entered is the
    # first replaced, so router.jsonl goes first and the manifest last
    with ExitStack() as staged:
        manifest_tmp = staged.enter_context(_staged(out / "manifest.json"))
        for name, records in [*((f"expert_{label}.jsonl", records)
                                for label, records in experts.items()),
                              ("router.jsonl", router)]:
            write_jsonl(records, staged.enter_context(_staged(out / name)))
        manifest_tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                encoding="utf-8")
    click.echo(f"emitted {manifest['total_samples']} sample(s) "
               f"(router {len(router)}, experts {expert_counts})")
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)
    return failures


if __name__ == "__main__":
    main()
