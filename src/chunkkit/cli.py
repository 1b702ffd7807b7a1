"""Command-line entry point wiring corpora, backends, chunkers, and metrics.

Reports are line-oriented JSON: the first line is a header record (the only
place timestamps live, so bodies diff cleanly), followed by one record per
document and one aggregate record.

Exit codes: 0 success, 1 partial failure or data error, 2 configuration
error. A malformed corpus or chunk-set line ends any command with one
``error: <file>: line N: ...`` line and exit code 1.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .chunkers import calibrate_avg_len, chunk_boundary_aware, chunk_fixed, chunk_semantic
from .config import (
    BackendSpec,
    RunConfig,
    build_embedder,
    build_experts,
    build_generator,
    build_scorer,
    load_config,
    override,
)
from .dataset import (
    build_chunker_samples,
    detect_hallucination,
    distill_document,
    emit_training_sets,
    label_granularity,
    make_rules,
    shape_router_texts,
    sliding_windows,
)
from .errors import ChunkKitError, ConfigError, CorpusFormatError
from .metrics import evaluate_chunksets, pearson
from .moc import moc_chunk
from .text import Document, load_chunksets, load_corpus, save_chunksets

_METRIC_CHOICES = ("bc", "cs_c", "cs_i", "ds", "cp")


def _echo_error(message: str) -> None:
    click.echo(f"error: {message}", err=True)


def _write_report(path: str, params: dict, records: list[dict]) -> None:
    header = {"_header": {
        "tool": f"chunkkit {__version__}",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **params,
    }}
    lines = [json.dumps(header, ensure_ascii=False, sort_keys=True)]
    lines += [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records]
    text = "\n".join(lines) + "\n"
    if path == "-":
        click.echo(text, nl=False)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_docs(corpus: str) -> dict[str, Document]:
    return {d.id: d for d in load_corpus(corpus)}


class _Group(click.Group):
    """The command group; turns a malformed input line into one error line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CorpusFormatError as exc:
            _echo_error(str(exc))
            sys.exit(1)


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON or YAML run configuration.")
@click.option("--concurrency", type=int, default=None,
              help="Overrides the config's backend-call budget.")
@click.option("--seed", type=int, default=None,
              help="Overrides the config's root seed.")
@click.version_option(__version__)
@click.pass_context
def main(ctx: click.Context, config_path: str | None,
         concurrency: int | None, seed: int | None) -> None:
    """Chunking toolkit: chunk corpora, score chunkings, build datasets."""
    try:
        config = load_config(config_path) if config_path else RunConfig()
        if concurrency is not None:
            config = replace(config, concurrency=concurrency)
        if seed is not None:
            config = replace(config, seed=seed)
        ctx.obj = config
    except ConfigError as exc:
        _echo_error(str(exc))
        ctx.exit(2)


@main.command("chunk")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["fixed", "boundary", "semantic", "moc"]),
              default=None, help="Overrides chunker.method from config.")
@click.option("--target-len", type=int, default=None)
@click.option("--overlap", type=int, default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--calibrate-avg", type=float, default=None,
              help="Calibrate the size knob to this corpus mean chunk length.")
@click.option("--placeholder", default=None)
@click.option("--max-window", type=int, default=None)
@click.option("--router-model", default=None)
@click.option("--expert-model-0", default=None)
@click.option("--expert-model-1", default=None)
@click.option("--expert-model-2", default=None)
@click.option("--expert-model-3", default=None)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Where to write per-rule extraction reports (moc only).")
@click.pass_obj
def cmd_chunk(config: RunConfig, corpus: str, out: str, method: str | None,
              target_len: int | None, overlap: int | None,
              threshold: float | None, calibrate_avg: float | None,
              placeholder: str | None, max_window: int | None,
              router_model: str | None, expert_model_0: str | None,
              expert_model_1: str | None, expert_model_2: str | None,
              expert_model_3: str | None, report_path: str | None) -> None:
    """Chunk every document of a corpus with one method."""
    config = override(
        config,
        chunker={"method": method, "target_len": target_len,
                 "overlap": overlap, "threshold": threshold},
        dataset={"placeholder": placeholder, "max_window_tokens": max_window},
    )
    method = config.chunker.method
    expert_models = {0: expert_model_0, 1: expert_model_1,
                     2: expert_model_2, 3: expert_model_3}

    try:
        runner = _make_runner(config, method, router_model, expert_models)
    except ConfigError as exc:
        _echo_error(str(exc))
        sys.exit(2)

    if calibrate_avg is not None and method in ("fixed", "boundary", "semantic"):
        docs_for_cal = list(_load_docs(corpus).values())
        embedder = (build_embedder(config.embedder)
                    if config.embedder and method == "semantic" else None)
        if method == "semantic" and embedder is None:
            _echo_error("semantic calibration needs an embedder in config")
            sys.exit(2)
        try:
            result = calibrate_avg_len(method, docs_for_cal, target_avg=calibrate_avg,
                                       embedder=embedder)
        except ChunkKitError as exc:
            _echo_error(f"calibration: {exc}")
            sys.exit(1)
        click.echo(f"calibrated {method}: target_len={result.config.target_len} "
                   f"threshold={result.config.similarity_threshold:.4f} "
                   f"achieved={result.achieved_avg:.1f} ok={result.ok}")
        config = override(config, chunker={
            "target_len": result.config.target_len,
            "threshold": result.config.similarity_threshold,
        })
        runner = _make_runner(config, method, router_model, expert_models)

    chunksets = []
    reports = []
    failures: list[tuple[str, str]] = []
    for doc in load_corpus(corpus):
        try:
            cs, extraction = runner(doc)
            chunksets.append(cs)
            reports.extend(extraction)
        except ChunkKitError as exc:
            failures.append((doc.id, str(exc)))

    save_chunksets(chunksets, out)
    if report_path:
        records = [
            {"doc_id": rep.doc_id,
             "rules": [
                 {"rule": m.rule_index, "mode": m.mode, "distance": m.distance,
                  "span": None if m.start is None else [m.start, m.end]}
                 for m in rep.matches
             ]}
            for rep in reports
        ]
        _write_report(report_path, {"method": method}, records)

    total_chunks = sum(len(cs) for cs in chunksets)
    mean_len = (
        sum(len(c) for cs in chunksets for c in cs.chunks) / total_chunks
        if total_chunks else 0.0
    )
    click.echo(f"chunked {len(chunksets)} doc(s) with {method}: "
               f"{total_chunks} chunks, mean length {mean_len:.1f}")
    for doc_id, message in failures:
        _echo_error(f"doc {doc_id}: {message}")
    if failures:
        sys.exit(1)


def _make_runner(config: RunConfig, method: str, router_model: str | None,
                 expert_models: dict[int, str | None]):
    """Bind a per-document chunking callable; config errors surface here,
    before any document is read."""
    if method == "fixed":
        return lambda doc: (chunk_fixed(doc, config.chunker.target_len), [])
    if method == "boundary":
        return lambda doc: (
            chunk_boundary_aware(doc, config.chunker.target_len,
                                 config.chunker.overlap),
            [],
        )
    if method == "semantic":
        if config.embedder is None:
            raise ConfigError("semantic chunking needs an embedder in config")
        embedder = build_embedder(config.embedder)
        return lambda doc: (
            chunk_semantic(doc, embedder, config.chunker.threshold),
            [],
        )
    # moc
    if config.router is None:
        raise ConfigError("moc chunking needs a router backend in config")
    router_spec = _override_model(config.router, router_model)
    router = build_scorer(router_spec, "router")
    patched = dict(config.experts)
    for label, model in expert_models.items():
        if model is not None:
            if label not in patched:
                raise ConfigError(f"--expert-model-{label} given but config has "
                                  f"no experts.{label}")
            patched[label] = _override_model(patched[label], model)
    experts = build_experts(override(config, experts=patched))
    dataset = config.dataset
    return lambda doc: moc_chunk(
        doc, router, experts,
        max_window_tokens=dataset.max_window_tokens,
        chars_per_token=dataset.chars_per_token,
        placeholder=dataset.placeholder,
    )


def _override_model(spec: BackendSpec, model: str | None) -> BackendSpec:
    if model is None:
        return spec
    if spec.kind != "http":
        raise ConfigError(
            f"model override only applies to http backends, not {spec.kind!r}"
        )
    return BackendSpec(kind=spec.kind, options={**spec.options, "model": model})


@main.command("eval")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--chunksets", "chunksets_path", required=True,
              type=click.Path(exists=True))
@click.option("--metrics", "metrics_csv", default="bc,cs_c,cs_i",
              help="Comma-separated subset of bc,cs_c,cs_i,ds,cp "
                   "(plus cs, resolved by --graph).")
@click.option("--k", type=float, default=None)
@click.option("--graph", type=click.Choice(["complete", "sequence"]), default=None)
@click.option("--delta", type=int, default=None)
@click.option("--out", default="-", help="Report path, or - for stdout.")
@click.pass_obj
def cmd_eval(config: RunConfig, corpus: str, chunksets_path: str,
             metrics_csv: str, k: float | None, graph: str | None,
             delta: int | None, out: str) -> None:
    """Score chunk sets with the requested metrics."""
    config = override(config, metrics={"k": k, "graph": graph, "delta": delta})
    metric_names = tuple(
        # bare "cs" picks the stickiness variant from --graph
        ("cs_c" if config.metrics.graph == "complete" else "cs_i")
        if m.strip() == "cs" else m.strip()
        for m in metrics_csv.split(",") if m.strip()
    )
    bad = [m for m in metric_names if m not in _METRIC_CHOICES]
    if bad:
        _echo_error(f"unknown metrics {bad}; choose from {_METRIC_CHOICES}")
        sys.exit(2)

    needs_scorer = {"bc", "cs_c", "cs_i", "cp"} & set(metric_names)
    scorer = None
    if needs_scorer:
        if config.scorer is None:
            _echo_error(f"metrics {sorted(needs_scorer)} need a scorer in config")
            sys.exit(2)
        scorer = build_scorer(config.scorer)
    embedder = None
    if "ds" in metric_names:
        if config.embedder is None:
            _echo_error("metric ds needs an embedder in config")
            sys.exit(2)
        embedder = build_embedder(config.embedder)

    docs = _load_docs(corpus)
    try:
        chunksets = load_chunksets(chunksets_path, docs)
        report = evaluate_chunksets(
            docs, chunksets, metrics=metric_names, scorer=scorer,
            embedder=embedder, k=config.metrics.k, delta=config.metrics.delta,
            max_workers=config.concurrency,
        )
    except (ChunkKitError, ValueError) as exc:
        _echo_error(str(exc))
        sys.exit(1)
    params = {**report.params, "graph": config.metrics.graph}
    _write_report(out, params, report.records())


@main.command("pearson")
@click.argument("table", type=click.Path(exists=True))
@click.option("--x", "x_col", required=True, help="Column name for x.")
@click.option("--y", "y_col", required=True, help="Column name for y.")
def cmd_pearson(table: str, x_col: str, y_col: str) -> None:
    """Pearson correlation between two columns of a JSON table file."""
    data = json.loads(Path(table).read_text(encoding="utf-8"))
    missing = [c for c in (x_col, y_col) if c not in data]
    if missing:
        _echo_error(f"table has no column(s) {missing}")
        sys.exit(1)
    try:
        r = pearson(data[x_col], data[y_col])
    except (ChunkKitError, ValueError) as exc:
        _echo_error(str(exc))
        sys.exit(1)
    click.echo(f"{r:.4f}")


@main.group("dataset")
def dataset_group() -> None:
    """Training-data pipeline stages."""


@dataset_group.command("windows")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--max-window", type=int, default=None)
@click.option("--chars-per-token", type=float, default=None)
@click.pass_obj
def cmd_windows(config: RunConfig, corpus: str, out: str,
                max_window: int | None, chars_per_token: float | None) -> None:
    """Cut documents into token-budget windows."""
    config = override(config, dataset={"max_window_tokens": max_window,
                                       "chars_per_token": chars_per_token})
    records = []
    for doc in load_corpus(corpus):
        for w in sliding_windows(doc,
                                 max_tokens=config.dataset.max_window_tokens,
                                 chars_per_token=config.dataset.chars_per_token):
            records.append({"doc_id": w.doc_id, "start": w.start, "end": w.end})
    _write_report(out, {"max_window_tokens": config.dataset.max_window_tokens},
                  records)
    click.echo(f"wrote {len(records)} windows")


@dataset_group.command("distill")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out-dir", required=True, type=click.Path())
@click.pass_obj
def cmd_distill(config: RunConfig, corpus: str, out_dir: str) -> None:
    """Generate raw chunkings for a corpus and clean them."""
    if config.generator is None:
        _echo_error("distill needs a generator in config")
        sys.exit(2)
    generator = build_generator(config.generator)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    chunksets = []
    verdict_records = []
    failures: list[tuple[str, str]] = []
    doc_count = 0
    for doc in load_corpus(corpus):
        doc_count += 1
        try:
            result = distill_document(
                doc, generator,
                max_window_tokens=config.dataset.max_window_tokens,
                chars_per_token=config.dataset.chars_per_token,
                flag_ratio=config.dataset.flag_ratio,
            )
        except ChunkKitError as exc:
            failures.append((doc.id, str(exc)))
            continue
        chunksets.append(result.chunkset)
        verdict_records += [
            {"doc_id": doc.id, "chunk": v.chunk_index,
             "distance": v.min_edit_distance, "threshold": v.threshold,
             "flagged": v.flagged, "span": [v.start, v.end]}
            for v in result.verdicts
        ]

    save_chunksets(chunksets, out / "chunksets.jsonl")
    _write_report(str(out / "verdicts.jsonl"),
                  {"flag_ratio": config.dataset.flag_ratio}, verdict_records)
    flagged = sum(1 for r in verdict_records if r["flagged"])
    manifest = {
        "documents": doc_count,
        "distilled": len(chunksets),
        "failed": [doc_id for doc_id, _ in failures],
        "chunks": sum(len(cs) for cs in chunksets),
        "flagged_chunks": flagged,
        "flag_rate": flagged / len(verdict_records) if verdict_records else 0.0,
        "parameters": {
            "max_window_tokens": config.dataset.max_window_tokens,
            "flag_ratio": config.dataset.flag_ratio,
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    click.echo(f"distilled {len(chunksets)}/{doc_count} docs, "
               f"{flagged} flagged chunk(s)")
    for doc_id, message in failures:
        _echo_error(f"doc {doc_id}: {message}")
    if failures:
        sys.exit(1)


@dataset_group.command("clean")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--generated", required=True, type=click.Path(exists=True),
              help="JSONL of {doc_id, chunks: [text, ...]} records.")
@click.option("--out", required=True, type=click.Path())
@click.pass_obj
def cmd_clean(config: RunConfig, corpus: str, generated: str, out: str) -> None:
    """Flag generated chunks whose edit distance to the source is too large."""
    docs = _load_docs(corpus)
    records = []
    flagged = 0
    with open(generated, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{generated}: line {line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                _echo_error(f"{where}: invalid JSON: {exc}")
                sys.exit(1)
            if not (isinstance(record, dict) and isinstance(record.get("doc_id"), str)
                    and isinstance(record.get("chunks"), list)):
                _echo_error(f"{where}: record needs a 'doc_id' and a 'chunks' list")
                sys.exit(1)
            doc = docs.get(record["doc_id"])
            if doc is None:
                _echo_error(f"{where}: unknown doc id {record['doc_id']!r}")
                sys.exit(1)
            for i, text in enumerate(record["chunks"]):
                if not isinstance(text, str) or not text:
                    _echo_error(f"{where}: chunk {i} is not a non-empty string")
                    sys.exit(1)
                verdict = detect_hallucination(
                    text, doc, index=i, flag_ratio=config.dataset.flag_ratio
                )
                flagged += int(verdict.flagged)
                records.append({
                    "doc_id": doc.id, "chunk": i,
                    "distance": verdict.min_edit_distance,
                    "threshold": verdict.threshold,
                    "flagged": verdict.flagged,
                    "span": [verdict.start, verdict.end],
                })
    _write_report(out, {"flag_ratio": config.dataset.flag_ratio}, records)
    click.echo(f"checked {len(records)} chunk(s), {flagged} flagged")


@dataset_group.command("rules")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--chunksets", "chunksets_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--anchor-len", type=int, default=None)
@click.option("--placeholder", default=None)
@click.pass_obj
def cmd_rules(config: RunConfig, corpus: str, chunksets_path: str, out: str,
              anchor_len: int | None, placeholder: str | None) -> None:
    """Turn chunk sets into anchor+placeholder rule lists."""
    config = override(config, dataset={"anchor_len": anchor_len,
                                       "placeholder": placeholder})
    docs = _load_docs(corpus)
    records = []
    for cs in load_chunksets(chunksets_path, docs):
        rule_list = make_rules(cs, anchor_len=config.dataset.anchor_len,
                               placeholder=config.dataset.placeholder)
        records.append({
            "doc_id": cs.doc_id,
            "label": label_granularity(cs).value,
            "rules": [
                {"prefix": r.prefix, "placeholder": r.placeholder,
                 "suffix": r.suffix}
                for r in rule_list.rules
            ],
            "raw": rule_list.raw,
        })
    _write_report(out, {"anchor_len": config.dataset.anchor_len,
                        "placeholder": config.dataset.placeholder}, records)
    click.echo(f"wrote rules for {len(records)} doc(s)")


@dataset_group.command("label")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--chunksets", "chunksets_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def cmd_label(corpus: str, chunksets_path: str, out: str) -> None:
    """Assign granularity labels from mean chunk lengths."""
    docs = _load_docs(corpus)
    records = []
    for cs in load_chunksets(chunksets_path, docs):
        records.append({
            "doc_id": cs.doc_id,
            "label": label_granularity(cs).value,
            "mean_length": round(cs.mean_length(), 2),
        })
    _write_report(out, {}, records)
    click.echo(f"labeled {len(records)} doc(s)")


@dataset_group.command("emit")
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--chunksets", "chunksets_path", required=True,
              type=click.Path(exists=True))
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--router-target", type=int, default=None)
@click.pass_obj
def cmd_emit(config: RunConfig, corpus: str, chunksets_path: str,
             out_dir: str, router_target: int | None) -> None:
    """Emit per-label expert files plus the router file and manifest."""
    config = override(config, dataset={"router_target_chars": router_target})
    docs = _load_docs(corpus)
    chunksets = load_chunksets(chunksets_path, docs)
    pairs = [(docs[cs.doc_id], cs) for cs in chunksets]
    samples: list = shape_router_texts(
        pairs, target_chars=config.dataset.router_target_chars
    )
    for doc, cs in pairs:
        samples += build_chunker_samples(
            doc, cs,
            anchor_len=config.dataset.anchor_len,
            placeholder=config.dataset.placeholder,
            max_window_tokens=config.dataset.max_window_tokens,
            chars_per_token=config.dataset.chars_per_token,
        )
    try:
        manifest = emit_training_sets(samples, out_dir)
    except ValueError as exc:
        _echo_error(str(exc))
        sys.exit(1)
    click.echo(f"emitted {manifest['total_samples']} sample(s) "
               f"(router {manifest['router_count']}, "
               f"experts {manifest['expert_counts']})")
    for warning in manifest["warnings"]:
        click.echo(f"warning: {warning}", err=True)


if __name__ == "__main__":
    main()
