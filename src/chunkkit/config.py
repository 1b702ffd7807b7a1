"""Run configuration: one structured file wiring backends and parameters.

JSON or YAML by extension. Some keys can also be set by a flag of the
command that reads them, and the flag wins: ``--concurrency``, the
``chunker`` keys on ``chunk``, the ``metrics`` keys on ``eval``, and all
``dataset`` keys but ``flag_ratio`` on some commands, not always under the
key's name (``--max-window`` sets ``max_window_tokens``,
``--router-target`` sets ``router_target_chars``). Backends and
``dataset.flag_ratio`` come only from the file. Only endpoint secrets come
from environment variables (via each backend's ``api_key_env``).
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from .chunkers import CHUNKER_METHODS
from .errors import ConfigError
from .rules import DEFAULT_PLACEHOLDER, PLACEHOLDERS, GranularityLabel
from .scoring import (
    FixtureEmbedder,
    FixtureGenerator,
    FixtureScorer,
    HashEmbedder,
    NGramScorer,
)

if TYPE_CHECKING:
    from .backends import BackendHandle

_SCORER_KINDS = ("http", "ngram", "fixture")
_GENERATOR_KINDS = ("http", "fixture")
_EMBEDDER_KINDS = ("http", "hash", "fixture")
#: Every ``chunk --method``: the size-knob baselines, then the MoC pipeline.
CHUNK_METHODS = (*CHUNKER_METHODS, "moc")


@dataclass(frozen=True)
class BackendSpec:
    """One backend role: a kind plus kind-specific options."""

    kind: str
    options: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, raw: Mapping[str, Any], role: str) -> "BackendSpec":
        if not isinstance(raw, Mapping) or "kind" not in raw:
            raise ConfigError(f"backend {role!r} needs a 'kind' key")
        options = {k: v for k, v in raw.items() if k != "kind"}
        return cls(kind=str(raw["kind"]), options=options)


@dataclass(frozen=True)
class MetricsParams:
    k: float = 0.8
    delta: int = 0

    def __post_init__(self):
        if not (0.0 < self.k < 1.0):
            raise ConfigError(f"metrics.k must be in (0, 1), got {self.k}")
        if self.delta < 0:
            raise ConfigError("metrics.delta must be >= 0")


@dataclass(frozen=True)
class ChunkerParams:
    method: str = "fixed"
    target_len: int = 178
    overlap: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        if self.method not in CHUNK_METHODS:
            raise ConfigError(f"chunker.method must be one of {CHUNK_METHODS}, "
                              f"got {self.method!r}")
        if self.target_len < 1:
            raise ConfigError(f"chunker.target_len must be >= 1, got {self.target_len}")
        if not (0 <= self.overlap < self.target_len):
            raise ConfigError(
                f"chunker.overlap must satisfy 0 <= overlap < target_len, got "
                f"overlap={self.overlap} with target_len={self.target_len}")
        if not (-1.0 <= self.threshold <= 1.0):
            raise ConfigError(
                f"chunker.threshold must be in [-1, 1], got {self.threshold}")


@dataclass(frozen=True)
class DatasetParams:
    max_window_tokens: int = 1024
    chars_per_token: float = 1.0
    anchor_len: int = 10
    placeholder: str = DEFAULT_PLACEHOLDER
    router_target_chars: int = 1024
    flag_ratio: float = 0.10

    def __post_init__(self):
        if self.max_window_tokens < 1:
            raise ConfigError(f"dataset.max_window_tokens must be >= 1, "
                              f"got {self.max_window_tokens}")
        if not self.chars_per_token > 0:
            raise ConfigError(f"dataset.chars_per_token must be > 0, "
                              f"got {self.chars_per_token}")
        if self.anchor_len < 1:
            raise ConfigError(f"dataset.anchor_len must be >= 1, got {self.anchor_len}")
        if self.placeholder not in PLACEHOLDERS:
            raise ConfigError(f"unknown placeholder {self.placeholder!r}")
        if self.router_target_chars < 1:
            raise ConfigError(f"dataset.router_target_chars must be >= 1, "
                              f"got {self.router_target_chars}")
        if not self.flag_ratio >= 0:
            raise ConfigError(f"dataset.flag_ratio must be >= 0, got {self.flag_ratio}")


@dataclass(frozen=True)
class RunConfig:
    """Backends and parameters of one run. ``concurrency`` is the size of
    the one thread pool that runs all of ``eval``'s pair scores, BC's
    included; at 1 no thread starts. Other commands ignore it."""

    scorer: BackendSpec | None = None
    generator: BackendSpec | None = None
    embedder: BackendSpec | None = None
    router: BackendSpec | None = None
    experts: Mapping[int, BackendSpec] = field(default_factory=dict)
    metrics: MetricsParams = field(default_factory=MetricsParams)
    chunker: ChunkerParams = field(default_factory=ChunkerParams)
    dataset: DatasetParams = field(default_factory=DatasetParams)
    concurrency: int = 1

    def __post_init__(self):
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON or YAML config file into a validated RunConfig."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        import yaml  # loaded only for a YAML config

        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            # one line, like the JSON branch: PyYAML's own message spans several
            mark = getattr(exc, "problem_mark", None)
            where = f": line {mark.line + 1} column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or exc
            raise ConfigError(f"{path}: invalid YAML: {problem}{where}") from exc
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: config must be a mapping")
    return parse_config(raw)


def parse_config(raw: Mapping[str, Any]) -> RunConfig:
    known = {
        "scorer", "generator", "embedder", "router", "experts",
        "metrics", "chunker", "dataset", "concurrency",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def section(name: str, cls):
        data = raw.get(name, {})
        if not isinstance(data, Mapping):
            raise ConfigError(f"config section {name!r} must be a mapping")
        allowed = {f.name for f in fields(cls)}
        bad = set(data) - allowed
        if bad:
            raise ConfigError(f"unknown keys in {name!r}: {sorted(bad)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"invalid section {name!r}: {exc}") from exc

    experts_raw = raw.get("experts", {}) or {}
    if not isinstance(experts_raw, Mapping):
        raise ConfigError("'experts' must map labels 0-3 to backends")
    experts = {}
    for key, value in experts_raw.items():
        try:
            label = int(key)
            GranularityLabel(label)
        except ValueError as exc:
            raise ConfigError(f"invalid expert label {key!r}") from exc
        experts[label] = BackendSpec.parse(value, f"experts.{key}")

    try:
        concurrency = int(raw.get("concurrency", 1))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"concurrency must be an integer, "
                          f"got {raw['concurrency']!r}") from exc
    return RunConfig(
        scorer=BackendSpec.parse(raw["scorer"], "scorer") if "scorer" in raw else None,
        generator=(BackendSpec.parse(raw["generator"], "generator")
                   if "generator" in raw else None),
        embedder=(BackendSpec.parse(raw["embedder"], "embedder")
                  if "embedder" in raw else None),
        router=BackendSpec.parse(raw["router"], "router") if "router" in raw else None,
        experts=experts,
        metrics=section("metrics", MetricsParams),
        chunker=section("chunker", ChunkerParams),
        dataset=section("dataset", DatasetParams),
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# Backend construction
#
# Only the http branches import .backends, which imports requests: an
# offline run never loads it.
# ---------------------------------------------------------------------------

def _handle_from(options: Mapping[str, Any], role: str) -> BackendHandle:
    from .backends import BackendHandle

    allowed = {f.name for f in fields(BackendHandle)}
    bad = set(options) - allowed
    if bad:
        raise ConfigError(f"unknown http options for {role!r}: {sorted(bad)}")
    return BackendHandle(**options)


@contextmanager
def _reading(what: str, role: str, path) -> Iterator[None]:
    """Report an OSError while reading a backend's option file (a missing
    file, a directory) as a ConfigError naming the role and the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{what} for {role!r}: {path}: {exc.strerror}") from exc


def _options_checked(build):
    """Report a backend constructor's ValueError or TypeError (an option of
    the wrong type or out of range) as a ConfigError."""
    default_role = inspect.signature(build).parameters["role"].default

    @functools.wraps(build)
    def checked(spec: BackendSpec, role: str = default_role):
        try:
            return build(spec, role)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {spec.kind} backend {role!r}: {exc}") from exc
    return checked


@_options_checked
def build_scorer(spec: BackendSpec, role: str = "scorer"):
    if spec.kind == "http":
        from .backends import HttpScorer

        return HttpScorer(_handle_from(spec.options, role))
    if spec.kind == "ngram":
        order = int(spec.options.get("order", 2))
        corpus_path = spec.options.get("corpus")
        texts: list[str] = []
        if corpus_path:
            from .text import load_corpus  # local import avoids a cycle

            with _reading("ngram corpus", role, corpus_path):
                texts = [d.text for d in load_corpus(corpus_path)]
        alphabet = spec.options.get("alphabet")
        if not texts and not alphabet:
            raise ConfigError(
                f"ngram backend {role!r} needs 'corpus' and/or 'alphabet'"
            )
        return NGramScorer(order=order, corpus=texts, alphabet=alphabet)
    if spec.kind == "fixture":
        scorer = FixtureScorer()
        for entry in _fixture_entries(spec.options, role):
            scorer.add(
                entry.get("text", ""),
                entry.get("context"),
                logprobs=entry.get("logprobs"),
                probs=entry.get("probs"),
            )
        return scorer
    raise ConfigError(f"scorer kind must be one of {_SCORER_KINDS}, "
                      f"got {spec.kind!r}")


@_options_checked
def build_generator(spec: BackendSpec, role: str = "generator"):
    if spec.kind == "http":
        from .backends import HttpGenerator

        return HttpGenerator(_handle_from(spec.options, role))
    if spec.kind == "fixture":
        generator = FixtureGenerator()
        for entry in _fixture_entries(spec.options, role):
            generator.add(
                entry["prompt"], entry["response"],
                entry.get("finish_reason", "stop"),
            )
        return generator
    raise ConfigError(f"generator kind must be one of {_GENERATOR_KINDS}, "
                      f"got {spec.kind!r}")


@_options_checked
def build_embedder(spec: BackendSpec, role: str = "embedder"):
    if spec.kind == "http":
        from .backends import HttpEmbedder

        return HttpEmbedder(_handle_from(spec.options, role))
    if spec.kind == "hash":
        return HashEmbedder(
            dim=int(spec.options.get("dim", 64)),
            ngram=int(spec.options.get("ngram", 3)),
        )
    if spec.kind == "fixture":
        embedder = FixtureEmbedder()
        for entry in _fixture_entries(spec.options, role):
            embedder.add(entry["text"], entry["vector"])
        return embedder
    raise ConfigError(f"embedder kind must be one of {_EMBEDDER_KINDS}, "
                      f"got {spec.kind!r}")


def _fixture_entries(options: Mapping[str, Any], role: str) -> list[dict]:
    if not options.get("table"):
        raise ConfigError(f"fixture backend {role!r} needs a 'table' file")
    path = Path(options["table"])
    with _reading("fixture table", role, path):
        text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"fixture table {path}: invalid JSON: {exc}") from exc
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(f"fixture table {path} needs an 'entries' list")
    return entries


def build_experts(config: RunConfig) -> dict[GranularityLabel, Any]:
    """Generators for all four labels; missing labels are a config error."""
    missing = [
        lab.value for lab in GranularityLabel if lab.value not in config.experts
    ]
    if missing:
        raise ConfigError(f"experts missing for labels {missing}")
    return {
        GranularityLabel(label): build_generator(spec, f"experts.{label}")
        for label, spec in config.experts.items()
    }


def override(config: RunConfig, **section_updates: Mapping[str, Any]) -> RunConfig:
    """Return a copy with per-section field overrides (CLI flags)."""
    updates: dict[str, Any] = {}
    for name, patch in section_updates.items():
        patch = {k: v for k, v in patch.items() if v is not None}
        if not patch:
            continue
        updates[name] = replace(getattr(config, name), **patch)
    return replace(config, **updates) if updates else config
