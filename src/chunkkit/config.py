"""Run configuration: one structured file wiring backends and parameters.

JSON or YAML by extension. Some keys can also be set by a flag of the
command that reads them, and the flag wins: ``--concurrency``, the
``chunker`` keys on ``chunk``, the ``metrics`` keys on ``eval``, and all
``dataset`` keys but ``flag_ratio`` on some commands, not always under the
key's name (``--max-window`` sets ``max_window_tokens``,
``--router-target`` sets ``router_target_chars``). Backends and
``dataset.flag_ratio`` come only from the file. Only endpoint secrets come
from environment variables (via each backend's ``api_key_env``).

Each value must have its JSON type: an integer key takes no float, string
or ``true``, and a float key also takes an integer but no NaN, infinity or
integer beyond the float range. An unknown key is an error, except among a
fixture backend's options, which are not checked. Every fault is one
ConfigError naming the key or the backend's role, such as ``metrics.delta
must be an integer, got 1.5`` or ``invalid http backend 'scorer': ...``;
the CLI prints it as one ``error:`` line and exits 2.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

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

#: The top-level keys that each name one backend (``experts`` maps labels).
_ROLES = ("scorer", "generator", "embedder", "router")
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
    anchor_len: int = 10
    placeholder: str = DEFAULT_PLACEHOLDER
    router_target_chars: int = 1024
    flag_ratio: float = 0.10

    def __post_init__(self):
        if self.max_window_tokens < 1:
            raise ConfigError(f"dataset.max_window_tokens must be >= 1, "
                              f"got {self.max_window_tokens}")
        if self.anchor_len < 1:
            raise ConfigError(f"dataset.anchor_len must be >= 1, got {self.anchor_len}")
        if self.placeholder not in PLACEHOLDERS:
            raise ConfigError(f"unknown placeholder {self.placeholder!r}")
        if self.router_target_chars < 1:
            raise ConfigError(f"dataset.router_target_chars must be >= 1, "
                              f"got {self.router_target_chars}")
        if not 0 <= self.flag_ratio <= 1:
            raise ConfigError(f"dataset.flag_ratio must be >= 0 and <= 1, "
                              f"got {self.flag_ratio}")


#: The largest ``concurrency``. An HTTP scorer starts at most its
#: ``max_in_flight`` (default 4) threads, whatever the value.
MAX_CONCURRENCY = 64


@dataclass(frozen=True)
class RunConfig:
    """Backends and parameters of one run. ``concurrency``, from 1 to
    :data:`MAX_CONCURRENCY`, is the number of threads on which ``eval``'s
    HTTP scorer sends each request list, at most its ``max_in_flight``; at
    1 no thread starts. Offline scorers and other commands ignore it."""

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
        if not 1 <= self.concurrency <= MAX_CONCURRENCY:
            raise ConfigError(f"concurrency must be >= 1 and <= {MAX_CONCURRENCY}, "
                              f"got {self.concurrency}")


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON or YAML config file into a validated RunConfig."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                          f"at offset {exc.start}") from None
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
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    experts_raw = raw.get("experts", {}) or {}
    if not isinstance(experts_raw, Mapping):
        raise ConfigError("'experts' must map labels 0-3 to backends")
    experts = {}
    for key, value in experts_raw.items():
        try:
            label = int(str(key))  # a YAML key may be an int, never a float
            GranularityLabel(label)
        except ValueError as exc:
            raise ConfigError(f"invalid expert label {key!r}") from exc
        experts[label] = BackendSpec.parse(value, f"experts.{key}")
    return RunConfig(
        **{role: BackendSpec.parse(raw[role], role) for role in _ROLES if role in raw},
        experts=experts,
        metrics=read_record(MetricsParams, raw.get("metrics", {}), "metrics"),
        chunker=read_record(ChunkerParams, raw.get("chunker", {}), "chunker"),
        dataset=read_record(DatasetParams, raw.get("dataset", {}), "dataset"),
        concurrency=_typed("concurrency", raw.get("concurrency", 1), "int"),
    )


#: The JSON types a config field of each annotation takes; a bool is no number.
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string")}


def _typed(name: str, value: Any, annotation: str) -> Any:
    """``value`` when its JSON type fits ``annotation`` ("int", "float" or
    "str", each optionally "| None"); else a ConfigError naming ``name``."""
    base, _, none = annotation.partition(" | ")
    types, noun = _JSON_TYPES[base]
    if type(value) in types or (none == "None" and value is None):
        return value
    raise ConfigError(f"{name} must be {noun}{' or null' if none else ''}, "
                      f"got {value!r}")


def finite_number(value: Any) -> bool:
    """A JSON number that converts to a finite float: no bool, string, NaN,
    infinity, or integer beyond the float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def read_record(cls: type, data: Any, name: str):
    """The config record ``cls`` (a dataclass) built from the mapping
    ``data``: no unknown key, and every value of its field's JSON type. The
    class's own ``__post_init__`` then checks ranges, and last every float
    value must be a finite number; NaN fails every range check first, so it
    keeps the range's message."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config section {name!r} must be a mapping")
    known = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    record = cls(**{key: _typed(f"{name}.{key}", value, known[key])
                    for key, value in data.items()})
    for key, value in data.items():
        if known[key].startswith("float") and not (value is None
                                                   or finite_number(value)):
            raise ConfigError(f"{name}.{key} must be a finite number, got {value!r}")
    return record


# ---------------------------------------------------------------------------
# Backend construction: one table of kind -> builder per role. Each builder
# takes a backend's options and role; only the http builders import
# .backends, so an offline run never loads the HTTP and TLS modules.
# ---------------------------------------------------------------------------

@contextmanager
def _reading(what: str, role: str, path) -> Iterator[None]:
    """Report an OSError while reading a backend's option file (a missing
    file, a directory) as a ConfigError naming the role and the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{what} for {role!r}: {path}: {exc.strerror}") from exc


def _http(client: str):
    """The builder of the client class ``client`` of .backends."""
    def build(options: Mapping[str, Any], role: str, **client_args):
        from . import backends

        handle = read_record(backends.BackendHandle, options, role)
        return getattr(backends, client)(handle, **client_args)
    return build


def _closed(options: Mapping[str, Any], role: str, keys: tuple[str, ...]) -> None:
    """Reject an option of a built-in offline backend that it does not take."""
    unknown = set(options) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {role!r}: {sorted(unknown)}")


def _ngram_scorer(options: Mapping[str, Any], role: str) -> NGramScorer:
    _closed(options, role, ("order", "corpus", "alphabet"))
    texts: list[str] = []
    if options.get("corpus"):
        from .text import load_corpus  # local import avoids a cycle

        with _reading("ngram corpus", role, options["corpus"]):
            texts = [d.text for d in load_corpus(options["corpus"])]
    alphabet = options.get("alphabet")
    if not texts and not alphabet:
        raise ConfigError(f"ngram backend {role!r} needs 'corpus' and/or 'alphabet'")
    return NGramScorer(order=_typed(f"{role}.order", options.get("order", 2), "int"),
                       corpus=texts, alphabet=alphabet)


def _fixture_scorer(options: Mapping[str, Any], role: str) -> FixtureScorer:
    scorer = FixtureScorer()
    _fill(options, role, lambda entry: scorer.add(
        _string(entry, "text"), entry.get("context"),
        logprobs=entry["logprobs"]))
    return scorer


def _fixture_generator(options: Mapping[str, Any], role: str) -> FixtureGenerator:
    generator = FixtureGenerator()
    _fill(options, role, lambda entry: generator.add(
        _string(entry, "prompt"), _string(entry, "response"),
        _string(entry, "finish_reason", "stop")))
    return generator


def _hash_embedder(options: Mapping[str, Any], role: str) -> HashEmbedder:
    _closed(options, role, ("dim", "ngram"))
    return HashEmbedder(dim=_typed(f"{role}.dim", options.get("dim", 64), "int"),
                        ngram=_typed(f"{role}.ngram", options.get("ngram", 3), "int"))


def _fixture_embedder(options: Mapping[str, Any], role: str) -> FixtureEmbedder:
    embedder = FixtureEmbedder()
    lengths: list[int] = []  # the first entry's vector length, shared by all

    def add(entry: Mapping) -> None:
        text, vector = _string(entry, "text"), _vector(entry)
        if not lengths:
            lengths.append(len(vector))
        elif len(vector) != lengths[0]:
            raise ValueError(f"vector length {len(vector)} differs from the "
                             f"first entry's {lengths[0]}")
        embedder.add(text, vector)

    _fill(options, role, add)
    return embedder


def _string(entry: Mapping, key: str, default: str | None = None) -> str:
    """The string ``entry[key]``; only a key with a default may be absent."""
    value = entry[key] if default is None else entry.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def _vector(entry: Mapping) -> list:
    """``entry["vector"]``, which must be a non-empty list of finite numbers."""
    vector = entry["vector"]
    if not (isinstance(vector, list) and vector and all(map(finite_number, vector))):
        raise ValueError(f"vector must be a non-empty list of finite numbers, "
                         f"got {vector!r}")
    return vector


def _fill(options: Mapping[str, Any], role: str,
          add: Callable[[Mapping], Any]) -> None:
    """Call ``add`` on each entry of a fixture backend's table file; an
    entry's KeyError, TypeError or ValueError becomes a ValueError naming
    its index. Fixture options are open: keys other than ``table`` (a
    ``model`` name, say) are ignored."""
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
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"fixture table {path} needs an 'entries' list of objects")
    for i, entry in enumerate(entries):
        try:
            add(entry)
        except KeyError as exc:
            raise ValueError(f"entry {i}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {i}: {exc}") from exc


_BUILDERS = {
    "scorer": {"http": _http("HttpScorer"), "ngram": _ngram_scorer,
               "fixture": _fixture_scorer},
    "generator": {"http": _http("HttpGenerator"), "fixture": _fixture_generator},
    "embedder": {"http": _http("HttpEmbedder"), "hash": _hash_embedder,
                 "fixture": _fixture_embedder},
}


def _build(what: str, spec: BackendSpec, role: str, **client_args):
    """Build ``spec`` as a ``what`` (a key of _BUILDERS) for ``role``;
    ``client_args`` go to an http client only. A builder's KeyError (a
    missing fixture field), TypeError or ValueError (an option of the wrong
    type or out of range) becomes a ConfigError."""
    builders = _BUILDERS[what]
    if spec.kind not in builders:
        raise ConfigError(f"{what} kind must be one of {tuple(builders)}, "
                          f"got {spec.kind!r}")
    try:
        if spec.kind == "http":
            return builders["http"](spec.options, role, **client_args)
        return builders[spec.kind](spec.options, role)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"invalid {spec.kind} backend {role!r}: {detail}") from exc


def build_scorer(spec: BackendSpec, role: str = "scorer", threads: int = 1):
    """``threads`` reaches an HTTP scorer only: see ``HttpScorer.score_many``."""
    return _build("scorer", spec, role, threads=threads)


def build_generator(spec: BackendSpec, role: str = "generator"):
    return _build("generator", spec, role)


def build_embedder(spec: BackendSpec, role: str = "embedder"):
    return _build("embedder", spec, role)


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
