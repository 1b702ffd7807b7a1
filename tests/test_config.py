"""Config parsing, validation, and backend construction."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import pytest
from click.testing import CliRunner

import chunkkit
from chunkkit.cli import main
from chunkkit.backends import BackendHandle
from chunkkit.config import (
    BackendSpec,
    ChunkerParams,
    DatasetParams,
    MetricsParams,
    RunConfig,
    build_embedder,
    build_experts,
    build_generator,
    build_scorer,
    load_config,
    override,
    parse_config,
    read_record,
)
from chunkkit.errors import ConfigError
from chunkkit.rules import GranularityLabel
from chunkkit.scoring import (
    FixtureEmbedder,
    FixtureGenerator,
    FixtureScorer,
    HashEmbedder,
    NGramScorer,
)
from chunkkit.text import Document, save_corpus


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeConfig:
    """The README's configuration example stays a valid config that names
    every parameter key, so a key added or removed in code shows there."""

    @pytest.fixture(scope="class")
    def block(self):
        import yaml
        (text,) = re.findall(r"^```yaml\n(.*?)^```$", README.read_text(encoding="utf-8"),
                             re.DOTALL | re.MULTILINE)
        return yaml.safe_load(text)

    def test_example_parses(self, block):
        config = parse_config(block)
        assert sorted(config.experts) == [0, 1, 2, 3]
        assert config.generator.options["api_key_env"] == "LLM_TOKEN"

    @pytest.mark.parametrize("section,record", [
        ("metrics", MetricsParams), ("chunker", ChunkerParams),
        ("dataset", DatasetParams)])
    def test_example_names_every_key(self, block, section, record):
        assert set(block[section]) == {f.name for f in fields(record)}


def test_readme_quick_tour_runs():
    """The README's library quick tour runs as written, in a fresh
    interpreter, so a change to the public API it uses shows here."""
    (code,) = re.findall(r"^## Library quick tour\n\n```python\n(.*?)^```$",
                         README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    src = str(Path(chunkkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    stickiness, clarity = map(float, result.stdout.split())
    assert stickiness >= 0 and clarity > 0


class TestLoadConfig:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "metrics": {"k": 0.7, "delta": 1},
            "concurrency": 3,
        }))
        config = load_config(path)
        assert config.metrics.k == 0.7
        assert config.concurrency == 3

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            "scorer: {kind: ngram, order: 3, alphabet: abc}\n"
            "chunker: {method: boundary, target_len: 120, overlap: 10}\n"
        )
        config = load_config(path)
        assert config.scorer.kind == "ngram"
        assert config.chunker.method == "boundary"
        assert config.chunker.overlap == 10

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "c.yml"
        path.write_text("metrics: [k\n")
        with pytest.raises(ConfigError, match=r"c\.yml: invalid YAML"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config({"scroer": {"kind": "ngram"}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown keys in 'metrics'"):
            parse_config({"metrics": {"kk": 0.8}})

    def test_removed_chunker_unit_is_unknown(self, tmp_path):
        # chunk lengths are always characters; the key that named the unit is gone
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"chunker": {"unit": "chars"}}))
        with pytest.raises(ConfigError, match="unknown keys in 'chunker'"):
            load_config(path)
        result = CliRunner().invoke(main, ["--config", str(path), "chunk", "--corpus",
                                           str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "unknown keys in 'chunker'" in result.output

    def test_removed_seed_is_unknown(self, tmp_path):
        # nothing is random, so there is no root seed to set
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)
        result = CliRunner().invoke(main, ["--config", str(path), "chunk", "--corpus",
                                           str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.output.startswith("error: unknown config keys: ['seed']")
        result = CliRunner().invoke(main, ["--seed", "9", "chunk", "--corpus",
                                           str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "No such option '--seed'" in result.output

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError, match="k must be in"):
            parse_config({"metrics": {"k": 1.5}})

    @pytest.mark.parametrize("chunker,message", [
        ({"target_len": 0}, "target_len must be >= 1"),
        ({"target_len": 5, "overlap": 30}, "overlap must satisfy"),
        ({"target_len": 5, "overlap": 5}, "overlap must satisfy"),
        ({"overlap": -1}, "overlap must satisfy"),
        ({"threshold": 1.5}, r"threshold must be in \[-1, 1\]"),
        ({"threshold": float("nan")}, "threshold must be in"),
        ({"method": "bogus"}, "chunker.method must be one of"),
    ])
    def test_chunker_size_out_of_range(self, chunker, message):
        with pytest.raises(ConfigError, match=message):
            parse_config({"chunker": chunker})

    @pytest.mark.parametrize("dataset,message", [
        ({"max_window_tokens": 0}, "max_window_tokens must be >= 1"),
        ({"placeholder": "<bogus>"}, "unknown placeholder '<bogus>'"),
        ({"flag_ratio": 1.5}, "flag_ratio must be >= 0 and <= 1"),
        ({"anchor_len": 0}, "anchor_len must be >= 1"),
        ({"router_target_chars": 0}, "router_target_chars must be >= 1"),
        ({"flag_ratio": -0.1}, "flag_ratio must be >= 0"),
        ({"flag_ratio": float("nan")}, "flag_ratio must be >= 0"),
    ])
    def test_dataset_knob_out_of_range(self, dataset, message):
        with pytest.raises(ConfigError, match=message):
            parse_config({"dataset": dataset})

    def test_dataset_knob_edges_accepted(self):
        params = parse_config({"dataset": {
            "max_window_tokens": 1, "anchor_len": 1,
            "router_target_chars": 1, "flag_ratio": 0.0}}).dataset
        assert (params.max_window_tokens, params.anchor_len) == (1, 1)
        assert (params.router_target_chars, params.flag_ratio) == (1, 0.0)

    def test_chunker_size_edges_accepted(self):
        config = parse_config({"chunker": {"target_len": 1, "overlap": 0,
                                           "threshold": -1.0}})
        assert override(config, chunker={"threshold": 1.0}).chunker.threshold == 1.0
        with pytest.raises(ConfigError, match="overlap must satisfy"):
            override(config, chunker={"overlap": 1})

    @pytest.mark.parametrize("concurrency,ok", [(0, False), (1, True), (64, True),
                                                (65, False)])
    def test_concurrency_edges(self, concurrency, ok):
        if ok:
            assert parse_config({"concurrency": concurrency}).concurrency == concurrency
        else:
            with pytest.raises(ConfigError, match=r"^concurrency must be >= 1 and "
                                                  r"<= 64, got -?\d+$"):
                parse_config({"concurrency": concurrency})

    def test_bad_expert_label(self):
        with pytest.raises(ConfigError, match="invalid expert label"):
            parse_config({"experts": {"7": {"kind": "http"}}})

    @pytest.mark.parametrize("label", [1.5, True])
    def test_bad_expert_label_not_a_string(self, label):
        with pytest.raises(ConfigError, match="invalid expert label"):
            parse_config({"experts": {label: {"kind": "http"}}})

    def test_bad_placeholder(self):
        with pytest.raises(ConfigError, match="placeholder"):
            parse_config({"dataset": {"placeholder": "<nope>"}})


class TestReadRecord:
    # Every field is read once, so an annotation the reader's type table
    # does not know fails here rather than in a run.
    @pytest.mark.parametrize("cls", [MetricsParams, ChunkerParams, DatasetParams])
    def test_section_reads_its_own_defaults(self, cls):
        assert read_record(cls, asdict(cls()), "section") == cls()

    def test_backend_handle_reads_a_minimal_mapping(self):
        handle = read_record(BackendHandle, {"endpoint": "http://x", "model": "m"},
                             "scorer")
        assert read_record(BackendHandle, asdict(handle), "scorer") == handle

    @pytest.mark.parametrize("section,message", [
        ({"chunker": {"target_len": True}},
         "chunker.target_len must be an integer, got True"),
        ({"chunker": {"threshold": "0.5"}},
         "chunker.threshold must be a number, got '0.5'"),
        ({"chunker": {"method": None}}, "chunker.method must be a string, got None"),
        ({"metrics": {"k": False}}, "metrics.k must be a number, got False"),
    ])
    def test_value_of_the_wrong_json_type(self, section, message):
        with pytest.raises(ConfigError) as info:
            parse_config(section)
        assert str(info.value) == message

    def test_float_key_takes_an_integer_and_optional_key_null(self):
        assert parse_config({"chunker": {"threshold": 1}}).chunker.threshold == 1
        handle = read_record(BackendHandle, {"endpoint": "https://x", "model": "m",
                                             "max_context_chars": None}, "scorer")
        assert handle.max_context_chars is None
        with pytest.raises(ConfigError, match=r"^scorer\.max_context_chars must be an "
                                              r"integer or null, got 1\.5$"):
            read_record(BackendHandle, {"endpoint": "https://x", "model": "m",
                                        "max_context_chars": 1.5}, "scorer")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                       10**400],
                             ids=["inf", "minus-inf", "nan", "int-beyond-floats"])
    def test_float_field_takes_only_a_finite_number(self, value):
        # a record with no range checks: every float field inherits the rule
        @dataclass(frozen=True)
        class Knobs:
            ratio: float = 0.5
            limit: float | None = None

        for key in ("ratio", "limit"):
            with pytest.raises(ConfigError) as info:
                read_record(Knobs, {key: value}, "knobs")
            assert str(info.value) == \
                f"knobs.{key} must be a finite number, got {value!r}"
        assert read_record(Knobs, {"ratio": 10**300, "limit": None}, "knobs") == \
            Knobs(10**300, None)

    @pytest.mark.parametrize("section,key", [
        ("metrics", "k"), ("chunker", "threshold"), ("dataset", "flag_ratio"),
    ])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                             ids=["inf", "minus-inf", "nan"])
    def test_non_finite_config_value_names_its_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be"):
            parse_config({section: {key: value}})


class TestBuildBackends:
    def test_ngram_scorer_from_corpus_file(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        save_corpus([Document(id="a", text="aab")], corpus)
        scorer = build_scorer(BackendSpec("ngram", {"order": 1,
                                                    "corpus": str(corpus)}))
        assert isinstance(scorer, NGramScorer)
        # unigram add-one over "aab" with V = 2: (2 + 1) / 5 and (1 + 1) / 5
        assert list(scorer.score("ab").logprobs) == \
            pytest.approx([math.log(3 / 5), math.log(2 / 5)])

    def test_ngram_requires_corpus_or_alphabet(self):
        with pytest.raises(ConfigError, match="corpus"):
            build_scorer(BackendSpec("ngram", {"order": 2}))

    @pytest.mark.parametrize("kind, key, name, strerror", [
        ("ngram", "corpus", "missing.jsonl", "No such file or directory"),
        ("ngram", "corpus", "", "Is a directory"),
        ("fixture", "table", "", "Is a directory"),
    ], ids=["ngram-corpus-missing", "ngram-corpus-directory",
            "fixture-table-directory"])
    def test_unreadable_option_file(self, tmp_path, kind, key, name, strerror):
        path = tmp_path / name
        with pytest.raises(ConfigError) as info:
            build_scorer(BackendSpec(kind, {key: str(path)}))
        assert str(info.value) == f"{kind} {key} for 'scorer': {path}: {strerror}"

    def test_fixture_scorer_from_table(self, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"entries": [
            {"text": "ab", "logprobs": [-0.5, -0.5]},
        ]}))
        scorer = build_scorer(BackendSpec("fixture", {"table": str(table)}))
        assert isinstance(scorer, FixtureScorer)
        assert scorer.score("ab").logprobs == (-0.5, -0.5)

    def test_fixture_scorer_reads_logprobs_only(self, tmp_path):
        # probabilities are no input format: an entry without logprobs
        # misses a key, as an entry without its text does
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"entries": [
            {"text": "ab", "probs": [0.5, 0.5]},
        ]}))
        with pytest.raises(ConfigError) as info:
            build_scorer(BackendSpec("fixture", {"table": str(table)}))
        assert str(info.value) == (
            "invalid fixture backend 'scorer': entry 0: missing key 'logprobs'")

    def test_fixture_generator_from_table(self, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"entries": [
            {"prompt": "p", "response": "r"},
        ]}))
        gen = build_generator(BackendSpec("fixture", {"table": str(table)}))
        assert isinstance(gen, FixtureGenerator)
        assert gen.generate("p").text == "r"

    def test_fixture_embedder_from_table(self, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"entries": [
            {"text": "x", "vector": [1.0, 0.0]},
        ]}))
        emb = build_embedder(BackendSpec("fixture", {"table": str(table)}))
        assert isinstance(emb, FixtureEmbedder)
        assert list(emb.embed("x")) == [1.0, 0.0]

    def test_fixture_entry_not_an_object(self, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"entries": [["ab", [0.5, 0.5]]]}))
        with pytest.raises(ConfigError, match="'entries' list of objects"):
            build_scorer(BackendSpec("fixture", {"table": str(table)}))

    def test_hash_embedder(self):
        emb = build_embedder(BackendSpec("hash", {"dim": 16}))
        assert isinstance(emb, HashEmbedder)
        assert emb.dim == 16

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="scorer kind"):
            build_scorer(BackendSpec("quantum", {}))

    def test_http_options_validated(self):
        with pytest.raises(ConfigError, match=r"unknown keys in 'scorer': \['portt'\]"):
            build_scorer(BackendSpec("http", {"endpoint": "http://x",
                                              "model": "m", "portt": 1}))

    def test_experts_require_all_labels(self, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"entries": [
            {"prompt": "p", "response": "r"},
        ]}))
        spec = BackendSpec("fixture", {"table": str(table)})
        with pytest.raises(ConfigError, match="missing for labels"):
            build_experts(RunConfig(experts={0: spec}))
        experts = build_experts(RunConfig(experts={i: spec for i in range(4)}))
        assert set(experts) == set(GranularityLabel)


class TestOverride:
    def test_section_patch_ignores_none(self):
        config = RunConfig()
        patched = override(config, metrics={"k": None, "delta": 2})
        assert patched.metrics.k == 0.8
        assert patched.metrics.delta == 2

    def test_no_patch_returns_same_values(self):
        config = RunConfig()
        assert override(config, metrics={"k": None}) == config
