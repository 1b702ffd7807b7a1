"""The pure parts of ``tools/bench_pairs.py``: the run order of each pair,
the medians, IQR and wins of the summary, and the next free BENCH file.
No workload runs here."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


SPEC = [{"name": "chars_per_s", "unit": "chars/s", "better": "higher", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def line(chars_per_s: float, setup_s: float) -> dict:
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "chars_per_s": {"value": chars_per_s, "unit": "chars/s"},
        "setup_s": {"value": setup_s, "unit": "s"}}}


def test_pairs_alternate_which_tree_runs_first(tool):
    assert tool.run_order(4) == [("parent", "change"), ("change", "parent")] * 2
    assert tool.run_order(1) == [("parent", "change")]


def test_summary_medians_change_iqr_and_wins(tool):
    pairs = [{"parent": line(p, ps), "change": line(c, cs)}
             for p, c, ps, cs in [(100, 130, 0.2, 0.2), (110, 120, 0.3, 0.1),
                                  (90, 80, 0.2, 0.3), (120, 140, 0.1, 0.1),
                                  (100, 125, 0.2, 0.25)]]
    speed, setup = tool.summarize(pairs, SPEC)
    assert (speed["parent"], speed["change"]) == (100, 125)
    assert speed["relative"] == pytest.approx(0.25)
    # quartiles of 90, 100, 100, 110, 120 by the exclusive method: 95, 115
    assert speed["parent_iqr"] == pytest.approx(20.0)
    assert speed["wins"] == 4 and speed["pairs"] == 5  # higher is better
    assert setup["wins"] == 1  # lower is better, and ties do not win
    assert (setup["parent"], setup["change"], setup["bound"]) == (0.2, 0.2, 0.25)


def test_iqr_of_fewer_than_two_runs_is_zero(tool):
    assert tool.iqr([5.0]) == 0.0


def test_next_free_bench_file(tool, tmp_path):
    assert tool.next_free(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json", "BENCH_2.txt"):
        (tmp_path / name).write_text("{}")
    assert tool.next_free(tmp_path).name == "BENCH_2.json"
    (tmp_path / "BENCH_2.json").write_text("{}")
    assert tool.next_free(tmp_path).name == "BENCH_4.json"


def test_exact_counters_read_from_the_printed_lines(tool):
    stdout = ("workload=eval seed=1 chars=1 passes=3 untraced\n"
              "  chars_per_s          296652 chars/s\n"
              "  score_calls            2492 count\n"
              "  lm_chars             656122 chars\n"
              '{"correct": true}\n')
    assert tool.exact_counters(stdout) == {"score_calls": 2492.0, "lm_chars": 656122.0}
