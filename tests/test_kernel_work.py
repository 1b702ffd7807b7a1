"""Edit-distance kernel work of ``dataset distill`` and ``dataset clean``,
counted exactly on the benchmark's ``distill`` inputs.

The work is the text characters the bit-parallel kernel reads: the sum of
``len(row) - 1`` over every ``fuzzy._last_row`` call, free-start and
reverse rows alike. ``perfbench/corpus.py`` builds the inputs; its fixed
skeleton gives every seed the same counts, so the totals are exact and do
not depend on the machine. ``clean`` runs on the ``--generated`` file of
``tools/compare_outputs.py``'s ``clean`` set.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from chunkkit import fuzzy
from chunkkit.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def compare_tool(monkeypatch):
    """``tools/compare_outputs.py``, which imports the benchmark's modules."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def kernel_chars(monkeypatch) -> list[int]:
    """One running total of the characters every kernel row reads."""
    total = [0]
    last_row = fuzzy._last_row

    def counted(pattern, text, free_start, floor=None):
        row = last_row(pattern, text, free_start, floor)
        total[0] += len(row) - 1
        return row
    monkeypatch.setattr(fuzzy, "_last_row", counted)
    return total


def test_distill_and_clean_kernel_characters(tmp_path, monkeypatch, compare_tool,
                                             kernel_chars):
    inputs = compare_tool.corpus.build("distill", 1, tmp_path)
    compare_tool.corpus.write_config("distill", tmp_path)
    compare_tool.write_generated(inputs, tmp_path / "generated.jsonl")
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    counts = {}
    for name, args in {"distill": compare_tool.run.COMMANDS["distill"][0],
                       "clean": compare_tool.SETS["clean"][1][0]}.items():
        kernel_chars[0] = 0
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        counts[name] = kernel_chars[0]
    # With a floor of 1 (all that a miss of str.find proves) in place of the
    # needle's pieces: distill 5,873 (4,267 free-start + 1,606 reverse rows),
    # clean 30,243.
    assert counts == {"distill": 3230, "clean": 21519}
