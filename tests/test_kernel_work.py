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

from click.testing import CliRunner

from chunkkit.cli import main


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
    # clean 30,243. Before the candidate filter, when each clean search read
    # its document from the start up to the match: clean 21,519. distill's
    # matches start near their search's start, so the filter leaves it.
    assert counts == {"distill": 3230, "clean": 9547}
