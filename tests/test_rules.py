"""Rule model, generation parsing, and granularity labels."""

from __future__ import annotations

import pytest

from chunkkit.errors import RuleParseError
from chunkkit.rules import (
    PLACEHOLDERS,
    ChunkRule,
    GranularityLabel,
    label_for_mean,
    parse_rule_list,
    render_rule_targets,
    split_rule_element,
)


class TestChunkRule:
    def test_literal_keeps_text_in_prefix(self):
        rule = ChunkRule(prefix="Short chunk.", placeholder=None)
        assert rule.literal
        assert rule.pattern_text() == "Short chunk."

    def test_anchored_needs_both_anchors(self):
        with pytest.raises(ValueError):
            ChunkRule(prefix="", placeholder="[MASK]", suffix="end")

    def test_unknown_placeholder_rejected(self):
        with pytest.raises(ValueError):
            ChunkRule(prefix="a", placeholder="<???>", suffix="b")


class TestSplitRuleElement:
    def test_basic_split(self):
        rule = split_rule_element("The sun rose [MASK] over the bay.")
        assert rule.prefix == "The sun rose "
        assert rule.placeholder == "[MASK]"
        assert rule.suffix == " over the bay."

    def test_no_placeholder_is_literal(self):
        rule = split_rule_element("Short chunk.")
        assert rule.literal

    @pytest.mark.parametrize("marker", PLACEHOLDERS)
    def test_every_placeholder_accepted(self, marker):
        rule = split_rule_element(f"start {marker} end")
        assert rule.placeholder == marker

    def test_earliest_placeholder_wins(self):
        rule = split_rule_element("a <pad> b [MASK] c")
        assert rule.placeholder == "<pad>"
        assert rule.suffix == " b [MASK] c"

    def test_edge_placeholder_rejected(self):
        with pytest.raises(RuleParseError):
            split_rule_element("[MASK] only suffix")


class TestParseRuleList:
    def test_direct_parse(self):
        generation = (
            '[\n "The sun rose [MASK] over the bay.",\n'
            ' "Then the [MASK] ended."\n]'
        )
        rules = parse_rule_list(generation)
        assert len(rules) == 2
        assert rules.rules[0].prefix == "The sun rose "
        assert rules.rules[0].suffix == " over the bay."
        assert rules.rules[1].prefix == "Then the "
        assert rules.raw == generation

    def test_prose_preamble_tolerated(self):
        generation = 'Sure! Here is the list:\n["alpha [MASK] omega"]\nDone.'
        rules = parse_rule_list(generation)
        assert rules.rules[0].prefix == "alpha "

    def test_almost_json_falls_back_to_quoted_strings(self):
        generation = '[\n "one [MASK] two",\n "three [MASK] four",\n]'  # trailing comma
        rules = parse_rule_list(generation)
        assert len(rules) == 2

    def test_escaped_quotes_survive(self):
        generation = '["say \\"hi\\" [MASK] bye now"]'
        rules = parse_rule_list(generation)
        assert rules.rules[0].prefix == 'say "hi" '

    def test_no_list_raises_with_raw(self):
        with pytest.raises(RuleParseError) as err:
            parse_rule_list("no list here at all")
        assert err.value.raw == "no list here at all"

    def test_round_trip_through_render(self):
        rules = parse_rule_list('["abc [MASK] def", "whole literal"]')
        again = parse_rule_list(render_rule_targets(rules.rules))
        assert again.rules == rules.rules


class TestGranularityLabels:
    @pytest.mark.parametrize("mean,expected", [
        (120, 0), (150, 1), (180, 2), (181, 3),
        (1, 0), (120.0001, 1), (150.5, 2), (5000, 3),
    ])
    def test_interval_mapping(self, mean, expected):
        assert label_for_mean(mean) == GranularityLabel(expected)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            label_for_mean(0)

    def test_intervals_documented(self):
        assert GranularityLabel.FINE.interval == (0.0, 120.0)
        assert GranularityLabel.BROAD.interval[1] == float("inf")
