"""Rule model, generation parsing, and granularity labels."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkkit.errors import RuleParseError
from chunkkit.rules import (
    PLACEHOLDERS,
    ChunkRule,
    GranularityLabel,
    label_for_mean,
    parse_rule_elements,
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
        with pytest.raises(RuleParseError, match="no bracketed list found"):
            parse_rule_list("no list here at all")

    def test_empty_list_raises(self):
        with pytest.raises(RuleParseError, match="no string elements"):
            parse_rule_list("[]")

    def test_round_trip_through_render(self):
        rules = parse_rule_list('["abc [MASK] def", "whole literal"]')
        again = parse_rule_list(render_rule_targets(rules.rules))
        assert again.rules == rules.rules


# -- the reader as it was: strict JSON first, then the quoted-string scan,
# and a split that tries each placeholder in turn --------------------------

_REFERENCE_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def reference_parse_rule_elements(text: str) -> list[str]:
    start = text.find("[")
    end = text.rfind("]")
    if start < 0 or end <= start:
        raise RuleParseError("no bracketed list found in generation")
    block = text[start:end + 1]
    try:
        data = json.loads(block)
        if isinstance(data, list) and all(isinstance(x, str) for x in data):
            return data
    except json.JSONDecodeError:
        pass
    elements = []
    for match in _REFERENCE_QUOTED.finditer(block):
        try:
            elements.append(json.loads(match.group(0)))
        except json.JSONDecodeError:
            continue
    if not elements:
        raise RuleParseError("bracketed list contains no string elements")
    return elements


def reference_split_rule_element(element: str) -> ChunkRule:
    if not element:
        raise RuleParseError("empty rule element")
    hit = None
    for marker in PLACEHOLDERS:
        pos = element.find(marker)
        if pos < 0:
            continue
        if hit is None or pos < hit[0] or (pos == hit[0] and len(marker) > len(hit[1])):
            hit = (pos, marker)
    if hit is None:
        return ChunkRule(prefix=element, placeholder=None)
    pos, marker = hit
    prefix = element[:pos]
    suffix = element[pos + len(marker):]
    if not prefix or not suffix:
        raise RuleParseError(
            f"placeholder {marker!r} at the edge of element {element[:60]!r}")
    return ChunkRule(prefix=prefix, placeholder=marker, suffix=suffix)


def outcome(fn, arg):
    """What ``fn(arg)`` returns, or the message it raises."""
    try:
        return fn(arg)
    except RuleParseError as exc:
        return ("raises", str(exc))


# pieces that make placeholders overlap, nest and touch the edges; control
# characters and a lone surrogate, which json.dumps escapes
_ELEMENT_PIECES = st.sampled_from([
    *PLACEHOLDERS, "a", "bc", " ", ".", "*", "?", "<", ">", "[", "]", "MASK",
    "<.", "<pad", "...", '"', "\\", "é", "\n", "\x00", "\x1f", "\t", "\ud800",
])
elements = st.lists(_ELEMENT_PIECES, max_size=8).map("".join)
json_lists = st.builds(
    lambda items, ascii, indent: json.dumps(items, ensure_ascii=ascii, indent=indent),
    st.lists(elements, max_size=5), st.booleans(), st.sampled_from([None, 1]))
# raw control characters, valid and invalid \u escapes (lone and paired
# surrogates too), a backslash before a newline, and escaped quotes
soup = st.lists(st.sampled_from([
    "[", "]", '"', "\\", '\\"', ",", " ", "\n", "a", "[MASK]", "\\u00e9", "\\x", "1",
    "\x00", "\x07", "\t", "\x7f", "\\u", "\\u12", "\\uZZZZ", "\\u00G1", "\\ud800",
    "\\udfff", "\\ud83d\\ude00", "\\ud83d\\u0041", "\\\n", '\\\\"', "\\/", "\\b",
]), max_size=24).map("".join)
generations = st.one_of(
    json_lists, soup,
    st.builds(lambda head, body, tail: head + body + tail, soup, json_lists, soup),
    st.builds(lambda body, rest: f'["{body}", {rest}]', soup, soup))


@settings(max_examples=300)
@given(text=generations)
def test_parse_rule_elements_matches_reference(text):
    expected = outcome(reference_parse_rule_elements, text)
    if expected == []:  # the one difference: an empty list is no rule list
        expected = ("raises", "bracketed list contains no string elements")
    assert outcome(parse_rule_elements, text) == expected


@settings(max_examples=300)
@given(element=elements)
def test_split_rule_element_matches_reference(element):
    assert outcome(split_rule_element, element) == \
        outcome(reference_split_rule_element, element)


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
        # right-closed: each bound is the last length of its label, and the
        # next float above it belongs to the next label
        for label, bound in enumerate((120.0, 150.0, 180.0)):
            assert label_for_mean(bound) == GranularityLabel(label)
            assert label_for_mean(math.nextafter(bound, math.inf)) == \
                GranularityLabel(label + 1)
        assert label_for_mean(math.nextafter(0.0, math.inf)) == GranularityLabel.FINE
        assert label_for_mean(float("inf")) == GranularityLabel.BROAD
