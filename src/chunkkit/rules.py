"""Chunk rules: anchor prefix + placeholder + anchor suffix.

A rule locates one chunk in the source text by its first and last few
characters, with one placeholder standing in for the omitted middle. Rules
with no placeholder are literal (the full chunk text). Parsing accepts any
of the eight known placeholders regardless of which one a generation was
asked to use, since models occasionally echo a different one.
"""

from __future__ import annotations

import bisect
import json
import re
from json.decoder import scanstring
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

from .errors import RuleParseError

#: The eight literal markers a rule may use in place of a chunk's middle.
PLACEHOLDERS: tuple[str, ...] = (
    "<omitted>", "<ellipsis>", "[MASK]", "[ELLIPSIS]", ".*?", "<...>", "<.*>", "<pad>",
)

DEFAULT_PLACEHOLDER = "[MASK]"


class GranularityLabel(IntEnum):
    """Average-chunk-length class; smaller labels mean finer chunking.

    Intervals (characters, right-closed): 0 -> (0, 120], 1 -> (120, 150],
    2 -> (150, 180], 3 -> (180, +inf); ``label_for_mean`` holds the bounds.
    """

    FINE = 0
    MEDIUM = 1
    COARSE = 2
    BROAD = 3


# the upper bounds of labels 0-2; label 3 has none
_UPPER_BOUNDS = (120.0, 150.0, 180.0)


def label_for_mean(mean_len: float) -> GranularityLabel:
    """Map a mean chunk length onto its granularity label (right-closed)."""
    if mean_len <= 0:
        raise ValueError(f"mean length must be positive, got {mean_len}")
    return GranularityLabel(bisect.bisect_left(_UPPER_BOUNDS, mean_len))


@dataclass(frozen=True)
class ChunkRule:
    """One "prefix + placeholder + suffix" pattern; literal when the
    placeholder is absent (then ``prefix`` holds the whole chunk text)."""

    prefix: str
    placeholder: str | None
    suffix: str = ""

    def __post_init__(self):
        if self.placeholder is None:
            if not self.prefix:
                raise ValueError("literal rule needs non-empty text")
            if self.suffix:
                raise ValueError("literal rule must keep its text in prefix")
        else:
            if self.placeholder not in PLACEHOLDERS:
                raise ValueError(f"unknown placeholder {self.placeholder!r}")
            if not self.prefix or not self.suffix:
                raise ValueError(
                    "anchored rule needs non-empty prefix and suffix"
                )

    @property
    def literal(self) -> bool:
        return self.placeholder is None

    def pattern_text(self) -> str:
        """The rule as it appears in a generated list element."""
        if self.literal:
            return self.prefix
        return f"{self.prefix}{self.placeholder}{self.suffix}"


@dataclass(frozen=True)
class RuleList:
    """Ordered rules for one document."""

    rules: tuple[ChunkRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


# longest first: at one position an alternation takes the first that matches
_PLACEHOLDER = re.compile("|".join(
    map(re.escape, sorted(PLACEHOLDERS, key=len, reverse=True))))


def split_rule_element(element: str) -> ChunkRule:
    """Split one list element at its placeholder (earliest match wins,
    longest placeholder on position ties); no placeholder means literal."""
    if not element:
        raise RuleParseError("empty rule element")
    hit = _PLACEHOLDER.search(element)
    if hit is None:
        return ChunkRule(prefix=element, placeholder=None)
    prefix, marker, suffix = element[:hit.start()], hit.group(), element[hit.end():]
    if not prefix or not suffix:
        raise RuleParseError(
            f"placeholder {marker!r} at the edge of element {element[:60]!r}")
    return ChunkRule(prefix=prefix, placeholder=marker, suffix=suffix)


_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def parse_rule_elements(text: str) -> list[str]:
    """The string elements of the bracket block of ``text``: from its first
    ``[`` to its last ``]``, every double-quoted JSON string literal in order,
    each decoded by ``json.decoder.scanstring``, the C scanner that
    ``json.loads`` runs on a string literal.

    One scan reads strict JSON and the almost-JSON that models tend to emit,
    such as a trailing comma; a quoted run that is no valid JSON string is
    skipped. A block without a string element, ``[]``
    included, raises :class:`RuleParseError`.
    """
    start = text.find("[")
    end = text.rfind("]")
    if start < 0 or end <= start:
        raise RuleParseError("no bracketed list found in generation")
    elements = []
    for match in _QUOTED.finditer(text, start, end + 1):
        try:
            elements.append(scanstring(text, match.start() + 1, True)[0])
        except json.JSONDecodeError:
            continue
    if not elements:
        raise RuleParseError("bracketed list contains no string elements")
    return elements


def parse_rule_list(generated: str) -> RuleList:
    """Parse a generation into an ordered ``RuleList``."""
    return RuleList(tuple(map(split_rule_element, parse_rule_elements(generated))))


def render_rule_targets(rules: Iterable[ChunkRule]) -> str:
    """Serialize rules back into the JSON list format used for training
    targets and fixture generations."""
    return json.dumps([r.pattern_text() for r in rules], ensure_ascii=False, indent=1)
