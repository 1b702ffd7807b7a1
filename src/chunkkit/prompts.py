"""Prompt templates for distillation, rule generation, and routing.

Slots like ``{text}`` are filled in one pass (never ``str.format``), so
braces in a filled value, ``{placeholder}`` included, are kept verbatim.
"""

from __future__ import annotations

import re

#: Asks a strong model for full chunk texts wrapped in <chunk> tags.
DISTILL_PROMPT = """\
You are an expert at segmenting text for retrieval. Split the document \
below into text chunks, following every rule:
1. Cut only where the logical or semantic structure shifts, so each chunk \
carries one complete, self-contained idea.
2. Do not make chunks too short; balance recognizing transitions against \
reasonable chunk length.
3. Copy the original text exactly: never reword, drop, or invent anything.
4. Wrap every chunk in <chunk> and </chunk> tags and output all chunks in \
order, covering the whole document.

Document content: {text}

The segmented text chunks are:
"""

#: Asks a chunking expert for a JSON list of anchor+placeholder rules.
RULE_CHUNK_PROMPT = """\
You are an expert at segmenting text for retrieval. Split the document \
below into text chunks, following every rule:
1. Group consecutive, related sentences into chunks so each chunk carries \
one complete logical expression.
2. Do not make chunks too short; balance recognizing transitions against \
reasonable chunk length.
3. Output the result as a list, one element per chunk, in document order.
4. Each element must contain only the first few characters of the chunk, \
then {placeholder} standing in for the middle, then the last few \
characters. Use this output format:
[
 "First few characters of the chunk {placeholder} last few characters",
 ......
]
Segment the following document and answer with the list only.

Document content: {text}
"""

#: Asks for a single digit classifying the document's chunk granularity.
ROUTER_PROMPT = """\
You classify how finely a document should be chunked for retrieval. The \
granularity classes are average chunk lengths in characters:
0: up to 120
1: over 120, up to 150
2: over 150, up to 180
3: over 180
Read the text and answer with exactly one digit (0, 1, 2, or 3), nothing \
else.

Text: {text}

Granularity class:
"""


_SLOT = re.compile(r"\{(\w+)\}")


def render(template: str, **slots: str) -> str:
    """Fill ``{name}`` slots in one pass; a slot not in ``slots`` stays."""
    return _SLOT.sub(lambda m: slots.get(m.group(1), m.group(0)), template)
