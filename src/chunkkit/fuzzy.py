"""Levenshtein edit distance and approximate substring location.

One bit-parallel kernel computes every distance: Myers' bit-vector
algorithm (JACM 46(3), 1999) for the free-start row and Hyyrö's global
variant (Nordic J. Computing 10(1), 2003) for exact distances. Python ints
are bit vectors of any width, so an m-char pattern against an n-char text
costs O(ceil(m/w) * n) operations on w-bit machine words: a few big-int
ops per text character.

The substring search returns an exact occurrence from ``str.find``.
Otherwise a free-start row gives the best distance ending at each haystack
position, and a global row over the reversed window before each candidate
end recovers its start. Ties are resolved smallest distance, then smallest
start, then span length closest to the needle's (a one-substitution match
beats a one-deletion match), then smallest end.

A miss of ``str.find`` proves every distance is at least 1; the needle's
pieces prove more. The partition filter (Wu & Manber, CACM 35(10), 1992;
Navarro, ACM CSUR 33(1), 2001) cuts the needle from the left into pieces,
each ending at its shortest prefix that does not occur in the search
region. An edit touches at most one piece, so an alignment with fewer
edits than pieces leaves one piece whole, and that piece would occur in
the region: the piece count k bounds every distance from below.

The free-start row stops at this floor: once it first reaches k at some
end e1, the best distance d* is k, and the row stops at e1 + 2k - 1. A
span of distance d* is within d* of the needle's length, so an end at
e1 + 2d* or later starts no earlier than the best span ending at e1; when
it starts at the same place, that span is d* shorter than the needle and
the later one d* longer, so the tie goes to the smaller end e1. When d* is
above k the row never reaches the floor and spans the whole haystack.
Either way the distance is exact; there is no cap.

The candidate filter reads only where the needle's parts occur. It is
partitioning into exact search (Wu & Manber, above; Baeza-Yates & Navarro,
"Faster approximate string matching", Algorithmica 23(2), 1999). Cut the
needle into U + 1 parts: the edits of a span within U of it touch at most U
parts, so one part at offset o occurs in the span exactly, at some p. The
span then starts within U of p - o and ends before p - o + m + 2U. The
search starts with U the floor, finds each part's occurrences with
``str.find``, runs the search above in the merged windows
[p - o - U, p - o + m + 2U) around them, and keeps the least span over the
windows. If its distance is at most U, every span within U lies in a
window, so it is the answer; otherwise every distance exceeds U, and U
doubles. Each window's row stops at the floor too, and a window whose
distance exceeds U recovers no start.

The whole region is read, with the floor, in two cases. Parts under four
characters occur almost everywhere, so their windows skip little. And a
window that starts within m of the region start shows that the row from
the region start stops near that window anyway, so the windows would skip
nothing; windows that would cover the region start there too. The filter
gives up at the first occurrence that puts a window there, so a search
whose match lies near its start, as ``dataset distill``'s do, costs it a
few ``str.find`` calls.

A chunk with every fifth character rewritten is about m/5 from its source,
and its floor is about m/5 too: its parts are four or five characters
long. Parts that short occur all over a document, so a window often starts
within m of the region start, and such a chunk then reads its region from
the start to its match. Above a distance of about m/4 the parts fall under
four characters, and the whole region is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AnchorNotFoundError

# An anchor is recovered when its edit distance is at most this share of its
# length, rounded up.
_MAX_RATIO = 0.5


def _last_row(pattern: str, text: str, free_start: bool,
              floor: int | None = None) -> list[int]:
    """Last DP row: entry j is the edit distance of ``pattern`` to
    ``text[:j]``, or to its best suffix when ``free_start`` is true.

    Bit i of pv/mv flags D[i+1][j] - D[i][j] = +1/-1. The bit shifted into
    ph is DP row 0's horizontal delta: 0 with a free start, 1 for global.

    ``floor`` is a bound the caller has proven no entry falls below. The
    row then ends ``2 * floor - 1`` entries after the first entry equal to
    it, or at the end of ``text`` if no entry is: an end ``2 * floor`` or
    more past that entry cannot win the ties of ``best_substring_match``.
    """
    m = len(pattern)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    carry = 0 if free_start else 1
    peq: dict[str, int] = {}
    for i, c in enumerate(pattern):
        peq[c] = peq.get(c, 0) | (1 << i)
    pv, mv, score = mask, 0, m
    row = [m]
    append = row.append
    # stop: the score whose decrement reaches the floor (-1: none does);
    # end: where the row stops, 2 * floor - 1 past entry 0 if that is the floor
    stop = -1 if floor is None else floor + 1
    end = 2 * floor - 1 if m == floor else len(text)
    while True:
        for c in text[len(row) - 1:end]:
            eq = peq.get(c, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask ^ (xh | pv))
            mh = pv & xh
            if ph & high:
                score += 1
            elif mh & high:
                if score == stop:
                    break  # before any state changes: the next pass reads c
                score -= 1
            ph = (ph << 1) | carry
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
            append(score)
        else:
            return row
        # c takes the row to the floor at entry len(row): read it and 2 * floor - 1 more
        end = len(row) + 2 * floor - 1
        stop = -1


def edit_distance(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions, or
    substitutions transforming ``a`` into ``b``."""
    if len(a) < len(b):
        a, b = b, a  # the shorter string sets the loop count
    if not b:
        return len(a)
    return _last_row(a, b, free_start=False)[-1]


@dataclass(frozen=True)
class SpanMatch:
    """A located substring with its edit distance to the needle."""

    start: int
    end: int
    distance: int


def _best_start_for_end(needle: str, hay: str, end: int, max_len: int) -> tuple[int, int]:
    """(distance, start) of the best substring of ``hay`` ending at ``end``.

    One global row over the reversed window [end - max_len, end] yields the
    distance for every start; among minimal distances the smallest start wins.
    """
    lo = max(0, end - max_len)
    row = _last_row(needle[::-1], hay[lo:end][::-1], free_start=False)
    # row[k] = distance(needle, hay[end-k:end]); start = end - k.
    best_dist = min(row)
    best_start = end - max(k for k, d in enumerate(row) if d == best_dist)
    return best_dist, best_start


def _pieces(needle: str, hay: str) -> int:
    """The number of pieces cut from the left of ``needle``, each at its
    shortest prefix absent from ``hay``: a lower bound on the distance of
    ``needle`` to every substring of ``hay`` (see the module doc).

    A prefix that is absent stays absent as it grows, so each cut is found
    by galloping (lengths 1, 2, 4, ...) and then bisecting: k pieces take
    O(k log(m / k)) containment tests for an m-char needle, at most about
    4m / 3 (pieces of three characters), each one C-level search of
    ``hay``.
    """
    m = len(needle)
    pieces = i = 0
    while i < m:
        lo, hi = 0, 1  # needle[i:i + lo] occurs in hay; is needle[i:i + hi] absent?
        while needle[i:i + hi] in hay:
            if hi == m - i:
                return pieces  # the rest of the needle occurs: no further piece
            lo, hi = hi, min(2 * hi, m - i)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if needle[i:i + mid] in hay:
                lo = mid
            else:
                hi = mid
        pieces += 1
        i += hi
    return pieces


def best_substring_match(needle: str, haystack: str, search_from: int = 0,
                         search_to: int | None = None) -> SpanMatch:
    """The substring of ``haystack[search_from:search_to]`` closest to
    ``needle``.

    ``search_to`` bounds the search as ``str.find``'s ``end`` does; None is
    the end of ``haystack``. The search reads only the windows around exact
    occurrences of the needle's parts when they prove the distance, else the
    characters between the two bounds, or only up to the end of the best
    match when the needle's pieces prove its distance (see the module doc).
    Among all spans with minimal edit distance the smallest start wins, then
    the span length closest to the needle's length, then the smallest end.
    An exact occurrence is found by ``str.find``: distance 0 forces an
    exact-length span, so the earliest occurrence is the answer.
    """
    if not needle:
        raise ValueError("needle must be non-empty")
    if search_to is None:
        search_to = len(haystack)
    if not (0 <= search_from < search_to <= len(haystack)):
        raise ValueError(
            f"search range [{search_from}, {search_to}) outside haystack "
            f"of length {len(haystack)}, or empty"
        )
    m = len(needle)
    pos = haystack.find(needle, search_from, search_to)
    if pos >= 0:
        return SpanMatch(start=pos, end=pos + m, distance=0)
    hay = haystack[search_from:search_to]

    # no exact occurrence: the pieces bound every distance (see the module doc)
    floor = _pieces(needle, hay)
    best = _filtered(needle, hay, floor) or _search(needle, hay, floor)
    distance, start, _, end = best
    return SpanMatch(search_from + start, search_from + end, distance)


# A key orders spans as best_substring_match does: (distance, start,
# |length - m|, end), least first.
_Key = tuple[int, int, int, int]


def _search(needle: str, hay: str, floor: int, limit: int | None = None) -> _Key | None:
    """The least key over every span of ``hay``, which holds no exact
    occurrence of ``needle``; ``floor`` is a proven bound under every
    distance. None, before any start is recovered, when every distance
    exceeds ``limit``."""
    m = len(needle)
    row = _last_row(needle, hay, free_start=True, floor=floor)
    d_star = min(row)
    if limit is not None and d_star > limit:
        return None
    max_len = m + d_star  # any optimal span has length in [m - d*, m + d*]

    # candidate key: (start, |length - m|, end); compared lexicographically
    best: tuple[int, int, int] | None = None
    for end, dist in enumerate(row):
        if dist != d_star:
            continue
        if best is not None and end - max_len > best[0]:
            break  # no later end can reach an earlier start
        _, start = _best_start_for_end(needle, hay, end, max_len)
        key = (start, abs((end - start) - m), end)
        if best is None or key < best:
            best = key
        if best[0] == max(0, end - max_len) and best[1] == 0:
            break  # smallest reachable start with exact length: unbeatable
    assert best is not None
    return (d_star, *best)


# Parts shorter than this occur too often for their windows to skip much.
_MIN_PART = 4


def _filtered(needle: str, hay: str, floor: int) -> _Key | None:
    """The least key over every span of ``hay``, read from the windows
    around exact occurrences of the needle's parts (see the module doc);
    None when the windows would skip nothing, so the whole region is read.
    """
    m = len(needle)
    bound = floor  # at least 1: str.find missed, so _pieces cut a piece
    while m // (bound + 1) >= _MIN_PART:
        windows = _windows(needle, hay, bound)
        if windows is None:
            return None
        best = None
        for lo, hi in windows:
            found = _search(needle, hay[lo:hi], floor, bound)
            if found is None:
                continue
            d, start, skew, end = found
            key = (d, lo + start, skew, lo + end)
            if best is None or key < best:
                best = key
            if d == floor:
                break  # a later window's spans start later
        if best is not None:
            return best  # every span within the bound lies in a window
        bound *= 2
    return None


def _windows(needle: str, hay: str, bound: int) -> list[tuple[int, int]] | None:
    """The merged windows of ``hay`` that hold every span within ``bound``
    edits of ``needle``, in order; None when one starts within the needle's
    length of the region start.

    The needle is cut into ``bound + 1`` parts, and such a span holds one
    part at offset o exactly, at some p with the span within
    [p - o - bound, p - o + m + 2 * bound).
    """
    m, n = len(needle), len(hay)
    parts = bound + 1
    spans = []
    for i in range(parts):
        o, o_end = i * m // parts, (i + 1) * m // parts
        part = needle[o:o_end]
        p = hay.find(part)
        while p >= 0:
            lo = p - o - bound
            if lo < m:
                return None  # the row from the region start reads no more
            spans.append((lo, min(n, p - o + m + 2 * bound)))
            p = hay.find(part, p + 1)
    spans.sort()
    windows: list[tuple[int, int]] = []
    for lo, hi in spans:
        if windows and lo <= windows[-1][1]:
            if hi > windows[-1][1]:
                windows[-1] = (windows[-1][0], hi)
        else:
            windows.append((lo, hi))
    return windows


def recover_anchor(anchor: str, haystack: str, search_from: int = 0) -> SpanMatch:
    """Locate a possibly-corrupted anchor in the haystack: the span of
    :func:`best_substring_match` from ``search_from``, accepted only if its
    edit distance is within ``ceil(_MAX_RATIO * len(anchor))``.

    Otherwise raises :class:`AnchorNotFoundError` whose message states the
    best distance found and the limit. An empty anchor or a start outside
    the haystack is the search's ``ValueError``.
    """
    limit = math.ceil(_MAX_RATIO * len(anchor))
    match = best_substring_match(anchor, haystack, search_from)
    if match.distance > limit:
        raise AnchorNotFoundError(
            f"best match distance {match.distance} exceeds limit {limit} "
            f"for anchor {anchor[:30]!r}")
    return match
