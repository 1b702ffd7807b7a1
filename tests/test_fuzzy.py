"""Edit distance and approximate substring search against brute force."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chunkkit import fuzzy
from chunkkit.errors import AnchorNotFoundError
from chunkkit.fuzzy import best_substring_match, edit_distance, recover_anchor


@lru_cache(maxsize=None)
def recursive_distance(a: str, b: str) -> int:
    """Independent oracle straight from the recurrence, no DP table."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[-1] == b[-1]:
        return recursive_distance(a[:-1], b[:-1])
    return 1 + min(
        recursive_distance(a[:-1], b),
        recursive_distance(a, b[:-1]),
        recursive_distance(a[:-1], b[:-1]),
    )


def brute_force_best_span(needle: str, haystack: str,
                          search_from: int = 0) -> tuple[int, int, int]:
    """(start, end, distance) by exhaustive span enumeration.

    Tie order: distance, then start, then span length closest to the
    needle's, then end.
    """
    best = None
    for s in range(search_from, len(haystack) + 1):
        for e in range(s, len(haystack) + 1):
            d = edit_distance(needle, haystack[s:e])
            key = (d, s, abs((e - s) - len(needle)), e)
            if best is None or key < best:
                best = key
    d, s, _, e = best
    return s, e, d


def cell_dp_row(pattern: str, text: str, free_start: bool) -> list[int]:
    """Reference: the per-cell Levenshtein DP the bit-parallel kernel
    replaced. Last row; row 0 is zeros (free start) or 0..len(text)."""
    prev = [0] * (len(text) + 1) if free_start else list(range(len(text) + 1))
    for i, ca in enumerate(pattern, 1):
        cur = [i]
        for j, cb in enumerate(text, 1):
            if ca == cb:
                cur.append(min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1]))
            else:
                cur.append(min(cur[j - 1], prev[j], prev[j - 1]) + 1)
        prev = cur
    return prev


def cell_dp_best_start_for_end(needle, hay, end, max_len):
    lo = max(0, end - max_len)
    row = cell_dp_row(needle[::-1], hay[lo:end][::-1], free_start=False)
    best_dist = min(row)
    return best_dist, end - max(k for k, d in enumerate(row) if d == best_dist)


def cell_dp_best_substring_match(needle, haystack, search_from=0, search_to=None):
    """Reference: the span search as it ran on the per-cell DP, with no
    exact-match fast path; (start, end, distance)."""
    hay = haystack[search_from:search_to]
    m = len(needle)
    row = cell_dp_row(needle, hay, free_start=True)
    d_star = min(row)
    max_len = m + d_star
    best = None
    for end, dist in enumerate(row):
        if dist != d_star:
            continue
        if best is not None and end - max_len > best[0]:
            break
        _, start = cell_dp_best_start_for_end(needle, hay, end, max_len)
        key = (start, abs((end - start) - m), end)
        if best is None or key < best:
            best = key
        if best[0] == max(0, end - max_len) and best[1] == 0:
            break
    start, _, end = best
    return search_from + start, search_from + end, d_star


# Several scripts and astral code points; needles of 65-200 characters cross
# the 64-bit machine word, so the kernel's bit vectors span several words.
ALPHABETS = ("ab", "abcd ", "aé你😀", "xyzüß. ")


@st.composite
def needle_near_haystack(draw):
    """A long needle, and a haystack holding an edited copy of it."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    needle = draw(st.text(alphabet=alphabet, min_size=65, max_size=200))
    copy = list(needle)
    for pos, op, ch in draw(st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from("sid"),
                      st.sampled_from(alphabet)), max_size=12)):
        pos %= len(copy) + 1
        if op == "i":
            copy.insert(pos, ch)
        elif copy and pos < len(copy):
            copy[pos:pos + 1] = [ch] if op == "s" else []
    side = st.text(alphabet=alphabet, max_size=80)
    haystack = draw(side) + "".join(copy) + draw(side)
    return needle, haystack or alphabet[0]


@st.composite
def one_edit_then_decoys(draw):
    """A needle, and a haystack holding a copy of it with exactly one edit
    followed by decoys: the needle's last characters (ties one and two ends
    later) and more one-edit copies. No exact occurrence, so the best
    distance is 1 and the free-start row stops at its floor."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    needle = draw(st.text(alphabet=alphabet, min_size=1, max_size=100))

    def one_edit():
        pos = draw(st.integers(0, len(needle) - 1))
        op = draw(st.sampled_from("sid"))
        if op == "s":
            ch = draw(st.sampled_from([c for c in alphabet if c != needle[pos]]))
            return needle[:pos] + ch + needle[pos + 1:]
        if op == "i":
            return needle[:pos] + draw(st.sampled_from(alphabet)) + needle[pos:]
        return needle[:pos] + needle[pos + 1:]

    decoys = {"last": lambda: needle[-1:], "last2": lambda: needle[-2:],
              "copy": one_edit}
    tail = "".join(decoys[d]() for d in draw(st.lists(st.sampled_from(sorted(decoys)),
                                                       max_size=4)))
    haystack = draw(st.text(alphabet=alphabet, max_size=40)) + one_edit() + tail
    assume(haystack and needle not in haystack)
    return needle, haystack


# Marks that no haystack holds: each one in a needle ends a piece there.
MARKS = "~#"


@st.composite
def marked_edits_then_decoys(draw):
    """A haystack holding a text followed by decoys, and a needle that is
    the text with 2 to 6 edits, at least two of them marks. The needle's
    pieces prove a floor of at least 2, often the whole distance, so the
    free-start row stops above distance 1."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    text = draw(st.text(alphabet=alphabet, min_size=2, max_size=100))
    needle = list(text)
    for pos, op, mark in draw(st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from("sid"),
                      st.sampled_from(MARKS)), min_size=2, max_size=6)):
        pos %= len(needle) + 1
        if op == "i":
            needle.insert(pos, mark)
        elif pos < len(needle):
            needle[pos:pos + 1] = [mark] if op == "s" else []
    needle = "".join(needle)
    assume(sum(c in MARKS for c in needle) >= 2)
    decoys = {"last": text[-1:], "last2": text[-2:], "half": text[len(text) // 2:],
              "copy": text[1:], "text": text}
    tail = "".join(decoys[d] for d in draw(st.lists(st.sampled_from(sorted(decoys)),
                                                    max_size=4)))
    haystack = draw(st.text(alphabet=alphabet, max_size=40)) + text + tail
    return needle, haystack


@st.composite
def decoys_then_edited_copy(draw):
    """A needle of 8 to 60 characters, and a haystack holding a copy of it
    with a few edits after decoys: parts of the needle at offsets other than
    their own, and copies with as many edits or more. A filler at least as
    long as the needle comes first, so the windows around the parts' exact
    occurrences can start past the needle's length and the candidate filter
    reads them in place of the whole region."""
    alphabet = draw(st.sampled_from(ALPHABETS[1:]))  # "ab" parts occur everywhere
    needle = draw(st.text(alphabet=alphabet, min_size=8, max_size=60))
    m = len(needle)

    def edited(edits):
        copy = list(needle)
        for _ in range(edits):
            pos = draw(st.integers(0, len(copy)))
            op = draw(st.sampled_from("sid"))
            if op == "i":
                copy.insert(pos, draw(st.sampled_from(alphabet)))
            elif pos < len(copy):
                copy[pos:pos + 1] = [draw(st.sampled_from(alphabet))] if op == "s" else []
        return "".join(copy)

    edits = draw(st.integers(1, max(1, m // 8)))

    def part():
        start = draw(st.integers(0, m - 4))
        return needle[start:start + draw(st.integers(4, m // 2))]

    decoys = {"part": part, "near": lambda: edited(draw(st.integers(edits, 3 * edits))),
              "gap": lambda: draw(st.text(alphabet=alphabet, max_size=20))}
    before = "".join(decoys[d]() for d in draw(st.lists(st.sampled_from(sorted(decoys)),
                                                        max_size=4)))
    haystack = (draw(st.text(alphabet=alphabet, min_size=m, max_size=m + 40)) + before
                + edited(edits) + draw(st.text(alphabet=alphabet, max_size=20)))
    assume(needle not in haystack)
    return needle, haystack


def naive_pieces(needle: str, hay: str) -> int:
    """Reference: ``fuzzy._pieces`` by trying each piece length in turn."""
    pieces = i = 0
    while True:
        for j in range(i + 1, len(needle) + 1):
            if needle[i:j] not in hay:
                break
        else:
            return pieces  # the rest occurs (or nothing is left)
        pieces, i = pieces + 1, j


# None, or a draw that search_range turns into an end past the start
search_ends = st.one_of(st.none(), st.integers(0, 10**6))


def search_range(haystack: str, start: int, end: int | None) -> tuple[int, int | None]:
    """A valid ``(search_from, search_to)`` of ``haystack`` from two draws."""
    start %= len(haystack)
    if end is None:
        return start, None
    return start, start + 1 + end % (len(haystack) - start)


class TestBitParallelKernel:
    @given(needle_near_haystack(), st.booleans())
    @settings(max_examples=150)
    def test_rows_match_cell_dp(self, case, free_start):
        needle, haystack = case
        assert fuzzy._last_row(needle, haystack, free_start) == \
            cell_dp_row(needle, haystack, free_start)

    @given(st.text(min_size=1, max_size=70), st.text(max_size=70), st.booleans())
    @settings(max_examples=200)
    def test_rows_match_cell_dp_any_unicode(self, pattern, text, free_start):
        assert fuzzy._last_row(pattern, text, free_start) == \
            cell_dp_row(pattern, text, free_start)

    @given(needle_near_haystack(), st.integers(0, 10**6), st.integers(0, 260))
    @settings(max_examples=150)
    def test_best_start_for_end_matches_cell_dp(self, case, end, max_len):
        needle, haystack = case
        end %= len(haystack) + 1
        assert fuzzy._best_start_for_end(needle, haystack, end, max_len) == \
            cell_dp_best_start_for_end(needle, haystack, end, max_len)

    @given(needle_near_haystack(), st.integers(0, 10**6), search_ends)
    @settings(max_examples=150)
    def test_best_substring_match_matches_cell_dp(self, case, search_from, end):
        needle, haystack = case
        search_from, search_to = search_range(haystack, search_from, end)
        m = best_substring_match(needle, haystack, search_from, search_to)
        assert (m.start, m.end, m.distance) == \
            cell_dp_best_substring_match(needle, haystack, search_from, search_to)

    @given(one_edit_then_decoys(), st.integers(0, 10**6), search_ends)
    @settings(max_examples=300)
    def test_floor_stop_matches_cell_dp(self, case, search_from, end):
        needle, haystack = case
        search_from, search_to = search_range(haystack, search_from, end)
        m = best_substring_match(needle, haystack, search_from, search_to)
        assert (m.start, m.end, m.distance) == \
            cell_dp_best_substring_match(needle, haystack, search_from, search_to)

    @given(marked_edits_then_decoys(), st.integers(0, 10**6), search_ends)
    @settings(max_examples=300)
    def test_pieces_floor_stop_matches_cell_dp(self, case, search_from, end):
        needle, haystack = case
        assert fuzzy._pieces(needle, haystack) >= 2
        search_from, search_to = search_range(haystack, search_from, end)
        m = best_substring_match(needle, haystack, search_from, search_to)
        assert (m.start, m.end, m.distance) == \
            cell_dp_best_substring_match(needle, haystack, search_from, search_to)

    @given(decoys_then_edited_copy(), st.integers(0, 10**6), search_ends)
    @settings(max_examples=300)
    def test_candidate_filter_matches_cell_dp(self, case, search_from, end):
        needle, haystack = case
        search_from, search_to = search_range(haystack, search_from, end)
        m = best_substring_match(needle, haystack, search_from, search_to)
        assert (m.start, m.end, m.distance) == \
            cell_dp_best_substring_match(needle, haystack, search_from, search_to)

    @given(needle_near_haystack(), st.integers(0, 10**6))
    @settings(max_examples=150)
    def test_floor_rows_are_prefixes_of_the_cell_dp_row(self, case, draw):
        needle, haystack = case
        full = cell_dp_row(needle, haystack, free_start=True)
        assume(min(full) > 0)  # a floor is at least 1
        floor = 1 + draw % min(full)  # any floor up to the best distance
        row = fuzzy._last_row(needle, haystack, True, floor)
        # 2 * floor entries from the first one at the floor, or all of them
        length = full.index(floor) + 2 * floor if floor in full else len(full)
        assert row == full[:length]

    @given(st.text(alphabet="aé你😀", max_size=150),
           st.text(alphabet="aé你😀", max_size=150))
    @settings(max_examples=200)
    def test_edit_distance_matches_cell_dp(self, a, b):
        assert edit_distance(a, b) == cell_dp_row(a, b, free_start=False)[-1]


class TestExactMatchFastPath:
    @pytest.mark.parametrize("needle, haystack, search_from, expected", [
        # earliest of several, overlapping, exact hits
        ("aba", "xxabababa", 0, (2, 5, 0)),
        # the only exact hit lies after search_from
        ("sun", "sun moon sun", 1, (9, 12, 0)),
        # an exact hit later than an inexact one
        ("The sun rose", "The sun rOse. The sun rose.", 0, (14, 26, 0)),
    ])
    def test_exact_hit_skips_the_dp(self, monkeypatch, needle, haystack,
                                    search_from, expected):
        assert cell_dp_best_substring_match(needle, haystack, search_from) \
            == expected
        def no_dp(*args):
            raise AssertionError("an exact occurrence must not run the DP")
        monkeypatch.setattr(fuzzy, "_last_row", no_dp)
        m = best_substring_match(needle, haystack, search_from)
        assert (m.start, m.end, m.distance) == expected


class TestFloorStop:
    """The needle's pieces prove a floor under every distance: the
    free-start row ends ``2 * floor - 1`` entries after it first reaches
    the floor, and reads the whole haystack if the best distance is above
    it."""

    @staticmethod
    def free_start_rows(monkeypatch) -> list[int]:
        lengths = []
        last_row = fuzzy._last_row

        def counted(pattern, text, free_start, floor=None):
            row = last_row(pattern, text, free_start, floor)
            if free_start:
                lengths.append(len(row))
            return row
        monkeypatch.setattr(fuzzy, "_last_row", counted)
        return lengths

    def test_distance_one_row_stops_one_past_its_end(self, monkeypatch):
        hay = "... The sun rOse " + "over the bay. " * 20
        lengths = self.free_start_rows(monkeypatch)
        m = best_substring_match("The sun rose", hay)
        assert (m.start, m.end, m.distance) == (4, 16, 1)
        assert lengths == [16 + 2]  # entries 0 .. e1 + 1, not len(hay) + 1

    def test_distance_two_row_stops_three_past_its_end(self, monkeypatch):
        hay = "... The sUn rOse " + "over the bay. " * 20
        assert fuzzy._pieces("The sun rose", hay) == 2  # "The su", "n ro"
        lengths = self.free_start_rows(monkeypatch)
        m = best_substring_match("The sun rose", hay)
        assert (m.start, m.end, m.distance) == (4, 16, 2)
        assert lengths == [16 + 4]  # entries 0 .. e1 + 2 * 2 - 1

    def test_distance_two_reads_the_whole_haystack(self, monkeypatch):
        # "The sun ro" occurs, so the pieces ("The sun ros", then "e"
        # occurs) prove only 1, and the row never reaches it
        hay = "The sun ro. ... The sUn rOse " + "over the bay. " * 20
        assert fuzzy._pieces("The sun rose", hay) == 1
        lengths = self.free_start_rows(monkeypatch)
        m = best_substring_match("The sun rose", hay)
        assert (m.start, m.end, m.distance) == (0, 12, 2)
        assert lengths == [len(hay) + 1]

    def test_one_char_needle_is_at_the_floor_from_entry_0(self, monkeypatch):
        lengths = self.free_start_rows(monkeypatch)
        m = best_substring_match("z", "abcdef")
        assert (m.start, m.end, m.distance) == (0, 1, 1)
        assert lengths == [2]  # entries 0 .. 1


class TestCandidateFilter:
    """A span within U edits of the needle holds one of its U + 1 parts
    exactly, so only the windows around the parts' occurrences are read."""

    def test_one_edit_far_past_the_start_reads_only_its_window(self, monkeypatch):
        hay = "over the bay. " * 20 + "The sun rOse over the hills."
        needle = "The sun rose over the hills"  # parts "The sun rose ", "over the hills"
        lengths = TestFloorStop.free_start_rows(monkeypatch)
        m = best_substring_match(needle, hay)
        assert (m.start, m.end, m.distance) == (280, 307, 1)
        # "over the hills" at 293 = 280 + its offset 13: the window is
        # [280 - 1, 280 + 27 + 2), and its row stops one past the match end
        assert lengths == [307 - 279 + 2]

    def test_a_window_within_the_needle_length_of_the_start_reads_the_region(
            self, monkeypatch):
        hay = "over the bay. " + "The sun rOse over the hills." + "over the bay. " * 20
        lengths = TestFloorStop.free_start_rows(monkeypatch)
        m = best_substring_match("The sun rose over the hills", hay)
        assert (m.start, m.end, m.distance) == (14, 41, 1)
        assert lengths == [41 + 2]  # the region's row, from its start


class TestPieces:
    @given(st.text(alphabet="abxy", min_size=1, max_size=7),
           st.text(alphabet="ab", min_size=1, max_size=10))
    @settings(max_examples=400)
    def test_pieces_bound_every_substring_distance(self, needle, hay):
        # x and y never occur in the haystack: each one ends a piece
        pieces = fuzzy._pieces(needle, hay)
        assert pieces == naive_pieces(needle, hay)
        assert pieces <= min(recursive_distance(needle, hay[s:e])
                             for s in range(len(hay) + 1)
                             for e in range(s, len(hay) + 1))

    @given(needle_near_haystack())
    @settings(max_examples=150)
    def test_galloping_cuts_match_naive_cuts(self, case):
        needle, haystack = case
        assert fuzzy._pieces(needle, haystack) == naive_pieces(needle, haystack)

    @given(marked_edits_then_decoys())
    @settings(max_examples=150)
    def test_pieces_bound_the_best_distance(self, case):
        needle, haystack = case
        assert 2 <= fuzzy._pieces(needle, haystack) \
            <= min(cell_dp_row(needle, haystack, free_start=True))


class TestEditDistance:
    def test_empty_against_abc(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_identity(self):
        for x in ("", "a", "kitten", "你好世界"):
            assert edit_distance(x, x) == 0

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3
        assert recursive_distance("kitten", "sitting") == 3

    def test_matches_recursive_oracle_sample(self):
        rng = random.Random(3)
        for _ in range(300):
            a = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            b = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            assert edit_distance(a, b) == recursive_distance(a, b)

    @given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", max_size=12))
    @settings(max_examples=300)
    def test_symmetry_and_bounds(self, a, b):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert d >= abs(len(a) - len(b))
        assert d <= max(len(a), len(b))

    @given(st.text(alphabet="ab", max_size=8), st.text(alphabet="ab", max_size=8),
           st.text(alphabet="ab", max_size=8))
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


class TestBestSubstringMatch:
    def test_exact_occurrence(self):
        m = best_substring_match("world", "hello world!")
        assert (m.start, m.end, m.distance) == (6, 11, 0)

    def test_prefers_earliest_on_tie(self):
        m = best_substring_match("ab", "xx ab yy ab")
        assert (m.start, m.end) == (3, 5)

    def test_search_from_skips_earlier_hits(self):
        m = best_substring_match("ab", "ab cd ab", search_from=2)
        assert (m.start, m.end, m.distance) == (6, 8, 0)

    def test_single_substitution(self):
        m = best_substring_match("The sun rose", "... The sun rOse ...")
        assert m.distance == 1
        assert (m.start, m.end) == (4, 16)

    def test_invalid_search_from(self):
        with pytest.raises(ValueError):
            best_substring_match("a", "abc", search_from=3)

    @pytest.mark.parametrize("search_from, search_to", [
        (1, 1), (2, 1),  # search_to <= search_from: an empty range
        (0, 4),  # search_to past the haystack
    ])
    def test_invalid_search_to(self, search_from, search_to):
        with pytest.raises(ValueError, match="search range"):
            best_substring_match("a", "abc", search_from, search_to)

    def test_search_to_skips_later_hits(self):
        # the exact hit at [6, 8) ends past search_to
        m = best_substring_match("ab", "xb cd ab", search_to=7)
        assert (m.start, m.end, m.distance) == (0, 2, 1)  # "xb"

    @given(
        st.text(alphabet="ab", min_size=1, max_size=5),
        st.text(alphabet="ab", min_size=1, max_size=12),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=500)
    def test_matches_brute_force(self, needle, haystack, search_from):
        if search_from >= len(haystack):
            return
        m = best_substring_match(needle, haystack, search_from)
        bs, be, bd = brute_force_best_span(needle, haystack, search_from)
        assert (m.start, m.end, m.distance) == (bs, be, bd)

    def test_matches_brute_force_mixed_alphabet(self, rng):
        for _ in range(200):
            haystack = "".join(rng.choice("abcx ") for _ in range(rng.randint(4, 16)))
            needle = "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
            m = best_substring_match(needle, haystack)
            assert (m.start, m.end, m.distance) == \
                brute_force_best_span(needle, haystack)


class TestRecoverAnchor:
    def test_verbatim_anchor(self):
        span = recover_anchor("needle", "some needle here")
        assert (span.start, span.end, span.distance) == (5, 11, 0)

    def test_one_typo_recovered(self):
        hay = "preamble The sun rOse over the bay."
        span = recover_anchor("The sun rose", hay)
        assert span.distance == 1
        assert hay[span.start:span.end] == "The sun rOse"
        # brute force confirms this is the minimum
        assert brute_force_best_span("The sun rose", hay)[2] == 1

    def test_distance_over_budget_rejected(self):
        # 10-char anchor, a ratio of 0.5 -> limit 5; best distance is 6
        hay = "aaaa qqqqjjjjww aaaa"
        anchor = "qqqXXXjjjj"
        probe = best_substring_match(anchor, hay)
        assert probe.distance == 3  # sanity: fixture not what we want yet
        anchor = "zzzzzzqqqq"  # distance 6 from "qqqqjjjjww" region
        best = best_substring_match(anchor, hay)
        assert best.distance == 6
        with pytest.raises(AnchorNotFoundError,
                           match="distance 6 exceeds limit 5"):
            recover_anchor(anchor, hay)

    def test_empty_anchor_rejected(self):
        with pytest.raises(ValueError):
            recover_anchor("", "text")

    def test_exact_hit_is_answered_at_once(self, monkeypatch):
        # the search's str.find answers an exact anchor: no kernel row runs
        rows = []
        last_row = fuzzy._last_row

        def recorded(pattern, text, free_start, floor=None):
            rows.append(pattern)
            return last_row(pattern, text, free_start, floor)
        monkeypatch.setattr(fuzzy, "_last_row", recorded)
        span = recover_anchor("sun", "sun moon sun", search_from=1)
        assert (span.start, span.end, span.distance) == (9, 12, 0)
        assert rows == []
        assert recover_anchor("sax", "sun moon sun", search_from=1).distance == 2
        assert rows  # a miss runs the kernel, and the wrapper sees it

    @pytest.mark.parametrize("search_from", [-3, 12, 13])
    def test_start_outside_the_haystack_rejected(self, search_from):
        # str.find reads a negative start from the end; the search refuses it
        with pytest.raises(ValueError, match="outside haystack"):
            recover_anchor("sun", "sun moon sun", search_from=search_from)
