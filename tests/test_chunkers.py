"""Fixed, boundary-aware, and semantic chunkers plus calibration."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chunkkit import chunkers
from chunkkit.chunkers import (
    CalibrationResult,
    calibrate_avg_len,
    chunk_boundary_aware,
    chunk_fixed,
    chunk_semantic,
)
from chunkkit.scoring import FixtureEmbedder, HashEmbedder, adjacent_cosines
from chunkkit.text import ChunkSet, split_sentences

from conftest import CountingEmbedder, make_doc, random_sentence, random_text


def reference_chunk_semantic(doc, embedder, threshold):
    """Semantic chunking as one pass that compares each adjacent pair's
    cosine with the threshold as it goes: the reference for the
    profile-then-split path."""
    sentences = split_sentences(doc)
    if len(sentences) == 1:
        return ChunkSet.from_spans(doc, [(sentences[0].start, sentences[0].end)],
                                   method="semantic")
    vectors = embedder.embed_many([doc.text[s.start:s.end] for s in sentences])
    spans = []
    run_start = sentences[0].start
    for i in range(len(sentences) - 1):
        if adjacent_cosines([vectors[i], vectors[i + 1]])[0] < threshold:
            spans.append((run_start, sentences[i].end))
            run_start = sentences[i + 1].start
    spans.append((run_start, sentences[-1].end))
    return ChunkSet.from_spans(doc, spans, method="semantic")


def reference_calibrate(method, docs, target_avg, tolerance, embedder=None):
    """Calibration that re-runs the chunker over the whole corpus at every
    bisection step: the reference for the cached-profile search. Returns
    (knob, achieved, ok, the knobs tried in order)."""
    def mean(chunksets):
        lengths = [len(c) for cs in chunksets for c in cs.chunks]
        return sum(lengths) / len(lengths)

    best, tried = None, []
    if method == "boundary":
        lo, hi = 1, max(len(d.text) for d in docs)
        while lo <= hi:
            mid = (lo + hi) // 2
            tried.append(mid)
            achieved = mean(chunk_boundary_aware(d, mid) for d in docs)
            gap = achieved - target_avg
            if best is None or abs(gap) < best[0]:
                best = (abs(gap), mid, achieved)
            if abs(gap) <= tolerance:
                break
            if gap < 0:
                lo = mid + 1
            else:
                hi = mid - 1
    else:
        lo, hi = -0.999, 0.999
        for _ in range(40):
            mid = (lo + hi) / 2
            tried.append(mid)
            achieved = mean(chunk_semantic(d, embedder, mid) for d in docs)
            gap = achieved - target_avg
            if best is None or abs(gap) < best[0]:
                best = (abs(gap), mid, achieved)
            if abs(gap) <= tolerance:
                break
            if gap > 0:
                lo = mid
            else:
                hi = mid
    _, knob, achieved = best
    return knob, achieved, abs(achieved - target_avg) <= tolerance, tried


def spans_of(chunkset):
    return [(c.start, c.end) for c in chunkset.chunks]


def _bisection_midpoints(depth):
    """The thresholds the semantic search can try in its first ``depth`` steps."""
    mids, frontier = [], [(-0.999, 0.999)]
    for _ in range(depth):
        next_frontier = []
        for lo, hi in frontier:
            mid = (lo + hi) / 2
            mids.append(mid)
            next_frontier += [(lo, mid), (mid, hi)]
        frontier = next_frontier
    return mids


# thresholds m for which the cosine of [1, 0] and [m, sqrt(1 - m^2)] is m exactly
EXACT_TIES = [m for m in _bisection_midpoints(7)
              if adjacent_cosines([[1.0, 0.0], [m, math.sqrt(1 - m * m)]]) == [m]]


def tie_corpus(tie, sentence_counts, seed):
    """Documents whose adjacent sentences all have cosine exactly ``tie``:
    sentences alternate between [1, 0] and [tie, sqrt(1 - tie^2)]."""
    rng = random.Random(seed)
    embedder = FixtureEmbedder()
    docs = []
    for d, count in enumerate(sentence_counts):
        sentences = [random_sentence(rng, words=rng.randint(2, 9)) for _ in range(count)]
        text = " ".join(sentences)
        doc = make_doc(text, f"t{d}")
        for i, s in enumerate(split_sentences(doc)):
            vector = [1.0, 0.0] if i % 2 == 0 else [tie, math.sqrt(1 - tie * tie)]
            embedder.add(text[s.start:s.end], vector)
        docs.append(doc)
    return docs, embedder


GRID = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1.0], [2.0, -1.0], [0.0, -3.0]]


class TestChunkFixed:
    def test_division_with_remainder(self):
        cs = chunk_fixed(make_doc("0123456789"), 4)
        assert [c.text for c in cs] == ["0123", "4567", "89"]

    def test_whole_doc_when_l_large(self):
        doc = make_doc("short")
        cs = chunk_fixed(doc, 100)
        assert len(cs) == 1
        assert cs.chunks[0].text == doc.text

    def test_l_one_gives_char_chunks(self):
        doc = make_doc("abc")
        assert len(chunk_fixed(doc, 1)) == 3

    def test_offsets_tile_for_random_lengths(self, rng):
        doc = make_doc(random_text(rng, sentences=20)[:1000].ljust(1000, "x"))
        assert len(doc.text) == 1000
        for _ in range(100):
            length = rng.randint(1, 1200)
            cs = chunk_fixed(doc, length)
            assert cs.chunks[0].start == 0
            assert cs.chunks[-1].end == 1000
            assert all(a.end == b.start for a, b in zip(cs.chunks, cs.chunks[1:]))

    def test_chunk_count_non_increasing_in_l(self, rng):
        doc = make_doc("x" * 500)
        counts = [len(chunk_fixed(doc, length)) for length in range(1, 200)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestChunkBoundaryAware:
    def test_greedy_fill(self):
        # sentences of lengths 50, 60, 70 with target 120 -> [50+60], [70]
        doc = make_doc("a" * 49 + "." + "b" * 59 + "." + "c" * 69 + ".")
        cs = chunk_boundary_aware(doc, target=120)
        assert [len(c) for c in cs.chunks] == [110, 70]

    def test_oversize_sentence_emitted_whole(self, caplog):
        doc = make_doc("x" * 299 + ".")
        with caplog.at_level("WARNING"):
            cs = chunk_boundary_aware(doc, target=120)
        assert len(cs) == 1
        assert len(cs.chunks[0]) == 300
        assert "oversize" in caplog.text

    def test_never_splits_sentences_vs_exhaustive_packer(self, rng):
        # greedy packing compared against brute-force enumeration of all
        # packings for <= 8 sentences
        for _ in range(25):
            n_sentences = rng.randint(1, 8)
            doc = make_doc(" ".join(
                random_text(rng, sentences=1) for _ in range(n_sentences)
            ))
            sentences = split_sentences(doc)
            target = rng.randint(20, 200)
            cs = chunk_boundary_aware(doc, target=target)

            boundaries = {s.start for s in sentences} | {s.end for s in sentences}
            for chunk in cs.chunks:
                assert chunk.start in boundaries
                assert chunk.end in boundaries
                single = sum(
                    1 for s in sentences
                    if s.start >= chunk.start and s.end <= chunk.end
                )
                if len(chunk) > target:
                    assert single == 1  # oversize singleton

            # brute force: some legal packing exists matching greedy's
            # sentence-completeness (sanity that the constraint is satisfiable)
            cuts = range(1, len(sentences))
            legal = []
            for mask in itertools.product((0, 1), repeat=len(sentences) - 1):
                groups = []
                current = [0]
                for idx, bit in enumerate(mask, 1):
                    if bit:
                        groups.append(current)
                        current = []
                    current.append(idx)
                groups.append(current)
                if all(
                    sentences[g[-1]].end - sentences[g[0]].start <= target
                    or len(g) == 1
                    for g in groups
                ):
                    legal.append(groups)
            assert legal  # singleton packing is always legal
            greedy_groups = [
                [i for i, s in enumerate(sentences)
                 if s.start >= c.start and s.end <= c.end]
                for c in cs.chunks
            ]
            assert greedy_groups in legal

    def test_overlap_keeps_starts_increasing(self, rng):
        doc = make_doc(random_text(rng, sentences=30))
        cs = chunk_boundary_aware(doc, target=120, overlap=40)
        starts = [c.start for c in cs.chunks]
        assert starts == sorted(set(starts))
        # overlapping spans are expected here
        assert any(a.end > b.start for a, b in zip(cs.chunks, cs.chunks[1:]))

    def test_overlap_boundaries_stay_on_sentence_marks(self, rng):
        doc = make_doc(random_text(rng, sentences=25))
        marks = set()
        for s in split_sentences(doc):
            marks.add(s.start)
            marks.add(s.end)
        cs = chunk_boundary_aware(doc, target=100, overlap=30)
        for chunk in cs.chunks:
            assert chunk.start in marks
            assert chunk.end in marks


class TestChunkSemantic:
    def test_identical_sentences_single_chunk(self):
        doc = make_doc("same words here. same words here. same words here.")
        emb = HashEmbedder()
        for threshold in (-0.5, 0.0, 0.9):
            assert len(chunk_semantic(doc, emb, threshold)) == 1

    def test_fixture_similarity_gap_splits(self):
        # sims [0.9, 0.2, 0.9] with threshold 0.5 -> split at the 0.2 gap
        doc = make_doc("s one. s two. s three. s four.")
        sentences = split_sentences(doc)
        texts = [doc.text[s.start:s.end] for s in sentences]
        # adjacent sims come out [0.9, 0.44, 1.0]: one drop below 0.5
        emb = FixtureEmbedder({
            texts[0]: [1.0, 0.0],
            texts[1]: [0.9, (1 - 0.81) ** 0.5],
            texts[2]: [0.0, 1.0],
            texts[3]: [0.0, 1.0],
        })
        cs = chunk_semantic(doc, emb, threshold=0.5)
        assert [c.text for c in cs.chunks] == ["s one. s two.", " s three. s four."]

    def test_extreme_thresholds(self, rng):
        doc = make_doc("alpha beta. gamma delta. epsilon zeta.")
        emb = HashEmbedder()
        assert len(chunk_semantic(doc, emb, threshold=-1.0)) == 1
        n_sentences = len(split_sentences(doc))
        assert len(chunk_semantic(doc, emb, threshold=1.0)) == n_sentences

    def test_single_sentence_doc(self):
        doc = make_doc("one lonely sentence.")
        cs = chunk_semantic(doc, HashEmbedder(), threshold=0.9)
        assert [c.text for c in cs.chunks] == [doc.text]

    def test_boundaries_subset_of_sentence_boundaries(self, rng):
        doc = make_doc(random_text(rng, sentences=12))
        sentence_marks = {s.start for s in split_sentences(doc)} | \
            {s.end for s in split_sentences(doc)}
        cs = chunk_semantic(doc, HashEmbedder(), threshold=0.3)
        for c in cs.chunks:
            assert c.start in sentence_marks
            assert c.end in sentence_marks


class TestCalibration:
    @pytest.mark.parametrize("target", [0, -5, -0.0, math.nan])
    def test_target_not_positive_rejected(self, target):
        with pytest.raises(ValueError, match="target_avg must be > 0"):
            calibrate_avg_len("fixed", [make_doc("alpha beta.")], target_avg=target)

    def test_fixed_closed_form(self, rng):
        docs = [make_doc(random_text(rng, sentences=40), f"d{i}")
                for i in range(3)]
        result = calibrate_avg_len("fixed", docs, target_avg=178)
        assert result.knob == 178

    def test_boundary_search_reaches_target(self, rng):
        docs = [make_doc(random_text(rng, sentences=60), f"d{i}")
                for i in range(4)]
        result = calibrate_avg_len("boundary", docs, target_avg=178, tolerance=5)
        assert result.ok
        assert abs(result.achieved_avg - 178) <= 5

    def test_semantic_search_reaches_target(self, rng):
        docs = [make_doc(random_text(rng, sentences=80), f"d{i}")
                for i in range(3)]
        result = calibrate_avg_len(
            "semantic", docs, target_avg=178, tolerance=5,
            embedder=HashEmbedder(),
        )
        assert isinstance(result, CalibrationResult)
        if result.ok:
            assert 173 <= result.achieved_avg <= 183
        else:
            # knob space exhausted: best-effort is reported, not hidden
            assert result.achieved_avg > 0

    def test_unreachable_target_is_best_effort(self):
        docs = [make_doc("tiny.")]
        result = calibrate_avg_len("boundary", docs, target_avg=178)
        assert not result.ok
        assert result.achieved_avg == 5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            calibrate_avg_len("fixed", [], target_avg=178)


def _random_corpus(seed, sentence_counts, letters):
    rng = random.Random(seed)
    return [make_doc(" ".join(random_sentence(rng, letters, words=rng.randint(1, 12))
                              for _ in range(count)), f"d{i}")
            for i, count in enumerate(sentence_counts)]


corpora = st.builds(
    _random_corpus,
    seed=st.integers(0, 2**32 - 1),
    sentence_counts=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    letters=st.sampled_from(["ab", "abcdef", "abcdefghijklmnopqrstuvwxyz"]),
)
hash_embedders = st.builds(HashEmbedder, dim=st.sampled_from([2, 8, 64]),
                           ngram=st.integers(1, 4))
tolerances = st.sampled_from([0.0, 0.5, 3.0, 20.0])
targets = st.floats(1.0, 400.0)


class TestCalibrationPins:
    """The cached-profile searches against the per-step reference: same
    knob, same achieved mean, same ``ok``, same spans at the knob. The
    corpora include one-sentence documents, and the tolerances include 0,
    at which the semantic search runs all 40 steps unless it hits the
    target exactly."""

    def assert_semantic_matches(self, docs, embedder, target, tolerance):
        knob, achieved, ok, tried = reference_calibrate(
            "semantic", docs, target, tolerance, embedder)
        result = calibrate_avg_len("semantic", docs, target_avg=target,
                                   tolerance=tolerance, embedder=embedder)
        assert result.knob == knob
        assert result.achieved_avg == achieved
        assert result.ok == ok
        for d in docs:
            assert spans_of(chunk_semantic(d, embedder, knob)) == \
                spans_of(reference_chunk_semantic(d, embedder, knob))
        return tried

    @given(docs=corpora, embedder=hash_embedders, target=targets, tolerance=tolerances)
    def test_semantic_hash_embedder(self, docs, embedder, target, tolerance):
        self.assert_semantic_matches(docs, embedder, target, tolerance)

    @given(docs=corpora, vectors=st.lists(st.sampled_from(GRID), min_size=1, max_size=6),
           target=targets, tolerance=tolerances)
    def test_semantic_fixture_grid(self, docs, vectors, target, tolerance):
        # few distinct vectors: many adjacent pairs share one cosine, and
        # orthogonal pairs tie with the first threshold tried, 0.0
        embedder = FixtureEmbedder()
        for d in docs:
            for i, s in enumerate(split_sentences(d)):
                embedder.add(d.text[s.start:s.end], vectors[i % len(vectors)])
        self.assert_semantic_matches(docs, embedder, target, tolerance)

    @pytest.mark.parametrize("tie", EXACT_TIES)
    def test_semantic_ties_at_the_threshold(self, tie):
        # every adjacent cosine equals ``tie``, so the mean length jumps
        # between one chunk per document and one chunk per sentence right
        # at ``tie``, and a zero-tolerance search for a target between the
        # two must try ``tie`` itself
        docs, embedder = tie_corpus(tie, [2, 5, 8], seed=7)
        whole = sum(len(d.text) for d in docs) / len(docs)
        split = [len(s) for d in docs for s in split_sentences(d)]
        target = (whole + sum(split) / len(split)) / 2
        tried = self.assert_semantic_matches(docs, embedder, target, 0.0)
        assert tie in tried

    @given(docs=corpora, target=targets, tolerance=tolerances)
    def test_boundary(self, docs, target, tolerance):
        knob, achieved, ok, _ = reference_calibrate("boundary", docs, target, tolerance)
        result = calibrate_avg_len("boundary", docs, target_avg=target, tolerance=tolerance)
        assert result.knob == knob
        assert result.achieved_avg == achieved
        assert result.ok == ok

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), threshold=st.floats(-1.0, 1.0),
           embedder=hash_embedders)
    def test_chunk_semantic_matches_one_pass_reference(self, seed, threshold, embedder):
        doc = make_doc(random_text(random.Random(seed), sentences=12))
        assert spans_of(chunk_semantic(doc, embedder, threshold)) == \
            spans_of(reference_chunk_semantic(doc, embedder, threshold))


class TestCalibrationCost:
    """Work counts, never wall time."""

    def test_semantic_embeds_each_sentence_once(self, rng):
        docs = [make_doc(random_text(rng, sentences=n), f"d{n}") for n in (3, 8, 20)]
        docs.append(make_doc("one lonely sentence.", "single"))  # never embedded
        embedder = CountingEmbedder(HashEmbedder())
        # tolerance 0 on a coarse corpus runs all 40 bisection steps
        *_, tried = reference_calibrate("semantic", docs, 177.7, 0.0, HashEmbedder())
        assert len(tried) == 40
        calibrate_avg_len("semantic", docs, target_avg=177.7, tolerance=0.0,
                          embedder=embedder)
        sentences = [len(split_sentences(d)) for d in docs]
        assert embedder.texts == sum(n for n in sentences if n > 1)

    def test_boundary_splits_each_document_once(self, rng, monkeypatch):
        docs = [make_doc(random_text(rng, sentences=n), f"d{n}") for n in (3, 8, 20)]
        calls = []

        def counted(doc, *args, **kwargs):
            calls.append(doc.id)
            return split_sentences(doc, *args, **kwargs)

        monkeypatch.setattr(chunkers, "split_sentences", counted)
        calibrate_avg_len("boundary", docs, target_avg=177.7, tolerance=0.0)
        assert sorted(calls) == sorted(d.id for d in docs)


def oversize_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "oversize" in r.getMessage()]


class TestCalibratedCut:
    """A calibrated run outputs calibration's own cut of each document's
    first step: the same chunk sets, and for boundary-aware chunking the
    same oversize warnings, as the chunker run again at the knob
    calibration chose. ``overlap`` is passed to every method, as the CLI
    passes its config's, and only boundary-aware chunking uses it."""

    @given(docs=corpora, target=targets, tolerance=tolerances,
           overlap=st.integers(0, 40))
    def test_fixed(self, docs, target, tolerance, overlap):
        result = calibrate_avg_len("fixed", docs, target_avg=target, tolerance=tolerance)
        for doc, step in zip(docs, result.steps, strict=True):
            assert result.cut(doc, step, overlap) == \
                chunk_fixed(doc, result.knob)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(docs=corpora, target=targets, tolerance=tolerances,
           overlap=st.integers(0, 40))
    def test_boundary(self, docs, target, tolerance, overlap, caplog):
        result = calibrate_avg_len("boundary", docs, target_avg=target,
                                   tolerance=tolerance)
        knob = result.knob
        overlap = min(overlap, knob - 1)
        with caplog.at_level("WARNING", logger="chunkkit.chunkers"):
            caplog.clear()
            expected = [chunk_boundary_aware(d, knob, overlap) for d in docs]
            expected_warnings = oversize_warnings(caplog)
            caplog.clear()
            cut = [result.cut(d, s, overlap) for d, s in zip(docs, result.steps, strict=True)]
            warnings = oversize_warnings(caplog)
        assert cut == expected
        assert warnings == expected_warnings
        # one warning per document with a sentence longer than the knob
        affected = [d.id for d in docs
                    if any(s.end - s.start > knob for s in split_sentences(d))]
        assert [w.split(":")[0] for w in warnings] == [f"doc {i}" for i in affected]

    @given(docs=corpora, embedder=hash_embedders, target=targets, tolerance=tolerances,
           overlap=st.integers(0, 40))
    def test_semantic(self, docs, embedder, target, tolerance, overlap):
        result = calibrate_avg_len("semantic", docs, target_avg=target,
                                   tolerance=tolerance, embedder=embedder)
        knob = result.knob
        for doc, step in zip(docs, result.steps, strict=True):
            assert result.cut(doc, step, overlap) == chunk_semantic(doc, embedder, knob)
