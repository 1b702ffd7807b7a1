"""Boundary clarity, edge weights, stickiness, DS, CP, and Pearson."""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from statistics import fmean

import pytest

from chunkkit.chunkers import chunk_fixed
from chunkkit.errors import (
    GraphBuildError,
    UndefinedCorrelationError,
)
from chunkkit.metrics import (
    SemanticGraph,
    boundary_clarity,
    build_graph,
    chunk_stickiness,
    conditional_support,
    dissimilarity,
    evaluate_chunksets,
    pearson,
)
from chunkkit.scoring import FixtureEmbedder, FixtureScorer, NGramScorer, perplexity
from chunkkit.text import ChunkSet

from conftest import add_ppl, make_doc, random_text


def complete_graph(n: int) -> SemanticGraph:
    edges = tuple(
        (i, j, 0.9) for i in range(n) for j in range(i + 1, n)
    )
    return SemanticGraph(n=n, edges=edges)


class TestBoundaryClarity:
    def test_independent_chunks(self):
        scorer = add_ppl(add_ppl(FixtureScorer(), "q", ppl=20), "q", "d", ppl=20)
        assert boundary_clarity(["d", "q"], scorer) == pytest.approx(1.0)

    def test_ratio_by_definition(self):
        scorer = add_ppl(add_ppl(FixtureScorer(), "q", ppl=20), "q", "d", ppl=5)
        assert boundary_clarity(["d", "q"], scorer) == pytest.approx(0.25)

    def test_mean_over_adjacent_pairs(self):
        # each later chunk given the one before it: BC(b, a) and BC(c, b)
        scorer = FixtureScorer()
        add_ppl(add_ppl(scorer, "b", ppl=20), "b", "a", ppl=5)
        add_ppl(add_ppl(scorer, "c", ppl=10), "c", "b", ppl=10)
        assert boundary_clarity(["a", "b", "c"], scorer) == pytest.approx(0.625)

    def test_repetition_context_beats_disjoint_alphabet(self):
        # conditioning on an exact repetition primes the junction n-gram;
        # a disjoint-alphabet context gives the scorer nothing
        q = "the cat sat on the mat. "
        scorer = NGramScorer(order=2, corpus=q + q)
        bc_repeat = boundary_clarity([q, q], scorer)
        bc_disjoint = boundary_clarity(["0123456789", q], scorer)
        assert bc_repeat < bc_disjoint

    def test_empty_chunk_rejected(self):
        scorer = FixtureScorer()
        with pytest.raises(ValueError):
            boundary_clarity(["d", ""], scorer)

    @pytest.mark.parametrize("chunks", [[], ["q"]])
    def test_fewer_than_two_chunks_rejected(self, chunks):
        with pytest.raises(ValueError, match=">= 2 chunks"):
            boundary_clarity(chunks, FixtureScorer())


def pair_edge(scorer) -> float:
    """Edge(q, d): the weight of the one possible edge of the two-chunk
    sequence graph of ``d`` then ``q``; a pair with no edge weighs 0."""
    graph = build_graph(["d", "q"], scorer, k=1e-15, variant="sequence")
    return next((w for _, _, w in graph.edges), 0.0)


class TestEdgeWeight:
    @staticmethod
    def scorer(ppl_q: float, ppl_qd: float) -> FixtureScorer:
        scorer = add_ppl(add_ppl(FixtureScorer(), "q", ppl=ppl_q), "q", "d", ppl=ppl_qd)
        return add_ppl(scorer, "d", ppl=10)

    def test_independence_gives_zero(self):
        assert pair_edge(self.scorer(10, 10)) == pytest.approx(0.0)

    def test_direct_formula(self):
        assert pair_edge(self.scorer(10, 2.5)) == pytest.approx(0.75)

    def test_clamped_at_zero(self):
        # noisier conditional than unconditional: clamp keeps the range
        assert pair_edge(self.scorer(10, 12)) == 0.0

    def test_identity_with_bc(self, rng):
        for _ in range(50):
            scorer = self.scorer(rng.uniform(1.001, 50), rng.uniform(1.001, 50))
            bc = boundary_clarity(["d", "q"], scorer)
            edge = pair_edge(scorer)
            if bc <= 1.0:
                assert edge == pytest.approx(1.0 - bc, abs=1e-12)
            assert 0.0 <= edge <= 1.0


class TestBuildGraph:
    def _pairwise_fixture(self, texts, edge_table, ppl_q=10.0):
        """Fixture scorer realizing Edge(q=tj | d=ti) == edge_table[(i, j)]."""
        scorer = FixtureScorer()
        for t in texts:
            add_ppl(scorer, t, ppl=ppl_q)
        for (i, j), edge in edge_table.items():
            # edge = (ppl_q - ppl_qd) / ppl_q  =>  ppl_qd = ppl_q (1 - edge)
            add_ppl(scorer, texts[j], texts[i], ppl=max(1.0, ppl_q * (1 - edge)))
            add_ppl(scorer, texts[i], texts[j], ppl=max(1.0, ppl_q * (1 - edge)))
        return scorer

    def test_triangle_above_threshold(self):
        texts = ["c0", "c1", "c2"]
        table = {(i, j): 0.9 for i in range(3) for j in range(i + 1, 3)}
        scorer = self._pairwise_fixture(texts, table)
        graph = build_graph(texts, scorer, k=0.8, variant="complete")
        assert graph.edge_count == 3
        assert chunk_stickiness(graph) == pytest.approx(math.log2(3))

    def test_all_below_threshold_empty(self):
        texts = ["c0", "c1", "c2"]
        table = {(i, j): 0.9 for i in range(3) for j in range(i + 1, 3)}
        scorer = self._pairwise_fixture(texts, table)
        graph = build_graph(texts, scorer, k=0.95, variant="complete")
        assert graph.edge_count == 0

    def test_sequence_variant_path_graph(self):
        # adjacent-only affinity 0.9 gives the path on 4 nodes
        texts = ["c0", "c1", "c2", "c3"]
        table = {
            (i, j): (0.9 if j == i + 1 else 0.1)
            for i in range(4) for j in range(i + 1, 4)
        }
        scorer = self._pairwise_fixture(texts, table)
        graph = build_graph(texts, scorer, k=0.8, variant="sequence", delta=0)
        assert sorted((i, j) for i, j, _ in graph.edges) == [(0, 1), (1, 2), (2, 3)]

    def test_sequence_delta_excludes_near_pairs(self):
        texts = ["c0", "c1", "c2", "c3"]
        table = {(i, j): 0.9 for i in range(4) for j in range(i + 1, 4)}
        scorer = self._pairwise_fixture(texts, table)
        graph = build_graph(texts, scorer, k=0.8, variant="sequence", delta=1)
        assert all(j - i > 1 for i, j, _ in graph.edges)

    def test_fewer_than_two_chunks_rejected(self):
        with pytest.raises(GraphBuildError):
            build_graph(["only"], FixtureScorer(), k=0.8)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["a", "b"], FixtureScorer(), k=1.0)

    def test_parallel_scoring_matches_serial(self):
        # a scorer whose score_many runs each list on four threads
        class Threaded(NGramScorer):
            def score_many(self, requests):
                with ThreadPoolExecutor(4) as pool:
                    return list(pool.map(lambda r: self.score(*r), requests))

        texts = [f"chunk {i} body" for i in range(8)]
        corpus = " ".join(texts)
        serial = build_graph(texts, NGramScorer(order=3, corpus=corpus),
                             k=0.01, variant="complete")
        threaded = build_graph(texts, Threaded(order=3, corpus=corpus),
                               k=0.01, variant="complete")
        assert serial.edges == threaded.edges

    def test_increasing_k_never_adds_edges(self):
        texts = [f"c{i}" for i in range(6)]
        rng = random.Random(11)
        table = {
            (i, j): rng.uniform(0.5, 1.0)
            for i in range(6) for j in range(i + 1, 6)
        }
        scorer = self._pairwise_fixture(texts, table)
        previous = None
        for k in (0.6, 0.7, 0.8, 0.9):
            edges = {(i, j) for i, j, _ in
                     build_graph(texts, scorer, k=k).edges}
            if previous is not None:
                assert edges <= previous
            previous = edges


class TestChunkStickiness:
    def test_complete_graph_closed_form(self):
        assert chunk_stickiness(complete_graph(4)) == pytest.approx(2.0, abs=1e-12)

    def test_path_on_three_nodes(self):
        graph = SemanticGraph(n=3, edges=((0, 1, 0.9), (1, 2, 0.9)))
        assert chunk_stickiness(graph) == pytest.approx(1.5, abs=1e-15)

    def test_edgeless_graph_is_zero(self):
        graph = SemanticGraph(n=5, edges=())
        assert chunk_stickiness(graph) == 0.0

    def test_matches_termwise_oracle_on_random_graphs(self, rng):
        # independent re-implementation summed term by term over the
        # degree multiset
        for _ in range(20):
            n = rng.randint(2, 12)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            chosen = [p for p in pairs if rng.random() < 0.4]
            graph = SemanticGraph(
                n=n, edges=tuple((i, j, 1.0) for i, j in chosen)
            )
            if not chosen:
                assert chunk_stickiness(graph) == 0.0
                continue
            degrees = [0] * n
            for i, j in chosen:
                degrees[i] += 1
                degrees[j] += 1
            m = len(chosen)
            expected = 0.0
            for h in degrees:
                if h:
                    expected += -(h / (2 * m)) * math.log2(h / (2 * m))
            assert chunk_stickiness(graph) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_relabeling(self, rng):
        n = 8
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        graph = SemanticGraph(n=n, edges=tuple((i, j, 1.0) for i, j in pairs))
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled_pairs = [tuple(sorted((perm[i], perm[j]))) for i, j in pairs]
        relabeled = SemanticGraph(
            n=n, edges=tuple((i, j, 1.0) for i, j in relabeled_pairs)
        )
        assert chunk_stickiness(graph) == pytest.approx(
            chunk_stickiness(relabeled), abs=1e-12
        )

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SemanticGraph(n=3, edges=((1, 1, 0.9),))


class TestDissimilarity:
    def test_identical_embeddings_zero(self):
        emb = FixtureEmbedder({"a": [1, 2], "b": [1, 2], "c": [1, 2]})
        assert dissimilarity(["a", "b", "c"], emb) == pytest.approx(0.0)

    def test_orthogonal_embeddings_one(self):
        emb = FixtureEmbedder({"a": [1, 0], "b": [0, 1]})
        assert dissimilarity(["a", "b"], emb) == pytest.approx(1.0)

    def test_mean_of_adjacent_gaps(self):
        # sims 0.8 and 0.6 -> DS = mean(0.2, 0.4) = 0.3
        emb = FixtureEmbedder({
            "a": [1.0, 0.0],
            "b": [0.8, 0.6],
            "c": [0.8 * 0.6 + 0.6 * 0.8, 0.6 * 0.6 - 0.8 * 0.8],
        })
        # cos(a, b) = 0.8; construct c so cos(b, c) = 0.6
        assert pytest.approx(0.8) == float(
            sum(x * y for x, y in zip([1.0, 0.0], [0.8, 0.6]))
        )
        ds = dissimilarity(["a", "b", "c"], emb)
        assert ds == pytest.approx(0.3, abs=1e-9)

    def test_invariant_under_uniform_scaling(self):
        base = {"a": [1, 2, 3], "b": [2, 1, 0], "c": [0, 1, 4]}
        scaled = {k: [5.0 * x for x in v] for k, v in base.items()}
        ds1 = dissimilarity(["a", "b", "c"], FixtureEmbedder(base))
        ds2 = dissimilarity(["a", "b", "c"], FixtureEmbedder(scaled))
        assert ds1 == pytest.approx(ds2, abs=1e-12)

    def test_needs_two_chunks(self):
        with pytest.raises(ValueError):
            dissimilarity(["a"], FixtureEmbedder({"a": [1]}))


class TestConditionalSupport:
    def test_perfect_support_is_zero(self):
        scorer = FixtureScorer().add("yes", "ctx", logprobs=[0.0, 0.0, 0.0])
        assert conditional_support("yes", ["ctx"], scorer) == 0.0

    def test_uniform_scorer_gives_log_v(self):
        scorer = NGramScorer(order=1, alphabet="abcd")
        cp = conditional_support("abca", ["dddd"], scorer)
        assert cp == pytest.approx(math.log(4))

    def test_supporting_context_lowers_cp(self):
        corpus = "the cat sat on the mat. " * 3
        scorer = NGramScorer(order=4, corpus=corpus)
        answer = "the mat."
        cp_supported = conditional_support(answer, ["the cat sat on "], scorer)
        cp_unrelated = conditional_support(answer, ["zqv wkj pmb rr "], scorer)
        assert cp_supported < cp_unrelated

    def test_empty_answer_rejected(self):
        with pytest.raises(ValueError):
            conditional_support("", ["ctx"], FixtureScorer())


class TestPearson:
    def test_self_correlation(self):
        xs = [1.0, 2.0, 5.0, 3.0]
        assert pearson(xs, xs) == pytest.approx(1.0)

    def test_anti_correlation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_affine_invariance(self, rng):
        xs = [rng.uniform(-5, 5) for _ in range(30)]
        ys = [rng.uniform(-5, 5) for _ in range(30)]
        base = pearson(xs, ys)
        for a, b in ((2.0, 1.0), (0.3, -7.0), (100.0, 0.0)):
            assert pearson([a * x + b for x in xs], ys) == pytest.approx(
                base, abs=1e-9
            )

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # min(1.0, nan) is 1.0: a NaN must not reach the clamp
        for x, y in (([1, 2, bad], [3, 1, 2]), ([1, 2, 3], [bad, 1, 2])):
            with pytest.raises(ValueError, match="finite"):
                pearson(x, y)

    @pytest.mark.parametrize("scale", [1e-320, 1e-160, 1e154, 1e200, 1e307])
    def test_any_magnitude_gives_the_unit_scale_value(self, scale):
        # without scaling, squares overflow to inf (r = 0) or underflow to 0
        xs, ys = [1.0, 2.0, 4.0, 3.0], [2.0, 1.0, 4.0, 5.0]
        expected = pearson(xs, ys)
        assert pearson([x * scale for x in xs], ys) == pytest.approx(expected,
                                                                     rel=1e-12)
        assert pearson(xs, [-y * scale for y in ys]) == pytest.approx(-expected,
                                                                      rel=1e-12)


class TestEvaluateChunksets:
    def test_values_of_one_chunkset(self):
        doc = make_doc("aaaa bbbb cccc dddd", doc_id="d1")
        cs = ChunkSet.from_spans(doc, [(0, 4), (5, 9), (10, 14), (15, 19)],
                                 method="fixed")
        scorer = NGramScorer(order=2, corpus=doc.text)
        values = evaluate_chunksets(doc, cs, ("bc", "cs_c", "cs_i"), scorer=scorer)
        assert set(values) == {"bc", "cs_c", "cs_i"}

        def pair_bc(q, d):  # BC(q, d) from two score calls
            return (perplexity(scorer.score(q.text, d.text))
                    / perplexity(scorer.score(q.text)))

        assert values["bc"] == pytest.approx(fmean(
            pair_bc(b, a) for a, b in zip(cs.chunks, cs.chunks[1:])))
        single = ChunkSet.from_spans(doc, [(0, 19)], method="fixed")
        assert evaluate_chunksets(doc, single, ("bc", "cs_c", "cs_i"),
                                  scorer=scorer) == dict.fromkeys(values)

    @pytest.mark.parametrize("metric, budget", [
        ("bc", lambda n: 2 * (n - 1)),
        ("cs_c", lambda n: n + n * (n - 1)),
        ("cs_i", lambda n: n + n * (n - 1) // 2),
    ])
    def test_score_call_budget(self, rng, metric, budget):
        # LM cost is what a remote backend charges for: gate on exact call
        # counts per document of n chunks, never on wall time
        class CountingScorer:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def score(self, text, context=None):
                self.calls += 1
                return self.inner.score(text, context)

        docs = [make_doc(random_text(rng, sentences=n), f"d{n}") for n in (2, 3, 6)]
        sets = [chunk_fixed(d, len(d.text) // n + 1) for d, n in zip(docs, (2, 3, 6))]
        assert [len(cs) for cs in sets] == [2, 3, 6]
        scorer = CountingScorer(NGramScorer(order=3, corpus=[d.text for d in docs]))
        for doc, cs in zip(docs, sets):
            evaluate_chunksets(doc, cs, (metric,), scorer=scorer, delta=0)
        assert scorer.calls == sum(budget(len(cs)) for cs in sets)

    @pytest.mark.parametrize("metric, sizes", [
        ("bc", [6]), ("cs_c", [4, 12]), ("cs_i", [4, 6]),
    ])
    def test_one_request_list_per_metric(self, metric, sizes):
        # BC sends its 2(n - 1) requests as one list; each graph sends its n
        # plain requests, then its conditional ones, as a second
        doc = make_doc("aaaa bbbb cccc dddd", doc_id="d1")
        cs = ChunkSet.from_spans(doc, [(0, 4), (5, 9), (10, 14), (15, 19)],
                                 method="fixed")
        sent = []

        class Listed(NGramScorer):
            def score_many(self, requests):
                sent.append(len(requests))
                return [self.score(text, context) for text, context in requests]

        values = evaluate_chunksets(doc, cs, (metric,),
                                    scorer=Listed(order=2, corpus=doc.text))
        assert values == evaluate_chunksets(
            doc, cs, (metric,), scorer=NGramScorer(order=2, corpus=doc.text))
        assert sent == sizes

    def test_scorer_required_for_bc(self):
        doc = make_doc("aaaa bbbb", doc_id="d1")
        cs = ChunkSet.from_spans(doc, [(0, 4), (5, 9)], method="fixed")
        with pytest.raises(ValueError, match="scorer"):
            evaluate_chunksets(doc, cs, ("bc",))

    def test_unknown_metric_rejected(self):
        doc = make_doc("aaaa bbbb", doc_id="d1")
        cs = ChunkSet.from_spans(doc, [(0, 4), (5, 9)], method="fixed")
        with pytest.raises(ValueError, match="unknown metrics"):
            evaluate_chunksets(doc, cs, ("cs",), scorer=FixtureScorer())

    def test_cp_uses_answer_meta(self):
        from chunkkit.text import Document
        doc = Document(id="d1", text="context text here. answer words.",
                       meta={"answer": "answer words."})
        cs = ChunkSet.from_spans(doc, [(0, 18), (19, 32)], method="fixed")
        scorer = NGramScorer(order=2, corpus=doc.text)
        assert evaluate_chunksets(doc, cs, ("cp",), scorer=scorer)["cp"] > 0

    def test_cp_skips_docs_without_answer(self, caplog):
        from chunkkit.text import Document
        without = Document(id="d2", text="just context, nothing else.")
        cs = ChunkSet.from_spans(without, [(0, 12), (13, 27)], method="f")
        scorer = NGramScorer(order=2, corpus=without.text)
        with caplog.at_level("WARNING"):
            values = evaluate_chunksets(without, cs, ("cp",), scorer=scorer)
        assert values == {"cp": None}
        assert "cp skipped" in caplog.text
