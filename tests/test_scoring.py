"""Scorers, perplexity, fixtures, and embedding helpers."""

from __future__ import annotations

import ast
import math
import random
import struct
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chunkkit import scoring
from chunkkit.errors import FixtureMissingError, UndefinedSimilarityError
from chunkkit.scoring import (
    FixtureEmbedder,
    FixtureGenerator,
    FixtureScorer,
    HashEmbedder,
    NGramScorer,
    ScoredText,
    cosine,
    perplexity,
)


def reference_counts(order: int, texts) -> list[dict[str, Counter]]:
    """Reference: the per-position count loop the k-gram Counter fit
    replaced. counts[k][ctx] -> Counter of next char, len(ctx) == k-1."""
    counts: list[dict[str, Counter]] = [dict() for _ in range(order + 1)]
    for text in texts:
        for k in range(1, order + 1):
            for t in range(len(text) - k + 1):
                counts[k].setdefault(text[t:t + k - 1], Counter())[text[t + k - 1]] += 1
    return counts


def reference_prob(scorer: NGramScorer, history: str, char: str) -> float:
    """Reference: add-one probability from the raw counts, re-summing the
    context's bucket on every call, as the scorer did before it kept rows."""
    v = len(scorer._alphabet)
    if v == 0:
        raise ValueError("empty alphabet")
    k = min(scorer.order, len(history) + 1)
    ctx = history[len(history) - (k - 1):] if k > 1 else ""
    bucket = scorer._counts[k].get(ctx)
    count = bucket[char] if bucket else 0
    total = sum(bucket.values()) if bucket else 0
    return (count + 1) / (total + v)


def reference_logprobs(scorer: NGramScorer, text: str,
                       context: str | None) -> list[str]:
    """Reference: one log(prob(full[:t], full[t])) per text character over
    the whole context, as float hex strings so equality is bit-equality."""
    full = (context or "") + text
    offset = len(context or "")
    return [min(math.log(reference_prob(scorer, full[:t], full[t])), 0.0).hex()
            for t in range(offset, len(full))]


def hexes(scored: ScoredText) -> list[str]:
    return [lp.hex() for lp in scored.logprobs]


# A small alphabet makes texts share n-grams with the corpus, so seen rows,
# unseen chars and unseen contexts all occur; st.text() adds any unicode.
SMALL = "ab é漢\n"
texts = st.one_of(st.text(alphabet=SMALL, max_size=40), st.text(max_size=40))
nonempty = st.one_of(st.text(alphabet=SMALL, min_size=1, max_size=30),
                     st.text(min_size=1, max_size=30))
scorers = st.builds(
    NGramScorer,
    order=st.integers(1, 5),
    corpus=st.lists(texts, max_size=3),
    alphabet=st.one_of(st.none(), st.text(alphabet=SMALL + "xyz", min_size=1)),
)


def bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


def reference_check(tokens, logprobs):
    """Reference: the ScoredText check, one generator expression per
    element, then the perplexity from fsum. The stored logprobs and the
    perplexity as raw bits, or the exception type."""
    try:
        lps = tuple(float(x) for x in logprobs)
        if len(tokens) != len(lps) or not tokens \
                or any(lp > 0.0 or not math.isfinite(lp) for lp in lps):
            raise ValueError("rejected")
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    try:  # fsum and exp raise OverflowError past the float range
        return bits(lps + (math.exp(-math.fsum(lps) / len(lps)),))
    except OverflowError:
        return ValueError


# everything float() takes or refuses: NaN of either sign, ±inf, -0.0, ints
# beyond the float range (OverflowError), numeric strings and None
logprob_values = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
                     5e-324, -5e-324, 1.7976931348623157e308]),
    st.integers(-3, 3),
    st.integers(-10**400, 10**400),
    st.sampled_from(["-1.5", "nan", "x", None]),
)


class TestScoredText:
    @given(st.lists(logprob_values, max_size=6), st.booleans())
    @example([math.nan, -1.0], False)
    @example([-math.inf, -0.0], False)
    @example([math.inf], False)
    @example([-(10**400)], False)
    @example([-2, 0], False)
    @example([-1000.0], False)  # exp(1000) is out of float range
    @example([-709.0, -710.0], False)  # the mean is just within it
    @example([-1e308, -1e308], False)  # the sum is not
    @settings(max_examples=500)
    def test_check_matches_generator_expression_form(self, logprobs, extra_token):
        tokens = tuple(f"t{i}" for i in range(len(logprobs) + extra_token))
        try:
            scored = ScoredText(tokens=tokens, logprobs=logprobs)
            outcome = bits(scored.logprobs + (perplexity(scored),))
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            outcome = type(exc)
        assert outcome == reference_check(tokens, logprobs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScoredText(tokens=("a", "b"), logprobs=(-1.0,))

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            ScoredText(tokens=("a",), logprobs=(0.5,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ScoredText(tokens=(), logprobs=())


class TestPerplexity:
    def test_uniform(self):
        st_ = ScoredText(tokens=tuple("abcd"), logprobs=(-math.log(4),) * 4)
        assert perplexity(st_) == pytest.approx(4.0)

    def test_geometric_mean(self):
        st_ = ScoredText(tokens=("a", "b"),
                         logprobs=(-math.log(2), -math.log(8)))
        assert perplexity(st_) == pytest.approx(4.0)

    def test_at_least_one(self):
        st_ = ScoredText(tokens=("a",), logprobs=(0.0,))
        assert perplexity(st_) == 1.0

    @given(st.lists(st.floats(min_value=-12, max_value=0), min_size=1,
                    max_size=20))
    @settings(max_examples=100)
    def test_permutation_invariant(self, logprobs):
        rng = random.Random(0)
        shuffled = logprobs[:]
        rng.shuffle(shuffled)
        a = ScoredText(tokens=tuple(f"t{i}" for i in range(len(logprobs))),
                       logprobs=tuple(logprobs))
        b = ScoredText(tokens=tuple(f"t{i}" for i in range(len(logprobs))),
                       logprobs=tuple(shuffled))
        assert perplexity(a) == pytest.approx(perplexity(b), rel=1e-12)


class TestNGramScorer:
    def test_unigram_add_one_hand_count(self):
        # training "aab": counts a=2, b=1 over alphabet {a, b}
        scorer = NGramScorer(order=1, corpus="aab")
        scored = scorer.score("aab")
        expected = [math.log(3 / 5), math.log(3 / 5), math.log(2 / 5)]
        assert list(scored.logprobs) == pytest.approx(expected)

    def test_ngram_fixture_perplexity(self):
        scorer = NGramScorer(order=1, corpus="aab")
        ppl = perplexity(scorer.score("aab"))
        assert ppl == pytest.approx(
            math.exp(-(math.log(.6) + math.log(.6) + math.log(.4)) / 3)
        )

    def test_uniform_model_any_length(self):
        # untrained scorer with an explicit alphabet of size V is uniform
        scorer = NGramScorer(order=2, alphabet="abcd")
        for text in ("a", "dcba", "aaaaaaaa"):
            scored = scorer.score(text)
            assert all(lp == pytest.approx(-math.log(4))
                       for lp in scored.logprobs)

    def test_empty_text_rejected(self):
        scorer = NGramScorer(order=1, corpus="ab")
        with pytest.raises(ValueError):
            scorer.score("")

    def test_conditioning_contract_exact(self, rng):
        corpus = "the cat sat on the mat. the dog sat on the log."
        scorer = NGramScorer(order=3, corpus=corpus)
        context = "the cat"
        text = " sat on the log."
        conditional = scorer.score(text, context=context)
        joint = scorer.score(context + text)
        assert conditional.logprobs == joint.logprobs[len(context):]

    def test_unseen_char_gets_smoothed_floor(self):
        scorer = NGramScorer(order=2, corpus="abab")
        # (count + 1) / (total + V) with count 0 is at most 1/V
        floor = 1 / len(scorer._alphabet)
        scored = scorer.score("zqzq")
        assert all(math.exp(lp) <= floor + 1e-12 for lp in scored.logprobs)
        assert math.exp(scored.logprobs[0]) == pytest.approx(1 / 6)  # unigram

    def test_distribution_sums_to_one_each_step(self, rng):
        # by the conditioning contract, score(ch, context=history) is
        # log P(ch | history)
        corpus = "to be or not to be, that is the question."
        scorer = NGramScorer(order=3, corpus=corpus)
        alphabet = sorted(set(corpus))
        text = "that is"
        for t in range(len(text)):
            history = text[:t]
            total = math.fsum(math.exp(scorer.score(ch, context=history).logprobs[0])
                              for ch in alphabet)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        a = NGramScorer(order=2, corpus="banana").score("nan")
        b = NGramScorer(order=2, corpus="banana").score("nan")
        assert a == b


class TestNGramScorerTables:
    """The row tables against the per-character reference path."""

    @given(scorers, nonempty, st.one_of(st.none(), texts))
    @settings(max_examples=400)
    def test_score_bit_identical_to_reference(self, scorer, text, context):
        if len(scorer._alphabet) == 0:
            with pytest.raises(ValueError):
                scorer.score(text, context)
            return
        scored = scorer.score(text, context)
        assert hexes(scored) == reference_logprobs(scorer, text, context)
        assert scored.tokens == tuple(text)

    @given(st.integers(1, 5), st.text(alphabet="ab", min_size=1, max_size=20),
           nonempty, nonempty, st.one_of(st.none(), texts))
    @settings(max_examples=200)
    def test_alphabet_only_scorer(self, order, alphabet, text, extra, context):
        scorer = NGramScorer(order=order, alphabet=alphabet)
        assert hexes(scorer.score(text, context)) == \
            reference_logprobs(scorer, text, context)
        # a later fit must replace the uniform rows
        scorer.fit([extra])
        assert hexes(scorer.score(text, context)) == \
            reference_logprobs(scorer, text, context)

    @given(scorers, texts, nonempty, st.one_of(st.none(), texts))
    @settings(max_examples=200)
    def test_second_fit_grows_alphabet(self, scorer, more, text, context):
        new_char = "\U0010fffd"
        assume(len(scorer._alphabet) and new_char not in scorer._alphabet)
        before = len(scorer._alphabet)
        scorer.fit([more + new_char])
        assert len(scorer._alphabet) > before  # V changed, so every row did
        assert hexes(scorer.score(text, context)) == \
            reference_logprobs(scorer, text, context)

    @given(scorers, nonempty, texts)
    @settings(max_examples=200)
    def test_context_tail_invariance(self, scorer, text, context):
        assume(len(scorer._alphabet))
        tail = context[max(0, len(context) - (scorer.order - 1)):]
        full, cut = scorer.score(text, context), scorer.score(text, tail)
        assert hexes(full) == hexes(cut)

    @given(st.integers(1, 5), st.lists(texts, max_size=4))
    @example(order=3, corpus=["ab", "😀é漢ab"])  # the refit grows the alphabet
    @settings(max_examples=200)
    def test_fit_counts_match_reference(self, order, corpus):
        scorer = NGramScorer(order=order, corpus=corpus[:1])
        assert scorer._counts == reference_counts(order, corpus[:1])
        scorer.fit(corpus[1:])
        assert scorer._counts == reference_counts(order, corpus)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=200)
    def test_ngrams_match_slicing(self, n, data):
        # astral characters, and texts shorter than, as long as and longer
        # than n
        text = data.draw(st.one_of(st.text(max_size=n + 2),
                                   st.text(alphabet="a😀漢", max_size=n + 2)))
        assert list(scoring._ngrams(text, n)) == \
            [text[t:t + n] for t in range(len(text) - n + 1)]


def reference_perplexity(hex_logprobs: list[str]) -> str:
    """Reference: exp(-mean) of reference logprobs, as a float hex string."""
    lps = [float.fromhex(h) for h in hex_logprobs]
    return math.exp(-math.fsum(lps) / len(lps)).hex()


def context_tail(context: str | None, order: int) -> str:
    """The context characters an order-``order`` result depends on."""
    return (context or "")[-(order - 1):] if order > 1 else ""


def cached_positions(scorer: NGramScorer) -> int:
    """The positions a scorer's cache holds, counted from its entries: a
    text's own, and one result's per context tail."""
    return sum(len(text) * (1 + len(entry.results))
               for text, entry in scorer._cache.items())


class TestNGramScorerTailCache:
    """Scores served from the per-text cache against the per-character
    reference."""

    @pytest.mark.parametrize("order", range(1, 6))
    @given(base=st.text(alphabet=SMALL, min_size=9, max_size=14),
           more_texts=st.lists(nonempty, max_size=2),
           more_contexts=st.lists(st.one_of(st.none(), texts), max_size=2),
           corpus=st.lists(texts, max_size=2), refit=texts)
    @settings(max_examples=60)
    def test_warm_cache_bit_identical_to_reference(
            self, order, base, more_texts, more_contexts, corpus, refit):
        n = order - 1
        scorer = NGramScorer(order=order, corpus=corpus, alphabet=SMALL)
        # shorter than, equal to and longer than order - 1 (where not empty)
        texts_ = [base[:max(1, n - 1)], base[:max(1, n)], base[:n + 1], base,
                  *more_texts]
        # the last two share their tail with base * 3
        contexts = [None, "", base * 3, *more_contexts, base[-n:] if n else "",
                    "x" * 50 + base * 2]

        def check_all():
            # each text is scored under every context, so all but its first
            # score read the cache
            first: dict[tuple[str, str], ScoredText] = {}
            for context in contexts:
                for text in texts_:
                    scored = scorer.score(text, context)
                    expected = reference_logprobs(scorer, text, context)
                    assert hexes(scored) == expected
                    assert perplexity(scored).hex() == reference_perplexity(expected)
                    key = (text, context_tail(context, order))
                    assert first.setdefault(key, scored) is scored
            assert set(scorer._cache) == set(texts_)
            assert scorer._positions == cached_positions(scorer)

        check_all()
        before = len(scorer._alphabet)
        scorer.fit([refit + "\U0010fffd"])  # a new char: V grows, every row moves
        assert len(scorer._alphabet) > before
        assert not scorer._cache and scorer._positions == 0
        check_all()

    @given(order=st.integers(1, 5),
           jobs=st.lists(st.tuples(st.text(alphabet=SMALL, min_size=1, max_size=12),
                                   st.one_of(st.none(), texts)),
                         min_size=1, max_size=30),
           bound=st.integers(1, 60))
    @settings(max_examples=300)
    def test_positions_bound_holds_after_eviction(self, order, jobs, bound):
        scorer = NGramScorer(order=order, corpus="ab a\nb", alphabet=SMALL)
        with mock.patch.object(scoring, "_CACHE_POSITIONS", bound):
            for text, context in jobs:
                tail = context_tail(context, order)
                entry = scorer._cache.get(text)
                hit = entry is not None and tail in entry.results
                scored = scorer.score(text, context)
                expected = reference_logprobs(scorer, text, context)
                assert hexes(scored) == expected
                assert perplexity(scored).hex() == reference_perplexity(expected)
                assert scorer._positions == cached_positions(scorer) <= bound
                if hit:  # the cached object, left where it was
                    assert scored is entry.results[tail] and text in scorer._cache
                elif 2 * len(text) > bound:  # too long to cache at all
                    assert text not in scorer._cache
                elif text in scorer._cache:  # a new result: the newest text
                    assert list(scorer._cache)[-1] == text
                    assert scorer._cache[text].results[tail] is scored
                    assert scorer.score(text, context) is scored

    def test_oldest_texts_are_dropped_first(self, monkeypatch):
        monkeypatch.setattr(scoring, "_CACHE_POSITIONS", 12)
        scorer = NGramScorer(order=2, corpus="abc xyq")
        plain = scorer.score("abc")  # the text and one result: 6 positions
        scorer.score("xy")  # 4 more: 10
        after_x = scorer.score("abc", "x")  # 9 for abc: xy is dropped
        assert list(scorer._cache) == ["abc"] and scorer._positions == 9
        assert scorer.score("abc", "zzx") is after_x
        assert scorer.score("abc") is plain
        scorer.score("q")  # 2 more: 11
        assert list(scorer._cache) == ["abc", "q"] and scorer._positions == 11
        scorer.score("xy")  # 4 more: abc, the oldest, is dropped
        assert list(scorer._cache) == ["q", "xy"] and scorer._positions == 6
        again = scorer.score("abc")
        assert again is not plain and hexes(again) == hexes(plain)

    def test_threads_sharing_a_scorer_match_serial(self, monkeypatch):
        # a bound of 100 positions makes threads evict each other's texts,
        # and a sleep while a result is built hands the interpreter to
        # another thread in the middle of a cache update
        monkeypatch.setattr(scoring, "_CACHE_POSITIONS", 100)
        trusted = ScoredText._trusted
        monkeypatch.setattr(ScoredText, "_trusted", classmethod(
            lambda cls, tokens, logprobs: time.sleep(1e-5) or trusted(tokens, logprobs)))
        rng = random.Random(7)
        corpus = "".join(rng.choice("abcde ") for _ in range(400))
        texts_ = [corpus[i:i + rng.randint(1, 40)] for i in range(0, 400, 37)]
        contexts = [None, "", "a", corpus[:50], corpus[200:203]]
        jobs = [(t, c) for t in texts_ for c in contexts]
        serial = [hexes(NGramScorer(order=3, corpus=corpus).score(t, c))
                  for t, c in jobs]
        shared = NGramScorer(order=3, corpus=corpus)

        def run(shift: int) -> int:
            """How many scores, over five rounds, differ from the serial ones."""
            wrong = 0
            for _ in range(5):
                for i in range(shift, shift + len(jobs)):
                    t, c = jobs[i % len(jobs)]
                    wrong += hexes(shared.score(t, c)) != serial[i % len(jobs)]
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, shift * 7) for shift in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [0] * 4
        assert shared._positions == cached_positions(shared) <= 100


def trusted_callers(tree: ast.AST) -> list[str]:
    """Where ``tree`` names ``_trusted`` (a call or a bare reference), as the
    dotted class and function path around it."""
    found, scope = [], []

    def visit(node: ast.AST) -> None:
        named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if named:
            scope.append(node.name)
        if (isinstance(node, ast.Attribute) and node.attr == "_trusted"
                or isinstance(node, ast.Name) and node.id == "_trusted"):
            found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child)
        if named:
            scope.pop()

    visit(tree)
    return found


class TestTrustedScores:
    """NGramScorer.score builds its results without the ScoredText check,
    because fit checks every row value once."""

    @given(scorers, nonempty, st.lists(st.one_of(st.none(), texts), min_size=1,
                                       max_size=3))
    @settings(max_examples=300)
    def test_every_score_passes_the_public_check(self, scorer, text, contexts):
        assume(scorer._alphabet)
        for context in contexts:  # the first call fills the tail cache
            scored = scorer.score(text, context)
            checked = ScoredText(tokens=scored.tokens, logprobs=scored.logprobs)
            assert bits(checked.logprobs) == bits(scored.logprobs)
            assert bits([perplexity(checked)]) == bits([perplexity(scored)])
            assert checked == scored and not scored.truncated

    def test_clamp_keeps_a_log_rounded_above_zero_at_zero(self, monkeypatch):
        # order 1 over "aaaa" with V = 2: the row of "a" is log(5/6), the
        # only argument above 1/2; a log that rounds it above 0 is clamped
        scorer = NGramScorer(order=1, corpus="aaaa", alphabet="ab")
        monkeypatch.setattr(scoring, "math", SimpleNamespace(**{
            **vars(math), "log": lambda x: 1e-300 if x > 0.5 else math.log(x)}))
        scorer.fit([])
        assert scorer.score("ab").logprobs == (0.0, math.log(1 / 6))

    @pytest.mark.parametrize("argument,value", [
        (1 / 6, 1e-300),  # the unseen row of the empty context
        (1 / 2, 0.5),  # the floor of a context never seen
        (1 / 6, 0),  # an int, not a float
    ], ids=["unseen-positive", "floor-positive", "unseen-not-a-float"])
    def test_fit_rejects_a_row_the_check_would(self, monkeypatch, argument, value):
        scorer = NGramScorer(order=1, corpus="aaaa", alphabet="ab")
        monkeypatch.setattr(scoring, "math", SimpleNamespace(
            log=lambda x: value if x == argument else math.log(x)))
        with pytest.raises(ValueError, match="rows must be floats <= 0"):
            scorer.fit([])

    def test_only_ngram_score_builds_trusted_results(self):
        package = Path(scoring.__file__).parent
        callers = [f"{path.name}: {caller}" for path in sorted(package.glob("*.py"))
                   for caller in trusted_callers(ast.parse(path.read_text("utf-8")))]
        assert callers == ["scoring.py: NGramScorer.score"]

    def test_the_guard_sees_each_reference(self):
        tree = ast.parse("class A:\n    def f(self):\n        return S._trusted(1, 2)\n"
                         "def g():\n    make = S._trusted\n_trusted()\n")
        assert trusted_callers(tree) == ["A.f", "g", "<module>"]


class TestFixtures:
    def test_fixture_scorer_returns_table_entry(self):
        scorer = FixtureScorer().add("abc", probs=[0.5, 0.25, 0.125])
        scored = scorer.score("abc")
        assert perplexity(scored) == pytest.approx(
            (0.5 * 0.25 * 0.125) ** (-1 / 3)
        )

    def test_fixture_scorer_fails_closed(self):
        scorer = FixtureScorer().add("abc", probs=[0.5])
        with pytest.raises(FixtureMissingError):
            scorer.score("abc", context="unknown")

    def test_fixture_generator_round_trip(self):
        gen = FixtureGenerator({"ping": "pong"})
        assert gen.generate("ping").text == "pong"

    def test_fixture_generator_fails_closed(self):
        gen = FixtureGenerator()
        with pytest.raises(FixtureMissingError):
            gen.generate("unseen prompt")

    def test_fixture_generator_truncation_flag(self):
        gen = FixtureGenerator().add("p", "cut off", finish_reason="length")
        assert gen.generate("p").truncated

    def test_fixture_embedder_similarity_table(self):
        emb = FixtureEmbedder({"x": [1, 0], "y": [1, 1]})
        # hand-computed: dot=1, norms 1 and sqrt(2)
        assert cosine(emb.embed("x"), emb.embed("y")) == pytest.approx(
            1 / math.sqrt(2)
        )
        with pytest.raises(FixtureMissingError):
            emb.embed("z")


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_collinear(self):
        assert cosine([1, 2], [2, 4]) == pytest.approx(1.0, abs=1e-12)

    def test_self_similarity(self):
        v = [0.3, -1.2, 4.0]
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        u, v = [1.0, 2.0, -1.0], [0.5, -0.5, 3.0]
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-15)

    def test_zero_vector_undefined(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine([0, 0], [1, 0])


class TestHashEmbedder:
    def test_deterministic_and_self_cosine_one(self):
        emb = HashEmbedder(dim=32)
        a = emb.embed("some text here")
        assert emb.embed("some text here") == a
        assert cosine(a, a) == pytest.approx(1.0, abs=1e-15)

    def test_shared_ngrams_raise_similarity(self):
        emb = HashEmbedder(dim=64)
        near = cosine(emb.embed("the cat sat on the mat"),
                      emb.embed("the cat sat on the hat"))
        far = cosine(emb.embed("the cat sat on the mat"),
                     emb.embed("zqx vwk prl jmt"))
        assert near > far

    @staticmethod
    def reference_embed(emb: HashEmbedder, text: str) -> list[int]:
        """One ``_fnv1a`` call per n-gram, counted into the vector in place:
        the reference for the memoised, Counter-filled path."""
        vec = [0] * emb.dim
        padded = text if len(text) >= emb.ngram else text.ljust(emb.ngram)
        for i in range(len(padded) - emb.ngram + 1):
            gram = padded[i:i + emb.ngram]
            vec[HashEmbedder._fnv1a(gram.encode("utf-8")) % emb.dim] += 1
        return vec

    @given(texts=st.lists(
               st.one_of(st.text(min_size=1),
                         st.text(alphabet="a😀漢", min_size=1, max_size=8)),
               min_size=1, max_size=4),
           dim=st.sampled_from([2, 3, 64, 128, 1000]), ngram=st.integers(1, 6))
    def test_bit_identical_to_per_gram_reference(self, texts, dim, ngram):
        # unicode of any plane, texts shorter than ngram (space-padded), a
        # gram repeated within a text (hashed once), and repeats across
        # texts that the hash cache answers
        emb = HashEmbedder(dim=dim, ngram=ngram)
        for text in texts + texts:
            got = emb.embed(text)
            assert all(type(x) is int for x in got)
            assert list(got) == self.reference_embed(emb, text)
        assert [list(v) for v in emb.embed_many(texts)] == \
            [self.reference_embed(emb, t) for t in texts]
