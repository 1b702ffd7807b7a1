"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion runs at its stated tolerance and prints
``ACCEPTANCE <id>: PASS|FAIL (<detail>)``. No criterion gates on wall time;
the verdict lines print it only as information.

Criterion 1 reproduces the paper's Pearson coefficients (0.8776, -0.7453,
-0.6663) from the reference table, which is rounded: CS to 3 dp, BC and
ROUGE-L to 4 dp. That rounding alone moves the coefficient by more than
0.0005 (for cs_c, tables that round to the published one give r anywhere in
about [-0.7496, -0.7375]), so the table cannot pin a 4-dp coefficient. Each
coefficient is therefore checked twice:

(a) ``pearson`` of the table as written agrees to 1e-12 with an exact
    rational computation of the same correlation, and equals its known
    6-dp value;
(b) the published coefficient lies between the minimum and the maximum of
    ``pearson`` over the 2**8 corners of the box in which every table entry
    moves by half a unit in its last digit. The box is convex and r is
    continuous on it (no column is constant anywhere in the box), so some
    table that rounds to the published one gives exactly that coefficient.
"""

from __future__ import annotations

import math
import random
import string
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from statistics import fmean

from chunkkit.chunkers import chunk_boundary_aware, chunk_fixed
from chunkkit.dataset import make_rules, sliding_windows
from chunkkit.fuzzy import edit_distance
from chunkkit.metrics import (
    SemanticGraph,
    boundary_clarity,
    build_graph,
    chunk_stickiness,
    pearson,
)
from chunkkit.moc import extract_chunks, moc_chunk
from chunkkit.rules import (
    ChunkRule,
    GranularityLabel,
    RuleList,
    label_for_mean,
    render_rule_targets,
)
from chunkkit.scoring import FixtureScorer, GenerationResult, NGramScorer
from chunkkit.text import ChunkSet, Document, split_sentences

from conftest import add_ppl, random_text


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: Pearson reproduction of the reference table ---------------

REFERENCE_TABLE = {
    "bc": [0.8049, 0.8455, 0.8140, 0.8641],
    "cs_c": [2.421, 2.250, 2.325, 2.125],
    "cs_i": [1.898, 1.483, 1.650, 1.438],
    "rouge_l": [0.4213, 0.4326, 0.4131, 0.4351],
}
REFERENCE_DECIMALS = {"bc": 4, "cs_c": 3, "cs_i": 3, "rouge_l": 4}


def _exact_pearson(x: list[float], y: list[float]) -> float:
    """Pearson of the given floats with every sum taken exactly in rationals.

    Only r**2 is rounded to a float, so the result is within a few ulps of
    the true correlation of the inputs.
    """
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


def _rounding_range(column: str) -> tuple[float, float]:
    """Min and max of ``pearson`` over the corners of the rounding box."""
    x, y = REFERENCE_TABLE[column], REFERENCE_TABLE["rouge_l"]
    hx = 0.5 * 10.0 ** -REFERENCE_DECIMALS[column]
    hy = 0.5 * 10.0 ** -REFERENCE_DECIMALS["rouge_l"]
    # r is continuous on the box only if no column can become constant in it
    assert max(x) - min(x) > 2 * hx and max(y) - min(y) > 2 * hy
    values = [
        pearson([v + s * hx for v, s in zip(x, sx)],
                [v + s * hy for v, s in zip(y, sy)])
        for sx in product((-1, 1), repeat=len(x))
        for sy in product((-1, 1), repeat=len(y))
    ]
    return min(values), max(values)


def _criterion1(column: str, published: float, exact: float) -> None:
    start = time.monotonic()
    x, y = REFERENCE_TABLE[column], REFERENCE_TABLE["rouge_l"]
    r = pearson(x, y)
    oracle_gap = abs(r - _exact_pearson(x, y))
    lo, hi = _rounding_range(column)
    elapsed = time.monotonic() - start
    computed_ok = oracle_gap <= 1e-12 and abs(r - exact) <= 5e-7
    published_ok = lo <= published <= hi
    detail = (f"{column} vs rouge_l: pearson {r:.6f}, |pearson - exact "
              f"oracle| = {oracle_gap:.1e} (<= 1e-12), expected {exact:.6f} "
              f"+/-5e-7; published {published} "
              f"{'inside' if published_ok else 'outside'} the range "
              f"[{lo:.6f}, {hi:.6f}] of tables that round to the reference "
              f"table, {elapsed:.3f}s")
    report(f"1-{column}", computed_ok and published_ok, detail)


def test_c1_pearson_bc():
    _criterion1("bc", 0.8776, exact=0.877560)


def test_c1_pearson_cs_complete():
    _criterion1("cs_c", -0.7453, exact=-0.743573)


def test_c1_pearson_cs_sequence():
    _criterion1("cs_i", -0.6663, exact=-0.666559)


def test_c1_pearson_non_finite_and_extreme_inputs():
    """A NaN or an infinity in either column raises (a NaN used to be
    clamped to 1.0); the bc column scaled to the ends of the float range
    still agrees with the exact oracle."""
    x, y = REFERENCE_TABLE["bc"], REFERENCE_TABLE["rouge_l"]
    raised = []
    for bad in (math.nan, math.inf, -math.inf):
        for xs, ys in (([*x[:-1], bad], y), (x, [bad, *y[1:]])):
            try:
                pearson(xs, ys)
            except ValueError:
                raised.append(bad)
    gaps = [abs(pearson([v * s for v in x], y) - _exact_pearson([v * s for v in x], y))
            for s in (1e-310, 1e-200, 1e200, 1e305)]
    report("1-non-finite", len(raised) == 6 and max(gaps) <= 1e-12,
           f"{len(raised)}/6 non-finite inputs raised ValueError; largest "
           f"|pearson - exact oracle| over bc scaled by 1e-310..1e305 = "
           f"{max(gaps):.1e} (<= 1e-12)")


# -- criterion 2: structural entropy identities ------------------------------

def test_c2_structural_entropy_identities():
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 65):
        graph = SemanticGraph(
            n=n,
            edges=tuple((i, j, 0.9) for i in range(n) for j in range(i + 1, n)),
        )
        worst = max(worst, abs(chunk_stickiness(graph) - math.log2(n)))
    path3 = SemanticGraph(n=3, edges=((0, 1, 0.9), (1, 2, 0.9)))
    path_exact = chunk_stickiness(path3) == 1.5
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and path_exact
    report("2", ok,
           f"max |CS(K_n) - log2 n| = {worst:.2e} over n in [2,64], "
           f"CS(path3) == 1.5 exactly: {path_exact}, {elapsed:.3f}s")


# -- criterion 3: edit distance vs exhaustive recursive oracle ---------------

@lru_cache(maxsize=None)
def _recursive_distance(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[-1] == b[-1]:
        return _recursive_distance(a[:-1], b[:-1])
    return 1 + min(
        _recursive_distance(a[:-1], b),
        _recursive_distance(a, b[:-1]),
        _recursive_distance(a[:-1], b[:-1]),
    )


def test_c3_edit_distance_oracle_equivalence():
    start = time.monotonic()
    strings = [""]
    for _ in range(6):
        strings += [s + c for s in strings for c in "ab" if len(s + c) <= 6]
    strings = sorted(set(strings), key=lambda s: (len(s), s))
    assert len(strings) == 127
    pairs = 0
    for a in strings:
        for b in strings:
            assert edit_distance(a, b) == _recursive_distance(a, b), (a, b)
            pairs += 1

    rng = random.Random(42)
    letters = string.ascii_lowercase

    def rand_str() -> str:
        return "".join(rng.choice(letters) for _ in range(rng.randint(0, 12)))

    for _ in range(10_000):
        a, b = rand_str(), rand_str()
        d = edit_distance(a, b)
        assert d >= 0
        assert (d == 0) == (a == b)
        assert d == edit_distance(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)
    for _ in range(10_000):
        a, b, c = rand_str(), rand_str(), rand_str()
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    elapsed = time.monotonic() - start
    ok = pairs == 16_129
    report("3", ok,
           f"{pairs} exhaustive pairs + 10k axiom and 10k triangle "
           f"checks, {elapsed:.1f}s")


# -- criterion 4: rule round trip with perturbed anchors ---------------------

def test_c4_rule_round_trip_and_recovery():
    start = time.monotonic()
    rng = random.Random(20240404)
    docs = [
        Document(id=f"d{i}", text=random_text(rng, sentences=12))
        for i in range(100)
    ]

    exact_failures = 0
    perturbed_total = 0
    perturbed_ok = 0
    for doc in docs:
        cs = chunk_boundary_aware(doc, target=120)
        rules = make_rules(cs, anchor_len=10)

        recovered, rep = extract_chunks(doc, rules)
        if recovered.chunks != cs.chunks or any(
            m.mode != "exact" for m in rep
        ):
            exact_failures += 1
            continue

        anchored = [i for i, r in enumerate(rules.rules) if not r.literal]
        chosen = rng.sample(anchored, max(1, round(0.2 * len(anchored))))
        mutated = list(rules.rules)
        for idx in chosen:
            rule = mutated[idx]
            side = rng.choice(("prefix", "suffix"))
            text = getattr(rule, side)
            pos = rng.randrange(len(text))
            replacement = rng.choice(
                [c for c in string.ascii_lowercase if c != text[pos]]
            )
            mutated_text = text[:pos] + replacement + text[pos + 1:]
            mutated[idx] = ChunkRule(
                prefix=mutated_text if side == "prefix" else rule.prefix,
                placeholder=rule.placeholder,
                suffix=mutated_text if side == "suffix" else rule.suffix,
            )
        out, rep2 = extract_chunks(doc, RuleList(rules=tuple(mutated)))
        spans_by_rule = {i: (m.start, m.end) for i, m in enumerate(rep2)}
        for idx in chosen:
            perturbed_total += 1
            match = rep2[idx]
            original = cs.chunks[idx]
            if (match.mode == "recovered" and match.distance == 1
                    and spans_by_rule[idx] == (original.start, original.end)):
                perturbed_ok += 1

    elapsed = time.monotonic() - start
    rate = perturbed_ok / perturbed_total if perturbed_total else 0.0
    ok = exact_failures == 0 and rate >= 0.99
    report("4", ok,
           f"100/100 byte-exact round trips, {perturbed_ok}/{perturbed_total} "
           f"perturbed anchors recovered at distance 1 with correct spans "
           f"({rate:.1%}), {elapsed:.1f}s")


# -- criterion 5: stickiness is non-increasing in K --------------------------

FLAT_ALPHABET = string.ascii_lowercase + string.digits


def _flat_sharp_doc(rng: random.Random, reuse: int, reps: int) -> Document:
    # every symbol appears `reuse` times with distinct successors: low-order
    # stats stay flat while order-4 contexts are near-deterministic, so
    # conditional scoring spreads edge weights across the high thresholds
    symbols = list(FLAT_ALPHABET) * reuse
    rng.shuffle(symbols)
    return Document(id="d", text="".join(symbols) * reps)


def test_c5_stickiness_monotone_in_k():
    rng = random.Random(77)
    sweeps = 0
    nonvacuous = 0
    for case in range(10):
        reuse = 4 + case % 2
        doc = _flat_sharp_doc(rng, reuse=reuse, reps=120)
        scorer = NGramScorer(order=4, corpus=doc.text)
        length = 2 + case % 2
        spans = [(i, i + length) for i in range(0, 40 * length, length)]
        chunks = [doc.text[s:e] for s, e in spans]
        for variant in ("complete", "sequence"):
            values = []
            edge_counts = []
            for k in (0.7, 0.8, 0.9):
                graph = build_graph(chunks, scorer, k=k, variant=variant)
                values.append(chunk_stickiness(graph))
                edge_counts.append(graph.edge_count)
            assert values[2] <= values[1] <= values[0], (case, variant, values)
            assert edge_counts[2] <= edge_counts[1] <= edge_counts[0]
            sweeps += 1
            if edge_counts[0] > edge_counts[2]:
                nonvacuous += 1
    ok = sweeps == 20 and nonvacuous >= 10
    report("5", ok,
           f"CS(0.9) <= CS(0.8) <= CS(0.7) held for all {sweeps} sweeps "
           f"({nonvacuous} with strictly shrinking edge sets)")


# -- criterion 6: granularity label boundaries --------------------------------

def test_c6_granularity_boundary_means():
    outcomes = []
    for mean, expected in ((120, 0), (150, 1), (180, 2), (181, 3)):
        doc = Document(id="d", text="x" * mean)
        cs = ChunkSet.from_spans(doc, [(0, mean)], method="t")
        outcomes.append(label_for_mean(cs.mean_length()) == GranularityLabel(expected))
    ok = all(outcomes)
    report("6", ok, "means 120/150/180/181 -> labels 0/1/2/3")


# -- criterion 7: windowing and seam stitching --------------------------------

class _ScriptedExpert:
    """Generator that deterministically re-chunks the prompted region."""

    model = "scripted"

    def generate(self, prompt: str) -> GenerationResult:
        region = prompt.split("Document content: ", 1)[1]
        if region.endswith("\n"):
            region = region[:-1]
        region_doc = Document(id="w", text=region)
        cs = chunk_boundary_aware(region_doc, target=120)
        rules = make_rules(cs, anchor_len=10)
        return GenerationResult(text=render_rule_targets(rules.rules))


def test_c7_windowing_and_seam_stitching():
    start = time.monotonic()
    rng = random.Random(13)
    budget = 300
    router = NGramScorer(order=1, alphabet="0123")  # uniform: always label 0
    expert = _ScriptedExpert()
    experts = {label: expert for label in GranularityLabel}

    checked = 0
    for i in range(1000):
        doc = Document(
            id=f"d{i}",
            text=random_text(rng, sentences=rng.randint(2, 24)),
        )
        windows = sliding_windows(doc, max_tokens=budget)
        assert windows[0][0] == 0
        assert windows[-1][1] == len(doc.text)
        assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
        assert all(end - start <= budget for start, end in windows)

        cs, _ = moc_chunk(doc, router, experts, max_window_tokens=budget)
        assert all(a.end <= b.start for a, b in zip(cs.chunks, cs.chunks[1:]))
        # no duplicated or missing spans: chunks reassemble the document
        assert "".join(c.text for c in cs.chunks) == doc.text, doc.id
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 1000
    report("7", ok,
           f"1000 docs: windows tile within budget; stitched chunks "
           f"reassemble each document byte-exactly, {elapsed:.1f}s")


# -- criterion 8: directional sanity on a two-topic corpus --------------------

def _pool_sentence(rng: random.Random, letters: str, words: int = 2) -> str:
    return " ".join(
        "".join(rng.choice(letters) for _ in range(rng.randint(3, 5)))
        for _ in range(words)
    ) + "."


def _two_topic_pool_doc(rng: random.Random, per_topic: int = 10,
                        pool_size: int = 3) -> tuple[Document, int]:
    pool_a = [_pool_sentence(rng, "abcdef") for _ in range(pool_size)]
    pool_b = [_pool_sentence(rng, "tuvwxyz") for _ in range(pool_size)]
    sentences = [rng.choice(pool_a) for _ in range(per_topic)]
    sentences += [rng.choice(pool_b) for _ in range(per_topic)]
    return Document(id="d", text=" ".join(sentences)), per_topic


def test_c8_directional_sanity_two_topic_corpus():
    k_threshold = 0.1
    bc_across, bc_within, cs_true, cs_random = [], [], [], []
    for seed in range(20):
        rng = random.Random(9000 + seed)
        doc, per_topic = _two_topic_pool_doc(rng)
        scorer = NGramScorer(order=5, corpus=doc.text)
        spans = [(s.start, s.end) for s in split_sentences(doc)]
        true_cs = ChunkSet.from_spans(doc, spans, method="true")
        chunks = true_cs.chunks

        clarities = [
            boundary_clarity([chunks[i], chunks[i + 1]], scorer)
            for i in range(len(chunks) - 1)
        ]
        boundary_index = per_topic - 1
        bc_across.append(clarities[boundary_index])
        bc_within.append(fmean(
            clarities[:boundary_index] + clarities[boundary_index + 1:]
        ))

        random_cs = chunk_fixed(doc, max(5, round(true_cs.mean_length())))
        cs_true.append(chunk_stickiness(
            build_graph(true_cs, scorer, k=k_threshold, variant="sequence")
        ))
        cs_random.append(chunk_stickiness(
            build_graph(random_cs, scorer, k=k_threshold, variant="sequence")
        ))

    bc_margin = fmean(bc_across) - fmean(bc_within)
    cs_margin = fmean(cs_random) - fmean(cs_true)
    bc_seeds = sum(a > w for a, w in zip(bc_across, bc_within))
    cs_seeds = sum(r > t for t, r in zip(cs_true, cs_random))
    ok = bc_margin > 0 and cs_margin > 0
    report("8", ok,
           f"over 20 seeds: BC(boundary) - BC(within) = {bc_margin:+.4f} "
           f"[{bc_seeds}/20 seeds positive], CS(random) - CS(true) = "
           f"{cs_margin:+.3f} [{cs_seeds}/20 seeds positive], K={k_threshold}")


# -- criterion 9: clamp and identity algebra ----------------------------------

def test_c9_clamp_and_identity_algebra():
    rng = random.Random(2718)
    worst = 0.0
    for i in range(1000):
        ppl_q = math.exp(rng.uniform(0.001, 5))
        ppl_qd = math.exp(rng.uniform(0.001, 5))
        scorer = add_ppl(add_ppl(add_ppl(FixtureScorer(), "q", ppl=ppl_q),
                                 "q", "d", ppl=ppl_qd), "d", ppl=ppl_q)
        bc = boundary_clarity(["d", "q"], scorer)
        # Edge(q, d) is the weight of the two-chunk sequence graph's one
        # possible edge; a pair with no edge weighs 0
        graph = build_graph(["d", "q"], scorer, k=1e-15, variant="sequence")
        edge = next((w for _, _, w in graph.edges), 0.0)
        assert 0.0 <= edge <= 1.0, (ppl_q, ppl_qd, edge)
        if bc <= 1.0:
            worst = max(worst, abs(edge - (1.0 - bc)))
    ok = worst <= 1e-12
    report("9", ok,
           f"1000 random scored pairs: max |Edge - (1 - BC)| = {worst:.2e}, "
           f"Edge always in [0, 1]")
