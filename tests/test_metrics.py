"""Metrics: hand-computed cases, oracle agreement, and invariants."""

import gc
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bleu_hand,
    cider_hand,
    ref_bleu,
    ref_cider,
    ref_compute_idf,
    ref_evaluate_captions,
    ref_lcs_length,
    ref_rouge_l,
)
from sgcap.metrics import (
    IdfTable,
    _bleu,
    _Caption,
    _consensus,
    _lcs_length,
    _ref_set,
    bleu,
    cider,
    cider_d,
    compute_idf,
    evaluate_captions,
    rouge_l,
)


def random_corpus(rng, n_images, vocab=("a", "b", "c", "d", "e")):
    """Sentences as strings; callers split for the token-list API."""
    def sentence():
        return " ".join(rng.choice(vocab, size=rng.integers(1, 9)))

    cands = [sentence() for _ in range(n_images)]
    refs = [[sentence() for _ in range(rng.integers(1, 4))] for _ in range(n_images)]
    return cands, refs


class TestBleu:
    def test_identical_is_one(self):
        tokens = "a small red cube near a sphere".split()
        scores = bleu([tokens], [[tokens]])
        assert scores == [1.0, 1.0, 1.0, 1.0]

    def test_zero_overlap_is_zero(self):
        scores = bleu(["x y z".split()], [["a b c".split()]])
        assert scores[0] == 0.0

    def test_hand_case_short_candidate(self):
        # p1 = 3/3, candidate length 3 vs reference length 6
        scores = bleu(["the cat sat".split()], [["the cat sat on the mat".split()]])
        assert abs(scores[0] - math.exp(1.0 - 6.0 / 3.0)) < 1e-6

    def test_clipped_counts(self):
        # "the" appears once in the reference, so only one of four matches
        scores = bleu(["the the the the".split()], [["the cat".split()]])
        assert abs(scores[0] - 0.25) < 1e-12

    def test_length_tie_resolves_to_shorter_reference(self):
        # closest-length tie between 2 and 4: picking 2 means no penalty
        cand = "a b c".split()
        refs = [["a b".split(), "a b c d".split()]]
        assert bleu([cand], refs)[0] == 1.0

    def test_rejects_empty_candidate_set(self):
        with pytest.raises(ValueError):
            bleu([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [])

    def test_rejects_candidate_without_references(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [[]])

    def test_empty_token_lists_score_zero(self):
        assert bleu([[]], [[["a"]]]) == [0.0] * 4

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_oracle_on_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        cands, refs = random_corpus(rng, n_images=int(rng.integers(1, 5)))
        got = bleu([c.split() for c in cands], [[r.split() for r in rs] for rs in refs])
        want = bleu_hand(cands, refs)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        cands, refs = random_corpus(rng, 3)
        args = ([c.split() for c in cands], [[r.split() for r in rs] for rs in refs])
        assert bleu(*args) == bleu(*args)


def lcs_reference(a, b):
    """Independent recursive LCS for cross-checking the DP table."""
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


class TestRougeL:
    def test_identical_is_one(self):
        tokens = "two birds on a wire".split()
        assert rouge_l(tokens, [tokens]) == 1.0

    def test_disjoint_is_zero(self):
        assert rouge_l("x y".split(), ["a b c".split()]) == 0.0

    def test_hand_case_transposition(self):
        # LCS("a b c d", "a c b d") = 3, so P = R = 0.75 and F collapses to 0.75
        assert abs(rouge_l("a b c d".split(), ["a c b d".split()]) - 0.75) < 1e-12

    def test_beta_weighting(self):
        # P = 1, R = 0.5: F = 2.44 * 0.5 / (0.5 + 1.44)
        want = 2.44 * 0.5 / 1.94
        assert abs(rouge_l("a b".split(), ["a b c d".split()]) - want) < 1e-12

    def test_max_over_references(self):
        cand = "a b c".split()
        weak = "a x y".split()
        strong = "a b z".split()
        both = rouge_l(cand, [weak, strong])
        assert both == max(rouge_l(cand, [weak]), rouge_l(cand, [strong]))

    def test_empty_candidate_scores_zero(self):
        # `caption` writes "" when greedy decoding emits EOS first
        assert rouge_l([], [["a"], []]) == 0.0

    def test_rejects_no_references(self):
        with pytest.raises(ValueError):
            rouge_l(["a"], [])

    def test_empty_reference_skipped(self):
        assert rouge_l(["a"], [[], ["a"]]) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_lcs_against_recursive_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        vocab = ("a", "b", "c")
        cand = tuple(rng.choice(vocab, size=rng.integers(1, 8)))
        ref = tuple(rng.choice(vocab, size=rng.integers(1, 8)))
        lcs = lcs_reference(cand, ref)
        if lcs == 0:
            assert rouge_l(list(cand), [list(ref)]) == 0.0
            return
        p, r = lcs / len(cand), lcs / len(ref)
        want = 2.44 * p * r / (r + 1.44 * p)
        assert abs(rouge_l(list(cand), [list(ref)]) - want) < 1e-12


class TestIdf:
    def test_ngram_in_every_image_has_zero_weight(self):
        corpus = [[["the", "cat"]], [["the", "dog"]], [["the", "bird"]]]
        table = compute_idf(corpus)
        assert table.weight(("the",)) == 0.0

    def test_ngram_in_one_image_gets_log_n(self):
        corpus = [[["cat"]], [["dog"]], [["bird"]]]
        table = compute_idf(corpus)
        assert abs(table.weight(("cat",)) - math.log(3)) < 1e-12

    def test_hand_df_table(self):
        corpus = [
            [["a", "b"], ["a", "c"]],   # a:1 image, b:1, c:1, (a,b):1, (a,c):1
            [["a", "b"]],               # a, b, (a,b) again
            [["c"]],
        ]
        table = compute_idf(corpus)
        n = 3
        assert abs(table.weight(("a",)) - math.log(n / 2)) < 1e-12
        assert abs(table.weight(("b",)) - math.log(n / 2)) < 1e-12
        assert abs(table.weight(("c",)) - math.log(n / 2)) < 1e-12
        assert abs(table.weight(("a", "b")) - math.log(n / 2)) < 1e-12
        assert abs(table.weight(("a", "c")) - math.log(n / 1)) < 1e-12

    def test_multiplicity_within_image_counts_once(self):
        corpus = [[["a", "a", "a"]], [["b"]]]
        table = compute_idf(corpus)
        assert abs(table.weight(("a",)) - math.log(2)) < 1e-12

    def test_unseen_ngram_falls_back_to_df_one(self):
        table = compute_idf([[["a"]], [["b"]]])
        assert abs(table.weight(("never", "seen")) - math.log(2)) < 1e-12

    def test_weights_never_negative(self):
        rng = np.random.default_rng(0)
        _, refs = random_corpus(rng, 5)
        table = compute_idf([[r.split() for r in rs] for rs in refs])
        assert all(w >= 0.0 for w in table.weights.values())

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            compute_idf([])

    def test_table_rejects_bad_image_count(self):
        with pytest.raises(ValueError):
            IdfTable(weights={}, image_count=0)


class TestCider:
    def two_image_setup(self):
        corpus = [
            ["a red cube on a table".split(), "a crimson block sits".split()],
            ["a blue sphere near a box".split()],
        ]
        return compute_idf(corpus), corpus

    def test_single_image_corpus_forces_zero(self):
        refs = ["a cat sat".split()]
        table = compute_idf([refs])
        assert cider("a cat sat".split(), refs, table) == 0.0
        assert cider_d("a cat sat".split(), refs, table) == 0.0

    def test_zero_overlap_is_zero(self):
        table, corpus = self.two_image_setup()
        assert cider("zebra".split(), corpus[0], table) == 0.0

    def test_fixed_two_image_case_matches_oracle(self):
        table, corpus = self.two_image_setup()
        cand = "a red cube on a table"
        refs_str = [" ".join(r) for r in corpus[0]]
        corpus_str = [[" ".join(r) for r in rs] for rs in corpus]
        got = cider(cand.split(), corpus[0], table)
        want = cider_hand(cand, refs_str, corpus_str, variant="cider")
        assert abs(got - want) < 1e-9
        got_d = cider_d(cand.split(), corpus[0], table)
        want_d = cider_hand(cand, refs_str, corpus_str, variant="d")
        assert abs(got_d - want_d) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("variant", ["cider", "d"])
    def test_matches_oracle_on_random_cases(self, seed, variant):
        rng = np.random.default_rng(1000 + seed)
        cands, refs = random_corpus(rng, n_images=int(rng.integers(2, 5)))
        table = compute_idf([[r.split() for r in rs] for rs in refs])
        got = cider(
            cands[0].split(),
            [r.split() for r in refs[0]],
            table,
            variant="plain" if variant == "cider" else "d",
        )
        want = cider_hand(cands[0], refs[0], refs, variant=variant)
        assert abs(got - want) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_clipped_variant_never_exceeds_plain(self, seed):
        rng = np.random.default_rng(2000 + seed)
        cands, refs = random_corpus(rng, n_images=3)
        table = compute_idf([[r.split() for r in rs] for rs in refs])
        plain = cider(cands[0].split(), [r.split() for r in refs[0]], table)
        clipped = cider_d(cands[0].split(), [r.split() for r in refs[0]], table)
        assert clipped <= plain + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_range(self, seed):
        rng = np.random.default_rng(3000 + seed)
        cands, refs = random_corpus(rng, n_images=3)
        table = compute_idf([[r.split() for r in rs] for rs in refs])
        score = cider(cands[0].split(), [r.split() for r in refs[0]], table)
        assert 0.0 <= score <= 10.0

    def test_rejects_unknown_variant(self):
        table = compute_idf([[["a"]], [["b"]]])
        with pytest.raises(ValueError):
            cider(["a"], [["a"]], table, variant="x")

    def test_rejects_empty_reference_list(self):
        table = compute_idf([[["a"]], [["b"]]])
        with pytest.raises(ValueError):
            cider(["a"], [], table)

    def test_deterministic(self):
        table, corpus = self.two_image_setup()
        cand = "a red cube".split()
        assert cider(cand, corpus[0], table) == cider(cand, corpus[0], table)


class TestIdentityIsMaximal:
    """Exact match must beat every single-token edit of the candidate."""

    def setup_corpus(self):
        corpus = [
            ["orange tiger walks slowly".split()],
            ["green frog jumps high".split()],
            ["white boat floats calmly".split()],
        ]
        return corpus

    def edits(self, tokens, alternatives):
        for i in range(len(tokens)):
            for alt in alternatives:
                if alt != tokens[i]:
                    edited = list(tokens)
                    edited[i] = alt
                    yield edited

    def test_bleu_rouge_cider(self):
        corpus = self.setup_corpus()
        table = compute_idf(corpus)
        target = corpus[0][0]
        alternatives = [t for refs in corpus[1:] for t in refs[0]]
        base_bleu = bleu([target], [corpus[0]])[3]
        base_rouge = rouge_l(target, corpus[0])
        base_cider = cider(target, corpus[0], table)
        for edited in self.edits(target, alternatives):
            assert bleu([edited], [corpus[0]])[3] <= base_bleu
            assert rouge_l(edited, corpus[0]) <= base_rouge
            assert cider(edited, corpus[0], table) <= base_cider


class TestEvaluateCaptions:
    def test_report_keys(self):
        report = evaluate_captions([["a", "b"]], [[["a", "b"]]])
        assert set(report) == {"bleu1", "bleu2", "bleu3", "bleu4", "rougeL", "cider", "ciderD"}

    def test_perfect_candidates(self):
        refs = [["a red cube".split()], ["a blue ball".split()]]
        cands = [refs[0][0], refs[1][0]]
        report = evaluate_captions(cands, refs)
        assert report["bleu1"] == 1.0
        assert report["rougeL"] == 1.0

    def test_default_idf_matches_explicit(self):
        rng = np.random.default_rng(9)
        cands, refs = random_corpus(rng, 3)
        cands = [c.split() for c in cands]
        refs = [[r.split() for r in rs] for rs in refs]
        explicit = evaluate_captions(cands, refs, idf=compute_idf(refs))
        default = evaluate_captions(cands, refs)
        assert explicit == default


WORDS = st.sampled_from(["a", "b", "c", "d"])
# a caption: often empty, often with repeats, sometimes longer than 64 tokens,
# where the bit-parallel LCS runs on multi-word integers
CAPTION = st.just([]) | st.lists(WORDS, max_size=12) | st.lists(WORDS, min_size=65, max_size=90)
# a reference from a vocabulary no candidate uses shares no gram with it
REF = CAPTION | st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=8)
REF_SETS = st.lists(REF, min_size=1, max_size=4)
CORPUS = st.lists(st.tuples(CAPTION, REF_SETS), min_size=1, max_size=5)


class TestAgainstReferenceForms:
    """The shared-count metrics equal the per-metric reference forms bit for bit."""

    @given(corpus=CORPUS, idf_corpus=st.none() | st.lists(REF_SETS, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_evaluate_captions(self, corpus, idf_corpus):
        cands, refs = [c for c, _ in corpus], [r for _, r in corpus]
        if idf_corpus is None:
            assert evaluate_captions(cands, refs) == ref_evaluate_captions(cands, refs)
        else:
            got = evaluate_captions(cands, refs, compute_idf(idf_corpus))
            assert got == ref_evaluate_captions(cands, refs, ref_compute_idf(idf_corpus))

    @given(corpus=CORPUS, n_max=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_each_metric(self, corpus, n_max):
        cands, refs = [c for c, _ in corpus], [r for _, r in corpus]
        assert bleu(cands, refs, n_max) == ref_bleu(cands, refs, n_max)
        weights, n_images = ref_compute_idf(refs, n_max)
        idf = compute_idf(refs, n_max)
        assert idf == IdfTable(weights, n_images)
        for cand, cand_refs in corpus:
            assert rouge_l(cand, cand_refs) == ref_rouge_l(cand, cand_refs)
            for variant in ("plain", "d"):
                want = ref_cider(cand, cand_refs, (weights, n_images), variant, n_max)
                assert cider(cand, cand_refs, idf, variant, n_max) == want
            assert cider_d(cand, cand_refs, idf, n_max) == want

    @given(a=CAPTION | st.lists(WORDS, max_size=200), b=CAPTION | st.lists(WORDS, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_lcs_equals_dynamic_programming_table(self, a, b):
        assert _lcs_length(a, b) == ref_lcs_length(a, b)


def zipf_corpus(seed, n_images=300, n_refs=5, n_words=2000):
    """Captions of 0-16 words drawn Zipfian from ``n_words`` words; every image's first
    reference opens with "every", so that gram has df = N and idf weight 0."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    p = 1.0 / np.arange(1, n_words + 1)
    p /= p.sum()

    def caption():
        return [words[j] for j in rng.choice(n_words, size=rng.integers(0, 17), p=p)]

    cands = [caption() for _ in range(n_images)]
    refs = [[["every", *caption()]] + [caption() for _ in range(n_refs - 1)] for _ in range(n_images)]
    cands[0] = []
    cands[1] = ["never", "seen", "here"]  # shares no gram with any reference
    cands[2] = ["every", *cands[2]]  # the weight-0 gram feeds the sums
    return cands, refs


class TestZipfCorpusExact:
    """A seeded corpus at evaluation scale equals the reference forms bit for bit.

    The Hypothesis cases above draw from 4-6 words, so almost every
    candidate gram is in its references; here most higher-order grams are
    not, and the consensus passes skip them.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        cands, refs = zipf_corpus(seed=16)
        # repeated grams take the counted paths, distinct ones the shortcuts
        assert any(len(set(c)) < len(c) for c in cands)
        assert any(len(set(c)) == len(c) > 1 for c in cands)
        return cands, refs

    def test_idf_and_corpus_scores(self, corpus):
        cands, refs = corpus
        weights, n_images = ref_compute_idf(refs)
        assert weights[("every",)] == 0.0
        assert compute_idf(refs) == IdfTable(weights, n_images)
        assert bleu(cands, refs) == ref_bleu(cands, refs)
        assert evaluate_captions(cands, refs) == ref_evaluate_captions(cands, refs)
        # an idf table from other images: most grams fall back to the unseen weight
        other = zipf_corpus(seed=17, n_images=40)[1]
        got = evaluate_captions(cands, refs, compute_idf(other))
        assert got == ref_evaluate_captions(cands, refs, ref_compute_idf(other))

    def test_each_candidate(self, corpus):
        cands, refs = corpus
        idf = compute_idf(refs)
        ref_idf = ref_compute_idf(refs)
        for cand, cand_refs in zip(cands, refs):
            plain = ref_cider(cand, cand_refs, ref_idf)
            clipped = ref_cider(cand, cand_refs, ref_idf, "d")
            assert cider(cand, cand_refs, idf) == plain
            assert cider(cand, cand_refs, idf, "d") == clipped
            assert cider_d(cand, cand_refs, idf) == clipped
        assert cider(cands[0], refs[0], idf) == cider_d(cands[1], refs[1], idf) == 0.0


class TestStagesAgainstOracles:
    """The idf table, built from set operations on each image's gram set, and
    ROUGE-L, whose candidate masks serve every reference, equal the
    reference forms on the cases each rewrite branches on."""

    # "every" is in every image, "pair" in exactly images 1 and 2, "cat"
    # repeats inside image 0's references, and "dog" is in image 1 alone
    CORPUS = [
        [["every", "cat", "cat"], ["every", "cat", "sat"]],
        [["every", "dog", "pair"], ["pair"]],
        [["every", "bird"], ["pair", "bird", "pair"]],
        [["every"]],
    ]

    @pytest.mark.parametrize("n_max", [1, 2, 4])
    def test_idf(self, n_max):
        weights, n_images = ref_compute_idf(self.CORPUS, n_max)
        table = compute_idf(self.CORPUS, n_max)
        assert table.weights == weights and table.image_count == n_images
        assert table.weights[("every",)] == 0.0
        assert table.weights[("pair",)] == math.log(4 / 2)
        assert table.weights[("cat",)] == table.weights[("dog",)] == math.log(4)

    def test_idf_of_one_image(self):
        corpus = [[["a", "b", "a"], ["b", "a"]]]
        weights, n_images = ref_compute_idf(corpus)
        table = compute_idf(corpus)
        assert table.weights == weights and table.image_count == n_images == 1
        assert set(table.weights.values()) == {0.0}

    def test_rouge_l(self):
        cand = "a b a c a b b".split()  # every token but "c" repeats
        refs = [["b", "a", "b", "a"], [], ["a", "a", "c"], ["c", "b", "a", "b", "a", "a", "b"], ["z"]]
        assert rouge_l(cand, refs) == ref_rouge_l(cand, refs)
        for ref in refs:
            assert rouge_l(cand, [ref]) == ref_rouge_l(cand, [ref])
            assert _lcs_length(cand, ref) == ref_lcs_length(cand, ref)


class TestRejectsNgramOrderBelowOne:
    """Every metric that takes ``n_max`` rejects an order below 1 by name."""

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_bleu(self, n_max):
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            bleu([["a"]], [[["a"]]], n_max)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_compute_idf(self, n_max):
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            compute_idf([[["a"]], [["b"]]], n_max)

    @pytest.mark.parametrize("n_max", [0, -1])
    @pytest.mark.parametrize("variant", ["plain", "d"])
    def test_cider(self, n_max, variant):
        table = compute_idf([[["a"]], [["b"]]])
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            cider(["a"], [["a"]], table, variant, n_max)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_cider_d(self, n_max):
        table = compute_idf([[["a"]], [["b"]]])
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            cider_d(["a"], [["a"]], table, n_max)


class TestCollectorState:
    """Bulk scoring pauses the cyclic collector and leaves its state as found."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    CALLS = {
        "evaluate": lambda: evaluate_captions([["a", "b"]], [[["a", "b"], ["b"]]]),
        "evaluate-idf": lambda: evaluate_captions([["a"]], [[["a"]]], compute_idf([[["b"]]])),
        "idf": lambda: compute_idf([[["a", "b"]], [["b"]]]),
    }
    FAILING = {
        "evaluate-count-mismatch": lambda: evaluate_captions([["a"], ["b"]], [[["a"]]]),
        "evaluate-no-references": lambda: evaluate_captions([["a"]], [[]]),
        "idf-empty-corpus": lambda: compute_idf([]),
    }

    @pytest.mark.parametrize("call", list(CALLS), ids=list(CALLS))
    def test_state_kept(self, collector, call):
        self.CALLS[call]()
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("call", list(FAILING), ids=list(FAILING))
    def test_state_kept_when_raising(self, collector, call):
        with pytest.raises(ValueError):
            self.FAILING[call]()
        assert gc.isenabled() is collector

    def test_paused_while_scoring(self, collector, monkeypatch):
        import sgcap.metrics as metrics

        seen = []
        real = metrics._bleu
        monkeypatch.setattr(metrics, "_bleu", lambda *a: seen.append(gc.isenabled()) or real(*a))
        evaluate_captions([["a"]], [[["a"]]])
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_no_collection_during_a_call(self, collector):
        # 100 images of 5 twelve-word references: 21,000 reference grams
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(300)]

        def caption():
            return [words[j] for j in rng.integers(0, len(words), size=12)]

        cands = [caption() for _ in range(100)]
        refs = [[caption() for _ in range(5)] for _ in range(100)]
        passes = []  # (generation, objects in the young generation) per pass

        def count(phase, info):
            if phase == "start":
                passes.append((info["generation"], len(gc.get_objects(0))))

        gc.collect()
        gc.callbacks.append(count)
        try:
            # gc.collect() empties CPython's tuple free lists; the first call
            # refills them, and each tuple parked there stays in the young
            # generation's count, so that call may end in one pass, over
            # the few objects still alive
            evaluate_captions(cands, refs)
            first = list(passes)
            passes.clear()
            evaluate_captions(cands, refs)
            second = list(passes)
        finally:
            gc.callbacks.remove(count)
        # the call's tables are freed before the collector resumes, so no
        # pass runs over them
        assert all(young < 1000 for _, young in first)
        assert second == []
        assert gc.isenabled() is collector


class TestLazyReferenceValues:
    """A shared gram's reference value comes from its count and idf weight on
    demand; each case below pins one branch of that against the reference forms."""

    # image 0: "a b a b c" repeats its unigrams and bigrams but no trigram,
    # and appears twice; every image holds "every", so its weight is 0.0;
    # image 2's candidate shares no gram with its references; image 3's is empty
    CANDS = ["a b a b a c every", "every x y x", "q r s", "", "c b a every d"]
    REFS = [
        ["a b a b c", "a b c d every", "a b a b c"],
        ["every x y z", "every y x"],
        ["every a b", "every c"],
        ["every a", "b every"],
        ["every d c b a", "a b every"],
    ]

    @pytest.fixture
    def corpus(self):
        cands = [c.split() for c in self.CANDS]
        refs = [[r.split() for r in rs] for rs in self.REFS]
        return cands, refs

    def check(self, cands, refs, idf, ref_idf):
        for cand, cand_refs in zip(cands, refs):
            for variant in ("plain", "d"):
                assert cider(cand, cand_refs, idf, variant) == ref_cider(cand, cand_refs, ref_idf, variant)
            assert cider_d(cand, cand_refs, idf) == ref_cider(cand, cand_refs, ref_idf, "d")
        assert evaluate_captions(cands, refs, idf) == ref_evaluate_captions(cands, refs, ref_idf)

    def test_corpus_idf(self, corpus):
        cands, refs = corpus
        idf, ref_idf = compute_idf(refs), ref_compute_idf(refs)
        assert idf.weight(("every",)) == 0.0
        assert evaluate_captions(cands, refs) == ref_evaluate_captions(cands, refs)
        self.check(cands, refs, idf, ref_idf)
        assert cider(cands[2], refs[2], idf) == cider_d(cands[3], refs[3], idf) == 0.0
        assert cider(cands[0], refs[0], idf) > 0.0

    def test_idf_from_other_images(self, corpus):
        # most grams here are unseen in the idf corpus and weigh log(N)
        cands, refs = corpus
        other = [[r.split() for r in rs] for rs in (["a b", "x y"], ["every q"], ["c d"])]
        idf, ref_idf = compute_idf(other), ref_compute_idf(other)
        assert ("a", "b", "a") not in idf.weights
        self.check(cands, refs, idf, ref_idf)

    def test_many_shared_grams_sum_in_candidate_order(self):
        # dozens of shared grams, each with its own weight, so a sum taken in
        # any other order than the candidate's is very likely to round differently
        rng = np.random.default_rng(18)
        words = [f"w{i}" for i in range(40)]
        refs = [[[words[j] for j in rng.integers(0, 40, size=24)] for _ in range(5)] for _ in range(30)]
        cands = [[words[j] for j in rng.integers(0, 40, size=20)] for _ in range(30)]
        idf, ref_idf = compute_idf(refs), ref_compute_idf(refs)
        self.check(cands, refs, idf, ref_idf)


class TestOnDemandReferenceTables:
    """A reference's count table of an order is built only when a score reads
    it, and a norm only for an order that shares a gram; each case pins one
    such branch and compares every score with the reference forms."""

    # every image holds the reference "every day", so "every", "day" and
    # "every day" weigh 0 and that reference's order-1 and order-2 norms are 0
    CANDS = [
        "a b a b",  # repeats "a b": BLEU's clipping builds the order-2 tables
        "every day a",  # shares only weight-0 grams with "every day"
        "every day every",  # its unigrams all weigh 0, so its order-1 norm is 0
        "a b c d",  # shares "a b" with the first reference only
    ]
    REFS = [
        ["a b a b c", "every day", "b a"],
        ["every day", "a q"],
        ["every day", "every b"],
        ["a b x", "every day", "c y", "d z"],
    ]

    @staticmethod
    def split(cands, refs):
        return [c.split() for c in cands], [[r.split() for r in rs] for rs in refs]

    @staticmethod
    def check(cands, refs, n_max):
        assert bleu(cands, refs, n_max) == ref_bleu(cands, refs, n_max)
        weights, n_images = ref_compute_idf(refs, n_max)
        idf = compute_idf(refs, n_max)
        assert idf == IdfTable(weights, n_images)
        for cand, cand_refs in zip(cands, refs):
            for variant in ("plain", "d"):
                want = ref_cider(cand, cand_refs, (weights, n_images), variant, n_max)
                assert cider(cand, cand_refs, idf, variant, n_max) == want
            assert cider_d(cand, cand_refs, idf, n_max) == want
        if n_max == 4:
            assert evaluate_captions(cands, refs) == ref_evaluate_captions(cands, refs)
            assert evaluate_captions(cands, refs, idf) == ref_evaluate_captions(cands, refs, (weights, n_images))

    @pytest.mark.parametrize("n_max", [1, 4, 5])
    def test_against_reference_forms(self, n_max):
        self.check(*self.split(self.CANDS, self.REFS), n_max)

    @pytest.mark.parametrize("n_max", [1, 5])
    def test_other_corpora_at_orders_1_and_5(self, n_max):
        self.check(*self.split(TestLazyReferenceValues.CANDS, TestLazyReferenceValues.REFS), n_max)
        cands, refs = zipf_corpus(seed=19, n_images=60)
        self.check(cands, refs, n_max)

    def test_bleu_clipping_builds_the_table_consensus_reads(self):
        cands, refs = self.split(self.CANDS, self.REFS)
        cand, ref_set = _Caption(cands[0], 4), _ref_set(refs[0], 4)
        _bleu([cand], [ref_set], 4)
        # unigrams and "a b" repeat in the candidate; its trigrams and 4-gram do not
        assert [[t is not None for t in r.tables] for r in ref_set.refs] == [[True, True, False, False]] * 3
        idf = compute_idf(refs)
        want = tuple(ref_cider(cands[0], refs[0], ref_compute_idf(refs), v) for v in ("plain", "d"))
        assert _consensus(cand, ref_set, idf) == want

    def test_tables_only_for_orders_that_share_a_gram(self):
        cands, refs = self.split(self.CANDS, self.REFS)
        idf = compute_idf(refs)
        cand, ref_set = _Caption(cands[3], 4), _ref_set(refs[3], 4)
        _consensus(cand, ref_set, idf)
        # "a b" is the one shared bigram; no trigram is shared
        assert [[t is not None for t in r.tables] for r in ref_set.refs] == [[True, True, False, False]] * 4
