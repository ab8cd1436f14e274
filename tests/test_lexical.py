import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slisum.lexical import (
    TokenBag,
    _lcs_length,
    distance,
    hausdorff,
    rouge1_f1,
    rouge1_recall,
    rouge2_f1,
    rougeL_f1,
    set_distances,
    tokenize,
)

from conftest import (
    oracle_distance,
    oracle_hausdorff,
    oracle_rouge1,
    oracle_rouge2,
    oracle_rougeL,
    zipf_texts,
)

words = st.text(alphabet="abcdefg", min_size=1, max_size=4)
texts = st.lists(words, min_size=0, max_size=10).map(" ".join)


class TestTokenize:
    def test_casefold_and_punctuation(self):
        assert tokenize("The CAT, sat!") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...  !!") == []

    def test_bag_length(self):
        bag = TokenBag.from_text("a b a c")
        assert bag.length == 4
        assert dict(bag.counts)["a"] == 2


class TestRouge1:
    def test_identity(self):
        assert rouge1_f1("some words here", "some words here") == 1.0

    def test_disjoint(self):
        assert rouge1_f1("aa bb", "cc dd") == 0.0

    def test_manual_overlap(self):
        assert rouge1_f1("the cat sat", "the cat ran") == pytest.approx(2 * 2 / 6)

    def test_empty_conventions(self):
        assert rouge1_f1("", "") == 1.0
        assert rouge1_f1("word", "") == 0.0
        assert rouge1_f1("", "word") == 0.0

    def test_clipping(self):
        # "a" appears 3x vs 1x: clipped overlap is 1
        assert rouge1_f1("a a a", "a") == pytest.approx(2 * 1 / 4)

    def test_recall(self):
        assert rouge1_recall("a b", "a b c d") == 1.0
        assert rouge1_recall("a b c d", "a b") == 0.5
        assert rouge1_recall("", "x") == 1.0

    @given(texts, texts)
    @settings(max_examples=200)
    def test_matches_oracle(self, a, b):
        assert rouge1_f1(a, b) == pytest.approx(oracle_rouge1(a, b), abs=1e-12)


class TestDistance:
    def test_identity_zero(self):
        assert distance("same thing", "same thing") == 0.0

    def test_disjoint_one(self):
        assert distance("aa bb", "cc dd") == 1.0

    def test_manual(self):
        assert distance("the cat sat", "the cat ran") == pytest.approx(1 / 3)

    @given(texts, texts)
    @settings(max_examples=200)
    def test_symmetry_and_range(self, a, b):
        d = distance(a, b)
        assert d == distance(b, a)
        assert 0.0 <= d <= 1.0

    @given(texts)
    def test_self_distance_zero(self, a):
        assert distance(a, a) == 0.0


class TestRouge2AndL:
    def test_identity(self):
        assert rouge2_f1("a b c", "a b c") == 1.0
        assert rougeL_f1("a b c", "a b c") == 1.0

    def test_disjoint(self):
        assert rouge2_f1("a b c", "x y z") == 0.0
        assert rougeL_f1("a b c", "x y z") == 0.0

    def test_lcs_manual(self):
        assert rougeL_f1("a b c d", "a c b d") == pytest.approx(0.75)

    @given(texts, texts)
    @settings(max_examples=100)
    def test_match_oracles(self, a, b):
        assert rouge2_f1(a, b) == pytest.approx(oracle_rouge2(a, b), abs=1e-12)
        assert rougeL_f1(a, b) == pytest.approx(oracle_rougeL(a, b), abs=1e-12)


class TestHausdorff:
    def test_identical_sets(self):
        xs = ["one two", "three four"]
        assert hausdorff(xs, list(xs)) == 0.0

    def test_singletons(self):
        assert hausdorff(["the cat sat"], ["the cat ran"]) == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff([], ["x"])
        with pytest.raises(ValueError):
            hausdorff(["x"], [])

    def test_symmetry(self):
        xs = ["a b c", "d e f"]
        ys = ["a b x", "q r s"]
        assert hausdorff(xs, ys) == hausdorff(ys, xs)

    def test_matches_brute_force(self):
        rng = random.Random(42)
        vocab = [f"t{i}" for i in range(12)]
        for _ in range(50):
            xs = [" ".join(rng.choices(vocab, k=rng.randint(1, 6))) for _ in range(rng.randint(1, 5))]
            ys = [" ".join(rng.choices(vocab, k=rng.randint(1, 6))) for _ in range(rng.randint(1, 5))]
            assert hausdorff(xs, ys) == oracle_hausdorff(xs, ys)


class TestEpsilonSeparation:
    """The default eps (0.25) admits same-event pairs and excludes cross-event
    pairs at the similarity levels the clustering relies on."""

    def test_same_event_within_eps(self):
        base = "n1 n2 n3 n4 n5 n6 n7 n8 n9 n10"
        variant = "n1 n2 n3 n4 n5 n6 n7 n8 n9 other"
        assert rouge1_f1(base, variant) >= 0.8
        assert distance(base, variant) <= 0.2 <= 0.25

    def test_cross_event_outside_eps(self):
        a = "n1 n2 n3 n4 m1 m2 m3 m4"
        b = "n1 n2 n3 n4 z1 z2 z3 z4"
        assert rouge1_f1(a, b) <= 0.5
        assert distance(a, b) >= 0.5 > 0.25


def dp_lcs_length(a: list[str], b: list[str]) -> int:
    """The O(|a|*|b|) dynamic-programming loop, the reference for the
    bit-parallel `_lcs_length`."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def zipf_tokens(rng: random.Random, n: int, vocab_size: int) -> list[str]:
    """n tokens over a Zipf-weighted vocabulary: heavy repeats of a few tokens."""
    weights = [1.0 / rank for rank in range(1, vocab_size + 1)]
    return rng.choices([f"z{i}" for i in range(vocab_size)], weights=weights, k=n)


class TestLcsLength:
    @given(st.lists(st.sampled_from("abcd"), max_size=90),
           st.lists(st.sampled_from("abcde"), max_size=90))
    @settings(max_examples=300)
    def test_matches_dp(self, a, b):
        assert _lcs_length(a, b) == dp_lcs_length(a, b)

    @pytest.mark.parametrize("la, lb", [
        (0, 0), (0, 70), (70, 0), (1, 1), (63, 64), (64, 64), (65, 130), (200, 3), (1100, 1300),
    ])
    def test_zipf_lengths_match_dp(self, la, lb):
        rng = random.Random(la * 10_007 + lb)
        for vocab_size in (3, 40, 400):
            a, b = zipf_tokens(rng, la, vocab_size), zipf_tokens(rng, lb, vocab_size)
            assert _lcs_length(a, b) == dp_lcs_length(a, b)
            assert _lcs_length(a, a) == len(a)

    def test_rouge_l_equals_oracle_on_zipf_texts(self):
        rng = random.Random(3)
        for _ in range(25):
            a = " ".join(zipf_texts(rng, rng.randint(0, 14), vocab_size=30))
            b = " ".join(zipf_texts(rng, rng.randint(0, 14), vocab_size=30))
            assert len(tokenize(a)) + len(tokenize(b)) <= 400
            assert rougeL_f1(a, b) == oracle_rougeL(a, b)
            assert rouge2_f1(a, b) == oracle_rouge2(a, b)


class TestSetDistances:
    @pytest.mark.parametrize("xs, ys", [
        (["…", "a b"], ["—", "c"]),
        (["…"], ["a b"]),
        (["(?!)", "— …"], ["…"]),
        (["a b", "a b"], ["a b"]),
        (["a b c"], ["d e", "…"]),
    ])
    def test_hausdorff_empty_bags_and_duplicates(self, xs, ys):
        assert hausdorff(xs, ys) == oracle_hausdorff(xs, ys)
        assert hausdorff(ys, xs) == oracle_hausdorff(xs, ys)

    def test_same_and_between_orders(self):
        groups = [["a b", "a c", "x"], ["…"], ["a b", "—"]]
        same, between = set_distances([[TokenBag.from_text(t) for t in g] for g in groups])
        assert same == [oracle_distance(g[i], g[j])
                        for g in groups for i in range(len(g)) for j in range(i + 1, len(g))]
        assert between == [oracle_hausdorff(groups[g], groups[h])
                           for g in range(3) for h in range(g + 1, 3)]
