import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slisum.aggregate import _best_matches, arrange, integrate, vote
from slisum.cluster import Statement
from slisum.engine import MockEngine
from slisum.lexical import TokenBag
from slisum.text import Article

from conftest import make_statements, oracle_rouge1, zipf_texts


def five_statements():
    # D1..D5 about one event, generated sequentially
    return make_statements([
        "the prize was won for theory one",
        "the prize was won for theory two",
        "the prize was won for theory three",
        "the prize was won for theory two again",
        "the prize was won for theory three more",
    ])


class TestVote:
    def test_paper_worked_example(self):
        cluster = five_statements()
        outcome = vote(cluster, [[2], [1, 4], [3, 5]])
        assert outcome["winner_seq"] == 5
        assert outcome["winner_category"] == [3, 5]
        assert outcome["rationale"] == "cross-category-tie"

    def test_single_category_latest_wins(self):
        cluster = make_statements(["a", "b"])
        outcome = vote(cluster, [[1, 2]])
        assert outcome["winner_seq"] == 2
        assert outcome["rationale"] == "within-category-latest"

    def test_cross_category_tie(self):
        cluster = make_statements(["d1", "d2", "d3", "d4"])
        outcome = vote(cluster, [[1, 2], [3, 4]])
        assert outcome["winner_category"] == [3, 4]
        assert outcome["winner_seq"] == 4
        assert outcome["rationale"] == "cross-category-tie"

    def test_unique_majority(self):
        cluster = make_statements(["d1", "d2", "d3"])
        outcome = vote(cluster, [[1, 2], [3]])
        assert outcome["winner_category"] == [1, 2]
        assert outcome["winner_seq"] == 2

    def test_invalid_partition_rejected(self):
        cluster = make_statements(["a", "b"])
        with pytest.raises(ValueError):
            vote(cluster, [[1]])
        with pytest.raises(ValueError):
            vote(cluster, [[1, 1], [2]])
        with pytest.raises(ValueError):
            vote(cluster, [[1, 2, 3]])

    def test_invariant_under_category_permutation(self):
        cluster = five_statements()
        a = vote(cluster, [[2], [1, 4], [3, 5]])
        b = vote(cluster, [[3, 5], [2], [1, 4]])
        assert a["winner_seq"] == b["winner_seq"]

    def test_duplicating_winner_keeps_category(self):
        cluster = make_statements(["d1", "d2", "d3", "d4", "d4 copy"])
        base = vote(cluster[:4], [[1], [2, 3, 4]])
        grown = vote(cluster, [[1], [2, 3, 4, 5]])
        assert base["winner_category"] == [2, 3, 4]
        assert grown["winner_category"] == [2, 3, 4, 5]
        assert grown["winner_seq"] == 5

    def test_one_vote_per_local_summary(self):
        """A category's support is the number of distinct local summaries
        its statements come from: one summary stating a version three times
        loses to two summaries stating another once each."""
        once = make_statements(["1990", "1990"])
        thrice = [Statement(text="1991", window_ordinal=1, generation_seq=3 + i,
                            position_in_summary=1 + i) for i in range(3)]
        outcome = vote(once + thrice, [[1, 2], [3, 4, 5]])
        assert outcome["winner_category"] == [1, 2]
        assert outcome["rationale"] == "within-category-latest"

    @given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1,
                    max_size=5), st.data())
    def test_duplicate_in_its_own_summary_keeps_the_winning_category(self, summaries, data):
        """Each local summary is a list of category labels. Copying one
        statement next to itself, in its own summary and category, never
        changes the label of the winning category."""
        def winning_label(summaries):
            cluster, labels = [], []
            for summary in summaries:
                for pos, label in enumerate(summary, 1):
                    cluster.append(Statement(text=f"c{label}", window_ordinal=1,
                                             generation_seq=len(cluster) + 1,
                                             position_in_summary=pos))
                    labels.append(label)
            categories: dict[int, list[int]] = {}
            for i, label in enumerate(labels, 1):
                categories.setdefault(label, []).append(i)
            return labels[vote(cluster, list(categories.values()))["winner_seq"] - 1]

        which = data.draw(st.integers(0, len(summaries) - 1), label="summary")
        pos = data.draw(st.integers(0, len(summaries[which]) - 1), label="statement")
        grown = [list(summary) for summary in summaries]
        grown[which].insert(pos, grown[which][pos])
        assert winning_label(grown) == winning_label(summaries)


ARTICLE = Article.from_text(
    "art",
    "Cats chase mice daily. Dogs guard houses loyally. Birds sing at dawn. "
    "Fish swim in rivers. Snakes shed their skin.",
)


def anchor(statement: Statement, article: Article) -> int:
    """The anchor `arrange` gives a single statement."""
    return arrange([statement], article)[0][1]


class TestAnchor:
    def test_verbatim_match(self):
        stmt = make_statements(["Birds sing at dawn."])[0]
        assert anchor(stmt, ARTICLE) == 3

    def test_best_overlap(self):
        stmt = make_statements(["Dogs guard houses."])[0]
        assert anchor(stmt, ARTICLE) == 2
        # brute-force scan agrees
        from slisum.lexical import rouge1_f1

        scores = [rouge1_f1(stmt.text, s) for s in ARTICLE.sentences]
        assert scores.index(max(scores)) + 1 == 2

    def test_zero_overlap_ties_to_first(self):
        stmt = make_statements(["completely unrelated words entirely"])[0]
        assert anchor(stmt, ARTICLE) == 1


class TestArrange:
    def test_sorts_by_anchor(self):
        stmts = make_statements(["Fish swim in rivers.", "Dogs guard houses loyally."])
        arranged = arrange(stmts, ARTICLE)
        assert [a for _, a in arranged] == [2, 4]
        assert arranged[0][0].text == "Dogs guard houses loyally."

    def test_single_passthrough(self):
        stmts = make_statements(["Birds sing at dawn."])
        arranged = arrange(stmts, ARTICLE)
        assert [(s.text, a) for s, a in arranged] == [("Birds sing at dawn.", 3)]

    def test_equal_anchors_keep_generation_order(self):
        stmts = make_statements(["Birds sing at dawn.", "Birds sing at dawn."])
        arranged = arrange(stmts, ARTICLE)
        assert [s.generation_seq for s, _ in arranged] == [1, 2]

    def test_is_a_permutation(self):
        stmts = make_statements([
            "Snakes shed their skin.", "Cats chase mice daily.", "Fish swim in rivers.",
        ])
        arranged = arrange(stmts, ARTICLE)
        assert sorted(s.generation_seq for s, _ in arranged) == [1, 2, 3]


def brute_force_anchor(text: str, article: Article) -> int:
    scores = [oracle_rouge1(text, sent) for sent in article.sentences]
    return scores.index(max(scores)) + 1


class TestArrangeMatchesBruteForce:
    EDGE_ARTICLE = Article.from_text(
        "edges",
        "Cats chase mice daily. (…) ! Dogs guard houses. Cats chase mice daily. "
        "Birds sing loud. Cats chase rats.",
    )

    @pytest.mark.parametrize("text,expected", [
        ("", 2),  # empty statement: the first sentence that tokenizes to nothing
        ("— …", 2),
        ("Cats chase mice daily.", 1),  # verbatim copies at 1 and 4 tie
        ("zebra quokka", 1),  # zero overlap
        ("dogs birds", 3),  # 0.4 against sentences 3 and 5
        ("cats rats", 6),
    ])
    def test_edge_cases(self, text, expected):
        stmt = make_statements([text])[0]
        assert brute_force_anchor(text, self.EDGE_ARTICLE) == expected
        assert anchor(stmt, self.EDGE_ARTICLE) == expected

    def test_empty_statement_without_empty_sentence(self):
        assert anchor(make_statements([""])[0], ARTICLE) == 1

    def test_randomized(self):
        rng = random.Random(5)
        for _ in range(30):
            sentences = zipf_texts(rng, rng.randint(1, 40), vocab_size=50)
            sentences += rng.sample(sentences, min(3, len(sentences)))
            if rng.random() < 0.3:
                sentences.insert(rng.randrange(len(sentences)), "(…) !")
            rng.shuffle(sentences)
            article = Article.from_text("zipf", " ".join(sentences))
            texts = zipf_texts(rng, 10, vocab_size=50) + rng.sample(sentences, 2) + ["", "…"]
            arranged = arrange(make_statements(texts), article)
            assert {s.text: a for s, a in arranged} == {
                t: brute_force_anchor(t, article) for t in texts
            }


# Word r of the vocabulary is drawn with weight 1/r, as in Zipf's law; each
# occurrence may be upper-cased or carry punctuation, which tokenize away.
ZIPF_WORDS = [f"w{r}" for r in range(1, 13) for _ in range(60 // r)]
variant_words = st.tuples(st.sampled_from(ZIPF_WORDS), st.sampled_from(["", ",", ".", "!", "…"]),
                          st.booleans()).map(lambda w: (w[0].upper() if w[2] else w[0]) + w[1])
variant_texts = st.one_of(
    st.lists(variant_words, max_size=10).map(" ".join),
    st.sampled_from(["", "…", "— !", "(?!)"]),
)


def brute_force_best(text: str, targets: list[str]) -> int:
    """Position of the highest oracle ROUGE-1 F1 target, the smallest on ties."""
    scores = [oracle_rouge1(text, t) for t in targets]
    return scores.index(max(scores))


class TestBestMatches:
    """`_best_matches` stops scoring at a bound; it must still pick what a full
    scan picks."""

    @given(st.data(), st.lists(variant_texts, min_size=1, max_size=14))
    def test_equals_brute_force(self, data, targets):
        # Statements include verbatim copies of targets and variants of them
        # that tokenize identically.
        copies = st.sampled_from(targets).flatmap(
            lambda t: st.sampled_from([t, t.upper(), f"«{t}»", t + " !"]))
        texts = data.draw(st.lists(st.one_of(variant_texts, copies), min_size=1, max_size=8))
        best = _best_matches([TokenBag.from_text(t) for t in texts],
                             [TokenBag.from_text(t) for t in targets])
        assert best == [brute_force_best(t, targets) for t in texts]

    def test_tie_with_a_target_sharing_only_the_most_frequent_token(self):
        """The target "Rat cat." is met through the rare token and scores 0.8;
        the bound on targets not met yet is then 2 * 2 / (3 + 2) = 0.8 as well.
        "Cat cat.", at the smaller position, shares only "cat" and also scores
        0.8, so the walk must go on while the bound equals the best score."""
        targets = ["Cat cat.", "Rat cat."]
        assert [oracle_rouge1("rat cat cat", t) for t in targets] == [0.8, 0.8]
        assert brute_force_best("rat cat cat", targets) == 0
        bag = TokenBag.from_text("rat cat cat")
        assert _best_matches([bag], [TokenBag.from_text(t) for t in targets]) == [0]
        article = Article.from_text("tie", " ".join(targets))
        assert anchor(make_statements(["rat cat cat"])[0], article) == 1


class RewritingEngine(MockEngine):
    """Backend that rewrites statements beyond recognition."""

    def connect(self, statements, params=None):
        return "Entirely new unrelated text with nothing preserved."


class ReorderingEngine(MockEngine):
    def connect(self, statements, params=None):
        return " ".join(reversed(statements))


class TestIntegrate:
    def test_mock_passthrough(self):
        stmts = make_statements(["First fact stated.", "Second fact stated."])
        text, fallback = integrate(stmts, MockEngine().connect)
        assert text == "First fact stated. Second fact stated."
        assert fallback is False

    def test_single_statement_no_engine_call(self):
        class Exploding(MockEngine):
            def connect(self, statements, params=None):
                raise AssertionError("must not be called")

        stmts = make_statements(["Only statement."])
        text, fallback = integrate(stmts, Exploding().connect)
        assert (text, fallback) == ("Only statement.", False)

    def test_rewrite_triggers_fallback(self):
        stmts = make_statements(["Alpha fact one here.", "Beta fact two there."])
        text, fallback = integrate(stmts, RewritingEngine().connect)
        assert fallback is True
        assert text == "Alpha fact one here. Beta fact two there."

    def test_reorder_triggers_fallback(self):
        stmts = make_statements(["Alpha fact one here.", "Beta fact two there."])
        text, fallback = integrate(stmts, ReorderingEngine().connect)
        assert fallback is True

    def test_engine_error_falls_back(self):
        from slisum.engine import EngineError

        class Failing(MockEngine):
            def connect(self, statements, params=None):
                raise EngineError("down")

        stmts = make_statements(["One fact.", "Two facts."])
        text, fallback = integrate(stmts, Failing().connect)
        assert fallback is True
        assert text == "One fact. Two facts."

    def test_programming_error_propagates(self):
        class Broken(MockEngine):
            def connect(self, statements, params=None):
                raise TypeError("bug")

        stmts = make_statements(["One fact.", "Two facts."])
        with pytest.raises(TypeError):
            integrate(stmts, Broken().connect)
