import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slisum.cluster import (
    ClusterSet,
    Statement,
    _neighbors,
    dbscan,
    default_min_pts,
    filter_clusters,
)
from slisum.lexical import TokenBag, distance

from conftest import make_statements, oracle_dbscan, text_pools, zipf_texts


def as_partition(cluster_set: ClusterSet):
    clusters = {frozenset(s.generation_seq for s in members) for members in cluster_set.clusters}
    noise = {s.generation_seq for s in cluster_set.noise}
    return clusters, noise


class TestDbscan:
    def test_identical_statements_one_cluster(self):
        stmts = make_statements(["Same text here."] * 3)
        result = dbscan(stmts, eps=0.25, min_pts=2)
        assert len(result.clusters) == 1
        assert len(result.clusters[0]) == 3
        assert result.noise == []

    def test_single_statement_is_noise(self):
        stmts = make_statements(["Alone."])
        result = dbscan(stmts, eps=0.25, min_pts=2)
        assert result.clusters == []
        assert [s.text for s in result.noise] == ["Alone."]

    def test_two_groups_plus_outlier(self):
        group_a = [
            "alpha beta gamma delta one",
            "alpha beta gamma delta two",
            "alpha beta gamma delta three",
            "alpha beta gamma delta four",
        ]
        group_b = [
            "red green blue yellow one",
            "red green blue yellow two",
            "red green blue yellow three",
        ]
        outlier = ["totally unrelated content entirely"]
        stmts = make_statements(group_a + group_b + outlier)
        result = dbscan(stmts, eps=0.25, min_pts=2)
        clusters, noise = as_partition(result)
        assert clusters == {frozenset({1, 2, 3, 4}), frozenset({5, 6, 7})}
        assert noise == {8}
        assert (clusters, noise) == oracle_dbscan(stmts, 0.25, 2)

    def test_invalid_params(self):
        stmts = make_statements(["a"])
        with pytest.raises(ValueError):
            dbscan(stmts, eps=0.0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan(stmts, eps=1.0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan(stmts, eps=0.5, min_pts=0)

    def test_matches_oracle_randomized(self):
        rng = random.Random(99)
        vocab = [f"v{i}" for i in range(8)] + ["…", "—"]
        punctuation_only = ["…", "—", "— …", "(?!)"]
        for _ in range(200):
            n = rng.randint(1, 12)
            texts = [
                rng.choice(punctuation_only) if rng.random() < 0.15
                else " ".join(rng.choices(vocab, k=rng.randint(2, 6)))
                for _ in range(n)
            ]
            stmts = make_statements(texts)
            eps = rng.choice([0.2, 0.25, 0.4, 0.6])
            min_pts = rng.randint(1, 4)
            got = as_partition(dbscan(stmts, eps, min_pts))
            assert got == oracle_dbscan(stmts, eps, min_pts)

    @pytest.mark.parametrize("eps", [0.2, 0.25, 0.6])
    def test_neighbors_match_pairwise_scan(self, eps):
        rng = random.Random(2407)
        texts = zipf_texts(rng, 240, vocab_size=80)
        # repeated and near-repeated statements, as overlapping windows yield
        texts += rng.sample(texts, 40)
        texts += [t.replace(".", " extra.") for t in rng.sample(texts, 20)]
        texts += ["…", "—", "(…) !"]
        rng.shuffle(texts)
        bags = [TokenBag.from_text(t) for t in texts]
        n = len(bags)
        expected = [[j for j in range(n) if distance(bags[i], bags[j]) <= eps] for i in range(n)]
        got = _neighbors(bags, eps)
        assert got == expected
        assert sum(len(row) for row in got) > n  # some pairs besides the diagonal

    @given(text_pools().flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=16)),
           st.one_of(st.sampled_from([0.25, 0.5, 0.6]),  # distances some pairs are at
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    def test_neighbors_equal_pairwise_scan_with_repeats_and_empty_bags(self, texts, eps):
        bags = [TokenBag.from_text(t) for t in texts]
        n = len(bags)
        expected = [[j for j in range(n) if distance(bags[i], bags[j]) <= eps] for i in range(n)]
        assert _neighbors(bags, eps) == expected

    @pytest.mark.parametrize("eps", [0.15, 0.25, 0.4, 0.6])
    def test_duplicated_statements_match_oracle(self, eps):
        """Overlapping windows repeat statements verbatim; dbscan scores each
        distinct text once, and every copy must still get its own label."""
        rng = random.Random(int(eps * 100))
        for _ in range(4):
            texts = zipf_texts(rng, rng.randint(1, 8), vocab_size=12) + ["…"]
            copies = [t for t in texts for _ in range(rng.randint(1, 5))]
            rng.shuffle(copies)  # copies of one text get interleaved seqs
            stmts = make_statements(copies)
            for min_pts in range(1, 6):
                got = as_partition(dbscan(stmts, eps, min_pts))
                assert got == oracle_dbscan(stmts, eps, min_pts)

    def test_deterministic_across_input_order(self):
        texts = ["a b c d", "a b c e", "a b c f", "x y z w", "x y z q"]
        stmts = make_statements(texts)
        shuffled = list(stmts)
        random.Random(1).shuffle(shuffled)
        assert as_partition(dbscan(stmts, 0.3, 2)) == as_partition(dbscan(shuffled, 0.3, 2))


class TestStatement:
    def test_equality_and_hash_ignore_the_bag(self):
        fields = dict(text="A b.", window_ordinal=2, generation_seq=7, position_in_summary=1)
        built = Statement(**fields)
        given_bag = Statement(**fields, token_bag=TokenBag.from_text("unrelated words"))
        assert built == given_bag
        assert hash(built) == hash(given_bag)
        assert len({built, given_bag}) == 1
        assert built != Statement(**{**fields, "generation_seq": 8})


class TestFilterClusters:
    def test_keeps_at_least_min_pts(self):
        stmts = make_statements(["a b"] * 6)
        cs = ClusterSet(
            clusters=[stmts[:3], stmts[3:5], stmts[5:]],
            noise=[],
            min_pts=2,
        )
        retained = filter_clusters(cs)
        assert [len(c) for c in retained] == [3, 2]

    def test_empty(self):
        cs = ClusterSet(clusters=[], noise=[], min_pts=2)
        assert filter_clusters(cs) == []

    def test_cluster_at_k_cap_retained(self):
        stmts = make_statements(["same old text"] * 5)
        cs = ClusterSet(clusters=[stmts], noise=[], min_pts=3)
        assert filter_clusters(cs) == [stmts]

    def test_counts_local_summaries_not_statements(self):
        # Summaries of 2, 2 and 1 statements: seqs 1-2, 3-4 and 5.
        stmts = [
            Statement(text="a b", window_ordinal=1, generation_seq=seq, position_in_summary=pos)
            for seq, pos in [(1, 1), (2, 2), (3, 1), (4, 2), (5, 1)]
        ]
        cs = ClusterSet(clusters=[stmts[:2], stmts[2:]], noise=[], min_pts=2)
        assert filter_clusters(cs) == [stmts[2:]]


class TestDefaultMinPts:
    @pytest.mark.parametrize("k,expected", [(5, 3), (3, 2), (1, 1), (2, 1), (4, 2), (10, 5)])
    def test_half_up_rule(self, k, expected):
        assert default_min_pts(k) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_min_pts(0)
