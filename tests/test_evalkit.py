import random

import pytest

from slisum.evalkit import distance_diagnostics, format_scores, histogram_from_offsets, score

from slisum.lexical import TokenBag, rouge1_f1, rouge2_f1, rougeL_f1

from conftest import oracle_distance, oracle_hausdorff, zipf_texts


def loop_distance(a: TokenBag, b: TokenBag) -> float:
    """1 - ROUGE-1 F1 of two bags, pair by pair."""
    if a.length == 0 and b.length == 0:
        f1 = 1.0
    elif a.length == 0 or b.length == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * a.overlap(b) / (a.length + b.length)
    return 1.0 - f1


def loop_hausdorff(xs: list[TokenBag], ys: list[TokenBag]) -> float:
    forward = max(min(loop_distance(x, y) for y in ys) for x in xs)
    backward = max(min(loop_distance(x, y) for x in xs) for y in ys)
    return max(forward, backward)


def loop_diagnostics(clusters: list[list[str]]) -> dict:
    """The double loops over every member pair and every cluster pair: the
    reference for the postings-indexed `distance_diagnostics`."""
    bags = [[TokenBag.from_text(text) for text in members] for members in clusters]
    same = []
    for members in bags:
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                same.append(loop_distance(members[i], members[j]))
    diagnostics = {
        "mean_same_cluster": sum(same) / len(same) if same else 0.0,
        "max_same_cluster": max(same) if same else 0.0,
        "cluster_count": len(clusters),
    }
    if len(bags) >= 2:
        values = [loop_hausdorff(bags[i], bags[j])
                  for i in range(len(bags)) for j in range(i + 1, len(bags))]
        diagnostics["mean_hausdorff"] = sum(values) / len(values)
    return diagnostics


class TestScore:
    def test_perfect_match(self):
        report = score(["a b c", "d e f"], ["a b c", "d e f"])
        assert all(row["rouge1"] == row["rouge2"] == row["rougeL"] == 1.0
                   for row in report["per_article"])
        assert report["means"] == {"rouge1": 1.0, "rouge2": 1.0, "rougeL": 1.0}

    def test_lcs_fixture_pair(self):
        report = score(["a b c d"], ["a c b d"])
        assert report["per_article"][0]["rougeL"] == pytest.approx(0.75)

    def test_empty_corpus(self):
        report = score([], [])
        assert report["count"] == 0
        assert report["means"] == {}
        assert "(empty corpus)" in format_scores(report)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score(["a"], [])

    def test_means_permutation_invariant(self):
        summaries = ["a b", "c d e", "f"]
        references = ["a x", "c d y", "f"]
        forward = score(summaries, references)
        backward = score(summaries[::-1], references[::-1])
        assert forward["means"] == pytest.approx(backward["means"])

    def test_rows_equal_per_metric_functions(self):
        rng = random.Random(8)
        summaries = ["", "…", "a b"] + [" ".join(zipf_texts(rng, rng.randint(1, 40), vocab_size=50))
                                        for _ in range(12)]
        references = ["", "a b", "…"] + [" ".join(zipf_texts(rng, rng.randint(1, 40), vocab_size=50))
                                         for _ in range(12)]
        report = score(summaries, references)
        for row, summ, ref in zip(report["per_article"], summaries, references):
            assert row["rouge1"] == rouge1_f1(summ, ref)
            assert row["rouge2"] == rouge2_f1(summ, ref)
            assert row["rougeL"] == rougeL_f1(summ, ref)

    def test_unavailable_metrics_reported(self):
        data = score(["a"], ["a"])
        assert data["unavailable"]["factcc"].startswith("unavailable")


class TestPositionHistogram:
    def test_all_in_first_bin(self):
        hist = histogram_from_offsets([1, 5, 900])
        assert hist["percentages"][0] == 100.0
        assert sum(hist["percentages"]) == pytest.approx(100.0, abs=0.01)

    def test_quarter_per_bin(self):
        hist = histogram_from_offsets([100, 1500, 2500, 3500])
        assert hist["percentages"] == [25.0, 25.0, 25.0, 25.0]
        assert hist["bins"] == ["1-1000", "1001-2000", "2001-3000", "3001-"]

    def test_each_bin_closes_on_its_edge(self):
        hist = histogram_from_offsets([0, 1, 1000, 1001, 2000, 2001, 3000, 3001, 10**9])
        assert hist["counts"] == [3, 2, 2, 2]

    def test_empty_flagged(self):
        hist = histogram_from_offsets([])
        assert hist["empty"]
        assert hist["counts"] == [0, 0, 0, 0]


class TestDistanceDiagnostics:
    def test_identical_cluster(self):
        diag = distance_diagnostics([["same text", "same text", "same text"]])
        assert diag["mean_same_cluster"] == 0.0
        assert diag["max_same_cluster"] == 0.0
        assert "mean_hausdorff" not in diag

    def test_two_singleton_clusters(self):
        a, b = "p q r s t u v w x y", "p q r a2 b2 c2 d2 e2 f2 g2"
        expected = oracle_distance(a, b)
        diag = distance_diagnostics([[a], [b]])
        assert diag["mean_hausdorff"] == pytest.approx(expected)
        assert diag["mean_same_cluster"] == 0.0

    def test_matches_brute_force(self):
        clusters = [
            ["e1 a b c d", "e1 a b c x", "e1 a b c y"],
            ["e2 p q r s", "e2 p q r t"],
            ["e3 m n o u v"],
        ]
        diag = distance_diagnostics(clusters)
        same = []
        for members in clusters:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    same.append(oracle_distance(members[i], members[j]))
        assert diag["mean_same_cluster"] == pytest.approx(sum(same) / len(same))
        assert diag["max_same_cluster"] == pytest.approx(max(same))
        pairs = [
            oracle_hausdorff(clusters[i], clusters[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert diag["mean_hausdorff"] == pytest.approx(sum(pairs) / len(pairs))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_diagnostics([])

    @pytest.mark.parametrize("clusters", [
        [["…", "— …"], ["(?!)"], ["a b c"]],
        [["…"], ["a b"]],
        [["a b c", "…", "a b"], ["…", "x y"], ["—"]],
        [["one"], ["two"], ["one two"], ["three"]],
        [["same text", "same text"], ["same text"], ["other words"]],
        [["a b c", "a b d", "…", "a b c"]],
        [["lonely"]],
    ], ids=["empty-bags", "empty-vs-full", "mixed-empty", "singletons", "duplicates",
            "one-cluster", "one-member"])
    def test_equals_loops_on_edge_cases(self, clusters):
        assert distance_diagnostics(clusters) == loop_diagnostics(clusters)

    def test_equals_loops_on_zipf_clusters(self):
        rng = random.Random(17)
        pool = zipf_texts(rng, 120, vocab_size=60) + ["…", "—"]
        for _ in range(40):
            clusters = [rng.choices(pool, k=rng.randint(1, 6)) for _ in range(rng.randint(1, 9))]
            assert distance_diagnostics(clusters) == loop_diagnostics(clusters)
