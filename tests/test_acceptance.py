"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single
"ACCEPTANCE <name>: PASS/FAIL" line so the suite output doubles as a
checklist.
"""
import json
import os
import random
import time

import pytest

from slisum.aggregate import vote
from slisum.cli import EXIT_OK, main
from slisum.cluster import dbscan
from slisum.evalkit import histogram_from_offsets
from slisum.lexical import hausdorff, distance, rouge1_f1, rouge2_f1, rougeL_f1
from slisum.pipeline import PipelineConfig, run
from slisum.text import build_window_plan, k_ratio

from conftest import (
    PLANTED_EVENTS,
    make_statements,
    oracle_dbscan,
    oracle_hausdorff,
    planted_article,
    planted_text,
    random_article,
)


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {name} failed"


def test_generation_count_profiles():
    ok = k_ratio(150, 50) == 3 and k_ratio(750, 150) == 5
    report("generation-count-profiles", ok)


def test_window_coverage_uniform_and_exact():
    rng = random.Random(20240817)
    started = time.monotonic()
    ok = True
    for _ in range(200):
        article = random_article(rng, rng.randint(10, 200))
        for window_size, step_size in ((150, 50), (750, 150)):
            plan = build_window_plan(article, window_size, step_size)
            k = plan.k_ratio
            coverage = [plan.coverage(i) for i in range(1, len(article.sentences) + 1)]
            if any(c < k for c in coverage):
                ok = False
            # sentences at least one window away from either edge see exactly K passes
            words_before = 0
            for sentence, c in zip(article.sentences, coverage):
                words = len(sentence.split())
                words_after = article.total_words - words_before - words
                if words_before >= window_size and words_after >= window_size and c != k:
                    ok = False
                words_before += words
    elapsed = time.monotonic() - started
    report("window-coverage", ok and elapsed < 2.0)


def test_clustering_matches_brute_force():
    rng = random.Random(99)
    vocab = [f"w{i}" for i in range(12)]
    ok = True
    for _ in range(500):
        n = rng.randint(1, 12)
        texts = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            for _ in range(n)
        ]
        statements = make_statements(texts)
        eps = rng.choice([0.2, 0.25, 0.4, 0.6])
        min_pts = rng.randint(1, 4)
        result = dbscan(statements, eps=eps, min_pts=min_pts)
        got_clusters = {
            frozenset(s.generation_seq for s in members)
            for members in result.clusters
        }
        got_noise = {s.generation_seq for s in result.noise}
        want_clusters, want_noise = oracle_dbscan(statements, eps, min_pts)
        if got_clusters != want_clusters or got_noise != want_noise:
            ok = False
    report("clustering-oracle", ok)


# Expected F1 values computed with an independent counting implementation.
ROUGE_FIXTURES = [
    ('the cat sat', 'the cat ran',
     0.666666666667, 0.500000000000, 0.666666666667),
    ('a b c d', 'a c b d',
     1.000000000000, 0.000000000000, 0.750000000000),
    ('overlap in the middle only', 'start overlap in the middle',
     0.800000000000, 0.750000000000, 0.800000000000),
    ('the quick brown fox jumps', 'the quick brown fox jumps',
     1.000000000000, 1.000000000000, 1.000000000000),
    ('completely different words here', 'nothing shared at all anywhere',
     0.000000000000, 0.000000000000, 0.000000000000),
    ('one', 'one',
     1.000000000000, 1.000000000000, 1.000000000000),
    ('one two', 'two one',
     1.000000000000, 0.000000000000, 0.500000000000),
    ('repeat repeat repeat', 'repeat',
     0.500000000000, 0.000000000000, 0.500000000000),
    ('repeat', 'repeat repeat repeat',
     0.500000000000, 0.000000000000, 0.500000000000),
    ('alpha beta gamma delta epsilon', 'alpha gamma epsilon',
     0.750000000000, 0.000000000000, 0.750000000000),
    ('The Cat SAT.', 'the cat sat',
     1.000000000000, 1.000000000000, 1.000000000000),
    ('a a b b c c', 'a b c',
     0.666666666667, 0.571428571429, 0.666666666667),
    ('long sentence with many common words in it', 'short sentence with common words',
     0.615384615385, 0.363636363636, 0.615384615385),
    ('x y z', 'x y z w',
     0.857142857143, 0.800000000000, 0.857142857143),
    ('w x y z', 'x y z',
     0.857142857143, 0.800000000000, 0.857142857143),
    ('sliding windows cover every sentence', 'every sentence gets covered by sliding windows',
     0.666666666667, 0.400000000000, 0.333333333333),
    ('majority voting picks the winner', 'the winner is picked by majority voting',
     0.666666666667, 0.400000000000, 0.333333333333),
    ('facts must appear in source order', 'statements appear in the order of the source',
     0.571428571429, 0.166666666667, 0.428571428571),
    ('hello world', 'world hello world',
     0.800000000000, 0.666666666667, 0.800000000000),
    ('punctuation, matters! here?', 'punctuation matters here',
     1.000000000000, 1.000000000000, 1.000000000000),
]


def test_rouge_frozen_values():
    ok = True
    for a, b, r1, r2, rl in ROUGE_FIXTURES:
        if abs(rouge1_f1(a, b) - r1) > 1e-9:
            ok = False
        if abs(rouge2_f1(a, b) - r2) > 1e-9:
            ok = False
        if abs(rougeL_f1(a, b) - rl) > 1e-9:
            ok = False
    report("rouge-frozen-values", ok)


def test_hausdorff_matches_double_loop():
    rng = random.Random(7)
    vocab = [f"t{i}" for i in range(10)]
    ok = True
    for _ in range(100):
        sets = [
            [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 8))
            ]
            for _ in range(2)
        ]
        if hausdorff(sets[0], sets[1]) != oracle_hausdorff(sets[0], sets[1]):
            ok = False
    report("hausdorff-oracle", ok)


def test_vote_worked_example():
    cluster = make_statements(["d one", "d two", "d three", "d four", "d five"])
    outcome = vote(cluster, [[2], [1, 4], [3, 5]])
    report("vote-worked-example", outcome["winner_seq"] == 5)


def test_planted_events_deterministic_run():
    article = planted_article()
    records = [
        run(article, PipelineConfig(concurrency=jobs))
        for jobs in (1, 4, 1, 4, 1)
    ]
    ok = len({r.to_json() for r in records}) == 1
    record = records[0]
    texts = [s["text"] for s in record.final["statements"]]
    ok = ok and texts == list(PLANTED_EVENTS)
    min_pts = record.config["min_pts"]
    by_id = {c["id"]: c for c in record.clusters}
    for stmt in record.final["statements"]:
        cluster = by_id[stmt["cluster_id"]]
        if cluster["local_summary_count"] < min_pts:
            ok = False
    report("planted-events-deterministic", ok)


def test_event_separation_at_default_eps():
    article = planted_article()
    record = run(article, PipelineConfig(concurrency=1))
    eps = record.config["eps"]
    ok = eps == 0.25
    # every retained cluster is pure: all members copy one planted event
    event_of = {}
    for cluster in record.clusters:
        events = set()
        for text in cluster["texts"]:
            for event in PLANTED_EVENTS:
                if rouge1_f1(text, event) >= 0.8:
                    events.add(event)
        if len(events) != 1:
            ok = False  # merged distinct events or drifted off every event
        event_of[cluster["id"]] = events
    # no planted event is split across two retained clusters
    for event in PLANTED_EVENTS:
        holders = [cid for cid, evs in event_of.items() if event in evs]
        if len(holders) != 1:
            ok = False
    # intra-cluster distances sit well inside eps, inter-cluster well outside
    same = []
    for cluster in record.clusters:
        members = cluster["texts"]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                same.append(distance(members[i], members[j]))
    inter = []
    texts_by_cluster = [c["texts"] for c in record.clusters]
    for i in range(len(texts_by_cluster)):
        for j in range(i + 1, len(texts_by_cluster)):
            inter.append(hausdorff(texts_by_cluster[i], texts_by_cluster[j]))
    mean_same = sum(same) / len(same) if same else 0.0
    mean_inter = sum(inter) / len(inter) if inter else 1.0
    ok = ok and mean_same <= eps < mean_inter
    report("event-separation", ok)


def test_cached_rerun_zero_backend_calls(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "planted", "article": planted_text()}) + "\n")
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = main(["summarize", str(corpus), "-o", str(out1), "--cache-dir", str(cache)])
    capsys.readouterr()
    code2 = main(["summarize", str(corpus), "-o", str(out2), "--cache-dir", str(cache)])
    err = capsys.readouterr().err
    ok = code1 == code2 == EXIT_OK
    ok = ok and "backend_calls=0 " in err

    def tree(root):
        data = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                full = os.path.join(dirpath, name)
                with open(full, "rb") as fh:
                    data[os.path.relpath(full, root)] = fh.read()
        return data

    ok = ok and tree(out1) == tree(out2)
    report("cached-rerun", ok)


def test_position_histogram_sums_to_100():
    quarter = histogram_from_offsets([100, 1500, 2500, 3500])
    ok = quarter["percentages"] == [25.0, 25.0, 25.0, 25.0]
    rng = random.Random(3)
    for _ in range(50):
        offsets = [rng.randint(1, 5000) for _ in range(rng.randint(1, 40))]
        hist = histogram_from_offsets(offsets)
        if abs(sum(hist["percentages"]) - 100.0) > 0.01:
            ok = False
    report("position-histogram", ok)


@pytest.mark.skipif(
    not os.environ.get("SLISUM_API_KEY"),
    reason="live backend smoke test needs SLISUM_API_KEY",
)
def test_live_backend_smoke():
    article = planted_article()
    config = PipelineConfig(
        backend="http",
        model=os.environ.get("SLISUM_MODEL", "gpt-4o-mini"),
    )
    record = run(article, config)
    ok = record.status == "complete" and record.final["connected_text"].strip() != ""
    report("live-backend-smoke", ok)
