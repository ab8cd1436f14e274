"""Byte-identity gate: SHA-256 digests of MockEngine run records and of
evaluation reports, pinned.

Performance work on segmentation, clustering, voting, anchoring or
integration must leave every record byte-identical, at any concurrency. A
change that is meant to alter records has to update these digests and say why.
"""
import hashlib
import json
import random

import pytest

from slisum.evalkit import distance_diagnostics, score
from slisum.lexical import tokenize
from slisum.pipeline import PipelineConfig, run
from slisum.record import indented_json
from slisum.text import Article

from conftest import planted_article, random_article, zipf_texts


def _articles() -> dict[str, Article]:
    return {
        "planted": planted_article(),
        "random-short": random_article(random.Random(11), 60),
        "random-long": random_article(random.Random(12), 180),
        "zipf-short": Article.from_text("zipf-short", " ".join(zipf_texts(random.Random(5), 160))),
        "zipf-long": Article.from_text("zipf-long", " ".join(zipf_texts(random.Random(6), 420))),
    }


ARTICLES = _articles()

GOLDEN = {
    "planted": "5b77d28982425451cf7557ae8594382918e3dd7c70c407980ea4e2bcf18e9923",
    "random-short": "98e1f16066f16210c8537dca7d02852009cd0b9d5a32aae9fd77dd47d00243f3",
    "random-long": "7db9c2bc0ef6e445b669820305d86f8afb40172933a42e577b5310a511f5c562",
    "zipf-short": "2cfe80e7a8f5de2be287cddf7d3810f299ea1bbeecf23ffd594d05ed5140dc27",
    "zipf-long": "4573eb960d43d5c5f3f094a58d986bc60c794b5f2d96d757ad98f4464cf42c7f",
}


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_record_digest(name, concurrency):
    article = ARTICLES[name]
    record = run(article, PipelineConfig(concurrency=concurrency))
    assert record.status == "complete"
    digest = hashlib.sha256(record.to_json().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]


def test_both_profiles_covered():
    for name, article in ARTICLES.items():
        if name.endswith("-short"):
            assert article.total_words < 3000
        elif name.endswith("-long"):
            assert article.total_words >= 3000


# Evaluation reports are pinned the same way: a faster ROUGE or diagnostics
# kernel must reproduce every float of the loop versions bit for bit.

def _score_pairs() -> tuple[list[str], list[str]]:
    """Seeded Zipf summary/reference pairs from a few tokens to over 800,
    plus empty and punctuation-only texts."""
    rng = random.Random(21)
    summaries, references = ["", "…", "— …", "Z1 z2."], ["", "z1 z2", "…", ""]
    for sentences in (1, 3, 8, 20, 45, 70, 100):
        summaries.append(" ".join(zipf_texts(rng, sentences, vocab_size=60)))
        references.append(" ".join(zipf_texts(rng, sentences + rng.randint(0, 9), vocab_size=60)))
    return summaries, references


SCORE_GOLDEN = "27b3a13c10c26b08fd2a51000db49021bcb3a807d97f62177ef309e7c3f288fe"

DIAGNOSTICS_GOLDEN = {
    "planted": "ed21ff69da1f6bd09ca7b29040b8fbb4b5e290d5c56c23560419eb6305ce9ab4",
    "random-short": "390277dc975148f89879580437c8f9181d61d632eb8638f949e448b676a57294",
    "random-long": "390277dc975148f89879580437c8f9181d61d632eb8638f949e448b676a57294",
    "zipf-short": "5a849c86638d5a6b2b88639bafbbbd894d6e27cea0c9ca2a8835a366bfee6118",
    "zipf-long": "32c86c2d5c740d588af3051558b758f4a15c2de8830f3f8c5830f524eed2113f",
}


def test_score_digest():
    summaries, references = _score_pairs()
    assert max(len(tokenize(s)) for s in summaries) > 500
    report = score(summaries, references)
    digest = hashlib.sha256(indented_json(report).encode("utf-8")).hexdigest()
    assert digest == SCORE_GOLDEN


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_diagnostics_digest(name):
    record = run(ARTICLES[name], PipelineConfig())
    diag = distance_diagnostics([entry["texts"] for entry in record.clusters])
    digest = hashlib.sha256(json.dumps(diag, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == DIAGNOSTICS_GOLDEN[name]
