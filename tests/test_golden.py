"""Byte-identity gate: SHA-256 digests of MockEngine run records, pinned.

Performance work on segmentation, clustering, voting, anchoring or
integration must leave every record byte-identical, at any concurrency. A
change that is meant to alter records has to update these digests and say why.
"""
import hashlib
import random

import pytest

from slisum.pipeline import PipelineConfig, run
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
