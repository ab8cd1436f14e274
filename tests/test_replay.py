"""Every complete record replays: `prepare` and `decide`, given only the
settings and backend answers the record holds (`conftest.replay`), rebuild
it byte for byte, with no engine and no summarize call. So the record's
clusters, noise, votes, flags and final summary are a function of its local
summaries, classify partitions and connect reply."""
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slisum.engine import MockEngine
from slisum.pipeline import PipelineConfig, run

from conftest import ContestedEngine, SamplingEngine, random_article, replay
from test_golden import ARTICLES, GOLDEN


class ReorderingEngine(MockEngine):
    """MockEngine whose connect reply puts the statements in reverse order,
    which the connect step's order check refuses: every record with two or
    more winners falls back."""

    def connect(self, statements, params=None):
        return " ".join(reversed(statements))


ENGINES = {"mock": MockEngine, "sampling": SamplingEngine, "contested": ContestedEngine,
           "reordering": ReorderingEngine}


def assert_replays(article, record):
    assert record.status == "complete"
    assert replay(article, record.to_dict()).to_json() == record.to_json()


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(ARTICLES))
def test_golden_articles_replay(name, engine):
    """With the mock engine and no seed the record is the golden one."""
    seed = None if engine == "mock" else 1
    record = run(ARTICLES[name], PipelineConfig(seed=seed), ENGINES[engine]())
    if engine == "mock":
        assert hashlib.sha256(record.to_json().encode("utf-8")).hexdigest() == GOLDEN[name]
    winners = len(record.final["statements"])
    assert record.final["fallback"] == (engine == "reordering" and winners > 1)
    assert_replays(ARTICLES[name], record)


def test_contested_records_ask_for_classify_calls():
    """The contested engine's records hold classify partitions to replay."""
    record = run(ARTICLES["planted"], PipelineConfig(seed=1), ContestedEngine())
    assert record.stats.classify_calls > 0
    assert any(len(vote["partition"]) > 1 for vote in record.votes)


@given(article_seed=st.integers(0, 2**16), sentences=st.integers(1, 30),
       k=st.integers(1, 4), step_size=st.sampled_from([10, 20]),
       eps=st.sampled_from([0.1, 0.25, 0.5, 0.75]),
       engine=st.sampled_from(["sampling", "contested"]),
       concurrency=st.sampled_from([1, 4]), data=st.data())
@settings(max_examples=25, deadline=None)
def test_drawn_corpora_replay(article_seed, sentences, k, step_size, eps, engine, concurrency,
                              data):
    article = random_article(random.Random(article_seed), sentences, max_words=20)
    config = PipelineConfig(window_size=k * step_size, step_size=step_size, eps=eps,
                            min_pts=data.draw(st.integers(1, k), label="min_pts"), seed=1,
                            concurrency=concurrency)
    assert_replays(article, run(article, config, ENGINES[engine]()))
