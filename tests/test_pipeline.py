import errno
import gc
import hashlib
import json
import logging
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slisum.engine import (
    INSTRUCTIONS,
    EngineError,
    EngineParams,
    HttpEngine,
    MockEngine,
    request,
    request_hash,
)
from slisum.calls import LOG_NAME, CachedEngine, CallScheduler, ResponseCache
from slisum.pipeline import PipelineConfig, run, start
from slisum.record import indented_json, persist_record, record_filename
from slisum.text import Article, ConfigurationError, Window, build_window_plan, window_text

from conftest import (
    PLANTED_EVENTS,
    ContestedEngine,
    PeakTransport,
    RewordingTransport,
    SamplingEngine,
    cache_key,
    planted_article,
    random_article,
    zipf_texts,
)


def log_lines(directory):
    with open(os.path.join(directory, LOG_NAME), encoding="utf-8") as fh:
        return fh.read().splitlines()


_LOG_KEYS = [hashlib.sha256(name.encode()).hexdigest() for name in ("a", "b", "c")]


def _log_line(key, entry_json, newline=True):
    return f"{key}\t{entry_json}".encode("utf-8") + b"\n" * newline


# One append to a cache log: a good line, a line torn by a crash (no newline,
# so the next append is fused with it), garbage, or an entry that is bad JSON,
# has no str text, or has a text holding a lone surrogate escape.
log_appends = st.one_of(
    st.builds(lambda key, text: _log_line(key, json.dumps({"text": text, "task": "summarize"},
                                                          ensure_ascii=False)),
              st.sampled_from(_LOG_KEYS), st.sampled_from(["one", "two", "Café", ""])),
    st.builds(lambda key, cut: _log_line(key, '{"text": "torn answer"}', newline=False)[:cut],
              st.sampled_from(_LOG_KEYS), st.integers(1, 88)),
    st.binary(max_size=30).map(lambda data: data.replace(b"\n", b"") + b"\n"),
    st.builds(_log_line, st.sampled_from(_LOG_KEYS),
              st.sampled_from(['{"text": "trunc', '{"text": 7}', "[1, 2]", '"text"',
                               '{"text": "bad \\ud800 text"}', '{"text": "x"} tail'])),
)


def served_by_oracle(data):
    """(key -> text of its first readable line, number of unreadable lines
    checked) of a log, parsed by brute force: complete lines only, and a line
    whose key already has a readable line is not checked."""
    served, unreadable = {}, 0
    for line in data.split(b"\n")[:-1]:
        key = line[:64].decode("latin-1")
        if key in served:
            continue
        try:
            if len(line) < 65 or line[64:65] != b"\t" or any(c not in "0123456789abcdef"
                                                              for c in key):
                raise ValueError
            text = json.loads(line[65:].decode("utf-8"))["text"]
            if not isinstance(text, str):
                raise ValueError
            text.encode("utf-8")
        except (ValueError, KeyError, TypeError):
            unreadable += 1
            continue
        served[key] = text
    return served, unreadable


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestResolveProfile:
    def test_short_article(self):
        config = PipelineConfig().resolved(800)
        assert (config.window_size, config.step_size, config.eps, config.min_pts,
                config.k) == (150, 50, 0.25, 2, 3)

    def test_long_article(self):
        config = PipelineConfig().resolved(6000)
        assert (config.window_size, config.step_size, config.eps, config.min_pts,
                config.k) == (750, 150, 0.25, 3, 5)

    def test_override_uses_half_k_rule(self):
        config = PipelineConfig(window_size=900, step_size=180)
        resolved = config.resolved(article_words=800)
        assert resolved.k == 5
        assert resolved.min_pts == 3

    def test_explicit_min_pts_wins(self):
        resolved = PipelineConfig(min_pts=1).resolved(article_words=100)
        assert resolved.min_pts == 1

    def test_min_pts_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(window_size=150, step_size=50, min_pts=4).resolved(100)

    def test_bad_eps_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(eps=1.5).resolved(100)

    @pytest.mark.parametrize("setting, value", [
        ("concurrency", 0), ("concurrency", -5), ("max_tokens", 0), ("max_tokens", -1),
        ("window_size", 0), ("step_size", -2), ("min_pts", 0),
    ])
    def test_run_rejects_a_setting_below_one_before_any_call(self, planted, setting, value):
        """run() rejects what the CLI rejects: a concurrency, max_tokens,
        MinPts, window or step size below 1 is a ConfigurationError, raised when the
        config is built and, for a config changed after that, by run() before
        any backend call."""
        class Unused(MockEngine):
            def summarize(self, window_text, params=None):
                raise AssertionError("a rejected setting makes no call")

        message = f"^{setting} must be >= 1, got {value}$"
        with pytest.raises(ConfigurationError, match=message):
            PipelineConfig(**{setting: value})
        config = PipelineConfig()
        setattr(config, setting, value)
        with pytest.raises(ConfigurationError, match=message):
            run(planted, config, Unused())

    @pytest.mark.parametrize("settings, message", [
        ({"window_size": 100, "step_size": 30},
         "window_size 100 must be an integer multiple of step_size 30"),
        ({"window_size": 100, "step_size": 150},
         "window_size 100 < step_size 150 would leave gaps between windows"),
        ({"backend": "nope"}, "backend must be one of mock, http, got 'nope'"),
    ], ids=["not-a-multiple", "gaps", "backend"])
    def test_settings_that_fit_no_article_rejected_when_built(self, planted, settings,
                                                             message):
        """A geometry that fits no article and an unknown backend are
        rejected when the config is built and, for a config changed after
        that, by run() before any backend call."""
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            PipelineConfig(**settings)
        config = PipelineConfig()
        for name, value in settings.items():
            setattr(config, name, value)
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            run(planted, config)


class TestResponseCache:
    def params(self):
        return EngineParams(model="m", max_tokens=64)

    def test_hit_after_store(self, tmp_path):
        cache = ResponseCache(str(tmp_path))
        key = cache_key("summarize", "body", self.params())
        assert cache.lookup(key) is None
        cache.store(key, {"text": "cached"})
        assert cache.lookup(key)["text"] == "cached"

    def test_key_includes_params(self):
        params = EngineParams(model="m")
        keys = {
            cache_key("summarize", "body", params),
            cache_key("classify", ["body"], params),
            cache_key("summarize", "other body", params),
            cache_key("summarize", "body", EngineParams(model="n")),
            cache_key("summarize", "body", EngineParams(model="m", max_tokens=64)),
            cache_key("summarize", "body", EngineParams(model="m", seed=7)),
            cache_key("summarize", "body", params, sample=2),
            cache_key("summarize", "body", params, backend="http://h/v1/chat/completions"),
        }
        assert len(keys) == 8

    @pytest.mark.parametrize("task, args, kwargs, key", [
        ("summarize", ("One fine sentence.",), {"sample": 2},
         "5f331448701c8b1d2a7b3e9e1f3b92f418991a9ad8daf692cc78482edc27ad00"),
        ("classify", (["A cat sat.", "A dog ran."],), {},
         "6bbe2265a39771bf051b6d380c57bd3cd7ad7009a333f5e9caa78a280d6e2573"),
        ("connect", (["A cat sat.", "A dog ran."],), {},
         "3bb340ca65a7ff5eebec236fd03c7c5cf5f00c11179cb3419dde3bd838a283c6"),
    ], ids=["summarize", "classify", "connect"])
    def test_cache_file_names_are_pinned(self, tmp_path, task, args, kwargs, key):
        """A call's cache key hashes the backend's identity, the request it
        sends and its sample number. Any change to that material turns every
        warm cache cold, so one key per task is pinned."""
        params = EngineParams(model="m", max_tokens=64, seed=3)
        with CallScheduler(1) as scheduler:
            cached = CachedEngine(MockEngine(), ResponseCache(str(tmp_path)), scheduler)
            getattr(cached, task)(*args, params, **kwargs)
        assert os.listdir(tmp_path) == [LOG_NAME]
        assert [line.split("\t")[0] for line in log_lines(tmp_path)] == [key]

    def test_unreadable_line_skipped(self, tmp_path, caplog):
        """A line whose key or entry does not parse is skipped with a warning
        and its key misses; a later store of that key is served, here and by
        a fresh cache on the same directory."""
        key = cache_key("summarize", "body", self.params())
        other = cache_key("summarize", "other", self.params())
        with open(tmp_path / LOG_NAME, "w", encoding="utf-8") as fh:
            fh.write(f'{key}\t{{"text": "trunc\nnot a key\n{other}\t{{"text": "fine"}}\n')
        cache = ResponseCache(str(tmp_path))
        with caplog.at_level("WARNING", logger="slisum.calls"):
            assert cache.lookup(key) is None
        assert len([r for r in caplog.records if "unreadable line" in r.getMessage()]) == 2
        assert cache.lookup(other)["text"] == "fine"
        assert cache.store(key, {"text": "ok"}) == "ok"
        assert cache.lookup(key)["text"] == "ok"
        assert ResponseCache(str(tmp_path)).lookup(key)["text"] == "ok"

    @pytest.mark.parametrize("competitor, expected", [
        ('{"text": "first writer", "task": "summarize"}', "first writer"),
        ('{"text": "trunc', "own answer"),
    ], ids=["readable", "unreadable"])
    def test_first_writer_wins(self, tmp_path, competitor, expected):
        """Another process appends a line for the key while this one calls the
        backend: its line comes first, so this call returns its text, unless
        the line is unreadable, which is skipped."""
        directory = str(tmp_path)

        class RacedEngine(MockEngine):
            def summarize(self, window_text, params=None):
                key = cache_key("summarize", window_text, params)
                with open(os.path.join(directory, LOG_NAME), "a", encoding="utf-8") as fh:
                    fh.write(f"{key}\t{competitor}\n")
                return "own answer"

        with CallScheduler(1) as scheduler:
            cached = CachedEngine(RacedEngine(), ResponseCache(directory), scheduler)
            assert cached.summarize("One fine sentence.", EngineParams(model="m")) == expected
            assert cached.summarize("One fine sentence.", EngineParams(model="m")) == expected
        assert cached.calls == [("summarize", False), ("summarize", True)]
        assert os.listdir(directory) == [LOG_NAME]
        assert len(log_lines(directory)) == 2

    def test_processes_storing_one_key_agree(self, tmp_path):
        """Two processes that both missed a key store different texts; both,
        and a later lookup, get the text of whichever appended first."""
        key = cache_key("summarize", "body", self.params())
        child = (
            "import os, sys, time\n"
            "from slisum.calls import ResponseCache\n"
            "directory, key, me = sys.argv[1:]\n"
            "cache = ResponseCache(directory)\n"
            "assert cache.lookup(key) is None\n"
            "open(os.path.join(directory, 'ready-' + me), 'w').close()\n"
            "while len([n for n in os.listdir(directory) if n.startswith('ready-')]) < 2:\n"
            "    time.sleep(0.001)\n"
            "print(cache.store(key, {'text': 'from ' + me}))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        children = [subprocess.Popen([sys.executable, "-c", child, str(tmp_path), key, me],
                                     stdout=subprocess.PIPE, text=True, env=env)
                    for me in ("a", "b")]
        answers = {child.communicate(timeout=60)[0].strip() for child in children}
        assert [child.returncode for child in children] == [0, 0]
        assert answers == {ResponseCache(str(tmp_path)).lookup(key)["text"]}
        assert answers <= {"from a", "from b"}
        assert len(log_lines(tmp_path)) == 2

    def test_torn_tail_loses_only_the_fused_line(self, tmp_path):
        """A crash mid-append leaves a last line without a newline; the next
        append is fused with it, so those two entries miss and no other."""
        kept, torn, fused, later = (cache_key("summarize", body, self.params())
                                    for body in ("kept", "torn", "fused", "later"))
        with open(tmp_path / LOG_NAME, "w", encoding="utf-8") as fh:
            fh.write(f'{kept}\t{{"text": "kept"}}\n{torn}\t{{"text": "to')
        cache = ResponseCache(str(tmp_path))
        assert cache.lookup(torn) is None
        assert cache.store(fused, {"text": "fused"}) == "fused"
        assert cache.store(later, {"text": "later"}) == "later"
        for reader in (cache, ResponseCache(str(tmp_path))):
            assert reader.lookup(kept)["text"] == "kept"
            assert reader.lookup(torn) is None
            assert reader.lookup(fused) is None
            assert reader.lookup(later)["text"] == "later"
        assert cache.store(fused, {"text": "again"}) == "again"
        assert ResponseCache(str(tmp_path)).lookup(fused)["text"] == "again"

    def test_clear_under_an_open_cache_serves_no_wrong_answer(self, tmp_path, caplog):
        """Another process clears the cache and stores another key at the
        same offset while this one holds an index of the old log: the stale
        entry misses, and is never the other key's answer."""
        old, new = (cache_key("summarize", body, self.params()) for body in ("old", "new"))
        reader = ResponseCache(str(tmp_path))
        reader.store(old, {"text": "old answer"})
        other = ResponseCache(str(tmp_path))
        other.clear()
        other.store(new, {"text": "new answer"})
        with caplog.at_level("WARNING", logger="slisum.calls"):
            assert reader.lookup(old) is None
        assert "the log changed under its index" in caplog.text

    def test_log_read_in_chunks(self, tmp_path):
        """A log of many lines, one of them longer than 64 KiB, is indexed
        whole by a fresh cache: every key is served its own text."""
        cache = ResponseCache(str(tmp_path))
        texts = {cache_key("summarize", str(i), self.params()): f"{i} " * (i * 40)
                 for i in range(1, 60)}
        texts[cache_key("connect", ["long"], self.params())] = "long " * 40000
        for key, text in texts.items():
            assert cache.store(key, {"text": text}) == text
        assert os.path.getsize(tmp_path / LOG_NAME) > 4 * 65536
        fresh = ResponseCache(str(tmp_path))
        assert {key: fresh.lookup(key)["text"] for key in texts} == texts
        assert fresh.count() == len(texts)

    def test_opening_creates_nothing_and_checks_the_log(self, planted, tmp_path):
        """Opening a cache makes no directory or file, and the first store
        makes the directory. A log that is not a regular file is a
        ConfigurationError naming it, for run() as for the CLI."""
        directory = tmp_path / "new" / "cache"
        cache = ResponseCache(str(directory))
        key = cache_key("summarize", "body", self.params())
        assert cache.lookup(key) is None and cache.count() == 0
        assert not (tmp_path / "new").exists()
        assert cache.store(key, {"text": "stored"}) == "stored"
        assert os.listdir(directory) == [LOG_NAME]
        log = tmp_path / "taken" / LOG_NAME
        log.mkdir(parents=True)
        with pytest.raises(ConfigurationError, match=f"^not a file: {log}$"):
            ResponseCache(str(log.parent))
        with pytest.raises(ConfigurationError, match=f"^not a file: {log}$"):
            run(planted, PipelineConfig(cache_dir=str(log.parent)))

    def test_log_io_error_is_a_non_retryable_engine_error(self, tmp_path, monkeypatch):
        """An OSError of the log fails the call with an EngineError naming
        the log, which no attempt retries."""
        def disk_full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("slisum.calls.os.write", disk_full)
        with CallScheduler(1) as scheduler:
            cached = CachedEngine(MockEngine(), ResponseCache(str(tmp_path)), scheduler)
            with pytest.raises(EngineError) as info:
                cached.summarize("One fine sentence.")
        log = tmp_path / LOG_NAME
        assert str(info.value) == f"response cache {log}: No space left on device"
        assert not info.value.retryable
        assert cached.calls == [] and cached.retries == 0

    @pytest.mark.parametrize("with_cache", [False, True], ids=["no-cache", "cache"])
    def test_engine_os_error_is_not_a_cache_error(self, tmp_path, with_cache):
        """An OSError the engine raises fails its call at once, with or
        without a cache, as a non-retryable EngineError naming the request,
        the sample and the error class, not the cache's log."""
        class ResetEngine(MockEngine):
            max_attempts = 5
            calls = 0

            def summarize(self, window_text, params=None):
                self.calls += 1
                raise ConnectionResetError("peer reset")

        engine = ResetEngine()
        cache = ResponseCache(str(tmp_path)) if with_cache else None
        with CallScheduler(1) as scheduler:
            cached = CachedEngine(engine, cache, scheduler)
            with pytest.raises(EngineError) as info:
                cached.summarize("One fine sentence.", sample=2)
        request_id = request_hash(request("summarize", "One fine sentence."))[:12]
        assert str(info.value) == (f"request {request_id} sample 2: "
                                   f"ConnectionResetError: peer reset")
        assert not info.value.retryable
        assert isinstance(info.value.__cause__, ConnectionResetError)
        assert (engine.calls, cached.calls, cached.retries) == (1, [], 0)
        assert not (tmp_path / LOG_NAME).exists()

    def test_concurrent_stores_lose_nothing(self, tmp_path):
        """Threads storing at once into one cache: every key is found, here
        and by a fresh cache, and a key stored by several threads gives them
        all one text."""
        cache = ResponseCache(str(tmp_path))
        shared = [cache_key("connect", [f"shared {i}"], self.params()) for i in range(20)]

        def work(worker):
            own = [cache_key("summarize", f"{worker} {i}", self.params())
                   for i in range(25)]
            stored = {}
            for key in own + shared:
                if cache.lookup(key) is None:
                    stored[key] = cache.store(key, {"text": f"{worker} {key}"})
                else:
                    stored[key] = cache.lookup(key)["text"]
            return stored

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        fresh = ResponseCache(str(tmp_path))
        for stored in results:
            for key, text in stored.items():
                assert cache.lookup(key)["text"] == fresh.lookup(key)["text"] == text
        assert fresh.count() == 8 * 25 + len(shared)

    @settings(deadline=None)
    @given(st.lists(log_appends, max_size=12))
    def test_every_key_served_its_first_readable_line(self, appends):
        """A log built from random appends: a fresh cache serves each key the
        text of its first readable complete line, warns once per unreadable
        line it checks, and counts only the keys it can serve; so does a
        cache that indexed the log after every append."""
        data = b"".join(appends)
        served, unreadable = served_by_oracle(data)
        warnings = _Warnings()
        logger = logging.getLogger("slisum.calls")
        with tempfile.TemporaryDirectory() as directory:
            follower = ResponseCache(directory)
            for append in appends:
                with open(os.path.join(directory, LOG_NAME), "ab") as fh:
                    fh.write(append)
                follower.count()
            logger.addHandler(warnings)
            try:
                fresh = ResponseCache(directory)
                assert fresh.count() == len(served)
                for cache in (fresh, follower):
                    assert {key: cache.lookup(key)["text"] for key in _LOG_KEYS
                            if cache.lookup(key) is not None} == served
                    assert cache.count() == len(served)
            finally:
                logger.removeHandler(warnings)
        assert len(warnings.messages) == unreadable
        assert all("skipping unreadable line" in message for message in warnings.messages)

    def test_deeply_nested_entry_is_unreadable(self, tmp_path, caplog):
        """An entry nested deeper than the JSON parser recurses is an
        unreadable line, not an error that escapes the cache."""
        key, other = _LOG_KEYS[:2]
        with open(tmp_path / LOG_NAME, "wb") as fh:
            fh.write(_log_line(key, '{"text": "x", "deep": ' + "[" * 100000))
            fh.write(_log_line(other, '{"text": "fine"}'))
        cache = ResponseCache(str(tmp_path))
        with caplog.at_level("WARNING", logger="slisum.calls"):
            assert cache.lookup(key) is None
        assert "nested too deeply" in caplog.text
        assert cache.lookup(other)["text"] == "fine"
        assert cache.count() == 1

    def test_cached_engine_counts(self, tmp_path):
        with CallScheduler(1) as scheduler:
            cached = CachedEngine(MockEngine(), ResponseCache(str(tmp_path)), scheduler)
            first = cached.summarize("One fine sentence.", EngineParams(model="m"))
            again = cached.summarize("One fine sentence.", EngineParams(model="m"))
        assert first == again
        assert cached.calls == [("summarize", False), ("summarize", True)]

    def test_call_log_loses_no_concurrent_call(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CallScheduler(8) as scheduler, ThreadPoolExecutor(max_workers=8) as pool:
                cached = CachedEngine(MockEngine(), None, scheduler)
                list(pool.map(lambda i: cached.connect([f"Fact {i}."]), range(2000), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        stats = cached.stats(0.0)
        assert (stats.connect_calls, stats.backend_calls) == (2000, 2000)


class TestRun:
    def test_planted_events_one_statement_each(self, planted):
        record = run(planted, PipelineConfig(concurrency=1))
        assert record.status == "complete"
        final_texts = [s["text"] for s in record.final["statements"]]
        assert final_texts == list(PLANTED_EVENTS)
        anchors = [s["source_anchor"] for s in record.final["statements"]]
        assert anchors == sorted(anchors) == [2, 12, 22]
        # every selected statement comes from a cluster seen in >= MinPts local summaries
        min_pts = record.config["min_pts"]
        by_id = {c["id"]: c for c in record.clusters}
        for stmt in record.final["statements"]:
            cluster = by_id[stmt["cluster_id"]]
            assert cluster["size"] >= min_pts
            assert cluster["local_summary_count"] >= min_pts

    def test_deterministic_across_runs_and_concurrency(self, planted):
        records = [
            run(planted, PipelineConfig(concurrency=jobs)).to_json()
            for jobs in (1, 4, 1, 4, 2)
        ]
        assert len(set(records)) == 1

    def test_short_article_k_identical_summaries(self):
        article = Article.from_text(
            "tiny",
            "Solar panels cut energy costs. Solar panels cut energy bills. "
            "Wind turbines spin near coasts.",
        )
        record = run(article, PipelineConfig(concurrency=1))
        assert record.plan["total_generations"] == 3
        summaries = {entry["text"] for entry in record.local_summaries}
        assert len(summaries) == 1
        assert len(record.final["statements"]) == 1

    def test_no_cluster_survives(self):
        class UniqueEngine(MockEngine):
            """Every call yields a fresh statement: nothing reaches MinPts."""

            def __init__(self):
                self.calls = 0

            def summarize(self, window_text, params=None):
                self.calls += 1
                return f"Alone number{self.calls} only{self.calls}."

        article = Article.from_text(
            "sparse",
            "Aa bb cc dd. Ee ff gg hh. Ii jj kk ll. Mm nn oo pp.",
        )
        record = run(
            article,
            PipelineConfig(window_size=8, step_size=4, min_pts=2, concurrency=1),
            engine=UniqueEngine(),
        )
        assert record.clusters == []
        assert "no cluster survived MinPts" in record.flags
        assert record.final["connected_text"] == ""
        assert record.final["statements"] == []

    def test_claim_repeated_in_one_summary_is_not_support(self):
        """A cluster needs MinPts distinct local summaries, not MinPts
        statements: a claim one summary states twice is dropped."""
        article = Article.from_text("moon", " ".join(
            f"Topic{i} words{i} fill{i} this{i} sentence{i}." for i in range(1, 13)))
        config = PipelineConfig(window_size=30, step_size=10, concurrency=1)
        first_window = window_text(article, build_window_plan(article, 30, 10).windows[0])

        class RepeatingEngine(MockEngine):
            def summarize(self, window_text, params=None):
                if window_text == first_window:
                    return ("The moon is made of green cheese. "
                            "The moon is made of green cheese!")
                return super().summarize(window_text, params)

        record = run(article, config, engine=RepeatingEngine())
        assert (record.config["k"], record.config["min_pts"]) == (3, 2)
        assert all(c["local_summary_count"] >= 2 for c in record.clusters)
        assert "moon" not in record.final["connected_text"]
        assert record.final["statements"]

    def test_one_vote_per_local_summary(self):
        """The vote counts local summaries, not statements: in one window
        with K=3 and MinPts 2, two samples stating 1990 outvote one sample
        stating 1991 three times."""
        v1990 = "The bridge opened in 1990 after a long council vote."
        v1991 = v1990.replace("1990", "1991")

        class RepeatingEngine(MockEngine):
            def summarize(self, window_text, params=None):
                return " ".join([v1991] * 3) if params.seed == 3 else v1990

        article = Article.from_text("bridge", "The bridge opened after a long council "
                                              "vote. Traffic over the river doubled.")
        record = run(article, PipelineConfig(seed=1, concurrency=1), RepeatingEngine())
        assert (record.config["k"], record.config["min_pts"]) == (3, 2)
        assert [(c["size"], c["local_summary_count"]) for c in record.clusters] == [(5, 3)]
        assert record.votes[0]["partition"] == [[1, 2], [3, 4, 5]]
        assert [s["text"] for s in record.final["statements"]] == [v1990]

    def test_finished_article_leaves_no_reference_cycle(self, planted):
        """Once `run` returns, refcounting alone frees the article's
        statements and closures: the connect call's future, which keeps its
        done-callback, must not be reachable from that callback, or every
        article's state would wait for the cycle collector (and peak memory
        would grow). The connect call is slow, so the callback is queued."""
        class SlowConnect(MockEngine):
            def connect(self, statements, params=None):
                time.sleep(0.02)
                return super().connect(statements, params)

        run(planted, PipelineConfig(concurrency=2), SlowConnect())
        gc.collect()
        gc.disable()
        try:
            record = run(planted, PipelineConfig(concurrency=2), SlowConnect())
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert record.stats.connect_calls == 1

    def test_article_is_freed_before_it_is_completed(self):
        """Once `finish()` has returned, nothing holds the article while its
        connect call is in flight: the connect step holds only the winners,
        their token bags and their `final` rows."""
        release = threading.Event()

        class HeldConnect(MockEngine):
            def connect(self, statements, params=None):
                release.wait(timeout=10)
                return super().connect(statements, params)

        article = planted_article()
        alive = weakref.ref(article)
        with CallScheduler(2) as scheduler:
            try:
                finish = start(article, PipelineConfig(concurrency=2), HeldConnect(), None,
                               scheduler)[1]
                complete = finish()
                del article, finish
                assert alive() is None
            finally:
                release.set()
            record = complete()
        assert record.status == "complete"
        assert record.stats.connect_calls == 1

    def test_engine_call_accounting(self, planted, tmp_path):
        record = run(planted, PipelineConfig(concurrency=1))
        expected = record.plan["total_generations"]
        assert record.stats.summarize_calls == expected
        # all planted clusters are byte-identical copies: classification skipped
        assert record.stats.classify_calls == 0
        assert record.stats.connect_calls == 1
        assert record.stats.backend_calls == expected + 1
        assert record.stats.cache_hits == 0

        config = PipelineConfig(concurrency=4, cache_dir=str(tmp_path))
        run(planted, config)
        warm = run(planted, config).stats
        assert (warm.summarize_calls, warm.classify_calls, warm.connect_calls,
                warm.backend_calls, warm.cache_hits) == (expected, 0, 1, 0, expected + 1)

    def test_cache_rerun_zero_backend_calls(self, planted, tmp_path):
        config = PipelineConfig(concurrency=2, cache_dir=str(tmp_path / "cache"))
        first = run(planted, config)
        second = run(planted, config)
        assert first.stats.backend_calls > 0
        assert second.stats.backend_calls == 0
        assert second.stats.cache_hits == first.stats.backend_calls
        assert first.to_json() == second.to_json()

    def test_connect_whose_answer_cannot_be_stored_falls_back(self, planted, tmp_path,
                                                              monkeypatch):
        """A connect call the cache cannot store fails as any engine error
        does: the statements are concatenated, and the article completes."""
        write = os.write

        def disk_full_for_connect(fd, data):
            if b'"task": "connect"' in data:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data)

        expected = run(planted, PipelineConfig(concurrency=2))
        monkeypatch.setattr("slisum.calls.os.write", disk_full_for_connect)
        record = run(planted, PipelineConfig(concurrency=2, cache_dir=str(tmp_path)))
        assert (record.status, record.final["fallback"]) == ("complete", True)
        assert record.final["statements"] == expected.final["statements"]
        assert record.final["connected_text"] == " ".join(
            s["text"] for s in expected.final["statements"])

    def test_cached_classify_and_connect_calls_stay_on_the_calling_thread(self, tmp_path,
                                                                          monkeypatch):
        """A classify or connect call the cache answers is served from its
        stored reply on the thread finishing the article; one that misses
        goes to a finishing thread."""
        threads = []

        def on_thread(task):
            method = getattr(CachedEngine, task)

            def traced(self, *args, **kwargs):
                threads.append((task, threading.current_thread().name))
                return method(self, *args, **kwargs)
            return traced

        ask = CachedEngine.ask

        def served_on_thread(self, task, *args):
            reply = ask(self, task, *args)
            if task != "summarize" and self.calls[-1:] == [(task, True)]:
                threads.append((task, threading.current_thread().name))
            return reply

        monkeypatch.setattr(CachedEngine, "ask", served_on_thread)
        for task in ("classify", "connect"):
            monkeypatch.setattr(CachedEngine, task, on_thread(task))
        article = Article.from_text("pets", "Cats nap at noon. Dogs bark at night.")
        config = PipelineConfig(concurrency=2, seed=1, cache_dir=str(tmp_path))
        cold = run(article, config, engine=ContestedEngine())
        assert sorted(task for task, _ in threads) == ["classify", "classify", "connect"]
        assert all(name.startswith("slisum-finish") for _, name in threads)
        threads.clear()
        warm = run(article, config, engine=ContestedEngine())
        assert warm.stats.backend_calls == 0
        main = threading.current_thread().name
        assert sorted(threads) == [("classify", main), ("classify", main), ("connect", main)]
        assert warm.to_json() == cold.to_json()

    def test_warm_run_looks_each_call_up_once(self, tmp_path, monkeypatch):
        """On a warm run every call, classify and connect included, is one
        cache lookup: the reply the probe finds is the one the vote and the
        connect step use."""
        article = planted_article()
        config = PipelineConfig(concurrency=2, seed=1, cache_dir=str(tmp_path))
        cold = run(article, config, engine=ContestedEngine())
        lookups = []
        lookup = ResponseCache.lookup

        def counted(self, key):
            lookups.append(key)
            return lookup(self, key)

        monkeypatch.setattr(ResponseCache, "lookup", counted)
        warm = run(article, config, engine=ContestedEngine())
        stats = warm.stats
        calls = stats.summarize_calls + stats.classify_calls + stats.connect_calls
        assert stats.classify_calls > 0 and stats.connect_calls == 1
        assert len(lookups) == len(set(lookups)) == calls
        assert (stats.backend_calls, stats.cache_hits) == (0, calls)
        assert cold.stats.backend_calls == calls
        assert warm.to_json() == cold.to_json()

    def test_warm_summarize_hits_stay_off_the_call_threads(self, tmp_path, monkeypatch):
        """On a warm run a summarize reply the cache holds is read on the
        thread asking for it: no call thread serves one."""
        config = PipelineConfig(concurrency=2, seed=1, cache_dir=str(tmp_path))
        cold = run(planted_article(), config, engine=ContestedEngine())
        served = []
        lookup = ResponseCache.lookup

        def traced(self, key):
            entry = lookup(self, key)
            if entry is not None and entry["task"] == "summarize":
                served.append(threading.current_thread().name)
            return entry

        monkeypatch.setattr(ResponseCache, "lookup", traced)
        warm = run(planted_article(), config, engine=ContestedEngine())
        assert len(served) == warm.stats.summarize_calls > 0
        assert not [name for name in served if name.startswith("slisum-call")]
        assert warm.stats.backend_calls == 0
        assert warm.to_json() == cold.to_json()

    def test_cold_call_computes_its_key_once(self, tmp_path, monkeypatch):
        """A call the cache does not hold, of any task, hashes its request
        into a cache key once: the key its lookup and its store use."""
        keyed = []
        key_of = CachedEngine._key

        def counted(self, task, *args, **kwargs):
            keyed.append(task)
            return key_of(self, task, *args, **kwargs)

        monkeypatch.setattr(CachedEngine, "_key", counted)
        config = PipelineConfig(concurrency=2, seed=1, cache_dir=str(tmp_path))
        stats = run(planted_article(), config, engine=ContestedEngine()).stats
        assert stats.classify_calls > 0 and stats.connect_calls == 1
        assert stats.backend_calls == stats.summarize_calls + stats.classify_calls + 1
        assert Counter(keyed) == {"summarize": stats.summarize_calls,
                                  "classify": stats.classify_calls, "connect": 1}

    def test_edited_prompt_misses_the_cache(self, tmp_path, monkeypatch):
        """An edited instruction changes its task's requests, so a warm rerun
        draws the classify call again and serves the summarize calls from
        the cache."""

        class WordyEngine(MockEngine):
            """The second sample of each window adds a word, so the cluster
            of a window's three samples is contested."""

            def __init__(self):
                self.draws = self.classified = 0

            def summarize(self, window_text, params=None):
                self.draws += 1
                text = super().summarize(window_text, params)
                return text[:-1] + " sharply." if self.draws % 3 == 2 else text

            def classify(self, statements, params=None):
                self.classified += 1
                return super().classify(statements, params)

        article = Article.from_text("tiny", "Solar panels cut energy costs.")
        config = PipelineConfig(concurrency=1, cache_dir=str(tmp_path / "cache"))
        engine = WordyEngine()
        cold = run(article, config, engine=engine)
        warm = run(article, config, engine=engine)
        assert (engine.draws, engine.classified, warm.stats.backend_calls) == (3, 1, 0)
        monkeypatch.setitem(INSTRUCTIONS, "classify", INSTRUCTIONS["classify"] + " Be brief.")
        edited = run(article, config, engine=engine)
        assert (engine.draws, engine.classified, edited.stats.backend_calls) == (3, 2, 1)
        assert cold.to_json() == warm.to_json() == edited.to_json()

    def test_cache_rerun_other_seed_calls_backend(self, planted, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run(planted, PipelineConfig(concurrency=1,
                                            cache_dir=cache_dir, seed=1))
        second = run(planted, PipelineConfig(concurrency=1,
                                             cache_dir=cache_dir, seed=2))
        assert first.stats.backend_calls > 0
        assert second.stats.backend_calls == first.stats.backend_calls
        assert second.stats.cache_hits == first.stats.cache_hits

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_repetitions_are_distinct_samples(self, tmp_path, concurrency):
        article = Article.from_text(
            "tiny",
            "Solar panels cut energy costs. Wind turbines spin near coasts. "
            "Rivers feed the valley farms.",
        )
        config = PipelineConfig(concurrency=concurrency, cache_dir=str(tmp_path / "cache"))
        cold_engine = SamplingEngine()
        cold = run(article, config, engine=cold_engine)
        assert [w["repetitions"] for w in cold.plan["windows"]] == [3]
        assert cold_engine.draws == 3
        assert len({entry["text"] for entry in cold.local_summaries}) == 3

        warm_engine = SamplingEngine()
        warm = run(article, config, engine=warm_engine)
        assert warm_engine.draws == 0
        assert warm.stats.backend_calls == 0
        assert warm.to_json() == cold.to_json()

    def test_repeated_window_text_drawn_once(self, tmp_path):
        """Windows with the same text share one cache key per sample; with
        several of them in flight together, each key still gets one draw."""
        passage = "Alpha beta gamma delta epsilon. Zeta eta theta iota kappa. "
        article = Article.from_text("echo", passage * 4)
        config = PipelineConfig(window_size=20, step_size=10, concurrency=4, seed=3,
                                cache_dir=str(tmp_path / "cache"))
        cold_engine = SamplingEngine()
        cold = run(article, config, engine=cold_engine)
        prompts = [(window_text(article, Window(**w)), w["repetitions"])
                   for w in cold.plan["windows"]]
        assert len(prompts) == 5 and len(set(prompts)) == 2
        assert cold_engine.draws == 2

        warm_engine = SamplingEngine()
        warm = run(article, config, engine=warm_engine)
        assert warm_engine.draws == 0
        assert warm.to_json() == cold.to_json()

    @pytest.mark.parametrize("model", [None, "m"])
    def test_payload_model_is_the_model_the_key_hashes(self, tmp_path, monkeypatch, model):
        """With SLISUM_MODEL set, a library run over HTTP sends
        PipelineConfig.model, null when unset: the model its cache keys hash
        and its record names."""
        import requests

        monkeypatch.setenv("SLISUM_MODEL", "env-model")
        monkeypatch.setenv("SLISUM_BASE_URL", "http://example.invalid")
        sent = []

        def post(session, url, **kwargs):
            payload = kwargs["json"]
            sent.append(payload)
            reply = requests.Response()
            reply.status_code, reply.encoding = 200, "utf-8"
            reply._content = json.dumps(
                {"choices": [{"message": {"content": payload["messages"][1]["content"]}}]}
            ).encode("utf-8")
            return reply

        monkeypatch.setattr(requests.Session, "post", post)
        article = Article.from_text("tiny", "Solar panels cut energy costs. Wind turbines spin.")
        config = PipelineConfig(backend="http", model=model, concurrency=1,
                                cache_dir=str(tmp_path / "cache"))
        record = run(article, config)
        assert record.status == "complete" and record.config["model"] == model
        assert sent and {payload["model"] for payload in sent} == {model}
        backend = "http://example.invalid/v1/chat/completions"
        expected = {request_hash({"backend": backend, "request": p, "sample": sample})
                    for p in sent for sample in range(1, record.config["k"] + 1)}
        stored = {line.split("\t", 1)[0] for line in log_lines(tmp_path / "cache")}
        assert len(stored) == len(sent) and stored <= expected

    def test_repetitions_send_consecutive_seeds(self):
        seeds = []

        def transport(payload, timeout):
            if payload["messages"][0]["content"] == INSTRUCTIONS["summarize"]:
                seeds.append(payload["seed"])
            return 200, {"choices": [{"message": {"content": "Solar panels cut costs."}}]}

        article = Article.from_text("tiny", "Solar panels cut energy costs. Wind turbines spin.")
        engine = HttpEngine(base_url="http://example.invalid", api_key="k",
                            transport=transport)
        record = run(article, PipelineConfig(concurrency=1, seed=7), engine=engine)
        assert seeds == [7, 8, 9]
        assert record.config["seed"] == 7

    def test_in_flight_bounded_by_concurrency(self, planted):
        def record_at(concurrency):
            transport = PeakTransport()
            engine = HttpEngine(base_url="http://example.invalid", api_key="k",
                                transport=transport)
            record = run(planted, PipelineConfig(concurrency=concurrency),
                         engine=engine)
            assert transport.peak <= concurrency
            return record.to_json(), transport.peak

        serial, _ = record_at(1)
        for concurrency in (2, 6):
            parallel, peak = record_at(concurrency)
            assert parallel == serial
        assert peak > 1

    def test_partial_record_aborted_on_engine_error(self, planted):
        """On an engine error `finish` returns a `complete` that raises it,
        the article's record stays aborted and flagged, and its generations
        not yet started are cancelled."""
        class FailingEngine(MockEngine):
            def __init__(self):
                self.calls = 0

            def summarize(self, window_text, params=None):
                self.calls += 1
                if self.calls > 3:
                    time.sleep(0.02)
                    raise EngineError("backend down")
                return super().summarize(window_text, params)

        engine = FailingEngine()
        with CallScheduler(1) as scheduler:
            record, finish = start(planted, PipelineConfig(concurrency=1), engine, None,
                                   scheduler)
            assert record.status == "aborted"
            with pytest.raises(EngineError):
                finish()()
            scheduler.submit(lambda: None).result(timeout=10)  # after every call not cancelled
        assert engine.calls < build_window_plan(planted, 150, 50).total_generations
        assert record.status == "aborted"
        assert "aborted: engine error" in record.flags

    def test_aborted_record_keeps_no_votes(self):
        """A classify call that raises partway through the votes leaves the
        aborted record's clusters filled and its votes empty."""
        class SecondClassifyFails(MockEngine):
            def __init__(self):
                self.draws = self.classifies = 0

            def summarize(self, window_text, params=None):
                self.draws += 1
                return ("Cats nap at noon. Dogs bark at night." if self.draws % 2 else
                        "Cats nap at noon today. Dogs bark at night loudly.")

            def classify(self, statements, params=None):
                self.classifies += 1
                if self.classifies == 2:
                    raise EngineError("backend down")
                return super().classify(statements, params)

        article = Article.from_text("pets", "Cats nap at noon. Dogs bark at night.")
        engine = SecondClassifyFails()
        with CallScheduler(1) as scheduler:
            record, finish = start(article, PipelineConfig(concurrency=1), engine, None,
                                   scheduler)
            with pytest.raises(EngineError):
                finish()()
        assert engine.classifies == 2
        assert len(record.clusters) == 2
        assert record.votes == []
        assert record.status == "aborted"

    def test_breakeven_report_fields(self, planted):
        record = run(planted, PipelineConfig(concurrency=1))
        plan = record.plan
        assert plan["summarize_input_words"] == sum(
            w["word_count"] * w["repetitions"] for w in plan["windows"]
        )
        assert plan["breakeven_input_words"] == pytest.approx(1.36 * plan["k_ratio"] * 150)

    def test_record_serialization_stable_keys(self, planted, tmp_path):
        record = run(planted, PipelineConfig(concurrency=1))
        path = persist_record(record, str(tmp_path))
        with open(path) as fh:
            data = json.load(fh)
        assert data == record.to_dict()
        assert "stats" not in data

    def test_failed_write_keeps_previous_record(self, planted, tmp_path, monkeypatch):
        record = run(planted, PipelineConfig(concurrency=1))
        path = persist_record(record, str(tmp_path))
        with open(path, "rb") as fh:
            before = fh.read()
        record.flags.append("changed")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            persist_record(record, str(tmp_path))
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == [os.path.basename(path)]

    @pytest.mark.parametrize("make_article", [
        planted_article,
        lambda: Article.from_text("zipf", " ".join(zipf_texts(random.Random(5), 160)))])
    def test_each_distinct_text_tokenized_once(self, make_article, tmp_path, monkeypatch):
        """After the generations, statements, article sentences, the connected
        text and its sentences share one token bag per distinct text: on a
        warm rerun, which calls no backend, no text is tokenized twice."""
        import slisum.lexical
        import slisum.pipeline

        article = make_article()
        config = PipelineConfig(concurrency=2, cache_dir=str(tmp_path / "cache"))
        cold = run(article, config)
        assert cold.stats.connect_calls == 1
        tokenized = Counter()

        def counting(tokenize):
            def wrapper(text):
                tokenized[text] += 1
                return tokenize(text)
            return wrapper

        for module in (slisum.lexical, slisum.pipeline):
            monkeypatch.setattr(module, "tokenize", counting(module.tokenize))
        warm = run(article, config)
        assert warm.stats.backend_calls == 0
        assert warm.to_json() == cold.to_json()
        assert cold.final["connected_text"] in tokenized
        assert set(article.sentences) <= set(tokenized)
        assert max(tokenized.values()) == 1

    def test_statements_traceable_to_one_generation(self, planted):
        record = run(planted, PipelineConfig(concurrency=1))
        seen = {}
        for i, entry in enumerate(record.local_summaries):
            for seq in entry["statement_seqs"]:
                assert seq not in seen
                seen[seq] = i
        clustered = {seq for c in record.clusters for seq in c["statement_seqs"]}
        noise = {s["generation_seq"] for s in record.noise}
        assert clustered | noise <= set(seen)


_SURROGATES = st.characters(categories=["Cs"])
_STRINGS = st.text(st.one_of(st.characters(), _SURROGATES,
                             st.sampled_from('"\\/\x00\x1f\x7f\u2028é日')))
_INTS = st.one_of(st.integers(), st.integers(min_value=2**64), st.integers(max_value=-2**64))
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _STRINGS)
_JSON = st.recursive(
    st.one_of(_SCALARS, st.lists(_INTS), st.lists(st.one_of(_INTS, st.booleans())),
              st.lists(_STRINGS)),
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(_STRINGS, children)),
    max_leaves=30,
)


class CuttingTransport(RewordingTransport):
    """RewordingTransport whose replies to `task` carry `finish_reason`."""

    def __init__(self, task, finish_reason):
        super().__init__()
        self.instruction, self.finish_reason = INSTRUCTIONS[task], finish_reason

    def answer(self, payload):
        status, body = super().answer(payload)
        if payload["messages"][0]["content"] == self.instruction:
            body["choices"][0]["finish_reason"] = self.finish_reason
        return status, body


class TestUnfinishedReplies:
    """A reply whose finish_reason is not 'stop' is refused and never reaches
    the cache log: a cut or filtered summarize or classify reply fails the
    article, and a connect reply falls back to the joined statements."""

    ARTICLE = Article.from_text("pets", "Cats nap at noon. Dogs bark at night.")

    def run(self, tmp_path, task, finish):
        engine = HttpEngine(transport=CuttingTransport(task, finish))
        config = PipelineConfig(backend="http", seed=1, concurrency=2, cache_dir=str(tmp_path))
        return run(self.ARTICLE, config, engine)

    @staticmethod
    def stored_tasks(directory):
        if not os.path.exists(os.path.join(directory, LOG_NAME)):
            return set()
        return {json.loads(line.split("\t", 1)[1])["task"] for line in log_lines(directory)}

    @pytest.mark.parametrize("task", ["summarize", "classify"])
    @pytest.mark.parametrize("finish, message", [
        ("length", "finish_reason 'length' .*raise --max-tokens"),
        ("content_filter", "finish_reason 'content_filter'"),
    ])
    def test_summarize_or_classify_fails_the_article(self, tmp_path, task, finish, message):
        with pytest.raises(EngineError, match=message):
            self.run(tmp_path, task, finish)
        assert task not in self.stored_tasks(tmp_path)

    @pytest.mark.parametrize("finish", ["length", "content_filter"])
    def test_connect_falls_back(self, tmp_path, finish):
        expected = run(self.ARTICLE, PipelineConfig(seed=1), ContestedEngine())
        record = self.run(tmp_path, "connect", finish)
        assert record.stats.classify_calls > 0
        assert (record.status, record.final["fallback"]) == ("complete", True)
        assert record.final["statements"] == expected.final["statements"]
        assert record.final["connected_text"] == " ".join(
            s["text"] for s in expected.final["statements"])
        assert self.stored_tasks(tmp_path) == {"summarize", "classify"}


class TestIndentedJson:
    @given(_JSON)
    def test_matches_json_dumps(self, value):
        assert indented_json(value) == json.dumps(value, sort_keys=True, ensure_ascii=False,
                                                  indent=2)

    @pytest.mark.parametrize("value", [
        {1: "a"}, {None: 1}, {"a": 1, 2: 3}, {"a": [{("t",): 1}]}, {b"k": 1}])
    def test_non_str_key_raises(self, value):
        with pytest.raises(TypeError):
            indented_json(value)


class TestRecordFilename:
    @pytest.mark.parametrize("article_id, name", [
        ("planted", "planted.json"),
        ("x" * 230, "x" * 230 + ".json"),
        ("a b", "a_b-c8687a08.json"),
        ("é/" * 60, "é_" * 60 + "-" + hashlib.sha256(("é/" * 60).encode()).hexdigest()[:8]
         + ".json"),
    ], ids=["safe", "longest-kept", "unsafe", "unsafe-multibyte"])
    def test_names_that_fit_are_kept(self, article_id, name):
        assert record_filename(article_id) == name

    @pytest.mark.parametrize("article_id", ["x" * 231, "x" * 300, "é" * 200, "x" * 3 + "é" * 200,
                                            "/" * 300])
    def test_long_id_is_cut_to_fit_the_temp_suffix(self, article_id):
        name = record_filename(article_id)
        digest = hashlib.sha256(article_id.encode()).hexdigest()[:8]
        assert name.endswith(digest + ".json")
        assert len((name + ".4194304-4194304.tmp").encode()) <= 255
        assert record_filename(article_id + "y") != name


class TestRandomizedPipeline:
    def test_runs_complete_on_random_articles(self):
        import random

        rng = random.Random(5)
        for _ in range(5):
            article = random_article(rng, rng.randint(10, 40))
            record = run(article, PipelineConfig(concurrency=2))
            assert record.status == "complete"


class PlantingEngine(MockEngine):
    """MockEngine that appends plant sentences to chosen samples: `plants`
    maps (window text, sample) to the sentences to append. With seed 1 a
    summarize call's seed is its sample number."""

    def __init__(self, plants: dict):
        self.plants = plants

    def summarize(self, window_text, params=None):
        extra = self.plants.get((window_text, params.seed), [])
        return " ".join([super().summarize(window_text, params), *extra])


_PLANTS = [" ".join(f"Plant{p}w{j}" for j in range(4)) + "." for p in range(4)]


class TestMinPtsFilter:
    @given(k=st.integers(1, 4), step_size=st.sampled_from([10, 20]),
           eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), data=st.data())
    @settings(deadline=None)
    def test_a_plant_survives_exactly_when_minpts_summaries_hold_it(self, k, step_size,
                                                                   eps, data):
        """Plants share no token with the article or with each other, so
        only their own copies lie within eps of them. A plant is in `final`
        exactly when at least MinPts distinct local summaries hold it; copies
        repeated within one summary add no support."""
        article = random_article(random.Random(3), 12, min_words=5, max_words=15)
        min_pts = data.draw(st.integers(1, k), label="min_pts")
        plan = build_window_plan(article, k * step_size, step_size)
        samples = [(window_text(article, window), rep)
                   for window in plan.windows for rep in range(1, window.repetitions + 1)]
        chosen = data.draw(st.lists(st.lists(st.sampled_from(range(len(_PLANTS))), max_size=3),
                                    min_size=len(samples), max_size=len(samples)),
                           label="plants per sample")
        engine = PlantingEngine({sample: [_PLANTS[p] for p in plants]
                                 for sample, plants in zip(samples, chosen)})
        config = PipelineConfig(window_size=k * step_size, step_size=step_size, eps=eps,
                                min_pts=min_pts, seed=1, concurrency=2)
        record = run(article, config, engine)
        support = Counter(p for plants in chosen for p in set(plants))
        final = {s["text"] for s in record.final["statements"]}
        assert {p for p, plant in enumerate(_PLANTS) if plant in final} == {
            p for p, count in support.items() if count >= min_pts}
