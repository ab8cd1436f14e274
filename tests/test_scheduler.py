import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from slisum.engine import EngineParams, HttpEngine, MockEngine
from slisum.calls import CachedEngine, CallScheduler, ResponseCache

from conftest import cache_key


class CountingEngine(MockEngine):
    """Echoes the window, slowly, counting calls per text and calls in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.calls: dict[str, int] = {}
        self.in_flight = self.peak = 0

    def summarize(self, window_text, params=None):
        with self.lock:
            self.calls[window_text] = self.calls.get(window_text, 0) + 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.005)
            return window_text
        finally:
            with self.lock:
                self.in_flight -= 1


def test_shared_calls_and_slots_under_contention(tmp_path):
    """Many threads asking for a few keys at once: each key reaches the
    backend once, and calls in flight never exceed the slots."""
    engine = CountingEngine()
    texts = [f"Window number {i} text." for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CallScheduler(3) as scheduler, ThreadPoolExecutor(max_workers=16) as pool:
            cached = CachedEngine(engine, ResponseCache(str(tmp_path)), scheduler)
            asks = [texts[i % len(texts)] for i in range(400)]
            answers = list(pool.map(lambda t: cached.summarize(t, EngineParams(model="m")),
                                    asks, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert answers == asks
    assert engine.calls == {t: 1 for t in texts}
    assert engine.peak <= 3
    assert sum(not hit for _, hit in cached.calls) == len(texts)


def test_caller_waiting_on_a_failed_call_runs_its_own(tmp_path):
    """A caller that waited on a fetch which raised does not inherit the
    error: it fetches the key itself."""
    cache = ResponseCache(str(tmp_path))
    key = cache_key("summarize", "One window.", EngineParams())
    started = threading.Event()

    def failing():
        started.set()
        time.sleep(0.05)
        raise ValueError("backend down")

    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(cache.get, key, "summarize", failing)
        assert started.wait(timeout=10)
        second = pool.submit(cache.get, key, "summarize", lambda: "own answer")
        with pytest.raises(ValueError, match="backend down"):
            first.result(timeout=10)
        assert second.result(timeout=10) == ("own answer", False)
    assert cache.lookup(key) == {"text": "own answer", "task": "summarize"}


def test_caches_on_one_scheduler_draw_a_key_each(tmp_path):
    """Two caches with their own directories on one scheduler, asked for one
    key at the same moment: each draws it and stores it in its own log, and
    neither call counts as a hit."""
    entered = threading.Semaphore(0)
    release = threading.Event()

    class GatedEngine(MockEngine):
        def summarize(self, window_text, params=None):
            entered.release()
            assert release.wait(timeout=10)
            return window_text

    params = EngineParams(model="m")
    with CallScheduler(2) as scheduler:
        engines = [CachedEngine(GatedEngine(), ResponseCache(str(tmp_path / name)), scheduler)
                   for name in ("a", "b")]
        first = scheduler.submit(engines[0].summarize, "One window.", params)
        assert entered.acquire(timeout=10)
        second = scheduler.submit(engines[1].summarize, "One window.", params)
        both_in_flight = entered.acquire(timeout=2)
        release.set()
        assert [first.result(timeout=10), second.result(timeout=10)] == ["One window."] * 2
    assert both_in_flight
    assert [cached.calls for cached in engines] == [[("summarize", False)]] * 2
    key = cache_key("summarize", "One window.", params)
    for name in ("a", "b"):
        with open(tmp_path / name / "responses.jsonl", encoding="utf-8") as fh:
            assert [line.split("\t")[0] for line in fh] == [key]


def test_failed_first_fetches_leave_one_answer_per_key(tmp_path):
    """Many callers ask for a few keys at once, and the first fetch of each
    key raises: every caller that does not raise gets the text of the key's
    first stored line, and a later call for each key is a hit."""
    cache = ResponseCache(str(tmp_path))
    keys = [cache_key("summarize", f"Window {i}.", EngineParams()) for i in range(4)]
    lock = threading.Lock()
    fetches = dict.fromkeys(keys, 0)

    def fetch_of(key):
        def fetch():
            with lock:
                fetches[key] += 1
                draw = fetches[key]
            time.sleep(0.002)
            if draw == 1:
                raise ValueError("first draw fails")
            return f"{key[:8]} draw {draw}"
        return fetch

    asks = [keys[i % len(keys)] for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(cache.get, key, "summarize", fetch_of(key)) for key in asks]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=60))
                except ValueError:
                    outcomes.append(None)
    finally:
        sys.setswitchinterval(interval)
    first_lines = {}
    with open(tmp_path / "responses.jsonl", encoding="utf-8") as fh:
        for line in fh:
            key, entry = line.split("\t")
            first_lines.setdefault(key, json.loads(entry)["text"])
    assert outcomes.count(None) == len(keys)
    assert all(outcome in {None, (first_lines[key], True), (first_lines[key], False)}
               for key, outcome in zip(asks, outcomes))
    assert sum(outcome is not None and not outcome[1] for outcome in outcomes) == len(keys)
    for key in keys:
        assert cache.get(key, "summarize", fetch_of(key)) == (first_lines[key], True)
    assert fetches == dict.fromkeys(keys, 2)


def test_key_locks_live_only_while_callers_hold_or_wait(tmp_path):
    """The cache keeps a key's lock only while a caller holds or waits on
    it: sequential gets, concurrent gets and a fetch that raised while
    another caller waited on its key all leave the lock table empty."""
    cache = ResponseCache(str(tmp_path))
    keys = [cache_key("summarize", f"Window {i}.", EngineParams()) for i in range(40)]
    for key in keys[:20]:
        assert cache.get(key, "summarize", lambda: "drawn") == ("drawn", False)
        assert cache.get(key, "summarize", lambda: "unused") == ("drawn", True)
    assert cache._turns == {}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(lambda key: cache.get(key, "summarize", lambda: "drawn"),
                          keys * 5, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert cache._turns == {}

    key = cache_key("summarize", "Failing window.", EngineParams())
    started, release = threading.Event(), threading.Event()

    def failing():
        started.set()
        assert release.wait(timeout=10)
        raise ValueError("backend down")

    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(cache.get, key, "summarize", failing)
        assert started.wait(timeout=10)
        second = pool.submit(cache.get, key, "summarize", lambda: "own answer")
        deadline = time.monotonic() + 10
        while cache._turns[key][1] < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert cache._turns[key][1] == 2  # the second caller waits on the key
        release.set()
        with pytest.raises(ValueError, match="backend down"):
            first.result(timeout=10)
        assert second.result(timeout=10) == ("own answer", False)
    assert cache._turns == {}


def test_backoff_leaves_the_slot_to_another_call():
    """At concurrency 1, a call waiting out a 429 backoff holds no call slot
    and no dispatch thread another call needs: a call submitted after the
    refusal runs and completes while the first one waits."""
    refused = threading.Event()
    other_done = threading.Event()
    waits = []

    def transport(payload, timeout):
        text = payload["messages"][1]["content"]
        if text == "First window." and not refused.is_set():
            refused.set()
            return 429, {"error": {"message": "rate limited"}}
        return 200, {"choices": [{"message": {"content": text}}]}

    def sleep(seconds):
        waits.append(other_done.wait(timeout=5))

    engine = HttpEngine(transport=transport, sleep=sleep)
    with CallScheduler(1) as scheduler:
        cached = CachedEngine(engine, None, scheduler)
        first = scheduler.submit(cached.summarize, "First window.")
        assert refused.wait(timeout=10)
        second = scheduler.submit(cached.summarize, "Second window.")
        second.add_done_callback(lambda future: other_done.set())
        assert first.result(timeout=30) == "First window."
        assert second.result(timeout=30) == "Second window."
    assert waits == [True]
    assert cached.retries == 1


def test_leaving_cancels_queued_calls_and_waits_for_running_ones():
    """Leaving a CallScheduler cancels the calls still queued and returns
    only once the running ones have."""
    running = threading.Semaphore(0)
    release = threading.Event()

    def blocked():
        running.release()
        release.wait(timeout=10)
        return "done"

    timer = threading.Timer(0.05, release.set)
    with CallScheduler(1) as scheduler:
        active = [scheduler.submit(blocked) for _ in range(2)]
        assert running.acquire(timeout=10) and running.acquire(timeout=10)
        queued = [scheduler.submit(blocked) for _ in range(3)]
        timer.start()
    timer.join()
    assert [future.cancelled() for future in queued] == [True] * 3
    assert [future.result(timeout=0) for future in active] == ["done"] * 2
