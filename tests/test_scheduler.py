import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from slisum.engine import EngineParams, HttpEngine, MockEngine
from slisum.pipeline import CachedEngine, ResponseCache
from slisum.scheduler import CallScheduler


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


def test_caller_waiting_on_a_failed_call_runs_its_own():
    """A caller that joined a shared call which raised does not inherit the
    error: it calls again itself."""
    started = threading.Event()

    def failing():
        started.set()
        time.sleep(0.05)
        raise ValueError("backend down")

    with CallScheduler(2) as scheduler, ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(scheduler.single_flight, "key", failing)
        assert started.wait(timeout=10)
        second = pool.submit(scheduler.single_flight, "key", lambda: "own answer")
        with pytest.raises(ValueError, match="backend down"):
            first.result(timeout=10)
        assert second.result(timeout=10) == ("own answer", False)


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
