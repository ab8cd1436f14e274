"""One process-wide scheduler for the backend calls of every started article.

A `CallScheduler` owns `concurrency` call slots. An attempt at a backend call
holds one while it is in flight, so no more than `concurrency` calls are ever
in flight in the process, however many articles are started; a cache hit and
a backoff between attempts take none. It runs `concurrency + 1` dispatch
threads, one more than the slots, so while one call waits out a backoff
another queued call can take the slot it left.
Concurrent requests for one cache key share the first one's call
(single-flight, as in Go's golang.org/x/sync/singleflight), so a key is drawn
from the backend once even when two articles or two windows ask for it at the
same moment. The scheduler also holds the run's open response caches, one
per cache directory, so all its articles share one log index.
"""
from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pipeline import ResponseCache


class CallScheduler:
    """Call slots, single-flight, dispatch threads and response caches shared
    by every article of a run.

    Use it as a context manager: leaving it waits for the dispatch threads.
    """

    def __init__(self, concurrency: int):
        self.concurrency = max(1, concurrency)
        self.slots = threading.BoundedSemaphore(self.concurrency)  # held per attempt
        self._dispatch = ThreadPoolExecutor(self.concurrency + 1,
                                            thread_name_prefix="slisum-call")
        self._flights: dict[str, Future] = {}
        self._flights_lock = threading.Lock()
        self.caches: dict[str, ResponseCache] = {}  # by cache directory, set by pipeline.start

    def __enter__(self) -> "CallScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self._dispatch.shutdown(wait=True, cancel_futures=True)

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Run fn on one of the `concurrency + 1` dispatch threads, in FIFO order."""
        return self._dispatch.submit(fn, *args, **kwargs)

    def single_flight(self, key: str, fn: Callable[[], object]) -> tuple[object, bool]:
        """(fn(), False) for the first caller of `key`. A caller arriving
        while that call runs waits for it and gets (its result, True); if it
        raised, the waiting caller starts over and may run fn itself, so one
        caller's failed call does not fail the others. Once the call returns,
        the next caller runs fn again, so fn must make its result findable (a
        cache store) before returning."""
        while True:
            with self._flights_lock:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = self._flights[key] = Future()
            if leader:
                break
            if flight.exception() is None:
                return flight.result(), True
        try:
            result = fn()
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._flights_lock:
                del self._flights[key]
        flight.set_result(result)
        return result, False
