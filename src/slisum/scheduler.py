"""One process-wide scheduler for the backend calls of every started article.

A `CallScheduler` owns `concurrency` call slots. An attempt at a backend call
holds one while it is in flight, so no more than `concurrency` calls are ever
in flight in the process, however many articles are started; a cache hit and
a backoff between attempts take none. It runs `concurrency + 1` dispatch
threads, one more than the slots, so while one call waits out a backoff
another queued call can take the slot it left.
The scheduler also holds the run's open response caches, one per cache
directory, so all its articles share one log index and one set of in-flight
keys.
"""
from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pipeline import ResponseCache


class CallScheduler:
    """Call slots, dispatch threads and response caches shared by every
    article of a run.

    Use it as a context manager: leaving it waits for the dispatch threads.
    """

    def __init__(self, concurrency: int):
        self.concurrency = max(1, concurrency)
        self.slots = threading.BoundedSemaphore(self.concurrency)  # held per attempt
        self._dispatch = ThreadPoolExecutor(self.concurrency + 1,
                                            thread_name_prefix="slisum-call")
        self.caches: dict[str, ResponseCache] = {}  # by cache directory, set by pipeline.start

    def __enter__(self) -> "CallScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self._dispatch.shutdown(wait=True, cancel_futures=True)

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Run fn on one of the `concurrency + 1` dispatch threads, in FIFO order."""
        return self._dispatch.submit(fn, *args, **kwargs)
