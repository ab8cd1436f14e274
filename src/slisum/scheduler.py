"""One process-wide scheduler for the backend calls of every open article.

A `CallScheduler` owns `concurrency` call slots. A backend call holds one
while it is in flight, so no more than `concurrency` calls are ever in flight
in the process, however many articles are open; a cache hit takes none.
Concurrent requests for one cache key share the first one's call
(single-flight, as in Go's golang.org/x/sync/singleflight), so a key is drawn
from the backend once even when two articles or two windows ask for it at the
same moment.

`overlap` keeps up to concurrency + 1 articles open, so later articles'
summarize calls fill the slots an article leaves idle while it clusters,
votes and connects. The CPU stages of all articles take turns under one lock
(`cpu_turn`), which a thread gives up whenever it waits for a backend call.
"""
from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager


class CallScheduler:
    """Call slots, single-flight and CPU turns shared by every article of a run.

    Use it as a context manager: leaving it waits for the dispatch threads.
    """

    def __init__(self, concurrency: int):
        self.concurrency = max(1, concurrency)
        self._slots = threading.BoundedSemaphore(self.concurrency)
        self._dispatch = ThreadPoolExecutor(self.concurrency, thread_name_prefix="slisum-call")
        self._flights: dict[str, Future] = {}
        self._flights_lock = threading.Lock()
        self._cpu = threading.Lock()
        self._turn = threading.local()

    def __enter__(self) -> "CallScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self._dispatch.shutdown(wait=True, cancel_futures=True)

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Run fn on one of the `concurrency` dispatch threads, in FIFO order."""
        return self._dispatch.submit(fn, *args, **kwargs)

    @contextmanager
    def slot(self):
        """Hold one call slot for the block; a thread holding the CPU turn
        gives it up while it waits and calls."""
        with self._idle(), self._slots:
            yield

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
            with self._idle():
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

    @contextmanager
    def cpu_turn(self):
        """Run the block as the only article computing; waiting for a slot or
        a shared call inside it gives the turn up until the wait ends."""
        with self._cpu:
            self._turn.held = True
            try:
                yield
            finally:
                self._turn.held = False

    @contextmanager
    def _idle(self):
        """Give this thread's CPU turn up for the block, if it holds it."""
        if not getattr(self._turn, "held", False):
            yield
            return
        self._turn.held = False
        self._cpu.release()
        try:
            yield
        finally:
            self._cpu.acquire()
            self._turn.held = True

    def overlap(self, fn: Callable, items: Iterable) -> Iterator[Future]:
        """Futures of fn(item) in input order, with at most concurrency + 1
        calls of fn open at once: the next item starts once the caller is done
        with the oldest future and asks for the next one."""
        with ThreadPoolExecutor(self.concurrency + 1, thread_name_prefix="slisum-article") as pool:
            pending: deque = deque()
            for item in items:
                if len(pending) > self.concurrency:
                    yield pending.popleft()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft()
