"""One process-wide scheduler for the backend calls of every started article.

A `CallScheduler` owns `concurrency` call slots. An attempt at a backend call
holds one while it is in flight, so no more than `concurrency` calls are ever
in flight in the process, however many articles are started; a backoff
between attempts takes none. A reply the cache holds is served on the thread
asking for it; calls it does not hold wait for a slot from one of two queues:

* the generation queue (`submit`) holds the window generations of started
  articles, run by `concurrency + 1` dispatch threads, one more than the
  slots, so while one call waits out a backoff another queued call can take
  the slot it left;
* `finishing` holds what an article's finish sends out: its classify calls
  and its connect call, run by `concurrency` threads of their own, so they
  wait for a slot but never behind newer articles' queued generations.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from .text import ConfigurationError


class CallScheduler(ThreadPoolExecutor):
    """Call slots and dispatch threads shared by every article of a run;
    `submit` runs a window generation on a dispatch thread, in FIFO order,
    and `finishing.submit` runs a classify or connect call of an article
    being finished, in FIFO order among those.

    Leaving it as a context manager cancels the calls still queued and waits
    for the running ones.
    """

    def __init__(self, concurrency: int):
        if concurrency < 1:
            raise ConfigurationError(f"concurrency must be >= 1, got {concurrency}")
        self.concurrency = concurrency
        self.slots = threading.BoundedSemaphore(self.concurrency)  # held per attempt
        super().__init__(self.concurrency + 1, thread_name_prefix="slisum-call")
        self.finishing = ThreadPoolExecutor(self.concurrency, thread_name_prefix="slisum-finish")

    def __exit__(self, *exc) -> None:
        self.finishing.shutdown(wait=True, cancel_futures=True)
        self.shutdown(wait=True, cancel_futures=True)
