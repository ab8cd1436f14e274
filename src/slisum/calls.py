"""The call path: `CachedEngine.ask` asks for every reply the pipeline uses.

A reply the `ResponseCache` holds is served on the asking thread. Any other
call waits on the queue `ask` picks for its task, then for one of the
`CallScheduler`'s `concurrency` call slots, which each attempt at a backend
call holds while in flight, however many articles are started; a backoff
between attempts holds none. Summarize calls go to the generation queue
(`submit`), whose `concurrency + 1` dispatch threads let another queued call
take the slot a backoff left. Classify and connect calls, sent by an
article's finish, go to `finishing`, whose `concurrency` threads wait for a
slot but never behind newer articles' queued generations.
"""
from __future__ import annotations

import json
import logging
import os
import re
import threading
from collections import Counter
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress
from dataclasses import replace

from .engine import (
    EngineError,
    EngineParams,
    SummaryEngine,
    json_loads,
    request,
    request_hash,
    request_id,
)
from .record import RunStats
from .text import ConfigurationError

log = logging.getLogger(__name__)

LOG_NAME = "responses.jsonl"  # the response cache's log, in its directory
_KEY_LEN = 64  # hex digits of a cache key; a log line starts with its key and a tab
_LINE_KEY = re.compile(rb"[0-9a-f]{64}\t")


def _read_entry(line: bytes) -> dict:
    """The entry of a log line, `<key>\\t<entry as JSON>`; ValueError if the
    key or entry does not parse, or its text cannot be written as UTF-8."""
    if not _LINE_KEY.match(line):
        raise ValueError("no cache key")
    entry = json_loads(line[_KEY_LEN + 1:])
    if not isinstance(entry, dict) or not isinstance(entry.get("text"), str):
        raise ValueError("malformed cache entry")
    # A text holding a lone surrogate escape ("\ud800") parses but cannot be
    # written out; UnicodeEncodeError is a ValueError.
    entry["text"].encode("utf-8")
    return entry


class ResponseCache:
    """Content-addressed cache of engine responses: one append-only log per
    directory (as in Bitcask) and an in-memory index of its keys.

    Keys are opaque to the cache; `CachedEngine` hashes the backend's
    identity, the whole request and the sample number. `responses.jsonl` holds one
    line per stored entry, `<key>\\t<entry as JSON>`, written by one append;
    the first readable line for a key is its entry, so every process sharing
    the directory on a local filesystem serves the same answer. The index maps
    each key to its line's (offset, length), not to the text, and learns
    appended lines lazily. Each complete line is checked once, when it is
    indexed: an unreadable one, including one whose text holds a lone
    surrogate, gets one warning and is never indexed, so every indexed key can
    be served. `get` draws each missing key once per cache, however many
    callers ask for it at the same moment. Opening a cache creates nothing and
    checks that the log, if any, is a file; a store creates a missing directory.
    """

    def __init__(self, directory: str):
        self.path = os.path.join(directory, LOG_NAME)
        if os.path.exists(self.path) and not os.path.isfile(self.path):
            raise ConfigurationError(f"not a file: {self.path}")
        self._index: dict[str, tuple[int, int]] = {}
        self._indexed_to = 0  # every complete line before this offset is indexed
        self._lock = threading.Lock()
        # key -> [the lock its callers take turns on, how many hold or wait on it]
        self._turns: dict[str, list] = {}

    def get(self, key: str, task: str, fetch: Callable[[], str]) -> tuple[str, bool]:
        """(text, hit): the text of the key's first readable line and True,
        or else fetch()'s text, stored under the key, and False. Callers take
        turns on the key's lock to do this (single-flight, as in Go's
        golang.org/x/sync/singleflight): a caller that waited finds the
        stored line, a hit, or, if the fetch raised, fetches the key itself.
        A key's lock lives only while a caller holds or waits on it."""
        with self._lock:
            turn = self._turns.setdefault(key, [threading.Lock(), 0])
            turn[1] += 1
        try:
            with turn[0]:
                entry = self.lookup(key)
                if entry is not None:
                    return entry["text"], True
                return self.store(key, {"text": fetch(), "task": task}), False
        finally:
            with self._lock:
                turn[1] -= 1
                if not turn[1]:
                    del self._turns[key]

    def lookup(self, key: str) -> dict | None:
        """The entry of the key's first readable line, or None."""
        with self._lock:
            if key not in self._index:
                self._catch_up()
            span = self._index.get(key)
        if span is None:
            return None
        offset, length = span
        try:
            fd = os.open(self.path, os.O_RDONLY)
            try:
                line = os.pread(fd, length, offset)
            finally:
                os.close(fd)
            if line[:_KEY_LEN] != key.encode("ascii"):
                raise ValueError("the log changed under its index")
            return _read_entry(line)
        except (ValueError, OSError) as exc:
            log.warning("skipping unreadable line at byte %d of %s (%s)",
                        offset, self.path, exc)
            with self._lock:
                if self._index.get(key) == span:
                    del self._index[key]
            return None

    def store(self, key: str, entry: dict) -> str:
        """Append `entry` under `key` and return the text of the key's first
        readable line: another writer's, if it stored the key first."""
        line = f"{key}\t{json.dumps(entry, ensure_ascii=False)}\n".encode("utf-8")
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        except FileNotFoundError:  # the first store in a directory not made yet
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if os.write(fd, line) != len(line):
                raise OSError(f"short append to {self.path}")
            end = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        span = (end - len(line), len(line) - 1)
        with self._lock:
            if self._indexed_to == span[0]:  # nothing was appended before this line
                self._index.setdefault(key, span)
                self._indexed_to = end
            if self._index.get(key) == span:
                return entry["text"]
        stored = self.lookup(key)
        return entry["text"] if stored is None else stored["text"]

    def count(self) -> int:
        """Number of keys a lookup can serve."""
        with self._lock:
            self._catch_up()
            return len(self._index)

    def clear(self) -> int:
        """Delete the log, and nothing else in the directory; return the
        number of entries it could serve."""
        removed = self.count()
        with self._lock:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            self._index.clear()
            self._indexed_to = 0
        return removed

    def _catch_up(self) -> None:
        """Index the complete lines appended since the last read, checking each
        one; the caller holds the lock."""
        try:
            if os.stat(self.path).st_size <= self._indexed_to:
                return
            with open(self.path, "rb") as fh:
                fh.seek(self._indexed_to)
                for line in fh:
                    if not line.endswith(b"\n"):  # an incomplete last line
                        return
                    key = line[:_KEY_LEN].decode("latin-1")
                    if key not in self._index:  # a later line of a key is never served
                        try:
                            _read_entry(line)
                            self._index[key] = (self._indexed_to, len(line) - 1)
                        except ValueError as exc:
                            log.warning("skipping unreadable line at byte %d of %s (%s)",
                                        self._indexed_to, self.path, exc)
                    self._indexed_to += len(line)
        except FileNotFoundError:
            pass


class CachedEngine:
    """Engine wrapper that serves repeats from the cache, retries failed
    attempts and logs every call. Its summarize, classify and connect return
    the reply text, as a backend's do; `ask` is how the pipeline asks for one.

    With a cache, concurrent calls for one key share a single backend call
    through `ResponseCache.get`. Without one, every call goes to the backend.
    `calls` gets one (task, cache_hit) entry per call, where a call served by
    another's fetch counts as a hit; the scheduler's threads append to it
    concurrently, which a list append tolerates. `retries` counts the attempts
    made after a retryable failure; `stats` reads both.
    """

    def __init__(self, engine: SummaryEngine, cache: ResponseCache | None,
                 scheduler: CallScheduler):
        self.engine = engine
        self.cache = cache
        self.scheduler = scheduler
        self.calls: list[tuple[str, bool]] = []
        self.retries = 0
        self._retries_lock = threading.Lock()

    def _key(self, task: str, items: str | list[str], params: EngineParams | None,
             sample: int = 1) -> str:
        return request_hash({"backend": self.engine.identity,
                             "request": request(task, items, params), "sample": sample})

    def ask(self, task: str, items: str | list[str], params: EngineParams | None,
            sample: int = 1) -> Future:
        """The reply to this call, as a future: one the cache holds is read
        on this thread and logged as a call the cache served; otherwise the
        call goes to its task's queue, through this engine's method for the
        task, given the key computed here."""
        key = entry = None
        if self.cache is not None:
            key = self._key(task, items, _sampled(task, params, sample), sample)
            with suppress(OSError):  # an unreadable log fails the call made below
                entry = self.cache.lookup(key)
        if entry is not None:
            self.calls.append((task, True))
            return done(entry["text"])
        if task == "summarize":
            return self.scheduler.submit(self.summarize, items, params, sample, key=key)
        return self.scheduler.finishing.submit(getattr(self, task), items, params, key=key)

    def stats(self, elapsed_s: float) -> RunStats:
        """The calls and retries logged so far, counted, and `elapsed_s`."""
        tasks = Counter(task for task, _ in self.calls)
        hits = sum(hit for _, hit in self.calls)
        return RunStats(backend_calls=len(self.calls) - hits, cache_hits=hits,
                        retries=self.retries, summarize_calls=tasks["summarize"],
                        classify_calls=tasks["classify"], connect_calls=tasks["connect"],
                        elapsed_s=elapsed_s)

    def _call(self, task: str, items: str | list[str], params: EngineParams | None,
              sample: int = 1, key: str | None = None) -> str:
        params = _sampled(task, params, sample)
        if self.cache is None:
            text, hit = self._fetch(task, items, params, sample), False
        else:
            key = key or self._key(task, items, params, sample)
            try:
                text, hit = self.cache.get(
                    key, task, lambda: self._fetch(task, items, params, sample))
            except OSError as exc:  # the log cannot be read or written: this call fails
                reason = exc.strerror or exc
                raise EngineError(f"response cache {self.cache.path}: {reason}") from exc
        self.calls.append((task, hit))
        return text

    def _fetch(self, task: str, items: str | list[str], params: EngineParams | None,
               sample: int) -> str:
        """The backend's answer, in up to the engine's `max_attempts`
        attempts, each holding a call slot. An OSError the engine raises fails
        the call at once, as a non-retryable EngineError, so the cache never
        reports it as its own."""
        call = getattr(self.engine, task)
        # Without a seed the K samples of a window send one payload: a
        # summarize call's warnings and errors name its sample too.
        sample_name = f" sample {sample}" if task == "summarize" else ""
        attempt = 1
        while True:
            try:
                with self.scheduler.slots:
                    return call(items, params)
            except OSError as exc:
                name = request_id(request(task, items, params)) + sample_name
                raise EngineError(f"request {name}: {type(exc).__name__}: {exc}") from exc
            except EngineError as exc:
                if exc.request:
                    exc.request += sample_name
                if not exc.retryable:
                    raise
                if attempt >= self.engine.max_attempts:
                    raise EngineError(f"request {exc.request}: failed after {attempt} "
                                      f"attempts ({exc.reason})") from exc
                with self._retries_lock:
                    self.retries += 1
                self.engine.backoff(attempt, exc)
                attempt += 1

    def summarize(self, window_text: str, params: EngineParams | None = None,
                  sample: int = 1, key: str | None = None) -> str:
        """Draw sample number `sample` (from 1) of this window's summary. Each
        sample is its own cache entry, and with a seed set sample r sends
        seed + r - 1, so the K repetitions of a window are K draws."""
        return self._call("summarize", window_text, params, sample, key)

    def classify(self, statements: list[str], params: EngineParams | None = None,
                 key: str | None = None) -> str:
        return self._call("classify", statements, params, key=key)

    def connect(self, statements: list[str], params: EngineParams | None = None,
                key: str | None = None) -> str:
        return self._call("connect", statements, params, key=key)


def _sampled(task: str, params: EngineParams | None, sample: int) -> EngineParams | None:
    """The params a call sends: sample r of a summarize call with a seed set
    sends seed + r - 1."""
    if task == "summarize" and params is not None and params.seed is not None:
        return replace(params, seed=params.seed + sample - 1)
    return params


def done(value) -> Future:
    """A future whose result is `value`."""
    future = Future()
    future.set_result(value)
    return future


class CallScheduler(ThreadPoolExecutor):
    """Call slots and the two queues shared by every article of a run:
    `submit` runs a call on a dispatch thread and `finishing.submit` on a
    finishing thread, each in FIFO order.

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
