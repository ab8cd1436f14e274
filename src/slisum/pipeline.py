"""End-to-end orchestration: sliding generation, filtration, aggregation.

Also owns configuration resolution (length-chosen window geometry, K/2
MinPts rule) and the content-addressed response cache wrapped around any
engine backend.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import Executor, Future, wait
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace

from .aggregate import arrange, integrate, vote
from .cluster import (
    ClusterSet,
    Statement,
    dbscan,
    default_min_pts,
    filter_clusters,
    local_summary_count,
)
from .engine import (
    EngineError,
    EngineParams,
    SummaryEngine,
    json_loads,
    make_engine,
    parse_classification_response,
    request,
    request_hash,
    request_id,
)
from .lexical import TokenBag, tokenize
from .scheduler import CallScheduler
from .text import (
    Article,
    ConfigurationError,
    Window,
    WindowPlan,
    build_window_plan,
    k_ratio,
    segment_sentences,
    window_text,
)

log = logging.getLogger(__name__)

SHORT_ARTICLE_MAX_WORDS = 3000
SHORT_GEOMETRY = (150, 50)  # window/step words, K=3
LONG_GEOMETRY = (750, 150)  # K=5
DEFAULT_EPS = 0.25
BREAKEVEN_FACTOR = 1.36
LOG_NAME = "responses.jsonl"  # the response cache's log, in its directory
_KEY_LEN = 64  # hex digits of a cache key; a log line starts with its key and a tab
_LINE_KEY = re.compile(rb"[0-9a-f]{64}\t")
_encode_str = json.encoder.encode_basestring  # a str as JSON, non-ASCII kept
# indented_json's writers of the scalars records hold most, by exact type (so
# a bool, an int subclass, is not written as an int)
_WRITERS = {str: _encode_str, int: int.__repr__}
_WINDOW_FIELDS = tuple(f.name for f in fields(Window))


@dataclass
class PipelineConfig:
    """Run settings; unset ones are filled in per article by `resolved`."""

    window_size: int | None = None
    step_size: int | None = None
    eps: float | None = None
    min_pts: int | None = None
    backend: str = "mock"
    model: str | None = None
    max_tokens: int = 1024
    concurrency: int = 4
    cache_dir: str | None = None
    seed: int | None = None

    @property
    def k(self) -> int:
        """Coverage ratio K of the window geometry; needs both sizes set."""
        return k_ratio(self.window_size, self.step_size)

    def resolved(self, article_words: int) -> "PipelineConfig":
        """Every setting filled in: the window geometry by article length
        (150/50 under 3000 words, else 750/150), eps 0.25 and MinPts half of K
        rounded up, unless set; ConfigurationError if one is out of range."""
        window_size, step_size = (
            SHORT_GEOMETRY if article_words < SHORT_ARTICLE_MAX_WORDS else LONG_GEOMETRY
        )
        config = replace(
            self,
            window_size=window_size if self.window_size is None else self.window_size,
            step_size=step_size if self.step_size is None else self.step_size,
            eps=DEFAULT_EPS if self.eps is None else self.eps,
        )
        k = config.k
        if config.min_pts is None:
            config.min_pts = default_min_pts(k)
        if not 0.0 < config.eps < 1.0:
            raise ConfigurationError(f"eps must be in (0, 1), got {config.eps}")
        if not 1 <= config.min_pts <= k:
            raise ConfigurationError(f"min_pts {config.min_pts} outside [1, {k}]")
        if config.max_tokens < 1:
            raise ConfigurationError(f"max_tokens must be >= 1, got {config.max_tokens}")
        return config


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
        self._turns: dict[str, threading.Lock] = {}  # key -> the lock its callers take turns on

    def get(self, key: str, task: str, fetch: Callable[[], str]) -> tuple[str, bool]:
        """(text, hit): the text of the key's first readable line and True,
        or else fetch()'s text, stored under the key, and False. Callers take
        turns on the key's lock to do this (single-flight, as in Go's
        golang.org/x/sync/singleflight): a caller that waited finds the
        stored line, a hit, or, if the fetch raised, fetches the key itself.
        A key's lock is made on its first call and kept for the cache's
        life."""
        with self._lock:
            turn = self._turns.setdefault(key, threading.Lock())
        with turn:
            entry = self.lookup(key)
            if entry is not None:
                return entry["text"], True
            return self.store(key, {"text": fetch(), "task": task}), False

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

    Each attempt at a backend call holds one of the scheduler's call slots,
    and the backoff between attempts holds none. With a cache, concurrent
    calls for one key share a single backend call through `ResponseCache.get`.
    Without one, every call goes to the backend. `calls` gets one (task,
    cache_hit) entry per call, where a call served by another's fetch counts
    as a hit; the scheduler's threads append to it concurrently, which a list
    append tolerates. `retries` counts the attempts made after a retryable failure.
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

    def ask(self, executor: Executor, task: str, items: str | list[str],
            params: EngineParams | None, sample: int = 1) -> Future:
        """The reply to this call, as a future: one the cache holds is read
        on this thread and logged as a call the cache served; otherwise the
        call goes to `executor`, through this engine's method for the task,
        given the key computed here."""
        key = entry = None
        if self.cache is not None:
            key = self._key(task, items, _sampled(task, params, sample), sample)
            with suppress(OSError):  # an unreadable log fails the call made below
                entry = self.cache.lookup(key)
        if entry is not None:
            self.calls.append((task, True))
            return _done(entry["text"])
        args = (items, params, sample) if task == "summarize" else (items, params)
        return executor.submit(getattr(self, task), *args, key=key)

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
        attempts. A slot is held for each attempt only, so while this call
        waits out the engine's backoff another call can use it. An OSError
        the engine raises fails the call at once, as a non-retryable
        EngineError, so the cache never reports it as its own."""
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


@dataclass
class RunStats:
    """Volatile per-run diagnostics, kept out of the canonical serialization so
    reruns stay byte-identical."""

    backend_calls: int = 0
    cache_hits: int = 0
    retries: int = 0
    summarize_calls: int = 0
    classify_calls: int = 0
    connect_calls: int = 0
    elapsed_s: float = 0.0

    @classmethod
    def from_calls(cls, calls: list[tuple[str, bool]], elapsed_s: float,
                   retries: int = 0) -> "RunStats":
        tasks = Counter(task for task, _ in calls)
        hits = sum(hit for _, hit in calls)
        return cls(
            backend_calls=len(calls) - hits,
            cache_hits=hits,
            retries=retries,
            summarize_calls=tasks["summarize"],
            classify_calls=tasks["classify"],
            connect_calls=tasks["connect"],
            elapsed_s=elapsed_s,
        )


@dataclass
class RunRecord:
    article_id: str
    config: dict
    plan: dict
    status: str = "aborted"  # until finish() completes it
    local_summaries: list[dict] = field(default_factory=list)
    clusters: list[dict] = field(default_factory=list)
    noise: list[dict] = field(default_factory=list)
    votes: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=lambda: {
        "statements": [], "connected_text": "", "fallback": False})
    flags: list[str] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "stats"}

    def to_json(self) -> str:
        return indented_json(self.to_dict())


def indented_json(value, newline: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)`, the
    form of every record and report, for a value built of dicts, lists,
    tuples and JSON scalars; a dict key that is not a str raises TypeError.

    With `indent` set, CPython before 3.13 encodes in pure Python. Here each
    str or int is written by one C call, a list of only ints or only strings
    is joined in one C-level call, and any other scalar goes to `json.dumps`.
    `newline` is the line break before the value's closing bracket, followed
    by its indentation.
    """
    write = _WRITERS.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):  # _encode_str raises TypeError on a non-str key
            item = value[key]
            write = _WRITERS.get(type(item))
            items.append(_encode_str(key) + ": "
                         + (write(item) if write else indented_json(item, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        write = _WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(write, value) if write else [indented_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, ensure_ascii=False)


def _statement_dict(stmt: Statement) -> dict:
    return {
        "text": stmt.text,
        "window_ordinal": stmt.window_ordinal,
        "generation_seq": stmt.generation_seq,
        "position_in_summary": stmt.position_in_summary,
    }


def run(article: Article, config: PipelineConfig,
        engine: SummaryEngine | None = None) -> RunRecord:
    """Execute the full pipeline for one article and return its record,
    with a response cache in `config.cache_dir` when that is set and a
    scheduler of the configured concurrency."""
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None
    with CallScheduler(config.concurrency) as scheduler:
        return start(article, config, engine, cache, scheduler)[1]().result()


def start(
    article: Article,
    config: PipelineConfig,
    engine: SummaryEngine | None,
    cache: ResponseCache | None,
    scheduler: CallScheduler,
) -> tuple[RunRecord, Callable[[], Future]]:
    """Resolve the settings, plan the windows and ask for the article's window
    generations on the scheduler's generation queue; return the article's
    record, `aborted` until its connect step completes it, and `finish`.

    `finish()` waits for the generations and runs statement split,
    clustering, filtering, voting and arranging on the calling thread; the
    vote's classify calls and then the connect call are asked for on the
    scheduler's `finishing` threads. It returns a future whose result is the
    completed record, so the calling thread can finish the next article
    meanwhile: the connect step (the preservation check and the record's
    `final`) runs on the thread that completes the connect call, or at once
    for a stored reply or fewer than two winners. Every call is asked for
    through `CachedEngine.ask`, so a reply the cache holds is served on the
    asking thread. generation_seq numbering follows plan order, so
    concurrency never changes the result. On an engine failure `finish`
    cancels the article's calls not yet started, waits for the running ones,
    flags the record and returns a future holding the error; a connect step
    falls back instead. Neither writes a file, apart from the cache's log.
    Settings out of range raise ConfigurationError here, before any call.
    """
    started = time.monotonic()
    resolved = config.resolved(article.total_words)
    if engine is None:
        engine = make_engine(resolved.backend)
    cached = CachedEngine(engine, cache, scheduler)
    plan = build_window_plan(article, resolved.window_size, resolved.step_size)

    tasks = [
        (window, rep)
        for window in plan.windows
        for rep in range(1, window.repetitions + 1)
    ]
    params = EngineParams(model=resolved.model, max_tokens=resolved.max_tokens,
                          seed=resolved.seed)
    # Concurrency and the cache directory change speed and storage, not content.
    content_config = asdict(resolved)
    del content_config["concurrency"], content_config["cache_dir"]

    record = RunRecord(
        article_id=article.id,
        config={**content_config, "k": resolved.k},
        plan={
            "k_ratio": plan.k_ratio,
            "window_size": plan.window_size,
            "step_size": plan.step_size,
            "total_generations": plan.total_generations,
            "summarize_input_words": sum(w.word_count * w.repetitions for w in plan.windows),
            "breakeven_input_words": BREAKEVEN_FACTOR * plan.k_ratio * plan.window_size,
            "windows": [{f: getattr(w, f) for f in _WINDOW_FIELDS} for w in plan.windows],
        },
    )
    futures = [cached.ask(scheduler, "summarize", window_text(article, window), params, rep)
               for window, rep in tasks]

    def stats() -> RunStats:
        return RunStats.from_calls(cached.calls, time.monotonic() - started, cached.retries)

    def finish() -> Future:
        outcome = Future()
        try:
            summaries = _results(futures)
            connect, winners = _filter_and_aggregate(article, resolved, tasks, summaries,
                                                     cached, params, record)
        except EngineError as exc:
            record.flags.append("aborted: engine error")
            record.stats = stats()
            outcome.set_exception(exc)
            return outcome

        def connect_step(reply: Future) -> None:
            try:
                connect(lambda texts: reply.result())
                record.status = "complete"
                record.stats = stats()
            except BaseException as exc:  # a done-callback's own exception would be lost
                outcome.set_exception(exc)
            else:
                outcome.set_result(record)

        reply = (cached.ask(scheduler.finishing, "connect", winners, params)
                 if len(winners) > 1 else _done(None))  # one winner needs no connect call
        reply.add_done_callback(connect_step)
        return outcome

    return record, finish


def _filter_and_aggregate(article: Article, resolved: PipelineConfig, tasks: list,
                          summaries: list[str], cached: CachedEngine, params: EngineParams,
                          record: RunRecord) -> tuple[Callable[[Callable], None], list[str]]:
    """Fill the record from the local summaries: split them into statements,
    cluster, vote inside each retained cluster and arrange the winners; return
    the connect step, which connects them with the `ask` it is given and
    fills `record.final`.

    The classify calls of every contested cluster are asked for at once, on
    the scheduler's `finishing` threads, and their replies are read in
    cluster order. If one raises, the calls not started are cancelled and the
    running ones waited for before the error propagates. Also returns the
    texts the connect step will connect."""
    statements: list[Statement] = []
    # Each distinct text the article's statements, sentences and connected
    # text hold is tokenized once: text -> (token bag, normalized form). The
    # normalized form is the tokens joined by spaces.
    lexicon: dict[str, tuple[TokenBag, str]] = {}

    def lookup(text: str) -> tuple[TokenBag, str]:
        entry = lexicon.get(text)
        if entry is None:
            tokens = tokenize(text)
            entry = lexicon[text] = (TokenBag.from_tokens(tokens), " ".join(tokens))
        return entry

    def bag_of(text: str) -> TokenBag:
        return lookup(text)[0]

    seq = 0
    for (window, rep), summary in zip(tasks, summaries):
        seqs = []
        for pos, sent in enumerate(segment_sentences(summary), 1):
            seq += 1
            entry = lookup(sent.text)
            statements.append(
                Statement(
                    text=sent.text,
                    window_ordinal=window.ordinal,
                    generation_seq=seq,
                    position_in_summary=pos,
                    token_bag=entry[0],
                )
            )
            seqs.append(seq)
        record.local_summaries.append(
            {
                "window_ordinal": window.ordinal,
                "repetition": rep,
                "text": summary,
                "statement_seqs": seqs,
            }
        )

    cluster_set = dbscan(statements, resolved.eps, resolved.min_pts)
    retained = filter_clusters(cluster_set)
    record.noise = [_statement_dict(s) for s in cluster_set.noise]
    for cid, members in enumerate(retained, 1):
        if len(members) > resolved.k:
            record.flags.append(f"cluster {cid} exceeds K={resolved.k} statements")
        record.clusters.append(
            {
                "id": cid,
                "size": len(members),
                "statement_seqs": [s.generation_seq for s in members],
                "texts": [s.text for s in members],
                "local_summary_count": local_summary_count(members),
            }
        )

    replies = _results([  # a cluster of one phrasing is one category, without a call
        cached.ask(cached.scheduler.finishing, "classify", [s.text for s in members], params)
        if len({lexicon[s.text][1] for s in members}) > 1 else _done(None)
        for members in retained])
    votes = []
    for cid, (members, reply) in enumerate(zip(retained, replies), 1):
        partition = ([list(range(1, len(members) + 1))] if reply is None
                     else parse_classification_response(reply, len(members)))
        votes.append({"cluster_id": cid, **vote(members, partition)})
    record.votes = votes

    by_seq = {s.generation_seq: s for s in statements}
    winner_cluster = {v["winner_seq"]: v["cluster_id"] for v in votes}
    arranged = []
    if votes:
        arranged = arrange([by_seq[seq] for seq in winner_cluster], article, bag_of)
    else:
        record.flags.append("no cluster survived MinPts")

    def connect(ask: Callable[[list[str]], str]) -> None:
        connected, fallback = "", False
        if arranged:
            connected, fallback = integrate([s for s, _ in arranged], ask, bag_of)
        offsets = _word_offsets(article)
        record.final = {
            "statements": [
                {
                    "text": s.text,
                    "source_anchor": anchor_idx,
                    "anchor_word_offset": offsets[anchor_idx - 1],
                    "window_ordinal": s.window_ordinal,
                    "generation_seq": s.generation_seq,
                    "cluster_id": winner_cluster[s.generation_seq],
                }
                for s, anchor_idx in arranged
            ],
            "connected_text": connected,
            "fallback": fallback,
        }

    return connect, [s.text for s, _ in arranged]


def _done(value) -> Future:
    """A future whose result is `value`."""
    future = Future()
    future.set_result(value)
    return future


def _results(futures: list[Future]) -> list:
    """The futures' results, in order. If one raises, those not started are
    cancelled and the running ones waited for before the error propagates."""
    try:
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise


def _word_offsets(article: Article) -> list[int]:
    """1-based word offset of each sentence's first word."""
    offsets = []
    total = 0
    for sent in article.sentences:
        offsets.append(total + 1)
        total += sent.word_count
    return offsets


# The longest record file name that leaves room for `_write_atomic`'s temp
# suffix, `.<pid>-<thread id>.tmp`, in a 255-byte name. Linux caps pid_max,
# which bounds thread ids too, at 2**22, so each id has at most 7 digits.
_NAME_BYTES = 255 - len(".4194304-4194304.tmp")


def record_filename(article_id: str) -> str:
    """`<id>.json`, or, for an id that is empty, holds characters other than
    letters, digits, `-`, `_` and `.`, or is too long, the id with those
    characters as `_`, cut to fit, plus `-` and an 8-hex hash of the id."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in article_id)
    if safe and safe == article_id and len(safe.encode()) + len(".json") <= _NAME_BYTES:
        return safe + ".json"
    digest = hashlib.sha256(article_id.encode()).hexdigest()[:8]
    safe = safe.encode()[:_NAME_BYTES - len("-12345678.json")].decode(errors="ignore")
    return (safe + "-" if safe else "") + digest + ".json"


def persist_record(record: RunRecord, directory: str) -> str:
    path = os.path.join(directory, record_filename(record.article_id))
    _write_atomic(path, record.to_json() + "\n")
    return path


def _write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temp file in the same directory and
    rename it into place, so a crash mid-write leaves the previous file, never
    a truncated one. The temp name is unique per process and thread."""
    tmp = f"{path}.{os.getpid()}-{threading.get_native_id()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
