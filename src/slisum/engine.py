"""Summary-engine contract with two backends.

MockEngine is a deterministic extractive stand-in for offline runs and tests;
HttpEngine talks to any chat-completion endpoint, one attempt per call, with
the retry policy CachedEngine applies. `recording_transport` and
`replay_transport` record and replay its wire exchanges in tests.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit, urlunsplit

from .lexical import TokenBag, rouge1_f1, tokenize
from .text import ConfigurationError, segment_sentences

log = logging.getLogger(__name__)


class EngineError(RuntimeError):
    """A failed attempt at a backend call, or an unusable backend response.

    A `retryable` error (a transport error, a 429 or a 5xx) may pass on a
    later attempt, so `CachedEngine` makes the call again after the engine's
    backoff. An error about a request names its `request` and the `reason`,
    such as 'status 503', and reads `request <request>: <reason>`;
    `CachedEngine` appends a summarize call's sample to `request`. A retry
    warning names a transport error's class.
    """

    def __init__(self, message: str = "", *, retryable: bool = False, request: str = "",
                 reason: str = ""):
        super().__init__(message)
        self.retryable = retryable
        self.request = request
        self.reason = reason

    def __str__(self) -> str:
        return f"request {self.request}: {self.reason}" if self.request else super().__str__()


INSTRUCTIONS = {
    "summarize": "Summarize the above article.",
    "classify": (
        "Classify the above statements into different categories. Statements of "
        "the same category describe the same facts, and statements of different "
        "categories have different semantics. Answer with one line per category "
        "in the form 'Category k: i, j, ...' using the statement numbers."
    ),
    "connect": (
        "Generate connectives to concatenate sentences to form a fluent text. "
        "DO NOT change the original semantics."
    ),
}

# Sampling temperature sent per task: voting benefits from mild sampling
# diversity; parsing benefits from determinism.
TEMPERATURES = {"summarize": 0.3, "classify": 0.0, "connect": 0.0}

BACKENDS = ("mock", "http")


@dataclass(frozen=True)
class EngineParams:
    model: str | None = None
    max_tokens: int = 1024
    seed: int | None = None


def json_loads(data: str | bytes):
    """`json.loads(data)`, with a document nested deeper than the parser
    recurses raising ValueError, as any other unparsable document does."""
    try:
        return json.loads(data)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def render(task: str, items: str | list[str]) -> str:
    """Prompt body of one engine call: the window text for summarize, numbered
    statements for classify, one statement per line for connect."""
    if not items:
        raise ValueError(f"{task} needs non-empty input")
    if task == "summarize":
        return items
    if task == "classify":
        return "\n".join(f"{i}. {s}" for i, s in enumerate(items, 1))
    if task == "connect":
        return "\n".join(items)
    raise ValueError(f"unknown task {task!r}")


def request(task: str, items: str | list[str], params: EngineParams | None = None) -> dict:
    """The chat-completions payload of one call, and its only description:
    HttpEngine sends it, and the response cache's key hashes it."""
    params = params or EngineParams()
    payload = {"model": params.model,
               "messages": [{"role": "system", "content": INSTRUCTIONS[task]},
                            {"role": "user", "content": render(task, items)}],
               "temperature": TEMPERATURES[task], "max_tokens": params.max_tokens}
    if params.seed is not None:
        payload["seed"] = params.seed
    return payload


def render_partition(partition: list[list[int]]) -> str:
    """Canonical wire form of a partition, one 'Category k: ...' line per group."""
    return "\n".join(
        f"Category {k}: {', '.join(str(i) for i in group)}"
        for k, group in enumerate(partition, 1)
    )


_CATEGORY_LINE = re.compile(
    r"^\s*(?:[-*•]|\d+[.)]|#+)?\s*[*_]*category\s+\d+\s*[*_]*\s*[:.]?[*_]*\s*(.*)$",
    re.IGNORECASE)


def parse_classification_response(raw: str, n: int) -> list[list[int]]:
    """Parse 'Category k: i, j, ...' lines into a partition of {1..n}; a line
    may open with one list marker ('-', '*', '•', '1.', '1)') or '#' heading
    and wrap 'Category k:' in markdown emphasis ('**Category 1:** 1, 3').

    Out-of-range indices are dropped, duplicates keep their first assignment,
    and never-mentioned indices become trailing singleton categories; the
    worst-case result is the all-singletons fallback.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    assigned: set[int] = set()
    categories: list[list[int]] = []
    for line in raw.splitlines():
        match = _CATEGORY_LINE.match(line)
        if not match:
            continue
        group = []
        for num in re.findall(r"0*(\d+)", match.group(1)):  # leading zeros dropped
            if len(num) > len(str(n)):  # out of range, and int() may refuse it
                continue
            idx = int(num)
            if 1 <= idx <= n and idx not in assigned:
                assigned.add(idx)
                group.append(idx)
        if group:
            categories.append(group)
    for idx in range(1, n + 1):
        if idx not in assigned:
            categories.append([idx])
    return categories


class SummaryEngine:
    """Abstract summarize / classify / connect contract; each call returns the
    backend's raw reply text, and classify answers with 'Category k: i, j'
    lines.

    Each call makes one attempt. A backend whose attempts can fail with a
    retryable EngineError sets `max_attempts` above 1 and defines
    `backoff(attempt, error)`, which waits before the next attempt.
    `identity` names the backend in cache keys: calls with one identity,
    request and sample number share an answer.
    """

    max_attempts = 1
    identity: str

    def summarize(self, window_text: str, params: EngineParams | None = None) -> str:
        raise NotImplementedError

    def classify(self, statements: list[str], params: EngineParams | None = None) -> str:
        raise NotImplementedError

    def connect(self, statements: list[str], params: EngineParams | None = None) -> str:
        raise NotImplementedError


class MockEngine(SummaryEngine):
    """Deterministic extractive backend: pure function of its inputs."""

    identity = "mock"

    def summarize(self, window_text: str, params: EngineParams | None = None) -> str:
        sentences = [s.text for s in segment_sentences(window_text)]
        if not sentences:
            return window_text.strip()
        if len(sentences) == 1:
            return sentences[0]
        bags = [TokenBag.from_text(s) for s in sentences]
        best_idx, best_score = 0, -1.0
        for i, cand in enumerate(bags):
            score = sum(rouge1_f1(cand, other) for j, other in enumerate(bags) if j != i)
            if score > best_score:
                best_idx, best_score = i, score
        return sentences[best_idx]

    def classify(self, statements: list[str], params: EngineParams | None = None) -> str:
        groups: dict[str, list[int]] = {}
        for idx, stmt in enumerate(statements, 1):
            key = " ".join(tokenize(stmt))
            groups.setdefault(key, []).append(idx)
        return render_partition(list(groups.values()))

    def connect(self, statements: list[str], params: EngineParams | None = None) -> str:
        return " ".join(statements)


def request_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


def request_id(payload: dict) -> str:
    """Short name of a request in warnings and errors, computed only for them."""
    return request_hash(payload)[:12]


def recording_transport(transport, path):
    """Transport that passes each request to `transport` and appends every
    exchange answered 200 to the fixture file `path`, one JSON object per
    line, as `replay_transport` reads them. Non-ASCII is escaped, so a reply
    holding a lone surrogate is recorded and left for the engine to reject."""
    lock = threading.Lock()

    def record(payload: dict, timeout: float):
        status, body = transport(payload, timeout)
        if status == 200:
            entry = {"request_hash": request_hash(payload), "request": payload,
                     "response": body, "timestamp": time.time()}
            with lock, open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry) + "\n")
        return status, body

    return record


def replay_transport(path):
    """Transport that serves responses from a recorded fixture file."""
    exchanges = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entry = json.loads(line)
                exchanges[entry["request_hash"]] = entry["response"]

    def transport(payload: dict, timeout: float):
        key = request_hash(payload)
        if key not in exchanges:
            raise EngineError(f"no recorded exchange for request {key[:12]}")
        return 200, exchanges[key]

    return transport


_local = threading.local()  # each thread's requests.Session, made on its first request


def _session():
    """This thread's `requests.Session`, whose pool keeps the thread's
    connections open from one call to the next. A thread makes one call at a
    time, so it holds at most one connection per endpoint, and its session's
    connections are closed when the thread ends."""
    session = getattr(_local, "session", None)
    if session is None:
        import requests

        session = _local.session = requests.Session()
    return session


class HttpEngine(SummaryEngine):
    """Chat-completion backend over HTTP.

    Each call makes one attempt and sends `request(task, items, params)`, the
    payload the response cache's key hashes with `identity`: the scheme,
    host[:port] and path the requests go to, without the URL's userinfo or
    the API key, fixed when the engine is built. A transport error, a 429 or
    a 5xx raises a retryable EngineError; any other status, a malformed body
    or an empty reply raises a non-retryable one. The retry policy stays here:
    `CachedEngine` makes up to `max_attempts` attempts, and `backoff` waits a
    full-jitter delay, uniform in [0, backoff_base * 2**(attempt - 1)]
    seconds (Brooker, "Exponential Backoff and Jitter", 2015), drawn from
    `rng` and waited out with `sleep`.
    Without a transport, the base URL (SLISUM_BASE_URL by default) must be an
    http:// or https:// URL that names a host, or construction raises
    ConfigurationError. The API key defaults to SLISUM_API_KEY; one that
    cannot go in an HTTP header (not Latin-1, or holding a CR or LF) raises
    ConfigurationError too, without echoing the key. Without a transport,
    each thread sends through its own `requests.Session`, so a thread's
    calls to one endpoint reuse one connection.
    """

    max_attempts = 5

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        path: str = "/v1/chat/completions",
        timeout: float = 120.0,
        backoff_base: float = 1.0,
        transport=None,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ):
        self.base_url = (base_url or os.environ.get("SLISUM_BASE_URL", "")).rstrip("/")
        url = self.base_url + path  # parsed once: its endpoint is the identity
        self.identity = url.rpartition("@")[2]  # kept if urlsplit refuses the URL
        try:
            parts = urlsplit(url)  # ValueError on an unbalanced IPv6 bracket
            self.identity = urlunsplit(
                (parts.scheme, parts.netloc.rpartition("@")[2], parts.path, "", ""))
            parts.port  # ValueError if not a number in [0, 65535]
            usable = url.startswith(("http://", "https://")) and bool(parts.hostname)
        except ValueError:
            usable = False
        if transport is None and not usable:
            raise ConfigurationError(
                f"the http backend needs an http:// or https:// base URL with a host "
                f"(set SLISUM_BASE_URL), got {self.base_url!r}")
        self.api_key = api_key if api_key is not None else os.environ.get("SLISUM_API_KEY")
        if any(c in "\r\n" or ord(c) > 0xFF for c in self.api_key or ""):
            raise ConfigurationError(
                "the http backend's API key (SLISUM_API_KEY) must be Latin-1 text "
                "without line breaks")
        self._headers = {"Content-Type": "application/json"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self.path = path
        self.timeout = timeout
        self.backoff_base = backoff_base
        self._transport = transport or self._http_transport
        self._sleep = sleep
        self._rng = rng or random.Random()

    def _http_transport(self, payload: dict, timeout: float):
        resp = _session().post(
            self.base_url + self.path, json=payload, headers=self._headers, timeout=timeout
        )
        try:
            body = json_loads(resp.content)
        except ValueError:
            body = {"raw": resp.text}
        return resp.status_code, body

    def _chat(self, task: str, items: str | list[str], params: EngineParams | None) -> str:
        payload = request(task, items, params)
        try:
            status, body = self._transport(payload, self.timeout)
        except OSError as exc:  # covers requests transport exceptions
            raise self._retryable(payload, f"transport error: {exc}") from exc
        if status == 200:
            return self._extract_content(body, payload)
        if status == 429 or status >= 500:
            raise self._retryable(payload, f"status {status}")
        raise EngineError(request=request_id(payload), reason=f"non-retryable status {status}")

    @staticmethod
    def _retryable(payload: dict, reason: str) -> EngineError:
        return EngineError(retryable=True, request=request_id(payload), reason=reason)

    def backoff(self, attempt: int, error: EngineError) -> None:
        """Wait out the full-jitter delay after failed attempt `attempt`."""
        delay = self._rng.uniform(0.0, self.backoff_base * 2 ** (attempt - 1))
        # A transport error is named by its class; its message is in the final error only.
        cause = error.__cause__
        reason = f"transport error: {type(cause).__name__}" if cause is not None else error.reason
        log.warning("request %s attempt %d failed (%s); retrying in %.1f ms",
                    error.request, attempt, reason, delay * 1000)
        self._sleep(delay)

    @staticmethod
    def _extract_content(body: dict, payload: dict) -> str:
        """The reply's message content, stripped. EngineError if the body has
        no content, or the content is neither a string nor null, holds a lone
        surrogate (so it cannot be written as UTF-8), or is blank."""
        try:
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, (str, type(None))):
                raise TypeError(f"content is {type(text).__name__}")
            if text:
                text.encode("utf-8")
        except (KeyError, IndexError, TypeError, UnicodeEncodeError):
            raise EngineError(request=request_id(payload), reason="malformed response body")
        text = (text or "").strip()
        if not text:
            raise EngineError(request=request_id(payload), reason="empty response")
        return text

    def summarize(self, window_text: str, params: EngineParams | None = None) -> str:
        return self._chat("summarize", window_text, params)

    def classify(self, statements: list[str], params: EngineParams | None = None) -> str:
        return self._chat("classify", statements, params)

    def connect(self, statements: list[str], params: EngineParams | None = None) -> str:
        return self._chat("connect", statements, params)


def make_engine(backend: str) -> SummaryEngine:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    return MockEngine() if backend == "mock" else HttpEngine()
