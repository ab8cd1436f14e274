"""Summary-engine contract with two backends.

MockEngine is a deterministic extractive stand-in for offline runs and tests;
HttpEngine talks to any chat-completion endpoint with retry/backoff and
optional fixture recording for replay tests.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, replace

from .lexical import TokenBag, rouge1_f1, tokenize
from .text import segment_sentences

log = logging.getLogger(__name__)


class EngineError(RuntimeError):
    """Transport failure after retries, or an unusable backend response."""


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

# Voting benefits from mild sampling diversity; parsing benefits from determinism.
DEFAULT_TEMPERATURES = {"summarize": 0.3, "classify": 0.0, "connect": 0.0}


@dataclass(frozen=True)
class EngineParams:
    model: str | None = None
    temperature: float | None = None
    max_tokens: int = 1024
    seed: int | None = None

    def resolved(self, task: str) -> "EngineParams":
        if self.temperature is not None:
            return self
        return replace(self, temperature=DEFAULT_TEMPERATURES[task])


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


def render_partition(partition: list[list[int]]) -> str:
    """Canonical wire form of a partition, one 'Category k: ...' line per group."""
    return "\n".join(
        f"Category {k}: {', '.join(str(i) for i in group)}"
        for k, group in enumerate(partition, 1)
    )


_CATEGORY_LINE = re.compile(r"^\s*category\s+\d+\s*[:.]?\s*(.*)$", re.IGNORECASE)


def parse_classification_response(raw: str, n: int) -> list[list[int]]:
    """Parse 'Category k: i, j, ...' lines into a partition of {1..n}.

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
        for num in re.findall(r"\d+", match.group(1)):
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
    lines."""

    def summarize(self, window_text: str, params: EngineParams | None = None) -> str:
        raise NotImplementedError

    def classify(self, statements: list[str], params: EngineParams | None = None) -> str:
        raise NotImplementedError

    def connect(self, statements: list[str], params: EngineParams | None = None) -> str:
        raise NotImplementedError


class MockEngine(SummaryEngine):
    """Deterministic extractive backend: pure function of its inputs."""

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


class FixtureRecorder:
    """Appends one JSON object per wire exchange to a fixture file."""

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()

    def record(self, request: dict, response: dict) -> None:
        entry = {
            "request_hash": request_hash(request),
            "request": request,
            "response": response,
            "timestamp": time.time(),
        }
        with self._lock, open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


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


class HttpEngine(SummaryEngine):
    """Chat-completion backend over HTTP.

    Retries with exponential backoff on transport errors, 429 and 5xx; other
    4xx fail immediately.
    """

    def __init__(
        self,
        base_url: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        path: str = "/v1/chat/completions",
        timeout: float = 120.0,
        max_attempts: int = 5,
        backoff_base: float = 1.0,
        backoff_factor: float = 2.0,
        transport=None,
        recorder: FixtureRecorder | None = None,
        sleep=time.sleep,
    ):
        self.base_url = (base_url or os.environ.get("SLISUM_BASE_URL", "")).rstrip("/")
        self.model = model or os.environ.get("SLISUM_MODEL")
        self.api_key = api_key if api_key is not None else os.environ.get("SLISUM_API_KEY")
        self.path = path
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self._transport = transport or self._http_transport
        self.recorder = recorder
        self._sleep = sleep

    def _http_transport(self, payload: dict, timeout: float):
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        resp = requests.post(
            self.base_url + self.path, json=payload, headers=headers, timeout=timeout
        )
        try:
            body = resp.json()
        except ValueError:
            body = {"raw": resp.text}
        return resp.status_code, body

    def _chat(self, task: str, items: str | list[str], params: EngineParams | None) -> str:
        params = (params or EngineParams()).resolved(task)
        payload = {
            "model": params.model or self.model,
            "messages": [
                {"role": "system", "content": INSTRUCTIONS[task]},
                {"role": "user", "content": render(task, items)},
            ],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        if params.seed is not None:
            payload["seed"] = params.seed
        req_id = request_hash(payload)[:12]

        last_error = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                status, body = self._transport(payload, self.timeout)
            except OSError as exc:  # covers requests transport exceptions
                last_error = f"transport error: {exc}"
            else:
                if status == 200:
                    text = self._extract_content(body, req_id)
                    if self.recorder is not None:
                        self.recorder.record(payload, body)
                    return text
                if status == 429 or status >= 500:
                    last_error = f"status {status}"
                else:
                    raise EngineError(f"request {req_id}: non-retryable status {status}")
            if attempt < self.max_attempts:
                delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
                log.warning("request %s attempt %d failed (%s); retrying in %.1fs",
                            req_id, attempt, last_error, delay)
                self._sleep(delay)
        raise EngineError(
            f"request {req_id}: failed after {self.max_attempts} attempts ({last_error})"
        )

    @staticmethod
    def _extract_content(body: dict, req_id: str) -> str:
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise EngineError(f"request {req_id}: malformed response body")
        text = (text or "").strip()
        if not text:
            raise EngineError(f"request {req_id}: empty response")
        return text

    def summarize(self, window_text: str, params: EngineParams | None = None) -> str:
        return self._chat("summarize", window_text, params)

    def classify(self, statements: list[str], params: EngineParams | None = None) -> str:
        return self._chat("classify", statements, params)

    def connect(self, statements: list[str], params: EngineParams | None = None) -> str:
        return self._chat("connect", statements, params)


def make_engine(backend: str, **kwargs) -> SummaryEngine:
    if backend == "mock":
        return MockEngine()
    if backend == "http":
        return HttpEngine(**kwargs)
    raise ValueError(f"unknown backend {backend!r}")
