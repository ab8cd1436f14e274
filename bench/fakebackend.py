"""Deterministic fake chat-completions server, plugged in as an HttpEngine transport.

It replaces `requests` and the network: the transport contract is
`transport(payload, timeout) -> (status, body)`, exactly what
`slisum.engine.HttpEngine(transport=...)` calls. Responses depend only on the
payload, so every run over the same corpus produces the same records.

summarize  returns the window's SUMMARY_SENTENCES most salient sentences in
           source order. Salience is a hash of the sentence text alone, so a
           salient sentence is picked by every window that contains it: that is
           the cross-window redundancy SliSum clusters on. One window payload in
           PARAPHRASE_EVERY drops one word from one picked sentence, so clusters
           hold competing phrasings and `classify` and voting do real work.
classify   puts identical statements in one category.
connect    joins the statements with single spaces.
"""
from __future__ import annotations

import re
import threading
import time
import zlib

from slisum.engine import INSTRUCTIONS

SUMMARY_SENTENCES = 4
PARAPHRASE_EVERY = 4

# Latency model (seconds): fixed + per prompt word + per output word. It is a
# scaled-down chat backend; with it a short-profile summarize call takes ~10 ms.
LATENCY_FIXED_S = 0.003
LATENCY_PER_PROMPT_WORD_S = 0.00001
LATENCY_PER_OUTPUT_WORD_S = 0.00008
# One payload in THROTTLE_EVERY (by content hash) is refused once with a 429;
# the refusal costs the fixed latency only.
THROTTLE_EVERY = 25

_TASKS = {text: task for task, text in INSTRUCTIONS.items()}
_SENTENCE_BREAK = re.compile(r"(?<=\.) (?=[A-Z])")
_NUMBERED = re.compile(r"^\d+\. ")


def _salience(sentence: str) -> int:
    return zlib.crc32(sentence.encode())


def summarize(content: str) -> str:
    sentences = _SENTENCE_BREAK.split(content)
    ranked = sorted(range(len(sentences)), key=lambda i: (-_salience(sentences[i]), i))
    picked = [sentences[i] for i in sorted(ranked[:SUMMARY_SENTENCES])]
    h = zlib.crc32(content.encode())
    if h % PARAPHRASE_EVERY == 0:
        i = (h >> 8) % len(picked)
        words = picked[i].split()
        if len(words) > 3:
            del words[1 + (h >> 16) % (len(words) - 2)]
            picked[i] = " ".join(words)
    return " ".join(picked)


def classify(content: str) -> str:
    categories: dict[str, list[int]] = {}
    for i, line in enumerate(content.split("\n"), 1):
        categories.setdefault(_NUMBERED.sub("", line, count=1).lower(), []).append(i)
    return "\n".join(
        f"Category {k}: {', '.join(map(str, group))}"
        for k, group in enumerate(categories.values(), 1)
    )


def connect(content: str) -> str:
    return " ".join(content.split("\n"))


_RESPONDERS = {"summarize": summarize, "classify": classify, "connect": connect}


class FakeBackend:
    """One fake server. Counters cover every request it receives.

    `cpu_s` is the thread CPU time the fake itself spent building responses,
    so the benchmark can subtract it from the process CPU time.
    """

    def __init__(self, latency: bool):
        self.latency = latency
        self.requests = 0
        self.throttled = 0
        self.prompt_words = 0
        self.cpu_s = 0.0
        self._refused: set[int] = set()
        self._lock = threading.Lock()

    def transport(self, payload: dict, timeout: float):
        cpu_start = time.thread_time()
        system, user = (m["content"] for m in payload["messages"])
        task = _TASKS[system]
        prompt_words = len(system.split()) + len(user.split())
        refuse = False
        if self.latency:
            key = zlib.crc32(f"{task}\n{user}".encode())
            if key % THROTTLE_EVERY == 0:
                with self._lock:
                    refuse = key not in self._refused
                    self._refused.add(key)
        if refuse:
            status, body, output_words = 429, {"error": {"message": "rate limited"}}, 0
        else:
            text = _RESPONDERS[task](user)
            status, body = 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}
            output_words = len(text.split())
        cpu = time.thread_time() - cpu_start
        with self._lock:
            self.requests += 1
            self.throttled += refuse
            self.prompt_words += prompt_words
            self.cpu_s += cpu
        if self.latency:
            delay = LATENCY_FIXED_S
            if not refuse:
                delay += (LATENCY_PER_PROMPT_WORD_S * prompt_words
                          + LATENCY_PER_OUTPUT_WORD_S * output_words)
            time.sleep(delay)
        return status, body
