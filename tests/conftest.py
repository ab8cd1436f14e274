"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's own code paths: naive list-based
overlap counting, recursive LCS, an exhaustive DBSCAN reachability closure,
and a double-loop Hausdorff.
"""
from __future__ import annotations

import functools
import http.server
import json
import random
import string
import threading
import time
from concurrent.futures import Future

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from slisum.cluster import Statement
from slisum.engine import (
    INSTRUCTIONS,
    EngineError,
    MockEngine,
    render_partition,
    request,
    request_hash,
)
from slisum.pipeline import PipelineConfig, decide, prepare
from slisum.record import RunRecord
from slisum.text import Article, segment_sentences

STRIP = string.punctuation + "‘’“”–—…"

# `pytest --hypothesis-profile=deep` runs property tests that do not fix their
# own example count on many more examples, without a deadline.
settings.register_profile("deep", max_examples=2000, deadline=None)


# ---------------------------------------------------------------- tokenizing

def oracle_tokens(text: str) -> list[str]:
    return [w.strip(STRIP) for w in text.casefold().split() if w.strip(STRIP)]


def _f1(overlap: int, la: int, lb: int) -> float:
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    return 2.0 * overlap / (la + lb)


def oracle_rouge1(a: str, b: str) -> float:
    ta, tb = oracle_tokens(a), list(oracle_tokens(b))
    overlap = 0
    for tok in ta:
        if tok in tb:
            tb.remove(tok)
            overlap += 1
    return _f1(overlap, len(ta), len(oracle_tokens(b)))


def oracle_rouge2(a: str, b: str) -> float:
    ga = [tuple(p) for p in zip(oracle_tokens(a), oracle_tokens(a)[1:])]
    gb = [tuple(p) for p in zip(oracle_tokens(b), oracle_tokens(b)[1:])]
    rest = list(gb)
    overlap = 0
    for g in ga:
        if g in rest:
            rest.remove(g)
            overlap += 1
    return _f1(overlap, len(ga), len(gb))


def oracle_rougeL(a: str, b: str) -> float:
    ta, tb = tuple(oracle_tokens(a)), tuple(oracle_tokens(b))

    @functools.lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == len(ta) or j == len(tb):
            return 0
        if ta[i] == tb[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    return _f1(lcs(0, 0), len(ta), len(tb))


def oracle_distance(a: str, b: str) -> float:
    return 1.0 - oracle_rouge1(a, b)


def oracle_hausdorff(xs: list[str], ys: list[str]) -> float:
    sup_x = 0.0
    for x in xs:
        inf = min(oracle_distance(x, y) for y in ys)
        sup_x = max(sup_x, inf)
    sup_y = 0.0
    for y in ys:
        inf = min(oracle_distance(x, y) for x in xs)
        sup_y = max(sup_y, inf)
    return max(sup_x, sup_y)


# ------------------------------------------------------------- DBSCAN oracle

def oracle_dbscan(statements: list[Statement], eps: float, min_pts: int):
    """Exhaustive reachability closure.

    Clusters are connected components of core points under eps-adjacency;
    border points join the earliest-created reachable cluster, where creation
    order is ascending minimal core generation_seq. Returns (clusters, noise)
    as sets of generation_seqs.
    """
    pts = sorted(statements, key=lambda s: s.generation_seq)
    n = len(pts)
    adj = [
        {j for j in range(n) if oracle_distance(pts[i].text, pts[j].text) <= eps}
        for i in range(n)
    ]
    cores = [i for i in range(n) if len(adj[i]) >= min_pts]
    core_set = set(cores)

    assigned: dict[int, int] = {}
    components: list[set[int]] = []
    for c in cores:
        if c in assigned:
            continue
        comp = {c}
        frontier = [c]
        while frontier:
            u = frontier.pop()
            for v in core_set & adj[u]:
                if v not in comp:
                    comp.add(v)
                    frontier.append(v)
        for member in comp:
            assigned[member] = len(components)
        components.append(comp)
    components_order = sorted(range(len(components)), key=lambda k: min(components[k]))
    rank = {old: new for new, old in enumerate(components_order)}

    clusters = [set(components[old]) for old in components_order]
    noise = set()
    for i in range(n):
        if i in core_set:
            continue
        reachable = sorted(rank[assigned[c]] for c in core_set & adj[i])
        if reachable:
            clusters[reachable[0]].add(i)
        else:
            noise.add(i)
    seqs = [p.generation_seq for p in pts]
    return (
        {frozenset(seqs[i] for i in members) for members in clusters},
        {seqs[i] for i in noise},
    )


# ------------------------------------------------------------------ builders

def make_statements(texts: list[str], start_seq: int = 1) -> list[Statement]:
    return [
        Statement(text=t, window_ordinal=1, generation_seq=start_seq + i, position_in_summary=1)
        for i, t in enumerate(texts)
    ]


def text_pools():
    """Strategy for a few short texts to draw statements from, so that drawn
    lists repeat texts verbatim. There are twelve words, so many pairs share
    tokens; punctuation-only texts have empty bags."""
    words = st.text(alphabet="abc", min_size=1, max_size=2)
    text = st.one_of(st.lists(words, max_size=8).map(" ".join),
                     st.sampled_from(["…", "—", "(?!)", "— …"]))
    return st.lists(text, min_size=1, max_size=8)


def random_article(rng: random.Random, n_sentences: int, min_words=3, max_words=40) -> Article:
    sentences = []
    for i in range(n_sentences):
        k = rng.randint(min_words, max_words)
        words = [f"w{i}x{j}q{rng.randint(0, 99)}" for j in range(k)]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
    return Article.from_text(f"rand-{n_sentences}", " ".join(sentences))


def zipf_texts(rng: random.Random, n: int, vocab_size=400, min_words=3, max_words=14,
               exponent=1.1) -> list[str]:
    """n sentences over a Zipf-weighted vocabulary: common words recur across
    sentences, so many pairs share some tokens and few share most."""
    vocab = [f"z{i}" for i in range(vocab_size)]
    weights = [1.0 / (rank ** exponent) for rank in range(1, vocab_size + 1)]
    texts = []
    for _ in range(n):
        words = rng.choices(vocab, weights=weights, k=rng.randint(min_words, max_words))
        words[0] = words[0].capitalize()
        texts.append(" ".join(words) + ".")
    return texts


EVENT_A = (
    "Alpha rocket launch delivered the science payload into polar orbit "
    "after a flawless countdown on Monday morning period."
)
EVENT_B = (
    "Harbor engineers finished repairing the storm damaged eastern pier "
    "ahead of schedule despite heavy rain and strong winds."
)
EVENT_C = (
    "City council approved new funding for bicycle lanes connecting "
    "downtown neighborhoods to suburban transit hubs next spring season."
)

PLANTED_EVENTS = (EVENT_A, EVENT_B, EVENT_C)
_EVENT_POSITIONS = {
    2: EVENT_A, 5: EVENT_A, 8: EVENT_A,
    12: EVENT_B, 15: EVENT_B, 18: EVENT_B,
    22: EVENT_C, 25: EVENT_C, 28: EVENT_C,
}


def cache_key(task, items, params=None, sample=1, backend="mock"):
    """The response cache's key of a call: the backend's identity, the
    request and the sample number, hashed as CachedEngine hashes them."""
    return request_hash({"backend": backend, "request": request(task, items, params),
                         "sample": sample})


def _noise_sentence(i: int) -> str:
    words = [f"nx{i}w{j}" for j in range(17)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def planted_text() -> str:
    """30 sentences with three events, each planted as three identical copies
    spread over consecutive step segments; all other sentences use vocabularies
    disjoint from everything else."""
    return " ".join(_EVENT_POSITIONS.get(i, _noise_sentence(i)) for i in range(1, 31))


def planted_article() -> Article:
    return Article.from_text("planted", planted_text())


@pytest.fixture
def planted():
    return planted_article()


# -------------------------------------------------------------------- replay

def replay(article: Article, stored: dict) -> RunRecord:
    """The record of `article` rebuilt through `prepare` and `decide` from
    the settings and backend answers a complete record holds (`stored`, its
    `to_dict()`), with no engine: the local summaries are its
    `local_summaries[].text`; a classify call is answered with
    `render_partition` of the stored partition of the cluster whose texts it
    names, in cluster order; the connect call with the stored
    `connected_text`, or an EngineError when the record fell back. Asking
    for a summarize call raises."""
    config = PipelineConfig(**{k: v for k, v in stored["config"].items() if k != "k"})
    resolved, tasks, record = prepare(article, config)
    partitions = {tuple(cluster["texts"]): vote["partition"]
                  for cluster, vote in zip(stored["clusters"], stored["votes"])}
    final = stored["final"]

    def ask(task, items):
        reply = Future()
        if task == "classify":
            reply.set_result(render_partition(partitions[tuple(items)]))
        elif task == "connect" and final["fallback"]:
            reply.set_exception(EngineError("the recorded connect call fell back"))
        elif task == "connect":
            reply.set_result(final["connected_text"])
        else:
            raise AssertionError(f"a replay asks for no {task} call")
        return reply

    summaries = [entry["text"] for entry in stored["local_summaries"]]
    decide(article, resolved, tasks, summaries, ask, record)()
    return record


# ---------------------------------------------------------------- fake engines

class SamplingEngine(MockEngine):
    """Answers each summarize call with the next sentence of the window in
    turn, slowly, like a backend sampling at a temperature above zero."""

    def __init__(self):
        self.lock = threading.Lock()
        self.draws = 0

    def summarize(self, window_text, params=None):
        with self.lock:
            draw = self.draws
            self.draws += 1
        time.sleep(0.005)
        sentences = segment_sentences(window_text)
        return sentences[draw % len(sentences)]


def reworded_window(window_text: str, seed: int | None) -> str:
    """Every sentence of the window, each with one more word when the
    window's length plus the seed is even: overlapping windows, and the
    samples of one window drawn with seeds in turn, then phrase a fact two
    ways, so most clusters need a classify call."""
    sentences = segment_sentences(window_text)
    if (len(window_text) + (seed or 0)) % 2 == 0:
        sentences = [s[:-1] + " indeed" + s[-1] for s in sentences]
    return " ".join(sentences)


class ContestedEngine(MockEngine):
    """MockEngine whose summarize answers `reworded_window` for the call's seed."""

    def summarize(self, window_text, params=None):
        return reworded_window(window_text, params.seed if params else None)


class PeakTransport:
    """Chat transport answering like MockEngine, slowly, that records the peak
    number of requests in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0

    def __call__(self, payload, timeout):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.005)
            return self.answer(payload)
        finally:
            with self.lock:
                self.in_flight -= 1

    def answer(self, payload):
        system, user = (m["content"] for m in payload["messages"])
        task = next(t for t, text in INSTRUCTIONS.items() if text == system)
        if task == "summarize":
            text = MockEngine().summarize(user)
        elif task == "classify":
            text = MockEngine().classify([line.split(". ", 1)[1] for line in user.splitlines()])
        else:
            text = MockEngine().connect(user.splitlines())
        return 200, {"choices": [{"message": {"content": text}}]}


class ThrottlingTransport(PeakTransport):
    """PeakTransport that refuses the first attempt of each distinct payload,
    with a 429 or a 503 status or by raising ConnectionResetError (an
    OSError), and answers every later one. `refused` counts the refusals."""

    def __init__(self, refusal):
        super().__init__()
        self.refusal = refusal
        self.seen: set[str] = set()
        self.refused = 0

    def answer(self, payload):
        key = request_hash(payload)
        with self.lock:
            first = key not in self.seen
            self.seen.add(key)
            self.refused += first
        if not first:
            return super().answer(payload)
        if self.refusal == "reset":
            raise ConnectionResetError("connection reset by peer")
        return self.refusal, {"error": {"message": "refused"}}


class RewordingTransport(PeakTransport):
    """PeakTransport whose summarize answers `reworded_window` for the
    payload's seed; `classified` counts the classify requests."""

    def __init__(self):
        super().__init__()
        self.classified = 0

    def answer(self, payload):
        system, user = (m["content"] for m in payload["messages"])
        if system == INSTRUCTIONS["summarize"]:
            text = reworded_window(user, payload.get("seed"))
            return 200, {"choices": [{"message": {"content": text}}]}
        if system == INSTRUCTIONS["classify"]:
            with self.lock:
                self.classified += 1
        return super().answer(payload)


class EchoServer:
    """Loopback keep-alive HTTP server, serving on a thread while used as a
    context manager at `url`, that answers each chat-completions request with
    its user message. `accepted` gets each connection's client address,
    `authorized` each request's Authorization header, and `closed` is set
    when a connection ends."""

    def __init__(self):
        self.accepted, self.authorized = [], []
        self.closed = threading.Event()
        owner = self

        class Echo(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # keep-alive
            disable_nagle_algorithm = True  # a reply is two writes: no delayed-ACK stall

            def setup(self):
                owner.accepted.append(self.client_address)
                super().setup()

            def finish(self):
                super().finish()
                owner.closed.set()

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                owner.authorized.append(self.headers["Authorization"])
                content = payload["messages"][1]["content"]
                body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Echo)
        self.url = f"http://127.0.0.1:{self._server.server_port}"
        self._serving = threading.Thread(target=self._server.serve_forever)

    def __enter__(self):
        self._serving.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._serving.join()
        self._server.server_close()
