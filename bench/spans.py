"""In-memory span tracing installed around slisum's layer boundaries.

Every wrapper is installed from here, on the names each caller looks up at
call time (`slisum.pipeline.dbscan`, `ResponseCache.lookup`, ...), and removed
again by `uninstall`, so untraced runs execute the program unmodified.

A span records name, start, end, parent span and article id. Threads keep
their own span stack; work dispatched to the per-article thread pool finds its
parent through the article span bound to its HttpEngine when the engine
factory built it. Lexical calls are too many to record one by one: their time
is summed into the enclosing span (`lexical_s`) and only the outermost lexical
call on a thread is timed.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import slisum.aggregate
import slisum.cli
import slisum.cluster
import slisum.evalkit
import slisum.lexical
import slisum.pipeline
import slisum.text
from slisum.engine import HttpEngine
from slisum.pipeline import CachedEngine, ResponseCache

MODULES = ("text", "engine", "pipeline", "cluster", "aggregate", "lexical", "evalkit", "cli")
ENGINE_TASKS = ("summarize", "classify", "connect")


class Span:
    __slots__ = ("id", "name", "parent", "article", "start", "end", "lexical_s")

    def __init__(self, span_id, name, parent, article):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.article = article
        self.start = self.end = 0.0
        self.lexical_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "article": self.article, "start": self.start, "end": self.end,
                "lexical_s": self.lexical_s}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.tokenized: list[str] = []
        self.root: Span | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bound: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else self.root

    def open(self, name: str, parent: Span | None = None, article: str | None = None) -> Span:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.root
        if article is None and parent is not None:
            article = parent.article
        span = Span(next(self._ids), name, parent.id if parent else None, article)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def bind(self, engine, span: Span | None) -> None:
        """Make `span` the parent of calls made through `engine` on pool threads."""
        if span is not None:
            self._bound[engine] = span

    # ------------------------------------------------------------ wrappers

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _spanned(self, owner, attr, name, article=None, after=None, parent=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                span = self.open(name, parent=parent(args) if parent else None,
                                 article=article(args) if article else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(span)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _lexical(self, owner, attr, record=False, after=None):
        local = self._local

        def make(fn):
            def wrapper(*args, **kwargs):
                if record:
                    self.tokenized.append(args[0])
                if after is not None:
                    after(args)
                if getattr(local, "in_lexical", False):
                    return fn(*args, **kwargs)
                local.in_lexical = True
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    local.in_lexical = False
                    stack = self._stack()
                    if stack:
                        stack[-1].lexical_s += elapsed
                    elif self.root is not None:
                        with self._lock:
                            self.root.lexical_s += elapsed
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> None:
        cli, pipeline, text, aggregate = slisum.cli, slisum.pipeline, slisum.text, slisum.aggregate
        count = self.count

        def plan_sizes(args, plan):
            count("text.windows", len(plan.windows))
            count("text.generations", plan.total_generations)

        def cluster_sizes(args, result):
            count("cluster.statements", len(args[0]))
            count("cluster.clusters", len(result.clusters))
            count("cluster.noise", len(result.noise))

        def lookup_outcome(args, entry):
            count("pipeline.cache.misses" if entry is None else "pipeline.cache.hits")

        def hausdorff_pairs(args):
            count("evalkit.hausdorff_pairs", len(args[0]) * len(args[1]))

        def parent_of_cached_call(args):
            stack = self._stack()
            return stack[-1] if stack else self._bound.get(args[0].engine)

        self._spanned(cli, "run", "pipeline.run", article=lambda a: a[0].id)
        self._spanned(cli, "persist_record", "cli.persist")
        for module in (text, pipeline, aggregate):
            self._spanned(module, "segment_sentences", "text.segment")
        self._spanned(pipeline, "build_window_plan", "text.plan", after=plan_sizes)
        self._spanned(pipeline, "dbscan", "cluster.dbscan", after=cluster_sizes)
        self._spanned(pipeline, "filter_clusters", "cluster.filter",
                      after=lambda a, r: count("cluster.retained", len(r)))
        self._spanned(pipeline, "vote", "aggregate.vote")
        self._spanned(pipeline, "arrange", "aggregate.arrange",
                      after=lambda a, r: count("aggregate.anchor_candidates",
                                               len(a[0]) * len(a[1].sentences)))
        self._spanned(pipeline, "integrate", "aggregate.integrate",
                      after=lambda a, r: count("aggregate.fallbacks", int(r[1])))
        self._spanned(ResponseCache, "lookup", "pipeline.cache.lookup", after=lookup_outcome)
        self._spanned(ResponseCache, "store", "pipeline.cache.store")
        for task in ENGINE_TASKS:
            self._spanned(CachedEngine, task, f"pipeline.cached.{task}",
                          parent=parent_of_cached_call)
            self._spanned(HttpEngine, task, f"engine.{task}",
                          after=lambda a, r, task=task: count(f"engine.calls.{task}"))
        self._spanned(cli, "score", "evalkit.score")
        self._spanned(cli, "distance_diagnostics", "evalkit.diagnostics")

        self._lexical(slisum.lexical, "tokenize", record=True)
        self._lexical(pipeline, "tokenize", record=True)
        self._lexical(slisum.cluster, "distance")
        for name in ("rouge1_f1", "rouge1_recall"):
            self._lexical(aggregate, name)
        for name in ("distance", "rouge1_f1", "rouge2_f1", "rougeL_f1"):
            self._lexical(slisum.evalkit, name)
        self._lexical(slisum.evalkit, "hausdorff", after=hausdorff_pairs)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def backend_transport(self, transport):
        """Wrap a fake transport so each request is a `backend.request` span."""
        def traced(payload, timeout):
            span = self.open("backend.request")
            try:
                return transport(payload, timeout)
            finally:
                self.close(span)
        return traced

    def backoff_sleep(self, sleep):
        def traced(seconds):
            span = self.open("backend.backoff")
            try:
                sleep(seconds)
            finally:
                self.close(span)
        return traced

    # ------------------------------------------------------------ reporting

    def write_jsonl(self, fh, **extra) -> None:
        for span in sorted(self.spans, key=lambda s: s.id):
            fh.write(json.dumps({**extra, **span.to_dict()}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since this tracer was made."""
        spans = self.spans
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)

        def total(prefix: str) -> float:
            return sum((s.duration for s in spans if s.name.startswith(prefix)), 0.0)

        def self_time(span: Span) -> float:
            covered, reach = 0.0, span.start
            for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end))
                                 for c in children[span.id]):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return span.duration - covered - span.lexical_s

        out: dict[str, float] = {}
        for module in MODULES:
            out[f"{module}.self_s"] = 0.0
        for s in spans:
            module = s.name.split(".", 1)[0]
            if module in MODULES:
                out[f"{module}.self_s"] += self_time(s)
        out["lexical.self_s"] = sum((s.lexical_s for s in spans), 0.0)

        out["text.segment_s"] = total("text.segment")
        out["text.plan_s"] = total("text.plan")
        for key in ("text.windows", "text.generations", "cluster.statements",
                    "cluster.clusters", "cluster.retained", "cluster.noise",
                    "aggregate.anchor_candidates", "aggregate.fallbacks",
                    "pipeline.cache.hits", "pipeline.cache.misses", "evalkit.hausdorff_pairs"):
            out[key] = float(self.counts[key])
        for task in ENGINE_TASKS:
            out[f"engine.calls.{task}"] = float(self.counts[f"engine.calls.{task}"])

        calls = sorted(s.duration * 1000.0 for s in spans
                       if s.name in ("engine.summarize", "engine.classify", "engine.connect"))
        out["engine.call_samples"] = float(len(calls))
        out["engine.call_p50_ms"] = _percentile(calls, 0.50)
        out["engine.call_p99_ms"] = _percentile(calls, 0.99)
        requests = [s for s in spans if s.name == "backend.request"]
        out["engine.backend_busy_s"] = sum((s.duration for s in requests), 0.0)
        out["engine.backoff_s"] = total("backend.backoff")

        runs = {s.id: s for s in spans if s.name == "pipeline.run"}
        generate_s = busy_s = 0.0
        for s in spans:
            if s.name == "cluster.dbscan" and s.parent in runs:
                run = runs[s.parent]
                generate_s += s.start - run.start
                busy_s += sum(max(0.0, min(r.end, s.start) - max(r.start, run.start))
                              for r in requests if r.article == run.article)
        out["pipeline.generate_s"] = generate_s
        out["pipeline.inflight_mean"] = busy_s / generate_s if generate_s else 0.0
        out["pipeline.cache.lookup_s"] = total("pipeline.cache.lookup")
        out["pipeline.cache.store_s"] = total("pipeline.cache.store")

        out["cluster.dbscan_s"] = total("cluster.dbscan")
        out["cluster.filter_s"] = total("cluster.filter")
        out["aggregate.arrange_s"] = total("aggregate.arrange")
        out["aggregate.vote_s"] = total("aggregate.vote")
        out["aggregate.integrate_s"] = total("aggregate.integrate")

        out["lexical.tokenize_calls"] = float(len(self.tokenized))
        out["lexical.tokenize_distinct_share"] = (
            len(set(self.tokenized)) / len(self.tokenized) if self.tokenized else 0.0)

        out["evalkit.score_s"] = total("evalkit.score")
        out["evalkit.diagnostics_s"] = total("evalkit.diagnostics")
        out["cli.persist_s"] = total("cli.persist")
        out["trace.spans"] = float(len(spans))
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
