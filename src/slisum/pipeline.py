"""End-to-end orchestration: sliding generation, filtration, aggregation.

Also owns configuration resolution (length-chosen window geometry, K/2
MinPts rule). `prepare` plans an article without an engine, `start` asks
for its calls through `slisum.calls`, and `decide` maps its local summaries
to the record, asking for classify and connect replies only through the
`ask` it is given.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import Future, wait
from dataclasses import asdict, dataclass, fields, replace

from .aggregate import arrange, integrate, vote
from .calls import CachedEngine, CallScheduler, ResponseCache, done
from .cluster import Statement, dbscan, default_min_pts, filter_clusters, local_summary_count
from .engine import (
    BACKENDS,
    EngineError,
    EngineParams,
    SummaryEngine,
    make_engine,
    parse_classification_response,
)
from .lexical import TokenBag, tokenize
from .record import RunRecord
from .text import (
    Article,
    ConfigurationError,
    Window,
    build_window_plan,
    k_ratio,
    segment_sentences,
    window_text,
)

SHORT_ARTICLE_MAX_WORDS = 3000
SHORT_GEOMETRY = (150, 50)  # window/step words, K=3
LONG_GEOMETRY = (750, 150)  # K=5
DEFAULT_EPS = 0.25
BREAKEVEN_FACTOR = 1.36
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

    def __post_init__(self):
        """ConfigurationError if a setting that does not depend on the article
        is out of range: an unknown backend, eps outside (0, 1), a window or
        step size, min_pts, max_tokens or concurrency below 1, or, with both
        sizes set, a window size that is not a multiple of the step size."""
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {', '.join(BACKENDS)}, got {self.backend!r}")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ConfigurationError(f"eps must be in (0, 1), got {self.eps}")
        for name in ("window_size", "step_size", "min_pts", "max_tokens", "concurrency"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.window_size is not None and self.step_size is not None:
            k_ratio(self.window_size, self.step_size)

    @property
    def k(self) -> int:
        """Coverage ratio K of the window geometry; needs both sizes set."""
        return k_ratio(self.window_size, self.step_size)

    def resolved(self, article_words: int) -> "PipelineConfig":
        """Every setting filled in: the window geometry by article length
        (150/50 under 3000 words, else 750/150), eps 0.25 and MinPts half of K
        rounded up, unless set; ConfigurationError if MinPts is outside [1, K]."""
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
        if config.min_pts > k:  # replace() checked it is at least 1
            raise ConfigurationError(f"min_pts {config.min_pts} outside [1, {k}]")
        return config


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


def prepare(article: Article, config: PipelineConfig
            ) -> tuple[PipelineConfig, list[tuple[Window, int]], RunRecord]:
    """The article's resolved settings, its summarize tasks as (window,
    sample) pairs in plan order, and its record with the plan filled in,
    `aborted` until a connect step completes it. Needs no engine; settings
    out of range raise ConfigurationError."""
    resolved = config.resolved(article.total_words)
    plan = build_window_plan(article, resolved.window_size, resolved.step_size)
    tasks = [(window, rep) for window in plan.windows
             for rep in range(1, window.repetitions + 1)]
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
    return resolved, tasks, record


def start(
    article: Article,
    config: PipelineConfig,
    engine: SummaryEngine | None,
    cache: ResponseCache | None,
    scheduler: CallScheduler,
) -> tuple[RunRecord, Callable[[], Future]]:
    """`prepare` the article and ask for its window generations through
    `CachedEngine.ask`, which picks each call's queue; return its record and
    `finish`.

    `finish()` waits for the generations and runs `decide` on the calling
    thread, with an `ask` bound to the same `CachedEngine`. It returns a
    future whose result is the completed record, so the calling thread can
    finish the next article meanwhile: the connect step runs on the thread
    that completes the connect call, or at once for a stored reply or fewer
    than two winners. On an engine failure `finish` cancels the article's
    calls not yet started, waits for the running ones, flags the record and
    returns a future holding the error; a connect step falls back instead.
    Neither writes a file, apart from the cache's log. Settings out of range
    raise ConfigurationError here, before any call.
    """
    started = time.monotonic()
    resolved, tasks, record = prepare(article, config)
    cached = CachedEngine(make_engine(resolved.backend) if engine is None else engine,
                          cache, scheduler)
    params = EngineParams(model=resolved.model, max_tokens=resolved.max_tokens,
                          seed=resolved.seed)
    futures = [cached.ask("summarize", window_text(article, window), params, rep)
               for window, rep in tasks]

    def finish() -> Future:
        outcome = Future()
        try:
            reply, connect = decide(article, resolved, tasks, _results(futures),
                                    lambda task, items: cached.ask(task, items, params), record)
        except EngineError as exc:
            record.flags.append("aborted: engine error")
            record.stats = cached.stats(time.monotonic() - started)
            outcome.set_exception(exc)
            return outcome

        def connect_step(reply: Future) -> None:
            try:
                connect(reply)
                record.stats = cached.stats(time.monotonic() - started)
            except BaseException as exc:  # a done-callback's own exception would be lost
                outcome.set_exception(exc)
            else:
                outcome.set_result(record)

        reply.add_done_callback(connect_step)
        return outcome

    return record, finish


def decide(article: Article, resolved: PipelineConfig, tasks: list[tuple[Window, int]],
           summaries: list[str], ask: Callable[[str, list[str]], Future],
           record: RunRecord) -> tuple[Future, Callable[[Future], None]]:
    """Fill the record from the local summaries, one per task: split them
    into statements, cluster, vote inside each retained cluster and arrange
    the winners. Every reply it needs is asked for as `ask(task, items)`, a
    future: the classify calls of every contested cluster at once, their
    replies read in cluster order (if one raises, the calls not started are
    cancelled and the running ones waited for before the error propagates),
    then the connect call, which fewer than two winners do not need.
    Statements are numbered in task order, so concurrency never changes the
    result.

    Returns the connect call's future and the connect step, which is given
    that future, waits for its reply, connects the winners with it or falls
    back, fills `record.final` and marks the record complete. (The step takes
    the future rather than holding it, so a done-callback that runs the step
    makes no reference cycle that would keep the article's statements alive.)"""
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
        for pos, text in enumerate(segment_sentences(summary), 1):
            seq += 1
            statements.append(Statement(text=text, window_ordinal=window.ordinal,
                                        generation_seq=seq, position_in_summary=pos,
                                        token_bag=bag_of(text)))
            seqs.append(seq)
        record.local_summaries.append({"window_ordinal": window.ordinal, "repetition": rep,
                                       "text": summary, "statement_seqs": seqs})

    cluster_set = dbscan(statements, resolved.eps, resolved.min_pts)
    retained = filter_clusters(cluster_set)
    record.noise = [_statement_dict(s) for s in cluster_set.noise]
    for cid, members in enumerate(retained, 1):
        if len(members) > resolved.k:
            record.flags.append(f"cluster {cid} exceeds K={resolved.k} statements")
        record.clusters.append({
            "id": cid, "size": len(members),
            "statement_seqs": [s.generation_seq for s in members],
            "texts": [s.text for s in members],
            "local_summary_count": local_summary_count(members)})

    replies = _results([  # a cluster of one phrasing is one category, without a call
        ask("classify", [s.text for s in members])
        if len({lexicon[s.text][1] for s in members}) > 1 else done(None)
        for members in retained])
    votes = []
    for cid, (members, answer) in enumerate(zip(retained, replies), 1):
        partition = ([list(range(1, len(members) + 1))] if answer is None
                     else parse_classification_response(answer, len(members)))
        votes.append({"cluster_id": cid, **vote(members, partition)})
    record.votes = votes

    by_seq = {s.generation_seq: s for s in statements}
    winner_cluster = {v["winner_seq"]: v["cluster_id"] for v in votes}
    arranged = []
    if votes:
        arranged = arrange([by_seq[seq] for seq in winner_cluster], article, bag_of)
    else:
        record.flags.append("no cluster survived MinPts")

    winners = [s for s, _ in arranged]
    reply = ask("connect", [s.text for s in winners]) if len(winners) > 1 else done(None)

    def connect(reply: Future) -> None:
        connected, fallback = "", False
        if winners:
            connected, fallback = integrate(winners, lambda texts: reply.result(), bag_of)
        record.final = {
            "statements": [
                {
                    "text": s.text,
                    "source_anchor": anchor_idx,
                    "anchor_word_offset": article.offsets[anchor_idx - 1] + 1,
                    "window_ordinal": s.window_ordinal,
                    "generation_seq": s.generation_seq,
                    "cluster_id": winner_cluster[s.generation_seq],
                }
                for s, anchor_idx in arranged
            ],
            "connected_text": connected,
            "fallback": fallback,
        }
        record.status = "complete"

    return reply, connect


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
