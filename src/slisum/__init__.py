"""Faithful abstractive summarization via overlapping sliding windows,
lexical DBSCAN clustering, and majority voting."""

from .aggregate import VoteOutcome, anchor, arrange, integrate, vote
from .cluster import ClusterSet, Statement, dbscan, default_min_pts, filter_clusters
from .engine import (
    EngineError,
    EngineParams,
    HttpEngine,
    MockEngine,
    SummaryEngine,
    make_engine,
    parse_classification_response,
)
from .evalkit import (
    DistanceDiagnostics,
    PositionHistogram,
    ScoreReport,
    distance_diagnostics,
    position_histogram,
    score,
)
from .lexical import TokenBag, distance, hausdorff, rouge1_f1, rouge2_f1, rougeL_f1, tokenize
from .pipeline import (
    PipelineConfig,
    ResponseCache,
    RunRecord,
    run,
)
from .text import (
    Article,
    ConfigurationError,
    Sentence,
    Window,
    WindowPlan,
    build_window_plan,
    k_ratio,
    segment_sentences,
    window_text,
)

__version__ = "0.1.0"
