"""Contradiction-aware selection and assembly of the final summary: majority
voting inside each cluster, source-order arrangement, and connective
integration with a semantic-preservation guardrail."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .cluster import Statement
from .engine import EngineError, EngineParams, SummaryEngine
from .lexical import rouge1_f1, rouge1_recall
from .text import Article, segment_sentences

log = logging.getLogger(__name__)

PRESERVATION_RECALL = 0.8


@dataclass
class VoteOutcome:
    cluster_id: int
    partition: list[list[int]]
    winner_category: list[int]
    winner_statement: Statement
    rationale: str  # unique-majority | cross-category-tie | within-category-latest


def vote(cluster: list[Statement], partition: list[list[int]], cluster_id: int = 0) -> VoteOutcome:
    """Pick the largest semantic category; break category ties toward the one
    holding the latest-generated statement, and inside the winning category
    pick the latest-generated statement."""
    indices = sorted(i for group in partition for i in group)
    if indices != list(range(1, len(cluster) + 1)):
        raise ValueError(f"partition {partition} is not a partition of 1..{len(cluster)}")

    def latest_seq(group: list[int]) -> int:
        return max(cluster[i - 1].generation_seq for i in group)

    top_size = max(len(g) for g in partition)
    tied = [g for g in partition if len(g) == top_size]
    winner_category = max(tied, key=latest_seq)
    winner = max((cluster[i - 1] for i in winner_category), key=lambda s: s.generation_seq)

    if len(tied) > 1:
        rationale = "cross-category-tie"
    elif len(winner_category) > 1:
        rationale = "within-category-latest"
    else:
        rationale = "unique-majority"
    return VoteOutcome(
        cluster_id=cluster_id,
        partition=partition,
        winner_category=winner_category,
        winner_statement=winner,
        rationale=rationale,
    )


def anchor(statement: Statement, article: Article) -> int:
    """Index of the article sentence best lexically matching the statement;
    ties go to the smallest index."""
    if not article.sentences:
        raise ValueError("article has no sentences")
    best_idx, best_score = 1, -1.0
    for sent in article.sentences:
        score = rouge1_f1(statement.token_bag, sent.text)
        if score > best_score:
            best_idx, best_score = sent.index, score
    return best_idx


def arrange(statements: list[Statement], article: Article) -> list[tuple[Statement, int]]:
    """Stable sort of (statement, anchor) pairs by (anchor, generation_seq)."""
    anchored = [(s, anchor(s, article)) for s in statements]
    anchored.sort(key=lambda pair: (pair[1], pair[0].generation_seq))
    return anchored


def _appears_in_order(statements: list[Statement], connected_text: str) -> bool:
    """Check the statements surface in the connected text in their given order,
    by anchoring each to the connected text's own sentences."""
    pieces = segment_sentences(connected_text)
    if not pieces:
        return False
    positions = []
    for stmt in statements:
        best_idx, best_score = 0, -1.0
        for i, piece in enumerate(pieces):
            score = rouge1_f1(stmt.token_bag, piece.text)
            if score > best_score:
                best_idx, best_score = i, score
        positions.append(best_idx)
    return positions == sorted(positions)


def integrate(
    statements: list[Statement],
    engine: SummaryEngine,
    params: EngineParams | None = None,
) -> tuple[str, bool]:
    """Connect the selected statements via the engine, validating that no
    statement was rewritten away (unigram recall >= 0.8 against the result and
    original order preserved); otherwise fall back to plain concatenation.

    Returns (connected_text, used_fallback).
    """
    if not statements:
        raise ValueError("need at least one statement")
    texts = [s.text for s in statements]
    if len(texts) == 1:
        return texts[0], False
    try:
        connected = engine.connect(texts, params)
    except EngineError as exc:
        log.warning("connect failed (%s); falling back to concatenation", exc)
        return " ".join(texts), True

    preserved = all(
        rouge1_recall(s.token_bag, connected) >= PRESERVATION_RECALL for s in statements
    )
    if preserved and _appears_in_order(statements, connected):
        return connected, False
    log.warning("connected text failed the preservation check; falling back")
    return " ".join(texts), True
