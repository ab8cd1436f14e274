"""Contradiction-aware selection and assembly of the final summary: majority
voting inside each cluster, source-order arrangement, and connective
integration with a semantic-preservation guardrail."""
from __future__ import annotations

import logging
from collections.abc import Callable

from .cluster import Statement, local_summary_count
from .engine import EngineError
# `rouge1_f1` is the score _best_matches reproduces exactly; it stays
# importable from here because the benchmark's span tracer wraps it by name.
from .lexical import TokenBag, rouge1_f1, rouge1_recall  # noqa: F401
from .text import Article, segment_sentences

log = logging.getLogger(__name__)

PRESERVATION_RECALL = 0.8


def vote(cluster: list[Statement], partition: list[list[int]]) -> dict:
    """The record's vote on one cluster, one vote per local summary: pick the
    semantic category whose statements come from the most distinct local
    summaries (`local_summary_count`), so a claim one summary repeats counts
    once; break category ties toward the one holding the latest-generated
    statement, and inside the winning category pick the latest-generated
    statement. Returns `{partition, winner_category, winner_seq, rationale}`,
    where `winner_seq` is the winner's generation_seq and the rationale is
    unique-majority, cross-category-tie or within-category-latest."""
    indices = sorted(i for group in partition for i in group)
    if indices != list(range(1, len(cluster) + 1)):
        raise ValueError(f"partition {partition} is not a partition of 1..{len(cluster)}")

    def latest_seq(group: list[int]) -> int:
        return max(cluster[i - 1].generation_seq for i in group)

    support = [local_summary_count([cluster[i - 1] for i in g]) for g in partition]
    top = max(support)
    tied = [g for g, votes in zip(partition, support) if votes == top]
    winner_category = max(tied, key=latest_seq)

    if len(tied) > 1:
        rationale = "cross-category-tie"
    elif len(winner_category) > 1:
        rationale = "within-category-latest"
    else:
        rationale = "unique-majority"
    return {
        "partition": partition,
        "winner_category": winner_category,
        "winner_seq": latest_seq(winner_category),
        "rationale": rationale,
    }


def _best_matches(bags: list[TokenBag], targets: list[TokenBag]) -> list[int]:
    """For each bag, the position in `targets` of its highest `rouge1_f1`
    target; ties go to the smallest position.

    Only targets sharing a token with the bag can score above 0, so they are
    found through a postings index over the targets; with none, every target
    scores 0 and position 0 wins. An empty bag scores 1.0 against the first
    empty target, if there is one.

    The bag's tokens are walked rarest first (fewest postings, then by token),
    and each target first met through one is scored exactly. Once `rest` of
    the bag's tokens are left unwalked, a target not met yet shares at most
    `rest` of them, so it scores at most 2 * rest / (la + rest): when that is
    below the best score, no such target can win or tie, and the walk stops
    (the max-score rule of Turtle & Flood, 1995). The operands are small
    integers and float division is monotone, so the bound holds in floats.
    """
    index: dict[str, list[int]] = {}  # token -> positions of the targets holding it
    for j, target in enumerate(targets):
        for tok in target.counts:
            index.setdefault(tok, []).append(j)
    first_empty = next((i for i, t in enumerate(targets) if t.length == 0), 0)
    best = []
    for bag in bags:
        la = bag.length
        if la == 0:
            best.append(first_empty)
            continue
        pos, score = 0, 0.0
        rest = la
        seen: set[int] = set()
        for tok in sorted(bag.counts, key=lambda t: (len(index.get(t, ())), t)):
            if 2.0 * rest / (la + rest) < score:
                break
            rest -= bag.counts[tok]
            for j in index.get(tok, ()):
                if j in seen:
                    continue
                seen.add(j)
                target = targets[j]
                s = 2.0 * bag.overlap(target) / (la + target.length)
                if s > score or (s == score and j < pos):
                    pos, score = j, s
        best.append(pos)
    return best


def arrange(statements: list[Statement], article: Article,
            bag_of=TokenBag.from_text) -> list[tuple[Statement, int]]:
    """Anchor each statement to the article sentence best lexically matching
    it (ties go to the earliest sentence), then stable-sort the (statement,
    anchor) pairs by (anchor, generation_seq). `bag_of` gives a sentence
    text's token bag; a caller holding bags already passes a lookup."""
    if not article.sentences:
        raise ValueError("article has no sentences")
    best = _best_matches([s.token_bag for s in statements],
                         [bag_of(sent) for sent in article.sentences])
    anchored = [(s, pos + 1) for s, pos in zip(statements, best)]
    anchored.sort(key=lambda pair: (pair[1], pair[0].generation_seq))
    return anchored


def _appears_in_order(statements: list[Statement], connected_text: str, bag_of) -> bool:
    """Check the statements surface in the connected text in their given order,
    by anchoring each to the connected text's own sentences."""
    pieces = [bag_of(p) for p in segment_sentences(connected_text)]
    if not pieces:
        return False
    positions = _best_matches([s.token_bag for s in statements], pieces)
    return positions == sorted(positions)


def integrate(
    statements: list[Statement],
    connect: Callable[[list[str]], str],
    bag_of=TokenBag.from_text,
) -> tuple[str, bool]:
    """Connect the selected statements with `connect(texts)`, an engine's
    connect call or the reply the cache holds for it, validating that no
    statement was rewritten away (unigram recall >= 0.8 against the result and
    original order preserved); otherwise fall back to plain concatenation.
    `bag_of` gives the token bag of the connected text and of its sentences.

    Returns (connected_text, used_fallback).
    """
    if not statements:
        raise ValueError("need at least one statement")
    texts = [s.text for s in statements]
    if len(texts) == 1:
        return texts[0], False
    try:
        connected = connect(texts)
    except EngineError as exc:
        log.warning("connect failed (%s); falling back to concatenation", exc)
        return " ".join(texts), True

    connected_bag = bag_of(connected)
    preserved = all(
        rouge1_recall(s.token_bag, connected_bag) >= PRESERVATION_RECALL for s in statements
    )
    if preserved and _appears_in_order(statements, connected, bag_of):
        return connected, False
    log.warning("connected text failed the preservation check; falling back")
    return " ".join(texts), True
