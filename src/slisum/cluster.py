"""DBSCAN clustering of local-summary statements under the lexical distance,
plus the MinPts-based filter that discards unimportant or hallucinated statements."""
from __future__ import annotations

import logging
from dataclasses import dataclass

# `distance` is the metric dbscan's neighbour test reproduces exactly; it stays
# importable from here because the benchmark's span tracer wraps it by name.
from .lexical import Postings, TokenBag, add_posting, distance, overlaps

log = logging.getLogger(__name__)

_UNVISITED = -2
_NOISE = -1


@dataclass(frozen=True)
class Statement:
    """One sentence of one local summary.

    generation_seq is a global monotone counter assigned in generation order;
    it also fixes every order-dependent tie in clustering and voting.
    """

    text: str
    window_ordinal: int
    generation_seq: int
    position_in_summary: int
    token_bag: TokenBag = None

    def __post_init__(self):
        if self.token_bag is None:
            object.__setattr__(self, "token_bag", TokenBag.from_text(self.text))


@dataclass
class ClusterSet:
    clusters: list[list[Statement]]
    noise: list[Statement]
    eps: float
    min_pts: int


def _neighbors(bags: list[TokenBag], eps: float) -> list[list[int]]:
    """For each bag, the ascending indices of bags within `distance` eps,
    itself included.

    Each bag is scored only against the earlier bags it shares a token with,
    found through a postings index that grows as the scan goes; a pair sharing
    no token is at distance 1 > eps. The distance is the same float expression
    `distance` evaluates, so the lists equal a full pairwise scan. Empty bags
    share no token but are at distance 0 from each other.
    """
    rows: list[list[int]] = []
    index: Postings = {}
    empty: list[int] = []
    for i, bag in enumerate(bags):
        la = bag.length
        if la == 0:
            near = list(empty)
            empty.append(i)
        else:
            near = sorted(
                j for j, o in overlaps(bag, index).items()
                if 1.0 - 2.0 * o / (la + bags[j].length) <= eps
            )
            add_posting(index, i, bag)
        for j in near:
            rows[j].append(i)
        near.append(i)
        rows.append(near)
    return rows


def dbscan(statements: list[Statement], eps: float, min_pts: int) -> ClusterSet:
    """Standard DBSCAN over the pairwise lexical distance.

    A statement is a core point if at least min_pts statements (itself
    included) lie within eps. Statements are processed by ascending
    generation_seq so border-point assignment is deterministic.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")

    points = sorted(statements, key=lambda s: s.generation_seq)
    n = len(points)
    neighbors = _neighbors([p.token_bag for p in points], eps)

    labels = [_UNVISITED] * n
    clusters: list[list[int]] = []
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        if len(neighbors[i]) < min_pts:
            labels[i] = _NOISE
            continue
        cluster_id = len(clusters)
        clusters.append([])
        labels[i] = cluster_id
        seeds = list(neighbors[i])
        pos = 0
        while pos < len(seeds):
            j = seeds[pos]
            pos += 1
            if labels[j] == _NOISE:
                labels[j] = cluster_id
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster_id
            if len(neighbors[j]) >= min_pts:
                seeds.extend(neighbors[j])

    for i, label in enumerate(labels):
        if label >= 0:
            clusters[label].append(i)
    return ClusterSet(
        clusters=[[points[i] for i in members] for members in clusters],
        noise=[points[i] for i, label in enumerate(labels) if label == _NOISE],
        eps=eps,
        min_pts=min_pts,
    )


def filter_clusters(cluster_set: ClusterSet) -> list[list[Statement]]:
    """Keep clusters with size >= MinPts; log what gets dropped."""
    retained = []
    for members in cluster_set.clusters:
        if len(members) >= cluster_set.min_pts:
            retained.append(members)
        else:
            log.info(
                "dropping undersized cluster (%d < MinPts %d): %r",
                len(members), cluster_set.min_pts,
                [s.text for s in members],
            )
    if cluster_set.noise:
        log.debug("discarded %d noise statements", len(cluster_set.noise))
    return retained


def default_min_pts(k_ratio: int) -> int:
    """Default MinPts: half the coverage ratio, rounded half up, at least 1."""
    if k_ratio < 1:
        raise ValueError(f"k_ratio must be >= 1, got {k_ratio}")
    return max(1, (k_ratio + 1) // 2)
