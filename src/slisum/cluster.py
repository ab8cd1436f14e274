"""DBSCAN clustering of local-summary statements under the lexical distance,
plus the MinPts-based filter that discards unimportant or hallucinated statements."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

# `distance` is the metric dbscan's neighbour test reproduces exactly; it stays
# importable from here because the benchmark's span tracer wraps it by name.
from .lexical import TokenBag, distance, earlier_distances  # noqa: F401

log = logging.getLogger(__name__)

_UNVISITED = -2
_NOISE = -1


@dataclass(frozen=True)
class Statement:
    """One sentence of one local summary.

    generation_seq is a global monotone counter assigned in generation order;
    it also fixes every order-dependent tie in clustering and voting. The
    token bag of the text is built from it unless given, and takes no part in
    equality or hashing.
    """

    text: str
    window_ordinal: int
    generation_seq: int
    position_in_summary: int
    token_bag: TokenBag = field(default=None, compare=False)

    def __post_init__(self):
        if self.token_bag is None:
            object.__setattr__(self, "token_bag", TokenBag.from_text(self.text))


@dataclass
class ClusterSet:
    clusters: list[list[Statement]]
    noise: list[Statement]
    min_pts: int


def _neighbors(bags: list[TokenBag], eps: float) -> list[list[int]]:
    """For each bag, the ascending indices of bags within `distance` eps,
    itself included. Pairs come from `earlier_distances`, and every pair it
    does not yield is at distance 1 > eps, so the lists equal a full pairwise
    scan."""
    rows: list[list[int]] = []
    for i, pairs in enumerate(earlier_distances(bags)):
        near = sorted(j for j, d in pairs if d <= eps)
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
    # Overlapping windows repeat statements verbatim. Identical texts have
    # identical bags and so identical neighbour rows: score each distinct text
    # once, then give every copy the ascending indices of all copies of its
    # neighbouring texts.
    distinct: dict[str, int] = {}
    ids = [distinct.setdefault(p.text, len(distinct)) for p in points]
    copies: list[list[int]] = [[] for _ in distinct]
    for i, d in enumerate(ids):
        copies[d].append(i)
    bags = [points[members[0]].token_bag for members in copies]
    rows = [sorted(i for d in row for i in copies[d]) for row in _neighbors(bags, eps)]
    neighbors = [rows[d] for d in ids]

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
        min_pts=min_pts,
    )


def local_summary_count(members: list[Statement]) -> int:
    """Number of distinct local summaries the statements come from.

    Positions restart at 1 in each summary and generation_seq runs on
    consecutively through it, so generation_seq - position_in_summary is the
    seq before a summary's first statement: one value per summary.
    """
    return len({s.generation_seq - s.position_in_summary for s in members})


def filter_clusters(cluster_set: ClusterSet) -> list[list[Statement]]:
    """Keep clusters whose statements come from at least MinPts distinct local
    summaries, so a claim one summary repeats is not support; log what gets
    dropped."""
    retained = []
    for members in cluster_set.clusters:
        support = local_summary_count(members)
        if support >= cluster_set.min_pts:
            retained.append(members)
        else:
            log.info(
                "dropping cluster seen in %d local summaries (< MinPts %d): %r",
                support, cluster_set.min_pts,
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
