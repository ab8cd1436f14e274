"""Lexical overlap metrics: ROUGE-1/2/L F1, the sentence distance used for
clustering, and the Hausdorff distance between sentence sets.

Conventions (fixed so scores are reproducible bit-for-bit):
  * tokenization case-folds, splits on whitespace, and strips leading/trailing
    punctuation; no stemming, no stopword removal;
  * unigram/bigram overlap is clipped (multiset intersection);
  * two empty inputs score 1.0, exactly one empty input scores 0.0.

Many-to-many comparisons go through a postings index (token -> the bags that
hold it): a pair that shares no token is at distance 1.0 (0.0 when both bags
are empty), so only token-sharing pairs need an overlap count.
"""
from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

_STRIP_CHARS = string.punctuation + "‘’“”–—…"


def tokenize(text: str) -> list[str]:
    """Split on whitespace, case-fold, strip surrounding punctuation."""
    tokens = []
    for raw in text.casefold().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class TokenBag:
    """Multiset of word tokens plus its cardinality."""

    counts: tuple[tuple[str, int], ...]
    length: int

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "TokenBag":
        return cls(counts=tuple(sorted(Counter(tokens).items())), length=len(tokens))

    @classmethod
    def from_text(cls, text: str) -> "TokenBag":
        return cls.from_tokens(tokenize(text))

    def overlap(self, other: "TokenBag") -> int:
        """Clipped unigram overlap (multiset intersection size)."""
        a = dict(self.counts)
        b = dict(other.counts)
        if len(b) < len(a):
            a, b = b, a
        return sum(min(c, b[t]) for t, c in a.items() if t in b)


Postings = dict[str, list[tuple[int, int]]]


def postings(bags: list[TokenBag]) -> Postings:
    """Inverted index: token -> [(bag index, count in that bag)], indices ascending."""
    index: Postings = {}
    for i, bag in enumerate(bags):
        add_posting(index, i, bag)
    return index


def add_posting(index: Postings, i: int, bag: TokenBag) -> None:
    """Index `bag` as bag number i; i must exceed every index already present."""
    for tok, count in bag.counts:
        index.setdefault(tok, []).append((i, count))


def overlaps(bag: TokenBag, index: Postings) -> dict[int, int]:
    """Clipped unigram overlap of `bag` with every indexed bag it shares a
    token with; bags sharing none are absent."""
    acc: dict[int, int] = {}
    for tok, count in bag.counts:
        for j, other in index.get(tok, ()):
            acc[j] = acc.get(j, 0) + (count if count < other else other)
    return acc


def _as_bag(value) -> TokenBag:
    if isinstance(value, TokenBag):
        return value
    return TokenBag.from_text(value)


def _f1(overlap: int, la: int, lb: int) -> float:
    """F1 of an overlap count between inputs of sizes la and lb, with the
    empty-input conventions above."""
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    return 2.0 * overlap / (la + lb)


def rouge1_f1(a, b) -> float:
    """Unigram-overlap F1 in [0, 1]; accepts strings or TokenBags."""
    bag_a, bag_b = _as_bag(a), _as_bag(b)
    return _f1(bag_a.overlap(bag_b), bag_a.length, bag_b.length)


def rouge1_recall(a, b) -> float:
    """Fraction of a's tokens found in b (clipped); empty a scores 1.0."""
    bag_a, bag_b = _as_bag(a), _as_bag(b)
    if bag_a.length == 0:
        return 1.0
    if bag_b.length == 0:
        return 0.0
    return bag_a.overlap(bag_b) / bag_a.length


def distance(a, b) -> float:
    """Sentence distance: one minus the unigram-overlap F1. Symmetric, in [0, 1]."""
    return 1.0 - rouge1_f1(a, b)


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge2_tokens(ta: list[str], tb: list[str]) -> float:
    """Bigram-overlap F1 of two token lists."""
    ca, cb = _ngram_counts(ta, 2), _ngram_counts(tb, 2)
    overlap = sum(min(c, cb[g]) for g, c in ca.items() if g in cb)
    return _f1(overlap, sum(ca.values()), sum(cb.values()))


def rouge2_f1(a: str, b: str) -> float:
    """Bigram-overlap F1 with the same empty-input conventions as rouge1_f1."""
    return rouge2_tokens(tokenize(a), tokenize(b))


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, by the bit-parallel
    recurrence (Allison & Dix 1986; Hyyro 2004). After each token of `a`, bit
    j of `v` is clear where the dynamic-programming row steps up,
    LCS(a[:i], b[:j+1]) > LCS(a[:i], b[:j]), so the clear bits count the
    row's last cell. The shorter list is folded over masks of the longer one:
    min(|a|, |b|) big-int steps instead of |a|*|b| table cells."""
    if len(a) > len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        m = masks.get(tok)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rougeL_tokens(ta: list[str], tb: list[str]) -> float:
    """Longest-common-subsequence F1 of two token lists."""
    return _f1(_lcs_length(ta, tb), len(ta), len(tb))


def rougeL_f1(a: str, b: str) -> float:
    """Longest-common-subsequence F1 with the same empty-input conventions."""
    return rougeL_tokens(tokenize(a), tokenize(b))


def set_distances(groups: list[list[TokenBag]]) -> tuple[list[float], list[float]]:
    """Distances under `distance` within and between sets of bags.

    Returns (same, between): `same` holds the distance of every pair of
    members of one set, sets in order and pairs (i, j), i < j, in order;
    `between` holds the Hausdorff distance of every pair of sets (g, h),
    g < h, in order. Every set must be non-empty to have a Hausdorff distance.

    Members are scanned in order, each scored only against the earlier
    members it shares a token with, found through a postings index that grows
    as the scan goes; a pair sharing no token is at distance 1.0, or 0.0 when
    both bags are empty. The distance is the float expression `distance`
    evaluates, so every value equals a full pairwise scan.
    """
    bounds = list(accumulate((len(group) for group in groups), initial=0))
    members = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    bags = [bag for group in groups for bag in group]
    owner = [g for g, ids in enumerate(members) for _ in ids]
    # nearest[i][h], for h other than i's own set: distance from member i to
    # the nearest member of set h
    nearest = [[1.0] * len(groups) for _ in bags]
    empty = [i for i, bag in enumerate(bags) if bag.length == 0]
    for i in empty:
        for j in empty:
            nearest[i][owner[j]] = 0.0
    same_shared: dict[tuple[int, int], float] = {}
    index: Postings = {}
    for i, bag in enumerate(bags):
        g = owner[i]
        for j, o in overlaps(bag, index).items():
            d = 1.0 - 2.0 * o / (bags[j].length + bag.length)
            h = owner[j]
            if d < nearest[i][h]:
                nearest[i][h] = d
            if d < nearest[j][g]:
                nearest[j][g] = d
            if h == g:
                same_shared[j, i] = d
        add_posting(index, i, bag)

    same: list[float] = []
    between: list[float] = []
    for g, ids in enumerate(members):
        for i in ids:
            for j in range(i + 1, ids.stop):
                d = same_shared.get((i, j))
                if d is None:
                    d = 0.0 if bags[i].length == bags[j].length == 0 else 1.0
                same.append(d)
        for h in range(g + 1, len(groups)):
            between.append(max(max(nearest[i][h] for i in ids),
                               max(nearest[j][g] for j in members[h])))
    return same, between


def hausdorff(xs: list, ys: list) -> float:
    """Hausdorff distance between two non-empty sentence sets under `distance`;
    members are strings or TokenBags."""
    if not xs or not ys:
        raise ValueError("hausdorff requires two non-empty sentence sets")
    _, between = set_distances([[_as_bag(x) for x in xs], [_as_bag(y) for y in ys]])
    return between[0]
