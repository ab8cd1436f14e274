"""Lexical overlap metrics: ROUGE-1/2/L F1, the sentence distance used for
clustering, and the Hausdorff distance between sentence sets.

Conventions (fixed so scores are reproducible bit-for-bit):
  * tokenization case-folds, splits on whitespace, and strips leading/trailing
    punctuation; no stemming, no stopword removal;
  * unigram/bigram overlap is clipped (multiset intersection);
  * two empty inputs score 1.0, exactly one empty input scores 0.0.

Clustering and the distance diagnostics share one many-to-many scan,
`earlier_distances`: a postings index (token -> the bags that hold it) finds
the pairs that share a token, and only those need an overlap count. Every other
pair is at distance 1.0, except two empty bags, which are at 0.0; the scan is
the one place that rule lives.
"""
from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass

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
    """Multiset of word tokens plus its cardinality. `counts` maps each token
    to its count; treat it as read-only."""

    counts: dict[str, int]
    length: int

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "TokenBag":
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        return cls(counts=counts, length=len(tokens))

    @classmethod
    def from_text(cls, text: str) -> "TokenBag":
        return cls.from_tokens(tokenize(text))

    def overlap(self, other: "TokenBag") -> int:
        """Clipped unigram overlap (multiset intersection size)."""
        a, b = self.counts, other.counts
        if len(b) < len(a):
            a, b = b, a
        total = 0
        for tok, count in a.items():
            c = b.get(tok)
            if c is not None:
                total += count if count < c else c
        return total


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


def earlier_distances(bags: list[TokenBag]):
    """For each bag in order, the pairs (j, distance(bags[j], bag)) of the
    earlier bags j at a distance below 1.0.

    A growing postings index finds the earlier bags that share a token with
    the bag, and each is scored with the float expression `distance`
    evaluates. An empty bag shares no token but is at 0.0 from every earlier
    empty bag; every pair not yielded is at 1.0. Consume a bag's pairs before
    asking for the next bag's.
    """
    index: dict[str, list[tuple[int, int]]] = {}
    empty: list[int] = []
    for i, bag in enumerate(bags):
        la = bag.length
        if la == 0:
            yield [(j, 0.0) for j in empty]
            empty.append(i)
            continue
        acc: dict[int, int] = {}
        for tok, count in bag.counts.items():
            for j, other in index.get(tok, ()):
                acc[j] = acc.get(j, 0) + (count if count < other else other)
        yield ((j, 1.0 - 2.0 * o / (la + bags[j].length)) for j, o in acc.items())
        for tok, count in bag.counts.items():
            index.setdefault(tok, []).append((i, count))


def _bigram_counts(tokens: list[str]) -> Counter:
    return Counter(zip(tokens, tokens[1:]))


def rouge2_tokens(ta: list[str], tb: list[str]) -> float:
    """Bigram-overlap F1 of two token lists."""
    ca, cb = _bigram_counts(ta), _bigram_counts(tb)
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


def set_distances(groups: list[list[str]]) -> tuple[list[float], list[float]]:
    """Distances under `distance` within and between sets of texts.

    Returns (same, between): `same` holds the distance of every pair of
    members of one set, sets in order and pairs (i, j), i < j, in order;
    `between` holds the Hausdorff distance of every pair of sets (g, h),
    g < h, in order. Every set must be non-empty to have a Hausdorff distance.

    A cluster holds its statement's copies from overlapping windows. Each
    distinct text is tokenized once, and each set's distinct texts are
    scanned once: copies are at 0.0 from each other and equally far from any
    other text. The pairs come from `earlier_distances` over the distinct
    texts, and every value equals a full pairwise scan; different texts with
    equal bags are scanned as two, at 0.0 from each other. The Hausdorff
    maxima are taken once per set, not once per pair of sets.
    """
    if len(groups) > 1 and not all(groups):
        raise ValueError("every set must be non-empty to have a Hausdorff distance")
    made: dict[str, TokenBag] = {}  # the bag of each distinct text
    bags: list[TokenBag] = []  # each set's distinct texts' bags, sets in order
    owner: list[int] = []  # the set of each distinct text
    starts: list[int] = []  # starts[g]: the first distinct text of set g
    ids: list[list[int]] = []  # ids[g]: the distinct text of each member of set g
    for g, group in enumerate(groups):
        starts.append(len(bags))
        first: dict[str, int] = {}
        row = []
        for text in group:
            u = first.setdefault(text, len(bags))
            if u == len(bags):
                if text not in made:
                    made[text] = TokenBag.from_text(text)
                bags.append(made[text])
                owner.append(g)
            row.append(u)
        ids.append(row)
    starts.append(len(bags))
    # nearest[u][h], for h other than u's own set: distance from bag u to the
    # nearest member of set h
    nearest = [[1.0] * len(groups) for _ in bags]
    same_scored: dict[tuple[int, int], float] = {}
    for i, pairs in enumerate(earlier_distances(bags)):
        g = owner[i]
        for j, d in pairs:
            h = owner[j]
            if d < nearest[i][h]:
                nearest[i][h] = d
            if d < nearest[j][g]:
                nearest[j][g] = d
            if h == g:
                same_scored[j, i] = d

    same: list[float] = []
    for row in ids:
        for k, i in enumerate(row):
            same.extend(0.0 if i == j else same_scored.get((min(i, j), max(i, j)), 1.0)
                        for j in row[k + 1:])
    # far[g][h]: distance from the member of set g farthest from set h to set h
    far = [list(map(max, zip(*nearest[lo:hi]))) for lo, hi in zip(starts, starts[1:])]
    between = [d for g, (row, col) in enumerate(zip(far, zip(*far)))
               for d in map(max, row[g + 1:], col[g + 1:])]
    return same, between


def hausdorff(xs: list[str], ys: list[str]) -> float:
    """Hausdorff distance between two non-empty sentence sets under `distance`;
    ValueError if either set is empty."""
    _, between = set_distances([xs, ys])
    return between[0]

