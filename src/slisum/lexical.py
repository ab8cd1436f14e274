"""Lexical overlap metrics: ROUGE-1/2/L F1, the sentence distance used for
clustering, and the Hausdorff distance between sentence sets.

Conventions (fixed so scores are reproducible bit-for-bit):
  * tokenization case-folds, splits on whitespace, and strips leading/trailing
    punctuation; no stemming, no stopword removal;
  * unigram/bigram overlap is clipped (multiset intersection);
  * two empty inputs score 1.0, exactly one empty input scores 0.0.

Many-to-many comparisons go through a postings index (token -> the bags that
hold it): with any distance threshold below 1, a pair that shares no token is
never a match, so only token-sharing pairs need an overlap count.
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


def rouge1_f1(a, b) -> float:
    """Unigram-overlap F1 in [0, 1]; accepts strings or TokenBags."""
    bag_a, bag_b = _as_bag(a), _as_bag(b)
    if bag_a.length == 0 and bag_b.length == 0:
        return 1.0
    if bag_a.length == 0 or bag_b.length == 0:
        return 0.0
    return 2.0 * bag_a.overlap(bag_b) / (bag_a.length + bag_b.length)


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


def rouge2_f1(a: str, b: str) -> float:
    """Bigram-overlap F1 with the same empty-input conventions as rouge1_f1."""
    ta, tb = tokenize(a), tokenize(b)
    ca, cb = _ngram_counts(ta, 2), _ngram_counts(tb, 2)
    na, nb = sum(ca.values()), sum(cb.values())
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    overlap = sum(min(c, cb[g]) for g, c in ca.items() if g in cb)
    return 2.0 * overlap / (na + nb)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rougeL_f1(a: str, b: str) -> float:
    """Longest-common-subsequence F1 with the same empty-input conventions."""
    ta, tb = tokenize(a), tokenize(b)
    if not ta and not tb:
        return 1.0
    if not ta or not tb:
        return 0.0
    lcs = _lcs_length(ta, tb)
    return 2.0 * lcs / (len(ta) + len(tb))


def hausdorff(xs: list, ys: list) -> float:
    """Hausdorff distance between two non-empty sentence sets under `distance`;
    members are strings or TokenBags."""
    if not xs or not ys:
        raise ValueError("hausdorff requires two non-empty sentence sets")
    bx = [_as_bag(x) for x in xs]
    by = [_as_bag(y) for y in ys]
    forward = max(min(distance(x, y) for y in by) for x in bx)
    backward = max(min(distance(x, y) for x in bx) for y in by)
    return max(forward, backward)
