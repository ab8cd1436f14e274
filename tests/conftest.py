"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's own code paths: naive list-based
overlap counting, recursive LCS, an exhaustive DBSCAN reachability closure,
and a double-loop Hausdorff.
"""
from __future__ import annotations

import functools
import random
import string

import pytest

from slisum.cluster import Statement
from slisum.text import Article

STRIP = string.punctuation + "‘’“”–—…"


# ---------------------------------------------------------------- tokenizing

def oracle_tokens(text: str) -> list[str]:
    return [w.strip(STRIP) for w in text.casefold().split() if w.strip(STRIP)]


def _f1(overlap: int, la: int, lb: int) -> float:
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    return 2.0 * overlap / (la + lb)


def oracle_rouge1(a: str, b: str) -> float:
    ta, tb = oracle_tokens(a), list(oracle_tokens(b))
    overlap = 0
    for tok in ta:
        if tok in tb:
            tb.remove(tok)
            overlap += 1
    return _f1(overlap, len(ta), len(oracle_tokens(b)))


def oracle_rouge2(a: str, b: str) -> float:
    ga = [tuple(p) for p in zip(oracle_tokens(a), oracle_tokens(a)[1:])]
    gb = [tuple(p) for p in zip(oracle_tokens(b), oracle_tokens(b)[1:])]
    rest = list(gb)
    overlap = 0
    for g in ga:
        if g in rest:
            rest.remove(g)
            overlap += 1
    return _f1(overlap, len(ga), len(gb))


def oracle_rougeL(a: str, b: str) -> float:
    ta, tb = tuple(oracle_tokens(a)), tuple(oracle_tokens(b))

    @functools.lru_cache(maxsize=None)
    def lcs(i: int, j: int) -> int:
        if i == len(ta) or j == len(tb):
            return 0
        if ta[i] == tb[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    return _f1(lcs(0, 0), len(ta), len(tb))


def oracle_distance(a: str, b: str) -> float:
    return 1.0 - oracle_rouge1(a, b)


def oracle_hausdorff(xs: list[str], ys: list[str]) -> float:
    sup_x = 0.0
    for x in xs:
        inf = min(oracle_distance(x, y) for y in ys)
        sup_x = max(sup_x, inf)
    sup_y = 0.0
    for y in ys:
        inf = min(oracle_distance(x, y) for x in xs)
        sup_y = max(sup_y, inf)
    return max(sup_x, sup_y)


# ------------------------------------------------------------- DBSCAN oracle

def oracle_dbscan(statements: list[Statement], eps: float, min_pts: int):
    """Exhaustive reachability closure.

    Clusters are connected components of core points under eps-adjacency;
    border points join the earliest-created reachable cluster, where creation
    order is ascending minimal core generation_seq. Returns (clusters, noise)
    as sets of generation_seqs.
    """
    pts = sorted(statements, key=lambda s: s.generation_seq)
    n = len(pts)
    adj = [
        {j for j in range(n) if oracle_distance(pts[i].text, pts[j].text) <= eps}
        for i in range(n)
    ]
    cores = [i for i in range(n) if len(adj[i]) >= min_pts]
    core_set = set(cores)

    assigned: dict[int, int] = {}
    components: list[set[int]] = []
    for c in cores:
        if c in assigned:
            continue
        comp = {c}
        frontier = [c]
        while frontier:
            u = frontier.pop()
            for v in core_set & adj[u]:
                if v not in comp:
                    comp.add(v)
                    frontier.append(v)
        for member in comp:
            assigned[member] = len(components)
        components.append(comp)
    components_order = sorted(range(len(components)), key=lambda k: min(components[k]))
    rank = {old: new for new, old in enumerate(components_order)}

    clusters = [set(components[old]) for old in components_order]
    noise = set()
    for i in range(n):
        if i in core_set:
            continue
        reachable = sorted(rank[assigned[c]] for c in core_set & adj[i])
        if reachable:
            clusters[reachable[0]].add(i)
        else:
            noise.add(i)
    seqs = [p.generation_seq for p in pts]
    return (
        {frozenset(seqs[i] for i in members) for members in clusters},
        {seqs[i] for i in noise},
    )


# ------------------------------------------------------------------ builders

def make_statements(texts: list[str], start_seq: int = 1) -> list[Statement]:
    return [
        Statement(text=t, window_ordinal=1, generation_seq=start_seq + i, position_in_summary=1)
        for i, t in enumerate(texts)
    ]


def random_article(rng: random.Random, n_sentences: int, min_words=3, max_words=40) -> Article:
    sentences = []
    for i in range(n_sentences):
        k = rng.randint(min_words, max_words)
        words = [f"w{i}x{j}q{rng.randint(0, 99)}" for j in range(k)]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
    return Article.from_text(f"rand-{n_sentences}", " ".join(sentences))


def zipf_texts(rng: random.Random, n: int, vocab_size=400, min_words=3, max_words=14,
               exponent=1.1) -> list[str]:
    """n sentences over a Zipf-weighted vocabulary: common words recur across
    sentences, so many pairs share some tokens and few share most."""
    vocab = [f"z{i}" for i in range(vocab_size)]
    weights = [1.0 / (rank ** exponent) for rank in range(1, vocab_size + 1)]
    texts = []
    for _ in range(n):
        words = rng.choices(vocab, weights=weights, k=rng.randint(min_words, max_words))
        words[0] = words[0].capitalize()
        texts.append(" ".join(words) + ".")
    return texts


EVENT_A = (
    "Alpha rocket launch delivered the science payload into polar orbit "
    "after a flawless countdown on Monday morning period."
)
EVENT_B = (
    "Harbor engineers finished repairing the storm damaged eastern pier "
    "ahead of schedule despite heavy rain and strong winds."
)
EVENT_C = (
    "City council approved new funding for bicycle lanes connecting "
    "downtown neighborhoods to suburban transit hubs next spring season."
)

PLANTED_EVENTS = (EVENT_A, EVENT_B, EVENT_C)
_EVENT_POSITIONS = {
    2: EVENT_A, 5: EVENT_A, 8: EVENT_A,
    12: EVENT_B, 15: EVENT_B, 18: EVENT_B,
    22: EVENT_C, 25: EVENT_C, 28: EVENT_C,
}


def _noise_sentence(i: int) -> str:
    words = [f"nx{i}w{j}" for j in range(17)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def planted_article() -> Article:
    """30 sentences with three events, each planted as three identical copies
    spread over consecutive step segments; all other sentences use vocabularies
    disjoint from everything else."""
    sentences = [_EVENT_POSITIONS.get(i, _noise_sentence(i)) for i in range(1, 31)]
    return Article.from_text("planted", " ".join(sentences))


@pytest.fixture
def planted():
    return planted_article()
