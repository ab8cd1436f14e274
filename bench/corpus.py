"""Seeded synthetic corpora for the benchmark.

Words come from a synthetic vocabulary drawn with Zipf-distributed
frequencies, so common words recur across sentences the way function words do
in prose and unrelated sentences still sit far apart under 1 - ROUGE-1 F1.
Every word has at least two syllables and every sentence starts with a
capital and ends with a period, so the program's sentence splitter sees no
abbreviations or initials and splits exactly where the generator joined.

The same seed always yields the same corpus; the program only ever sees the
JSONL files written here.
"""
from __future__ import annotations

import json
import random

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
VOCABULARY_SIZE = 6000
ZIPF_EXPONENT = 1.07
SENTENCE_WORDS = (8, 28)

# Long articles use the long profile (K=5, MinPts 3), which needs >= 3000 words.
LONG_ARTICLES = 3
# The evaluation workload scores more long articles: ROUGE-L and Hausdorff
# work varies with each article's summary length, and more articles average
# that out.
EVAL_ARTICLES = 6
LONG_ARTICLE_WORDS = 6000
LONG_MIN_WORDS = 3200
# Short articles use the short profile (K=3, MinPts 2). Their lengths are
# spaced geometrically over SHORT_WORDS and do not depend on the seed, so
# seeds change the text but not the amount of work per word.
SHORT_ARTICLES = 15
SHORT_WORDS = (300, 2500)
# Articles this short plan one window repeated K times.
TINY_ARTICLE_WORDS = (60, 100, 140)
# One article sentence in REFERENCE_EVERY goes into the synthetic reference.
REFERENCE_EVERY = 16


class Corpus:
    """Articles as sentence lists, plus the JSONL writers the program reads."""

    def __init__(self, articles: list[tuple[str, list[str]]]):
        self.articles = articles

    @property
    def words(self) -> int:
        return sum(len(s.split()) for _, sents in self.articles for s in sents)

    def sentence_counts(self) -> dict[str, int]:
        return {aid: len(sents) for aid, sents in self.articles}

    def write_articles(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for aid, sents in self.articles:
                fh.write(json.dumps({"id": aid, "article": " ".join(sents)}) + "\n")

    def write_references(self, path: str) -> None:
        """Extractive references: every REFERENCE_EVERY-th sentence, unrelated
        to the fake backend's salience. A fixed stride keeps the reference
        length, and so the ROUGE-L work, nearly the same for every seed."""
        with open(path, "w", encoding="utf-8") as fh:
            for aid, sents in self.articles:
                reference = " ".join(sents[REFERENCE_EVERY // 2::REFERENCE_EVERY])
                fh.write(json.dumps({"id": aid, "reference": reference}) + "\n")


class _Writer:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        vocab: list[str] = []
        seen: set[str] = set()
        while len(vocab) < VOCABULARY_SIZE:
            word = "".join(self.rng.choice(_SYLLABLES) for _ in range(self.rng.randint(2, 4)))
            if word not in seen:
                seen.add(word)
                vocab.append(word)
        self.vocab = vocab
        total = 0.0
        self.cum_weights = []
        for rank in range(1, VOCABULARY_SIZE + 1):
            total += rank ** -ZIPF_EXPONENT
            self.cum_weights.append(total)

    def sentence(self, max_words: int | None = None) -> str:
        n = self.rng.randint(*SENTENCE_WORDS)
        if max_words is not None:
            n = max(3, min(n, max_words))
        words = self.rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)
        return words[0].capitalize() + " " + " ".join(words[1:]) + "."

    def article(self, target_words: int) -> list[str]:
        sents: list[str] = []
        total = 0
        while total < target_words:
            sent = self.sentence(max_words=target_words - total if total else None)
            sents.append(sent)
            total += len(sent.split())
        return sents


def long_corpus(seed: int, scale: float = 1.0, articles: int = LONG_ARTICLES) -> Corpus:
    writer = _Writer(seed)
    words = max(LONG_MIN_WORDS, int(LONG_ARTICLE_WORDS * scale))
    return Corpus([(f"long-{i:02d}", writer.article(words)) for i in range(1, articles + 1)])


def short_corpus(seed: int, scale: float = 1.0) -> Corpus:
    writer = _Writer(seed)
    count = max(2, round(SHORT_ARTICLES * scale))
    lo, hi = SHORT_WORDS
    articles = [
        (f"short-{i + 1:02d}", writer.article(round(lo * (hi / lo) ** (i / (count - 1)))))
        for i in range(count)
    ]
    articles += [(f"tiny-{i:02d}", writer.article(words))
                 for i, words in enumerate(TINY_ARTICLE_WORDS, 1)]
    return Corpus(articles)
