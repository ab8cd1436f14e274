"""Sentence segmentation and construction of the overlapping sliding-window plan."""
from __future__ import annotations

import re
from dataclasses import dataclass, field


class ConfigurationError(ValueError):
    """A setting that cannot be used: window and step sizes without a gap-free
    plan, another run setting out of range, an unusable base URL or API key,
    a config file that is not valid YAML or holds a bad value, a cache log
    that is not a file."""


# Tokens that end with a period but never close a sentence.
_ABBREVIATIONS = {
    "dr.", "mr.", "mrs.", "ms.", "prof.", "fig.", "eq.",
    "al.", "e.g.", "i.e.", "vs.", "no.",
}

# Terminal punctuation followed by whitespace; group 1 is the first
# non-space character after it. Regex \s and str.isspace test the same
# characters.
_TERMINAL = re.compile(r"[.!?]+(?=\s+(\S))")
_INITIAL = re.compile(r"\A[a-z]\.\Z")
_OPENERS = "\"'“‘(["


@dataclass(frozen=True)
class Sentence:
    """One article sentence with its 1-based position and exact character span."""

    index: int
    text: str
    word_count: int
    char_span: tuple[int, int]


@dataclass(frozen=True)
class Article:
    id: str
    raw_text: str
    sentences: tuple[Sentence, ...]
    total_words: int

    @classmethod
    def from_text(cls, article_id: str, raw_text: str) -> "Article":
        sentences = tuple(segment_sentences(raw_text))
        return cls(
            id=article_id,
            raw_text=raw_text,
            sentences=sentences,
            total_words=sum(s.word_count for s in sentences),
        )


@dataclass(frozen=True)
class Window:
    """Inclusive sentence range [start_sentence, end_sentence] plus the number
    of independent generations requested for it."""

    ordinal: int
    start_sentence: int
    end_sentence: int
    word_count: int
    repetitions: int = 1


@dataclass(frozen=True)
class WindowPlan:
    windows: tuple[Window, ...]
    k_ratio: int
    window_size: int
    step_size: int

    @property
    def total_generations(self) -> int:
        return sum(w.repetitions for w in self.windows)

    def coverage(self, sentence_index: int) -> int:
        """Repetition-weighted number of windows containing the sentence."""
        return sum(
            w.repetitions
            for w in self.windows
            if w.start_sentence <= sentence_index <= w.end_sentence
        )


def segment_sentences(raw_text: str) -> list[Sentence]:
    """Split text at terminal punctuation followed by whitespace and an
    uppercase/opening character.

    A fixed abbreviation list, single-letter initials, and decimal points do
    not split. Character spans index into the original text; whitespace-only
    fragments are dropped.
    """
    if not raw_text or not raw_text.strip():
        return []

    boundaries = []
    for match in _TERMINAL.finditer(raw_text):
        nxt = match.group(1)
        if not (nxt.isupper() or nxt in _OPENERS):
            continue
        end = match.end()
        k = end
        while k > 0 and not raw_text[k - 1].isspace():
            k -= 1
        token = raw_text[k:end].casefold()
        if token in _ABBREVIATIONS or _INITIAL.match(token):
            continue
        boundaries.append(end)
    boundaries.append(len(raw_text))

    sentences: list[Sentence] = []
    prev = 0
    for bound in boundaries:
        chunk = raw_text[prev:bound]
        lead = chunk.lstrip()
        text = lead.rstrip()
        start = bound - len(lead)
        prev = bound
        if not text:
            continue
        sentences.append(
            Sentence(
                index=len(sentences) + 1,
                text=text,
                word_count=len(text.split()),
                char_span=(start, start + len(text)),
            )
        )
    return sentences


def k_ratio(window_size: int, step_size: int) -> int:
    """Number of times a middle text segment is summarized: floor(L_w / L_s)."""
    if step_size < 1:
        raise ConfigurationError(f"step_size must be >= 1, got {step_size}")
    if window_size < step_size:
        raise ConfigurationError(
            f"window_size {window_size} < step_size {step_size} would leave gaps between windows"
        )
    return window_size // step_size


def _step_segments(sentences, step_size: int) -> list[tuple[int, int]]:
    """Partition the article into consecutive runs of sentences, each run being
    the fewest sentences totaling >= step_size words (last run may fall short)."""
    segments = []
    start = 0
    while start < len(sentences):
        words = 0
        end = start
        while end < len(sentences):
            words += sentences[end].word_count
            end += 1
            if words >= step_size:
                break
        segments.append((start + 1, end))  # 1-based inclusive
        start = end
    return segments


def build_window_plan(article: Article, window_size: int, step_size: int) -> WindowPlan:
    """Build the overlapping sliding-window plan over the article.

    Each base window spans K consecutive step segments, so the plan advances by
    roughly step_size words while window word counts stay approximately equal
    to window_size. K-1 truncated prefix and suffix windows keep boundary
    coverage at K; a short article gets a single window repeated K times.
    Every sentence ends up covered exactly K times.
    """
    k = k_ratio(window_size, step_size)
    if window_size != k * step_size:
        raise ConfigurationError(
            f"window_size {window_size} must be an integer multiple of step_size {step_size}"
        )
    if not article.sentences:
        raise ConfigurationError(f"article {article.id!r} has no sentences")

    sentences = article.sentences
    n = len(sentences)

    def words(lo: int, hi: int) -> int:
        return sum(s.word_count for s in sentences[lo - 1 : hi])

    segments = _step_segments(sentences, step_size)
    t = len(segments)

    # (start, end, repetitions). Window i spans segments i..i+K-1, clipped to
    # the article: i < 0 gives the truncated prefixes, shortest first, and
    # i > t - K the truncated suffixes, longest first.
    if t <= k:
        ranges = [(1, n, k)]
    else:
        ranges = [(segments[max(i, 0)][0], segments[min(i + k, t) - 1][1], 1)
                  for i in range(1 - k, t)]

    windows = tuple(
        Window(
            ordinal=i + 1,
            start_sentence=lo,
            end_sentence=hi,
            word_count=words(lo, hi),
            repetitions=reps,
        )
        for i, (lo, hi, reps) in enumerate(ranges)
    )
    return WindowPlan(windows=windows, k_ratio=k, window_size=window_size, step_size=step_size)


def window_text(article: Article, window: Window) -> str:
    """Concatenated sentence texts of the window, single-space separated."""
    return " ".join(
        s.text for s in article.sentences[window.start_sentence - 1 : window.end_sentence]
    )
