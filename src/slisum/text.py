"""Sentence segmentation and construction of the overlapping sliding-window plan."""
from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate


class ConfigurationError(ValueError):
    """A setting that cannot be used: window and step sizes without a gap-free
    plan, another run setting out of range, an unusable base URL or API key,
    a config file that is not valid YAML or holds a bad value, a cache log
    that is not a file."""


# Tokens that end with a period but never close a sentence, titles that
# precede a name among them.
_ABBREVIATIONS = {
    "dr.", "mr.", "mrs.", "ms.", "prof.", "fig.", "eq.", "al.", "vs.", "no.",
    "gen.", "gov.", "sen.", "rep.", "lt.", "col.", "sgt.", "capt.", "st.", "mt.", "rev.",
}

# Terminal punctuation, then any closing quotes or brackets, followed by
# whitespace; group 1 is the first non-space character after it. Regex \s
# and str.isspace test the same characters.
_TERMINAL = re.compile(r"[.!?]+[\"'”’)\]]*(?=\s+(\S))")
# One or more letters of any script, each followed by a period: an initial
# (`J.`) or a dotted acronym (`U.S.`, `p.m.`, `e.g.`).
_INITIAL = re.compile(r"\A(?:[^\W\d_]\.)+\Z")
_OPENERS = "\"'“‘(["
# Stripped from both ends of the token before the abbreviation and initial tests.
_QUOTES_AND_BRACKETS = _OPENERS + "”’)]"


@dataclass(frozen=True)
class Article:
    """An article's sentence texts and word offsets: offsets[i] is the number
    of words before sentence i + 1, so offsets[-1] is the article's length."""

    id: str
    sentences: tuple[str, ...]
    offsets: tuple[int, ...]

    @property
    def total_words(self) -> int:
        return self.offsets[-1]

    @classmethod
    def from_text(cls, article_id: str, raw_text: str) -> "Article":
        sentences = tuple(segment_sentences(raw_text))
        offsets = tuple(accumulate((len(s.split()) for s in sentences), initial=0))
        return cls(id=article_id, sentences=sentences, offsets=offsets)


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


def segment_sentences(raw_text: str) -> list[str]:
    """Split text at terminal punctuation, optionally followed by closing
    quotes or brackets, then whitespace and an uppercase/opening character.

    A fixed abbreviation list, initials and dotted acronyms, and decimal
    points do not split; quotes and brackets around the token are ignored for the first
    two. Returns the stripped sentence texts; whitespace-only fragments are
    dropped.
    """
    boundaries = []
    for match in _TERMINAL.finditer(raw_text):
        nxt = match.group(1)
        if not (nxt.isupper() or nxt in _OPENERS):
            continue
        end = match.end()
        k = end
        while k > 0 and not raw_text[k - 1].isspace():
            k -= 1
        token = raw_text[k:end].strip(_QUOTES_AND_BRACKETS).casefold()
        if token in _ABBREVIATIONS or _INITIAL.match(token):
            continue
        boundaries.append(end)
    boundaries.append(len(raw_text))

    sentences = []
    prev = 0
    for bound in boundaries:
        text = raw_text[prev:bound].strip()
        prev = bound
        if text:
            sentences.append(text)
    return sentences


def k_ratio(window_size: int, step_size: int) -> int:
    """Number of times a middle text segment is summarized, L_w / L_s;
    ConfigurationError unless the window size is a positive multiple of a
    step size of at least 1."""
    if step_size < 1:
        raise ConfigurationError(f"step_size must be >= 1, got {step_size}")
    if window_size < step_size:
        raise ConfigurationError(
            f"window_size {window_size} < step_size {step_size} would leave gaps between windows"
        )
    if window_size % step_size:
        raise ConfigurationError(
            f"window_size {window_size} must be an integer multiple of step_size {step_size}"
        )
    return window_size // step_size


def _step_segments(offsets: tuple[int, ...], step_size: int) -> list[tuple[int, int]]:
    """Partition the article, given by its word offsets, into consecutive runs
    of sentences, each run being the fewest sentences totaling >= step_size
    words (last run may fall short)."""
    n = len(offsets) - 1
    segments = []
    start = 0
    while start < n:
        end = min(bisect_left(offsets, offsets[start] + step_size, start + 1), n)
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
    if not article.sentences:
        raise ConfigurationError(f"article {article.id!r} has no sentences")

    n = len(article.sentences)
    offsets = article.offsets
    segments = _step_segments(offsets, step_size)
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
            word_count=offsets[hi] - offsets[lo - 1],
            repetitions=reps,
        )
        for i, (lo, hi, reps) in enumerate(ranges)
    )
    return WindowPlan(windows=windows, k_ratio=k, window_size=window_size, step_size=step_size)


def window_text(article: Article, window: Window) -> str:
    """Concatenated sentence texts of the window, single-space separated."""
    return " ".join(article.sentences[window.start_sentence - 1 : window.end_sentence])
