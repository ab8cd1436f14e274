import random
import re
import sys
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slisum.text import (
    _ABBREVIATIONS,
    _INITIAL,
    _OPENERS,
    Article,
    ConfigurationError,
    _step_segments,
    build_window_plan,
    k_ratio,
    segment_sentences,
    window_text,
)

from conftest import random_article


def uniform_article(n_sentences: int, words_per_sentence: int) -> Article:
    sentences = []
    for i in range(1, n_sentences + 1):
        words = [f"s{i}w{j}" for j in range(words_per_sentence)]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
    return Article.from_text(f"uniform-{n_sentences}", " ".join(sentences))


class TestSegmentation:
    def test_basic_split(self):
        got = segment_sentences("Hello world. How are you? Fine!")
        assert got == ["Hello world.", "How are you?", "Fine!"]

    def test_empty_input(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n\t ") == []

    def test_abbreviation_not_split(self):
        assert len(segment_sentences("Dr. Smith went home.")) == 1
        assert len(segment_sentences("See Fig. 2 for details. It helps.")) == 2
        assert len(segment_sentences("Results follow Smith et al. And more.")) == 1

    def test_initials_and_decimals(self):
        got = segment_sentences("He met J. Doe at 3.14 pm. Then he left.")
        assert got == ["He met J. Doe at 3.14 pm.", "Then he left."]

    def test_initial_in_any_script(self):
        assert len(segment_sentences("The novel by Émile É. Zola sold well.")) == 1
        assert len(segment_sentences("Coach Ö. Yılmaz won again.")) == 1
        assert len(segment_sentences("Her friend John J. Doe won again.")) == 1

    def test_dotted_acronyms_not_split(self):
        assert segment_sentences(
            "The U.S. Army said so. Gen. Smith agreed. It was 5 p.m. Monday when they left."
        ) == ["The U.S. Army said so.", "Gen. Smith agreed.",
              "It was 5 p.m. Monday when they left."]
        assert len(segment_sentences("Some cities, e.g. Paris, grew. Others shrank.")) == 2

    @pytest.mark.parametrize("title", [
        "Gen.", "Gov.", "Sen.", "Rep.", "Lt.", "Col.", "Sgt.", "Capt.", "St.", "Mt.", "Rev."])
    def test_title_before_a_name_not_split(self, title):
        assert segment_sentences(f"They met {title} James there. It rained.") == [
            f"They met {title} James there.", "It rained."]

    def test_sentence_ending_in_an_acronym_joins_the_next(self):
        """The cost of not splitting after a dotted acronym, as after an
        initial: a sentence that ends in one runs on into the next."""
        assert segment_sentences("He moved to the U.S. Then he left.") == [
            "He moved to the U.S. Then he left."]

    def test_closing_quote_ends_sentence(self):
        assert segment_sentences('He said "we will win." The crowd cheered.') == [
            'He said "we will win."', "The crowd cheered."]
        assert segment_sentences("'Yes.' He nodded.") == ["'Yes.'", "He nodded."]
        assert segment_sentences("It rose (by 3%.) Then it fell.") == [
            "It rose (by 3%.)", "Then it fell."]

    def test_quoted_abbreviation_not_split(self):
        assert segment_sentences("(Dr.) Smith came.") == ["(Dr.) Smith came."]
        assert segment_sentences('"Dr. Smith came.') == ['"Dr. Smith came.']
        assert segment_sentences("He met (J.) Doe.") == ["He met (J.) Doe."]

    def test_lowercase_continuation_not_split(self):
        assert len(segment_sentences("it ended. and then continued")) == 1

    def test_indices_and_word_counts(self):
        article = Article.from_text("counts", "  One two.  Three four five. Six!  ")
        assert article.sentences == ("One two.", "Three four five.", "Six!")
        assert article.offsets == (0, 2, 5, 6)
        assert article.total_words == 6

    @given(
        st.lists(
            st.lists(
                st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=8)
                .filter(lambda w: w + "." not in _ABBREVIATIONS),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100)
    def test_resegmentation_idempotent(self, word_lists):
        sentences = [(" ".join(ws)).capitalize() + "." for ws in word_lists]
        joined = " ".join(sentences)
        assert segment_sentences(joined) == sentences


def scanning_segment(raw_text: str) -> list[tuple[str, int]]:
    """The earlier segment_sentences, which skipped and stripped whitespace
    with index loops and str.isspace, as (text, word count) pairs. A terminal
    run may be followed by closing quotes or brackets, and the abbreviation
    and initial tests see the token without surrounding quotes or brackets."""
    if not raw_text or not raw_text.strip():
        return []
    boundaries = []
    for match in re.finditer(r"[.!?]+[\"'”’)\]]*(?=\s)", raw_text):
        end = match.end()
        j = end
        while j < len(raw_text) and raw_text[j].isspace():
            j += 1
        if j >= len(raw_text):
            continue
        nxt = raw_text[j]
        if not (nxt.isupper() or nxt in _OPENERS):
            continue
        k = end
        while k > 0 and not raw_text[k - 1].isspace():
            k -= 1
        token = raw_text[k:end].strip("\"'“‘([”’)]").casefold()
        if token in _ABBREVIATIONS or _INITIAL.match(token):
            continue
        boundaries.append(end)
    boundaries.append(len(raw_text))
    sentences = []
    prev = 0
    for bound in boundaries:
        start, end = prev, bound
        prev = bound
        while start < end and raw_text[start].isspace():
            start += 1
        while end > start and raw_text[end - 1].isspace():
            end -= 1
        text = raw_text[start:end]
        words = len(text.split())
        if words:
            sentences.append((text, words))
    return sentences


# Whitespace of every kind str.isspace knows, ASCII and not, and look-alikes
# that are not whitespace.
_SPACES = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
_PIECES = st.one_of(
    st.sampled_from(list(_SPACES + ".!?" + _OPENERS + "”’)]" + "aZÉσΣ1\u200b\ufeff")),
    st.sampled_from(["Dr.", "e.g.", "al.", "J.", "É.", "3.14", "no.", "Word", "word", "...",
                     "?!", '"Dr.', "(Dr.)", 'win."', ".'", "!)", "?”"]),
    st.characters(),
)


class TestSegmentationMatchesScan:
    def test_regex_space_is_str_isspace(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]

    @given(st.lists(_PIECES, max_size=40).map("".join))
    def test_same_sentences_as_the_scan(self, raw):
        article = Article.from_text("drawn", raw)
        words = [b - a for a, b in zip(article.offsets, article.offsets[1:])]
        assert list(zip(article.sentences, words)) == scanning_segment(raw)
        assert article.offsets[0] == 0


def looped_ranges(segments: list[tuple[int, int]], k: int, n: int) -> list[tuple[int, int, int]]:
    """The earlier window plan, built by three loops over the step segments,
    as (start, end, repetitions) triples."""
    t = len(segments)
    ranges = []
    if t <= k:
        ranges.append((1, n, k))
    else:
        for j in range(1, k):  # truncated prefixes, shortest first
            ranges.append((1, segments[j - 1][1], 1))
        for i in range(t - k + 1):  # base windows: K consecutive segments
            ranges.append((segments[i][0], segments[i + k - 1][1], 1))
        for j in range(k - 1, 0, -1):  # truncated suffixes, longest first
            ranges.append((segments[t - j][0], n, 1))
    return ranges


def looped_segments(word_counts: list[int], step_size: int) -> list[tuple[int, int]]:
    """The earlier _step_segments, which summed each sentence's word count in
    a loop, as 1-based inclusive (start, end) pairs."""
    segments = []
    start = 0
    while start < len(word_counts):
        words = 0
        end = start
        while end < len(word_counts):
            words += word_counts[end]
            end += 1
            if words >= step_size:
                break
        segments.append((start + 1, end))
        start = end
    return segments


def article_of(word_counts: list[int]) -> Article:
    """An article of one sentence per count, each of that many words."""
    return Article.from_text("drawn", " ".join(
        " ".join([f"S{i}w0"] + [f"s{i}w{j}" for j in range(1, count)]) + "."
        for i, count in enumerate(word_counts, 1)))


class TestWindowPlanMatchesLoops:
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=60),
           st.integers(1, 80), st.integers(1, 6))
    @settings(max_examples=300)
    def test_same_windows_as_the_loops(self, word_counts, step_size, k):
        article = article_of(word_counts)
        assert [len(s.split()) for s in article.sentences] == word_counts
        plan = build_window_plan(article, k * step_size, step_size)
        expected = looped_ranges(looped_segments(word_counts, step_size), k,
                                 len(word_counts))
        assert [(w.start_sentence, w.end_sentence, w.repetitions)
                for w in plan.windows] == expected


class TestOffsetsMatchLoops:
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=60), st.data())
    def test_step_segments_match_the_loop(self, word_counts, data):
        step_size = data.draw(st.integers(1, sum(word_counts) + 10), label="step_size")
        offsets = tuple(accumulate(word_counts, initial=0))
        assert _step_segments(offsets, step_size) == looped_segments(word_counts, step_size)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=60),
           st.integers(1, 80), st.integers(1, 6))
    def test_window_word_counts_sum_their_sentences(self, word_counts, step_size, k):
        plan = build_window_plan(article_of(word_counts), k * step_size, step_size)
        for w in plan.windows:
            assert w.word_count == sum(word_counts[w.start_sentence - 1 : w.end_sentence])


class TestKRatio:
    def test_paper_configurations(self):
        assert k_ratio(750, 150) == 5
        assert k_ratio(150, 50) == 3

    def test_no_overlap(self):
        assert k_ratio(100, 100) == 1

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            k_ratio(100, 0)
        with pytest.raises(ConfigurationError):
            k_ratio(50, 100)
        with pytest.raises(ConfigurationError, match="integer multiple of step_size 50"):
            k_ratio(140, 50)


class TestWindowPlan:
    def test_uniform_article_short_profile(self):
        article = uniform_article(10, 50)
        plan = build_window_plan(article, 150, 50)
        assert plan.k_ratio == 3
        ranges = [(w.start_sentence, w.end_sentence) for w in plan.windows]
        assert ranges == [
            (1, 1), (1, 2),
            (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10),
            (9, 10), (10, 10),
        ]
        assert all(plan.coverage(s) == 3 for s in range(1, 11))

    def test_four_sentence_example(self):
        article = uniform_article(4, 50)
        plan = build_window_plan(article, 150, 50)
        ranges = {(w.start_sentence, w.end_sentence) for w in plan.windows}
        assert ranges == {(1, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 4)}
        assert plan.coverage(2) == 3

    def test_short_article_single_window(self):
        article = uniform_article(2, 20)
        plan = build_window_plan(article, 750, 150)
        assert len(plan.windows) == 1
        window = plan.windows[0]
        assert (window.start_sentence, window.end_sentence) == (1, 2)
        assert window.repetitions == 5

    def test_invalid_parameters(self):
        article = uniform_article(3, 10)
        with pytest.raises(ConfigurationError):
            build_window_plan(article, 140, 50)  # not an integer multiple
        with pytest.raises(ConfigurationError):
            build_window_plan(Article.from_text("empty", ""), 150, 50)

    def test_plan_invariants_and_extras_count(self):
        rng = random.Random(7)
        for _ in range(20):
            article = random_article(rng, rng.randint(10, 120))
            for window_size, step_size in ((150, 50), (750, 150)):
                plan = build_window_plan(article, window_size, step_size)
                k = plan.k_ratio
                windows = plan.windows
                assert windows[0].start_sentence == 1
                assert windows[-1].end_sentence == len(article.sentences)
                for a, b in zip(windows, windows[1:]):
                    assert a.start_sentence <= b.start_sentence <= a.end_sentence
                if len(windows) > 1:
                    base = len(windows) - 2 * (k - 1)
                    assert plan.total_generations == base + 2 * (k - 1)

    def test_coverage_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            article = random_article(rng, rng.randint(10, 150))
            for window_size, step_size in ((150, 50), (750, 150)):
                plan = build_window_plan(article, window_size, step_size)
                for index in range(1, len(article.sentences) + 1):
                    covered = sum(
                        w.repetitions
                        for w in plan.windows
                        if w.start_sentence <= index <= w.end_sentence
                    )
                    assert covered >= plan.k_ratio

    def test_window_text_joins_sentences(self):
        article = uniform_article(4, 5)
        plan = build_window_plan(article, 10, 5)
        first = plan.windows[0]
        expected = " ".join(article.sentences[first.start_sentence - 1 : first.end_sentence])
        assert window_text(article, first) == expected

    def test_total_words_invariant(self):
        article = uniform_article(6, 9)
        assert article.total_words == sum(len(s.split()) for s in article.sentences) == 54
