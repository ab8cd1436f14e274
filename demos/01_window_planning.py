"""Walk through sliding-window planning on a small article.

Shows how an article is segmented into sentences, how the overlap ratio K
falls out of the window and step sizes, and how the plan covers every
sentence exactly K times.
"""
from slisum.text import Article, build_window_plan, window_text

ARTICLE = Article.from_text(
    "demo",
    "The reservoir fell to a record low in June. Officials imposed outdoor "
    "watering limits the same week. Farmers shifted to drip irrigation to "
    "save their orchards. The utility began recycling treated wastewater. "
    "Reservoir levels recovered slightly after the autumn storms. Hydrologists "
    "still expect a multi-year deficit. The city council approved funding for "
    "a desalination study. Residents cut household use by nearly a fifth. "
    "Neighboring counties signed a water-sharing agreement. Planners now treat "
    "drought as the baseline rather than the exception.",
)

plan = build_window_plan(ARTICLE, window_size=60, step_size=20)

print(f"article: {len(ARTICLE.sentences)} sentences, {ARTICLE.total_words} words")
print(f"window=60 step=20 -> K={plan.k_ratio}, "
      f"{len(plan.windows)} windows, {plan.total_generations} generations\n")

for window in plan.windows:
    preview = window_text(ARTICLE, window)
    print(f"window {window.ordinal}: sentences {window.start_sentence}-{window.end_sentence} "
          f"({window.word_count} words, x{window.repetitions})")
    print(f"  {preview[:70]}...")

print("\nper-sentence coverage (how many generations see each sentence):")
for index, (before, after) in enumerate(zip(ARTICLE.offsets, ARTICLE.offsets[1:]), 1):
    print(f"  s{index:>2} ({after - before:>2} words): {plan.coverage(index)}")
