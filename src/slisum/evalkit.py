"""Reference-based scoring and run diagnostics: ROUGE score reports,
position-distribution histograms, and intra/inter-cluster distance statistics.

Every report is a plain dict, ready to write as JSON: `score` returns the
report `evaluate` writes, and `format_scores` renders it as the table
`evaluate` prints. The distance diagnostics take each cluster's texts,
tokenize each distinct text once, and take the Hausdorff maxima once per
cluster (see `lexical.set_distances`). Each cluster must be a non-empty list
of strings; `analyze` skips a run record that breaks this before it gets
here."""
from __future__ import annotations

from bisect import bisect_left

# distance, hausdorff, rouge2_f1 and rougeL_f1 are unused here but stay
# importable from this module: bench/spans.py patches them on it by name.
from .lexical import (  # noqa: F401
    TokenBag,
    distance,
    hausdorff,
    rouge1_f1,
    rouge2_f1,
    rouge2_tokens,
    rougeL_f1,
    rougeL_tokens,
    set_distances,
    tokenize,
)

BIN_EDGES = (1000, 2000, 3000)  # word offsets closing each position bin but the last

# Learned faithfulness metrics need external models and are reported as
# unavailable rather than silently zero.
UNAVAILABLE_METRICS = {
    "factcc": "unavailable (external learned model)",
    "summac": "unavailable (external learned model)",
    "bertscore": "unavailable (external learned model)",
}


def score(summaries: list[str], references: list[str], ids: list[str] | None = None) -> dict:
    """Per-pair ROUGE-1/2/L F1 and corpus arithmetic means, as the report
    `{per_article, means, count, config, unavailable}`; each text is
    tokenized once. ValueError if the lists differ in length."""
    if ids is None:
        ids = [str(i + 1) for i in range(len(summaries))]
    per_article = []
    for article_id, summ, ref in zip(ids, summaries, references, strict=True):
        ts, tr = tokenize(summ), tokenize(ref)
        per_article.append({
            "id": article_id,
            "rouge1": rouge1_f1(TokenBag.from_tokens(ts), TokenBag.from_tokens(tr)),
            "rouge2": rouge2_tokens(ts, tr),
            "rougeL": rougeL_tokens(ts, tr),
        })
    means = {}
    if per_article:
        for key in ("rouge1", "rouge2", "rougeL"):
            means[key] = sum(row[key] for row in per_article) / len(per_article)
    return {
        "per_article": per_article,
        "means": means,
        "count": len(per_article),
        "config": {},
        "unavailable": dict(UNAVAILABLE_METRICS),
    }


def format_scores(report: dict) -> str:
    """The score report as a table: one row per article, then the means."""
    lines = [f"{'id':<24}{'R-1':>10}{'R-2':>10}{'R-L':>10}"]
    for row in report["per_article"]:
        lines.append(
            f"{row['id']:<24}{row['rouge1']:>10.4f}{row['rouge2']:>10.4f}{row['rougeL']:>10.4f}"
        )
    means = report["means"]
    if report["count"]:
        lines.append(
            f"{'mean':<24}{means['rouge1']:>10.4f}{means['rouge2']:>10.4f}{means['rougeL']:>10.4f}"
        )
    else:
        lines.append("(empty corpus)")
    return "\n".join(lines)


def histogram_from_offsets(offsets: list[int]) -> dict:
    """Histogram of 1-based word offsets over the position bins: `{bins,
    counts, percentages, total, empty}`."""
    counts = [0] * (len(BIN_EDGES) + 1)
    for offset in offsets:
        counts[bisect_left(BIN_EDGES, offset)] += 1
    total = len(offsets)
    bins = [f"{lo + 1}-{hi}" for lo, hi in zip((0,) + BIN_EDGES, BIN_EDGES)]
    return {
        "bins": bins + [f"{BIN_EDGES[-1] + 1}-"],
        "counts": counts,
        "percentages": [100.0 * c / total if total else 0.0 for c in counts],
        "total": total,
        "empty": total == 0,
    }


def distance_diagnostics(clusters: list[list[str]]) -> dict:
    """Intra-cluster distance statistics, `{mean_same_cluster,
    max_same_cluster, cluster_count}`, plus `mean_hausdorff`, the mean
    pairwise inter-cluster Hausdorff distance, when there are two or more
    clusters."""
    if not clusters:
        raise ValueError("need at least one retained cluster")
    same, between = set_distances(clusters)
    diagnostics = {
        "mean_same_cluster": sum(same) / len(same) if same else 0.0,
        "max_same_cluster": max(same, default=0.0),
        "cluster_count": len(clusters),
    }
    if between:
        diagnostics["mean_hausdorff"] = sum(between) / len(between)
    return diagnostics
