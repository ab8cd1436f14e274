"""Reference-based scoring and run diagnostics: ROUGE score reports,
position-distribution histograms, and intra/inter-cluster distance statistics.

`score` returns a `ScoreReport`, which formats itself as text or JSON. The
reports `analyze` writes, the position histogram and the distance
diagnostics, are plain dicts, ready to write as JSON. The distance
diagnostics tokenize each distinct cluster text once, share its token bag
among its copies, and take the Hausdorff maxima once per cluster (see
`lexical.set_distances`). Each cluster must be a non-empty list of strings;
`analyze` skips a run record that breaks this before it gets here."""
from __future__ import annotations

from dataclasses import dataclass, field, asdict

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
    shared_bags,
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


@dataclass
class ScoreReport:
    per_article: list[dict]
    means: dict
    count: int
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["unavailable"] = dict(UNAVAILABLE_METRICS)
        return data

    def to_json(self) -> str:
        from .pipeline import indented_json  # the records' writer; not needed to score

        return indented_json(self.to_dict())

    def to_text(self) -> str:
        lines = [f"{'id':<24}{'R-1':>10}{'R-2':>10}{'R-L':>10}"]
        for row in self.per_article:
            lines.append(
                f"{row['id']:<24}{row['rouge1']:>10.4f}{row['rouge2']:>10.4f}{row['rougeL']:>10.4f}"
            )
        if self.count:
            lines.append(
                f"{'mean':<24}{self.means['rouge1']:>10.4f}"
                f"{self.means['rouge2']:>10.4f}{self.means['rougeL']:>10.4f}"
            )
        else:
            lines.append("(empty corpus)")
        return "\n".join(lines)


def score(summaries: list[str], references: list[str], ids: list[str] | None = None) -> ScoreReport:
    """Per-pair ROUGE-1/2/L F1 and corpus arithmetic means; each text is
    tokenized once."""
    if len(summaries) != len(references):
        raise ValueError(
            f"length mismatch: {len(summaries)} summaries vs {len(references)} references"
        )
    if ids is None:
        ids = [str(i + 1) for i in range(len(summaries))]
    per_article = []
    for i, (summ, ref) in enumerate(zip(summaries, references)):
        ts, tr = tokenize(summ), tokenize(ref)
        per_article.append({
            "id": ids[i],
            "rouge1": rouge1_f1(TokenBag.from_tokens(ts), TokenBag.from_tokens(tr)),
            "rouge2": rouge2_tokens(ts, tr),
            "rougeL": rougeL_tokens(ts, tr),
        })
    means = {}
    if per_article:
        for key in ("rouge1", "rouge2", "rougeL"):
            means[key] = sum(row[key] for row in per_article) / len(per_article)
    return ScoreReport(per_article=per_article, means=means, count=len(per_article))


def histogram_from_offsets(offsets: list[int]) -> dict:
    """Histogram of 1-based word offsets over the position bins: `{bins,
    counts, percentages, total, empty}`."""
    counts = [0] * (len(BIN_EDGES) + 1)
    for offset in offsets:
        for i, edge in enumerate(BIN_EDGES):
            if offset <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
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
    same, between = set_distances(shared_bags(clusters))
    diagnostics = {
        "mean_same_cluster": sum(same) / len(same) if same else 0.0,
        "max_same_cluster": max(same, default=0.0),
        "cluster_count": len(clusters),
    }
    if between:
        diagnostics["mean_hausdorff"] = sum(between) / len(between)
    return diagnostics


def record_clusters(run_record) -> list[list[str]]:
    """Cluster statement texts from a RunRecord or its serialized dict."""
    clusters = run_record.clusters if hasattr(run_record, "clusters") else run_record["clusters"]
    return [entry["texts"] for entry in clusters]
