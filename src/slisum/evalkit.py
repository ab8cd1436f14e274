"""Reference-based scoring and run diagnostics: ROUGE score reports,
position-distribution histograms, and intra/inter-cluster distance statistics."""
from __future__ import annotations

import json
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
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False, indent=2)

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


@dataclass
class PositionHistogram:
    counts: list[int]
    percentages: list[float]
    total: int

    @property
    def empty(self) -> bool:
        return self.total == 0

    def labels(self) -> list[str]:
        labels, lo = [], 1
        for edge in BIN_EDGES:
            labels.append(f"{lo}-{edge}")
            lo = edge + 1
        labels.append(f"{lo}-")
        return labels

    def to_dict(self) -> dict:
        return {
            "bins": self.labels(),
            "counts": self.counts,
            "percentages": self.percentages,
            "total": self.total,
            "empty": self.empty,
        }


def histogram_from_offsets(offsets: list[int]) -> PositionHistogram:
    """Histogram of 1-based word offsets over the position bins."""
    counts = [0] * (len(BIN_EDGES) + 1)
    for offset in offsets:
        for i, edge in enumerate(BIN_EDGES):
            if offset <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    total = len(offsets)
    percentages = [100.0 * c / total if total else 0.0 for c in counts]
    return PositionHistogram(counts=counts, percentages=percentages, total=total)


@dataclass
class DistanceDiagnostics:
    mean_same_cluster: float
    max_same_cluster: float
    mean_hausdorff: float | None  # absent with fewer than two clusters
    cluster_count: int

    def to_dict(self) -> dict:
        data = {
            "mean_same_cluster": self.mean_same_cluster,
            "max_same_cluster": self.max_same_cluster,
            "cluster_count": self.cluster_count,
        }
        if self.mean_hausdorff is not None:
            data["mean_hausdorff"] = self.mean_hausdorff
        return data


def distance_diagnostics(clusters: list[list[str]]) -> DistanceDiagnostics:
    """Intra-cluster distance statistics and the mean pairwise inter-cluster
    Hausdorff distance."""
    if not clusters:
        raise ValueError("need at least one retained cluster")
    same, between = set_distances(
        [[TokenBag.from_text(text) for text in members] for members in clusters]
    )
    mean_same = sum(same) / len(same) if same else 0.0
    max_same = max(same) if same else 0.0
    mean_h = sum(between) / len(between) if between else None
    return DistanceDiagnostics(
        mean_same_cluster=mean_same,
        max_same_cluster=max_same,
        mean_hausdorff=mean_h,
        cluster_count=len(clusters),
    )


def record_clusters(run_record) -> list[list[str]]:
    """Cluster statement texts from a RunRecord or its serialized dict."""
    clusters = run_record.clusters if hasattr(run_record, "clusters") else run_record["clusters"]
    return [entry["texts"] for entry in clusters]
