"""Run the whole pipeline on one article with the deterministic mock backend.

Prints the window plan, the surviving clusters with their provenance, and the
final source-ordered summary. Swap in backend="http" and model="..." (plus
SLISUM_BASE_URL / SLISUM_API_KEY) to run against a real chat-completions API.
"""
import json

from slisum.pipeline import PipelineConfig, run
from slisum.text import Article

ARTICLE = Article.from_text(
    "drought",
    "The reservoir fell to a record low in June. Inspectors measured the "
    "lowest level ever recorded. Water levels dropped to an all-time low. "
    "Officials imposed outdoor watering limits. The city restricted lawn "
    "watering to two days a week. Watering restrictions took effect citywide. "
    "Farmers shifted to drip irrigation. Growers adopted drip systems across "
    "the valley. Drip irrigation spread through the farming district. "
    "Residents cut household use sharply. Households reduced their water "
    "consumption. Consumption per household dropped noticeably.",
)

config = PipelineConfig(window_size=39, step_size=13, min_pts=2, concurrency=2)
record = run(ARTICLE, config)

print(f"status: {record.status}")
print(f"K={record.plan['k_ratio']}, windows={len(record.plan['windows'])}, "
      f"generations={record.plan['total_generations']}")
print(f"engine calls: {record.stats.backend_calls} "
      f"(summarize={record.stats.summarize_calls}, "
      f"classify={record.stats.classify_calls}, "
      f"connect={record.stats.connect_calls})\n")

for cluster in record.clusters:
    print(f"cluster {cluster['id']}: {cluster['size']} statements from "
          f"{cluster['local_summary_count']} local summaries")
    for text in cluster["texts"]:
        print(f"  {text}")

print(f"\nfinal summary ({len(record.final['statements'])} statements):")
print(record.final["connected_text"])
print("\nstatement anchors (source sentence, word offset):")
for stmt in record.final["statements"]:
    print(f"  s{stmt['source_anchor']} @w{stmt['anchor_word_offset']}: {stmt['text']}")

print("\nfull run record is JSON-serializable and byte-stable across reruns:")
print(json.dumps(record.to_dict()["config"], indent=2, sort_keys=True))
