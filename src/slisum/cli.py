"""Batch command-line interface.

Subcommands: summarize (JSONL corpus -> run records + summaries), evaluate
(ROUGE score report), analyze (position/distance diagnostics over run
records), cache (inspect or clear the response cache).

Exit codes: 0 success, 1 usage error, 2 partial success.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import yaml

from .engine import EngineError
from .evalkit import (
    DEFAULT_BIN_EDGES,
    distance_diagnostics,
    histogram_from_offsets,
    record_clusters,
    score,
)
from .pipeline import (
    PipelineConfig,
    ResponseCache,
    persist_record,
    run,
)
from .text import Article, ConfigurationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(PipelineConfig))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _warn(message: str) -> None:
    sys.stderr.write(f"slisum: {message}\n")


def build_config(args) -> PipelineConfig:
    """Merge settings with precedence flags > environment > file > length
    defaults. Config-file keys are PipelineConfig field names; any other key
    is a usage error."""
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config file {args.config} is not a mapping")
        for key, val in loaded.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigurationError(f"config file {args.config}: unknown key {key!r}")
            values[key] = val
    if os.environ.get("SLISUM_MODEL"):
        values["model"] = os.environ["SLISUM_MODEL"]
    for field in _CONFIG_FIELDS:
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    return PipelineConfig(**values)


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                yield lineno, line


def cmd_summarize(args) -> int:
    if not os.path.exists(args.input):
        _warn(f"input file not found: {args.input}")
        return EXIT_USAGE
    try:
        config = build_config(args)
    except (ConfigurationError, OSError) as exc:
        _warn(str(exc))
        return EXIT_USAGE

    records_dir = os.path.join(args.output, "records")
    os.makedirs(args.output, exist_ok=True)

    articles: list[Article] = []
    seen_ids: set[str] = set()
    partial = False
    for lineno, line in _read_jsonl(args.input):
        try:
            obj = json.loads(line)
            article_id = str(obj["id"])
            body = obj["article"]
            if not isinstance(body, str) or not body.strip():
                raise ValueError("empty article")
            if article_id in seen_ids:
                raise ValueError(f"duplicate id {article_id!r}")
        except (ValueError, KeyError, TypeError) as exc:
            _warn(f"{args.input}:{lineno}: skipping malformed record ({exc})")
            partial = True
            continue
        seen_ids.add(article_id)
        articles.append(Article.from_text(article_id, body))

    if not articles:
        _warn("no valid articles in input")
        with open(os.path.join(args.output, "summaries.jsonl"), "w", encoding="utf-8"):
            pass
        return EXIT_PARTIAL if partial else EXIT_OK

    if args.dry_run:
        for article in articles:
            resolved = config.resolved(article.total_words)
            from .text import build_window_plan

            plan = build_window_plan(article, resolved.window_size, resolved.step_size)
            print(f"{article.id}: {article.total_words} words, K={plan.k_ratio}, "
                  f"{len(plan.windows)} windows, {plan.total_generations} summarize calls")
            for w in plan.windows:
                print(f"  window {w.ordinal}: sentences [{w.start_sentence}, {w.end_sentence}]"
                      f" ({w.word_count} words) x{w.repetitions}")
        return EXIT_PARTIAL if partial else EXIT_OK

    def process(article: Article):
        return run(article, config, record_dir=records_dir)

    results: list = [None] * len(articles)
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = {pool.submit(process, a): i for i, a in enumerate(articles)}
        for future, idx in futures.items():
            try:
                results[idx] = future.result()
            except (EngineError, ConfigurationError) as exc:
                _warn(f"article {articles[idx].id!r} failed: {exc}")
                results[idx] = exc

    summaries_path = os.path.join(args.output, "summaries.jsonl")
    with open(summaries_path, "w", encoding="utf-8") as fh:
        for article, result in zip(articles, results):
            if isinstance(result, Exception):
                partial = True
                continue
            persist_record(result, records_dir)
            fh.write(json.dumps(
                {"id": article.id, "summary": result.final["connected_text"]},
                ensure_ascii=False, sort_keys=True,
            ) + "\n")
            _warn(
                f"{article.id}: backend_calls={result.stats.backend_calls} "
                f"cache_hits={result.stats.cache_hits} elapsed={result.stats.elapsed_s:.2f}s"
            )
    return EXIT_PARTIAL if partial else EXIT_OK


def _load_pairs(path, value_fields):
    """id -> value of the first well-formed line with that id, and whether any
    line was skipped as malformed or as a repeated id."""
    pairs = {}
    skipped = False
    for lineno, line in _read_jsonl(path):
        try:
            obj = json.loads(line)
            key = str(obj["id"])
            value = next(obj[f] for f in value_fields if f in obj)
        except (ValueError, KeyError, TypeError, StopIteration):
            _warn(f"{path}:{lineno}: skipping malformed record")
            skipped = True
            continue
        if key in pairs:
            _warn(f"{path}:{lineno}: skipping duplicate id {key!r}")
            skipped = True
            continue
        pairs[key] = value
    return pairs, skipped


def cmd_evaluate(args) -> int:
    for path in (args.summaries, args.references):
        if not os.path.exists(path):
            _warn(f"file not found: {path}")
            return EXIT_USAGE
    summaries, skipped_summaries = _load_pairs(args.summaries, ("summary",))
    references, skipped_references = _load_pairs(args.references, ("reference", "summary"))
    shared = sorted(set(summaries) & set(references))
    if not shared:
        _warn("no overlapping ids between summaries and references")
        return EXIT_USAGE
    report = score(
        [summaries[i] for i in shared],
        [references[i] for i in shared],
        ids=shared,
    )
    payload = report.to_dict()
    payload["unmatched_summaries"] = sorted(set(summaries) - set(references))
    payload["unmatched_references"] = sorted(set(references) - set(summaries))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, ensure_ascii=False, indent=2)
            fh.write("\n")
    print(report.to_text())
    for key in ("unmatched_summaries", "unmatched_references"):
        if payload[key]:
            _warn(f"{key}: {', '.join(payload[key])}")
    return EXIT_PARTIAL if skipped_summaries or skipped_references else EXIT_OK


def _read_record(path):
    """(article id, anchor word offsets, cluster texts) of one run-record
    file; ValueError if the file is not JSON or not a run record."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    try:
        offsets = [s["anchor_word_offset"] for s in record["final"]["statements"]]
        return record["article_id"], offsets, record_clusters(record)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a run record ({type(exc).__name__}: {exc})") from exc


def cmd_analyze(args) -> int:
    if not os.path.isdir(args.records):
        _warn(f"not a directory: {args.records}")
        return EXIT_USAGE
    records = []
    partial = False
    for name in sorted(os.listdir(args.records)):
        if not name.endswith(".json"):
            continue
        try:
            records.append(_read_record(os.path.join(args.records, name)))
        except ValueError as exc:
            _warn(f"skipping unreadable record {name}: {exc}")
            partial = True
    if not records:
        _warn("no run records found")
        return EXIT_USAGE

    bin_edges = DEFAULT_BIN_EDGES
    report = {"per_article": [], "aggregate": {}}
    all_offsets: list[int] = []
    for article_id, offsets, clusters in records:
        all_offsets.extend(offsets)
        entry = {
            "article_id": article_id,
            "position_histogram": histogram_from_offsets(offsets, bin_edges).to_dict(),
        }
        if clusters:
            entry["distance_diagnostics"] = distance_diagnostics(clusters).to_dict()
        report["per_article"].append(entry)
    report["aggregate"]["position_histogram"] = histogram_from_offsets(all_offsets, bin_edges).to_dict()

    text = json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_cache(args) -> int:
    if not args.cache_dir:
        _warn("--cache-dir is required")
        return EXIT_USAGE
    cache = ResponseCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {args.cache_dir}")
    else:
        entries = [n for n in os.listdir(args.cache_dir) if n.endswith(".json")]
        print(f"{len(entries)} entries in {args.cache_dir}")
    return EXIT_OK


def _add_config_flags(parser):
    parser.add_argument("--config", help="YAML/JSON config file")
    parser.add_argument("--backend", choices=["mock", "http"])
    parser.add_argument("--window-size", dest="window_size", type=int)
    parser.add_argument("--step-size", dest="step_size", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--min-pts", dest="min_pts", type=int)
    parser.add_argument("--model")
    parser.add_argument("--max-tokens", dest="max_tokens", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--concurrency", type=int,
                        help="engine-call concurrency within one article")
    parser.add_argument("--cache-dir", dest="cache_dir")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slisum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="run the pipeline over a JSONL corpus")
    p_sum.add_argument("input", help="JSONL file with {id, article[, reference]} records")
    p_sum.add_argument("-o", "--output", required=True, help="output directory")
    p_sum.add_argument("--jobs", type=int, default=1, help="articles processed in parallel")
    p_sum.add_argument("--dry-run", action="store_true",
                       help="print window plans and call estimates, no engine calls")
    _add_config_flags(p_sum)
    p_sum.set_defaults(func=cmd_summarize)

    p_eval = sub.add_parser("evaluate", help="score summaries against references")
    p_eval.add_argument("summaries", help="JSONL with {id, summary}")
    p_eval.add_argument("references", help="JSONL with {id, reference}")
    p_eval.add_argument("-o", "--output", help="write the JSON report here")
    p_eval.set_defaults(func=cmd_evaluate)

    p_an = sub.add_parser("analyze", help="diagnostics over run records")
    p_an.add_argument("records", help="directory of run-record JSON files")
    p_an.add_argument("-o", "--output", help="write the JSON report here")
    p_an.set_defaults(func=cmd_analyze)

    p_cache = sub.add_parser("cache", help="inspect or clear the response cache")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--cache-dir", dest="cache_dir", required=True)
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        _warn(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
