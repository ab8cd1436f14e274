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
from collections import deque

from .calls import CallScheduler, ResponseCache
from .engine import BACKENDS, EngineError, json_loads
from .evalkit import (
    distance_diagnostics,
    format_scores,
    histogram_from_offsets,
    score,
)
from .pipeline import (
    PipelineConfig,
    prepare,
    run,  # noqa: F401  (bench/spans.py traces slisum.cli.run by name)
    start,
)
from .record import indented_json, persist_record, read_record, write_atomic
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
    defaults. Config-file keys are PipelineConfig field names, and a value
    must be null (unset) or of the type its flag parses; anything else, or a
    value PipelineConfig rejects, is a usage error."""
    values: dict = {}
    if getattr(args, "config", None):
        import yaml  # only here: importing it is a large share of start-up

        with open(args.config, "rb") as fh:  # PyYAML reports bytes that are not text
            try:
                loaded = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                problem = " ".join(str(exc).split())  # one line, with the mark
                raise ConfigurationError(
                    f"config file {args.config} is not valid YAML: {problem}") from None
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config file {args.config} is not a mapping")
        flags = _add_config_flags(argparse.ArgumentParser())
        for key, val in loaded.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigurationError(f"config file {args.config}: unknown key {key!r}")
            if val is not None:
                values[key] = _file_value(args.config, key, val, flags[key])
        try:
            PipelineConfig(**values)
        except ConfigurationError as exc:
            raise ConfigurationError(f"config file {args.config}: {exc}") from None
    if os.environ.get("SLISUM_MODEL"):
        values["model"] = os.environ["SLISUM_MODEL"]
    for field in _CONFIG_FIELDS:
        flag = getattr(args, field, None)
        if flag is not None:
            values[field] = flag
    return PipelineConfig(**values)


def _file_value(path: str, key: str, value, flag: argparse.Action):
    """`value` as the type `flag` parses: an int is accepted for a float, a
    bool for nothing; ConfigurationError if it does not fit."""
    kind = flag.type or str
    fits = isinstance(value, (int, float) if kind is float else kind)
    if isinstance(value, bool) or not fits or (flag.choices and value not in flag.choices):
        expected = f"one of {', '.join(flag.choices)}" if flag.choices else kind.__name__
        raise ConfigurationError(f"config file {path}: {key} must be {expected}, got {value!r}")
    return kind(value)


def cmd_summarize(args) -> int:
    if args.jobs != 1:
        _warn("--jobs is deprecated and has no effect: --concurrency caps the backend "
              "calls in flight across all articles")

    if not os.path.isfile(args.input):
        _warn(f"not a file: {args.input}")
        return EXIT_USAGE
    try:
        config = build_config(args)
    except (ConfigurationError, OSError) as exc:
        _warn(str(exc))
        return EXIT_USAGE

    records_dir = os.path.join(args.output, "records")
    for directory, role in ((args.output, "output"), (records_dir, "records"),
                            (config.cache_dir, "cache")):
        if role == "cache" and not directory:  # a run without a cache
            continue
        if args.dry_run:  # writes nothing, but a bad path is still a usage error
            if os.path.exists(directory) and not os.path.isdir(directory):
                _warn(f"not a directory: {directory}")
                return EXIT_USAGE
        else:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                _warn(f"cannot create {role} directory {directory}: {exc.strerror}")
                return EXIT_USAGE
    cache = ResponseCache(config.cache_dir) if config.cache_dir else None

    lines = _Pairs(args.input, ("article",))
    partial = False  # whether an article failed; a skipped line is in lines.skipped
    if args.dry_run:
        for article in _articles(lines):
            try:
                plan = prepare(article, config)[2].plan
            except ConfigurationError as exc:
                _warn(f"article {article.id!r} failed: {exc}")
                partial = True
                continue
            print(f"{article.id}: {article.total_words} words, K={plan['k_ratio']}, "
                  f"{len(plan['windows'])} windows, {plan['total_generations']} summarize calls")
            for window in plan["windows"]:
                print("  window {ordinal}: sentences [{start_sentence}, {end_sentence}]"
                      " ({word_count} words) x{repetitions}".format(**window))
        return EXIT_PARTIAL if partial or lines.skipped else EXIT_OK

    summaries_path = os.path.join(args.output, "summaries.jsonl")
    try:
        fh = open(summaries_path, "wb", buffering=0)  # a failed line is not retried at close
    except OSError as exc:
        _warn(f"cannot write {summaries_path}: {exc.strerror}")
        return EXIT_USAGE
    with fh, CallScheduler(config.concurrency) as scheduler:
        # Articles are read as they are started. Up to concurrency + 1 have
        # their generations submitted while the oldest of them is finished
        # here. Its connect call is in flight during the next finish, and it
        # is completed and written after that one, so outputs come in input
        # order and at most concurrency + 2 articles are held.
        started: deque = deque()
        finished: deque = deque()  # (record, the complete its finish returned)

        def finish_oldest() -> None:
            nonlocal partial
            record, finish = started.popleft()
            finished.append((record, finish()))
            if len(finished) > 1:
                partial |= not _write_outputs(*finished.popleft(), records_dir, fh)

        for article in _articles(lines):
            try:
                started.append(start(article, config, None, cache, scheduler))
            except ConfigurationError as exc:
                _warn(f"article {article.id!r} failed: {exc}")
                partial = True
            if len(started) > scheduler.concurrency:
                finish_oldest()
        while started:
            finish_oldest()
        while finished:
            partial |= not _write_outputs(*finished.popleft(), records_dir, fh)
    return EXIT_PARTIAL if partial or lines.skipped else EXIT_OK


def _articles(lines: _Pairs):
    """The articles of `lines`, each segmented as it is read. A blank one is
    skipped with a warning and counts as a skipped line; once the last line
    is read without an article, 'no valid articles in input' is warned."""
    valid = False
    for article_id, body in lines:
        if body.strip():
            valid = True
            yield Article.from_text(article_id, body)
        else:
            _warn(f"{lines.path}: skipping blank article {article_id!r}")
            lines.skipped = True
    if not valid:
        _warn("no valid articles in input")


def _write_outputs(record, complete, records_dir: str, fh) -> bool:
    """Complete a finished article through `complete`, which `finish`
    returned, then write its record and, if it completed, its summary line;
    False if it failed or its record or summary line could not be written."""
    try:
        complete()
    except EngineError as exc:
        _warn(f"article {record.article_id!r} failed: {exc}")
    try:
        persist_record(record, records_dir)
    except OSError as exc:
        _warn(f"article {record.article_id!r}: cannot write its record "
              f"({exc.strerror or exc})")
        return False
    if record.status != "complete":
        return False
    # After its record, unbuffered: a line on disk implies its record.
    line = json.dumps({"id": record.article_id, "summary": record.final["connected_text"]},
                      ensure_ascii=False, sort_keys=True) + "\n"
    data = memoryview(line.encode("utf-8"))
    try:
        while data:  # a short write leaves the rest to the next one
            data = data[fh.write(data):]
    except OSError as exc:
        _warn(f"article {record.article_id!r}: cannot write its summary line "
              f"({exc.strerror or exc})")
        return False
    _warn(f"{record.article_id}: backend_calls={record.stats.backend_calls} "
          f"cache_hits={record.stats.cache_hits} retries={record.stats.retries} "
          f"elapsed={record.stats.elapsed_s:.2f}s")
    return True


class _Pairs:
    """The (id, text) pairs of a JSONL file, read lazily in file order: each
    line whose JSON parses and has a string text (the first of `value_fields`
    present) and an id not seen on an earlier line. A non-blank line is
    skipped, with one warning as the reader reaches it, if it is not UTF-8,
    not such a JSON object, has an id that is neither a string nor an
    integer (an integer id is kept as its decimal string), holds an id or
    text that cannot be written as UTF-8 (a lone surrogate escape such as
    "\\ud800"), or repeats an id; `skipped` says whether one was, so far. A
    line ends at a newline byte; a UTF-8 byte-order mark opening the file is
    ignored (RFC 8259, section 8.1). Only the ids seen are kept."""

    def __init__(self, path, value_fields):
        self.path = path
        self.value_fields = value_fields
        self.skipped = False

    def __iter__(self):
        seen = set()
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    # UnicodeDecodeError is a ValueError
                    line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
                    if not line.strip():
                        continue
                    obj = json_loads(line)
                    key = obj["id"]
                    if isinstance(key, bool) or not isinstance(key, (str, int)):
                        raise TypeError("id is not a string or an integer")
                    key = str(key)
                    value = next(obj[f] for f in self.value_fields if f in obj)
                    if not isinstance(value, str):
                        raise TypeError("text is not a string")
                    key.encode("utf-8")  # UnicodeEncodeError is a ValueError
                    value.encode("utf-8")
                except (ValueError, KeyError, TypeError, StopIteration):
                    _warn(f"{self.path}:{lineno}: skipping malformed record")
                    self.skipped = True
                    continue
                if key in seen:
                    _warn(f"{self.path}:{lineno}: skipping duplicate id {key!r}")
                    self.skipped = True
                    continue
                seen.add(key)
                yield key, value


def _write_report(path, text) -> bool:
    """Write `text` and a newline to `path` through `write_atomic`; False,
    after one warning, if it cannot be written."""
    try:
        write_atomic(path, text + "\n")
    except OSError as exc:
        _warn(f"cannot write {path}: {exc.strerror or exc}")
        return False
    return True


def cmd_evaluate(args) -> int:
    for path in (args.summaries, args.references):
        if not os.path.isfile(path):
            _warn(f"not a file: {path}")
            return EXIT_USAGE
    summary_lines = _Pairs(args.summaries, ("summary",))
    reference_lines = _Pairs(args.references, ("reference", "summary"))
    summaries, references = dict(summary_lines), dict(reference_lines)
    shared = sorted(set(summaries) & set(references))
    if not shared:
        _warn("no overlapping ids between summaries and references")
        return EXIT_USAGE
    report = score(
        [summaries[i] for i in shared],
        [references[i] for i in shared],
        ids=shared,
    )
    report["unmatched_summaries"] = sorted(set(summaries) - set(references))
    report["unmatched_references"] = sorted(set(references) - set(summaries))
    if args.output and not _write_report(args.output, indented_json(report)):
        return EXIT_USAGE
    print(format_scores(report))
    for key in ("unmatched_summaries", "unmatched_references"):
        if report[key]:
            _warn(f"{key}: {', '.join(report[key])}")
    return EXIT_PARTIAL if summary_lines.skipped or reference_lines.skipped else EXIT_OK


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
            records.append(read_record(os.path.join(args.records, name)))
        except (ValueError, OSError) as exc:
            _warn(f"skipping unreadable record {name}: {exc}")
            partial = True
    if not records:
        _warn("no run records found")
        return EXIT_USAGE

    report = {"per_article": [], "aggregate": {}}
    all_offsets: list[int] = []
    for article_id, offsets, clusters in records:
        all_offsets.extend(offsets)
        entry = {
            "article_id": article_id,
            "position_histogram": histogram_from_offsets(offsets),
        }
        if clusters:
            entry["distance_diagnostics"] = distance_diagnostics(clusters)
        report["per_article"].append(entry)
    report["aggregate"]["position_histogram"] = histogram_from_offsets(all_offsets)

    text = indented_json(report)
    if args.output and not _write_report(args.output, text):
        return EXIT_USAGE
    print(text)
    return EXIT_PARTIAL if partial else EXIT_OK


def cmd_cache(args) -> int:
    if not os.path.isdir(args.cache_dir):
        _warn(f"not a directory: {args.cache_dir}")
        return EXIT_USAGE
    cache = ResponseCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {args.cache_dir}")
    else:
        print(f"{cache.count()} entries in {args.cache_dir}")
    return EXIT_OK


def _add_config_flags(parser) -> dict[str, argparse.Action]:
    """Add --config and one flag per PipelineConfig field; return the fields'
    flags by field name."""
    parser.add_argument("--config", help="YAML/JSON config file")
    flags = [
        parser.add_argument("--backend", choices=BACKENDS),
        parser.add_argument("--window-size", dest="window_size", type=int),
        parser.add_argument("--step-size", dest="step_size", type=int),
        parser.add_argument("--eps", type=float),
        parser.add_argument("--min-pts", dest="min_pts", type=int),
        parser.add_argument("--model"),
        parser.add_argument("--max-tokens", dest="max_tokens", type=int),
        parser.add_argument("--seed", type=int),
        parser.add_argument("--concurrency", type=int,
                            help="most backend calls in flight at once, across all articles"),
        parser.add_argument("--cache-dir", dest="cache_dir"),
    ]
    return {flag.dest: flag for flag in flags}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slisum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="run the pipeline over a JSONL corpus")
    p_sum.add_argument("input", help="JSONL file with {id, article[, reference]} records")
    p_sum.add_argument("-o", "--output", required=True, help="output directory")
    # Deprecated and without effect; still accepted so existing scripts run.
    p_sum.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
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
        code = args.func(args)
        sys.stdout.flush()
    except ConfigurationError as exc:
        _warn(str(exc))
        return EXIT_USAGE
    except BrokenPipeError:  # stdout was closed: Python's documented SIGPIPE recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
