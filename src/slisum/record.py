"""The run record: its class, its JSON form, its file and the reader `analyze`
uses. `write_atomic` writes every whole output file, records and reports alike."""
from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field, fields

from .engine import json_loads

_encode_str = json.encoder.encode_basestring  # a str as JSON, non-ASCII kept
# indented_json's writers of the scalars records hold most, by exact type (so
# a bool, an int subclass, is not written as an int)
_WRITERS = {str: _encode_str, int: int.__repr__}


@dataclass
class RunStats:
    """Volatile per-run diagnostics, kept out of the canonical serialization so
    reruns stay byte-identical."""

    backend_calls: int = 0
    cache_hits: int = 0
    retries: int = 0
    summarize_calls: int = 0
    classify_calls: int = 0
    connect_calls: int = 0
    elapsed_s: float = 0.0


@dataclass
class RunRecord:
    article_id: str
    config: dict
    plan: dict
    status: str = "aborted"  # until finish() completes it
    local_summaries: list[dict] = field(default_factory=list)
    clusters: list[dict] = field(default_factory=list)
    noise: list[dict] = field(default_factory=list)
    votes: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=lambda: {
        "statements": [], "connected_text": "", "fallback": False})
    flags: list[str] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "stats"}

    def to_json(self) -> str:
        return indented_json(self.to_dict())


def indented_json(value, newline: str = "\n") -> str:
    """`json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2)`, the
    form of every record and report, for a value built of dicts, lists,
    tuples and JSON scalars; a dict key that is not a str raises TypeError.

    With `indent` set, CPython before 3.13 encodes in pure Python. Here each
    str or int is written by one C call, a list of only ints or only strings
    is joined in one C-level call, and any other scalar goes to `json.dumps`.
    `newline` is the line break before the value's closing bracket, followed
    by its indentation.
    """
    write = _WRITERS.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):  # _encode_str raises TypeError on a non-str key
            item = value[key]
            write = _WRITERS.get(type(item))
            items.append(_encode_str(key) + ": "
                         + (write(item) if write else indented_json(item, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        write = _WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(write, value) if write else [indented_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, ensure_ascii=False)


# The longest record file name that leaves room for `write_atomic`'s temp
# suffix, `.<pid>-<thread id>.tmp`, in a 255-byte name. Linux caps pid_max,
# which bounds thread ids too, at 2**22, so each id has at most 7 digits.
_NAME_BYTES = 255 - len(".4194304-4194304.tmp")


def record_filename(article_id: str) -> str:
    """`<id>.json`, or, for an id that is empty, holds characters other than
    letters, digits, `-`, `_` and `.`, or is too long, the id with those
    characters as `_`, cut to fit, plus `-` and an 8-hex hash of the id."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in article_id)
    if safe and safe == article_id and len(safe.encode()) + len(".json") <= _NAME_BYTES:
        return safe + ".json"
    digest = hashlib.sha256(article_id.encode()).hexdigest()[:8]
    safe = safe.encode()[:_NAME_BYTES - len("-12345678.json")].decode(errors="ignore")
    return (safe + "-" if safe else "") + digest + ".json"


def persist_record(record: RunRecord, directory: str) -> str:
    path = os.path.join(directory, record_filename(record.article_id))
    write_atomic(path, record.to_json() + "\n")
    return path


def write_atomic(path: str, text: str) -> None:
    """Write `text` to `path` through a temp file in the same directory and
    rename it into place, so a crash mid-write leaves the previous file, never
    a truncated one. The temp name is unique per process and thread: the
    file name, cut to leave room in 255 bytes, and `.<pid>-<thread id>.tmp`."""
    directory, name = os.path.split(path)
    suffix = f".{os.getpid()}-{threading.get_native_id()}.tmp"
    tmp = os.path.join(directory, os.fsdecode(os.fsencode(name)[:255 - len(suffix)]) + suffix)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_record(path):
    """(article id, anchor word offsets, cluster texts) of one run-record
    file; ValueError if the file is not JSON or not a run record. The id
    must be a string that can be written as UTF-8, each offset an int, and
    each cluster's texts a non-empty list of strings."""
    with open(path, encoding="utf-8") as fh:
        record = json_loads(fh.read())
    try:
        offsets = [s["anchor_word_offset"] for s in record["final"]["statements"]]
        article_id = record["article_id"]
        if not isinstance(article_id, str):
            raise TypeError("article_id is not a string")
        article_id.encode("utf-8")  # fails on a lone surrogate escape ("\ud800")
        clusters = [entry["texts"] for entry in record["clusters"]]
    except (KeyError, TypeError, UnicodeEncodeError) as exc:
        raise ValueError(f"not a run record ({type(exc).__name__}: {exc})") from exc
    if not all(type(offset) is int for offset in offsets):
        raise ValueError("not a run record (an anchor_word_offset is not an int)")
    if not all(isinstance(texts, list) and texts and all(isinstance(t, str) for t in texts)
               for texts in clusters):
        raise ValueError("not a run record (a cluster's texts are not a non-empty "
                         "list of strings)")
    return article_id, offsets, clusters
