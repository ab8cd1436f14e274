"""The run record's files: `read_record` on what summarize writes, and reports
replaced whole or not at all."""
import json
import os

import pytest

from slisum.cli import EXIT_OK, EXIT_USAGE, main
from slisum.record import read_record

from conftest import planted_text


@pytest.fixture
def records(tmp_path):
    """The records directory of a summarize run over the planted corpus."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(line) + "\n" for line in [
        {"id": "planted", "article": planted_text()},
        {"id": "tiny", "article": "Solar panels cut energy costs. Solar panels cut energy bills."},
        {"id": "x y", "article": "Birds sing at dawn. Birds sing at sunrise. Cats nap at noon."},
    ]))
    out = tmp_path / "out"
    assert main(["summarize", str(corpus), "-o", str(out)]) == EXIT_OK
    return out / "records"


def test_read_record_of_each_summarized_article(records):
    """read_record gives each record's id, the anchor_word_offset of each of
    its final statements, in order, and each retained cluster's texts."""
    seen = []
    for name in sorted(os.listdir(records)):
        path = records / name
        record = json.loads(path.read_text(encoding="utf-8"))
        article_id, offsets, clusters = read_record(path)
        assert article_id == record["article_id"]
        assert offsets == [s["anchor_word_offset"] for s in record["final"]["statements"]]
        assert clusters == [c["texts"] for c in record["clusters"]]
        seen.append(article_id)
        if article_id == "planted":  # three planted events, each a cluster and a statement
            assert len(offsets) == len(clusters) == 3
    assert sorted(seen) == ["planted", "tiny", "x y"]


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_failed_report_write_keeps_the_previous_report(records, tmp_path, monkeypatch, capsys,
                                                       command):
    """A report is replaced whole or not at all: when the rename fails, the
    previous report keeps its bytes, no temp file is left, and the command
    exits 1 with one `cannot write` line."""
    report = tmp_path / "report.json"
    report.write_bytes(b'{"previous": true}\n')
    summaries = str(records.parent / "summaries.jsonl")
    argv = ([command, str(records)] if command == "analyze"
            else [command, summaries, summaries])
    capsys.readouterr()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("slisum.record.os.replace", failing_replace)
    assert main(argv + ["-o", str(report)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"slisum: cannot write {report}: disk full\n"
    assert captured.out == ""
    assert report.read_bytes() == b'{"previous": true}\n'
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "out", "report.json"]


def test_report_name_of_255_bytes_is_written(records, tmp_path):
    """The temp name is cut to fit, so a report may have any name a file
    can have."""
    report = tmp_path / ("r" * 250 + ".json")
    assert main(["analyze", str(records), "-o", str(report)]) == EXIT_OK
    assert json.loads(report.read_text())["per_article"]
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "out", report.name]
