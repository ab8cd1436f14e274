import dataclasses
import json
import os

import pytest
import yaml

from slisum.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, build_config, main, make_parser
from slisum.pipeline import PipelineConfig

from conftest import planted_article


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record if isinstance(record, str) else json.dumps(record))
            fh.write("\n")


@pytest.fixture
def corpus(tmp_path):
    planted = planted_article()
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, [
        {"id": "planted", "article": planted.raw_text, "reference": "Some reference."},
        {"id": "tiny", "article": "Solar panels cut energy costs. Solar panels cut energy bills."},
        {"id": "third", "article": "Birds sing at dawn. Birds sing at sunrise. Cats nap at noon."},
    ])
    return path


def read_bytes_tree(root):
    data = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data[os.path.relpath(full, root)] = fh.read()
    return data


class TestSummarize:
    def test_three_records_success(self, corpus, tmp_path):
        out = tmp_path / "out"
        code = main(["summarize", str(corpus), "-o", str(out)])
        assert code == EXIT_OK
        lines = [json.loads(l) for l in (out / "summaries.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["planted", "tiny", "third"]
        assert all(l["summary"] for l in lines)
        assert sorted(os.listdir(out / "records")) == ["planted.json", "third.json", "tiny.json"]

    def test_malformed_line_partial_exit(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [
            {"id": "a", "article": "One sentence here. Another one there."},
            "{not json",
            {"id": "b", "article": "More text here. And here again."},
        ])
        out = tmp_path / "out"
        code = main(["summarize", str(path), "-o", str(out)])
        assert code == EXIT_PARTIAL
        lines = (out / "summaries.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert "malformed" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        out = tmp_path / "out"
        code = main(["summarize", str(path), "-o", str(out)])
        assert code == EXIT_OK
        assert (out / "summaries.jsonl").read_text() == ""
        assert "no valid articles" in capsys.readouterr().err

    def test_missing_input_usage_error(self, tmp_path):
        assert main(["summarize", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path)]) == EXIT_USAGE

    def test_duplicate_id_partial(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [
            {"id": "a", "article": "One sentence here. Another one there."},
            {"id": "a", "article": "Different text now. And again more."},
        ])
        assert main(["summarize", str(path), "-o", str(tmp_path / "out")]) == EXIT_PARTIAL

    def test_jobs_do_not_change_outputs(self, corpus, tmp_path):
        out1, out4 = tmp_path / "jobs1", tmp_path / "jobs4"
        assert main(["summarize", str(corpus), "-o", str(out1), "--jobs", "1"]) == EXIT_OK
        assert main(["summarize", str(corpus), "-o", str(out4), "--jobs", "4"]) == EXIT_OK
        assert read_bytes_tree(out1) == read_bytes_tree(out4)

    def test_dry_run_prints_plan(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["summarize", str(corpus), "-o", str(out), "--dry-run"])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "summarize calls" in captured
        assert "window 1:" in captured
        assert not (out / "summaries.jsonl").exists()

    def test_config_file_and_flag_precedence(self, corpus, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("window_size: 150\nstep_size: 50\neps: 0.3\n")
        out = tmp_path / "out"
        code = main([
            "summarize", str(corpus), "-o", str(out),
            "--config", str(config), "--eps", "0.25",
        ])
        assert code == EXIT_OK
        with open(out / "records" / "tiny.json") as fh:
            record = json.load(fh)
        assert record["config"]["eps"] == 0.25       # flag wins
        assert record["config"]["window_size"] == 150  # file applies

    def test_profile_key_in_config_file_exits_one(self, corpus, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("profile: long\n")
        out = tmp_path / "out"
        code = main(["summarize", str(corpus), "-o", str(out), "--config", str(config)])
        assert code == EXIT_USAGE
        assert "unknown key 'profile'" in capsys.readouterr().err
        assert not (out / "summaries.jsonl").exists()

    def test_profile_flag_exits_one(self, corpus, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", str(corpus), "-o", str(tmp_path / "out"), "--profile", "long"])
        assert exc.value.code == EXIT_USAGE

    def test_cache_rerun_is_byte_identical(self, corpus, tmp_path, capsys):
        cache = tmp_path / "cache"
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["summarize", str(corpus), "-o", str(out1),
                     "--cache-dir", str(cache)]) == EXIT_OK
        capsys.readouterr()
        assert main(["summarize", str(corpus), "-o", str(out2),
                     "--cache-dir", str(cache)]) == EXIT_OK
        err = capsys.readouterr().err
        assert read_bytes_tree(out1) == read_bytes_tree(out2)
        for line in err.splitlines():
            if "backend_calls=" in line:
                assert "backend_calls=0 " in line


class TestConfig:
    VALUES = {
        "window_size": 300, "step_size": 100, "eps": 0.3, "min_pts": 1, "backend": "http",
        "model": "m", "max_tokens": 64, "concurrency": 2, "cache_dir": "cache", "seed": 5,
    }

    def test_every_field_is_a_file_key_and_a_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SLISUM_MODEL", raising=False)
        assert set(self.VALUES) == {f.name for f in dataclasses.fields(PipelineConfig)}
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(self.VALUES))
        parser = make_parser()
        base = ["summarize", "corpus.jsonl", "-o", "out"]
        flags = []
        for name, value in self.VALUES.items():
            flags += ["--" + name.replace("_", "-"), str(value)]
        from_file = build_config(parser.parse_args(base + ["--config", str(config)]))
        from_flags = build_config(parser.parse_args(base + flags))
        assert from_file == from_flags == PipelineConfig(**self.VALUES)


class TestEvaluate:
    def test_perfect_match(self, tmp_path, capsys):
        summaries = tmp_path / "sums.jsonl"
        references = tmp_path / "refs.jsonl"
        write_corpus(summaries, [{"id": "a", "summary": "the cat sat"}])
        write_corpus(references, [{"id": "a", "reference": "the cat sat"}])
        report_path = tmp_path / "report.json"
        code = main(["evaluate", str(summaries), str(references), "-o", str(report_path)])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["per_article"][0]["rouge1"] == 1.0

    def test_disjoint_ids_usage_error(self, tmp_path, capsys):
        summaries = tmp_path / "sums.jsonl"
        references = tmp_path / "refs.jsonl"
        write_corpus(summaries, [{"id": "a", "summary": "x"}])
        write_corpus(references, [{"id": "b", "reference": "x"}])
        assert main(["evaluate", str(summaries), str(references)]) == EXIT_USAGE
        assert "no overlapping ids" in capsys.readouterr().err

    def test_fixture_values(self, tmp_path):
        summaries = tmp_path / "sums.jsonl"
        references = tmp_path / "refs.jsonl"
        write_corpus(summaries, [{"id": "p", "summary": "the cat sat"}])
        write_corpus(references, [{"id": "p", "reference": "the cat ran"}])
        report_path = tmp_path / "report.json"
        assert main(["evaluate", str(summaries), str(references), "-o", str(report_path)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["per_article"][0]["rouge1"] == pytest.approx(2 * 2 / 6)

    @pytest.mark.parametrize("duplicated", ["summaries", "references"])
    def test_duplicate_id_keeps_first_and_exits_partial(self, tmp_path, capsys, duplicated):
        rows = {
            "summaries": [{"id": "a", "summary": "the cat sat"}],
            "references": [{"id": "a", "reference": "the cat sat"}],
        }
        value_field = "summary" if duplicated == "summaries" else "reference"
        rows[duplicated].append({"id": "a", value_field: "a dog ran"})
        paths = {name: tmp_path / f"{name}.jsonl" for name in rows}
        for name, path in paths.items():
            write_corpus(path, rows[name])
        report_path = tmp_path / "report.json"
        code = main(["evaluate", str(paths["summaries"]), str(paths["references"]),
                     "-o", str(report_path)])
        assert code == EXIT_PARTIAL
        assert f"{paths[duplicated]}:2: skipping duplicate id 'a'" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["per_article"][0]["rouge1"] == 1.0

    @pytest.mark.parametrize("malformed", ["summaries", "references"])
    def test_malformed_line_exits_partial(self, tmp_path, capsys, malformed):
        rows = {
            "summaries": [{"id": "a", "summary": "the cat sat"}],
            "references": [{"id": "a", "reference": "the cat sat"}],
        }
        rows[malformed].append("{not json")
        paths = {name: tmp_path / f"{name}.jsonl" for name in rows}
        for name, path in paths.items():
            write_corpus(path, rows[name])
        report_path = tmp_path / "report.json"
        code = main(["evaluate", str(paths["summaries"]), str(paths["references"]),
                     "-o", str(report_path)])
        assert code == EXIT_PARTIAL
        assert f"{paths[malformed]}:2: skipping malformed record" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert [row["id"] for row in report["per_article"]] == ["a"]

    def test_unmatched_ids_listed(self, tmp_path):
        summaries = tmp_path / "sums.jsonl"
        references = tmp_path / "refs.jsonl"
        write_corpus(summaries, [{"id": "a", "summary": "x"}, {"id": "c", "summary": "y"}])
        write_corpus(references, [{"id": "a", "reference": "x"}, {"id": "d", "reference": "y"}])
        report_path = tmp_path / "report.json"
        assert main(["evaluate", str(summaries), str(references), "-o", str(report_path)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["unmatched_summaries"] == ["c"]
        assert report["unmatched_references"] == ["d"]


class TestAnalyze:
    def test_aggregates_records(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["summarize", str(corpus), "-o", str(out)]) == EXIT_OK
        capsys.readouterr()
        report_path = tmp_path / "analysis.json"
        code = main(["analyze", str(out / "records"), "-o", str(report_path)])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert len(report["per_article"]) == 3
        aggregate = report["aggregate"]["position_histogram"]
        per_article_totals = sum(
            entry["position_histogram"]["total"] for entry in report["per_article"]
        )
        assert aggregate["total"] == per_article_totals
        # statement-weighted merge: aggregate counts are the sums of per-article counts
        for i in range(4):
            assert aggregate["counts"][i] == sum(
                entry["position_histogram"]["counts"][i] for entry in report["per_article"]
            )

    @pytest.mark.parametrize("content", ["{bad", '{"article_id": "y"}', "[1, 2]"],
                             ids=["not-json", "not-a-record", "json-list"])
    def test_bad_record_file_skipped_exits_partial(self, corpus, tmp_path, capsys, content):
        out = tmp_path / "out"
        assert main(["summarize", str(corpus), "-o", str(out)]) == EXIT_OK
        full_path = tmp_path / "full.json"
        assert main(["analyze", str(out / "records"), "-o", str(full_path)]) == EXIT_OK
        (out / "records" / "zz-bad.json").write_text(content)
        capsys.readouterr()
        report_path = tmp_path / "analysis.json"
        code = main(["analyze", str(out / "records"), "-o", str(report_path)])
        assert code == EXIT_PARTIAL
        assert "skipping unreadable record zz-bad.json" in capsys.readouterr().err
        assert report_path.read_bytes() == full_path.read_bytes()

    def test_empty_dir_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "records"
        empty.mkdir()
        assert main(["analyze", str(empty)]) == EXIT_USAGE
        assert "no run records" in capsys.readouterr().err

    def test_missing_dir(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope")]) == EXIT_USAGE


class TestCache:
    def test_stats_and_clear(self, corpus, tmp_path, capsys):
        cache = tmp_path / "cache"
        out = tmp_path / "out"
        assert main(["summarize", str(corpus), "-o", str(out), "--cache-dir", str(cache)]) == EXIT_OK
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == EXIT_OK
        assert "entries in" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == EXIT_OK
        assert [n for n in os.listdir(cache) if n.endswith(".json")] == []


class TestUsage:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
