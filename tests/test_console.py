"""The `slisum` command end to end.

Most tests run the entry point in a process of its own, `python -m
slisum.cli` on the source the tests import, for what only a separate process
shows: a warm rerun served from another process's cache, the connections a
run opens to a real server, peak RSS, and a reader that closes the pipe. The
http backend against a refused port runs in-process through
`slisum.cli.main`, with an engine that skips its backoff sleeps, since five
real attempts would wait for seconds.
"""
import json
import os
import random
import socket
import subprocess
import sys

from slisum.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from slisum.engine import HttpEngine

from conftest import EchoServer

ARTICLES = [
    {"id": "solar", "article": "Solar panels cut energy costs. Solar panels cut energy "
                               "bills. Wind farms grow fast."},
    {"id": "birds", "article": "Birds sing at dawn. Birds sing at sunrise. Cats nap at noon."},
]
# The peak RSS of the one child of a Python parent, in KB: RUSAGE_CHILDREN
# is the maximum over every child a process has reaped, so each measured run
# gets a parent of its own.
PEAK_KB = ("import resource, subprocess, sys\n"
           "subprocess.run(sys.argv[1:], check=True, stderr=subprocess.DEVNULL)\n"
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


def slisum_command(*args):
    return [sys.executable, "-m", "slisum.cli", *map(str, args)]


def slisum(*args, env=None):
    """Run the command on the source these tests import; the finished process."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(slisum_command(*args), capture_output=True, text=True, env=env,
                          timeout=120)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
    return path


def per_article_lines(err):
    return [line for line in err.splitlines() if " backend_calls=" in line]


def test_warm_rerun_in_another_process_makes_no_backend_call(tmp_path):
    """A second process on the same cache makes no backend call, retries
    nothing and writes the same summaries; so does a third after a garbage
    line is appended to the cache log, which it skips with one warning."""
    corpus = write_jsonl(tmp_path / "corpus.jsonl", ARTICLES)
    cache = tmp_path / "cache"
    runs = {}
    for name in ("cold", "warm", "garbage"):
        if name == "garbage":
            with open(cache / "responses.jsonl", "a", encoding="utf-8") as fh:
                fh.write("not a cache line\n")
        runs[name] = slisum("summarize", corpus, "-o", tmp_path / name, "--cache-dir", cache)
        assert runs[name].returncode == EXIT_OK, runs[name].stderr
    for name in ("warm", "garbage"):
        lines = per_article_lines(runs[name].stderr)
        assert len(lines) == 2
        assert all(" backend_calls=0 " in line and " retries=0 " in line for line in lines)
        assert ((tmp_path / name / "summaries.jsonl").read_bytes()
                == (tmp_path / "cold" / "summaries.jsonl").read_bytes())
    assert runs["warm"].stderr.count("skipping unreadable line") == 0
    assert runs["garbage"].stderr.count("skipping unreadable line") == 1


def test_mock_filled_cache_answers_nothing_over_http(tmp_path, monkeypatch, capsys, caplog):
    """A cache a mock run filled serves nothing to --backend http: each call
    goes to a loopback port that refuses it and fails after its 5 attempts,
    exit 2. Each retry warning is one short line naming the transport error's
    class; the transport's message is printed once, in the final error."""
    corpus = write_jsonl(tmp_path / "corpus.jsonl", ARTICLES)
    cache = tmp_path / "cache"
    assert main(["summarize", str(corpus), "-o", str(tmp_path / "mock"),
                 "--cache-dir", str(cache)]) == EXIT_OK
    capsys.readouterr()
    with socket.socket() as probe:  # a port nothing listens on once it is closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    monkeypatch.setenv("SLISUM_BASE_URL", f"http://127.0.0.1:{port}")
    monkeypatch.delenv("SLISUM_API_KEY", raising=False)
    monkeypatch.setattr("slisum.pipeline.make_engine",
                        lambda backend: HttpEngine(sleep=lambda seconds: None))
    solar = write_jsonl(tmp_path / "solar.jsonl", ARTICLES[:1])
    assert main(["summarize", str(solar), "-o", str(tmp_path / "http"), "--backend", "http",
                 "--cache-dir", str(cache)]) == EXIT_PARTIAL
    err = capsys.readouterr().err
    retries = [r.getMessage() for r in caplog.records if "retrying in" in r.getMessage()]
    assert "cache_hits=" not in err
    assert "failed after 5 attempts" in err
    assert retries and max(map(len, retries)) <= 160
    assert "\n".join([err, *retries]).count("Connection refused") == 1


def test_http_run_reuses_connections(tmp_path):
    """Against a loopback keep-alive server that echoes the user message, a
    run at --concurrency 1 opens fewer connections than the backend calls
    its articles report."""
    corpus = write_jsonl(tmp_path / "corpus.jsonl", ARTICLES)
    with EchoServer() as server:
        run = slisum("summarize", corpus, "-o", tmp_path / "out", "--backend", "http",
                     "--concurrency", "1", env={"SLISUM_BASE_URL": server.url})
    assert run.returncode == EXIT_OK, run.stderr
    lines = per_article_lines(run.stderr)
    assert len(lines) == 2
    calls = sum(int(line.split(" backend_calls=")[1].split()[0]) for line in lines)
    assert len(server.accepted) < calls


def test_peak_rss_does_not_grow_with_the_corpus(tmp_path):
    """summarize reads articles as it starts them, so ten times the articles
    of ~300 words each may add at most 3 MB of peak RSS."""
    rng = random.Random(0)
    vocabulary = [f"word{i}" for i in range(3000)]
    peaks = []
    for articles in (100, 1000):
        corpus = write_jsonl(tmp_path / f"corpus-{articles}.jsonl", [
            {"id": f"a{a}", "article": " ".join(
                " ".join(rng.choices(vocabulary, k=15)).capitalize() + "." for _ in range(20))}
            for a in range(articles)])
        out = tmp_path / f"out-{articles}"
        command = slisum_command("summarize", corpus, "-o", out, "--backend", "mock")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        peak = subprocess.run([sys.executable, "-c", PEAK_KB, *command], capture_output=True,
                              text=True, env=env, timeout=300, check=True)
        peaks.append(int(peak.stdout))
    assert len((out / "summaries.jsonl").read_text().splitlines()) == 1000
    assert peaks[1] - peaks[0] <= 3072, peaks


def test_closed_stdout_ends_the_command_without_a_traceback(tmp_path):
    """A reader that takes one line and closes the pipe, as `| head -1` does,
    while a dry run still has more than a pipe buffer to print, ends the
    command with exit 1 and nothing on stderr."""
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [
        {"id": f"a{a}", "article": " ".join(f"Word{i} runs fast." for i in range(200))}
        for a in range(200)])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    command = slisum_command("summarize", "--dry-run", corpus, "-o", tmp_path / "out")
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as child:
        assert child.stdout.readline().startswith(b"a0: 600 words")
        child.stdout.close()
        _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (EXIT_USAGE, b"")
