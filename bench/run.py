"""slisum benchmark: corpus throughput and CPU overhead, with per-layer spans.

    python3 bench/run.py --workload long-canned --seed 1 --seconds 20 --trace 0

Runs the real `slisum summarize` / `evaluate` / `analyze` entry points
(`slisum.cli.main`) in-process on seeded synthetic corpora. The backend is the
fake server in fakebackend.py, reached through `HttpEngine(transport=...)`:
this file swaps `slisum.pipeline.make_engine` for a factory that builds such
engines, so cli -> pipeline -> CachedEngine/ResponseCache -> HttpEngine runs
unmodified. See README.md for the workloads and metrics.

The last line of stdout is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics from a traced run with `--trace 1`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("long-canned", "short-latency", "short-warm", "eval-long")
SETUP_REPS = 3
JOBS = 1
CONCURRENCY = 2
BACKOFF_BASE_S = 0.02
MODEL = "bench-fake"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor; the harness self-test uses a small one")
    return parser.parse_args(argv)


def import_program() -> None:
    """Import slisum from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "slisum", "__init__.py")):
        sys.exit(f"bench: no slisum sources under {SRC}")
    sys.path.insert(0, SRC)
    import slisum.cli

    if not os.path.abspath(slisum.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported slisum from {slisum.cli.__file__}, not {SRC}")


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import slisum.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time a cold `import slisum.cli` (every slisum module and PyYAML) in a
    fresh interpreter, since this process has imported it already."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


@dataclass
class PassResult:
    """One timed execution of a workload's measured phase."""

    wall_s: float
    cpu_s: float
    kwords: float
    digest: str
    attempted: int
    failed: int
    fake: object  # the pass's FakeBackend; None when no engine runs

    @property
    def kwords_per_s(self) -> float:
        return self.kwords / self.wall_s

    @property
    def overhead_cpu_s_per_kword(self) -> float:
        fake_cpu = self.fake.cpu_s if self.fake else 0.0
        return (self.cpu_s - fake_cpu) / self.kwords


class Bench:
    def __init__(self, args, work: str):
        import corpus

        self.work = work
        self.workload = args.workload
        self.tracer = None
        self.fake = None
        self.problems: list[str] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.make_corpus = {
            "long-canned": lambda: corpus.long_corpus(args.seed, args.scale),
            "short-latency": lambda: corpus.short_corpus(args.seed, args.scale),
            "short-warm": lambda: corpus.short_corpus(args.seed, args.scale),
            "eval-long": lambda: corpus.long_corpus(args.seed, args.scale,
                                                    articles=corpus.EVAL_ARTICLES),
        }[self.workload]

    def pin(self, index: int) -> None:
        """Run the next set-up or pass, and the threads it starts, on one of the
        allowed CPUs, taking them in turn. Unpinned, the benchmark stays on
        whichever CPU the scheduler picked at start, and on a shared host one
        CPU can run slower than another for minutes; rotating makes every run
        sample all of them."""
        os.sched_setaffinity(0, {self.cpus[index % len(self.cpus)]})

    def unpin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def problem(self, message: str) -> None:
        self.problems.append(message)
        sys.stderr.write(f"bench: {message}\n")

    # ---------------------------------------------------------- program I/O

    def make_engine(self, backend: str, **kwargs):
        """Stand-in for slisum.pipeline.make_engine: an HttpEngine on the fake."""
        from slisum.engine import HttpEngine

        if backend != "http":
            raise ValueError(f"benchmark runs the http backend, not {backend!r}")
        transport, sleep = self.fake.transport, time.sleep
        if self.tracer is not None:
            transport = self.tracer.backend_transport(transport)
            sleep = self.tracer.backoff_sleep(sleep)
        engine = HttpEngine(transport=transport, sleep=sleep, backoff_base=BACKOFF_BASE_S,
                            **kwargs)
        if self.tracer is not None:
            self.tracer.bind(engine, self.tracer.current())
        return engine

    def cli(self, argv: list[str]) -> int:
        import slisum.cli

        tracer = self.tracer
        if tracer is not None:
            tracer.root = tracer.open(f"cli.{argv[0]}")
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = slisum.cli.main(argv)
        finally:
            if tracer is not None:
                tracer.close(tracer.root)
                tracer.root = None
        if code != 0:
            self.problem(f"slisum {argv[0]} exited {code}: {err.getvalue()[-2000:]}")
        return code

    def summarize(self, corpus_path: str, out: str, cache: str, latency: bool) -> int:
        from fakebackend import FakeBackend

        self.fake = FakeBackend(latency)
        return self.cli([
            "summarize", corpus_path, "-o", out, "--jobs", str(JOBS),
            "--concurrency", str(CONCURRENCY), "--backend", "http", "--model", MODEL,
            "--cache-dir", cache,
        ])

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.work)

    # ---------------------------------------------------------- correctness

    def check_summaries(self, corpus, out: str, code: int) -> tuple[str, int]:
        """Check a summarize output directory; return (digest, failed articles)."""
        ids = [aid for aid, _ in corpus.articles]
        if code != 0:
            return "", len(ids)
        digest = hashlib.sha256()
        path = os.path.join(out, "summaries.jsonl")
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        if [line["id"] for line in lines] != ids:
            self.problem("summaries.jsonl ids differ from the corpus")
        failed = 0
        counts = corpus.sentence_counts()
        for line in lines:
            record_path = os.path.join(out, "records", line["id"] + ".json")
            with open(record_path, "rb") as fh:
                raw = fh.read()
            digest.update(line["id"].encode() + b"\0" + raw)
            record = json.loads(raw)
            problem = _record_problem(record, counts[line["id"]])
            if problem is None and not line["summary"]:
                problem = "empty summary"
            if problem is not None:
                self.problem(f"{line['id']}: {problem}")
                failed += 1
        return digest.hexdigest(), failed + len(ids) - len(lines)

    # ---------------------------------------------------------- workloads

    def setup(self) -> dict:
        """Write the corpus and do the workload's set-up runs in a fresh directory."""
        state = {"dir": self.fresh_dir()}
        corpus = self.make_corpus()
        state["corpus"] = corpus
        state["corpus_path"] = os.path.join(state["dir"], "corpus.jsonl")
        corpus.write_articles(state["corpus_path"])
        state["cache"] = os.path.join(state["dir"], "cache")
        if self.workload in ("short-warm", "eval-long"):
            out = os.path.join(state["dir"], "out")
            code = self.summarize(state["corpus_path"], out, state["cache"],
                                  latency=self.workload == "short-warm")
            state["digest"], failed = self.check_summaries(corpus, out, code)
            if failed:
                self.problem(f"set-up run failed on {failed} articles")
            state["out"] = out
        if self.workload == "eval-long":
            state["refs"] = os.path.join(state["dir"], "refs.jsonl")
            corpus.write_references(state["refs"])
        return state

    def timed_pass(self, state) -> PassResult:
        gc.collect()
        if self.workload == "eval-long":
            return self.evaluate(state)
        corpus = state["corpus"]
        out = self.fresh_dir()
        cache = state["cache"] if self.workload == "short-warm" else os.path.join(out, "cache")
        cpu0, wall0 = time.process_time(), perf_counter()
        code = self.summarize(state["corpus_path"], out, cache,
                              latency=self.workload != "long-canned")
        wall, cpu = perf_counter() - wall0, time.process_time() - cpu0
        digest, failed = self.check_summaries(corpus, out, code)
        shutil.rmtree(out)
        if self.workload == "short-warm":
            if self.fake.requests:
                self.problem(f"warm rerun sent {self.fake.requests} requests to the backend")
            if digest != state["digest"]:
                self.problem("warm rerun output differs from the cold run")
        return PassResult(wall, cpu, corpus.words / 1000.0, digest, len(corpus.articles),
                          failed, self.fake)

    def evaluate(self, state) -> PassResult:
        """`slisum evaluate` and `slisum analyze` over the set-up run's output."""
        corpus = state["corpus"]
        articles = len(corpus.articles)
        out = self.fresh_dir()
        report = os.path.join(out, "report.json")
        analysis = os.path.join(out, "analysis.json")
        cpu0, wall0 = time.process_time(), perf_counter()
        codes = (
            self.cli(["evaluate", os.path.join(state["out"], "summaries.jsonl"),
                      state["refs"], "-o", report]),
            self.cli(["analyze", os.path.join(state["out"], "records"), "-o", analysis]),
        )
        wall, cpu = perf_counter() - wall0, time.process_time() - cpu0
        digest = hashlib.sha256()
        failed = 0
        for code, path in zip(codes, (report, analysis)):
            if code != 0:
                failed += articles
                continue
            with open(path, "rb") as fh:
                raw = fh.read()
            digest.update(raw)
            rows = json.loads(raw)["per_article"]
            if [row.get("id", row.get("article_id")) for row in rows] != sorted(
                    aid for aid, _ in corpus.articles):
                self.problem(f"{os.path.basename(path)} does not cover every article once")
                failed += articles
        shutil.rmtree(out)
        return PassResult(wall, cpu, corpus.words / 1000.0, digest.hexdigest(), 2 * articles,
                          failed, None)

    def measure(self, state, seconds: float, traced: bool) -> list:
        from spans import Tracer

        passes = []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            self.pin(len(passes))
            tracer = None
            if traced:
                tracer = self.tracer = Tracer()
                tracer.install()
            try:
                result = self.timed_pass(state)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    self.tracer = None
            passes.append((result, tracer))
        return passes


def _record_problem(record: dict, sentences: int) -> str | None:
    """Why a run record is wrong, or None: complete, and every article sentence
    covered by exactly K generations."""
    if record.get("status") != "complete":
        return f"status {record.get('status')!r}"
    k = record["config"]["k"]
    coverage = [0] * (sentences + 2)
    for window in record["plan"]["windows"]:
        lo, hi = window["start_sentence"], window["end_sentence"]
        if not 1 <= lo <= hi <= sentences:
            return f"window {window['ordinal']} spans [{lo}, {hi}] of {sentences} sentences"
        for i in range(lo, hi + 1):
            coverage[i] += window["repetitions"]
    wrong = [i for i in range(1, sentences + 1) if coverage[i] != k]
    if wrong:
        return f"sentence {wrong[0]} covered {coverage[wrong[0]]} times, K={k}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import slisum.pipeline

    work_root = os.path.join(BENCH_DIR, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    bench = Bench(args, work)
    original_factory = slisum.pipeline.make_engine
    slisum.pipeline.make_engine = bench.make_engine
    try:
        setup_times, states = [], []
        for rep in range(SETUP_REPS):
            bench.pin(rep)
            gc.collect()
            start = perf_counter()
            states.append(bench.setup())
            setup_times.append(import_seconds() + perf_counter() - start)
        state = states[-1]
        if len({s.get("digest") for s in states}) != 1:
            bench.problem("set-up runs produced different outputs")
        for old in states[:-1]:
            shutil.rmtree(old["dir"])

        if args.trace:
            plain = bench.measure(state, args.seconds / 2, traced=False)
            traced = bench.measure(state, args.seconds / 2, traced=True)
        else:
            plain, traced = bench.measure(state, args.seconds, traced=False), []
        runs = [r for r, _ in plain + traced]
        digests = {r.digest for r in runs}
        if len(digests) != 1:
            bench.problem(f"passes produced {len(digests)} different outputs")
        print(f"digest {args.workload} {runs[0].digest}")

        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        plain_kwps = statistics.median([r.kwords_per_s for r, _ in plain])
        if args.trace:
            metrics = _layer_metrics(traced, plain_kwps)
            trace_path = _write_trace(args, traced)
            print(f"trace {trace_path}")
        else:
            metrics = {
                "kwords_per_s": (plain_kwps, "kword/s"),
                "overhead_cpu_s_per_kword": (
                    statistics.median([r.overhead_cpu_s_per_kword for r, _ in plain]), "s/kword"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
                "ok_share": ((attempted - failed) / attempted, "ratio"),
            }
    finally:
        bench.unpin()
        slisum.pipeline.make_engine = original_factory
        shutil.rmtree(work, ignore_errors=True)

    correct = not bench.problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_metrics(traced, plain_kwps: float) -> dict:
    per_pass = []
    for result, tracer in traced:
        values = tracer.layer_metrics()
        fake = result.fake
        requests = fake.requests if fake else 0
        values["engine.retries"] = float(fake.throttled if fake else 0)
        values["engine.backend_calls_per_kword"] = requests / result.kwords
        values["engine.prompt_words_per_kword"] = (fake.prompt_words if fake else 0) / result.kwords
        per_pass.append(values)
    traced_kwps = statistics.median([r.kwords_per_s for r, _ in traced])
    metrics = {key: (statistics.median([v[key] for v in per_pass]), _unit(key)) for key in per_pass[0]}
    metrics["trace.overhead_share"] = (1.0 - traced_kwps / plain_kwps, "ratio")
    return dict(sorted(metrics.items()))


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_share") or key == "pipeline.inflight_mean":
        return "ratio"
    if key.endswith("_per_kword"):
        return "1/kword" if "calls" in key else "word/kword"
    return "count"


def _write_trace(args, traced) -> str:
    out_dir = os.path.join(BENCH_DIR, "_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for number, (_, tracer) in enumerate(traced, 1):
            tracer.write_jsonl(fh, workload=args.workload, seed=args.seed, pass_number=number)
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
