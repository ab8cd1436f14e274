"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json on a small corpus, on two seeds, with
tracing off and on, and checks that each run passes its correctness gate and
prints every metric BENCHMARK.json names with that metric's unit. It also
checks that `short-latency` (cold cache) and `short-warm` (warm cache) print
the same output digest for the same seed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = (1, 2)
SCALE = "0.1"
SECONDS = "1"


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    digest = next(line.split()[2] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                result, digest = run(workload, seed, trace)
                label = f"{workload} seed {seed} trace {trace}"
                digests.setdefault((workload, seed), set()).add(digest)
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    errors.append(f"{label}: correct={result['correct']} "
                                  f"attempted={result['attempted']} failed={result['failed']}")
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                if printed != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(printed))
                    extra = sorted(set(printed) - set(expected[trace]))
                    wrong = sorted(n for n in set(printed) & set(expected[trace])
                                   if printed[n] != expected[trace][n])
                    errors.append(f"{label}: missing {missing}, unexpected {extra}, "
                                  f"wrong unit {wrong}")
                print(f"ok  {label}" if not errors or not errors[-1].startswith(label)
                      else f"BAD {label}", flush=True)
    for (workload, seed), seen in digests.items():
        if len(seen) != 1:
            errors.append(f"{workload} seed {seed}: digest differs between traced and untraced")
    for seed in SEEDS:
        if digests[("short-latency", seed)] != digests[("short-warm", seed)]:
            errors.append(f"seed {seed}: short-latency and short-warm digests differ")
    for error in errors:
        print(error, file=sys.stderr)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
