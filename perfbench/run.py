#!/usr/bin/env python3
"""Benchmark entry point: build the benchmark binary, run one workload, print the result.

    python3 perfbench/run.py --workload interpret --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The first run configures and builds the
binary (perfbench/CMakeLists.txt over ../src, Release) in .bench_build/; later
runs only rebuild what changed. The binary's readable report goes to stdout
and its build log to stderr; the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list. With
--trace 1 the seconds are split between an untraced and a traced benchmark
process, the metrics are the per_layer list, and trace.overhead_* report the
traced end-to-end value minus the untraced one. The traced run of `stream`
gives half its traced share to a traced run of the binary's `serve` workload,
whose layers (one-shot scenes, hot reloads, analysis) no benchmark workload
times end to end; a layer both report keeps the stream value. A per-layer
metric of a layer the workload does not run reads 0.

Counts that must not depend on scheduling are kept per benchmark binary, workload
and seed in .bench_build/perfbench/counts/; a run whose counts differ from an
earlier run of the same seed is not correct.
"""

import argparse
import hashlib
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("interpret", "stream")
# Binary workloads run only traced, for their layers, beside a workload above.
TRACED_ALSO = {"stream": ("serve",)}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no library sources at %s" % (ROOT / "src"))
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step %s failed: %s" % (step[:2], error))
            return False
        if done.returncode != 0:
            log("build step %s exited %d" % (step[:2], done.returncode))
            return False
    return BINARY.is_file()


def run_binary(workload, seed, seconds, trace):
    """One benchmark process; its result object, or None if it produced none."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s exited %d without a result line" % (workload, done.returncode))
        return None
    return result


def counts_repeat(workload, seed, counts):
    """Compare scheduling-independent counts with earlier runs of this seed."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    path = BUILD / "counts" / ("%s-%s-%d.json" % (digest, workload, seed))
    known = json.loads(path.read_text()) if path.is_file() else {}
    differing = sorted(k for k, v in counts.items() if k in known and known[k] != v)
    for name in differing:
        log("count %s is %s; an earlier run of seed %d measured %s"
            % (name, counts[name], seed, known[name]))
    known.update(counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True) + "\n")
    return not differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not build():
        return 1

    extra = TRACED_ALSO.get(args.workload, ()) if args.trace else ()
    if args.trace:
        traced_s = args.seconds / 2 / (1 + len(extra))
        untraced = run_binary(args.workload, args.seed, args.seconds / 2, False)
        traced = run_binary(args.workload, args.seed, traced_s, True)
        runs = [(args.workload, untraced), (args.workload, traced)]
        runs += [(name, run_binary(name, args.seed, traced_s, True)) for name in extra]
    else:
        runs = [(args.workload, run_binary(args.workload, args.seed, args.seconds, False))]
    if any(run is None for _, run in runs):
        return 1

    correct = all(run["correct"] for _, run in runs)
    for name, run in runs:
        correct = counts_repeat(name, args.seed, run["counts"]) and correct

    if args.trace:
        values = {}
        for _, run in reversed(runs[1:]):
            values.update(run["layers"])
        for name in ("latency_p50_ms", "cpu_ms_per_op"):
            values["trace.overhead_" + name] = traced["e2e"][name] - untraced["e2e"][name]
        wanted = spec["per_layer"]
    else:
        values = runs[0][1]["e2e"]
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], None if not args.trace else 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log("metric %s was not measured" % metric["name"])
            correct = False
            value = 0.0
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for _, run in runs),
        "failed": sum(run["failed"] for _, run in runs),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
