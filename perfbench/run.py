#!/usr/bin/env python3
"""End-to-end replay benchmark: build, generate the seeded log, replay it.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_k1|dense_k1|sharded_k4|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (and the engine sources it compiles) in Release under
$CARGO_TARGET_DIR, default .bench_build, then for each workload:

1. `replay_bench gen` writes the workload's JSONL log for the seed, in its
   own process, so generation never counts towards the replay's peak RSS;
2. `replay_bench run` replays it for S seconds and prints the metrics; its
   last stdout line is the JSON result.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(and writes the spans of the last traced replay next to the build). Exits
non-zero, without a JSON line, when the build fails, and non-zero after a
`"correct": false` JSON line when any output check fails. `--workload all`
runs the three workloads in turn and prints one JSON whose metric names are
prefixed with the workload name. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["ingest_k1", "dense_k1", "sharded_k4"]
DEADLINE_S = 175  # every run after the build must end within 180 s


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return bdir / "replay_bench"


def run_workload(binary, bdir, args, workload, start, capture):
    logs = bdir / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    log = logs / f"{workload}-seed{args.seed}-scale{args.scale}.jsonl"
    common = ["--workload", workload, "--seed", str(args.seed),
              "--scale", repr(args.scale)]
    try:
        gen = subprocess.run([str(binary), "gen", *common, "--out", str(log)],
                             timeout=max(1, DEADLINE_S - (time.time() - start)))
        if gen.returncode != 0:
            fail(f"log generation failed for {workload}", 1)
        cmd = [str(binary), "run", *common, "--log", str(log),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--pins", str(args.pins)]
        if args.trace == 1:
            traces = bdir / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{workload}-seed{args.seed}.spans.jsonl")]
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE if capture else None, text=True,
            timeout=max(1, DEADLINE_S - (time.time() - start)))
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {DEADLINE_S} s", 1)
    finally:
        log.unlink(missing_ok=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Task/worker count multiplier, for the self-tests' tiny runs.
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--pins", default=str(HERE / "pins.txt"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    bdir = build_dir()
    binary = build(bdir)
    start = time.time()  # the first run may also spend minutes building
    if args.workload != "all":
        code, _ = run_workload(binary, bdir, args, args.workload, start,
                               capture=False)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_workload(binary, bdir, args, workload, time.time(),
                                 capture=True)
        lines = out.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            fail(f"{workload} printed no result", 1)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
