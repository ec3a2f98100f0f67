#!/usr/bin/env python3
"""Self-tests of the replay benchmark at a tiny scale (a few seconds).

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then checks that every metric
BENCHMARK.json names is printed with its unit, that close_p99_ms appears
only with >= 1,000 closes per replay, that a wrong pinned digest fails the
command, that deterministic work counts repeat exactly, that the churn
splicer only emits events the engine must accept, and that the command
fails without a result when the engine sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own entry point)

SCALE = "0.01"
SEED = "7"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ["ingest.events", "ingest.bytes", "submit.calls",
                 "close.calls", "close.tasks", "close.accepted",
                 "close.matched", "checkpoint.bytes", "checkpoint.saves"]
SHARDED_ONLY = ["sharded.region_close_s", "sharded.merge_s",
                "sharded.stitch_s", "sharded.repatriate_s",
                "sharded.stitch_matches", "sharded.repatriations",
                "pool.tasks_submitted", "pool.tasks_per_close",
                "pool.task_run_s", "pool.close_speedup"]


def bench(workload, trace=0, pins=None, root=None, env=None):
    """Runs run.py at the tiny scale; returns (exit code, stdout lines)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", SEED, "--seconds", "0", "--trace", str(trace),
           "--scale", SCALE]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    done = subprocess.run(cmd, cwd=root or run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=600)
    return done.returncode, done.stdout.splitlines(), done.stderr


def text_metrics(lines):
    """{name: (value, unit)} of the `metric NAME VALUE UNIT` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def field(lines, key):
    for line in lines:
        parts = line.split()
        if key in parts:
            return parts[parts.index(key) + 1]
    return None


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build_dir()
        cls.binary = run.build(cls.bdir)
        cls.scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=cls.bdir))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines, err = bench(workload, trace)
                    self.assertEqual(code, 0, err)
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    printed = text_metrics(lines)
                    for name, unit in want.items():
                        self.assertEqual(printed[name][1], unit, name)
                    extra = [n for n in SHARDED_ONLY if n in printed]
                    if trace == 1 and workload == "sharded_k4":
                        self.assertEqual(extra, SHARDED_ONLY)
                    else:
                        self.assertEqual(extra, [])
                    if trace == 0:
                        self.assertIn("samples", " ".join(
                            l for l in lines if "close_p50_ms" in l))

    def test_p99_only_with_enough_closes(self):
        # Tiny ingest_k1 keeps its 2,000 periods; dense_k1 has 100.
        _, lines, _ = bench("ingest_k1")
        self.assertIn("close_p99_ms", text_metrics(lines))
        _, lines, _ = bench("dense_k1")
        self.assertNotIn("close_p99_ms", text_metrics(lines))

    def test_pinned_digests(self):
        _, lines, _ = bench("dense_k1")
        log_digest = field(lines, "log_digest")
        out_digest = field(lines, "output_digest")
        pins = self.scratch / "pins.txt"

        def pin(log, out):
            pins.write_text(f"dense_k1 {SEED} {SCALE} {log} {out}\n")
            return bench("dense_k1", pins=pins)

        code, lines, _ = pin(log_digest, out_digest)
        self.assertEqual(code, 0)
        self.assertEqual(field(lines, "pinned"), "yes")
        flipped = f"{int(out_digest, 16) ^ 1:016x}"
        code, lines, err = pin(log_digest, flipped)
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])
        self.assertIn("output digest", err)
        code, lines, err = pin(f"{int(log_digest, 16) ^ 1:016x}", out_digest)
        self.assertNotEqual(code, 0)
        self.assertIn("workload changed", err)

    def test_deterministic_counts_repeat(self):
        runs = [bench("sharded_k4", trace=1) for _ in range(2)]
        for code, _, err in runs:
            self.assertEqual(code, 0, err)
        first, second = (json.loads(lines[-1])["metrics"] for _, lines, _ in runs)
        for name in DETERMINISTIC:
            self.assertEqual(first[name]["value"], second[name]["value"], name)
        digests = {field(lines, "output_digest") for _, lines, _ in runs}
        self.assertEqual(len(digests), 1)
        revenues = {json.loads(bench("sharded_k4")[1][-1])["metrics"]
                    ["revenue"]["value"] for _ in range(2)}
        self.assertEqual(len(revenues), 1)

    def test_churn_splicer_emits_only_acceptable_events(self):
        log = self.scratch / "churn.jsonl"
        subprocess.run([str(self.binary), "gen", "--workload", "sharded_k4",
                        "--seed", SEED, "--scale", SCALE, "--out", str(log)],
                       check=True)
        period = 0
        admitted = {}     # worker id -> admission period
        removed = set()
        submitted = set()  # task ids of the open period
        removals = observations = 0
        for line in log.read_text().splitlines():
            if line.startswith("#"):
                continue
            event = json.loads(line)
            kind = event["event"]
            if kind == "add_worker":
                admitted[event["id"]] = period
            elif kind == "submit_task":
                submitted.add(event["id"])
            elif kind == "remove_worker":
                removals += 1
                self.assertLess(admitted[event["id"]], period)
                self.assertNotIn(event["id"], removed)
                removed.add(event["id"])
                self.assertGreaterEqual(period, 200 // 4)
                self.assertLess(period, 3 * 200 // 4)
            elif kind == "observe_acceptance":
                observations += 1
                self.assertIn(event["task"], submitted)
            elif kind == "close_period":
                period += 1
                submitted.clear()
        self.assertEqual(period, 200)
        self.assertGreater(removals, 0)
        self.assertGreater(observations, 0)
        code, lines, err = bench("sharded_k4")
        self.assertEqual(code, 0, err)
        self.assertEqual(json.loads(lines[-1])["failed"], 0)
        self.assertEqual(text_metrics(lines)["failed_op_ratio"][0], 0.0)

    def test_fails_without_engine_sources(self):
        bare = self.scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        code, lines, _ = bench("dense_k1", root=bare, env=env)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
