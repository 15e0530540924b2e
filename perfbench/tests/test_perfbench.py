#!/usr/bin/env python3
"""Self-checks of the benchmark itself (no vacuous pass).

    python3 perfbench/tests/test_perfbench.py

- a clean run passes and records nproc, compiler, build type and seed;
- a corrupted pinned digest is reported as a failed operation;
- a tampered traced replay is reported as a failed operation;
- the one command lists every metric of the benchmark with its unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = [sys.executable, os.path.join(BENCH, "run.py")]

# Every metric name the benchmark's definition names, with its unit.
DEFINED_METRICS = {
    "wall_s": "s", "jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
    "failed_frac": "ratio", "paper_err_pct": "%",
    "xla.busy_s": "s", "xla.cold_obs_excess_s": "s",
    "kernels.cpu.busy_s": "s", "kernels.omp-target.busy_s": "s",
    "sim.busy_s": "s", "sim.calls": "count",
    "core.context_s": "s", "core.pipeline_self_s": "s",
    "core.plan_cache_hits": "count", "core.plan_cache_misses": "count",
    "async.graph_self_s": "s",
    "mpisim.job_ms_p50": "ms", "mpisim.job_ms_p90": "ms",
    "mpisim.job_samples": "count", "mpisim.compose_s": "s",
    "comm.busy_s": "s", "comm.calls": "count",
    "tune.evaluations": "count", "tune.cache_hits": "count", "tune.self_s": "s",
    "serve.jobs_admitted": "count", "serve.library_hits": "count",
    "serve.self_s": "s", "fault.events": "count",
    "obs.spans_per_job": "count", "obs.trace_overhead_frac": "ratio",
    "host.sys_s": "s", "host.minflt": "count",
}
for k in ("pointing_detector", "pixels_healpix", "stokes_weights_IQU",
          "scan_map", "noise_weight", "build_noise_weighted",
          "template_offset_add_to_signal", "template_offset_project_signal"):
    DEFINED_METRICS[f"xla.{k}.busy_s"] = "s"


def scratch_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.join(ROOT, target, "selftest")
    os.makedirs(d, exist_ok=True)
    return d


def bench(*args):
    """Run one benchmark command; returns (exit code, env, result)."""
    p = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    env = json.loads(lines[-2])["perfbench_env"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, env, result


class PerfbenchSelfCheck(unittest.TestCase):
    def test_clean_run_passes_and_records_provenance(self):
        rc, env, result = bench("--workload", "serve_day", "--seed", "4",
                                "--seconds", "1", "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        for key in ("nproc", "compiler", "build_type", "seed", "model_seeds"):
            self.assertIn(key, env)
        self.assertEqual(env["seed"], 4)
        self.assertGreaterEqual(env["nproc"], 1)
        self.assertNotEqual(env["build_type"], "unknown")

    def test_corrupted_digest_is_a_failure(self):
        src = os.path.join(BENCH, "digests.tsv")
        bad = os.path.join(scratch_dir(), "corrupted_digests.tsv")
        with open(src) as f, open(bad, "w") as g:
            for line in f:
                cols = line.rstrip("\n").split("\t")
                if cols[:3] == ["2023", "serve_day", "serve/day"]:
                    flipped = "0" if cols[3][0] != "0" else "1"
                    cols[3] = flipped + cols[3][1:]
                    line = "\t".join(cols) + "\n"
                g.write(line)
        rc, _, result = bench("--workload", "serve_day", "--seed", "0",
                              "--seconds", "1", "--trace", "0",
                              "--digests", bad)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_tampered_replay_is_a_failure(self):
        rc, env, result = bench("--workload", "serve_day", "--seed", "0",
                                "--seconds", "1", "--trace", "1",
                                "--tamper-replay")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("products" in f for f in env["failures"]))
        self.assertGreater(result["metrics"]["failed_frac"]["value"], 0.0)

    def test_lists_every_metric_with_its_unit(self):
        p = subprocess.run(RUN + ["--list-metrics"], cwd=ROOT,
                           capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0)
        listed = {}
        for line in p.stdout.splitlines():
            kind, name, unit = line.split()[:3]
            listed[name] = (kind, unit)
        for name, unit in DEFINED_METRICS.items():
            self.assertIn(name, listed)
            self.assertEqual(listed[name][1], unit, name)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                self.assertEqual(listed.get(m["name"]), (kind, m["unit"]),
                                 m["name"])
        self.assertEqual(
            len(listed), len(spec["end_to_end"]) + len(spec["per_layer"]))


if __name__ == "__main__":
    unittest.main()
