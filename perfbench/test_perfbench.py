#!/usr/bin/env python3
"""Self-tests of the benchmark: every correctness check can fail.

    python3 perfbench/test_perfbench.py      # from the root of a checkout

Each perturbed run corrupts one check on purpose (a wrong reference
fingerprint, a wrong closed-form sum, a planned hop that cannot fire) and
must report every operation as failed; the clean runs must report none, and
print exactly the metrics BENCHMARK.json names. Takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py", "--seed", "5", "--seconds", "0.1"]


def bench(workload, trace=0, perturb=None, env=None):
    cmd = RUN + ["--workload", workload, "--trace", str(trace)]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=True,
                          env=None if env is None else dict(os.environ, **env))
    # A failed run keeps its image directory for inspection; these failures
    # are planted, so drop it.
    for kept in re.findall(r"images kept in (\S+)", proc.stderr):
        shutil.rmtree(kept, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checks(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def assert_all_failed(self, result):
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(result["correct"])

    def assert_clean(self, result, metrics):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in metrics))
        units = {m["name"]: m["unit"] for m in metrics}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])

    def test_perturbed_fingerprint_fails(self):
        self.assert_all_failed(bench("vasp_cc", perturb="fingerprint"))

    def test_wrong_expected_sum_fails(self):
        self.assert_all_failed(bench("cc_world", perturb="sum"))

    def test_missing_hop_fails(self):
        self.assert_all_failed(bench("vasp_chain", perturb="hop"))

    def test_clean_runs_pass(self):
        for workload in ("vasp_cc", "vasp_chain", "cc_world"):
            with self.subTest(workload=workload):
                result = bench(workload)
                self.assert_clean(result, self.spec["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_prints_layers_and_spans(self):
        result = bench("cc_world", trace=1)
        self.assert_clean(result, self.spec["per_layer"])
        spans = json.loads((ROOT / ".bench_out" / "spans_cc_world_seed5.json").read_text())
        names = {e["name"] for e in spans["traceEvents"]}
        self.assertLessEqual({"workload", "engine", "run", "app", "allreduce", "barrier"}, names)

    def test_environment_is_ignored(self):
        # vasp_cc runs on the program's default backend, threads, which
        # makes no fiber dispatches; a MANATEE_SCHED that got through would.
        result = bench("vasp_cc", trace=1, env={"MANATEE_SCHED": "fibers"})
        self.assert_clean(result, self.spec["per_layer"])
        self.assertEqual(result["metrics"]["sched.dispatches"]["value"], 0)

    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            proc = subprocess.run(RUN + ["--workload", "vasp_cc", "--trace", "0"], cwd=tmp,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
