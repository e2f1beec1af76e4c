#!/usr/bin/env python3
"""MANATEE's end-to-end benchmark: build the driver in Release, run one workload.

    python3 perfbench/run.py --workload vasp_cc|vasp_chain|cc_world \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
program from ../src together with the benchmark driver under .bench_build/;
later runs only rebuild what changed. Checkpoint images go to a private
directory under .bench_out/tmp, and a traced run (--trace 1) writes its spans
to .bench_out/spans_<workload>_seed<N>.json. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("vasp_cc", "vasp_chain", "cc_world")
# A measured run finishes well inside this; past it the driver is killed.
RUN_TIMEOUT_S = 170


def build() -> Path:
    if not (ROOT / "src" / "split" / "engine.hpp").is_file():
        sys.exit(f"perfbench: no MANATEE sources under {ROOT / 'src'}")
    # Stdout of the build goes to stderr: the result must stay the last
    # line of this script's standard output.
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "manatee_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--perturb", choices=("fingerprint", "sum", "hop"),
                    help="corrupt one correctness check (self-tests only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans_{args.workload}_seed{args.seed}.json")]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: driver exited with {proc.returncode}")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
