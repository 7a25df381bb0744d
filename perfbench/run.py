#!/usr/bin/env python3
"""Build and run one workload of the host-time benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_replay --seed 7 \
        --seconds 25 --trace 0

The library and the benchmark program are built from source into
.bench_build/perfbench (Release). The program's own report goes to
stdout; the last stdout line is the result object

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1, which also writes a Chrome trace next to the
build). Build output goes to stderr. The exit code is 0 only for a
complete, correct run.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("deepbench_sweep", "fleet_replay", "fleet_stream_chaos")
# A run measures for --seconds after set-up and one warm-up pass; the
# benchmark binary gets this long in all before it is stopped.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the benchmark binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_result(line):
    """Parse and validate the binary's result line; return the object."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON ({e}): {line!r}", 1)
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        fail(f"result has the wrong keys: {line!r}", 1)
    if not isinstance(res["correct"], bool):
        fail("'correct' is not a boolean", 1)
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) \
                or res[k] < 0:
            fail(f"'{k}' is not a whole number", 1)
    if res["attempted"] < 1:
        fail("no operation was attempted", 1)
    metrics = res["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        fail("no metrics reported", 1)
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            fail(f"metric {name} is malformed: {m!r}", 1)
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            fail(f"metric {name} has a non-finite value {v!r}", 1)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: small inputs, same checks")
    args = ap.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    build()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed % (1 << 64)),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1]:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    res = check_result(lines[-1])
    print(json.dumps(res))
    return 0 if res["correct"] and res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
