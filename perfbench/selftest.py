#!/usr/bin/env python3
"""Output self-test of the host-time benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, in order:
  1. BENCHMARK.json follows the benchmark contract (keys, name and unit
     syntax, bounds, the setup_s metric).
  2. Every workload, run at the tiny size untraced and traced, prints a
     result line with exactly the contract's keys, no failed check, and
     exactly the declared metrics (every end-to-end metric untraced,
     every per-layer metric traced), each with its declared unit and a
     finite value; end-to-end values are never 0.
  3. In a directory holding only BENCHMARK.json and the benchmark's own
     files, run.py exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}")
    return ok


def check_contract(bench):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"},
           "BENCHMARK.json has the contract's keys")
    cmd = bench["command"]
    expect(isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
           all(isinstance(c, str) and len(c) <= 200 for c in cmd),
           "command is a list of at most 32 short strings")
    paths = bench["paths"]
    expect(1 <= len(paths) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in
        p.split("/") for p in paths), "paths are relative and well formed")
    expect(isinstance(bench["run_seconds"], int) and
           1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    names = set()
    wl = bench["workloads"]
    expect(2 <= len(wl) <= 8, "2 to 8 workloads")
    for w in wl:
        expect(set(w) == {"name", "why"} and NAME.match(w["name"]) and
               len(w["why"]) <= 200 and "\n" not in w["why"],
               f"workload {w.get('name')} is well formed")
        names.add(w["name"])
    for key, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                      ("per_layer", {"name", "unit", "better"})):
        for m in bench[key]:
            ok = (set(m) == keys and NAME.match(m["name"]) and
                  UNIT.match(m["unit"]) and
                  m["better"] in ("lower", "higher") and
                  m["name"] not in names)
            if key == "end_to_end":
                ok = ok and 0 < m["bound"] <= 0.25
            expect(ok, f"{key} metric {m.get('name')} is well formed")
            names.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower" and
           setup[0]["bound"] == max(m["bound"] for m in
                                    bench["end_to_end"]),
           "setup_s is present, in s, lower-better, with the largest bound")
    expect(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json <= 64 KiB")


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def check_output(bench, workload, trace):
    declared = {m["name"]: m["unit"] for m in
                bench["per_layer" if trace else "end_to_end"]}
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if not expect(proc.returncode == 0, f"{label} exits 0"):
        return
    res = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys")
    expect(res["correct"] is True and res["failed"] == 0 and
           res["attempted"] >= 1, f"{label}: correct, no failed check")
    for name, m in res["metrics"].items():
        expect(name in declared, f"{label}: {name} is declared")
        expect(m.get("unit") == declared.get(name),
               f"{label}: {name} unit {m.get('unit')}")
        v = m.get("value")
        expect(isinstance(v, (int, float)) and math.isfinite(v),
               f"{label}: {name} value {v!r} is finite")
        if not trace:
            expect(v != 0, f"{label}: end-to-end {name} is not 0")
    want = set(declared)
    expect(set(res["metrics"]) == want,
           f"{label}: metrics {sorted(set(res['metrics']) ^ want)} "
           "missing or undeclared")


def check_stripped():
    """run.py must fail cleanly without the repository's sources."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(HERE, SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SCRATCH, "fleet_replay", 0)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    expect(proc.returncode != 0 and '"metrics"' not in last,
           "stripped directory: non-zero exit and no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_contract(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_output(bench, w["name"], trace)
    check_stripped()
    print("selftest: " + ("PASS" if not failures else
                          f"{len(failures)} check(s) failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
