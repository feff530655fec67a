#!/usr/bin/env python3
"""Check that the workload seed reaches the inputs.

    python3 perfbench/selftest.py

For every workload, runs the benchmark briefly (--seconds 1, untraced) with
seeds 1 and 2 and checks that both runs pass every output check. For the
workloads whose inputs are generated from the seed, it also checks that the
digest of the inputs (printed by htperf as "inputs digest ...") differs
between the seeds; offline-replay replays fixed corpora, so its digest must
not change. Exits 1 on any failure.
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("spec-replay", "service-mix", "offline-replay")
SEEDED = ("spec-replay", "service-mix")
SEEDS = (1, 2)


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    digest = re.search(r"^inputs digest ([0-9a-f]+)", out.stdout, re.M)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return out.returncode, result.get("correct") is True, digest.group(1) if digest else None


def main():
    failures = 0
    for workload in WORKLOADS:
        runs = [run(workload, seed) for seed in SEEDS]
        ok = all(code == 0 and correct and digest for code, correct, digest in runs)
        distinct = runs[0][2] != runs[1][2]
        status = "ok" if ok and distinct == (workload in SEEDED) else "FAIL"
        failures += status != "ok"
        print("%-15s seeds %s: digests %s / %s, checks %s -> %s" % (
            workload, SEEDS, runs[0][2], runs[1][2],
            "pass" if ok else "fail", status))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
