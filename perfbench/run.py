#!/usr/bin/env python3
"""Build and run the HeapTherapy+ benchmark.

    python3 perfbench/run.py --workload <spec-replay|service-mix|offline-replay>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--record <file.jsonl>]

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the repository's src/ libraries) into
.bench_build/; later runs only rebuild what changed. The build log goes to
stderr, so the last line of stdout is always htperf's JSON result. Traced
runs (--trace 1) write their spans to .bench_build/traces/.

--record appends one line {"workload", "seed", "trace", "result"} to the
given file; perfbench/compare.py compares two such files.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORKLOADS = ("spec-replay", "service-mix", "offline-replay")


def build():
    """Configures (once) and builds htperf; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no src/ next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return None
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "htperf", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return BUILD / "htperf"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", help="append this run's result to a JSONL file")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-dir", str(traces)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: htperf printed no result (exit %d)" % run.returncode,
              file=sys.stderr)
        return run.returncode or 1
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
