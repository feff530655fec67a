#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py <base.jsonl> <change.jsonl> [--layers]

Each file holds lines written by `run.py --record`. For every workload and
end-to-end metric this prints both sides' median and quartiles, the change,
and a verdict against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the base's by more than the bound
  unresolved  the base's own spread (quartile distance / median) exceeds the bound
  better      better by more than the base's own spread
  same        otherwise

Each workload's first row gives failed/attempted operations on each side.
Its verdict is `failed` when any of the change's runs has correct == false
or the change fails a larger share of its operations than the base.
The tracing-overhead row compares trace.overhead_frac from traced runs.
--layers also prints every per-layer metric's medians (no verdict).
Exits 1 when any metric is worse or any workload failed.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    """({(workload, trace): {metric: [values]}},
    {workload: [incorrect runs, attempted, failed]}) from one result file."""
    runs, checks = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            result = rec["result"]
            tally = checks.setdefault(rec["workload"], [0, 0, 0])
            tally[0] += result["correct"] is not True
            tally[1] += result["attempted"]
            tally[2] += result["failed"]
            metrics = runs.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return runs, checks


def fail_share(tally):
    return tally[2] / tally[1] if tally[1] else 0.0


def check_row(base, change):
    """Prints the failed/attempted row; returns True when the change failed."""
    b, c = base or [0, 0, 0], change or [0, 0, 0]
    failed = c[0] > 0 or fail_share(c) > fail_share(b)
    print("  %-14s %-6s base %d/%d, %d incorrect runs | change %d/%d, %d incorrect runs %s" % (
        "failed", "ops", b[2], b[1], b[0], c[2], c[1], c[0],
        "failed" if failed else "ok"))
    return failed


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g] n=%d" % (med, q1, q3, len(values))


def verdict(base, change, better, bound):
    q1, med, q3 = quartiles(base)
    spread = (q3 - q1) / med if med else float("inf")
    change_med = statistics.median(change)
    rel = (change_med - med) / med if med else 0.0
    worse_by = rel if better == "lower" else -rel
    if worse_by > bound:
        return "worse", rel
    if spread > bound:
        return "unresolved", rel
    if -worse_by > spread:
        return "better", rel
    return "same", rel


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--layers", action="store_true", help="print per-layer medians")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_checks), (change, change_checks) = load(args.base), load(args.change)
    worse = 0
    for workload in sorted({w for w, _ in base} | {w for w, _ in change}):
        print("== %s ==" % workload)
        worse += check_row(base_checks.get(workload), change_checks.get(workload))
        b, c = base.get((workload, 0), {}), change.get((workload, 0), {})
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b or name not in c:
                print("  %-14s missing on one side" % name)
                continue
            v, rel = verdict(b[name], c[name], m["better"], m["bound"])
            worse += v == "worse"
            print("  %-14s %-6s base %s | change %s | %+.2f%% %s (bound %g)"
                  % (name, m["unit"], fmt(b[name]), fmt(c[name]), rel * 100, v, m["bound"]))
        bt, ct = base.get((workload, 1), {}), change.get((workload, 1), {})
        if "trace.overhead_frac" in bt and "trace.overhead_frac" in ct:
            print("  %-14s %-6s base %s | change %s" % (
                "tracing", "ratio", fmt(bt["trace.overhead_frac"]),
                fmt(ct["trace.overhead_frac"])))
        if args.layers:
            for m in spec["per_layer"]:
                name = m["name"]
                if name in bt and name in ct:
                    print("    %-28s %-5s base %.6g | change %.6g" % (
                        name, m["unit"], statistics.median(bt[name]),
                        statistics.median(ct[name])))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
