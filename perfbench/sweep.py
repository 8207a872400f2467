#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarize them.

    python3 perfbench/sweep.py --runs 10 --out perfbench/results/baseline.json

Runs ``run.py`` once per (workload, seed) with tracing off, one process
at a time, then once per workload with tracing on (``--trace-runs``).
For every end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  Each spread is judged
against a third of the metric's bound in BENCHMARK.json; only the
workloads BENCHMARK.json lists count toward the exit status.  The traced
runs give the per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = [w["name"] for w in spec["workloads"]]
    names = args.workloads or gated
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for name in names:
        results, provenance = [], None
        for seed in seeds:
            provenance, result = _run(spec, name, seed, 0)
            results.append(result)
            print("%s seed %d: %s" % (name, seed, json.dumps(result)), flush=True)
        entry = {
            "gated": name in gated,
            "provenance": provenance,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in results])
            stats["bound"] = bound
            stats["steady"] = stats["spread"] < bound / 3
            steady &= stats["steady"] or name not in gated
            entry["end_to_end"][metric] = stats
            print("  %-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  bound %.2f%s"
                  % (metric, stats["median"], stats["q1"], stats["q3"],
                     stats["spread"], bound, "" if stats["steady"] else "  NOT STEADY"),
                  flush=True)
        traced = []
        for seed in seeds[: args.trace_runs]:
            _, result = _run(spec, name, seed, 1)
            traced.append({"seed": seed, "correct": result["correct"],
                           "metrics": {k: v["value"]
                                       for k, v in result["metrics"].items()}})
        if traced:
            entry["per_layer"] = traced
        report["workloads"][name] = entry
    report["steady"] = steady
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
