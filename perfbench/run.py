#!/usr/bin/env python3
"""Run one benchmark workload as a closed loop and print one JSON result.

    python3 perfbench/run.py --workload offline-8 --seed 1 --seconds 20 --trace 0

Run from the repository root.  One caller in one process starts the
next operation only after the previous one returned, and stops before
an operation that would end past ``--seconds`` (at least one always
runs).  Every output is checked; an operation that raises or fails its
check counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
layers' public functions, alternates untraced and traced operations,
reports the per-layer metrics with the tracing overhead, and writes the
spans to ``perfbench/out/``.  The last line of standard output is the
result; the line before it is the provenance record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

BLAS_THREADS = 1
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Set-up repeats until it has run MIN_SETUPS times and SETUP_BUDGET_S
# seconds; setup_s is the median.
MIN_SETUPS = 3
SETUP_BUDGET_S = 3.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads():
    """Cap BLAS threads; must run before numpy is imported."""
    for name in THREAD_ENV_VARS:
        os.environ[name] = str(BLAS_THREADS)


def _git_commit():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_library(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        return "unknown"


def _provenance(args):
    import numpy as np
    import scipy

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(np),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Loop:
    """Closed-loop operation runner with failure accounting."""

    def __init__(self, workload, state, refs):
        self.workload = workload
        self.state = state
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.op_roots = []

    def run_once(self, tracer=None) -> float:
        """One timed operation followed by its (untimed) output check.

        With a tracer, the operation alone runs traced, under an "op" root
        span appended to ``op_roots``.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with tracer.root("op") if tracer else contextlib.nullcontext() as root:
                out = self.workload.op(self.state)
        except Exception:
            seconds = time.perf_counter() - t0
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return seconds
        finally:
            if tracer is not None:
                tracer.uninstall()
                self.op_roots.append(root)
        seconds = time.perf_counter() - t0
        try:
            errors = self.workload.check(self.state, self.refs, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            errors = ["check raised"]
        if errors:
            self.failed += 1
            for err in errors:
                print("check failed (%s): %s" % (self.workload.name, err),
                      file=sys.stderr)
        return seconds


def _until(seconds, step):
    """Call step() (returning its own duration) until the next call would
    end past ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        durations.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return durations


def _setup(workload, cfg):
    times = []
    while len(times) < MIN_SETUPS or sum(times) < SETUP_BUDGET_S:
        state = None  # hold one set-up's state at a time, as the program does
        t0 = time.perf_counter()
        state = workload.setup(cfg)
        times.append(time.perf_counter() - t0)
    return state, times


def run_untraced(workload, cfg, seconds):
    state, setup_times = _setup(workload, cfg)
    loop = Loop(workload, state, workload.references(state))
    op_times = _until(seconds, loop.run_once)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s": (statistics.median(op_times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": (1.0 - loop.failed / loop.attempted, "ratio"),
    }
    extra = {"setups": len(setup_times), "setup_times": setup_times,
             "op_times": op_times}
    return loop, metrics, extra


def run_traced(workload, cfg, seconds):
    from layers import PER_LAYER, absent_metrics, inner_self_seconds, layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.root("setup") as setup_root:
        state = workload.setup(cfg)
    tracer.uninstall()
    loop = Loop(workload, state, workload.references(state))

    untraced, traced = [], []

    def pair():
        t0 = time.perf_counter()
        untraced.append(loop.run_once())
        traced.append(loop.run_once(tracer))
        return time.perf_counter() - t0

    _until(seconds, pair)
    op_roots = loop.op_roots
    n_cotree = state["problem"].gauge.cotree.size
    values = layer_metrics(setup_root, op_roots, n_cotree)
    op_untraced = statistics.median(untraced)
    layer_self = statistics.median(inner_self_seconds(r) for r in op_roots)
    values.update({
        "trace.op_traced_s": statistics.median(traced),
        "trace.op_untraced_s": op_untraced,
        "trace.overhead_ratio": statistics.median(traced) / op_untraced,
        "trace.layer_self_s": layer_self,
        "trace.coverage_ratio": layer_self / op_untraced,
    })
    absent = absent_metrics(tracer.present_spans, tracer.count_errors)
    metrics = {name: (0.0 if name in absent else float(values[name]), unit)
               for name, (unit, _) in PER_LAYER.items()}
    extra = {"absent_metrics": absent, "absent_hooks": tracer.absent_hooks,
             "spans": tracer.to_records()}
    return loop, metrics, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxwell_rb", "__init__.py")):
        print("error: package sources not found under %s; run from a full "
              "checkout" % SRC, file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [SRC, HERE]
    import maxwell_rb
    if not os.path.abspath(maxwell_rb.__file__).startswith(SRC + os.sep):
        print("error: imported maxwell_rb from %s, not from this checkout"
              % maxwell_rb.__file__, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    cfg = workload.config(args.seed)
    runner = run_traced if args.trace else run_untraced
    loop, metrics, extra = runner(workload, cfg, args.seconds)

    provenance = _provenance(args)
    provenance["ops_attempted"] = loop.attempted
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"provenance": provenance, **extra}, fh)
        extra = {k: v for k, v in extra.items() if k != "spans"}
    print(json.dumps({"provenance": provenance, **extra}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
