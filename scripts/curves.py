"""What the scaling-curve scripts (run_*_curve.py) share: their command line,
the step spaces' breakpoints, the timing of a call and the JSON document the
results go to."""

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc

import numpy as np

from fuzzygh import Step

#: breakpoints of the step spaces: eight distinct slices on the default grid
STEP_BREAKS = tuple(float(b) for b in np.logspace(-1.0, 1.0, 7))


def parse_args(doc, out, **limits):
    """The command line of a curve script: one integer flag per size limit
    (``max_n=320`` gives ``--max-n``), then ``--repeats``, ``--seed`` and
    ``--out`` (default ``out``)."""
    parser = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    for name, default in limits.items():
        parser.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=out)
    return parser.parse_args()


def step_of(d):
    """The step equal to t/(t+d) sampled at the right end of each interval."""
    samples = np.asarray(STEP_BREAKS + (2.0 * STEP_BREAKS[-1],))
    return Step(STEP_BREAKS, tuple(float(v) for v in samples / (samples + d)))


def best_time(call, repeats):
    """(minimum wall time in s over the repeats, result)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure(call, repeats):
    """(minimum wall time in s over the repeats, tracemalloc peak in MB, result)."""
    best, result = best_time(call, repeats)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return best, peak / 1e6, result


def write(args, entries, ok):
    """Write the entries, the command line and the machine to ``args.out``,
    and return the exit code: 0 when every entry's ``ok`` field is true."""
    doc = {
        "harness": f"scripts/{os.path.basename(sys.argv[0])}",
        "argv": {k: v for k, v in vars(args).items() if k != "out"},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "entries": entries,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0 if all(e[ok] for e in entries) else 1
