#!/usr/bin/env python3
"""Scaling curve of the two-sided GH fuzzy bounds over n.

`gh_fuzzy_bounds` runs at t = 1 on drawn n x n pairs, n = 1..6 (6 x 6 = 36
cross variables is the upper bound's limit), under the minimum, product and
Lukasiewicz norms and on standard, stationary and step spaces.  Each entry
records n, the cross variables, the wall time (the minimum over the
repeats), the `tracemalloc` peak of one more call, the relation search's
node count and both bound values.  The results go to a JSON file,
BENCH_bounds.json by default:

    PYTHONPATH=src python3 scripts/run_bounds_curve.py --max-n 6 --repeats 3
"""

import argparse
import json
import os
import platform
import time
import tracemalloc

import numpy as np

from fuzzygh import (
    Step,
    TNorm,
    check_axioms,
    gh_fuzzy_bounds,
    make_standard_space,
    make_stationary_space,
    make_step_space,
)

SIZES = (1, 2, 3, 4, 5, 6)
NORMS = ("minimum", "product", "lukasiewicz")
REPRESENTATIONS = ("standard", "stationary", "step")
T = 1.0
#: breakpoints of the step spaces, which sample t/(t+d) at the right end of each interval
STEP_BREAKS = tuple(float(b) for b in np.logspace(-1.0, 1.0, 7))


def distances(rng, n, kind):
    """Euclidean distances in [0.1, 8] with a drawn diameter; their subdominant
    ultrametric under the minimum norm, whose standard spaces satisfy the
    triangle check only then."""
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = d * (rng.uniform(1.0, 7.9) / max(d.max(), 1e-300)) + 0.1 * (1.0 - np.eye(n))
    if kind == "minimum":
        for k in range(n):  # minimax paths
            d = np.minimum(d, np.maximum(d[:, k, None], d[None, k, :]))
    return d


def similarities(rng, n, kind):
    """Values in [0.65, 0.8], where T(0.8, 0.8) < 0.65 for product and
    Lukasiewicz; under the minimum norm the max-min closure of [0.5, 0.95]."""
    if kind != "minimum":
        v = rng.uniform(0.65, 0.8, size=(n, n))
    else:
        v = rng.uniform(0.5, 0.95, size=(n, n))
    v = np.minimum(v, v.T)
    np.fill_diagonal(v, 1.0)
    if kind == "minimum":
        for k in range(n):  # maximin paths
            v = np.maximum(v, np.minimum(v[:, k, None], v[None, k, :]))
    return v


def make_space(rng, n, kind, rep, name):
    labels = [f"{name}{i}" for i in range(n)]
    norm = TNorm(kind)
    if rep == "stationary":
        return make_stationary_space(labels, similarities(rng, n, kind), norm, name=name)
    d = distances(rng, n, kind)
    if rep == "standard":
        return make_standard_space(labels, d, norm, name=name)
    samples = np.asarray(STEP_BREAKS + (2.0 * STEP_BREAKS[-1],))
    steps = {
        (i, j): Step(STEP_BREAKS, tuple(float(v) for v in samples / (samples + d[i, j])))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return make_step_space(labels, steps, norm, name=name)


def measure(call, repeats):
    """(minimum wall time in s over the repeats, tracemalloc peak in MB, result)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return best, peak / 1e6, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-n", type=int, default=max(SIZES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_bounds.json")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    entries = []
    for n in (n for n in SIZES if n <= args.max_n):
        for rep in REPRESENTATIONS:
            for kind in NORMS:
                x, y = make_space(rng, n, kind, rep, "x"), make_space(rng, n, kind, rep, "y")
                valid = check_axioms(x).passed and check_axioms(y).passed
                wall, peak, bounds = measure(lambda: gh_fuzzy_bounds(x, y, T), args.repeats)
                entries.append({"rep": rep, "norm": kind, "n": n, "t": T,
                                "variables": bounds.upper.variables, "nodes": bounds.upper.nodes,
                                "wall_s": wall, "peak_mb": peak,
                                "lower": bounds.lower.value, "upper": bounds.upper.value,
                                "lower_method": bounds.lower.method, "valid": valid})
                print(json.dumps(entries[-1]), flush=True)

    doc = {
        "harness": "scripts/run_bounds_curve.py",
        "argv": {"max_n": args.max_n, "repeats": args.repeats, "seed": args.seed},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "entries": entries,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0 if all(e["valid"] for e in entries) else 1


if __name__ == "__main__":
    raise SystemExit(main())
