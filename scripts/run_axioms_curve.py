#!/usr/bin/env python3
"""Scaling curves of the triangle check and the isometry test over n.

`check_axioms` runs on standard, step and stationary spaces of n = 20, 40,
80, 160 and 320 points under the product and Lukasiewicz norms,
`glue_constant` (and so `validate_union`) on two standard or two step spaces
of n = 10-160 points each under the same norms, with the larger diameter's
value function as the floor, and `is_isometric` on permuted standard and step
copies of 10-50 points under the product norm.  Each entry records the wall
time (the minimum over the repeats), the time to construct the spaces the
call reads (`construct_s`, the minimum over the repeats of building each
from its drawn distances, values or pair objects, summed over the spaces),
the `tracemalloc` peak of one more call, n (per side for `glue_constant`),
the size of the certification grid, the number of t-slices the call
reads: the first grid point and each one just after a breakpoint, or every
point once an entry is `Standard` (`space.scan_points`), and, from one more
call, whether `check_axioms` or `glue_constant` decided its triangle
residual from the distances alone, without the dense scan
(`space.triangle_residual`; `certified` is null for `is_isometric`), and
how many slice blocks it wrote (`slice_writes`, the `space.write_slices`
calls: a check writes its slice tensor with one, a union with one per
side, and a certified check or gluing writes none).
The results go to a JSON file, BENCH_axioms.json by default:

    PYTHONPATH=src python3 scripts/run_axioms_curve.py --max-n 320 --repeats 3
"""

import argparse
import json
import os
import platform
import time
import tracemalloc

import numpy as np

from fuzzygh import (
    FuzzySpace,
    Step,
    TNorm,
    Standard,
    check_axioms,
    glue_constant,
    is_isometric,
    make_standard_space,
    make_stationary_space,
    make_step_space,
)
from fuzzygh import gluing as gluing_module
from fuzzygh import space as space_module
from fuzzygh.space import scan_points

CHECK_SIZES = (20, 40, 80, 160, 320)
GLUE_SIZES = (10, 20, 40, 80, 160)
ISOMETRY_SIZES = (10, 20, 30, 40, 50)
#: breakpoints of the step spaces: eight distinct slices on the default grid
STEP_BREAKS = tuple(float(b) for b in np.logspace(-1.0, 1.0, 7))


def random_metric(rng, n):
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return d * (5.0 / d.max()) + 0.05 * (1.0 - np.eye(n))


def space_builder(rng, n, norm, rep, name="p", d=None):
    """A call without arguments that builds a space of n points from inputs
    drawn here; a standard or step one is built on the distances ``d``,
    drawn when None."""
    labels = [f"{name}{i}" for i in range(n)]
    if rep == "stationary":
        v = rng.uniform(0.64, 0.8, size=(n, n))  # NA1 holds for both norms
        v = np.minimum(v, v.T)
        np.fill_diagonal(v, 1.0)
        return lambda: make_stationary_space(labels, v, norm)
    d = random_metric(rng, n) if d is None else d
    if rep == "standard":
        return lambda: make_standard_space(labels, d, norm)
    pairs = step_pairs(d)
    return lambda: make_step_space(labels, pairs, norm)


def step_of(d):
    """The step equal to t/(t+d) sampled at the right end of each interval."""
    samples = np.asarray(STEP_BREAKS + (2.0 * STEP_BREAKS[-1],))
    return Step(STEP_BREAKS, tuple(float(v) for v in samples / (samples + d)))


def step_pairs(d):
    """Per-pair steps of ``step_of``."""
    n = len(d)
    return {(i, j): step_of(d[i, j]) for i in range(n) for j in range(i + 1, n)}


def scanned_slices(*spaces):
    bps = [b for sp in spaces for b in sp.breakpoints()]
    g, fresh, _ = scan_points(None, bps, all(sp.all_steplike() for sp in spaces))
    return len(g), len(fresh)


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


def counts(call):
    """(whether one more call runs no dense triangle scan, the number of
    slice blocks it writes)."""
    seen = []
    patched = [(space_module, "triangle_residual"), (space_module, "write_slices"), (gluing_module, "write_slices")]
    reals = [getattr(module, name) for module, name in patched]
    for (module, name), real in zip(patched, reals):
        setattr(module, name, lambda *args, real=real, name=name: seen.append(name) or real(*args))
    try:
        call()
    finally:
        for (module, name), real in zip(patched, reals):
            setattr(module, name, real)
    return "triangle_residual" not in seen, seen.count("write_slices")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-n", type=int, default=max(CHECK_SIZES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_axioms.json")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    entries = []
    for n in (n for n in CHECK_SIZES if n <= args.max_n):
        for rep in ("standard", "step", "stationary"):
            for kind in ("product", "lukasiewicz"):
                construct, space = best_time(space_builder(rng, n, TNorm(kind), rep), args.repeats)
                wall, peak, report = measure(lambda: check_axioms(space), args.repeats)
                grid_size, scanned = scanned_slices(space)
                certified, writes = counts(lambda: check_axioms(space))
                entries.append({"op": "check_axioms", "rep": rep, "norm": kind, "n": n,
                                "grid_size": grid_size, "scanned_slices": scanned, "wall_s": wall,
                                "construct_s": construct, "peak_mb": peak, "passed": report.passed,
                                "certified": certified, "slice_writes": writes})
                print(json.dumps(entries[-1]), flush=True)
    for n in (n for n in GLUE_SIZES if n <= args.max_n):
        for rep in ("standard", "step"):
            for kind in ("product", "lukasiewicz"):
                dx, dy = random_metric(rng, n), random_metric(rng, n)
                (cx, x), (cy, y) = (
                    best_time(space_builder(rng, n, TNorm(kind), rep, name, d), args.repeats)
                    for name, d in (("x", dx), ("y", dy))
                )
                # the larger diameter's value function lies below both t-diameters
                top = float(max(dx.max(), dy.max()))
                floor = Standard(top) if rep == "standard" else step_of(top)
                wall, peak, union = measure(lambda: glue_constant(x, y, floor), args.repeats)
                grid_size, scanned = scanned_slices(union.as_space())
                certified, writes = counts(lambda: glue_constant(x, y, floor))
                # glue_constant returns only a union that passes its check
                entries.append({"op": "glue_constant", "rep": rep, "norm": kind, "n": n,
                                "grid_size": grid_size, "scanned_slices": scanned, "wall_s": wall,
                                "construct_s": cx + cy, "peak_mb": peak, "passed": True,
                                "certified": certified, "slice_writes": writes})
                print(json.dumps(entries[-1]), flush=True)
    norm = TNorm.product()
    for n in (n for n in ISOMETRY_SIZES if n <= args.max_n):
        for rep in ("standard", "step"):
            ca, a = best_time(space_builder(rng, n, norm, rep, "a"), args.repeats)
            perm = rng.permutation(n)
            pairs = tuple(a.entry(int(perm[i]), int(perm[j])) for i in range(n) for j in range(i + 1, n))
            cb, b = best_time(lambda: FuzzySpace("b", tuple(f"b{i}" for i in range(n)), norm, pairs), args.repeats)
            wall, peak, found = measure(lambda: is_isometric(a, b), args.repeats)
            grid_size, scanned = scanned_slices(a, b)
            inverse = tuple(int(k) for k in np.argsort(perm))
            entries.append({"op": "is_isometric", "rep": rep, "norm": "product", "n": n,
                            "grid_size": grid_size, "scanned_slices": scanned, "wall_s": wall,
                            "construct_s": ca + cb, "peak_mb": peak, "passed": found == inverse,
                            "certified": None, "slice_writes": counts(lambda: is_isometric(a, b))[1]})
            print(json.dumps(entries[-1]), flush=True)

    doc = {
        "harness": "scripts/run_axioms_curve.py",
        "argv": {"max_n": args.max_n, "repeats": args.repeats, "seed": args.seed},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "entries": entries,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0 if all(e["passed"] for e in entries) else 1


if __name__ == "__main__":
    raise SystemExit(main())
