#!/usr/bin/env python3
"""Scaling curve of the ratio-condition check over the family size.

`check_ratio_condition` runs at t = 1, eps = 0.1 on product-norm families
of standard spaces: count = 2..64 spaces of size = 2..10 points, each
point set registered as its own net, on the default grid of 32 scales
above t (standard spaces have no breakpoints to add).  The ratio condition
holds identically for standard values, so every check must pass.  Each
entry records the count, the net size, the scales, the floats of one row
of the comparison (count * size^2 * scales) and the rows one block takes,
the wall time (the minimum over the repeats) and the `tracemalloc` peak of
one more call.  The results go to a JSON file, BENCH_ratio.json by default:

    PYTHONPATH=src python3 scripts/run_ratio_curve.py --max-count 64 --max-size 10 --repeats 3
"""

import json

import numpy as np

import fuzzygh.space
from curves import measure, parse_args, write
from fuzzygh import SequenceFamily, TNorm, check_ratio_condition, make_standard_space, register_nets
from fuzzygh.sequences import default_ratio_grid

COUNTS = (2, 4, 8, 16, 32, 64)
SIZES = (2, 4, 6, 8, 10)
T, EPS = 1.0, 0.1


def distances(rng, n):
    """Euclidean distances of n planar points, rescaled into [0.1, 6]."""
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return d * (rng.uniform(1.0, 5.9) / max(d.max(), 1e-300)) + 0.1 * (1.0 - np.eye(n))


def main() -> int:
    args = parse_args(__doc__, "BENCH_ratio.json", max_count=max(COUNTS), max_size=max(SIZES))

    rng = np.random.default_rng(args.seed)
    entries = []
    for count in (c for c in COUNTS if c <= args.max_count):
        for size in (n for n in SIZES if n <= args.max_size):
            labels = [f"p{i}" for i in range(size)]
            family = SequenceFamily(tuple(
                make_standard_space(labels, distances(rng, size), TNorm.product(), name=f"X{k + 1}")
                for k in range(count)
            ))
            register_nets(family, T, EPS, indices=[range(size)] * count)
            scales = len([s for s in default_ratio_grid(family, T) if s > T])
            row = count * size * size * scales
            wall, peak, report = measure(lambda: check_ratio_condition(family, T, EPS), args.repeats)
            entries.append({"count": count, "size": size, "scales": scales, "row_floats": row,
                            "rows_per_block": max(1, fuzzygh.space._BLOCK // row),
                            "wall_s": wall, "peak_mb": peak,
                            "passed": report.passed, "worst_margin": report.worst_margin})
            print(json.dumps(entries[-1]), flush=True)
    return write(args, entries, "passed")


if __name__ == "__main__":
    raise SystemExit(main())
