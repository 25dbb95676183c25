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

import json

import numpy as np

from curves import measure, parse_args, step_of, write
from fuzzygh import (
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
    steps = {(i, j): step_of(d[i, j]) for i in range(n) for j in range(i + 1, n)}
    return make_step_space(labels, steps, norm, name=name)


def main() -> int:
    args = parse_args(__doc__, "BENCH_bounds.json", max_n=max(SIZES))

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
    return write(args, entries, "valid")


if __name__ == "__main__":
    raise SystemExit(main())
