#!/usr/bin/env python3
"""Survey the gap between the realized lower bound and the upper bound of the
GH fuzzy distance on random small space pairs.

The upper bound is the exact supremum of the single-scale relaxation, which
ignores cross-scale coupling, so its tightness is unknown; this experiment
reports the observed gaps rather than closing them.

    PYTHONPATH=src python3 scripts/run_bound_gap_survey.py --pairs 100 --seed 0
"""

import argparse

import numpy as np

from fuzzygh import TNorm, gh_fuzzy_lower_bound, gh_fuzzy_upper_bound, make_standard_space, make_stationary_space


def random_metric(rng, n, lo=0.1, hi=8.0):
    if n == 1:
        return np.zeros((1, 1))
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    d = d * (hi - lo) / d.max() + lo
    np.fill_diagonal(d, 0.0)
    return d


def random_space(rng, n, norm):
    labels = [f"p{i}" for i in range(n)]
    if rng.random() < 0.5:
        return make_standard_space(labels, random_metric(rng, n), norm)
    v = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v[i, j] = v[j, i] = rng.uniform(0.64, 0.8)
    return make_stationary_space(labels, v, norm)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--max-points", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    norm = TNorm.product()
    gaps = []
    for _ in range(args.pairs):
        x = random_space(rng, int(rng.integers(1, args.max_points + 1)), norm)
        y = random_space(rng, int(rng.integers(1, args.max_points + 1)), norm)
        t = float(rng.uniform(0.2, 3.0))
        lower = gh_fuzzy_lower_bound(x, y, t)
        upper = gh_fuzzy_upper_bound(x, y, t)
        assert lower.value <= upper.value, "sandwich violated"
        gaps.append(upper.value - lower.value)

    gaps = np.asarray(gaps)
    print(f"pairs:        {args.pairs}")
    print(f"gap mean:     {gaps.mean():.4f}")
    print(f"gap median:   {np.median(gaps):.4f}")
    print(f"gap max:      {gaps.max():.4f}")
    print(f"gap < 0.05:   {(gaps < 0.05).mean() * 100:.0f}%")
    print(f"gap < 0.20:   {(gaps < 0.20).mean() * 100:.0f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
