"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written the slow, obvious way and shares no
code path with the implementations under test.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def classical_hausdorff(dist: np.ndarray, a_idx, b_idx) -> float:
    """max of the two directed max-min distances between index sets."""
    fwd = max(min(dist[i, j] for j in b_idx) for i in a_idx)
    bwd = max(min(dist[i, j] for i in a_idx) for j in b_idx)
    return max(fwd, bwd)


def metric_cover_number(dist: np.ndarray, radius: float) -> int:
    """Minimum number of strict open balls covering all points, by enumeration."""
    n = dist.shape[0]
    for k in range(1, n + 1):
        for centers in combinations(range(n), k):
            if all(any(dist[c, x] < radius for c in centers) for x in range(n)):
                return k
    raise AssertionError("the full point set always covers")


def na1_worst_residual(space, norm_fn, ts) -> float:
    """Triple-loop evaluation of the pointwise triangle residual."""
    worst = np.inf
    n = space.n
    for t in ts:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = space.value(i, k, t)
                    rhs = norm_fn(space.value(i, j, t), space.value(j, k, t))
                    worst = min(worst, lhs - rhs)
    return worst


def na1_first_witness(space, norm_fn, ts) -> tuple[float, tuple[int, int, int, float]]:
    """Worst triangle residual and its first (i, j, k, t) in (t, i, j, k) loop order."""
    n = space.n
    worst, witness = np.inf, None
    for t in ts:
        m = [[space.value(i, j, t) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r = m[i][k] - norm_fn(m[i][j], m[j][k])
                    if r < worst:
                        worst, witness = r, (i, j, k, t)
    return worst, witness


def first_triangle_violation(d: np.ndarray, tol: float = 1e-9):
    """First (i, j, k) in loop order with d[i, k] > d[i, j] + d[j, k] + tol, or None."""
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i, k] > d[i, j] + d[j, k] + tol:
                    return i, j, k
    return None


def minimal_net_size(space, t: float, eps: float) -> int:
    """Exhaustive minimal net size with strict ball membership."""
    n = space.n
    threshold = 1.0 - eps
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            if all(
                any(space.value(x, y, t) > threshold + 1e-12 for y in subset)
                for x in range(n)
            ):
                return k
    raise AssertionError("the full point set is always a net")


def random_metric(rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """A genuine finite metric with off-diagonal distances in [lo, hi].

    Euclidean distances of random points, then scaled and shifted; adding a
    positive constant to a metric keeps the triangle inequality.
    """
    if n == 1:
        return np.zeros((1, 1))
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    dmax = d.max()
    scale = (hi - lo) / dmax if dmax > 0 else 1.0
    d = d * scale + lo
    np.fill_diagonal(d, 0.0)
    return d


def random_safe_stationary_values(rng: np.random.Generator, n: int, lo: float = 0.64, hi: float = 0.8) -> np.ndarray:
    """Symmetric values in a band where NA1 holds for product and Lukasiewicz.

    With values in [lo, hi], hi*hi <= lo gives product-norm NA1 and
    2*hi - 1 <= lo gives the Lukasiewicz one; [0.64, 0.8] satisfies both.
    """
    v = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v[i, j] = v[j, i] = rng.uniform(lo, hi)
    return v
