"""Reference computations for the benchmark's output checks.

Nothing here calls fuzzygh's own checking code.  Pair values are evaluated
from the documented closed forms of the three value-function
representations, and the triangle, Hausdorff, relaxation and cover checks
are plain loops or exhaustive enumerations.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

DEFAULT_GRID = np.logspace(-3.0, 3.0, 64)
TOL = 1e-12


def tnorm(kind: str, a, b):
    """The three built-in t-norms on floats or arrays."""
    if kind == "product":
        return a * b
    if kind == "minimum":
        return np.minimum(a, b)
    if kind == "lukasiewicz":
        return np.maximum(a + b - 1.0, 0.0)
    raise ValueError(f"unknown t-norm {kind!r}")


def evaluate(f, ts) -> np.ndarray:
    """Values of a value function at positive scales, from its closed form."""
    ts = np.asarray(ts, dtype=float)
    kind = type(f).__name__
    if kind == "Standard":
        return ts / (ts + f.d)
    if kind == "Stationary":
        return np.full(ts.shape, f.c)
    if kind == "Step":
        # value v_k on (b_{k-1}, b_k]
        idx = np.searchsorted(np.asarray(f.breakpoints, dtype=float), ts, side="left")
        return np.asarray(f.values, dtype=float)[idx]
    raise ValueError(f"unknown value function {f!r}")


def breakpoints(f) -> tuple:
    return tuple(getattr(f, "breakpoints", ()))


def union_entries(u):
    """(n, entry) for a union metric: entry(i, j) is the value function of the pair."""
    nl = u.left.n
    n = nl + u.right.n

    def entry(i: int, j: int):
        if i < nl and j < nl:
            return u.left.entry(i, j)
        if i >= nl and j >= nl:
            return u.right.entry(i - nl, j - nl)
        return u.cross[i][j - nl] if i < nl else u.cross[j][i - nl]

    return n, entry


def check_grid(fns, extra=()) -> np.ndarray:
    """The default log grid merged with every breakpoint, a tail point and extras."""
    bps = sorted({b for f in fns for b in breakpoints(f)})
    pts = set(DEFAULT_GRID.tolist()) | set(bps) | {float(e) for e in extra}
    if bps:
        pts.add(bps[-1] * 1.5 + 1.0)
    return np.asarray(sorted(p for p in pts if p > 0.0))


def values_on_grid(n: int, entry, ts) -> np.ndarray:
    """(T, n, n) array of pair values, diagonal 1."""
    V = np.ones((len(ts), n, n))
    for i in range(n):
        for j in range(i + 1, n):
            V[:, i, j] = V[:, j, i] = evaluate(entry(i, j), ts)
    return V


def worst_triangle(V: np.ndarray, kind: str):
    """Minimum of V[t, i, k] - T(V[t, i, j], V[t, j, k]), looping over the middle index j.

    Returns (residual, (i, j, k, t_position)).
    """
    best, where = np.inf, None
    for j in range(V.shape[1]):
        R = V - tnorm(kind, V[:, :, j, None], V[:, None, j, :])
        pos = int(np.argmin(R))
        if R.flat[pos] < best:
            tpos, i, k = np.unravel_index(pos, R.shape)
            best, where = float(R.flat[pos]), (int(i), j, int(k), int(tpos))
    return best, where


def triangle_residual_at(V: np.ndarray, kind: str, i: int, j: int, k: int, tpos: int) -> float:
    return float(V[tpos, i, k] - tnorm(kind, V[tpos, i, j], V[tpos, j, k]))


def hausdorff(cross: np.ndarray) -> float:
    """Hausdorff similarity between the two parts from the cross values at one scale."""
    return float(min(cross.max(axis=1).min(), cross.max(axis=0).min()))


def relaxation_grid_max(mx: np.ndarray, my: np.ndarray, kind: str, steps: int = 20) -> float:
    """Exhaustive maximum, over cross matrices on the grid {0, 1/steps, ..., 1}, of the
    Hausdorff objective subject to every triangle instance of the union at one scale.

    Grid points that satisfy the constraints exactly are admissible at that
    scale, so this maximum is a lower bound on the relaxation's supremum.
    """
    nx, ny = len(mx), len(my)
    g = np.linspace(0.0, 1.0, steps + 1)
    c = np.stack(np.meshgrid(*([g] * (nx * ny)), indexing="ij"), -1).reshape(-1, nx, ny)
    ok = np.ones(len(c), dtype=bool)
    for p, p2 in product(range(nx), repeat=2):
        if p == p2:
            continue
        for q in range(ny):
            ok &= tnorm(kind, c[:, p, q], c[:, p2, q]) <= mx[p, p2] + TOL
            ok &= c[:, p, q] >= tnorm(kind, mx[p, p2], c[:, p2, q]) - TOL
    for q, q2 in product(range(ny), repeat=2):
        if q == q2:
            continue
        for p in range(nx):
            ok &= tnorm(kind, c[:, p, q], c[:, p, q2]) <= my[q, q2] + TOL
            ok &= c[:, p, q] >= tnorm(kind, my[q2, q], c[:, p, q2]) - TOL
    c = c[ok]
    return float(np.minimum(c.max(axis=2).min(axis=1), c.max(axis=1).min(axis=1)).max())


def min_cover(cov: np.ndarray):
    """Lexicographically least minimum set of columns covering every row of ``cov``."""
    n = cov.shape[1]
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            if cov[:, subset].any(axis=1).all():
                return subset
    raise AssertionError("every point covers itself")
