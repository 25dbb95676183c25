"""Workload bounds-pairs: gh_fuzzy_bounds(x, y, t) on small seeded space pairs.

The make-up is fixed and only the values are seeded.  Operation k uses norm
k mod 3 and representation (k // 3) mod 3, so each of the nine
(norm, representation) cells holds 24 pairs per cycle of 216 operations: the
nine (|x|, |y|) sizes in {1, 2, 3}^2 twice, and six permuted isometric copies
of sizes 1, 2, 3 twice.  The timed list holds four cycles, each with its own
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import fuzzygh as fg
import reference as ref

NORMS = ("product", "minimum", "lukasiewicz")
REPRESENTATIONS = ("standard", "stationary", "step")
SIZES = [(nx, ny) for nx in (1, 2, 3) for ny in (1, 2, 3)]
CELL = SIZES + SIZES + [(n, n) for n in (1, 2, 3, 1, 2, 3)]  # the last six are copies
COPIES_FROM = len(SIZES) * 2
CYCLE = len(CELL) * 9  # operations in one cycle of the make-up
# The slowest operations (3x3 pairs under the minimum and Lukasiewicz norms)
# differ by up to 3x between draws, so the tail time, the 11th largest, is a
# steady figure only when the list holds many of them: four cycles hold
# about 64 operations above 25 ms.
CYCLES = 4
# step spaces sample a standard space at these scales, shared by every pair,
# so each step space equals a standard space at every scale and keeps its
# triangle inequality
STEP_BREAKS = tuple(float(b) for b in np.logspace(-1.0, 1.0, 7))
EXACT_VARIABLES = 4  # pairs up to this many cross variables get the relaxation check
STREAM = 11


@dataclass(frozen=True)
class Pair:
    x: object
    y: object
    t: float
    norm: str


def _distances(rng, n: int, norm: str) -> np.ndarray:
    """Euclidean distances in [0.1, 8]; ultrametric for the minimum norm."""
    d = np.zeros((n, n))
    if n == 1:
        return d
    if norm == "minimum":
        # two largest distances equal: d(0,1) = a <= b = d(0,2) = d(1,2)
        a, b = np.sort(rng.uniform(0.1, 8.0, size=2))
        d[0, 1] = d[1, 0] = a
        if n == 3:
            d[0, 2] = d[2, 0] = d[1, 2] = d[2, 1] = b
        perm = rng.permutation(n)
        return d[np.ix_(perm, perm)]
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return d * (7.9 / d.max()) + 0.1 * (1.0 - np.eye(n))


def _similarities(rng, n: int, norm: str) -> np.ndarray:
    v = np.ones((n, n))
    if norm == "minimum":
        # two smallest similarities equal: the ultrametric form of the minimum norm
        lo, hi = np.sort(rng.uniform(0.5, 0.95, size=2))
        for i in range(n):
            for j in range(i + 1, n):
                v[i, j] = v[j, i] = lo
        if n == 3:
            v[0, 1] = v[1, 0] = hi
        perm = rng.permutation(n)
        return v[np.ix_(perm, perm)]
    for i in range(n):
        for j in range(i + 1, n):
            v[i, j] = v[j, i] = rng.uniform(0.65, 0.8)  # 0.8 * 0.8 < 0.65
    return v


def step_of_standard(d: np.ndarray, breaks=STEP_BREAKS) -> dict:
    """Per-pair steps equal to t/(t+d) sampled at the right end of each interval."""
    samples = np.asarray(breaks + (2.0 * breaks[-1],))
    n = len(d)
    return {
        (i, j): fg.Step(breaks, tuple(float(v) for v in samples / (samples + d[i, j])))
        for i in range(n)
        for j in range(i + 1, n)
    }


def _matrix(rng, n: int, norm: str, rep: str) -> np.ndarray:
    return _similarities(rng, n, norm) if rep == "stationary" else _distances(rng, n, norm)


def _space(matrix: np.ndarray, norm: str, rep: str, name: str):
    labels = [f"{name}{i}" for i in range(len(matrix))]
    tn = fg.TNorm(norm)
    if rep == "standard":
        return fg.make_standard_space(labels, matrix, tn, name=name)
    if rep == "stationary":
        return fg.make_stationary_space(labels, matrix, tn, name=name)
    return fg.make_step_space(labels, step_of_standard(matrix), tn, name=name)


def _validate(space) -> None:
    """Reject a generated space whose triangle inequality fails on the check grid."""
    ts = ref.check_grid(space.pairs)
    V = ref.values_on_grid(space.n, space.entry, ts)
    residual, _ = ref.worst_triangle(V, space.norm.kind)
    if residual < -ref.TOL:
        raise AssertionError(f"generated space {space.name} breaks the triangle inequality")


def make_pairs(rng, count: int, offset: int = 0) -> list[Pair]:
    pairs = []
    for k in range(offset, offset + count):
        norm = NORMS[k % 3]
        rep = REPRESENTATIONS[(k // 3) % 3]
        slot = (k // 9) % len(CELL)
        nx, ny = CELL[slot]
        copy = slot >= COPIES_FROM
        mx = _matrix(rng, nx, norm, rep)
        if copy:
            perm = rng.permutation(nx)
            my = mx[np.ix_(perm, perm)]
        else:
            my = _matrix(rng, ny, norm, rep)
        x = _space(mx, norm, rep, f"x{k}.")
        y = _space(my, norm, rep, f"y{k}.")
        _validate(x)
        _validate(y)
        pairs.append(Pair(x, y, float(rng.uniform(0.3, 3.0)), norm))
    return pairs


def setup(seed: int, workdir) -> dict:
    rng = np.random.default_rng([seed, STREAM])
    timed = make_pairs(rng, CYCLES * CYCLE)
    # warm-up pairs come from another stream and cover every (norm, representation) cell
    warm = make_pairs(np.random.default_rng([seed, STREAM, 1]), 18, offset=9 * COPIES_FROM - 9)
    return {"timed": timed, "warm": warm}


def _op(pair: Pair):
    return lambda: fg.gh_fuzzy_bounds(pair.x, pair.y, pair.t)


def operations(inputs) -> list:
    return [_op(p) for p in inputs["timed"]]


def warmup(inputs) -> list:
    return [_op(p) for p in inputs["warm"]]


def gap_mean(results) -> float:
    """Mean of upper - lower over the first cycle of the list."""
    return float(np.mean([b.upper.value - b.lower.value for b in results[:CYCLE] if b is not None]))


def gap_of_seed(seed: int) -> float:
    """gap_mean of the seed's list, computed outside a bounds-pairs run.

    The first cycle is drawn first from the stream, so these are the pairs
    that a bounds-pairs run with this seed times first.
    """
    pairs = make_pairs(np.random.default_rng([seed, STREAM]), CYCLE)
    return gap_mean([_op(p)() for p in pairs])


def check(inputs, results) -> list[str]:
    problems = []
    for k, (pair, b) in enumerate(zip(inputs["timed"], results)):
        if b is None:
            continue
        lower, upper = b.lower.value, b.upper.value
        if not 0.0 <= lower <= upper <= 1.0:
            problems.append(f"pair {k}: bounds out of order: {lower}, {upper}")
        u = b.lower.witness
        n, entry = ref.union_entries(u)
        fns = [entry(i, j) for i in range(n) for j in range(i + 1, n)]
        V = ref.values_on_grid(n, entry, ref.check_grid(fns, extra=(pair.t,)))
        residual, where = ref.worst_triangle(V, pair.norm)
        if residual < -ref.TOL:
            problems.append(f"pair {k}: witness breaks the triangle inequality at {where}")
        cross = np.array([[ref.evaluate(f, [pair.t])[0] for f in row] for row in u.cross])
        if abs(ref.hausdorff(cross) - lower) > ref.TOL:
            problems.append(f"pair {k}: witness Hausdorff {ref.hausdorff(cross)} != lower {lower}")
        if pair.x.n * pair.y.n <= EXACT_VARIABLES:
            mx = ref.values_on_grid(pair.x.n, pair.x.entry, [pair.t])[0]
            my = ref.values_on_grid(pair.y.n, pair.y.entry, [pair.t])[0]
            best = ref.relaxation_grid_max(mx, my, pair.norm)
            if best > upper + ref.TOL:
                problems.append(f"pair {k}: upper {upper} below the grid maximum {best}")
    return problems
