"""Workload axioms-large: check_axioms on one large space, or glue_constant on two.

Forty operations alternate between the two kinds.  The sizes, norms and
representations are fixed; only the values are seeded.

* check: one space of 40-80 points.  Eight are standard, eight step and four
  stationary with one planted triangle violation each.
* glue: glue_constant, and so validate_union, on two spaces of 20-40 points
  under a floor below both t-diameters.  Ten pairs are standard, ten step.

Norms alternate between product and Lukasiewicz.
"""

from __future__ import annotations

import numpy as np

import fuzzygh as fg
import reference as ref
from bounds_pairs import step_of_standard

NORMS = ("product", "lukasiewicz")
# sizes lean towards the low end of each range, so that a run holds several
# rounds; the largest check (80 points) and union (40 + 40) set peak memory
CHECK_SIZES = (40, 80, 40, 41, 42, 43, 44, 45, 46, 40, 41, 42, 43, 44, 48, 52, 56, 60, 64, 70)
CHECK_KINDS = ("standard", "step", "standard", "step", "stationary") * 4
GLUE_SIZES = ((20, 20), (40, 40), (20, 21), (21, 20), (20, 22), (22, 21), (21, 22), (22, 22),
              (23, 20), (20, 23), (21, 21), (22, 20), (20, 24), (24, 22), (25, 23), (22, 26),
              (27, 25), (26, 30), (30, 28), (32, 34))
PLANTED = 0.2  # below T(a, b) for every a, b >= 0.65 under both norms
STREAM = 12


def _metric(rng, n: int) -> np.ndarray:
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return d * (5.0 / d.max()) + 0.05 * (1.0 - np.eye(n))


def _space(rng, n: int, norm: str, kind: str, name: str):
    """(space, floor-distance, planted pair or None)."""
    labels = [f"p{i}" for i in range(n)]
    tn = fg.TNorm(norm)
    if kind == "stationary":
        v = np.ones((n, n))
        iu = np.triu_indices(n, 1)
        v[iu] = rng.uniform(0.65, 0.8, size=len(iu[0]))
        i, k = sorted(int(p) for p in rng.choice(n, size=2, replace=False))
        v[i, k] = PLANTED
        v = np.minimum(v, v.T)
        return fg.make_stationary_space(labels, v, tn, name=name), None, (i, k)
    d = _metric(rng, n)
    base = fg.make_standard_space(labels, d, tn, name=name)  # validates the metric
    if kind == "standard":
        return base, float(d.max()), None
    return fg.make_step_space(labels, step_of_standard(d), tn, name=name), float(d.max()), None


def _floor(kind: str, diameter: float):
    """Floor at or below both t-diameters: the larger diameter's value function."""
    if kind == "standard":
        return fg.Standard(diameter)
    return step_of_standard(np.array([[0.0, diameter], [diameter, 0.0]]))[(0, 1)]


def _make(rng, check_sizes, glue_sizes) -> list:
    ops = []
    for k, (n, (nx, ny)) in enumerate(zip(check_sizes, glue_sizes)):
        norm = NORMS[k % 2]
        kind = CHECK_KINDS[k % len(CHECK_KINDS)]
        space, _, planted = _space(rng, n, norm, kind, f"c{k}")
        ops.append(("check", norm, space, planted))
        kind = ("standard", "step")[k % 2]
        x, dx, _ = _space(rng, nx, NORMS[(k + 1) % 2], kind, f"gx{k}")
        y, dy, _ = _space(rng, ny, NORMS[(k + 1) % 2], kind, f"gy{k}")
        ops.append(("glue", NORMS[(k + 1) % 2], (x, y, _floor(kind, max(dx, dy))), None))
    return ops


def setup(seed: int, workdir) -> dict:
    timed = _make(np.random.default_rng([seed, STREAM]), CHECK_SIZES, GLUE_SIZES)
    warm = _make(np.random.default_rng([seed, STREAM, 1]), (12, 14, 16, 18, 20),
                 ((8, 8), (10, 6), (6, 10), (9, 9), (7, 11)))
    return {"timed": timed, "warm": warm}


def _op(entry):
    kind, _norm, arg, _planted = entry
    if kind == "check":
        return lambda: fg.check_axioms(arg)
    x, y, floor = arg
    return lambda: fg.glue_constant(x, y, floor)


def operations(inputs) -> list:
    return [_op(e) for e in inputs["timed"]]


def warmup(inputs) -> list:
    return [_op(e) for e in inputs["warm"]]


def check(inputs, results) -> list[str]:
    problems = []
    for k, ((kind, norm, arg, planted), out) in enumerate(zip(inputs["timed"], results)):
        if out is None:
            continue
        if kind == "check":
            space = arg
            ts = np.asarray(out.grid)
            missing = set(space.breakpoints()) - set(out.grid)
            if missing:
                problems.append(f"op {k}: grid misses breakpoints {sorted(missing)[:3]}")
            V = ref.values_on_grid(space.n, space.entry, ts)
            residual, _ = ref.worst_triangle(V, norm)
            if residual != out.na1_residual:
                problems.append(f"op {k}: na1_residual {out.na1_residual} != loop {residual}")
            if planted is None:
                if not out.passed:
                    problems.append(f"op {k}: valid space fails check_axioms")
                continue
            if out.passed or out.witness is None:
                problems.append(f"op {k}: planted violation {planted} not reported")
                continue
            i, j, kk, t = out.witness
            tpos = int(np.searchsorted(ts, t))
            at = ref.triangle_residual_at(V, norm, i, j, kk, tpos)
            if not (at < -ref.TOL and at == residual and tuple(sorted((i, kk))) == planted):
                problems.append(f"op {k}: witness {out.witness} not confirmed (residual {at})")
        else:
            x, y, floor = arg
            if out.left is not x or out.right is not y:
                problems.append(f"op {k}: union parts are not the inputs")
            if any(c != floor for row in out.cross for c in row):
                problems.append(f"op {k}: cross entries differ from the floor")
            n, entry = ref.union_entries(out)
            fns = list(x.pairs) + list(y.pairs) + [floor]
            residual, where = ref.worst_triangle(ref.values_on_grid(n, entry, ref.check_grid(fns)), norm)
            if residual < -ref.TOL:
                problems.append(f"op {k}: union breaks the triangle inequality at {where}")
    return problems
