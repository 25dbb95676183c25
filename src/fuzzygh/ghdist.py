"""Certified bounds on the Gromov-Hausdorff fuzzy distance, plus classical tools.

The lower bound is realized: it is the Hausdorff value of an explicitly
constructed admissible union metric.  The upper bound relaxes the defining
supremum to a single scale: any admissible metric restricted to t must satisfy
every pointwise triangle instance there, so maximizing the Hausdorff objective
over cross matrices subject to those instances bounds the supremum from above.
The relaxation is solved by an exhaustive-grid-equivalent branch-and-prune
search with a Lipschitz certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from .covering import find_net
from .errors import ConstructionError, DomainError, HypothesisError, SizeLimitError
from .gluing import (
    UnionMetric,
    attempt_net_gluing,
    floor_envelope,
    glue_constant,
    union_hausdorff,
)
from .grids import GridSpec
from .space import FuzzySpace, is_isometric, validate_distance_matrix
from .util import TOL, geq, require_positive
from .valuefn import ZERO, ValueFn

DEFAULT_EPS_SCHEDULE = (0.5, 0.3, 0.2, 0.1, 0.05, 0.01)
DEFAULT_RESOLUTION = 0.01
MAX_CROSS_VARIABLES = 9
_PERMUTATION_CAP = 6  # beyond this net size only the positional alignment is tried
_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class DistanceMatrix:
    """A validated finite metric: symmetric, zero diagonal, triangle inequality."""

    entries: tuple[tuple[float, ...], ...]

    @classmethod
    def from_array(cls, distances) -> "DistanceMatrix":
        d = validate_distance_matrix(distances)
        return cls(tuple(tuple(float(v) for v in row) for row in d))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def diameter(self) -> float:
        if self.n == 1:
            return 0.0
        return max(max(row) for row in self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries)


def _coerce_metric(d) -> DistanceMatrix:
    return d if isinstance(d, DistanceMatrix) else DistanceMatrix.from_array(d)


# ---------------------------------------------------------------------------
# lower bound


@dataclass(frozen=True)
class LowerBoundResult:
    """A realized lower bound: the Hausdorff value of the witness union metric."""

    t: float
    value: float
    witness: UnionMetric
    method: str

    def as_dict(self) -> dict:
        return {"t": self.t, "value": self.value, "method": self.method}


def _bounds_hold_at_t(
    mx: list[list[float]],
    my: list[list[float]],
    left: Sequence[int],
    right: Sequence[int],
    norm,
    eps: float,
) -> bool:
    """persistence_delta's test at t for every matched pair i <= j, on the t-slices.

    Same ``geq``, default tolerance and floats, so an alignment that fails here
    makes ``attempt_net_gluing`` raise ``HypothesisError``.
    """
    one_minus = 1.0 - eps
    for i in range(len(left)):
        for j in range(i, len(left)):
            a = mx[left[i]][left[j]]
            b = my[right[i]][right[j]]
            if not (geq(a, norm(b, one_minus)) and geq(b, norm(a, one_minus))):
                return False
    return True


def gh_fuzzy_lower_bound(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    grid: Optional[GridSpec] = None,
    exact_limit: int = 15,
    tol: float = TOL,
) -> LowerBoundResult:
    """Best Hausdorff value over the admissible gluings the library can build.

    Strategies: the zero-floor constant gluing (always valid), the
    min-diameter-envelope constant gluing, and for each eps in the schedule a
    matched-net gluing over minimal nets (all alignments up to a size cap) and
    over the full point sets when the spaces are isometric.  An alignment whose
    single-factor mutual bounds already fail at t is skipped before any
    construction, since the gluing would reject it at that check.
    """
    require_positive(t, "t")
    if x.norm.kind != y.norm.kind:
        raise DomainError("both spaces must share the t-norm kind")

    best_value = -1.0
    best_witness: Optional[UnionMetric] = None
    best_method = ""

    def consider(u: UnionMetric, method: str) -> None:
        nonlocal best_value, best_witness, best_method
        h = union_hausdorff(u, t)
        if h > best_value:
            best_value, best_witness, best_method = h, u, method

    consider(glue_constant(x, y, ZERO, grid), "constant-zero")
    floor: Optional[ValueFn] = None
    try:
        floor = floor_envelope(x, y, grid)
        consider(glue_constant(x, y, floor, grid), "constant-envelope")
    except (ConstructionError, HypothesisError):
        pass  # degenerate floors (single-point unions) fall back to other strategies

    iso = None
    if x.n == y.n:
        iso = is_isometric(x, y, grid)

    mx = [[x.value(i, j, t) for j in range(x.n)] for i in range(x.n)]
    my = [[y.value(i, j, t) for j in range(y.n)] for i in range(y.n)]
    for eps in sorted(eps_schedule):
        candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        if iso is not None:
            candidates.append((tuple(range(x.n)), iso))
        net_x = find_net(x, t, eps, exact_limit=exact_limit).indices
        net_y = find_net(y, t, eps, exact_limit=exact_limit).indices
        size = max(len(net_x), len(net_y))
        left = net_x + (net_x[0],) * (size - len(net_x))
        right = net_y + (net_y[0],) * (size - len(net_y))
        if size <= _PERMUTATION_CAP:
            for sigma in permutations(range(size)):
                candidates.append((left, tuple(right[k] for k in sigma)))
        else:
            candidates.append((left, right))
        if floor is None:
            continue  # every attempt would raise the envelope's error again
        for l_idx, r_idx in candidates:
            if not _bounds_hold_at_t(mx, my, l_idx, r_idx, x.norm, eps):
                continue
            try:
                u = attempt_net_gluing(
                    x, y, t, eps, l_idx, r_idx, floor=floor, grid=grid, tol=tol
                )
            except (HypothesisError, ConstructionError, DomainError):
                continue
            consider(u, f"matched-nets eps={eps}")
            break  # one verified construction per eps is enough

    assert best_witness is not None
    return LowerBoundResult(t=t, value=best_value, witness=best_witness, method=best_method)


# ---------------------------------------------------------------------------
# upper bound: pointwise relaxation solved on a certified grid


@dataclass(frozen=True)
class UpperBoundResult:
    """Certified upper bound: best slack-feasible grid point plus the grid slack.

    Soundness: rounding any truly feasible cross matrix down to the grid keeps
    the product-form constraints satisfied exactly, violates the lower-bound
    constraints by at most the spacing h, and lowers the objective by at most
    h; hence best_found >= sup - h and value = min(1, best_found + h) >= sup.
    """

    t: float
    value: float
    slack: float
    best_found: float
    refined_incumbent: float
    resolution: float
    variables: int
    nodes: int

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "value": self.value,
            "slack": self.slack,
            "best_found": self.best_found,
            "refined_incumbent": self.refined_incumbent,
            "resolution": self.resolution,
            "variables": self.variables,
            "nodes": self.nodes,
        }


def _tn_scalar(kind: str):
    if kind == "product":
        return lambda a, b: a * b
    if kind == "minimum":
        return lambda a, b: a if a <= b else b
    if kind == "lukasiewicz":
        return lambda a, b: max(a + b - 1.0, 0.0)
    raise DomainError(f"upper bound supports built-in norms only, got {kind!r}")


def _tn_inverse_cap(kind: str, bound: float, other: float) -> float:
    """Largest c in [0, 1] with norm(c, other) <= bound (1.0 when unconstrained)."""
    if bound >= 1.0:
        return 1.0
    if kind == "product":
        if other <= bound:
            return 1.0
        return bound / other if other > 0.0 else 1.0
    if kind == "minimum":
        return 1.0 if other <= bound else bound
    # lukasiewicz: c + other - 1 <= bound
    return min(1.0, bound + 1.0 - other)


class _RelaxationProblem:
    def __init__(self, x: FuzzySpace, y: FuzzySpace, t: float, h: float, tol: float):
        self.nx, self.ny = x.n, y.n
        self.k = self.nx * self.ny
        self.kind = x.norm.kind
        self.tn = _tn_scalar(self.kind)
        self.h = h
        self.tol = tol
        mx = [[x.value(i, j, t) for j in range(self.nx)] for i in range(self.nx)]
        my = [[y.value(i, j, t) for j in range(self.ny)] for i in range(self.ny)]
        self.mx, self.my = mx, my
        var = lambda p, q: p * self.ny + q
        self.lines = [
            [var(p, q) for q in range(self.ny)] for p in range(self.nx)
        ] + [[var(p, q) for p in range(self.nx)] for q in range(self.ny)]
        # product-form instances: norm(c[a], c[b]) <= A
        self.uppers: list[tuple[float, int, int]] = []
        for p in range(self.nx):
            for p2 in range(p + 1, self.nx):
                for q in range(self.ny):
                    self.uppers.append((mx[p][p2], var(p, q), var(p2, q)))
        for q in range(self.ny):
            for q2 in range(q + 1, self.ny):
                for p in range(self.nx):
                    self.uppers.append((my[q][q2], var(p, q), var(p, q2)))
        # bound-form instances: c[target] >= norm(K, c[source]) - slack
        self.lowers: list[tuple[int, float, int]] = []
        for p in range(self.nx):
            for q in range(self.ny):
                for p2 in range(self.nx):
                    if p2 != p:
                        self.lowers.append((var(p, q), mx[p][p2], var(p2, q)))
                for q2 in range(self.ny):
                    if q2 != q:
                        self.lowers.append((var(p, q), my[q2][q], var(p, q2)))
        # grid: i*h for i < last, then exactly 1.0
        last = int(math.ceil(1.0 / h - 1e-9))
        self.g = [i * h for i in range(last)] + [1.0]
        self.last = last

    def idx_floor(self, v: float) -> int:
        if v >= 1.0 - 1e-15:
            return self.last
        i = int(math.floor(v / self.h + 1e-9))
        return max(0, min(i, self.last - 1))

    def idx_ceil(self, v: float) -> int:
        if v <= 0.0:
            return 0
        if v > 1.0 + 1e-15:
            return self.last + 1  # infeasible marker
        i = int(math.ceil(v / self.h - 1e-9))
        if i >= self.last:
            return self.last if v <= 1.0 + 1e-15 else self.last + 1
        return i

    def objective(self, c: Sequence[float]) -> float:
        ny = self.ny
        row_min = min(max(c[p * ny + q] for q in range(ny)) for p in range(self.nx))
        col_min = min(max(c[p * ny + q] for p in range(self.nx)) for q in range(ny))
        return min(row_min, col_min)

    def feasible_point(self, c: Sequence[float], slack: float) -> bool:
        tn, tol = self.tn, self.tol
        for a_bound, va, vb in self.uppers:
            if tn(c[va], c[vb]) > a_bound + tol:
                return False
        for vt, k_val, vs in self.lowers:
            if c[vt] < tn(k_val, c[vs]) - slack - tol:
                return False
        return True

    def contract(
        self,
        lo: list[int],
        hi: list[int],
        slack: float,
        gi_req: int,
        max_sweeps: int = 4,
    ) -> bool:
        """Interval tightening; returns False when the box becomes empty.

        ``gi_req`` is the grid index every row and column must reach for the
        box to improve on the incumbent: lines that cannot reach it kill the
        box, lines with a single candidate entry force it up (witness
        propagation).  Sweeps are capped; stopping early is always sound, the
        box just splits once more.
        """
        g, tn, tol = self.g, self.tn, self.tol
        changed = True
        sweeps = 0
        while changed and sweeps < max_sweeps:
            sweeps += 1
            changed = False
            for line in self.lines:
                candidates = [v for v in line if hi[v] >= gi_req]
                if not candidates:
                    return False
                if len(candidates) == 1:
                    v = candidates[0]
                    if lo[v] < gi_req:
                        if gi_req > hi[v]:
                            return False
                        lo[v] = gi_req
                        changed = True
            for a_bound, va, vb in self.uppers:
                cap = a_bound + tol
                for u, v in ((va, vb), (vb, va)):
                    bound = _tn_inverse_cap(self.kind, cap, g[lo[v]])
                    ni = self.idx_floor(bound)
                    if ni < hi[u]:
                        hi[u] = ni
                        if hi[u] < lo[u]:
                            return False
                        changed = True
            for vt, k_val, vs in self.lowers:
                need = tn(k_val, g[lo[vs]]) - slack - tol
                ni = self.idx_ceil(need)
                if ni > lo[vt]:
                    if ni > hi[vt]:
                        return False
                    lo[vt] = ni
                    changed = True
                bound = _tn_inverse_cap(self.kind, g[hi[vt]] + slack + tol, k_val)
                ni = self.idx_floor(bound)
                if ni < hi[vs]:
                    hi[vs] = ni
                    if hi[vs] < lo[vs]:
                        return False
                    changed = True
        return True

    def witness_collision_cap(self) -> float:
        """Objective cap from witness pigeonholing, independent of the box.

        Every row and column of a feasible matrix with value >= gamma holds a
        witness entry >= gamma; when one side has more lines than the other
        two witnesses must share a line, so gamma*gamma is bounded by the
        corresponding similarity.  The cap maximizes over witness layouts.
        """
        from itertools import product as iproduct

        def side_cap(n_from, n_to, sims) -> float:
            if n_from <= n_to:
                return 1.0  # injective witnesses exist, no forced collision
            best = 0.0
            for assign in iproduct(range(n_to), repeat=n_from):
                worst = 1.0
                for i in range(n_from):
                    for j in range(i + 1, n_from):
                        if assign[i] == assign[j]:
                            worst = min(worst, self._gamma_cap(sims[i][j] + self.tol))
                best = max(best, worst)
            return best

        # columns witness through rows (collisions bound by M_Y) and rows
        # witness through columns (collisions bound by M_X)
        cap_cols = side_cap(self.ny, self.nx, self.my)
        cap_rows = side_cap(self.nx, self.ny, self.mx)
        return min(cap_rows, cap_cols)

    def _gamma_cap(self, bound: float) -> float:
        """Largest gamma with norm(gamma, gamma) <= bound."""
        if self.kind == "product":
            return min(1.0, math.sqrt(bound))
        if self.kind == "minimum":
            return min(1.0, bound)
        return min(1.0, (bound + 1.0) / 2.0)


def gh_fuzzy_upper_bound(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    resolution: float = DEFAULT_RESOLUTION,
    max_variables: int = MAX_CROSS_VARIABLES,
    refine: bool = True,
    tol: float = TOL,
) -> UpperBoundResult:
    """Certified upper bound on the GH fuzzy distance at a single scale.

    Maximizes min(min-row-max, min-col-max) over cross matrices in [0, 1]
    subject to every pointwise triangle instance at t, by branch-and-prune
    over the h-spaced grid; the result is the best slack-feasible grid value
    plus h, capped at 1.  Refuses problems with more cross variables than
    ``max_variables``.
    """
    require_positive(t, "t")
    if x.norm.kind != y.norm.kind:
        raise DomainError("both spaces must share the t-norm kind")
    if not 0.0 < resolution <= 0.5:
        raise DomainError(f"resolution must lie in (0, 0.5], got {resolution!r}")
    k = x.n * y.n
    if k > max_variables:
        raise SizeLimitError(
            f"{x.n}x{y.n} cross variables exceed the limit {max_variables}; "
            "use the diameter-based bounds instead"
        )
    h = float(resolution)
    prob = _RelaxationProblem(x, y, t, h, tol)
    g = prob.g
    slack = h

    # incumbent: the best feasible constant matrix (lower-bound instances are
    # automatically satisfied on constants), improved by coordinate ascent
    best_val, best_point = -1.0, None
    min_upper = min((a for a, _, _ in prob.uppers), default=1.0)
    for i in range(len(g) - 1, -1, -1):
        if prob.tn(g[i], g[i]) <= min_upper + tol:
            best_val = g[i]
            best_point = [g[i]] * k
            break
    if best_point is not None:
        best_point, best_val = _grid_ascent(prob, best_point, slack)

    cap = prob.witness_collision_cap() + tol
    gi_req = prob.idx_ceil(best_val + h * 0.5)  # smallest grid index above best

    nodes = 0
    stack = [([0] * k, [len(g) - 1] * k)]
    while stack and gi_req <= prob.last:
        lo, hi = stack.pop()
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise SizeLimitError("search budget exhausted; raise the resolution")
        if g[gi_req] > cap:
            break  # no grid value can both beat the incumbent and obey the cap
        if not prob.contract(lo, hi, slack, gi_req):
            continue
        if prob.objective([g[i] for i in hi]) <= best_val + 1e-15:
            continue
        width = [hi[d] - lo[d] for d in range(k)]
        total = 1
        for w in width:
            total *= w + 1
            if total > 64:
                break
        if total <= 64:
            # enumerate the remaining lattice points exactly
            point_idx = lo[:]
            while True:
                c = [g[i] for i in point_idx]
                if prob.feasible_point(c, slack):
                    v = prob.objective(c)
                    if v > best_val:
                        best_val, best_point = v, c
                        gi_req = prob.idx_ceil(best_val + h * 0.5)
                d = 0
                while d < k:
                    if point_idx[d] < hi[d]:
                        point_idx[d] += 1
                        break
                    point_idx[d] = lo[d]
                    d += 1
                if d == k:
                    break
            continue
        d_split = max(range(k), key=lambda d: width[d])
        mid = (lo[d_split] + hi[d_split]) // 2
        lo_hi = hi[:]
        lo_hi[d_split] = mid
        hi_lo = lo[:]
        hi_lo[d_split] = mid + 1
        stack.append((lo, lo_hi))
        stack.append((hi_lo, hi))  # explore the upper half first

    refined = best_val
    if refine and best_point is not None:
        refined = _coordinate_refine(prob, best_point, slack, h / 10.0)

    value = min(1.0, best_val + h)
    return UpperBoundResult(
        t=t,
        value=value,
        slack=h,
        best_found=best_val,
        refined_incumbent=refined,
        resolution=h,
        variables=k,
        nodes=nodes,
    )


def _grid_ascent(
    prob: _RelaxationProblem, start: list[float], slack: float
) -> tuple[list[float], float]:
    """Coordinate ascent over the search grid itself, used to seed the incumbent.

    Moves maximize (objective, coordinate sum) lexicographically so the walk
    keeps climbing across objective plateaus toward the coordinatewise-maximal
    feasible point.
    """
    c = list(start)
    best_obj = prob.objective(c)
    for _ in range(50):
        improved = False
        for d in range(prob.k):
            orig = c[d]
            chosen = orig
            # grid values descend from 1; the first feasible one is maximal
            for val in reversed(prob.g):
                if val <= chosen:
                    break
                c[d] = val
                if prob.feasible_point(c, slack):
                    chosen = val
                    break
            c[d] = chosen
            if chosen > orig:
                improved = True
        if not improved:
            break
    return c, prob.objective(c)


def _coordinate_refine(
    prob: _RelaxationProblem, start: list[float], slack: float, fine: float
) -> float:
    """Diagnostic coordinate ascent on a 10x finer lattice around the incumbent."""
    c = list(start)
    best = prob.objective(c)
    for _ in range(100):
        improved = False
        for d in range(prob.k):
            base = c[d]
            for m in range(-10, 11):
                cand = min(1.0, max(0.0, base + m * fine))
                if cand == c[d]:
                    continue
                old = c[d]
                c[d] = cand
                if prob.feasible_point(c, slack):
                    v = prob.objective(c)
                    if v > best + 1e-15:
                        best = v
                        improved = True
                        continue
                c[d] = old
        if not improved:
            break
    return best


# ---------------------------------------------------------------------------
# combined bounds


@dataclass(frozen=True)
class GHBounds:
    """Two-sided bounds: a realized lower value and a certified upper value."""

    t: float
    lower: LowerBoundResult
    upper: UpperBoundResult

    def __post_init__(self):
        if self.lower.value > self.upper.value + 1e-9:
            raise ConstructionError(
                f"bound sandwich violated: lower {self.lower.value} > upper "
                f"{self.upper.value}; one of the two computations is buggy"
            )

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "lower": self.lower.value,
            "upper": self.upper.value,
            "upper_slack": self.upper.slack,
            "lower_method": self.lower.method,
            "upper_info": self.upper.as_dict(),
        }


def gh_fuzzy_bounds(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    resolution: float = DEFAULT_RESOLUTION,
    grid: Optional[GridSpec] = None,
    max_variables: int = MAX_CROSS_VARIABLES,
) -> GHBounds:
    lower = gh_fuzzy_lower_bound(x, y, t, eps_schedule=eps_schedule, grid=grid)
    upper = gh_fuzzy_upper_bound(x, y, t, resolution=resolution, max_variables=max_variables)
    return GHBounds(t=t, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# classical Gromov-Hausdorff tools


def classical_gh_exact(dx, dy, limit: int = 12) -> float:
    """Exact classical GH distance by exhaustive correspondence enumeration.

    Half the minimum, over relations with full projections, of the worst
    distance distortion.  Only for |X| * |Y| <= limit.
    """
    mx = _coerce_metric(dx)
    my = _coerce_metric(dy)
    nx, ny = mx.n, my.n
    if nx * ny > limit:
        raise SizeLimitError(
            f"{nx}x{ny} cells exceed the correspondence-enumeration limit {limit}; "
            "use classical_gh_diameter_bound instead"
        )
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    nm = len(cells)
    row_mask = [0] * nx
    col_mask = [0] * ny
    for b, (i, j) in enumerate(cells):
        row_mask[i] |= 1 << b
        col_mask[j] |= 1 << b
    ax = mx.entries
    ay = my.entries
    best = math.inf
    for mask in range(1, 1 << nm):
        if any(not mask & rm for rm in row_mask) or any(not mask & cm for cm in col_mask):
            continue
        members = [cells[b] for b in range(nm) if mask & (1 << b)]
        worst = 0.0
        for a_pos in range(len(members)):
            i, j = members[a_pos]
            for b_pos in range(a_pos, len(members)):
                i2, j2 = members[b_pos]
                dist = abs(ax[i][i2] - ay[j][j2])
                if dist > worst:
                    worst = dist
                    if worst >= best:
                        break
            if worst >= best:
                break
        if worst < best:
            best = worst
    return best / 2.0


def classical_gh_diameter_bound(dx, dy) -> float:
    """Half the diameter gap, a universal lower bound for the classical GH distance."""
    mx = _coerce_metric(dx)
    my = _coerce_metric(dy)
    return abs(mx.diameter - my.diameter) / 2.0
