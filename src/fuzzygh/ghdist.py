"""Certified bounds on the Gromov-Hausdorff fuzzy distance, and the exact
classical GH distance through the same relation search.

The lower bound is realized: it is the Hausdorff value of an explicitly
constructed admissible union metric, glued through the upper bound's optimal
relation.  The upper bound relaxes the defining supremum to a single scale:
any admissible metric restricted to t satisfies every pointwise triangle
instance there, so maximizing the Hausdorff objective over cross matrices
subject to those instances bounds the supremum from above.
The relaxation is solved exactly.  Fixing value gamma on a witness relation W
that meets every row and column, the least closed cross matrix is the max-T
closure cl_W(a) = max_{w in W} T(k(w, a), gamma) (Zadeh, Inf. Sci. 3, 1971),
and it is feasible iff every pair of cells in W is, which is a threshold
g(w, w') with a closed form per norm.  The supremum is then a bottleneck
covering problem (Edmonds & Fulkerson, J. Combin. Theory 8, 1970): bisection
over the thresholds with a covering-clique search, no grid and no slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstructionError, DomainError, HypothesisError, SizeLimitError
from .gluing import (
    UnionMetric,
    _witness_thresholds,
    floor_envelope,
    glue_constant,
    glue_via_relation,
    union_hausdorff,
)
from .grids import GridSpec
from .space import _CLIQUE_NODE_BUDGET, FuzzySpace, _covering_clique, validate_distance_matrix
from .util import TOL, require_positive
from .valuefn import ZERO

MAX_CROSS_VARIABLES = 36


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


def gh_fuzzy_lower_bound(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> LowerBoundResult:
    """Best Hausdorff value over the admissible gluings the library builds.

    Strategies: the zero-floor constant gluing (always valid), the
    min-diameter-envelope constant gluing, and the witness-relation gluing
    through the optimal relation of ``gh_fuzzy_upper_bound``.  Beyond
    ``MAX_CROSS_VARIABLES`` cross variables or under a user-defined norm the
    upper bound does not apply, and only the two constant gluings run.
    """
    require_positive(t, "t")
    if x.norm.kind != y.norm.kind:
        raise DomainError("both spaces must share the t-norm kind")
    try:
        relation: Optional[tuple] = gh_fuzzy_upper_bound(x, y, t, tol).relation
    except (SizeLimitError, DomainError):
        relation = None
    return _lower_bound(x, y, t, relation, grid, tol)


def _lower_bound(
    x: FuzzySpace, y: FuzzySpace, t: float, relation: Optional[tuple], grid, tol: float
) -> LowerBoundResult:
    """The first best of the constant gluings and, given a relation, the relation gluing."""
    found = [(glue_constant(x, y, ZERO, grid), "constant-zero")]
    try:
        found.append((glue_constant(x, y, floor_envelope(x, y, grid), grid), "constant-envelope"))
    except (ConstructionError, HypothesisError):
        pass  # degenerate floors (single-point unions) fall back to other strategies
    if relation is not None:
        try:
            found.append((glue_via_relation(x, y, t, relation, grid, tol), "witness-relation"))
        except ConstructionError:
            pass
    values = [union_hausdorff(u, t) for u, _ in found]
    k = values.index(max(values))
    return LowerBoundResult(t, values[k], *found[k])


# ---------------------------------------------------------------------------
# upper bound: the single-scale relaxation, solved exactly


@dataclass(frozen=True)
class UpperBoundResult:
    """The supremum of the single-scale relaxation and a relation attaining it.

    ``relation`` is an optimal witness relation W as (p, q) index pairs: every
    cell of W holds ``value`` in the relaxation's optimal cross matrix.
    ``nodes`` counts the backtracking nodes of the covering-clique search.
    """

    t: float
    value: float
    variables: int
    nodes: int
    relation: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "value": self.value,
            "variables": self.variables,
            "nodes": self.nodes,
            "relation": [list(w) for w in self.relation],
        }


def _kernel(mx: np.ndarray, my: np.ndarray, norm) -> np.ndarray:
    """(S, k, k) kernel k_s(w, a) = T(M_X(p_w, p_a, s), M_Y(q_w, q_a, s)) over
    cells w = (p, q), from (S, n_x, n_x) and (S, n_y, n_y) slices."""
    s, nx, ny = len(mx), mx.shape[1], my.shape[1]
    return norm.array(mx[:, :, None, :, None], my[:, None, :, None, :]).reshape(s, nx * ny, -1)


def _bottleneck(g: np.ndarray, nx: int, ny: int) -> tuple[float, tuple[tuple[int, int], ...], int]:
    """(value, relation, nodes): the largest entry of the (k, k) threshold matrix
    g over cells w = p * ny + q at which a relation meeting every row and column
    has g >= value on all its pairs, such a relation as (p, q) pairs, and the
    nodes the relation searches spent.  Bisection over the distinct entries.
    """
    levels = sorted(set(g.ravel().tolist()))  # np.unique would import numpy.ma
    lo, hi = 0, len(levels) - 1
    best, nodes = (1 << nx * ny) - 1, 0  # at the least level every cell pairs with every other
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found, used = _covering_clique(g >= levels[mid], nx, ny, _CLIQUE_NODE_BUDGET - nodes)
        nodes += used
        lo, hi, best = (lo, mid - 1, best) if found is None else (mid, hi, found)
    return levels[lo], tuple(divmod(w, ny) for w in range(nx * ny) if best >> w & 1), nodes


def gh_fuzzy_upper_bound(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    tol: float = TOL,
) -> UpperBoundResult:
    """Exact supremum of the single-scale relaxation at t (upper instances within tol).

    It is the largest gamma for which a relation W meeting every row and column
    has g(w, w') >= gamma on all its pairs: bisection over the distinct thresholds,
    each step a covering-clique search.  Refuses more than ``MAX_CROSS_VARIABLES``
    cross variables, and user-defined norms.
    """
    require_positive(t, "t")
    if x.norm.kind != y.norm.kind:
        raise DomainError("both spaces must share the t-norm kind")
    k = x.n * y.n
    if k > MAX_CROSS_VARIABLES:
        raise SizeLimitError(
            f"{x.n}x{y.n} cross variables exceed the limit {MAX_CROSS_VARIABLES}; "
            "use the diameter-based bounds instead"
        )
    if not x.norm.is_builtin:
        raise DomainError(f"upper bound supports built-in norms only, got {x.norm.kind!r}")
    mx, my = np.array([x.at(t)]), np.array([y.at(t)])
    g = _witness_thresholds(_kernel(mx, my, x.norm), mx + tol, my + tol, x.norm)[0]
    value, relation, nodes = _bottleneck(g, x.n, y.n)
    return UpperBoundResult(t=t, value=value, variables=k, nodes=nodes, relation=relation)


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
            "lower_method": self.lower.method,
            "upper_info": self.upper.as_dict(),
        }


def gh_fuzzy_bounds(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    grid: Optional[GridSpec] = None,
) -> GHBounds:
    upper = gh_fuzzy_upper_bound(x, y, t)
    lower = _lower_bound(x, y, t, upper.relation, grid, TOL)
    return GHBounds(t=t, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# classical Gromov-Hausdorff distance


def classical_gh_exact(dx, dy, limit: int = 12) -> float:
    """Exact classical GH distance by the relation search.

    Half the minimum, over relations with full projections, of the worst
    distance distortion |d_X(p, p') - d_Y(q, q')| over pairs of its cells: the
    bottleneck of the negated distortions.  Only for |X| * |Y| <= limit.
    """
    mx = _coerce_metric(dx)
    my = _coerce_metric(dy)
    nx, ny = mx.n, my.n
    if nx * ny > limit:
        raise SizeLimitError(
            f"{nx}x{ny} cells exceed the relation-search limit {limit}; "
            "use classical_gh_diameter_bound instead"
        )
    k = nx * ny
    g = -np.abs(mx.as_array()[:, None, :, None] - my.as_array()[None, :, None, :]).reshape(k, k)
    # each unordered pair of cells reads its entry in the earlier cell's row,
    # so a metric symmetric only within the validation tolerance counts it once
    g = np.where(np.tri(k, k, -1, dtype=bool), g.T, g)
    return -_bottleneck(g, nx, ny)[0] / 2


def classical_gh_diameter_bound(dx, dy) -> float:
    """Half the diameter gap, a universal lower bound for the classical GH distance."""
    mx = _coerce_metric(dx)
    my = _coerce_metric(dy)
    return abs(mx.diameter - my.diameter) / 2.0
