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
and it is feasible iff every pair of cells in W is: cells (p, q), (p', q')
allow gamma up to min(max_damping(B, A), max_damping(A, B)) in the values
A = M_X(p, p', t), B = M_Y(q, q', t) (``TNorm.max_damping``, a closed form
for each of the three norms).  At one scale
-log M (product) and 1 - M (minimum, Lukasiewicz) are classical (pseudo)metrics,
and this is the classical GH problem, min over relations of dis R (Burago,
Burago & Ivanov, Thm 7.3.25), solved as a bottleneck covering problem
(Edmonds & Fulkerson, J. Combin. Theory 8, 1970): bisection over the
thresholds with a covering-clique search, no grid and no slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstructionError, DomainError, HypothesisError, SizeLimitError
from .gluing import (
    UnionMetric,
    _constant_union,
    _relation_union,
    _validated,
    floor_envelope,
    glue_constant,
    union_hausdorff,
)
from .grids import GridSpec
from .space import _CLIQUE_NODE_BUDGET, DistanceMatrix, FuzzySpace, _covering_clique
from .util import TOL, Report, require_positive
from .valuefn import ONE, ZERO

MAX_CROSS_VARIABLES = 36


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

    Strategies: the zero-floor constant gluing (always valid when X and Y
    are), the min-diameter-envelope constant gluing, and the witness-relation
    gluing through the optimal relation of ``gh_fuzzy_upper_bound``.  Beyond
    ``MAX_CROSS_VARIABLES`` cross variables the upper bound does not apply,
    and only the two constant gluings run.  The candidates are validated at
    ``tol`` in the order of their values at t until one passes; the ones
    below it are never validated.
    """
    require_positive(t, "t")
    if x.norm.kind != y.norm.kind:
        raise DomainError("both spaces must share the t-norm kind")
    try:
        relation: Optional[tuple] = gh_fuzzy_upper_bound(x, y, t, tol).relation
    except SizeLimitError:
        relation = None
    return _lower_bound(x, y, t, relation, grid, tol)


def _lower_bound(
    x: FuzzySpace, y: FuzzySpace, t: float, relation: Optional[tuple], grid, tol: float
) -> LowerBoundResult:
    """The first best of the constant gluings and, given a relation, the relation gluing.

    The envelope and relation unions are built unvalidated, the relation
    union with its cross samples, and ranked by their Hausdorff value at t,
    the envelope first at a tie; they are validated in that order and the
    first that passes is returned.  One whose build or validation fails is
    skipped.  The zero gluing comes last and is built only when no candidate
    of positive value passes: its value is 0, so it wins only then, and its
    union passes iff X and Y pass on its grid, which every other candidate's
    grid contains.  So it is the one gluing that raises when X or Y fails
    its axiom check.
    """
    found = []
    try:
        envelope = floor_envelope(x, y, grid)
        # ONE: neither space has a pair, and no union takes a cross that never drops below 1
        if envelope != ONE:
            found.append((*_constant_union(x, y, envelope, grid, tol), None, "constant-envelope"))
    except (ConstructionError, HypothesisError):
        pass  # a floor the union cannot take falls back to the other strategies
    if relation is not None:
        try:
            found.append((*_relation_union(x, y, t, relation, grid), "witness-relation"))
        except ConstructionError:
            pass
    ranked = sorted(((union_hausdorff(c[0], t), *c) for c in found), key=lambda c: -c[0])
    for value, u, g, samples, method in ranked:
        if value <= 0.0:
            break
        try:
            return LowerBoundResult(t, value, _validated(u, g, tol, method, samples), method)
        except ConstructionError:
            pass
    zero = glue_constant(x, y, ZERO, grid, tol)
    return LowerBoundResult(t, union_hausdorff(zero, t), zero, "constant-zero")


# ---------------------------------------------------------------------------
# upper bound: the single-scale relaxation, solved exactly


@dataclass(frozen=True)
class UpperBoundResult(Report):
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


def _cell_pairs(mx: np.ndarray, my: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B): A[w, w'] = mx[p, p'] and B[w, w'] = my[q, q'] over cells w = p * n_y + q."""
    nx, ny = len(mx), len(my)
    return np.repeat(np.repeat(mx, ny, 0), ny, 1), np.tile(my, (nx, nx))


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
    cross variables.
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
    a, b = _cell_pairs(np.array(x.at(t)), np.array(y.at(t)))
    g = np.minimum(x.norm.max_damping(b, a + tol), x.norm.max_damping(a, b + tol))
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
        raise SizeLimitError(f"{nx}x{ny} cells exceed the relation-search limit {limit}")
    a, b = _cell_pairs(mx.as_array(), my.as_array())
    g = -np.abs(a - b)
    # each unordered pair of cells reads its entry in the earlier cell's row,
    # so a metric symmetric only within the validation tolerance counts it once
    g = np.where(np.tri(len(g), k=-1, dtype=bool), g.T, g)
    return -_bottleneck(g, nx, ny)[0] / 2
