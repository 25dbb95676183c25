"""Certified bounds on the Gromov-Hausdorff fuzzy distance, plus classical tools.

The lower bound is realized: it is the Hausdorff value of an explicitly
constructed admissible union metric.  The upper bound relaxes the defining
supremum to a single scale: any admissible metric restricted to t must satisfy
every pointwise triangle instance there, so maximizing the Hausdorff objective
over cross matrices subject to those instances bounds the supremum from above.
The relaxation is solved exactly.  Fixing value gamma on a witness relation W
that meets every row and column, the least closed cross matrix is the max-T
closure cl_W(a) = max_{w in W} T(k(w, a), gamma) (Zadeh, Inf. Sci. 3, 1971),
and it is feasible iff every pair of cells in W is, which is a threshold
g(w, w') with a closed form per norm.  The supremum is then a bottleneck
covering problem (Edmonds & Fulkerson, J. Combin. Theory 8, 1970): bisection
over the thresholds with a covering-clique search, no grid and no slack.
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
from .util import TOL, geq, require_open_unit, require_positive
from .valuefn import ZERO, ValueFn

DEFAULT_EPS_SCHEDULE = (0.5, 0.3, 0.2, 0.1, 0.05, 0.01)
MAX_CROSS_VARIABLES = 36
_PERMUTATION_CAP = 6  # beyond this net size only the positional alignment is tried
_CLIQUE_NODE_BUDGET = 1_000_000


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
    construction, since the gluing would reject it at that check.  Under the
    minimum norm no matched-net gluing can beat its strict threshold, and
    without an envelope floor none can be built, so then no net is computed:
    the schedule is only checked.
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
    assert best_witness is not None
    floor: Optional[ValueFn] = None
    try:
        floor = floor_envelope(x, y, grid)
        consider(glue_constant(x, y, floor, grid), "constant-envelope")
    except (ConstructionError, HypothesisError):
        pass  # degenerate floors (single-point unions) fall back to other strategies

    schedule = sorted(eps_schedule)
    for eps in schedule:
        require_open_unit(eps, "eps")
    # every attempt would raise: the envelope's error again, or under the
    # minimum norm "not above", since each damped cross value at t is
    # min(., 1-eps) and the strict threshold is min(1-eps, 1-eps)
    if floor is None or x.norm.kind == "minimum":
        return LowerBoundResult(t=t, value=best_value, witness=best_witness, method=best_method)

    iso = is_isometric(x, y, grid) if x.n == y.n else None
    mx, my = x.at(t), y.at(t)
    for eps in schedule:
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

    return LowerBoundResult(t=t, value=best_value, witness=best_witness, method=best_method)


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


def _witness_thresholds(mx: np.ndarray, my: np.ndarray, norm, tol: float) -> np.ndarray:
    """g[w, w']: the largest gamma at which cells w and w' can both hold gamma, that
    is with T(T(k(w, a), k(w', b)), T(gamma, gamma)) <= A + tol for every upper
    instance T(c_a, c_b) <= A in both orders: cell w = (p, q) holding gamma forces
    cell a up to T(k(w, a), gamma), k(w, a) = T(M_X(p_a, p_w), M_Y(q_w, q_a))."""
    nx, ny, k = len(mx), len(my), len(mx) * len(my)
    kern = norm.array(mx[:, None, :, None], my[None, :, None, :]).reshape(k, k)
    cells = np.arange(k).reshape(nx, ny)
    px, px2 = np.triu_indices(nx, 1)
    qy, qy2 = np.triu_indices(ny, 1)
    a = np.concatenate([cells[px].ravel(), cells[:, qy].T.ravel()])
    b = np.concatenate([cells[px2].ravel(), cells[:, qy2].T.ravel()])
    cap = np.concatenate([np.repeat(mx[px, px2], ny), np.repeat(my[qy, qy2], nx)])
    cap = cap[:, None, None] + tol
    kk = norm.array(kern[:, a].T[:, :, None], kern[:, b].T[:, None, :])
    if norm.kind == "product":
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.sqrt(np.fmin(1.0, cap / kk))
    elif norm.kind == "minimum":
        g = np.where(kk <= cap, 1.0, cap)
    else:
        g = np.minimum(1.0, (cap + 2.0 - kk) / 2.0)
    g = g.min(axis=0, initial=1.0)  # a 1x1 pair has no instance
    return np.minimum(g, g.T)  # the instances in the other order


def _covering_clique(ok: np.ndarray, lines: list[int], budget: int) -> tuple[Optional[int], int]:
    """(bitmask of cells pairwise compatible under ``ok`` that meet every line, or
    None; nodes).  Branches over the compatible cells of the first line not met,
    and fails as soon as a line not met has no compatible cell left."""
    adj = [int.from_bytes(r.tobytes(), "little") for r in np.packbits(ok, 1, bitorder="little")]
    nodes = 0

    def extend(chosen: int, cand: int) -> Optional[int]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SizeLimitError("upper-bound search exceeded its node budget")
        branch = 0
        for line in lines:
            if not line & chosen:
                if not line & cand:
                    return None
                branch = branch or line & cand
        if not branch:
            return chosen
        while branch:
            bit = branch & -branch
            found = extend(chosen | bit, cand & adj[bit.bit_length() - 1])
            if found is not None:
                return found
            branch ^= bit
            cand ^= bit  # no cover holds chosen and this cell
        return None

    return extend(0, sum(1 << w for w in range(len(ok)) if ok[w, w])), nodes


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
    g = _witness_thresholds(np.array(x.at(t)), np.array(y.at(t)), x.norm, tol)
    cells = np.arange(k).reshape(x.n, y.n)
    lines = [sum(1 << int(w) for w in line) for line in (*cells, *cells.T)]
    levels = sorted(set(g.ravel().tolist()))  # np.unique would import numpy.ma
    lo, hi = 0, len(levels) - 1
    best, nodes = (1 << k) - 1, 0  # at the least level every cell pairs with every other
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found, used = _covering_clique(g >= levels[mid], lines, _CLIQUE_NODE_BUDGET - nodes)
        nodes += used
        lo, hi, best = (lo, mid - 1, best) if found is None else (mid, hi, found)
    relation = tuple(divmod(w, y.n) for w in range(k) if best >> w & 1)
    return UpperBoundResult(t=t, value=levels[lo], variables=k, nodes=nodes, relation=relation)


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
    eps_schedule: Sequence[float] = DEFAULT_EPS_SCHEDULE,
    grid: Optional[GridSpec] = None,
) -> GHBounds:
    lower = gh_fuzzy_lower_bound(x, y, t, eps_schedule=eps_schedule, grid=grid)
    upper = gh_fuzzy_upper_bound(x, y, t)
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
