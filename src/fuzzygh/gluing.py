"""Admissible non-Archimedean metrics on disjoint unions of two finite spaces.

The constructions are the constant gluing (every cross similarity equals a
shared floor function below both t-diameters), the matched-net gluing (cross
similarities routed through paired nets, spliced at a persistence width below
the working scale) and the max-T closure through a witness relation.  Every
returned union passes the full axiom suite on its certification grid
(``validate_union``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain, compress
from typing import Optional, Sequence

import numpy as np

from .covering import is_net
from .errors import ConstructionError, DomainError, HypothesisError
from .grids import GridSpec
from .hausdorff import hausdorff_block
from .space import (
    AxiomReport,
    FuzzySpace,
    axiom_report,
    certification_grid,
    floor_envelope,
    glued_check,
    require_same_norm,
    scan_points,
    t_diameters,
    write_slices,
)
from .util import TOL, gt_strict, require_open_unit, require_positive, require_unit
from .valuefn import PairTable, Step, ValueFn, is_steplike, values


@dataclass(frozen=True)
class UnionMetric:
    """Two spaces plus a cross matrix of value functions (admissible by storage).

    Union indexing: 0..n_left-1 are left points, n_left.. are right points.
    """

    left: FuzzySpace
    right: FuzzySpace
    cross: tuple[tuple[ValueFn, ...], ...]

    def __post_init__(self):
        if self.left.norm.kind != self.right.norm.kind:
            raise ConstructionError("both parts must share the t-norm kind")
        if len(self.cross) != self.left.n or any(
            len(row) != self.right.n for row in self.cross
        ):
            raise ConstructionError("cross matrix shape must be n_left x n_right")

    @property
    def n_left(self) -> int:
        return self.left.n

    @property
    def n_right(self) -> int:
        return self.right.n

    def cross_value(self, p: int, q: int, t: float) -> float:
        return self.cross[p][q].eval(t)

    def as_space(self) -> FuzzySpace:
        labels = (*(f"L.{l}" for l in self.left.labels), *(f"R.{l}" for l in self.right.labels))
        # row i < n_left holds the left pairs (i, j > i), a contiguous run of
        # left.pairs, then cross[i]; the rows of the right part are right.pairs
        pairs: list[ValueFn] = []
        start = 0
        for i, row in enumerate(self.cross):
            stop = start + self.n_left - i - 1
            pairs += self.left.pairs[start:stop]
            pairs += row
            start = stop
        pairs += self.right.pairs
        return FuzzySpace("", labels, self.left.norm, tuple(pairs))


def validate_union(
    u: UnionMetric, grid: Optional[GridSpec] = None, tol: float = TOL, *, _samples: Optional[np.ndarray] = None
) -> AxiomReport:
    """Full axiom check over all points of the union on the certification
    grid: the report of ``check_axioms(u.as_space(), grid)``, built from the
    union's blocks.

    The side blocks are written from the sides' own tables.  The cross block
    is read from the ``PairTable`` of the cross entries, each distinct entry
    once, with the entries' own breakpoints.  ``_samples`` belongs to the
    closure gluings alone (``_validated``): it must be the (S+1, n_x, n_y)
    array on ``grid`` that ``_step_cross`` built ``u.cross`` from, and is
    then read in place of the entries, with the points after which some
    sample changes as breakpoints; only its shape is checked, so samples of
    another cross give the report of that cross.  A cross entry that never
    drops below 1 is refused with ``as_space``'s error.  A cross block that holds one value in each slice,
    as a constant gluing's, is checked from the two sides alone
    (``glued_check``), with no slice tensor of the union; any other cross,
    and the witness of a residual below -tol, are read from the union's
    slices.
    """
    x, y, samples = u.left, u.right, _samples
    if samples is not None:
        if grid is None or samples.shape != (len(grid) + 1, x.n, y.n):
            raise DomainError("samples must hold the len(grid) + 1 cross slices on grid")
        table, separated, steplike = None, bool((samples[0] < 1.0).all()), True
        changes = compress(grid.values, (samples[1:] != samples[:-1]).any(axis=(1, 2)).tolist())
    else:
        fns = [*chain.from_iterable(u.cross)]
        if len(set(map(id, fns))) == 1:
            fns = fns[:1]  # one entry, as a constant gluing holds: read once
        table = PairTable(fns)
        separated, steplike, changes = table.inseparable is None, table.steplike, table.breakpoints
    if not separated:
        u.as_space()  # raises its error for the first such entry
    bps = sorted({*x.breakpoints(), *y.breakpoints(), *changes})
    ug, fresh, ts = scan_points(grid, bps, x.all_steplike() and y.all_steplike() and steplike)
    if table is None:
        cross = samples[np.searchsorted(grid.array(), ts, side="left")]
    else:
        cross = table.values(ts).reshape(len(ts), -1, y.n if table.size > 1 else 1)
    # a cross that holds one value in each slice, bit for bit
    bits = cross.view(np.int64)
    if cross[0].size == 1 or (bits == bits[:, :1, :1]).all():
        worst, monotone = glued_check(x, y, ts, tol, cross[:, 0, 0])
        if worst >= -tol:
            return AxiomReport.of(ug, tol, worst, monotone)
    nx, n = x.n, x.n + y.n
    V = np.ones((n, n, len(ts))).transpose(2, 0, 1)
    write_slices(x, ts, V[:, :nx, :nx])
    write_slices(y, ts, V[:, nx:, nx:])
    V[:, :nx, nx:] = cross
    V[:, nx:, :nx] = cross.transpose(0, 2, 1)
    return axiom_report(V, ug, fresh, x.norm, tol)


def _validated(
    u: UnionMetric, grid: GridSpec, tol: float, what: str, samples: Optional[np.ndarray] = None
) -> UnionMetric:
    """``u`` once it passes the full union axiom check, read from the cross
    ``samples`` of a closure gluing when given; ConstructionError otherwise."""
    report = validate_union(u, grid, tol, _samples=samples)
    if not report.passed:
        raise ConstructionError(f"{what} gluing fails the union axiom check: {report.as_dict()}")
    return u


def union_hausdorff(u: UnionMetric, t: float) -> float:
    """Hausdorff fuzzy distance between the two full parts inside the union."""
    require_positive(t, "t")
    return hausdorff_block(_cross_at(u, t))


def _cross_at(u: UnionMetric, t: float) -> list[list[float]]:
    return [[f.eval(t) for f in row] for row in u.cross]


def _check_floor(x: FuzzySpace, y: FuzzySpace, c: ValueFn, grid: GridSpec, tol: float) -> None:
    """(1): c stays below the smaller t-diameter of x and y at each point of ``grid``."""
    bound = np.minimum(t_diameters(x, grid), t_diameters(y, grid))
    floor = values([c], grid.array())[:, 0]
    bad = floor > bound + tol
    if bad.any():
        k = int(np.argmax(bad))
        raise HypothesisError(
            "floor",
            where=grid.values[k],
            detail=f"floor value {float(floor[k])} exceeds min t-diameter {float(bound[k])}",
        )


def glue_constant(
    x: FuzzySpace,
    y: FuzzySpace,
    c: ValueFn,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> UnionMetric:
    """Union metric whose every cross similarity equals the floor function c.

    Requires c(s) <= min of both t-diameters at every certification-grid point
    (exact on step breakpoints).  The output re-certifies the union axioms.
    """
    return _validated(*_constant_union(x, y, c, grid, tol), tol, "constant")


def _constant_union(
    x: FuzzySpace, y: FuzzySpace, c: ValueFn, grid: Optional[GridSpec], tol: float
) -> tuple[UnionMetric, GridSpec]:
    """``glue_constant``'s union and certification grid, not yet validated."""
    require_same_norm(x, y)
    g = certification_grid(grid, x, y, extra=c.breakpoints)
    _check_floor(x, y, c, g, tol)
    return UnionMetric(x, y, ((c,) * y.n,) * x.n), g


# ---------------------------------------------------------------------------
# mutual bounds and the persistence width

#: the bisection's resolution for widths of pairs with an analytic entry
_WIDTH_TOL = 1e-9


def _mutual_bounds(a, b, factor: float, norm, tol: float = TOL):
    """(ok_a, ok_b): a >= T(b, factor) and b >= T(a, factor) up to ``tol``, elementwise."""
    return a - norm.array(b, factor) >= -tol, b - norm.array(a, factor) >= -tol


def persistence_delta(
    x: FuzzySpace,
    y: FuzzySpace,
    px: int,
    px2: int,
    py: int,
    py2: int,
    t: float,
    eps: float,
) -> float:
    """Largest width d such that the mutual (1-eps) bounds persist on [t-d, t].

    The bounds are M_X(px, px2, s) >= M_Y(py, py2, s) * (1 - eps) and the
    symmetric one.  Piecewise-constant pairs give the exact distance down to
    the last breakpoint below t; pairs involving an analytic entry are solved
    by bisection to 1e-9; constant pairs return t/2.
    """
    require_positive(t, "t")
    require_unit(eps, "eps")
    require_same_norm(x, y)
    fX = x.entry(px, px2)
    fY = y.entry(py, py2)
    one_minus = 1.0 - eps

    def holds(*s: float) -> bool:
        v = values((fX, fY), np.array(s, dtype=float))
        ok_a, ok_b = _mutual_bounds(v[:, 0], v[:, 1], one_minus, x.norm)
        return bool(np.all(ok_a & ok_b))

    if not holds(t):
        raise HypothesisError("(a)/(b)", where=t, detail="mutual bounds fail at t")

    bps = sorted(set(fX.breakpoints) | set(fY.breakpoints))
    if is_steplike(fX) and is_steplike(fY):
        below = [b for b in bps if b < t]
        if not below:
            return t / 2.0
        b = max(below)
        delta = t - b
        # both functions are constant on (b, t]; include b itself only if the
        # bounds survive the jump
        return delta if holds(b) else delta * (1.0 - 1e-12)

    def predicate(delta: float) -> bool:
        lo = t - delta
        # s = 0 is left out: there both bounds read 0 >= T(0, 1 - eps) = 0
        samples = [s for s in np.linspace(lo, t, 33) if s > 0.0]
        return holds(*samples, *(b for b in bps if lo <= b <= t))

    if predicate(t):
        return t
    lo_d, hi_d = 0.0, t
    while hi_d - lo_d > _WIDTH_TOL:
        mid = 0.5 * (lo_d + hi_d)
        if predicate(mid):
            lo_d = mid
        else:
            hi_d = mid
    if lo_d <= 0.0:
        raise HypothesisError(
            "(a)/(b)",
            where=t,
            detail="bounds hold at t with no positive persistence width (exact tie)",
        )
    return lo_d


# ---------------------------------------------------------------------------
# matched nets


@dataclass(frozen=True)
class MatchedNets:
    """Positionally aligned nets in two spaces with verification flags.

    ``cond_a``/``cond_b`` are the per-pair mutual bounds with the factor
    (1-eps)*(1-eps); net flags record strict ball coverage at eps and at
    eps*eps*eps.
    """

    t: float
    eps: float
    left: tuple[int, ...]
    right: tuple[int, ...]
    cond_a: tuple[tuple[bool, ...], ...]
    cond_b: tuple[tuple[bool, ...], ...]
    left_net_eps: bool
    right_net_eps: bool
    left_net_eps3: bool
    right_net_eps3: bool

    def __post_init__(self):
        if len(self.left) != len(self.right) or not self.left:
            raise ConstructionError("matched nets must be nonempty and equally long")

    @property
    def size(self) -> int:
        return len(self.left)

    def all_conditions_hold(self) -> bool:
        return all(all(row) for row in self.cond_a) and all(all(row) for row in self.cond_b)


def match_nets(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    eps: float,
    left: Sequence[int],
    right: Sequence[int],
    tol: float = TOL,
) -> MatchedNets:
    """Pair two index lists positionally and record all verification flags.

    The mutual-bound flags use the factor (1-eps)*(1-eps) of the
    necessary-condition direction; the sufficient-condition direction
    re-verifies its own single-factor bounds over all scales >= t.
    """
    require_positive(t, "t")
    require_open_unit(eps, "eps")
    norm = x.norm
    left = tuple(int(i) for i in left)
    right = tuple(int(i) for i in right)
    n = len(left)
    if n == 0 or len(right) != n:
        raise DomainError("nets must be nonempty and equally long")
    x.check_index(*left)
    y.check_index(*right)
    sx, sy = x.at(t), y.at(t)
    thr1 = 1.0 - eps
    thr3 = norm(norm(thr1, thr1), thr1)
    mx, my = np.array(sx)[np.ix_(left, left)], np.array(sy)[np.ix_(right, right)]
    ok_a, ok_b = _mutual_bounds(mx, my, norm(thr1, thr1), norm, tol)
    return MatchedNets(
        t=t,
        eps=eps,
        left=left,
        right=right,
        cond_a=tuple(map(tuple, ok_a.tolist())),
        cond_b=tuple(map(tuple, ok_b.tolist())),
        left_net_eps=is_net(sx, left, thr1, tol),
        right_net_eps=is_net(sy, right, thr1, tol),
        left_net_eps3=is_net(sx, left, thr3, tol),
        right_net_eps3=is_net(sy, right, thr3, tol),
    )


def extract_matched_nets(
    u: UnionMetric,
    t: float,
    eps: float,
    net_left: Sequence[int],
    tol: float = TOL,
) -> MatchedNets:
    """From a close union metric, pair each left net point with its best partner.

    Requires the union's Hausdorff value at t to exceed 1 - eps strictly and
    ``net_left`` to be a (t, eps)-net on the left.  Partners are the argmax of
    the cross similarity (ties broken by lowest index); the result records
    whether the right side is a (t, eps*eps*eps)-net and whether the mutual
    bounds with factor (1-eps)*(1-eps) hold for every pair.
    """
    require_positive(t, "t")
    require_unit(eps, "eps")
    cross = _cross_at(u, t)
    h = hausdorff_block(cross)
    if not gt_strict(h, 1.0 - eps, tol):
        raise HypothesisError(
            "H > 1-eps", where=t, detail=f"Hausdorff value {h} does not exceed {1.0 - eps}"
        )
    u.left.check_index(*net_left)
    if not is_net(u.left.at(t), net_left, 1.0 - eps, tol):
        raise DomainError("net_left is not a (t, eps)-net in the left space")
    # the first argmax of each row: ties go to the lowest index
    right = [max(range(u.n_right), key=cross[p].__getitem__) for p in net_left]
    return match_nets(u.left, u.right, t, eps, tuple(net_left), tuple(right), tol=tol)


# ---------------------------------------------------------------------------
# the max-T closure, shared by the matched-net and witness-relation gluings


def _closure(mx: np.ndarray, my: np.ndarray, relation, norm) -> np.ndarray:
    """(S, n_x, n_y) max-T closure max_{(p_w, q_w) in W} T(M_X(p_w, p, s), M_Y(q_w, q, s))
    through a nonempty relation W, from (S, n_x, n_x) and (S, n_y, n_y) slices.
    The maximum accumulates over W, so memory is O(n_x * n_y * S)."""
    pairs = iter(relation)
    pw, qw = next(pairs)
    best = norm.array(mx[:, pw, :, None], my[:, qw, None, :])
    for pw, qw in pairs:
        np.maximum(best, norm.array(mx[:, pw, :, None], my[:, qw, None, :]), out=best)
    return best


def _samples(space: FuzzySpace, g: GridSpec) -> np.ndarray:
    """(T + 1, n, n) slices at the T points of ``g``, then the limits at
    infinity, diagonal 1: what both closure gluings read of a space, written
    into one array by one read of its table at the points and ``inf``."""
    out = np.ones((len(g) + 1, space.n, space.n))
    write_slices(space, np.append(g.array(), np.inf), out)
    return out


def _step_cross(points: Sequence[float], samples: np.ndarray) -> tuple[tuple[ValueFn, ...], ...]:
    """Cross matrix of steps from (S+1, n_x, n_y) samples: entry (p, q) holds
    samples[k, p, q] on (points[k-1], points[k]], then samples[S, p, q].

    ``points`` are the values of a grid.  Samples within [0, 1] and
    nondecreasing along s are checked once for the whole array, and each
    canonical step keeps the points after which its samples change.  Any
    other array goes through ``Step`` entry by entry, which raises.
    """
    points = tuple(map(float, points))
    rows = samples.transpose(1, 2, 0)
    if not (
        len(samples) == len(points) + 1
        and (samples[0] >= 0.0).all()
        and (samples[-1] <= 1.0).all()
        and (samples[1:] >= samples[:-1]).all()
    ):
        return tuple(tuple(Step(points, v) for v in row) for row in rows.tolist())
    # an entry whose samples all differ keeps every point, as the one tuple
    # they share; any other keeps the points after which its samples change
    change = rows[..., 1:] != rows[..., :-1]
    return tuple(
        tuple(
            Step._canonical(points, tuple(v))
            if all(k)
            else Step._canonical(tuple(compress(points, k)), (v[0], *compress(v[1:], k)))
            for v, k in zip(vrow, krow)
        )
        for vrow, krow in zip(rows.tolist(), change.tolist())
    )


# ---------------------------------------------------------------------------
# the matched-net gluing


def _check_mutual_bounds(
    mx: np.ndarray,
    my: np.ndarray,
    nets: MatchedNets,
    grid: GridSpec,
    norm,
    tol: float,
) -> None:
    """(a)/(b): the single-factor mutual bounds between matched net entries at
    every point >= t of ``grid``, read from the ``_samples`` of both spaces;
    the first failure in (i, j, s) order is raised."""
    first = bisect.bisect_left(grid.values, nets.t)
    left, right = np.asarray(nets.left), np.asarray(nets.right)
    # (size, size, S) net similarities at the grid scales >= t
    a = mx[first:-1, left[:, None], left].transpose(1, 2, 0)
    b = my[first:-1, right[:, None], right].transpose(1, 2, 0)
    ok_a, ok_b = _mutual_bounds(a, b, 1.0 - nets.eps, norm, tol)
    fail = ~(ok_a & ok_b)
    if fail.any():
        i, j, k = np.unravel_index(np.argmax(fail), fail.shape)
        which = "(b)" if ok_a[i, j, k] else "(a)"
        raise HypothesisError(which, where=(int(i), int(j), grid.values[first + k]))


def _net_cross(
    mx: np.ndarray,
    my: np.ndarray,
    nets: MatchedNets,
    floor: ValueFn,
    splice: float,
    grid: GridSpec,
    norm,
) -> np.ndarray:
    """(S+1, n_x, n_y) cross samples of the matched-net gluing on ``grid``
    (``_step_cross``), from the ``_samples`` of both spaces.

    At s <= splice every entry is floor*floor*(1-eps); above it, entry (p, q)
    is the max-T closure through the pairs (left_i, right_i), damped by
    (1-eps).  After the last point (>= t > splice) it is the closure of the
    limits at infinity.
    """
    one_minus = 1.0 - nets.eps
    vals = norm.array(_closure(mx, my, zip(nets.left, nets.right), norm), one_minus)
    low = bisect.bisect_right(grid.values, splice)
    if low:
        c = values([floor], grid.array()[:low])[:, 0]
        vals[:low] = norm.array(norm.array(c, c), one_minus)[:, None, None]
    return vals


def glue_via_nets(
    x: FuzzySpace,
    y: FuzzySpace,
    nets: MatchedNets,
    delta: float,
    floor: ValueFn,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> UnionMetric:
    """Union metric routing cross similarities through the matched nets.

    Below the splice scale t - delta every cross value is
    floor*floor*(1-eps); above it, the best net detour
    max_j M_X(p, left_j, s) * M_Y(q, right_j, s), damped by (1-eps).

    Hypotheses verified before construction: (1) the floor stays below both
    t-diameters; (2) both sides are (t, eps)-nets; (a)/(b) the single-factor
    mutual bounds hold at every certification-grid scale >= t.  The output
    passes the full union axiom suite (``validate_union``, from the cross
    samples it was built from) and must beat (1-eps)*(1-eps) in Hausdorff
    value at t.
    """
    require_same_norm(x, y)
    t, eps = nets.t, nets.eps
    require_positive(t, "t")
    if not 0.0 < delta <= t:
        raise DomainError(f"delta must lie in (0, t], got {delta!r}")
    g = certification_grid(grid, x, y, extra=(t, t - delta, *floor.breakpoints))
    mx, my = _samples(x, g), _samples(y, g)

    _check_floor(x, y, floor, g, tol)
    if not nets.left_net_eps:
        raise HypothesisError("(2)", detail="left side is not a (t, eps)-net")
    if not nets.right_net_eps:
        raise HypothesisError("(2)", detail="right side is not a (t, eps)-net")

    _check_mutual_bounds(mx, my, nets, g, x.norm, tol)
    samples = _net_cross(mx, my, nets, floor, t - delta, g, x.norm)
    del mx, my  # the union check below sets the peak
    u = _validated(UnionMetric(x, y, _step_cross(g.values, samples)), g, tol, "matched-net", samples)
    h = union_hausdorff(u, t)
    threshold = x.norm(1.0 - eps, 1.0 - eps)
    if not gt_strict(h, threshold, tol):
        raise ConstructionError(
            f"matched-net gluing reaches Hausdorff value {h}, not above {threshold}"
        )
    return u


def attempt_net_gluing(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    eps: float,
    left: Sequence[int],
    right: Sequence[int],
    floor: Optional[ValueFn] = None,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> UnionMetric:
    """Convenience pipeline: match the nets, take the worst pairwise persistence
    width, and build the matched-net gluing."""
    nets = match_nets(x, y, t, eps, left, right, tol=tol)
    # a pair (i, i) compares ONE with ONE, whose width is t / 2
    delta = t / 2.0
    for i in range(nets.size):
        for j in range(i + 1, nets.size):
            delta = min(
                delta,
                persistence_delta(
                    x, y, nets.left[i], nets.left[j], nets.right[i], nets.right[j], t, eps
                ),
            )
    if floor is None:
        floor = floor_envelope(x, y, grid)
    return glue_via_nets(x, y, nets, delta, floor, grid, tol=tol)


# ---------------------------------------------------------------------------
# the witness-relation gluing


def _damping(closure: np.ndarray, capx: np.ndarray, capy: np.ndarray, norm) -> np.ndarray:
    """(S,) largest gamma with T(T(c_a, c_b), T(gamma, gamma)) <= A for every upper instance
    of the (S, n_x, n_y) cross matrix c = ``closure``, 1 if none: cells (p, q), (p2, q)
    with A = capx[s, p, p2], and cells (p, q), (p, q2) with A = capy[s, q, q2].
    ``max_damping`` is nonincreasing in kk, so a pair of rows needs only its largest
    T(c_a, c_b): c's closure with itself through the identity relation, in O(S n^2)
    memory; a diagonal cell is capped by 1 and allows 1."""
    c, ct = closure, closure.transpose(0, 2, 1)
    kx = _closure(ct, ct, ((q, q) for q in range(c.shape[2])), norm)
    ky = _closure(c, c, ((p, p) for p in range(c.shape[1])), norm)
    return np.minimum(norm.max_damping(kx, capx).min(axis=(1, 2)), norm.max_damping(ky, capy).min(axis=(1, 2)))


def glue_via_relation(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    relation: Sequence[tuple[int, int]],
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> UnionMetric:
    """Union metric whose cross entries are the max-T closure through ``relation`` W.

    Entry (p, q) at s is max_{w in W} T(T(M_X(p, p_w, s), M_Y(q_w, q, s)), gamma(s)),
    where gamma(s) is the least damping that keeps every upper instance of the
    closure within its cap at the scales >= s (the certification grid with t,
    then the limits at infinity capped by the last point's values), and 0 at
    and below a splice s0 halfway between t and the grid point below it.  Lower
    triangle instances hold for any closure, upper ones by the choice of gamma,
    which is nondecreasing (``TNorm.max_damping``).  The output passes the
    full union axiom suite (``validate_union``, from the cross samples it was
    built from).
    """
    u, g, samples = _relation_union(x, y, t, relation, grid)
    return _validated(u, g, tol, "witness-relation", samples)


def _relation_union(
    x: FuzzySpace,
    y: FuzzySpace,
    t: float,
    relation: Sequence[tuple[int, int]],
    grid: Optional[GridSpec],
) -> tuple[UnionMetric, GridSpec, np.ndarray]:
    """``glue_via_relation``'s union, certification grid and cross samples
    (``_step_cross``), not yet validated."""
    require_same_norm(x, y)
    require_positive(t, "t")
    if not relation or not all(0 <= p < x.n and 0 <= q < y.n for p, q in relation):
        raise DomainError(f"relation must be a nonempty set of cells of the {x.n}x{y.n} cross matrix")
    g = certification_grid(grid, x, y, extra=(t,))
    below = [p for p in g.values if p < t]
    s0 = (below[-1] + t) / 2.0 if below else t / 2.0
    g = g.merged((s0,))
    mx, my = _samples(x, g), _samples(y, g)
    closure = _closure(mx, my, relation, x.norm)
    caps = (np.concatenate([m[:-1], m[-2:-1]]) for m in (mx, my))
    gamma = np.minimum.accumulate(_damping(closure, *caps, x.norm)[::-1])[::-1]
    gamma[: g.values.index(s0) + 1] = 0.0
    samples = x.norm.array(closure, gamma[:, None, None])
    return UnionMetric(x, y, _step_cross(g.values, samples)), g, samples


# ---------------------------------------------------------------------------
# near-equal values dominate each other after damping


def mutual_eps_domination(a: float, b: float, k: float, eps: float, norm) -> bool:
    """Whether a >= b*(1-eps) and b >= a*(1-eps), for values within k*eps.

    Callers invoke this under the premise |a - b| < k*eps with 0 < k <
    min(a, b) < 1; for norms with the damping property a - a*b >= a*(1-b) the
    conclusion always holds then.  Norms without that property are rejected.
    """
    require_unit(a, "a")
    require_unit(b, "b")
    require_unit(k, "k")
    require_open_unit(eps, "eps")
    if not (0.0 < k < min(a, b) < 1.0):
        raise DomainError("need 0 < k < min(a, b) < 1")
    if not norm.has_tn1_known():
        raise DomainError(f"t-norm {norm.kind!r} lacks the required damping property")
    ok_a, ok_b = _mutual_bounds(a, b, 1.0 - eps, norm)
    return bool(ok_a and ok_b)
