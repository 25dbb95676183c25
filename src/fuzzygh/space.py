"""Finite fuzzy metric spaces, axiom verification, t-diameter, the relation
search and isometry testing.

A space stores one value function per unordered off-diagonal pair; the
diagonal is implicit (1 for t > 0, 0 at t = 0), which builds the symmetry and
self-identity axioms into the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, SizeLimitError
from .grids import GridSpec
from .tnorm import TNorm
from .util import TOL, Report, require_positive
from .valuefn import ONE, PairTable, Standard, Step, ValueFn

#: floats in the block buffer of the O(n^3) triangle scans (512 KiB of
#: float64, within a core's L2 cache)
_BLOCK = 1 << 16
#: backtracking nodes one relation or cover search may visit
_CLIQUE_NODE_BUDGET = 1_000_000
#: absolute tolerance of the zero-diagonal, symmetry and triangle checks of a
#: classical distance matrix
_METRIC_TOL = 1e-9


@dataclass(frozen=True)
class FuzzySpace:
    """Finite point set with a t-norm and per-pair value functions.

    ``pairs`` lists the off-diagonal entries in lexicographic (i < j) order.
    Their ``PairTable`` is built once, at construction, and kept outside the
    fields: equality, ``repr``, pickles and ``dataclasses.replace`` ignore
    it, and every evaluation over the whole space reads it.
    """

    name: str
    labels: tuple[str, ...]
    norm: TNorm
    pairs: tuple[ValueFn, ...]

    def __post_init__(self):
        n = len(self.labels)
        if n < 1:
            raise ConstructionError("space needs at least one point")
        if len(set(self.labels)) != n:
            raise ConstructionError("point labels must be unique")
        if len(self.pairs) != n * (n - 1) // 2:
            raise ConstructionError("wrong number of off-diagonal entries")
        table = PairTable(self.pairs)
        if table.inseparable is not None:
            i, j = (int(k[table.inseparable]) for k in pair_indices(n))
            raise ConstructionError(
                f"pair ({self.labels[i]}, {self.labels[j]}) never drops below 1; "
                "distinct points must be separated"
            )
        object.__setattr__(self, "_table", table)

    def __reduce__(self):
        # pickled by its fields: the table is built again when loaded
        return type(self), (self.name, self.labels, self.norm, self.pairs)

    @property
    def n(self) -> int:
        return len(self.labels)

    def pair_index(self, i: int, j: int) -> int:
        if i == j:
            raise DomainError("diagonal has no stored entry")
        if i > j:
            i, j = j, i
        return i * (2 * self.n - i - 1) // 2 + (j - i - 1)

    def entry(self, i: int, j: int) -> ValueFn:
        """Value function of the pair {i, j}; the diagonal is the constant-one function."""
        self.check_index(i, j)
        if i == j:
            return ONE
        return self.pairs[self.pair_index(i, j)]

    def value(self, i: int, j: int, t: float) -> float:
        return self.entry(i, j).eval(t)

    def at(self, t: float) -> list[list[float]]:
        """The t-slice M(., ., t): n rows of n floats with the diagonal 1 (t > 0).

        One ``eval`` per stored pair and no per-cell index check.  Plain rows,
        not an array: on the 1-3 point spaces the lower bound and the nets see
        most, setting up an array costs more than this loop.
        """
        n = self.n
        one = ONE.eval(t)
        rows = [[one] * n for _ in range(n)]
        pairs = iter(self.pairs)
        for i in range(n):
            row = rows[i]
            for j in range(i + 1, n):
                row[j] = rows[j][i] = next(pairs).eval(t)
        return rows

    def grid_values(self, grid: GridSpec) -> np.ndarray:
        """(T, n, n) array of values on the grid, diagonal filled with 1."""
        return slices_at(self, grid.array())

    def breakpoints(self) -> tuple[float, ...]:
        return self._table.breakpoints

    def all_steplike(self) -> bool:
        return self._table.steplike

    def check_index(self, *indices: int) -> None:
        """Raise ``DomainError`` for the first index outside 0..n-1."""
        n = len(self.labels)
        for i in indices:
            if not 0 <= i < n:
                raise DomainError(f"point index {i} out of range for n={n}")

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise DomainError(f"unknown point label {label!r}") from exc


def require_same_norm(x: FuzzySpace, y: FuzzySpace) -> None:
    """Raise ``DomainError`` unless the two spaces share their t-norm kind."""
    if x.norm.kind != y.norm.kind:
        raise DomainError("both spaces must share the t-norm kind")


def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j in lexicographic order, as in
    ``FuzzySpace.pairs`` (``np.triu_indices(n, 1)``, without its overhead)."""
    return np.nonzero(np.arange(n)[:, None] < np.arange(n))


def slices_at(space: FuzzySpace, ts: np.ndarray) -> np.ndarray:
    """(T, n, n) array of M(., ., s) at the positive scales ts, diagonal 1: the
    transposed view of one (n, n, T) array, in which t runs fastest."""
    out = np.ones((space.n, space.n, len(ts))).transpose(2, 0, 1)
    write_slices(space, ts, out)
    return out


def write_slices(space: FuzzySpace, ts: np.ndarray, out: np.ndarray) -> None:
    """Write M(., ., s) at the positive scales ts into the off-diagonal
    entries of the (T, n, n) array ``out``, symmetric bit for bit, from the
    space's ``PairTable``.  The values are computed in blocks of at most
    ``_BLOCK / 4`` floats, each with its temporaries, so the memory beyond
    ``out`` is fixed."""
    rows, cols = pair_indices(space.n)
    for idx, block in space._table.blocks(ts, max(1, _BLOCK // 4 // max(1, len(ts)))):
        r, c = rows[idx], cols[idx]
        out[:, r, c] = out[:, c, r] = block


def fresh_after(points: np.ndarray, breakpoints: Sequence[float]) -> np.ndarray:
    """The first of the grid ``points`` and the point just after each
    breakpoint: a canonical step changes value only across a breakpoint, so
    every point left out repeats, bit for bit, the slices of the point
    before it."""
    fresh = np.zeros(len(points) + 1, dtype=bool)
    fresh[0] = True
    fresh[np.searchsorted(points, breakpoints, side="right")] = True
    return np.flatnonzero(fresh[:-1])


def certification_grid(
    grid: Optional[GridSpec],
    *spaces: FuzzySpace,
    extra: Sequence[float] = (),
) -> GridSpec:
    """Merge the working grid with all step breakpoints (plus a tail point).

    Checks on piecewise-constant spaces become exact: between consecutive
    breakpoints every entry is constant, and one point beyond the largest
    breakpoint pins the tail values.
    """
    g = grid if grid is not None else GridSpec.default()
    return breakpoint_grid(g, [b for sp in spaces for b in sp.breakpoints()], extra)


def breakpoint_grid(g: GridSpec, breakpoints: Sequence[float], extra: Sequence[float] = ()) -> GridSpec:
    """``g`` merged with ``extra``, the breakpoints and, past the largest
    one, the tail point 1.5 * top + 1."""
    merge = [*extra, *breakpoints]
    if breakpoints:
        merge.append(max(breakpoints) * 1.5 + 1.0)
    return g.merged(merge)


def scan_points(
    grid: Optional[GridSpec], breakpoints: Sequence[float], steplike: bool
) -> tuple[GridSpec, np.ndarray, np.ndarray]:
    """(g, fresh, ts): the certification grid of entries with these
    breakpoints (the default grid when ``grid`` is None, merged by
    ``breakpoint_grid``), the indices of the points an axiom check reads
    (``fresh_after`` the breakpoints when every entry is a step, every point
    otherwise) and their scales.  One walk over the entries gives both
    arguments."""
    g = breakpoint_grid(grid if grid is not None else GridSpec.default(), breakpoints)
    points = g.array()
    fresh = fresh_after(points, breakpoints) if steplike else np.arange(len(points))
    return g, fresh, points[fresh]


# ---------------------------------------------------------------------------
# constructors


def check_distance_entries(distances) -> np.ndarray:
    """``validate_distance_matrix`` without the O(n^3) triangle inequality:
    a square, finite, symmetric matrix with a zero diagonal and positive
    distances between distinct points, as a float array."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ConstructionError("distance matrix must be square")
    if not np.isfinite(d).all():
        raise ConstructionError("distance matrix entries must be finite")
    n = d.shape[0]
    if (np.abs(d.diagonal()) > _METRIC_TOL).any():
        raise ConstructionError("distance matrix must have zero diagonal")
    if (np.abs(d - d.T) > _METRIC_TOL).any():
        raise ConstructionError("distance matrix must be symmetric")
    bad = ~(d > 0.0)
    np.fill_diagonal(bad, False)
    if bad.any():
        upper = np.triu(bad, 1)  # only pairs i < j count, as in the loop over them
        if upper.any():
            i, j = divmod(int(np.argmax(upper)), n)
            raise ConstructionError(f"distance between points {i} and {j} must be positive")
    return d


def validate_distance_matrix(distances) -> np.ndarray:
    """Check finiteness, symmetry, zero diagonal, positivity and the triangle inequality."""
    d = check_distance_entries(distances)
    n = d.shape[0]
    # d[i, k] > d[i, j] + d[j, k] + _METRIC_TOL over blocks of rows i; the first
    # violation in C order is the first triple of the loop over (i, j, k)
    step = max(1, _BLOCK // max(1, n * n))
    for i0 in range(0, n, step):
        rows = d[i0 : i0 + step]
        viol = rows[:, None, :] > rows[:, :, None] + d + _METRIC_TOL
        if viol.any():
            di, j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
            i, j, k = i0 + int(di), int(j), int(k)
            raise ConstructionError(
                f"triangle inequality fails on ({i}, {j}, {k}): "
                f"{d[i, k]} > {d[i, j]} + {d[j, k]}"
            )
    return d


@dataclass(frozen=True)
class DistanceMatrix:
    """A validated finite metric: symmetric, zero diagonal, triangle inequality.

    Every instance passes ``validate_distance_matrix`` when it is built, so
    the functions that take one do not check it again."""

    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        d = validate_distance_matrix(self.entries)
        object.__setattr__(self, "entries", tuple(map(tuple, d.tolist())))

    @classmethod
    def from_array(cls, distances) -> "DistanceMatrix":
        """``distances`` itself when it is a ``DistanceMatrix``, else a new
        one built, and so validated, from the matrix."""
        return distances if isinstance(distances, cls) else cls(distances)

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries)


def make_standard_space(
    labels: Sequence[str],
    distances,
    norm: TNorm,
    name: str = "",
) -> FuzzySpace:
    """Space with pair values t/(t+d) induced by a classical metric: a
    ``DistanceMatrix``, not checked again, or a matrix that
    ``validate_distance_matrix`` checks."""
    labels = tuple(labels)
    d = distances.as_array() if isinstance(distances, DistanceMatrix) else validate_distance_matrix(distances)
    if d.shape[0] != len(labels):
        raise ConstructionError("label count does not match the distance matrix")
    return FuzzySpace(name, labels, norm, tuple(map(Standard, d[pair_indices(len(labels))].tolist())))


def make_stationary_space(
    labels: Sequence[str],
    values,
    norm: TNorm,
    name: str = "",
) -> FuzzySpace:
    """Space with t-independent pair values and a unit diagonal; the triangle
    axiom is *not* checked here."""
    labels = tuple(labels)
    v = np.asarray(values, dtype=float)
    n = len(labels)
    if v.shape != (n, n):
        raise ConstructionError("values matrix shape does not match labels")
    if not np.all(np.abs(np.diag(v) - 1.0) <= TOL):
        raise ConstructionError("values matrix must have a unit diagonal")
    if np.any(np.abs(v - v.T) > TOL):
        raise ConstructionError("values matrix must be symmetric")
    upper = v[np.arange(n)[:, None] < np.arange(n)]  # the pairs i < j in order
    # a NaN makes min or max NaN, which fails the comparison too
    if upper.size and not (upper.min() >= 0.0 and upper.max() < 1.0):
        k = int(np.argmax(~((upper >= 0.0) & (upper < 1.0))))
        i, j = (int(idx[k]) for idx in pair_indices(n))
        raise ConstructionError(
            f"off-diagonal value for ({labels[i]}, {labels[j]}) must lie in [0, 1), got {float(upper[k])}"
        )
    # each value is in [0, 1): one value, the canonical form of a step
    return FuzzySpace(name, labels, norm, tuple(Step._canonical((), (c,)) for c in upper.tolist()))


def make_step_space(
    labels: Sequence[str],
    pair_steps: dict[tuple[int, int], Step],
    norm: TNorm,
    name: str = "",
) -> FuzzySpace:
    """Space with piecewise-constant pair values given per unordered pair {i, j}."""
    labels = tuple(labels)
    n = len(labels)
    entries: dict[tuple[int, int], Step] = {}
    for (i, j), step in pair_steps.items():
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ConstructionError(f"bad pair indices ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in entries:
            raise ConstructionError(f"duplicate entry for pair {key}")
        if not isinstance(step, Step):
            raise ConstructionError("pair entries must be Step functions")
        entries[key] = step
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in entries:
                raise ConstructionError(f"missing entry for pair ({i}, {j})")
            pairs.append(entries[(i, j)])
    return FuzzySpace(name, labels, norm, tuple(pairs))


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class AxiomReport(Report):
    """Pass/fail per axiom with the worst triangle residual and its witness.

    ``na1_residual`` is the minimum over grid t and ordered triples (i, j, k)
    of M(i,k,t) - T(M(i,j,t), M(j,k,t)); nonnegative residual means the
    non-Archimedean triangle inequality holds on the grid.  ``km1``, ``km2``
    (separation), ``km3`` and ``km5`` are structural: a ``FuzzySpace`` cannot
    be built with a pair that never drops below 1, so ``km2`` is always true.
    """

    km1: bool
    km2: bool
    km3: bool
    km5: bool
    na1: bool
    na2: bool
    na1_residual: float
    witness: Optional[tuple[int, int, int, float]]
    grid: tuple[float, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return self.km1 and self.km2 and self.km3 and self.km5 and self.na1 and self.na2

    @classmethod
    def of(cls, g: GridSpec, tol: float, worst: float, na2: bool, witness=None) -> "AxiomReport":
        """The report of a check on ``g`` with this worst residual, monotonicity and witness."""
        return cls(km1=True, km2=True, km3=True, km5=True, na1=worst >= -tol, na2=na2,
                   na1_residual=worst, witness=witness, grid=g.values, tol=tol)

    def as_dict(self) -> dict:
        doc = super().as_dict().items()
        return {("grid_size" if k == "grid" else k): (len(v) if k == "grid" else v) for k, v in doc}


def _row_blocks(n: int, T: int) -> list[tuple[int, int, int]]:
    """(i0, i1, jb): the blocks of rows i of the triangle scan, and the rows j
    per chunk.  A block reads the columns k >= i0; each chunk of
    (i1 - i0) * jb * (n - i0) * T floats fits ``_BLOCK``, or is one row j
    of (n - i0) * T floats once that exceeds it."""
    blocks, i0 = [], 0
    while i0 < n:
        row = n * (n - i0) * T
        i1 = min(n, i0 + max(1, _BLOCK // row))
        blocks.append((i0, i1, n if row <= _BLOCK else max(1, _BLOCK // ((n - i0) * T))))
        i0 = i1
    return blocks


def _block_residual(W: np.ndarray, norm: TNorm, i0: int, i1: int, jb: int, buf: np.ndarray) -> np.ndarray:
    """(i1 - i0, n - i0, T) minimum over j of the residual at (i, k >= i0, t)
    of the (n, n, T) value array W, as V(i, k) - outer(max_j inner(V(i, j), V(j, k))).

    ``TNorm.outer`` and rounding are monotone, so this equals the minimum
    over j of the residual computed term by term, bit for bit.  The rows j
    go through ``buf`` in chunks of ``jb`` that feed a running maximum.
    """
    n, _, T = W.shape
    best = None
    for j0 in range(0, n, jb):
        j1 = min(j0 + jb, n)
        blk = buf[: (i1 - i0) * (j1 - j0) * (n - i0) * T].reshape(i1 - i0, j1 - j0, n - i0, T)
        norm.inner(W[i0:i1, j0:j1, None, :], W[None, j0:j1, i0:, :], out=blk)
        top = blk.max(axis=1)
        best = top if best is None else np.maximum(best, top, out=best)
    return np.subtract(W[i0:i1, i0:], norm.outer(best, out=best), out=best)


def triangle_residual(V: np.ndarray, norm: TNorm, tol: float) -> tuple[float, Optional[tuple[int, int]]]:
    """Worst residual M(i,k,t) - T(M(i,j,t), M(j,k,t)) of a (T, n, n) value
    array and, when it lies below -tol, the first (t, i), in C order, of
    its positions, for ``triangle_witness``.

    One max-T product per block of rows i: each element of the (T, n, n, n)
    residual is one write and one max-reduce, never materialised.  V is
    symmetric and the norm commutative, so the residual at (i, j, k) is the
    one at (k, j, i): the rows i <= k reach every value, and a block of rows
    from i0 reads the columns k >= i0 only.  The first position has i <= k
    (its mirror would come earlier), so the first (t, i) with a hit over the
    blocks that reach the worst value is its (t, i), read off each block's
    own residual.  The scan runs over the transposed (n, n, T) array,
    contiguous for the output of ``slices_at``, so t runs innermost.  The
    buffer holds at most ``_BLOCK`` floats (one (n, T) row once that
    exceeds it).
    """
    W = V.transpose(1, 2, 0)
    n, _, T = W.shape
    blocks = _row_blocks(n, T)
    buf = np.empty(max((i1 - i0) * jb * (n - i0) * T for i0, i1, jb in blocks))
    worst, first = np.inf, None
    for i0, i1, jb in blocks:
        R = _block_residual(W, norm, i0, i1, jb, buf)
        value = float(R.min())
        if value <= worst and not value >= -tol:
            hit = (R == value).any(axis=1)
            t, di = np.unravel_index(int(np.argmax(hit.T)), (T, i1 - i0))
            at = (int(t), i0 + int(di))
            first = min(first, at) if value == worst else at
        worst = min(worst, value)
    return worst, first


def triangle_witness(V: np.ndarray, norm: TNorm, worst: float, first: tuple[int, int]) -> tuple[int, int, int, int]:
    """First position (tpos, i, j, k), in C order, of ``worst`` in the
    residual of V: the first (t, i) ``triangle_residual`` found, then the
    first (j, k) of that row and slice, in chunks of rows j of at most
    ``_BLOCK`` floats."""
    W = V.transpose(1, 2, 0)
    n = W.shape[0]
    t, i = first
    step = max(1, _BLOCK // n)
    for j0 in range(0, n, step):
        r = W[i, :, t] - norm.array(W[i, j0 : j0 + step, t, None], W[j0 : j0 + step, :, t])
        pos = np.flatnonzero(r == worst)
        if pos.size:
            dj, k = divmod(int(pos[0]), n)
            return t, i, j0 + dj, k
    raise AssertionError("the worst residual lies in its row")


#: the unit roundoff of float64
_U = 2.0 ** -53
#: the fewest points of a block decided from its distances: with fewer than
#: 3 no j lies outside {i, k}, and on 4-5 points the dense scan of the 64
#: default slices costs about as much as the certificate's dozen array
#: calls, or less (under Lukasiewicz); from 6 points the
#: certificate wins under both norms (``timeit`` on 3-10 point blocks)
_CERTIFY_MIN = 6


def _dominated(dist: np.ndarray, n: int, ts: np.ndarray, kind: str) -> bool:
    """Whether, at every scale of the sorted ts, every term j outside {i, k}
    of the max-T product of t/(t + d) computes to at most the term j = i, for
    the n points whose pair distances, in ``FuzzySpace.pairs`` order, are
    ``dist``: a floating-point filter (Shewchuk, Discrete Comput. Geom. 18,
    1997) on the distances alone.

    Minimum: max(a, b) >= c for a, b, c = d_ij, d_jk, d_ik; exact, since
    rounding is monotone.  Product and Lukasiewicz: the computed a + b is at
    least c for every triple, so the slack s = a + b - c exceeds -e_s with
    e_s = 12u d_max, and the real gap, (t s + ab) / ((t + a)(t + b)) = 1 - AB/C
    under product and (s t^2 + 2ab t + abc) / ((t + a)(t + b)(t + c)) =
    1 + C - A - B under Lukasiewicz, is at least 64u at the largest scale,
    where its lower bound is least.  That dwarfs the at most 7u (product)
    and 9u (Lukasiewicz) rounding error of the values and one operation.
    Under product the values stay at least 2^-500, so products stay normal.
    The O(n^3) pass goes in blocks of rows of at most ``_BLOCK`` floats (one
    row once a row exceeds it), the minimum over j of each (i, k) read off
    the contiguous rows i and k.
    """
    lo, hi = float(dist.min()), float(dist.max())
    t_lo, t_hi = float(ts[0]), float(ts[-1])
    e_s, top = 12.0 * _U * hi, t_hi + hi
    if kind == "product" and not (
        t_lo / (t_lo + hi) >= 2.0 ** -500 and (lo * lo - t_hi * e_s) / (top * top) >= 64.0 * _U
    ):
        return False
    if kind == "lukasiewicz" and not (lo * lo * lo - e_s * t_hi * t_hi) / (top * top * top) >= 64.0 * _U:
        return False
    d = np.zeros((n, n))
    rows, cols = pair_indices(n)
    d[rows, cols] = d[cols, rows] = dist
    inner = np.maximum if kind == "minimum" else np.add
    step = max(1, _BLOCK // (n * n))
    buf = np.empty(min(step, n) * n * n)
    for i0 in range(0, n, step):
        # (i, j, k) and (k, j, i) give the same bits: the columns k >= i0
        # suffice; d is symmetric, so the terms j run along the rows i and k
        rows = d[i0 : i0 + step]
        lhs = buf[: len(rows) * (n - i0) * n].reshape(len(rows), n - i0, n)
        if (inner(rows[:, None, :], d[None, i0:], out=lhs).min(axis=2) < rows[:, i0:]).any():
            return False
    return True


def certified_check(space: FuzzySpace, ts: np.ndarray, tol: float) -> Optional[tuple[float, bool]]:
    """(worst triangle residual, whether every pair value is nondecreasing
    within tol) of ``space`` at the scales ts, from one streamed pass over
    its ``PairTable``, when every entry is ``Standard`` and the distances
    certify that the terms j outside {i, k} are dominated (``_dominated``);
    None otherwise, and for a space of fewer than ``_CERTIFY_MIN`` points.

    The maximum over j is then the term j = i (j = k gives its bits), so the
    residual at (t, i, k) is v - outer(inner(1, v)) for v = M(i, k, t): bit for
    bit the worst of ``triangle_residual`` on the slices.  Under product and
    minimum it is v - v = 0, so only Lukasiewicz computes it.  On the
    diagonal v = 1 at every scale: the residual is 0, as is each step.  Each
    block holds at most ``_BLOCK`` values (one pair's once the scales exceed
    it), so the memory beyond the distances is fixed.
    """
    table, kind = space._table, space.norm.kind
    if space.n < _CERTIFY_MIN or len(table.standard) < table.size:
        return None
    if not _dominated(table.distances, space.n, ts, kind):
        return None
    worst, monotone = 0.0, len(ts) < 2 or tol >= 0.0
    for _, P in table.blocks(ts, max(1, _BLOCK // len(ts))):
        monotone = monotone and bool((P[1:] - P[:-1] >= -tol).all())
        if kind == "lukasiewicz":
            best = 1.0 + P
            worst = min(worst, float(np.subtract(P, space.norm.outer(best, out=best), out=best).min()))
    return worst, monotone


def check_axioms(space: FuzzySpace, grid: Optional[GridSpec] = None, tol: float = TOL) -> AxiomReport:
    """Verify the fuzzy-metric axioms on the grid merged with all breakpoints.

    Vanishing at zero, symmetry, left continuity and separation hold
    structurally.  Only the grid points whose slice may differ from the one
    before are read (``scan_points``).  A space of ``Standard`` entries whose
    distances certify it is checked in one streamed pass over its pair
    values (``certified_check``), with no slice tensor; otherwise, and for
    the witness of a residual below -tol, ``axiom_report`` checks its
    slices.  For piecewise-constant spaces the merged grid makes the
    triangle check exact, otherwise it is grid-certified.
    """
    g, fresh, ts = scan_points(grid, space.breakpoints(), space.all_steplike())
    streamed = certified_check(space, ts, tol)
    if streamed is not None and streamed[0] >= -tol:
        return AxiomReport.of(g, tol, *streamed)
    return axiom_report(slices_at(space, ts), g, fresh, space.norm, tol)


def axiom_report(V: np.ndarray, g: GridSpec, fresh: np.ndarray, norm: TNorm, tol: float) -> AxiomReport:
    """The axiom report of the (F, n, n) slices V at the points ``fresh`` of ``g``.

    Monotonicity is re-checked numerically between consecutive slices, and
    the pointwise triangle inequality over all ordered triples at each.  A
    point left out of ``fresh`` repeats a read slice one bit for bit, so its
    step is zero, the residual and its first witness are those of the full
    scan, and the witness scale is the first grid point of its run.
    ``check_axioms`` and ``validate_union`` build V and call this only when
    their passes over the blocks (``certified_check``, ``glued_check``) do
    not decide the report.
    """
    worst, first = triangle_residual(V, norm, tol)
    witness = None
    if first is not None:
        tpos, i, j, k = triangle_witness(V, norm, worst, first)
        witness = (i, j, k, float(g.values[fresh[tpos]]))
    return AxiomReport.of(g, tol, worst, _monotone(V, tol), witness)


def _monotone(V: np.ndarray, tol: float) -> bool:
    """Whether no value of the (F, n, n) slices V drops by more than tol
    from one slice to the next: structural for each representation,
    re-checked numerically in blocks of rows i through one buffer of at most
    ``_BLOCK`` floats (one row once a row exceeds it)."""
    W = V.transpose(1, 2, 0)
    T, n, _ = V.shape
    blk = max(1, _BLOCK // (n * T))
    buf = np.empty((min(blk, n), n, T - 1))
    for i0 in range(0, n, blk):
        w = W[i0 : i0 + blk]
        if not (np.subtract(w[..., 1:], w[..., :-1], out=buf[: len(w)]) >= -tol).all():
            return False
    return True


def glued_check(x: FuzzySpace, y: FuzzySpace, ts: np.ndarray, tol: float, c: np.ndarray) -> tuple[float, bool]:
    """(worst triangle residual, whether every value is nondecreasing within
    tol) at the scales ts of the union of x and y whose every cross value in
    slice t is c[t], from its two sides alone: bit for bit the worst of
    ``triangle_residual`` and the verdict of ``axiom_report`` on the union's
    slices, which are never built.

    Each side is checked on its own: a side of one point holds only the
    triple (i, i, i), whose residual 1 - T(1, 1) is 0; a side its
    distances certify is streamed (``certified_check``); any other side's
    own slices are scanned; each holds the diagonal's 0.  Every j across
    adds T(c_t, c_t) to the maximum over j, and ``TNorm.outer`` and
    correctly rounded ``-`` are monotone, so v - outer(max(a, b)) =
    min(v - outer(a), v - outer(b)): those terms add the side's t-diameter
    (1 for a point) minus T(c_t, c_t).  A triple whose i and k lie across
    takes the closed form c_t - T(1, c_t): the diagonal is 1, every value
    lies in [0, 1], and correctly rounded ``*``, ``+`` and ``min`` are
    monotone, so no j beats j = i.
    """
    across = x.norm.array(c, c)
    worst = float((c - x.norm.array(1.0, c)).min())
    monotone = bool((c[1:] - c[:-1] >= -tol).all())
    for sp in (x, y):
        if sp.n == 1:
            checked, diameter = (0.0, len(ts) < 2 or tol >= 0.0), 1.0
        elif (checked := certified_check(sp, ts, tol)) is not None:
            diameter = sp._table.minimum(ts)
        else:
            V = slices_at(sp, ts)  # t runs fastest: reduce i, then k
            checked, diameter = (triangle_residual(V, sp.norm, tol)[0], _monotone(V, tol)), V.min(axis=1).min(axis=1)
            del V  # one side's slices at a time
        worst = min(worst, checked[0], float((diameter - across).min()))
        monotone = monotone and checked[1]
    return worst, monotone


def t_diameter(space: FuzzySpace, t: float) -> float:
    """Minimum pair value at scale t; 1 for a single point."""
    return float(space._table.minimum(np.array([require_positive(t, "t")]))[0])


def t_diameters(space: FuzzySpace, grid: GridSpec) -> np.ndarray:
    """t_diameter at every grid point, in closed form on the space's
    ``PairTable`` (``PairTable.minimum``)."""
    return space._table.minimum(grid.array())


def floor_envelope(x: FuzzySpace, y: FuzzySpace, grid: Optional[GridSpec] = None) -> ValueFn:
    """Pointwise min of both t-diameters, as a value function read from the
    two spaces' ``PairTable``s: ``Standard(max d)`` when neither holds a
    step, else the step lower envelope on the merged breakpoints, plus the
    certification grid when an entry is ``Standard``.  On each (a, b] the
    infimum of a left-continuous nondecreasing function is its right limit
    at a: the tables' ``step_minimum`` at b (at inf past the last point),
    and a / (a + max d).  Exact when every entry is a step, sound from below
    otherwise."""
    tx, ty = x._table, y._table
    d = [*tx.distances.tolist(), *ty.distances.tolist()]
    if d and not (tx.steps or ty.steps):
        return Standard(max(d))
    pts = sorted({*x.breakpoints(), *y.breakpoints(), *(certification_grid(grid, x, y) if d else ())})
    right = np.array([*pts, np.inf])
    env = np.minimum(tx.step_minimum(right), ty.step_minimum(right))
    if d:
        a = np.array([0.0, *pts])
        np.minimum(env, a / (a + max(d)), out=env)
    return Step(pts, env.tolist())


# ---------------------------------------------------------------------------
# relation search and isometry


def _covering_clique(ok: np.ndarray, nx: int, ny: int, budget: int) -> tuple[Optional[int], int]:
    """(bitmask of cells w = p * ny + q pairwise compatible under the (k, k)
    boolean ``ok`` that meets every row p and column q, or None; nodes).

    The relation search behind the GH distances and isometry.  Branches over
    the compatible cells, in index order, of the first row (then column) not
    met, and fails as soon as a line not met has no compatible cell left.
    Raises ``SizeLimitError`` past ``budget`` nodes.
    """
    row, col = (1 << ny) - 1, sum(1 << p * ny for p in range(nx))
    lines = [row << p * ny for p in range(nx)] + [col << q for q in range(ny)]
    adj = [int.from_bytes(r.tobytes(), "little") for r in np.packbits(ok, 1, bitorder="little")]
    nodes = 0

    def extend(chosen: int, cand: int) -> Optional[int]:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SizeLimitError("relation search exceeded its node budget")
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


def is_isometric(
    a: FuzzySpace,
    b: FuzzySpace,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> Optional[tuple[int, ...]]:
    """The first permutation, in lexicographic order, matching all pair values
    on the grid, or None.

    The comparison grid merges both spaces' breakpoints, so piecewise-constant
    spaces are compared exactly; analytic entries are grid-certified.  Only
    the grid points where the slice of either space may change are compared
    (``scan_points``); the others repeat a compared pair of slices.  Cells
    (i, p) and (j, q) are compatible when M_a(i, j) and M_b(p, q) agree within
    tol on the grid and the cells share a row exactly when they share a
    column, so a relation search over them finds a permutation.  Holds
    O(n^4) booleans; the value gaps are taken in blocks of rows i of at most
    ``_BLOCK`` floats (one row once a row exceeds it).  Raises
    ``SizeLimitError`` past the search's node budget.
    """
    if a.norm.kind != b.norm.kind:
        raise DomainError("isometry testing requires the same t-norm kind")
    if a.n != b.n:
        return None
    _, _, ts = scan_points(grid, [*a.breakpoints(), *b.breakpoints()], a.all_steplike() and b.all_steplike())
    n = a.n
    # contiguous slices: the gaps below step through them one t at a time
    va, vb = (np.ascontiguousarray(slices_at(sp, ts)) for sp in (a, b))
    same = np.eye(n, dtype=bool)
    ok = np.empty((n, n, n, n), dtype=bool)  # [i, p, j, q]
    step = max(1, _BLOCK // n ** 3)
    buf = np.empty(min(n, step) * n ** 3)
    agree = np.empty(len(buf), dtype=bool)
    for i0 in range(0, n, step):
        blk = ok[i0 : i0 + step]
        np.equal(same[i0 : i0 + step, None, :, None], same[None, :, None, :], out=blk)
        gap = buf[: blk.size].reshape(blk.shape)
        within = agree[: blk.size].reshape(blk.shape)
        for sa, sb in zip(va, vb):
            np.subtract(sa[i0 : i0 + step, None, :, None], sb[None, :, None, :], out=gap)
            blk &= np.less_equal(np.abs(gap, out=gap), tol, out=within)
    found, _ = _covering_clique(ok.reshape(n * n, n * n), n, n, _CLIQUE_NODE_BUDGET)
    return None if found is None else tuple(w % n for w in range(n * n) if found >> w & 1)
