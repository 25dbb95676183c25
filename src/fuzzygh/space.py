"""Finite fuzzy metric spaces, axiom verification, t-diameter, the relation
search and isometry testing.

A space stores one value function per unordered off-diagonal pair; the
diagonal is implicit (1 for t > 0, 0 at t = 0), which builds the symmetry and
self-identity axioms into the representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, SizeLimitError
from .grids import GridSpec
from .tnorm import TNorm, tn_check_axioms
from .util import TOL
from .valuefn import (
    ONE,
    Standard,
    Stationary,
    Step,
    ValueFn,
    attains_below_one,
    is_steplike,
    vf_breakpoints,
    vf_min,
)

#: floats in the block buffer of the O(n^3) triangle scans (2 MiB of float64)
_BLOCK = 1 << 18
#: backtracking nodes one relation search may visit
_CLIQUE_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class FuzzySpace:
    """Finite point set with a t-norm and per-pair value functions.

    ``pairs`` lists the off-diagonal entries in lexicographic (i < j) order.
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
        for idx, f in enumerate(self.pairs):
            if not attains_below_one(f):
                i, j = _unrank_pair(idx, n)
                raise ConstructionError(
                    f"pair ({self.labels[i]}, {self.labels[j]}) never drops below 1; "
                    "distinct points must be separated"
                )

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
        return _grid_values_cached(self, grid)

    def breakpoints(self) -> tuple[float, ...]:
        out: set[float] = set()
        for f in self.pairs:
            out.update(vf_breakpoints(f))
        return tuple(sorted(out))

    def all_steplike(self) -> bool:
        return all(is_steplike(f) for f in self.pairs)

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


def _unrank_pair(idx: int, n: int) -> tuple[int, int]:
    for i in range(n):
        row = n - i - 1
        if idx < row:
            return i, i + 1 + idx
        idx -= row
    raise IndexError(idx)


def _pair_values(space: FuzzySpace, ts: np.ndarray) -> np.ndarray:
    # (T, P) values of ``pairs`` at the scales ts, one array expression per
    # representation; the scales are positive, so the t = 0 branch of
    # eval_array never applies
    vals = np.empty((len(ts), len(space.pairs)))
    standard: list[int] = []
    steps: dict[tuple[float, ...], list[int]] = {}
    for idx, f in enumerate(space.pairs):
        if isinstance(f, Standard):
            standard.append(idx)
        elif isinstance(f, Stationary):
            vals[:, idx] = f.c
        else:
            steps.setdefault(f.breakpoints, []).append(idx)
    if standard:
        d = np.array([space.pairs[idx].d for idx in standard])
        vals[:, standard] = ts[:, None] / (ts[:, None] + d)
    for bps, group in steps.items():
        pos = np.searchsorted(bps, ts, side="left")
        table = np.array([space.pairs[idx].values for idx in group])
        vals[:, group] = table[:, pos].T
    return vals


def slices_at(space: FuzzySpace, ts: np.ndarray) -> np.ndarray:
    """(T, n, n) array of M(., ., s) at the positive scales ts, diagonal 1
    (not cached, unlike ``grid_values``)."""
    vals = _pair_values(space, ts)
    n = space.n
    out = np.ones((len(ts), n, n))
    # the pairs (i < j) in lexicographic order, as in ``pairs``
    rows, cols = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    out[:, rows, cols] = vals
    out[:, cols, rows] = vals
    return out


@lru_cache(maxsize=512)
def _grid_values_cached(space: FuzzySpace, grid: GridSpec) -> np.ndarray:
    out = slices_at(space, grid.array())
    out.setflags(write=False)
    return out


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
    merge: list[float] = list(extra)
    bps: list[float] = []
    for sp in spaces:
        bps.extend(sp.breakpoints())
    if bps:
        top = max(bps)
        merge.extend(bps)
        merge.append(top * 1.5 + 1.0)
    return g.merged(merge)


# ---------------------------------------------------------------------------
# constructors


def _validate_norm(norm: TNorm) -> TNorm:
    if not norm.is_builtin:
        report = tn_check_axioms(norm, [0.0, 0.25, 0.5, 0.75, 1.0])
        if not report.passed:
            raise ConstructionError(
                f"custom t-norm {norm.kind!r} fails the axiom check: {report.as_dict()}"
            )
    return norm


def validate_distance_matrix(distances, tol: float = 1e-9) -> np.ndarray:
    """Check finiteness, symmetry, zero diagonal, positivity and the triangle inequality."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ConstructionError("distance matrix must be square")
    if not np.isfinite(d).all():
        raise ConstructionError("distance matrix entries must be finite")
    n = d.shape[0]
    if np.any(np.abs(np.diag(d)) > tol):
        raise ConstructionError("distance matrix must have zero diagonal")
    if np.any(np.abs(d - d.T) > tol):
        raise ConstructionError("distance matrix must be symmetric")
    bad = ~(d > 0.0)
    np.fill_diagonal(bad, False)
    if bad.any():
        upper = np.triu(bad, 1)  # only pairs i < j count, as in the loop over them
        if upper.any():
            i, j = divmod(int(np.argmax(upper)), n)
            raise ConstructionError(f"distance between points {i} and {j} must be positive")
    # d[i, k] > d[i, j] + d[j, k] + tol over blocks of rows i; the first
    # violation in C order is the first triple of the loop over (i, j, k)
    step = max(1, _BLOCK // max(1, n * n))
    for i0 in range(0, n, step):
        rows = d[i0 : i0 + step]
        viol = rows[:, None, :] > rows[:, :, None] + d + tol
        if viol.any():
            di, j, k = np.unravel_index(int(np.argmax(viol)), viol.shape)
            i, j, k = i0 + int(di), int(j), int(k)
            raise ConstructionError(
                f"triangle inequality fails on ({i}, {j}, {k}): "
                f"{d[i, k]} > {d[i, j]} + {d[j, k]}"
            )
    return d


def make_standard_space(
    labels: Sequence[str],
    distances,
    norm: TNorm,
    name: str = "",
) -> FuzzySpace:
    """Space with pair values t/(t+d) induced by a classical metric."""
    labels = tuple(labels)
    d = validate_distance_matrix(distances)
    if d.shape[0] != len(labels):
        raise ConstructionError("label count does not match the distance matrix")
    pairs = tuple(
        Standard(float(d[i, j]))
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    )
    return FuzzySpace(name, labels, _validate_norm(norm), pairs)


def make_stationary_space(
    labels: Sequence[str],
    values,
    norm: TNorm,
    name: str = "",
) -> FuzzySpace:
    """Space with t-independent pair values; the triangle axiom is *not* checked here."""
    labels = tuple(labels)
    v = np.asarray(values, dtype=float)
    n = len(labels)
    if v.shape != (n, n):
        raise ConstructionError("values matrix shape does not match labels")
    if np.any(np.abs(v - v.T) > TOL):
        raise ConstructionError("values matrix must be symmetric")
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            c = float(v[i, j])
            if not 0.0 <= c < 1.0:
                raise ConstructionError(
                    f"off-diagonal value for ({labels[i]}, {labels[j]}) must lie in [0, 1), got {c}"
                )
            pairs.append(Stationary(c))
    return FuzzySpace(name, labels, _validate_norm(norm), tuple(pairs))


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
    return FuzzySpace(name, labels, _validate_norm(norm), tuple(pairs))


# ---------------------------------------------------------------------------
# axiom verification


@dataclass(frozen=True)
class AxiomReport:
    """Pass/fail per axiom with the worst triangle residual and its witness.

    ``na1_residual`` is the minimum over grid t and ordered triples (i, j, k)
    of M(i,k,t) - M(i,j,t) * M(j,k,t); nonnegative residual means the
    non-Archimedean triangle inequality holds on the grid.
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

    def as_dict(self) -> dict:
        return {
            "km1": self.km1,
            "km2": self.km2,
            "km3": self.km3,
            "km5": self.km5,
            "na1": self.na1,
            "na2": self.na2,
            "na1_residual": self.na1_residual,
            "witness": list(self.witness) if self.witness is not None else None,
            "grid_size": len(self.grid),
            "tol": self.tol,
            "passed": self.passed,
        }


def triangle_residual(V: np.ndarray, norm: TNorm) -> tuple[float, tuple[int, int, int, int]]:
    """Worst residual M(i,k,t) - T(M(i,j,t), M(j,k,t)) of a (T, n, n) value
    array, with its first position (tpos, i, j, k) in C order.

    The (T, n, n, n) residual is never materialised: it is scanned in blocks
    of whole t-slices, or of rows i within one slice, or of rows j within one
    (t, i) when a single slice exceeds the buffer.  Each block is written into
    one buffer of at most ``_BLOCK`` floats (``n`` floats once n > _BLOCK) and
    scanned by a single argmin, so the memory beyond V itself is fixed.
    Blocks follow C order and only a strictly smaller minimum replaces the
    running one, so the position is the first argmin of the full residual.
    """
    T, n, _ = V.shape
    if n ** 3 <= _BLOCK:
        tb, ib, jb = max(1, _BLOCK // n ** 3), n, n
    elif n * n <= _BLOCK:
        tb, ib, jb = 1, _BLOCK // (n * n), n
    else:
        tb, ib, jb = 1, 1, max(1, _BLOCK // n)
    buf = np.empty(min(T, tb) * min(n, ib) * min(n, jb) * n)
    worst, first = np.inf, None
    for t0 in range(0, T, tb):
        t1 = min(t0 + tb, T)
        for i0 in range(0, n, ib):
            i1 = min(i0 + ib, n)
            for j0 in range(0, n, jb):
                j1 = min(j0 + jb, n)
                a = V[t0:t1, i0:i1, j0:j1, None]  # M(i, j)
                b = V[t0:t1, None, j0:j1, :]  # M(j, k)
                shape = (t1 - t0, i1 - i0, j1 - j0, n)
                blk = buf[: (t1 - t0) * (i1 - i0) * (j1 - j0) * n].reshape(shape)
                _norm_into(norm, a, b, blk)
                np.subtract(V[t0:t1, i0:i1, None, :], blk, out=blk)
                pos = int(blk.argmin())
                value = float(blk.flat[pos])
                if first is None or value < worst:
                    worst, first = value, (t0, i0, j0, shape, pos)
    t0, i0, j0, shape, pos = first
    dt, di, dj, k = np.unravel_index(pos, shape)
    return worst, (t0 + int(dt), i0 + int(di), j0 + int(dj), int(k))


def _norm_into(norm: TNorm, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = norm.array(a, b)``, in place for the built-in norms."""
    if norm.kind == "product":
        np.multiply(a, b, out=out)
    elif norm.kind == "minimum":
        np.minimum(a, b, out=out)
    elif norm.kind == "lukasiewicz":
        np.add(a, b, out=out)
        np.subtract(out, 1.0, out=out)
        np.maximum(out, 0.0, out=out)
    else:
        out[...] = norm.array(a, b)


def check_axioms(space: FuzzySpace, grid: Optional[GridSpec] = None, tol: float = TOL) -> AxiomReport:
    """Verify the fuzzy-metric axioms on the grid merged with all breakpoints.

    Vanishing at zero, symmetry and left continuity hold structurally for the
    three representations; separation and monotonicity are checked per pair;
    the pointwise triangle inequality is checked at every grid t over all
    ordered triples.  For piecewise-constant spaces the merged grid makes the
    triangle check exact, otherwise it is grid-certified.
    """
    g = certification_grid(grid, space)
    km2 = all(attains_below_one(f) for f in space.pairs)
    # monotonicity: structural for each representation, re-checked numerically
    V = space.grid_values(g)
    na2 = bool(np.all(V[1:] - V[:-1] >= -tol)) if len(g) > 1 else True
    worst, (tpos, i, j, k) = triangle_residual(V, space.norm)
    na1 = worst >= -tol
    witness = None if na1 else (i, j, k, float(g.values[tpos]))
    return AxiomReport(
        km1=True,
        km2=km2,
        km3=True,
        km5=True,
        na1=na1,
        na2=na2,
        na1_residual=worst,
        witness=witness,
        grid=g.values,
        tol=tol,
    )


def t_diameter(space: FuzzySpace, t: float) -> float:
    """Minimum pair value at scale t; 1 for a single point."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t!r}")
    if space.n == 1:
        return 1.0
    return min(f.eval(t) for f in space.pairs)


def t_diameters(space: FuzzySpace, grid: GridSpec) -> np.ndarray:
    """t_diameter at every grid point, one array min over the pair values
    (not cached, unlike ``grid_values``)."""
    if space.n == 1:
        return np.ones(len(grid))
    return _pair_values(space, grid.array()).min(axis=1)


def diameter_fn(space: FuzzySpace, grid: Optional[GridSpec] = None) -> ValueFn:
    """The map s -> t_diameter(space, s) as a value function.

    Exact for all-Standard and all-steplike spaces; otherwise the step lower
    envelope on the certification grid (sound from below).
    """
    if space.n == 1:
        return ONE
    g = certification_grid(grid, space)
    return vf_min(list(space.pairs), grid=g.values)


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
    spaces are compared exactly; analytic entries are grid-certified.  Cells
    (i, p) and (j, q) are compatible when M_a(i, j) and M_b(p, q) agree within
    tol on the grid and the cells share a row exactly when they share a
    column, so a relation search over them finds a permutation.  Holds
    O(n^4) booleans and floats; raises ``SizeLimitError`` past the search's
    node budget.
    """
    if a.norm.kind != b.norm.kind:
        raise DomainError("isometry testing requires the same t-norm kind")
    if a.n != b.n:
        return None
    g = certification_grid(grid, a, b)
    n = a.n
    ok = np.ones((n, n, n, n), dtype=bool)  # [i, p, j, q], accumulated one slice at a time
    for va, vb in zip(a.grid_values(g), b.grid_values(g)):
        gap = va[:, None, :, None] - vb[None, :, None, :]
        ok &= np.abs(gap, out=gap) <= tol
    same = np.eye(n, dtype=bool)
    ok &= same[:, None, :, None] == same[None, :, None, :]
    found, _ = _covering_clique(ok.reshape(n * n, n * n), n, n, _CLIQUE_NODE_BUDGET)
    return None if found is None else tuple(w % n for w in range(n * n) if found >> w & 1)
