"""Point-to-set similarity and the Hausdorff fuzzy distance between finite subsets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .covering import coverage
from .errors import DomainError
from .space import FuzzySpace
from .util import TOL, require_open_unit, require_positive


@dataclass(frozen=True)
class SubsetRef:
    """Nonempty sorted set of point indices into one space."""

    space: FuzzySpace
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise DomainError("subset must be nonempty")
        if idx[0] < 0 or idx[-1] >= self.space.n:
            raise DomainError(f"subset indices out of range for n={self.space.n}")

    @classmethod
    def from_labels(cls, space: FuzzySpace, labels: Iterable[str]) -> "SubsetRef":
        return cls(space, tuple(space.index_of(l) for l in labels))


Subset = Union[SubsetRef, Sequence[int]]


def _resolve(space: FuzzySpace, a: Subset) -> tuple[int, ...]:
    if isinstance(a, SubsetRef):
        if a.space is not space:
            raise DomainError("subset belongs to a different space")
        return a.indices
    return SubsetRef(space, tuple(a)).indices


def point_to_set(space: FuzzySpace, x: int, a: Subset, t: float) -> float:
    """max over points of the subset of M(x, ., t) (the finite supremum)."""
    require_positive(t, "t")
    idx = _resolve(space, a)
    space.entry(x, x)  # index validation
    row = space.at(t)[x]
    return max(row[y] for y in idx)


def hausdorff_block(rows) -> float:
    """Hausdorff value of a block of similarities between two point sets, one
    row per point of the first: the min of the row maxima and the column maxima."""
    return min(min(max(row) for row in rows), min(max(col) for col in zip(*rows)))


def _block(space: FuzzySpace, ia: Sequence[int], ib: Sequence[int], t: float) -> list[list[float]]:
    rows = space.at(t)
    return [[rows[x][y] for y in ib] for x in ia]


def hausdorff_fuzzy(space: FuzzySpace, a: Subset, b: Subset, t: float) -> float:
    """min of the two directed infima of point-to-set similarities."""
    require_positive(t, "t")
    ia = _resolve(space, a)
    ib = _resolve(space, b)
    return hausdorff_block(_block(space, ia, ib, t))


def hausdorff_conditions(
    space: FuzzySpace,
    a: Subset,
    b: Subset,
    t: float,
    eps: float,
    tol: float = TOL,
) -> tuple[bool, list[tuple[str, int]]]:
    """Mutual strict (1 - eps)-coverage of the two subsets at scale t.

    Returns (holds, witnesses); each witness names the side ("a" or "b") and
    the uncovered point.  Holds exactly when every point of either subset has
    a partner on the other side with similarity strictly above 1 - eps.
    """
    require_positive(t, "t")
    require_open_unit(eps, "eps")
    ia = _resolve(space, a)
    ib = _resolve(space, b)
    cov = coverage(_block(space, ia, ib, t), 1.0 - eps, tol)
    witnesses = [("a", x) for x, hit in zip(ia, cov.any(axis=1)) if not hit]
    witnesses += [("b", y) for y, hit in zip(ib, cov.any(axis=0)) if not hit]
    return (not witnesses), witnesses
