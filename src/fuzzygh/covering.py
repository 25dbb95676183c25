"""Nets, minimal covers and cover numbers for finite fuzzy metric spaces.

A (t, eps)-net is a subset whose points cover the space by open balls
B(y, eps, t) = {x : M(x, y, t) > 1 - eps}; the cover number is the minimum
net cardinality.  Ball membership is strict, so boundary similarities do not
cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, SizeLimitError
from .space import _CLIQUE_NODE_BUDGET, DistanceMatrix, FuzzySpace, check_distance_entries
from .util import TOL, Report, require_open_unit, require_positive


@dataclass(frozen=True)
class NetCertificate(Report):
    """A verified net: per-point coverage witnesses plus a minimality flag."""

    t: float
    eps: float
    indices: tuple[int, ...]
    coverage: tuple[int, ...]  # coverage[x] = net point with M(x, ., t) > 1 - eps
    minimal: bool

    def as_dict(self) -> dict:
        return {**super().as_dict(), "size": len(self.indices)}

    def verify(self, space: FuzzySpace, tol: float = TOL) -> bool:
        """Re-check coverage independently of the search that produced the net."""
        space.check_index(*self.indices)
        return is_net(space.at(self.t), self.indices, 1.0 - self.eps, tol)


def coverage(rows, threshold: float, tol: float = TOL) -> np.ndarray:
    """Strict ball membership on a block of a t-slice: ``rows[x][y] - threshold > tol``.

    Similarities within ``tol`` of the threshold do not cover.
    """
    return np.asarray(rows, dtype=float) - threshold > tol


def is_net(rows, indices: Sequence[int], threshold: float, tol: float = TOL) -> bool:
    """Whether every row of the t-slice ``rows`` is covered by a column in ``indices``
    (indices already checked against the space)."""
    return bool(coverage(rows, threshold, tol)[:, list(indices)].any(axis=1).all())


def _witnesses(cov: np.ndarray, net: Sequence[int]) -> tuple[int, ...]:
    """The first point of the covering ``net`` whose ball holds each point."""
    cols = np.asarray(net)
    return tuple(cols[np.argmax(cov[:, cols], axis=1)].tolist())


def _least_cover(cols: list[int], n: int) -> tuple[int, ...]:
    """The lexicographically least minimum cover of the n points by the column
    bitsets ``cols``; ``SizeLimitError`` past ``_CLIQUE_NODE_BUDGET`` nodes.

    Deepens the size k and extends each prefix in ``combinations`` order, so
    the first cover found is the least.  A column is tried only while it and
    the later ones can still cover every point (``suffix``), and a prefix is
    extended only while its slots left times the largest ball can hold the
    points it leaves uncovered.
    """
    full = (1 << n) - 1
    suffix = [0] * (n + 1)  # suffix[i]: the OR of the columns i..n-1
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cols[i]
    ball = max(c.bit_count() for c in cols)
    nodes = 0
    for k in range(-(-n // ball), n + 1):  # fewer than n / ball balls hold no cover
        path: list[int] = []
        covers = [0]  # covers[d]: the OR of the first d columns of the path
        i = 0
        while True:
            slots = k - len(path)
            if i <= n - slots and covers[-1] | suffix[i] == full:
                nodes += 1
                if nodes > _CLIQUE_NODE_BUDGET:
                    raise SizeLimitError("cover search exceeded its node budget")
                c = covers[-1] | cols[i]
                if c == full:
                    return (*path, i)
                if (full ^ c).bit_count() <= (slots - 1) * ball:
                    path.append(i)
                    covers.append(c)
                i += 1
            elif path:
                i = path.pop() + 1
                covers.pop()
            else:
                break
    # every point covers itself, so this is unreachable
    raise AssertionError("self-coverage guarantees a cover")


def _min_cover(cov: np.ndarray) -> tuple[tuple[int, ...], bool]:
    """(cover, minimal) of a boolean coverage matrix ``cov[x, y]``: the
    lexicographically least minimum cover, or a greedy one once the exact
    search passes its node budget.

    The exact search holds each column y as an int whose bit x is cov[x, y]:
    a subset covers when the OR of its columns has all n bits set.
    """
    cols = [int.from_bytes(c.tobytes(), "little") for c in np.packbits(cov.T, axis=1, bitorder="little")]
    try:
        return _least_cover(cols, len(cov)), True
    except SizeLimitError:
        pass
    # greedy set cover: repeatedly take the point covering most uncovered points
    uncovered = np.ones(len(cov), dtype=bool)
    net: list[int] = []
    while uncovered.any():
        gains = cov[uncovered].sum(axis=0)
        best = int(np.argmax(gains))  # argmax keeps the lowest index on ties
        if gains[best] == 0:
            raise AssertionError("self-coverage guarantees progress")
        net.append(best)
        uncovered &= ~cov[:, best]
    return tuple(sorted(net)), False


def find_net(
    space: FuzzySpace,
    t: float,
    eps: float,
    tol: float = TOL,
) -> NetCertificate:
    """The lexicographically least minimum-cardinality net, or a greedy cover
    (``minimal`` false) once the exact search passes its node budget."""
    require_positive(t, "t")
    require_open_unit(eps, "eps")
    cov = coverage(space.at(t), 1.0 - eps, tol)
    if not cov.diagonal().all():
        raise DomainError(f"eps = {eps!r} must exceed tol = {tol!r}: no ball holds its own centre")
    net, minimal = _min_cover(cov)
    return NetCertificate(t, eps, net, _witnesses(cov, net), minimal)


def cover_number(
    space: FuzzySpace,
    eps: float,
    t: float,
    tol: float = TOL,
) -> tuple[int, NetCertificate]:
    """Minimum number of balls B(c, eps, t) covering the space, with certificate.

    Argument order is (eps, t): the ball parameter first, then the scale.
    """
    cert = find_net(space, t, eps, tol=tol)
    return len(cert.indices), cert


def uniform_cover_bound(
    spaces: Sequence[FuzzySpace],
    eps: float,
    t: float,
) -> int:
    """Smallest uniform bound on the cover numbers of a finite family."""
    if not spaces:
        raise DomainError("family must be nonempty")
    return max(cover_number(sp, eps, t)[0] for sp in spaces)


def metric_cover_number(
    distances,
    radius: float,
    tol: float = TOL,
) -> int:
    """Classical covering number with strict open balls {y : d(c, y) < radius}.

    ``distances`` is a ``DistanceMatrix``, validated when it was built, or a
    matrix checked as ``validate_distance_matrix`` checks it, except for the
    triangle inequality (``check_distance_entries``)."""
    if isinstance(distances, DistanceMatrix):
        d = distances.as_array()
    else:
        d = check_distance_entries(distances)
    require_positive(radius, "radius")
    cov = d < radius - tol
    np.fill_diagonal(cov, True)
    return len(_min_cover(cov)[0])
