"""Nets, minimal covers and cover numbers for finite fuzzy metric spaces.

A (t, eps)-net is a subset whose points cover the space by open balls
B(y, eps, t) = {x : M(x, y, t) > 1 - eps}; the cover number is the minimum
net cardinality.  Ball membership is strict, so boundary similarities do not
cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Sequence

import numpy as np

from .errors import DomainError, SizeLimitError
from .space import FuzzySpace
from .util import TOL, Report, require_open_unit, require_positive

DEFAULT_EXACT_LIMIT = 15


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


def check_exact_limit(exact_limit: int) -> None:
    """Refuse an ``exact_limit`` outside 0..DEFAULT_EXACT_LIMIT: the
    exhaustive search has no budget beyond 2^15 subsets."""
    if exact_limit < 0:
        raise DomainError(f"exact_limit must be >= 0, got {exact_limit!r}")
    if exact_limit > DEFAULT_EXACT_LIMIT:
        raise SizeLimitError(f"exact_limit must be <= {DEFAULT_EXACT_LIMIT}, got {exact_limit!r}")


def _min_cover(cov: np.ndarray, exact_limit: int) -> tuple[tuple[int, ...], bool]:
    """(cover, minimal) of a boolean coverage matrix ``cov[x, y]``: the
    lexicographically least minimum cover up to ``exact_limit`` points, a
    greedy one beyond (``check_exact_limit``).

    The exact search holds each column y as an int whose bit x is cov[x, y]:
    a subset covers when the OR of its columns has all n bits set.
    """
    check_exact_limit(exact_limit)
    n = len(cov)
    if n <= exact_limit:
        cols = [int.from_bytes(c.tobytes(), "little") for c in np.packbits(cov.T, axis=1, bitorder="little")]
        full = (1 << n) - 1
        for k in range(1, n + 1):
            for subset, masks in zip(combinations(range(n), k), combinations(cols, k)):
                if reduce(or_, masks) == full:
                    return subset, True
        # every point covers itself, so this is unreachable
        raise AssertionError("self-coverage guarantees a cover")
    # greedy set cover: repeatedly take the point covering most uncovered points
    uncovered = np.ones(n, dtype=bool)
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
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    tol: float = TOL,
) -> NetCertificate:
    """Minimum-cardinality net when n <= exact_limit, else a greedy cover.

    The exact search enumerates subsets by increasing size in lexicographic
    order, so the certificate is the lexicographically least minimal net.
    """
    require_positive(t, "t")
    require_open_unit(eps, "eps")
    cov = coverage(space.at(t), 1.0 - eps, tol)
    net, minimal = _min_cover(cov, exact_limit)
    return NetCertificate(t, eps, net, _witnesses(cov, net), minimal)


def cover_number(
    space: FuzzySpace,
    eps: float,
    t: float,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    tol: float = TOL,
) -> tuple[int, NetCertificate]:
    """Minimum number of balls B(c, eps, t) covering the space, with certificate.

    Argument order is (eps, t): the ball parameter first, then the scale.
    """
    cert = find_net(space, t, eps, exact_limit=exact_limit, tol=tol)
    return len(cert.indices), cert


def uniform_cover_bound(
    spaces: Sequence[FuzzySpace],
    eps: float,
    t: float,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> int:
    """Smallest uniform bound on the cover numbers of a finite family."""
    if not spaces:
        raise DomainError("family must be nonempty")
    return max(cover_number(sp, eps, t, exact_limit=exact_limit)[0] for sp in spaces)


def metric_cover_number(
    distances,
    radius: float,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    tol: float = TOL,
) -> int:
    """Classical covering number with strict open balls {y : d(c, y) < radius}."""
    d = np.asarray(distances, dtype=float)
    require_positive(radius, "radius")
    cov = d < radius - tol
    np.fill_diagonal(cov, True)
    return len(_min_cover(cov, exact_limit)[0])
