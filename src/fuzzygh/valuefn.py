"""Closed-form left-continuous nondecreasing value functions [0, inf) -> [0, 1].

Two representations cover every construction in the library:

* ``Step``      -- piecewise constant, value v_k on (b_{k-1}, b_k] with b_0 = 0;
* ``Standard``  -- t / (t + d) for a fixed distance d.

A stationary value function (constant c for t > 0) is a ``Step`` without
breakpoints; ``Stationary(c)`` builds it, and documents write it with the
``stationary`` kind.  Both representations vanish at t = 0 and are exactly
evaluable, which keeps axiom checks exact on step breakpoints.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain, compress
from math import inf
from operator import attrgetter, lt, ne
from typing import ClassVar, Sequence, Union

import numpy as np

from .errors import ConstructionError, DomainError


@dataclass(frozen=True)
class Step:
    """Left-continuous step function: f(t) = values[k] for t in (b_{k-1}, b_k].

    Stored canonically: a breakpoint across which the value does not change
    is dropped, so equal functions compare equal.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(map(float, self.breakpoints))
        vals = tuple(map(float, self.values))
        if len(vals) != len(bps) + 1:
            raise ConstructionError("step needs exactly len(breakpoints)+1 values")
        if bps and not (bps[0] > 0.0 and all(map(lt, bps, bps[1:]))):
            raise ConstructionError("breakpoints must be strictly increasing and positive")
        if bps and not bps[-1] < inf:
            raise ConstructionError("breakpoints must be finite")
        tail = vals[1:]
        in_range = 0.0 <= vals[0] and vals[-1] <= 1.0
        if not (in_range and all(map(lt, vals, tail))):
            # the canonical form drops each breakpoint across which the value
            # stays; its values rise strictly iff all values are nondecreasing
            changes = tuple(map(ne, vals, tail))
            kept = (vals[0], *compress(tail, changes))
            if not (in_range and all(map(lt, kept, kept[1:]))):
                # the first bad value in order, out of range before decreasing
                for prev, v in zip((0.0, *vals), vals):
                    if not 0.0 <= v <= 1.0:
                        raise ConstructionError(f"step value {v!r} outside [0, 1]")
                    if v < prev:
                        raise ConstructionError("step values must be nondecreasing")
            bps, vals = tuple(compress(bps, changes)), kept
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _canonical(cls, breakpoints: tuple[float, ...], values: tuple[float, ...]) -> "Step":
        """The step of parts already in canonical form, not checked again:
        float breakpoints strictly increasing in (0, inf) and one more float
        value, rising strictly within [0, 1]."""
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", breakpoints)
        object.__setattr__(f, "values", values)
        return f

    def eval(self, t: float) -> float:
        if t < 0.0:
            raise DomainError(f"t must be nonnegative, got {t!r}")
        if t == 0.0:
            return 0.0
        return self.values[bisect.bisect_left(self.breakpoints, t)]


@dataclass(frozen=True)
class Standard:
    """f(t) = t / (t + d); the fuzzy value induced by a classical distance d."""

    d: float
    #: no jumps; a class attribute, not a field
    breakpoints: ClassVar[tuple[float, ...]] = ()

    def __post_init__(self):
        if not 0.0 <= self.d < np.inf:
            raise ConstructionError(f"distance must be nonnegative and finite, got {self.d!r}")
        object.__setattr__(self, "d", float(self.d))

    def eval(self, t: float) -> float:
        if t < 0.0:
            raise DomainError(f"t must be nonnegative, got {t!r}")
        if t == 0.0:
            return 0.0
        return t / (t + self.d)


def Stationary(c: float) -> Step:
    """f(t) = c for every t > 0: a step without breakpoints."""
    return Step((), (c,))


ValueFn = Union[Step, Standard]

#: diagonal entry M(x, x, .): 1 for t > 0, 0 at t = 0
ONE: ValueFn = Stationary(1.0)
#: the always-admissible zero cross floor
ZERO: ValueFn = Stationary(0.0)


def is_steplike(f: ValueFn) -> bool:
    """Step functions are piecewise constant, hence exactly combinable."""
    return isinstance(f, Step)


def is_stationary(f: ValueFn) -> bool:
    """A step without breakpoints: constant in t > 0."""
    return isinstance(f, Step) and not f.breakpoints


class PairTable:
    """A list of P value functions grouped by representation: the indices of
    its ``Standard`` entries with one vector of their distances, and per
    breakpoint tuple the indices of its steps with one (m, K + 1) table of
    their values, whose last column holds their limits at infinity.  A
    ``FuzzySpace`` builds the table of its pairs once, at construction;
    ``values`` builds one for any list.  Every read takes positive scales,
    and a last scale ``inf`` reads the limits at infinity.

    Derived from the groups when built: ``breakpoints``, sorted; whether
    every entry is a step (``steplike``); and ``inseparable``, the index of
    the first entry that never drops below 1, or None.
    """

    __slots__ = ("size", "standard", "distances", "steps", "breakpoints", "steplike", "inseparable")

    def __init__(self, fns: Sequence[ValueFn]):
        self.size = size = len(fns)
        keys = [None if f.__class__ is Standard else f.breakpoints for f in fns]
        if size and keys.count(keys[0]) == size:
            groups = {keys[0]: (np.arange(size), fns)}
        else:
            found: dict = {}
            for idx, key in enumerate(keys):
                found.setdefault(key, []).append(idx)
            groups = {key: (np.array(idx), [fns[i] for i in idx]) for key, idx in found.items()}
        # Standard(d) never drops below 1 iff d = 0, a step iff its first value is 1
        bad = []
        standard = groups.pop(None, None)
        if standard is None:
            self.standard, self.distances = _NO_INDICES, _NO_VALUES
        else:
            idx, members = standard
            d = list(map(_distance, members))
            if min(d) <= 0.0:
                bad.append(idx[d.index(0.0)])
            self.standard, self.distances = idx, np.array(d)
        steps = []
        for key, (idx, members) in groups.items():
            flat = list(chain.from_iterable(map(_step_values, members)))
            firsts = flat[:: len(key) + 1]
            if max(firsts) >= 1.0:
                bad.append(idx[firsts.index(1.0)])
            steps.append((np.array(key), idx, np.fromiter(flat, float, len(flat)).reshape(len(idx), -1)))
        #: (breakpoints as an array, indices, table) per breakpoint tuple
        self.steps = tuple(steps)
        self.breakpoints = tuple(sorted(set().union(*groups))) if len(groups) > 1 else next(iter(groups), ())
        self.steplike = standard is None
        self.inseparable = int(min(bad)) if bad else None

    def blocks(self, ts: np.ndarray, step: int):
        """(indices, (T, m) values) at the positive scales ts of at most
        ``step`` entries at a time, one array expression per group; the
        scalar ``eval`` covers t = 0."""
        col = ts[:, None]
        for lo in range(0, len(self.standard), step):
            yield self.standard[lo : lo + step], _ratios(col, self.distances[lo : lo + step])
        for bps, idx, table in self.steps:
            pos = np.searchsorted(bps, ts, side="left")
            for lo in range(0, len(idx), step):
                yield idx[lo : lo + step], table[lo : lo + step, pos].T

    def values(self, ts: np.ndarray) -> np.ndarray:
        """(T, P) array of the entries at the positive scales ts."""
        out = np.empty((len(ts), self.size))
        for idx, block in self.blocks(ts, max(1, self.size)):
            out[:, idx] = block
        return out

    def minimum(self, ts: np.ndarray) -> np.ndarray:
        """(T,) minimum over the entries at the positive scales ts, 1 for
        none: t / (t + max d) on the ``Standard`` entries, since correctly
        rounded ``+`` and ``/`` are monotone, and ``step_minimum`` on the
        steps.  Equal to the minimum of ``values(ts)``, bit for bit."""
        out = self.step_minimum(ts)
        if len(self.distances):
            np.minimum(out, _ratios(ts, self.distances.max()), out=out)
        return out

    def step_minimum(self, ts: np.ndarray) -> np.ndarray:
        """(T,) minimum over the step entries at the positive scales ts, 1
        for none: on each step table the minimum over its rows, read at ts."""
        out = np.ones(len(ts))
        for bps, _, table in self.steps:
            np.minimum(out, table.min(axis=0)[np.searchsorted(bps, ts, side="left")], out=out)
        return out


def _ratios(ts: np.ndarray, d) -> np.ndarray:
    """t / (t + d) at the positive scales ts, a vector or a column; a last
    scale ``inf`` reads the limit 1, apart from the finite ones."""
    if not (ts.size and ts.flat[-1] == inf):
        return ts / (ts + d)
    out = np.ones(np.broadcast_shapes(ts.shape, np.shape(d)))
    np.divide(ts[:-1], ts[:-1] + d, out=out[:-1])
    return out


_distance = attrgetter("d")
_step_values = attrgetter("values")
_NO_INDICES, _NO_VALUES = np.empty(0, dtype=np.intp), np.empty(0)


def values(fns: Sequence[ValueFn], ts: np.ndarray) -> np.ndarray:
    """(T, P) array of fns[p] at the positive scales ts, from the
    ``PairTable`` of fns built on the fly; the scalar ``eval`` covers t = 0."""
    return PairTable(fns).values(ts)
