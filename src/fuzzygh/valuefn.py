"""Closed-form left-continuous nondecreasing value functions [0, inf) -> [0, 1].

Three representations cover every construction in the library:

* ``Step``      -- piecewise constant, value v_k on (b_{k-1}, b_k] with b_0 = 0;
* ``Standard``  -- t / (t + d) for a fixed distance d;
* ``Stationary``-- constant c for t > 0.

All three vanish at t = 0 and are exactly evaluable, which keeps axiom checks
exact on step breakpoints.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConstructionError, DomainError


@dataclass(frozen=True)
class Step:
    """Left-continuous step function: f(t) = values[k] for t in (b_{k-1}, b_k]."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bps) + 1:
            raise ConstructionError("step needs exactly len(breakpoints)+1 values")
        prev = 0.0
        for b in bps:
            if not b > prev:
                raise ConstructionError("breakpoints must be strictly increasing and positive")
            prev = b
        last = -1.0
        for v in vals:
            if not 0.0 <= v <= 1.0:
                raise ConstructionError(f"step value {v!r} outside [0, 1]")
            if v < last:
                raise ConstructionError("step values must be nondecreasing")
            last = v

    def eval(self, t: float) -> float:
        if t < 0.0:
            raise DomainError(f"t must be nonnegative, got {t!r}")
        if t == 0.0:
            return 0.0
        return self.values[bisect.bisect_left(self.breakpoints, t)]

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0):
            raise DomainError("t values must be nonnegative")
        idx = np.searchsorted(self.breakpoints, ts, side="left")
        out = np.asarray(self.values)[idx]
        return np.where(ts == 0.0, 0.0, out)

    def right_limit(self, s: float) -> float:
        """Value on the interval immediately to the right of s (s >= 0)."""
        if s < 0.0:
            raise DomainError(f"s must be nonnegative, got {s!r}")
        return self.values[bisect.bisect_right(self.breakpoints, s)]


@dataclass(frozen=True)
class Standard:
    """f(t) = t / (t + d); the fuzzy value induced by a classical distance d."""

    d: float

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

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0):
            raise DomainError("t values must be nonnegative")
        with np.errstate(invalid="ignore"):
            out = np.where(ts == 0.0, 0.0, ts / (ts + self.d))
        return out

    def right_limit(self, s: float) -> float:
        if s < 0.0:
            raise DomainError(f"s must be nonnegative, got {s!r}")
        if s == 0.0:
            return 0.0 if self.d > 0.0 else 1.0
        return 1.0 if s == np.inf else s / (s + self.d)


@dataclass(frozen=True)
class Stationary:
    """f(t) = c for every t > 0."""

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ConstructionError(f"stationary value must lie in [0, 1], got {self.c!r}")
        object.__setattr__(self, "c", float(self.c))

    def eval(self, t: float) -> float:
        if t < 0.0:
            raise DomainError(f"t must be nonnegative, got {t!r}")
        return 0.0 if t == 0.0 else self.c

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0):
            raise DomainError("t values must be nonnegative")
        return np.where(ts == 0.0, 0.0, self.c)

    def right_limit(self, s: float) -> float:
        if s < 0.0:
            raise DomainError(f"s must be nonnegative, got {s!r}")
        return self.c


ValueFn = Union[Step, Standard, Stationary]

#: diagonal entry M(x, x, .): 1 for t > 0, 0 at t = 0
ONE: ValueFn = Stationary(1.0)
#: the always-admissible zero cross floor
ZERO: ValueFn = Stationary(0.0)


def vf_eval(f: ValueFn, t: float) -> float:
    """Exact evaluation per the representation semantics."""
    return f.eval(t)


def vf_breakpoints(f: ValueFn) -> tuple[float, ...]:
    return f.breakpoints if isinstance(f, Step) else ()


def is_steplike(f: ValueFn) -> bool:
    """Step and Stationary functions are piecewise constant, hence exactly combinable."""
    return isinstance(f, (Step, Stationary))


def attains_below_one(f: ValueFn) -> bool:
    """Whether f(t) < 1 for some t > 0 (the separation axiom for off-diagonal pairs)."""
    if isinstance(f, Step):
        return f.values[0] < 1.0
    if isinstance(f, Standard):
        return f.d > 0.0
    return f.c < 1.0


def materialize_exact(
    fn_at: Callable[[float], float],
    fn_after: Callable[[float], float],
    points: Sequence[float],
) -> ValueFn:
    """Step function through the sampled values of a nondecreasing expression.

    ``fn_at(p)`` is the expression value at p, ``fn_after(p)`` its value on the
    interval immediately after p.  The result agrees with the expression at
    every point of ``points`` and, when the expression is itself piecewise
    constant with breakpoints inside ``points``, everywhere.
    """
    pts = sorted(set(float(p) for p in points if p > 0.0))
    if not pts:
        raise DomainError("materialize_exact needs at least one positive point")
    vals = [float(fn_at(p)) for p in pts] + [float(fn_after(pts[-1]))]
    return _compress_step(pts, vals)


def materialize_below(
    fn_after: Callable[[float], float],
    points: Sequence[float],
) -> ValueFn:
    """Step lower envelope: on each interval the exact infimum of the expression.

    For a left-continuous nondecreasing expression the infimum on (a, b] is the
    right limit at a, so the result is pointwise <= the expression everywhere.
    """
    pts = sorted(set(float(p) for p in points if p > 0.0))
    if not pts:
        raise DomainError("materialize_below needs at least one positive point")
    vals = [float(fn_after(p)) for p in [0.0] + pts]
    return _compress_step(pts, vals)


def _compress_step(pts: list[float], vals: list[float]) -> ValueFn:
    # drop a breakpoint whenever the value does not change across it; Step and
    # Stationary check range and monotonicity of every kept value, and a
    # dropped value equals the kept one before it
    keep_b: list[float] = []
    keep_v: list[float] = [vals[0]]
    for b, nxt in zip(pts, vals[1:]):
        if nxt != keep_v[-1]:
            keep_b.append(b)
            keep_v.append(nxt)
    if not keep_b:
        return Stationary(keep_v[0])
    return Step(tuple(keep_b), tuple(keep_v))


def vf_min(fns: Sequence[ValueFn], grid: Sequence[float] = ()) -> ValueFn:
    """Pointwise minimum of value functions, exact whenever representable.

    All-Standard inputs give Standard(max d); piecewise-constant inputs combine
    exactly on merged breakpoints; mixed inputs fall back to the step lower
    envelope sampled on ``grid`` merged with all breakpoints (sound from below).
    """
    fns = list(fns)
    if not fns:
        raise DomainError("vf_min needs at least one function")
    if len(fns) == 1:
        return fns[0]
    if all(isinstance(f, Standard) for f in fns):
        return Standard(max(f.d for f in fns))
    bps: set[float] = set()
    for f in fns:
        bps.update(vf_breakpoints(f))
    if all(is_steplike(f) for f in fns):
        if not bps:
            return Stationary(min(f.c for f in fns))  # type: ignore[union-attr]
        pts = sorted(bps)
        return materialize_exact(
            lambda s: min(f.eval(s) for f in fns),
            lambda s: min(f.right_limit(s) for f in fns),
            pts,
        )
    pts = sorted(bps.union(float(g) for g in grid if g > 0.0))
    if not pts:
        raise DomainError("vf_min of mixed representations needs a sampling grid")
    return materialize_below(lambda s: min(f.right_limit(s) for f in fns), pts)
