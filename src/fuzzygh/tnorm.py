"""Continuous t-norms and verification of the algebraic properties used downstream.

The three built-in norms (minimum, product, Lukasiewicz) have exact closed
forms; user-defined norms are accepted through :func:`TNorm.custom` but must
pass :func:`tn_check_axioms` before being used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError
from .util import TOL, Report, require_unit

BUILTIN_KINDS = ("minimum", "product", "lukasiewicz")


@dataclass(frozen=True)
class TNorm:
    """A continuous t-norm: commutative, associative, monotone, with identity 1."""

    kind: str
    fn: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if self.kind in BUILTIN_KINDS:
            if self.fn is not None:
                raise ConstructionError("built-in norms do not take a custom function")
        elif self.fn is None:
            raise ConstructionError(f"unknown t-norm kind {self.kind!r}")

    @classmethod
    def minimum(cls) -> "TNorm":
        return cls("minimum")

    @classmethod
    def product(cls) -> "TNorm":
        return cls("product")

    @classmethod
    def lukasiewicz(cls) -> "TNorm":
        return cls("lukasiewicz")

    @classmethod
    def custom(cls, name: str, fn: Callable[[float, float], float]) -> "TNorm":
        """Extension point; callers must run tn_check_axioms before further use."""
        if name in BUILTIN_KINDS:
            raise ConstructionError(f"{name!r} shadows a built-in norm")
        return cls(name, fn)

    @property
    def is_builtin(self) -> bool:
        return self.kind in BUILTIN_KINDS

    def __call__(self, a: float, b: float) -> float:
        """Scalar evaluation without domain checks (hot path)."""
        k = self.kind
        if k == "product":
            return a * b
        if k == "minimum":
            return a if a <= b else b
        if k == "lukasiewicz":
            s = a + b - 1.0
            return s if s > 0.0 else 0.0
        return self.fn(a, b)  # type: ignore[misc]

    def array(self, a, b, out=None):
        """Vectorized evaluation on numpy arrays (broadcasting allowed), written
        into ``out`` when given (in place for the built-in norms)."""
        k = self.kind
        if k == "product":
            return np.multiply(a, b, out=out)
        if k == "minimum":
            return np.minimum(a, b, out=out)
        if k == "lukasiewicz":
            return np.maximum(np.subtract(np.add(a, b, out=out), 1.0, out=out), 0.0, out=out)
        vals = np.vectorize(self.fn, otypes=[float])(a, b)
        if out is None:
            return vals
        out[...] = vals
        return out

    def max_damping(self, kk, cap):
        """Elementwise largest gamma in [0, 1] with T(kk, T(gamma, gamma)) <= cap:
        the closed form of each built-in norm; DomainError for the others."""
        k = self.kind
        if k == "product":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.sqrt(np.fmin(1.0, cap / kk))
        if k == "minimum":
            return np.where(kk <= cap, 1.0, cap)
        if k == "lukasiewicz":
            return np.minimum(1.0, (cap + 2.0 - kk) / 2.0)
        raise DomainError(f"closed-form damping needs a built-in norm, got {k!r}")

    def has_tn1_known(self) -> Optional[bool]:
        """Whether ``a - a*b >= a*(1-b)`` holds, when known algebraically.

        Product satisfies it with equality, Lukasiewicz by case analysis,
        minimum fails (witness a=b=1/2).  Custom norms return None.
        """
        if self.kind in ("product", "lukasiewicz"):
            return True
        if self.kind == "minimum":
            return False
        return None


@dataclass(frozen=True)
class TNormAxiomReport(Report):
    """Worst absolute residuals of the defining t-norm properties on a grid."""

    commutativity: float
    associativity: float
    identity: float
    monotonicity: float
    range_violation: float
    tol: float = TOL

    @property
    def passed(self) -> bool:
        return (
            self.commutativity <= self.tol
            and self.associativity <= self.tol
            and self.identity <= self.tol
            and self.monotonicity <= self.tol
            and self.range_violation <= self.tol
        )


def tn_eval(norm: TNorm, a: float, b: float) -> float:
    """Evaluate ``a * b`` under the norm; arguments must lie in [0, 1]."""
    require_unit(a, "a")
    require_unit(b, "b")
    return float(norm(a, b))


def unit_grid(step: float = 0.01) -> tuple[float, ...]:
    """Evenly spaced samples of [0, 1] including both endpoints."""
    n = int(round(1.0 / step))
    return tuple(min(1.0, i * step) for i in range(n + 1))


def unit_grid_pairs(step: float = 0.01) -> list[tuple[float, float]]:
    g = unit_grid(step)
    return [(a, b) for a in g for b in g]


def tn_check_axioms(norm: TNorm, grid: Sequence[float]) -> TNormAxiomReport:
    """Worst violation of commutativity/associativity/identity/monotonicity on grid triples."""
    if len(grid) == 0:
        raise DomainError("grid must be nonempty")
    g = np.asarray(sorted(require_unit(v, "grid value") for v in grid))
    table = norm.array(g[:, None], g[None, :])
    comm = float(np.max(np.abs(table - table.T)))
    # E[i,j] then combined with each grid value c: (a*b)*c vs a*(b*c)
    lhs = norm.array(table[:, :, None], g[None, None, :])
    rhs = norm.array(g[:, None, None], norm.array(g[None, :, None], g[None, None, :]))
    assoc = float(np.max(np.abs(lhs - rhs)))
    ident = float(np.max(np.abs(norm.array(g, 1.0) - g)))
    # on a sorted grid, monotone in each argument == rows and columns nondecreasing
    rows, cols = table[:, :-1] - table[:, 1:], table[:-1, :] - table[1:, :]
    mono = float(max(np.max(rows, initial=0.0), np.max(cols, initial=0.0), 0.0))
    rng = float(max(np.max(table - 1.0, initial=0.0), np.max(-table, initial=0.0), 0.0))
    return TNormAxiomReport(comm, assoc, ident, mono, rng)


def tn_has_tn1(
    norm: TNorm,
    samples: Optional[Sequence[tuple[float, float]]] = None,
    tol: float = TOL,
) -> tuple[bool, Optional[tuple[float, float]]]:
    """Check ``a - a*b >= a*(1-b)`` on the samples (default: the 0.01 grid).

    Returns (True, None) when the inequality holds everywhere within ``tol``,
    otherwise (False, first violating pair) in sample order.
    """
    if samples is None:
        samples = unit_grid_pairs(0.01)
    for a, b in samples:
        require_unit(a, "a")
        require_unit(b, "b")
        if (a - norm(a, b)) - norm(a, 1.0 - b) < -tol:
            return False, (a, b)
    return True, None


def tn_leq(
    weaker: TNorm,
    stronger: TNorm,
    samples: Optional[Sequence[tuple[float, float]]] = None,
    tol: float = TOL,
) -> bool:
    """True iff weaker(a,b) <= stronger(a,b) on every sample pair."""
    if samples is None:
        samples = unit_grid_pairs(0.01)
    return all(weaker(a, b) <= stronger(a, b) + tol for a, b in samples)
