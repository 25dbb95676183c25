"""Continuous t-norms and verification of the algebraic properties used downstream.

A :class:`TNorm` is one of the three norms the library serves (minimum,
product, Lukasiewicz), each with an exact closed form.  The checks below
(axioms, (TN1), pointwise order) work on a sampled grid of [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConstructionError, DomainError, SizeLimitError
from .util import TOL, Report, require_unit

KINDS = ("minimum", "product", "lukasiewicz")


@dataclass(frozen=True)
class TNorm:
    """A continuous t-norm: commutative, associative, monotone, with identity 1."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstructionError(
                f"unknown t-norm {self.kind!r}; expected one of {', '.join(KINDS)}"
            )

    @classmethod
    def minimum(cls) -> "TNorm":
        return cls("minimum")

    @classmethod
    def product(cls) -> "TNorm":
        return cls("product")

    @classmethod
    def lukasiewicz(cls) -> "TNorm":
        return cls("lukasiewicz")

    def __call__(self, a: float, b: float) -> float:
        """Scalar evaluation without domain checks (hot path)."""
        k = self.kind
        if k == "product":
            return a * b
        if k == "minimum":
            return a if a <= b else b
        s = a + b - 1.0
        return s if s > 0.0 else 0.0

    def array(self, a, b, out=None):
        """Vectorized evaluation on numpy arrays (broadcasting allowed), written
        into ``out`` when given."""
        k = self.kind
        if k == "product":
            return np.multiply(a, b, out=out)
        if k == "minimum":
            return np.minimum(a, b, out=out)
        return np.maximum(np.subtract(np.add(a, b, out=out), 1.0, out=out), 0.0, out=out)

    def inner(self, a, b, out=None):
        """The inner operation of the norm's max-T split T(a, b) =
        outer(inner(a, b)): the product, the minimum, or the sum under
        Lukasiewicz.  ``outer`` is monotone, so a maximum over terms may be
        taken before it."""
        return {"product": np.multiply, "minimum": np.minimum, "lukasiewicz": np.add}[self.kind](a, b, out=out)

    def outer(self, x, out=None):
        """The outer function of the split (``inner``): max(x - 1, 0) under
        Lukasiewicz, the identity otherwise, written into ``out`` when given."""
        if self.kind == "lukasiewicz":
            return np.maximum(np.subtract(x, 1.0, out=out), 0.0, out=out)
        return x if out is None or out is x else np.positive(x, out=out)

    def max_damping(self, kk, cap):
        """Elementwise largest gamma in [0, 1] with T(kk, T(gamma, gamma)) <= cap,
        in the closed form of the norm."""
        k = self.kind
        if k == "product":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.sqrt(np.fmin(1.0, cap / kk))
        if k == "minimum":
            return np.where(kk <= cap, 1.0, cap)
        return np.minimum(1.0, (cap + 2.0 - kk) / 2.0)

    def has_tn1_known(self) -> bool:
        """Whether ``a - a*b >= a*(1-b)`` holds for all a, b in [0, 1].

        Product satisfies it with equality, Lukasiewicz by case analysis,
        minimum fails (witness a=b=1/2).
        """
        return self.kind != "minimum"


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


#: the finest sample step: ``unit_grid_pairs`` builds (1/step + 1)^2 pairs
MIN_GRID_STEP = 1e-3


def unit_grid(step: float = 0.01) -> tuple[float, ...]:
    """Samples of [0, 1] at ``step`` apart, from exactly 0.0 to exactly 1.0; a
    step that does not divide 1 leaves a shorter last interval."""
    if not 0.0 < step <= 1.0:
        raise DomainError(f"sample step must lie in (0, 1], got {step!r}")
    if step < MIN_GRID_STEP:
        raise SizeLimitError(f"sample step {step!r} is finer than the limit {MIN_GRID_STEP}")
    n = math.ceil(1.0 / step - 1e-9)
    return tuple(i * step for i in range(n)) + (1.0,)


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
    # (a*b)*c vs a*(b*c), one grid value c at a time: O(m^2) memory
    assoc = max(
        float(np.max(np.abs(norm.array(table, c) - norm.array(g[:, None], norm.array(g, c))))) for c in g
    )
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


def tn_leq(weaker: TNorm, stronger: TNorm, samples: Sequence[tuple[float, float]]) -> bool:
    """True iff weaker(a,b) <= stronger(a,b) within ``TOL`` on every sample pair."""
    return all(weaker(a, b) <= stronger(a, b) + TOL for a, b in samples)
