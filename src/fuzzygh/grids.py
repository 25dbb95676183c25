"""Sampling grids on the time axis used by grid-certified checks."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError

#: the working grid of every check that is given none: 64 log-spaced points on [1e-3, 1e3]
DEFAULT_SPEC = "log:1e-3:1e3:64"


@dataclass(frozen=True)
class GridSpec:
    """Sorted positive finite t-values."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise DomainError("grid must be nonempty")
        prev = 0.0
        for v in self.values:
            if not v > prev:
                raise DomainError("grid values must be strictly increasing and positive")
            prev = v
        if not prev < math.inf:
            raise DomainError("grid values must be finite")

    @classmethod
    def log(cls, lo: float, hi: float, count: int) -> "GridSpec":
        if not (0 < lo < hi < math.inf) or count < 2:
            raise DomainError("log grid requires 0 < lo < hi < inf and count >= 2")
        vals = np.logspace(np.log10(lo), np.log10(hi), count)
        return cls(tuple(float(v) for v in vals))

    @classmethod
    def default(cls) -> "GridSpec":
        """The grid of ``DEFAULT_SPEC``, built once at import."""
        return _DEFAULT_GRID

    @classmethod
    def explicit(cls, values: Iterable[float]) -> "GridSpec":
        return cls(tuple(sorted(set(float(v) for v in values))))

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse a CLI grid string: ``log:<lo>:<hi>:<count>`` or comma-separated values."""
        if text.startswith("log:"):
            try:
                _, lo, hi, count = text.split(":")
                bounds = float(lo), float(hi), int(count)
            except ValueError as exc:
                raise DomainError(f"bad grid spec {text!r}; expected log:<lo>:<hi>:<count>") from exc
            return cls.log(*bounds)
        try:
            values = [float(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise DomainError(f"bad grid spec {text!r}") from exc
        return cls.explicit(values)

    def merged(self, extra: Iterable[float]) -> "GridSpec":
        """New grid containing the extra positive values (zero/negatives ignored).

        Each new value is inserted at its place among the sorted ones, and
        only the new values are checked: the others already passed."""
        values = list(self.values)
        for v in sorted({v for v in map(float, extra) if v > 0.0}):
            i = bisect.bisect_left(values, v)
            if i == len(values) or values[i] != v:
                if v == math.inf:
                    raise DomainError("grid values must be finite")
                values.insert(i, v)
        if len(values) == len(self.values):
            return self
        g = object.__new__(GridSpec)
        object.__setattr__(g, "values", tuple(values))
        return g

    def array(self) -> np.ndarray:
        return np.asarray(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


_DEFAULT_GRID = GridSpec.parse(DEFAULT_SPEC)
