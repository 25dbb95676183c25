"""Sampling grids on the time axis used by grid-certified checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError

DEFAULT_LOG_LO = 1e-3
DEFAULT_LOG_HI = 1e3
DEFAULT_LOG_COUNT = 64


@dataclass(frozen=True)
class GridSpec:
    """Sorted positive t-values."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise DomainError("grid must be nonempty")
        prev = 0.0
        for v in self.values:
            if not v > prev:
                raise DomainError("grid values must be strictly increasing and positive")
            prev = v

    @classmethod
    def log(cls, lo: float, hi: float, count: int) -> "GridSpec":
        if not (0 < lo < hi) or count < 2:
            raise DomainError("log grid requires 0 < lo < hi and count >= 2")
        vals = np.logspace(np.log10(lo), np.log10(hi), count)
        return cls(tuple(float(v) for v in vals))

    @classmethod
    def default(cls) -> "GridSpec":
        """The shared 64-point log grid on [1e-3, 1e3], built once at import."""
        return _DEFAULT_GRID

    @classmethod
    def explicit(cls, values: Iterable[float]) -> "GridSpec":
        return cls(tuple(sorted(set(float(v) for v in values))))

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse a CLI grid string: ``log:<lo>:<hi>:<count>`` or comma-separated values."""
        if text.startswith("log:"):
            parts = text.split(":")
            if len(parts) != 4:
                raise DomainError(f"bad grid spec {text!r}; expected log:<lo>:<hi>:<count>")
            return cls.log(float(parts[1]), float(parts[2]), int(parts[3]))
        try:
            values = [float(v) for v in text.split(",") if v.strip()]
        except ValueError as exc:
            raise DomainError(f"bad grid spec {text!r}") from exc
        return cls.explicit(values)

    def merged(self, extra: Iterable[float]) -> "GridSpec":
        """New grid containing the extra positive values (zero/negatives ignored)."""
        pool = set(self.values)
        added = False
        for v in extra:
            v = float(v)
            if v > 0.0 and v not in pool:
                pool.add(v)
                added = True
        if not added:
            return self
        return GridSpec(tuple(sorted(pool)))

    def array(self) -> np.ndarray:
        return np.asarray(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


_DEFAULT_GRID = GridSpec.log(DEFAULT_LOG_LO, DEFAULT_LOG_HI, DEFAULT_LOG_COUNT)
