"""Small numeric helpers and the report serializer shared across modules."""

import math
from dataclasses import fields

from .errors import DomainError

#: default absolute comparison tolerance for all property checks
TOL = 1e-12


def gt_strict(a: float, b: float, tol: float = TOL) -> bool:
    """Strict ``a > b`` with a tolerance band: values within ``tol`` of ``b`` fail."""
    return a - b > tol


def geq(a: float, b: float, tol: float = TOL) -> bool:
    """Non-strict ``a >= b`` up to ``tol``."""
    return a - b >= -tol


def require_unit(x: float, name: str) -> float:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {x!r}")
    return float(x)


def require_open_unit(x: float, name: str) -> float:
    require_unit(x, name)
    if x == 0.0 or x == 1.0:
        raise DomainError(f"{name} must lie strictly between 0 and 1")
    return float(x)


def require_positive(x: float, name: str) -> float:
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {x!r}")
    return float(x)


class Report:
    """Mixin for result dataclasses: ``as_dict`` writes every field in
    declaration order, then a ``passed`` property where the class defines one.

    Tuples and lists become lists, nested reports write their own ``as_dict``
    and a float NaN is written as ``None`` (JSON ``null``).
    """

    def as_dict(self) -> dict:
        doc = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        if isinstance(getattr(type(self), "passed", None), property):
            doc["passed"] = self.passed
        return doc


def _plain(v):
    if isinstance(v, Report):
        return v.as_dict()
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    return None if isinstance(v, float) and math.isnan(v) else v
