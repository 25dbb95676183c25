"""Small numeric helpers shared across modules."""

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
    if not x > 0.0:
        raise DomainError(f"{name} must be positive, got {x!r}")
    return float(x)
