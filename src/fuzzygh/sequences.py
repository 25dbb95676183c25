"""Families of spaces and the constructive subsequence-extraction pipeline.

Given a family with a shared positive diameter floor, uniformly bounded cover
numbers and registered nets, the pigeonhole step groups spaces whose net
similarity matrices agree cell-wise; within a group the mutual damped bounds
hold, so the matched-net gluing certifies pairwise closeness in the GH fuzzy
distance.  The module also houses the two reference families showing the
hypotheses cannot be dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import space
from .covering import cover_number, find_net, is_net, metric_cover_number
from .errors import ConstructionError, DomainError, HypothesisError
from .ghdist import DistanceMatrix, gh_fuzzy_lower_bound, gh_fuzzy_upper_bound
from .gluing import attempt_net_gluing, union_hausdorff
from .grids import GridSpec
from .space import (
    FuzzySpace,
    certification_grid,
    make_standard_space,
    make_step_space,
    t_diameter,
    t_diameters,
)
from .tnorm import TNorm
from .util import TOL, Report, geq, require_open_unit, require_positive, require_unit
from .valuefn import Standard, Stationary, Step, ValueFn, is_stationary, values


@dataclass
class SequenceFamily:
    """Ordered spaces with a shared t-norm, an optional floor and registered nets.

    ``nets`` maps (t, eps) to one index tuple per space; all tuples under one
    key have equal length and each is a verified (t, eps)-net.
    """

    spaces: tuple[FuzzySpace, ...]
    floor: Optional[ValueFn] = None
    nets: dict = field(default_factory=dict)

    def __post_init__(self):
        self.spaces = tuple(self.spaces)
        if not self.spaces:
            raise ConstructionError("family must contain at least one space")
        kinds = {sp.norm.kind for sp in self.spaces}
        if len(kinds) != 1:
            raise ConstructionError(f"family mixes t-norm kinds: {sorted(kinds)}")

    @property
    def norm(self) -> TNorm:
        return self.spaces[0].norm

    def nets_for(self, t: float, eps: float) -> tuple[tuple[int, ...], ...]:
        key = (float(t), float(eps))
        if key not in self.nets:
            raise DomainError(f"no nets registered for (t, eps) = {key}")
        return self.nets[key]


def register_nets(
    family: SequenceFamily,
    t: float,
    eps: float,
    indices: Optional[Sequence[Sequence[int]]] = None,
    tol: float = TOL,
) -> int:
    """Register per-space (t, eps)-nets of a common length and return it.

    When ``indices`` is omitted, minimal nets are computed and shorter ones
    are padded to the common length with unused points in index order,
    repeating the first net point once a space runs out of points; padding
    never breaks the net property.
    """
    require_positive(t, "t")
    require_unit(eps, "eps")
    if indices is None:
        raw = [find_net(sp, t, eps, tol=tol).indices for sp in family.spaces]
    else:
        raw = [tuple(int(i) for i in idx) for idx in indices]
        if len(raw) != len(family.spaces):
            raise DomainError("one net per space required")
        if not all(raw):
            raise DomainError("registered nets must be nonempty")
    size = max(len(r) for r in raw)
    padded = []
    for sp, r in zip(family.spaces, raw):
        fill = [i for i in range(sp.n) if i not in r][: size - len(r)]
        padded.append((*r, *fill, *(r[0],) * (size - len(r) - len(fill))))
    for sp, net in zip(family.spaces, padded):
        sp.check_index(*net)
        if not is_net(sp.at(t), net, 1.0 - eps, tol):
            raise ConstructionError(f"registered indices are not a (t, eps)-net in space {sp.name!r}")
    family.nets[(float(t), float(eps))] = tuple(padded)
    return size


def _net_values(family: SequenceFamily, t: float, eps: float, ts: np.ndarray) -> np.ndarray:
    """(count, size, size, T) similarities M(net[i], net[j], s) between the
    points of each space's registered (t, eps)-net at the positive scales ts:
    one ``values`` read of every space's net entries, ``ONE`` on the diagonal."""
    nets = family.nets_for(t, eps)
    fns = [sp.entry(i, j) for sp, net in zip(family.spaces, nets) for i in net for j in net]
    return np.ascontiguousarray(values(fns, ts).T).reshape(len(nets), len(nets[0]), -1, len(ts))


# ---------------------------------------------------------------------------
# hypothesis checks


@dataclass(frozen=True)
class FloorReport(Report):
    passed: bool
    positive: bool
    below_diameters: bool
    worst_slack: float
    violations: tuple[tuple[int, float, float, float], ...]  # (space, s, floor, diam)

    def as_dict(self) -> dict:
        doc = super().as_dict()
        doc["violations"] = doc["violations"][:20]
        return doc


def check_diameter_floor(
    family: SequenceFamily,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> FloorReport:
    """Verify 0 < floor(s) <= t-diameter of every space at every grid scale."""
    if family.floor is None:
        raise DomainError("family has no floor function registered")
    c = family.floor
    g = certification_grid(grid, *family.spaces, extra=c.breakpoints)
    floor = values([c], g.array())[:, 0]
    # diam[k, n]: t-diameter of space n at grid point k
    diam = np.stack([t_diameters(sp, g) for sp in family.spaces], axis=1)
    slack = diam - floor[:, None]
    nonpositive = ~(floor > 0.0)
    below = slack < -tol
    violations: list[tuple[int, float, float, float]] = []
    for k in np.flatnonzero(nonpositive | below.any(axis=1)):
        s, c_val = float(g.values[k]), float(floor[k])
        if nonpositive[k]:
            violations.append((-1, s, c_val, math.nan))
        violations.extend((int(n), s, c_val, float(diam[k, n])) for n in np.flatnonzero(below[k]))
    positive = not nonpositive.any()
    below_diameters = not below.any()
    return FloorReport(
        passed=positive and below_diameters,
        positive=positive,
        below_diameters=below_diameters,
        worst_slack=float(slack.min()),
        violations=tuple(violations),
    )


#: log-spaced scales in (t, 100t] of the default ratio-condition grid
_RATIO_SCALES = 32


def default_ratio_grid(family: SequenceFamily, t: float) -> tuple[float, ...]:
    """Scales s > t where the ratio condition is checked: a log sweep of
    (t, 100t] merged with every step breakpoint past t and a tail point."""
    vals = set(np.logspace(math.log10(t), math.log10(100.0 * t), _RATIO_SCALES + 1)[1:])
    bps = [b for sp in family.spaces for b in sp.breakpoints() if b > t]
    vals.update(bps)
    if bps:
        vals.add(max(bps) * 1.5 + 1.0)
    return tuple(sorted(vals))


@dataclass(frozen=True)
class RatioReport(Report):
    passed: bool
    product_form_passed: Optional[bool]
    worst_margin: float
    witnesses: tuple[tuple[int, int, int, int, float], ...]  # (n, m, i, j, s)

    def as_dict(self) -> dict:
        doc = super().as_dict()
        doc["witnesses"] = doc["witnesses"][:20]
        return doc


def check_ratio_condition(
    family: SequenceFamily,
    t: float,
    eps: float,
    s_grid: Optional[Sequence[float]] = None,
    tol: float = TOL,
) -> RatioReport:
    """Monotone-ratio condition between registered net similarities.

    For every ordered space pair (n, m), net positions (i, j) and scale s > t
    with M_n(s) < M_m(s), the damped ratio at s must not drop below its value
    at t.  For the product norm the undamped ratio form is checked as well.
    """
    norm = family.norm
    s_vals = [s for s in (default_ratio_grid(family, t) if s_grid is None else s_grid) if s > t]
    vals = _net_values(family, t, eps, np.array([t, *s_vals], dtype=float))
    # (count, size, size) net similarities at t, (count, size, size, S) at the scales s > t
    vals_t, vals_s = vals[..., 0], vals[..., 1:]
    if np.any(vals_t <= tol):
        raise DomainError("zero net similarity at t; the diameter floor must be violated")
    den = norm.array(vals, 1.0 - eps)
    den_t, den_s = den[..., 0], den[..., 1:]
    # with two spaces or more every denominator is a divisor below; each is
    # nondecreasing in s, so none vanishes at s > t unless it does at t
    if len(vals) > 1 and (den_t <= tol).any():
        raise DomainError("zero damped denominator at t")
    product_passed: Optional[bool] = True if norm.kind == "product" else None
    worst = math.inf
    witnesses: list[tuple[int, int, int, int, float]] = []
    # rows n of the (n, m, i, j, s) comparison (count * size^2 * S floats each) in
    # blocks of at most _BLOCK floats in one reused buffer, or one row if larger
    step = max(1, space._BLOCK // max(1, vals_s.size))
    buf = np.empty((min(step, len(vals)), *vals_s.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        for n0 in range(0, len(vals), step):
            a_t, a_s = vals_t[n0 : n0 + step, None], vals_s[n0 : n0 + step, None]
            margin = np.subtract(vals_s, a_s, out=buf[: len(a_s)])
            active = margin > tol
            active[range(len(a_s)), range(n0, n0 + len(a_s))] = False
            np.divide(a_s, den_s, out=margin)
            margin -= (a_t / den_t)[..., None]
            low = float(margin.min(where=active, initial=math.inf))
            worst = min(worst, low)
            if low < -tol:
                for n, m, i, j, s_pos in np.argwhere(active & (margin < -tol)):
                    witnesses.append((n0 + int(n), int(m), int(i), int(j), float(s_vals[s_pos])))
            if product_passed:
                plain = np.divide(a_s, vals_s, out=margin)
                plain -= (a_t / vals_t)[..., None]
                product_passed = not plain.min(where=active, initial=math.inf) < -tol
    return RatioReport(
        passed=not witnesses,
        product_form_passed=product_passed,
        worst_margin=worst if worst is not math.inf else 0.0,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# pigeonhole extraction


@dataclass(frozen=True)
class PigeonholeTable(Report):
    """Integer-part matrices of net similarities and their equality groups."""

    t: float
    eps: float
    cell_width: float
    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    groups: tuple[tuple[int, ...], ...]
    selected: tuple[int, ...]


def pigeonhole_subsequence(
    family: SequenceFamily,
    t: float,
    eps: float,
) -> tuple[PigeonholeTable, tuple[int, ...]]:
    """Group spaces by the integer parts of net similarities over the cell
    width floor(t)*eps and return the largest group.

    Equal matrices force |M_n - M_m| < cell width entry-wise, which is exactly
    the closeness the damped mutual bounds need.  Ties between groups go to
    the one containing the smallest space index.  Values landing exactly on a
    cell boundary are floored downward; near-boundary fragmentation is
    inherent to the method.
    """
    if family.floor is None:
        raise DomainError("pigeonhole extraction needs a floor function")
    blocks = _net_values(family, t, eps, np.array([t], dtype=float))[..., 0]
    width = family.norm(family.floor.eval(t), eps)
    if not width > 0.0:
        raise DomainError(f"cell width {width} is not positive; pick a larger eps or floor")
    matrices = [tuple(tuple(map(math.floor, row)) for row in b) for b in (blocks / width).tolist()]
    groups_by_matrix: dict = {}
    for n, mat in enumerate(matrices):
        groups_by_matrix.setdefault(mat, []).append(n)
    groups = tuple(tuple(g) for g in groups_by_matrix.values())
    selected = min(groups, key=lambda g: (-len(g), g[0]))
    # soundness: equal integer parts bound the similarity gap by the cell width
    if not (np.ptp(blocks[list(selected)], axis=0) < width).all():
        raise AssertionError("pigeonhole grouping lost its width guarantee")
    table = PigeonholeTable(
        t=t,
        eps=eps,
        cell_width=width,
        matrices=tuple(matrices),
        groups=groups,
        selected=selected,
    )
    return table, selected


@dataclass(frozen=True)
class GroupCertificate(Report):
    """Achieved Hausdorff values of the pairwise gluings within a group."""

    t: float
    eps: float
    threshold: float
    h_values: tuple[tuple[int, int, float], ...]
    failures: tuple[tuple[int, int, str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures and all(h > self.threshold for _, _, h in self.h_values)


def certify_group(
    family: SequenceFamily,
    group: Sequence[int],
    t: float,
    eps: float,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> GroupCertificate:
    """Build the matched-net gluing for every pair in the group and record the
    achieved Hausdorff values; each must exceed (1-eps)*(1-eps)."""
    if family.floor is None:
        raise DomainError("certification needs a floor function")
    nets = family.nets_for(t, eps)
    norm = family.norm
    threshold = norm(1.0 - eps, 1.0 - eps)
    h_values: list[tuple[int, int, float]] = []
    failures: list[tuple[int, int, str]] = []
    group = sorted(int(g) for g in group)
    for a_pos in range(len(group)):
        for b_pos in range(a_pos + 1, len(group)):
            na, nb = group[a_pos], group[b_pos]
            try:
                u = attempt_net_gluing(
                    family.spaces[na],
                    family.spaces[nb],
                    t,
                    eps,
                    nets[na],
                    nets[nb],
                    floor=family.floor,
                    grid=grid,
                    tol=tol,
                )
            except (HypothesisError, ConstructionError, DomainError) as exc:
                failures.append((na, nb, str(exc)))
                continue
            h_values.append((na, nb, union_hausdorff(u, t)))
    return GroupCertificate(
        t=t,
        eps=eps,
        threshold=threshold,
        h_values=tuple(h_values),
        failures=tuple(failures),
    )


def diagonal_subsequence(
    selector: Callable[[float, float, Optional[tuple[int, ...]]], Sequence[int]],
    depth: int,
) -> tuple[int, ...]:
    """Diagonal of nested refinements at scales t = eps = 1/level.

    ``selector(t, eps, previous)`` must return a subsequence of ``previous``
    (any index sequence at the first level) of length at least the level
    number; the diagonal collects the level-th element of each level.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    diagonal: list[int] = []
    prev: Optional[tuple[int, ...]] = None
    for level in range(1, depth + 1):
        out = tuple(int(v) for v in selector(1.0 / level, 1.0 / level, prev))
        if prev is not None and not _is_subsequence(out, prev):
            raise DomainError(f"level {level} output is not a subsequence of the previous level")
        if len(out) < level:
            raise DomainError(f"level {level} output is shorter than the level index")
        diagonal.append(out[level - 1])
        prev = out
    return tuple(diagonal)


def _is_subsequence(sub: Sequence[int], seq: Sequence[int]) -> bool:
    pos = 0
    for v in sub:
        while pos < len(seq) and seq[pos] != v:
            pos += 1
        if pos == len(seq):
            return False
        pos += 1
    return True


# ---------------------------------------------------------------------------
# stationary pipeline


@dataclass(frozen=True)
class StationaryReport(Report):
    passed: bool
    failures: tuple[str, ...]
    floor_value: float
    cover_bound: Optional[int]
    group: tuple[int, ...]
    certificate: Optional[GroupCertificate]


def check_stationary_hypotheses(
    family: SequenceFamily,
    eps: float,
    tol: float = TOL,
) -> StationaryReport:
    """Verify the stationary-family hypotheses and run the extraction pipeline.

    Checks: every space is stationary and the norm has the damping property;
    the best constant floor (the least diameter) is positive; a uniform cover
    bound exists.  Stationary values are scale-free, so the pipeline runs at
    t = 1.
    """
    require_unit(eps, "eps")
    failures: list[str] = []
    if not family.norm.has_tn1_known():
        failures.append(f"t-norm {family.norm.kind!r} lacks the damping property")
    for n, sp in enumerate(family.spaces):
        if not all(is_stationary(f) for f in sp.pairs):
            failures.append(f"space {n} ({sp.name!r}) is not stationary")
    best_c = min(t_diameter(sp, 1.0) for sp in family.spaces)
    if not best_c > 0.0:
        failures.append("some space has zero diameter value; no positive constant floor exists")
    if failures:
        return StationaryReport(False, tuple(failures), best_c, None, (), None)

    # each net is found once: its size gives the uniform cover bound and
    # register_nets re-verifies it
    nets = [find_net(sp, 1.0, eps, tol=tol).indices for sp in family.spaces]
    cover_bound = max(len(net) for net in nets)
    pipeline = SequenceFamily(family.spaces, floor=Stationary(best_c))
    register_nets(pipeline, 1.0, eps, indices=nets, tol=tol)
    _, group = pigeonhole_subsequence(pipeline, 1.0, eps)
    cert = certify_group(pipeline, group, 1.0, eps, tol=tol)
    return StationaryReport(
        passed=cert.passed,
        failures=(),
        floor_value=best_c,
        cover_bound=cover_bound,
        group=group,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# classical-metric bridge


@dataclass(frozen=True)
class BridgeReport(Report):
    passed: bool
    floor: FloorReport
    cover_rows: tuple[tuple[int, int, int, int], ...]  # (space, fuzzy, metric, bound)
    cover_translation_ok: bool
    cover_bound_ok: bool
    ratio: RatioReport
    t: float
    eps: float
    radius: float


def standard_bridge_check(
    metrics: Sequence,
    bound: float,
    t: float = 1.0,
    eps: float = 0.1,
    grid: Optional[GridSpec] = None,
    tol: float = TOL,
) -> tuple[BridgeReport, SequenceFamily]:
    """Build the product-norm standard family of the given metrics and verify
    the three extraction hypotheses against the classical data.

    The floor is s/(s+bound); ball membership translates to classical balls of
    radius eps*t/(1-eps), so fuzzy cover numbers must match classical covering
    numbers at that radius and stay below the uniform bound; the ratio
    condition holds identically for standard values and is re-verified on the
    grid.  Failures are reported, not raised.
    """
    require_positive(bound, "bound")
    require_positive(t, "t")
    require_open_unit(eps, "eps")
    mats = [m if isinstance(m, DistanceMatrix) else DistanceMatrix.from_array(m) for m in metrics]
    if not mats:
        raise DomainError("at least one metric required")
    spaces = tuple(
        make_standard_space([f"p{i}" for i in range(m.n)], m, TNorm.product(), name=f"X{k + 1}")
        for k, m in enumerate(mats)
    )
    family = SequenceFamily(spaces, floor=Standard(bound))
    floor_report = check_diameter_floor(family, grid, tol=tol)

    radius = eps * t / (1.0 - eps)
    classical_rows = [metric_cover_number(m, radius) for m in mats]
    n_bound = max(classical_rows)
    cover_rows = []
    nets = []
    translation_ok = True
    bound_ok = True
    for k, (sp, classical) in enumerate(zip(spaces, classical_rows)):
        fuzzy, cert = cover_number(sp, eps, t, tol=tol)
        nets.append(cert.indices)
        cover_rows.append((k, fuzzy, classical, n_bound))
        if fuzzy != classical:
            translation_ok = False
        if fuzzy > n_bound:
            bound_ok = False

    register_nets(family, t, eps, indices=nets, tol=tol)
    ratio_report = check_ratio_condition(family, t, eps, tol=tol)

    report = BridgeReport(
        passed=floor_report.passed and translation_ok and bound_ok and ratio_report.passed,
        floor=floor_report,
        cover_rows=tuple(cover_rows),
        cover_translation_ok=translation_ok,
        cover_bound_ok=bound_ok,
        ratio=ratio_report,
        t=t,
        eps=eps,
        radius=radius,
    )
    return report, family


# ---------------------------------------------------------------------------
# reference family without Cauchy subsequences


def gen_no_cauchy_family(count: int) -> SequenceFamily:
    """Two-point spaces with similarity 1/2 (even index) or 1/3 (odd index)
    up to a breakpoint that grows with the index; product norm, floor 1/3.

    Diameters alternate between two levels while the breakpoints diverge, so
    no subsequence can stay GH-close at a fixed scale.
    """
    if count < 2:
        raise DomainError("need at least two spaces")
    spaces = []
    for n in range(1, count + 1):
        level = 0.5 if n % 2 == 0 else 1.0 / 3.0
        step = Step((float(n),), (level, 1.0))
        spaces.append(
            make_step_space(["x1", "x2"], {(0, 1): step}, TNorm.product(), name=f"X{n}")
        )
    return SequenceFamily(tuple(spaces), floor=Stationary(1.0 / 3.0))


@dataclass(frozen=True)
class NoCauchyReport(Report):
    count: int
    t: float
    eps: float
    even_value: float
    odd_value: float
    damped_requirement: float
    necessity_inequality_holds: bool
    net_sizes: tuple[int, ...]
    pair_upper_bounds: tuple[tuple[int, int, float], ...]
    max_pair_upper: float
    threshold: float
    self_lower_bound: float
    contradiction_confirmed: bool


def verify_no_cauchy(
    family: SequenceFamily,
    t: float = 0.5,
    eps: float = 0.1,
) -> NoCauchyReport:
    """Reproduce the contradiction: adjacent spaces cannot be GH-close at t.

    Closeness above 1 - eps would force the odd level to dominate the damped
    even level, which fails numerically; independently, the exact single-scale
    upper bound for every adjacent pair stays below 1 - eps.  A self-pair lower
    bound near 1 sanity-checks the bound machinery.
    """
    require_positive(t, "t")
    require_unit(eps, "eps")
    spaces = family.spaces
    if len(spaces) < 2:
        raise DomainError("need at least two spaces")
    norm = family.norm
    # the first space is odd, the second even (counted from 1)
    odd_value, even_value = [sp.value(0, 1, t) for sp in spaces][:2]
    damped = norm(even_value, norm(1.0 - eps, 1.0 - eps))
    necessity_holds = geq(odd_value, damped)

    net_sizes = tuple(len(find_net(sp, t, eps).indices) for sp in spaces)
    pair_uppers = []
    for n in range(len(spaces) - 1):
        ub = gh_fuzzy_upper_bound(spaces[n], spaces[n + 1], t)
        pair_uppers.append((n, n + 1, ub.value))
    max_upper = max(v for _, _, v in pair_uppers)
    threshold = 1.0 - eps

    self_lower = gh_fuzzy_lower_bound(spaces[0], spaces[0], t).value
    return NoCauchyReport(
        count=len(spaces),
        t=t,
        eps=eps,
        even_value=even_value,
        odd_value=odd_value,
        damped_requirement=damped,
        necessity_inequality_holds=necessity_holds,
        net_sizes=net_sizes,
        pair_upper_bounds=tuple(pair_uppers),
        max_pair_upper=max_upper,
        threshold=threshold,
        self_lower_bound=self_lower,
        contradiction_confirmed=(not necessity_holds) and max_upper < threshold,
    )
