"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written the slow, obvious way and shares no
code path with the implementations under test.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def classical_hausdorff(dist: np.ndarray, a_idx, b_idx) -> float:
    """max of the two directed max-min distances between index sets."""
    fwd = max(min(dist[i, j] for j in b_idx) for i in a_idx)
    bwd = max(min(dist[i, j] for i in a_idx) for j in b_idx)
    return max(fwd, bwd)


def metric_cover_number(dist: np.ndarray, radius: float) -> int:
    """Minimum number of strict open balls covering all points, by enumeration."""
    n = dist.shape[0]
    for k in range(1, n + 1):
        for centers in combinations(range(n), k):
            if all(any(dist[c, x] < radius for c in centers) for x in range(n)):
                return k
    raise AssertionError("the full point set always covers")


def na1_worst_residual(space, norm_fn, ts) -> float:
    """Triple-loop evaluation of the pointwise triangle residual."""
    worst = np.inf
    n = space.n
    for t in ts:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = space.value(i, k, t)
                    rhs = norm_fn(space.value(i, j, t), space.value(j, k, t))
                    worst = min(worst, lhs - rhs)
    return worst


def na1_first_witness(space, norm_fn, ts) -> tuple[float, tuple[int, int, int, float]]:
    """Worst triangle residual and its first (i, j, k, t) in (t, i, j, k) loop order."""
    n = space.n
    worst, witness = np.inf, None
    for t in ts:
        m = [[space.value(i, j, t) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    r = m[i][k] - norm_fn(m[i][j], m[j][k])
                    if r < worst:
                        worst, witness = r, (i, j, k, t)
    return worst, witness


def union_pairs_loop(u) -> tuple:
    """The pair functions of ``u.as_space()``, one ``entry`` call per pair i < j
    of the union in lexicographic order."""
    nl, n = u.n_left, u.n_left + u.n_right
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if j < nl:
                pairs.append(u.left.entry(i, j))
            elif i >= nl:
                pairs.append(u.right.entry(i - nl, j - nl))
            else:
                pairs.append(u.cross[i][j - nl])
    return tuple(pairs)


def first_triangle_violation(d: np.ndarray, tol: float = 1e-9):
    """First (i, j, k) in loop order with d[i, k] > d[i, j] + d[j, k] + tol, or None."""
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i, k] > d[i, j] + d[j, k] + tol:
                    return i, j, k
    return None


def minimal_net_size(space, t: float, eps: float) -> int:
    """Exhaustive minimal net size with strict ball membership."""
    n = space.n
    threshold = 1.0 - eps
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            if all(
                any(space.value(x, y, t) > threshold + 1e-12 for y in subset)
                for x in range(n)
            ):
                return k
    raise AssertionError("the full point set is always a net")


def random_metric(rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """A genuine finite metric with off-diagonal distances in [lo, hi].

    Euclidean distances of random points, then scaled and shifted; adding a
    positive constant to a metric keeps the triangle inequality.
    """
    if n == 1:
        return np.zeros((1, 1))
    pts = rng.uniform(0.0, 1.0, size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    dmax = d.max()
    scale = (hi - lo) / dmax if dmax > 0 else 1.0
    d = d * scale + lo
    np.fill_diagonal(d, 0.0)
    return d


def random_safe_stationary_values(rng: np.random.Generator, n: int, lo: float = 0.64, hi: float = 0.8) -> np.ndarray:
    """Symmetric values in a band where NA1 holds for product and Lukasiewicz.

    With values in [lo, hi], hi*hi <= lo gives product-norm NA1 and
    2*hi - 1 <= lo gives the Lukasiewicz one; [0.64, 0.8] satisfies both.
    """
    v = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v[i, j] = v[j, i] = rng.uniform(lo, hi)
    return v


# ---------------------------------------------------------------------------
# loop references for the family checks and the matched-net cross matrix


def diameter_floor_loop(family, grid=None, tol: float = 1e-12):
    """check_diameter_floor by a scalar t-diameter per (grid point, space)."""
    from fuzzygh.sequences import FloorReport
    from fuzzygh.space import certification_grid, t_diameter

    c = family.floor
    g = certification_grid(grid, *family.spaces, extra=c.breakpoints)
    positive = True
    below = True
    worst = np.inf
    violations = []
    for s in g:
        c_val = c.eval(s)
        if not c_val > 0.0:
            positive = False
            violations.append((-1, float(s), c_val, np.nan))
        for n, sp in enumerate(family.spaces):
            d_val = t_diameter(sp, s)
            slack = d_val - c_val
            worst = min(worst, slack)
            if slack < -tol:
                below = False
                violations.append((n, float(s), c_val, d_val))
    return FloorReport(
        passed=positive and below,
        positive=positive,
        below_diameters=below,
        worst_slack=worst,
        violations=tuple(violations),
    )


def pigeonhole_loop(family, t: float, eps: float):
    """pigeonhole_subsequence's table by one ``sp.value`` per net cell and
    ``math.floor(v / width)``, grouped by first occurrence."""
    from fuzzygh.errors import DomainError
    from fuzzygh.sequences import PigeonholeTable

    nets = family.nets_for(t, eps)
    width = family.norm(family.floor.eval(t), eps)
    if not width > 0.0:
        raise DomainError(f"cell width {width} is not positive; pick a larger eps or floor")
    matrices = []
    for sp, net in zip(family.spaces, nets):
        matrices.append(tuple(tuple(math.floor(sp.value(i, j, t) / width) for j in net) for i in net))
    groups: list[list[int]] = []
    for n, mat in enumerate(matrices):
        for g in groups:
            if matrices[g[0]] == mat:
                g.append(n)
                break
        else:
            groups.append([n])
    best = groups[0]
    for g in groups[1:]:
        if len(g) > len(best):
            best = g
    return PigeonholeTable(
        t=t,
        eps=eps,
        cell_width=width,
        matrices=tuple(matrices),
        groups=tuple(tuple(g) for g in groups),
        selected=tuple(best),
    )


def ratio_condition_loop(family, t: float, eps: float, s_grid=None, tol: float = 1e-12):
    """check_ratio_condition by a five-deep loop over (n, m, i, j, s) with the scalar norm."""
    from fuzzygh.errors import DomainError
    from fuzzygh.sequences import RatioReport, default_ratio_grid

    nets = family.nets_for(t, eps)
    norm = family.norm
    one_minus = 1.0 - eps
    if s_grid is None:
        s_grid = default_ratio_grid(family, t)
    s_vals = [s for s in s_grid if s > t]
    size = len(nets[0])
    count = len(family.spaces)
    vals_t = np.empty((count, size, size))
    vals_s = np.empty((count, size, size, len(s_vals)))
    for n, (sp, net) in enumerate(zip(family.spaces, nets)):
        for i in range(size):
            for j in range(size):
                vals_t[n, i, j] = sp.value(net[i], net[j], t)
                for s_pos, s in enumerate(s_vals):
                    vals_s[n, i, j, s_pos] = sp.value(net[i], net[j], s)
    if np.any(vals_t <= tol):
        raise DomainError("zero net similarity at t; the diameter floor must be violated")
    is_product = norm.kind == "product"
    passed = True
    product_passed = True if is_product else None
    worst = np.inf
    witnesses = []
    for n in range(count):
        for m in range(count):
            if n == m:
                continue
            for i in range(size):
                for j in range(size):
                    a_t, b_t = vals_t[n, i, j], vals_t[m, i, j]
                    den_t = norm(b_t, one_minus)
                    if den_t <= tol:
                        raise DomainError("zero damped denominator at t")
                    base = a_t / den_t
                    base_plain = a_t / b_t
                    for s_pos, s in enumerate(s_vals):
                        a_s = vals_s[n, i, j, s_pos]
                        b_s = vals_s[m, i, j, s_pos]
                        if not b_s - a_s > tol:
                            continue
                        den_s = norm(b_s, one_minus)
                        if den_s <= tol:
                            raise DomainError("zero damped denominator above t")
                        margin = a_s / den_s - base
                        worst = min(worst, margin)
                        if margin < -tol:
                            passed = False
                            witnesses.append((n, m, i, j, float(s)))
                        if is_product and a_s / b_s - base_plain < -tol:
                            product_passed = False
    return RatioReport(
        passed=passed,
        product_form_passed=product_passed,
        worst_margin=float(worst) if worst is not np.inf else 0.0,
        witnesses=tuple(witnesses),
    )


def mutual_bounds_loop(x, y, nets, s_check, tol: float = 1e-12):
    """First failing single-factor bound of glue_via_nets in (i, j, s) order, or None.

    Returns ("(a)" or "(b)", (i, j, s)).
    """
    norm = x.norm
    one_minus = 1.0 - nets.eps
    for i in range(nets.size):
        for j in range(nets.size):
            fx = x.entry(nets.left[i], nets.left[j])
            fy = y.entry(nets.right[i], nets.right[j])
            for s in s_check:
                a, b = fx.eval(s), fy.eval(s)
                if not a - norm(b, one_minus) >= -tol:
                    return "(a)", (i, j, s)
                if not b - norm(a, one_minus) >= -tol:
                    return "(b)", (i, j, s)
    return None


def net_cross_closures(x, y, nets, floor, splice: float, points):
    """Cross matrix of glue_via_nets: two closures per entry, materialized point
    by point, then the closure of the limits at infinity after the last point."""
    from fuzzygh.valuefn import Stationary, Step

    norm = x.norm
    one_minus = 1.0 - nets.eps
    pts = sorted(set(float(p) for p in points if p > 0.0))
    rows = []
    for p in range(x.n):
        row = []
        for q in range(y.n):
            fxs = [x.entry(p, nets.left[i]) for i in range(nets.size)]
            fys = [y.entry(q, nets.right[i]) for i in range(nets.size)]

            def at(s, fxs=fxs, fys=fys):
                if s <= splice:
                    c = floor.eval(s)
                    return norm(norm(c, c), one_minus)
                best = max(norm(fx.eval(s), fy.eval(s)) for fx, fy in zip(fxs, fys))
                return norm(best, one_minus)

            tail = max(norm(right_limit(fx, math.inf), right_limit(fy, math.inf))
                       for fx, fy in zip(fxs, fys))
            # the value at each point, then at infinity; a breakpoint is
            # kept where the value changes
            vals = [float(at(p)) for p in pts] + [float(norm(tail, one_minus))]
            keep = [k for k in range(len(pts)) if vals[k + 1] != vals[k]]
            if keep:
                step = Step(tuple(pts[k] for k in keep), (vals[0], *(vals[k + 1] for k in keep)))
                row.append(step)
            else:
                row.append(Stationary(vals[0]))
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the scalar mutual-bound loops of persistence_delta and match_nets, kept as
# they were before the one array predicate replaced them


def persistence_delta_loop(x, y, px: int, px2: int, py: int, py2: int, t: float, eps: float,
                           tol: float = 1e-9) -> float:
    """persistence_delta with one scalar test of both bounds per sample."""
    from fuzzygh.errors import DomainError, HypothesisError
    from fuzzygh.util import geq, require_positive, require_unit
    from fuzzygh.valuefn import is_steplike

    require_positive(t, "t")
    require_unit(eps, "eps")
    if x.norm.kind != y.norm.kind:
        raise DomainError("both spaces must share the t-norm kind")
    fX = x.entry(px, px2)
    fY = y.entry(py, py2)
    norm = x.norm
    one_minus = 1.0 - eps

    def conds_at(s: float) -> bool:
        a = fX.eval(s)
        b = fY.eval(s)
        return geq(a, norm(b, one_minus)) and geq(b, norm(a, one_minus))

    if not conds_at(t):
        raise HypothesisError("(a)/(b)", where=t, detail="mutual bounds fail at t")

    bps = sorted(set(fX.breakpoints) | set(fY.breakpoints))
    if is_steplike(fX) and is_steplike(fY):
        below = [b for b in bps if b < t]
        if not below:
            return t / 2.0
        b = max(below)
        delta = t - b
        # both functions are constant on (b, t]; include b itself only if the
        # bounds survive the jump
        return delta if conds_at(b) else delta * (1.0 - 1e-12)

    def predicate(delta: float) -> bool:
        lo = t - delta
        samples = list(np.linspace(lo, t, 33))
        samples.extend(b for b in bps if lo <= b <= t)
        return all(conds_at(s) for s in samples)

    if predicate(t):
        return t
    lo_d, hi_d = 0.0, t
    while hi_d - lo_d > tol:
        mid = 0.5 * (lo_d + hi_d)
        if predicate(mid):
            lo_d = mid
        else:
            hi_d = mid
    if lo_d <= 0.0:
        raise HypothesisError(
            "(a)/(b)",
            where=t,
            detail="bounds hold at t with no positive persistence width (exact tie)",
        )
    return lo_d


def match_nets_loop(x, y, t: float, eps: float, left, right, factor=None, tol: float = 1e-12) -> dict:
    """match_nets with one scalar comparison per pair and flag; the fields as a dict."""
    from fuzzygh.covering import is_net
    from fuzzygh.errors import DomainError
    from fuzzygh.util import geq, gt_strict, require_open_unit, require_positive

    require_positive(t, "t")
    require_open_unit(eps, "eps")
    norm = x.norm
    if factor is None:
        factor = norm(1.0 - eps, 1.0 - eps)
    left = tuple(int(i) for i in left)
    right = tuple(int(i) for i in right)
    n = len(left)
    if n == 0 or len(right) != n:
        raise DomainError("nets must be nonempty and equally long")
    x.check_index(*left)
    y.check_index(*right)
    sx, sy = x.at(t), y.at(t)
    mx = [[sx[i][j] for j in left] for i in left]
    my = [[sy[i][j] for j in right] for i in right]
    cond_a = tuple(
        tuple(geq(mx[i][j], norm(my[i][j], factor), tol) for j in range(n)) for i in range(n)
    )
    cond_b = tuple(
        tuple(geq(my[i][j], norm(mx[i][j], factor), tol) for j in range(n)) for i in range(n)
    )
    strict_a = tuple(
        tuple(gt_strict(mx[i][j], norm(my[i][j], factor), tol) for j in range(n)) for i in range(n)
    )
    strict_b = tuple(
        tuple(gt_strict(my[i][j], norm(mx[i][j], factor), tol) for j in range(n)) for i in range(n)
    )
    thr1 = 1.0 - eps
    thr3 = norm(norm(thr1, thr1), thr1)
    return dict(
        t=t,
        eps=eps,
        left=left,
        right=right,
        factor=factor,
        cond_a=cond_a,
        cond_b=cond_b,
        strict_a=strict_a,
        strict_b=strict_b,
        left_net_eps=is_net(sx, left, thr1, tol),
        right_net_eps=is_net(sy, right, thr1, tol),
        left_net_eps3=is_net(sx, left, thr3, tol),
        right_net_eps3=is_net(sy, right, thr3, tol),
    )


# ---------------------------------------------------------------------------
# the matched-net lower-bound strategy loop


def bounds_hold_at_t(mx, my, left, right, norm, eps: float, tol: float = 1e-12) -> bool:
    """persistence_delta's test at t for every matched pair i <= j, on the t-slices:
    an alignment that fails here makes ``attempt_net_gluing`` raise ``HypothesisError``."""
    one_minus = 1.0 - eps
    for i in range(len(left)):
        for j in range(i, len(left)):
            a = mx[left[i]][left[j]]
            b = my[right[i]][right[j]]
            if not (a - norm(b, one_minus) >= -tol and b - norm(a, one_minus) >= -tol):
                return False
    return True


def lower_bound_loop(x, y, t: float, eps_schedule=(0.5, 0.3, 0.2, 0.1, 0.05, 0.01), grid=None,
                     tol: float = 1e-12):
    """The matched-net lower bound: the constant gluings, then for each eps a
    gluing over every alignment of minimal nets (and of the full point sets when
    the spaces are isometric), with the floor rebuilt per attempt.

    Returns (value, witness, method).  The gluing functions are looked up in
    ``fuzzygh.gluing`` at call time, so a test can count or replace them there.
    """
    from itertools import permutations

    from fuzzygh.covering import find_net
    from fuzzygh.errors import ConstructionError, DomainError, HypothesisError
    from fuzzygh.gluing import attempt_net_gluing, floor_envelope, glue_constant, union_hausdorff
    from fuzzygh.valuefn import ZERO

    best_value = -1.0
    best_witness = None
    best_method = ""

    def consider(u, method):
        nonlocal best_value, best_witness, best_method
        h = union_hausdorff(u, t)
        if h > best_value:
            best_value, best_witness, best_method = h, u, method

    consider(glue_constant(x, y, ZERO, grid), "constant-zero")
    try:
        consider(glue_constant(x, y, floor_envelope(x, y, grid), grid), "constant-envelope")
    except (ConstructionError, HypothesisError):
        pass

    iso = None
    if x.n == y.n:
        iso = is_isometric_loop(x, y, grid)

    for eps in sorted(eps_schedule):
        candidates = []
        if iso is not None:
            candidates.append((tuple(range(x.n)), iso))
        net_x = find_net(x, t, eps).indices
        net_y = find_net(y, t, eps).indices
        size = max(len(net_x), len(net_y))
        left = net_x + (net_x[0],) * (size - len(net_x))
        right = net_y + (net_y[0],) * (size - len(net_y))
        if size <= 6:
            for sigma in permutations(range(size)):
                candidates.append((left, tuple(right[k] for k in sigma)))
        else:
            candidates.append((left, right))
        for l_idx, r_idx in candidates:
            try:
                u = attempt_net_gluing(x, y, t, eps, l_idx, r_idx, grid=grid, tol=tol)
            except (HypothesisError, ConstructionError, DomainError):
                continue
            consider(u, f"matched-nets eps={eps}")
            break

    return best_value, best_witness, best_method


def eager_lower_bound_loop(x, y, t: float, relation, grid=None, tol: float = 1e-12):
    """The lower bound's strategies, each built and validated in full: the zero
    gluing, the envelope gluing and, given a relation, the relation gluing, in
    that order; the first of the largest Hausdorff values wins.

    Returns (value, witness, method).
    """
    from fuzzygh.errors import ConstructionError, HypothesisError
    from fuzzygh.gluing import floor_envelope, glue_constant, glue_via_relation, union_hausdorff
    from fuzzygh.valuefn import ZERO

    found = [(glue_constant(x, y, ZERO, grid, tol), "constant-zero")]
    try:
        found.append((glue_constant(x, y, floor_envelope(x, y, grid), grid, tol), "constant-envelope"))
    except (ConstructionError, HypothesisError):
        pass
    if relation is not None:
        try:
            found.append((glue_via_relation(x, y, t, relation, grid, tol), "witness-relation"))
        except ConstructionError:
            pass
    values = [union_hausdorff(u, t) for u, _ in found]
    k = values.index(max(values))
    return values[k], found[k][0], found[k][1]


# ---------------------------------------------------------------------------
# the single-scale relaxation behind the upper bound


def _tnorm_loop(kind: str, a: float, b: float) -> float:
    if kind == "product":
        return a * b
    if kind == "minimum":
        return min(a, b)
    return max(a + b - 1.0, 0.0)


def relaxation_feasible_loop(mx, my, kind: str, c, tol: float = 1e-12) -> bool:
    """Whether cross matrix c satisfies every triangle instance of the union at one scale.

    Upper instances T(c[p][q], c[p2][q]) <= mx[p][p2] (and the Y analogue) within
    tol; lower instances c[p][q] >= T(mx[p][p2], c[p2][q]) (and the Y analogue)
    within tol.
    """
    nx, ny = len(mx), len(my)
    for p in range(nx):
        for p2 in range(nx):
            if p2 == p:
                continue
            for q in range(ny):
                if _tnorm_loop(kind, c[p][q], c[p2][q]) > mx[p][p2] + tol:
                    return False
                if c[p][q] < _tnorm_loop(kind, mx[p][p2], c[p2][q]) - tol:
                    return False
    for q in range(ny):
        for q2 in range(ny):
            if q2 == q:
                continue
            for p in range(nx):
                if _tnorm_loop(kind, c[p][q], c[p][q2]) > my[q][q2] + tol:
                    return False
                if c[p][q] < _tnorm_loop(kind, my[q2][q], c[p][q2]) - tol:
                    return False
    return True


def closure_loop(mx, my, kind: str, relation, gamma: float) -> list[list[float]]:
    """cl_W(p, q) = max over (pw, qw) in W of T(T(mx[p][pw], my[qw][q]), gamma)."""
    return [
        [
            max(
                _tnorm_loop(kind, _tnorm_loop(kind, mx[p][pw], my[qw][q]), gamma)
                for pw, qw in relation
            )
            for q in range(len(my))
        ]
        for p in range(len(mx))
    ]


def relaxation_sup_loop(mx, my, kind: str, tol: float = 1e-12, steps: int = 60) -> float:
    """Supremum of the Hausdorff objective over the relaxation, by enumeration.

    For every relation W meeting every row and column, bisect the largest gamma
    whose closure cl_W passes relaxation_feasible_loop (feasibility falls as
    gamma grows); the supremum is the maximum over W.  Smaller relations come
    first, and a W whose closure fails 1e-12 above the best value so far is
    skipped: it cannot beat that value by more.
    """
    nx, ny = len(mx), len(my)
    cells = [(p, q) for p in range(nx) for q in range(ny)]
    best = 0.0
    for mask in sorted(range(1, 1 << len(cells)), key=lambda m: bin(m).count("1")):
        relation = [w for b, w in enumerate(cells) if mask >> b & 1]
        if {p for p, _ in relation} != set(range(nx)) or {q for _, q in relation} != set(range(ny)):
            continue

        def feasible(gamma):
            return relaxation_feasible_loop(mx, my, kind, closure_loop(mx, my, kind, relation, gamma), tol)

        if not feasible(best + 1e-12):
            continue
        if feasible(1.0):
            return 1.0
        lo, hi = best, 1.0
        for _ in range(steps):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
        best = lo
    return best


def relaxation_grid_max(mx, my, kind: str, points: int = 200_000) -> float:
    """Largest Hausdorff objective over the cross matrices on a uniform grid of [0, 1]
    that satisfy every triangle instance at one scale exactly.

    Every admissible grid point lies in the relaxation, so this is a lower bound
    on its supremum.  The grid has about ``points`` points in total.
    """
    from itertools import product

    mx, my = np.asarray(mx), np.asarray(my)
    nx, ny = len(mx), len(my)
    k = nx * ny
    steps = max(1, min(100, int(points ** (1.0 / k)) - 1))
    g = np.linspace(0.0, 1.0, steps + 1)
    c = np.stack(np.meshgrid(*([g] * k), indexing="ij"), -1).reshape(-1, nx, ny)

    def tn(a, b):
        if kind == "product":
            return a * b
        if kind == "minimum":
            return np.minimum(a, b)
        return np.maximum(a + b - 1.0, 0.0)

    ok = np.ones(len(c), dtype=bool)
    for p, p2 in product(range(nx), repeat=2):
        if p != p2:
            for q in range(ny):
                ok &= tn(c[:, p, q], c[:, p2, q]) <= mx[p, p2]
                ok &= c[:, p, q] >= tn(mx[p, p2], c[:, p2, q])
    for q, q2 in product(range(ny), repeat=2):
        if q != q2:
            for p in range(nx):
                ok &= tn(c[:, p, q], c[:, p, q2]) <= my[q, q2]
                ok &= c[:, p, q] >= tn(my[q2, q], c[:, p, q2])
    c = c[ok]
    return float(np.minimum(c.max(axis=2).min(axis=1), c.max(axis=1).min(axis=1)).max())


def _damping_loop(kind: str, kk: float, cap: float) -> float:
    """The largest gamma in [0, 1] with T(kk, T(gamma, gamma)) <= cap."""
    if kind == "product":
        return 1.0 if kk == 0.0 else math.sqrt(min(1.0, cap / kk))
    if kind == "minimum":
        return 1.0 if kk <= cap else cap
    return min(1.0, (cap + 2.0 - kk) / 2.0)


def instance_damping_loop(ca, cb, capx, capy, kind: str) -> float:
    """Least largest gamma with T(T(ca[a], cb[b]), T(gamma, gamma)) <= A over
    every upper instance: cells a = (p, q), b = (p2, q) with A = capx[p][p2],
    and a = (p, q), b = (p, q2) with A = capy[q][q2] (p < p2, q < q2); 1 when
    there is none.  ``ca`` and ``cb`` are n_x rows of n_y values."""
    g = 1.0
    for p, p2 in combinations(range(len(capx)), 2):
        for q in range(len(capy)):
            g = min(g, _damping_loop(kind, _tnorm_loop(kind, ca[p][q], cb[p2][q]), capx[p][p2]))
    for q, q2 in combinations(range(len(capy)), 2):
        for p in range(len(capx)):
            g = min(g, _damping_loop(kind, _tnorm_loop(kind, ca[p][q], cb[p][q2]), capy[q][q2]))
    return g


def pair_thresholds_loop(mx, my, kind: str, tol: float = 1e-12) -> list[list[float]]:
    """The upper bound's pairwise thresholds in their instance form, at one scale.

    Cell w = (p_w, q_w), numbered p_w * n_y + q_w, has the kernel rows
    k_w[p][q] = T(mx[p_w][p], my[q_w][q]).  The threshold of cells w, w' is the
    least ``instance_damping_loop`` of (k_w, k_w') and of (k_w', k_w), every
    upper instance in both orders, with the caps mx + tol and my + tol.
    """
    nx, ny = len(mx), len(my)
    kern = [
        [[_tnorm_loop(kind, mx[pw][p], my[qw][q]) for q in range(ny)] for p in range(nx)]
        for pw in range(nx)
        for qw in range(ny)
    ]
    capx = [[v + tol for v in row] for row in mx]
    capy = [[v + tol for v in row] for row in my]
    one_way = [[instance_damping_loop(ka, kb, capx, capy, kind) for kb in kern] for ka in kern]
    return [[min(g, back) for g, back in zip(row, col)] for row, col in zip(one_way, zip(*one_way))]


# ---------------------------------------------------------------------------
# the per-cell loops that FuzzySpace.at, the coverage predicate and
# hausdorff_block replaced, kept as they were


def slice_loop(space, t: float) -> list:
    """The t-slice by one ``space.value`` call per cell."""
    return [[space.value(i, j, t) for j in range(space.n)] for i in range(space.n)]


def is_net_loop(space, indices, t: float, threshold: float, tol: float = 1e-12) -> bool:
    """gluing._is_net: every point strictly above threshold to some point of indices."""
    from fuzzygh.util import gt_strict

    pts = set(indices)
    return all(
        any(gt_strict(space.value(p, q, t), threshold, tol) for q in pts)
        for p in range(space.n)
    )


def hausdorff_fuzzy_loop(space, ia, ib, t: float) -> float:
    """hausdorff_fuzzy on resolved index tuples, one ``space.value`` per cell."""
    fwd = min(max(space.value(x, y, t) for y in ib) for x in ia)
    bwd = min(max(space.value(x, y, t) for x in ia) for y in ib)
    return min(fwd, bwd)


def hausdorff_conditions_loop(space, ia, ib, t: float, eps: float, tol: float = 1e-12):
    """hausdorff_conditions on resolved index tuples: (holds, witnesses)."""
    from fuzzygh.util import gt_strict

    threshold = 1.0 - eps
    witnesses = []
    for x in ia:
        if not any(gt_strict(space.value(x, y, t), threshold, tol) for y in ib):
            witnesses.append(("a", x))
    for y in ib:
        if not any(gt_strict(space.value(x, y, t), threshold, tol) for x in ia):
            witnesses.append(("b", y))
    return (not witnesses), witnesses


def find_net_loop(space, t: float, eps: float, exact_limit: int = 15, tol: float = 1e-12):
    """find_net with the per-cell coverage matrix: (indices, coverage, minimal)."""
    from fuzzygh.util import gt_strict

    n = space.n
    cov = np.zeros((n, n), dtype=bool)
    threshold = 1.0 - eps
    for x in range(n):
        for y in range(n):
            cov[x, y] = gt_strict(space.value(x, y, t), threshold, tol)

    def witnesses(net):
        out = []
        for x in range(cov.shape[0]):
            for y in net:
                if cov[x, y]:
                    out.append(y)
                    break
        return tuple(out)

    if n <= exact_limit:
        for k in range(1, n + 1):
            for subset in combinations(range(n), k):
                if cov[:, subset].any(axis=1).all():
                    return subset, witnesses(subset), True
        raise AssertionError("finite space admits the trivial net")
    uncovered = np.ones(n, dtype=bool)
    net = []
    while uncovered.any():
        gains = cov[uncovered].sum(axis=0)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise AssertionError("self-coverage guarantees progress")
        net.append(best)
        uncovered &= ~cov[:, best]
    net_t = tuple(sorted(net))
    return net_t, witnesses(net_t), False


def min_cover_numpy(cov: np.ndarray, exact_limit: int) -> tuple[tuple[int, ...], bool]:
    """``covering._min_cover`` with each subset tested by a numpy fancy index:
    the lexicographically least minimum cover up to ``exact_limit`` points,
    the greedy one beyond."""
    n = len(cov)
    if n <= exact_limit:
        for k in range(1, n + 1):
            for subset in combinations(range(n), k):
                if cov[:, subset].any(axis=1).all():
                    return subset, True
        raise AssertionError("self-coverage guarantees a cover")
    uncovered = np.ones(n, dtype=bool)
    net: list[int] = []
    while uncovered.any():
        gains = cov[uncovered].sum(axis=0)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise AssertionError("self-coverage guarantees progress")
        net.append(best)
        uncovered &= ~cov[:, best]
    return tuple(sorted(net)), False


def metric_cover_number_search(distances, radius: float, exact_limit: int = 15,
                               tol: float = 1e-12) -> int:
    """metric_cover_number with its own exact and greedy searches."""
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    cov = d < radius - tol
    np.fill_diagonal(cov, True)
    if n <= exact_limit:
        for k in range(1, n + 1):
            for subset in combinations(range(n), k):
                if cov[:, subset].any(axis=1).all():
                    return k
        raise AssertionError("self-coverage guarantees a cover")
    uncovered = np.ones(n, dtype=bool)
    count = 0
    while uncovered.any():
        gains = cov[uncovered].sum(axis=0)
        best = int(np.argmax(gains))
        count += 1
        uncovered &= ~cov[:, best]
    return count


# ---------------------------------------------------------------------------
# the correspondence enumeration and the permutation backtracking that the
# relation search replaced, kept as they were


def classical_gh_loop(dx, dy) -> float:
    """classical_gh_exact by enumerating every relation with full projections."""
    ax = dx.entries if hasattr(dx, "entries") else np.asarray(dx, dtype=float).tolist()
    ay = dy.entries if hasattr(dy, "entries") else np.asarray(dy, dtype=float).tolist()
    nx, ny = len(ax), len(ay)
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    nm = len(cells)
    row_mask = [0] * nx
    col_mask = [0] * ny
    for b, (i, j) in enumerate(cells):
        row_mask[i] |= 1 << b
        col_mask[j] |= 1 << b
    best = math.inf
    for mask in range(1, 1 << nm):
        if any(not mask & rm for rm in row_mask) or any(not mask & cm for cm in col_mask):
            continue
        members = [cells[b] for b in range(nm) if mask & (1 << b)]
        worst = 0.0
        for a_pos in range(len(members)):
            i, j = members[a_pos]
            for b_pos in range(a_pos, len(members)):
                i2, j2 = members[b_pos]
                dist = abs(ax[i][i2] - ay[j][j2])
                if dist > worst:
                    worst = dist
                    if worst >= best:
                        break
            if worst >= best:
                break
        if worst < best:
            best = worst
    return best / 2.0


def fresh_slices_loop(g, *spaces) -> list[int]:
    """The grid points whose slice, in any of the spaces, differs from the one
    at the point before, read off the full (T, n, n) value grids; the first
    point always counts."""
    grids = [sp.grid_values(g) for sp in spaces]
    fresh = [0]
    for s in range(1, len(g)):
        if any(np.any(V[s] - V[s - 1] != 0.0) for V in grids):
            fresh.append(s)
    return fresh


def is_isometric_loop(a, b, grid=None, tol: float = 1e-12):
    """is_isometric by backtracking over permutations in lexicographic order."""
    from fuzzygh.errors import DomainError
    from fuzzygh.space import certification_grid

    if a.norm.kind != b.norm.kind:
        raise DomainError("isometry testing requires the same t-norm kind")
    if a.n != b.n:
        return None
    g = certification_grid(grid, a, b)
    Va = a.grid_values(g)
    Vb = b.grid_values(g)
    n = a.n

    def extend(partial: list[int], used: set[int]) -> list[int] | None:
        i = len(partial)
        if i == n:
            return partial
        for cand in range(n):
            if cand in used:
                continue
            ok = True
            for j, pj in enumerate(partial):
                if np.max(np.abs(Va[:, i, j] - Vb[:, cand, pj])) > tol:
                    ok = False
                    break
            if ok:
                res = extend(partial + [cand], used | {cand})
                if res is not None:
                    return res
        return None

    res = extend([], set())
    return tuple(res) if res is not None else None


def compress_step_loop(pts, vals):
    """The step with values vals on the intervals ending at pts, built by
    dropping each breakpoint across which the value does not change."""
    from fuzzygh.valuefn import Step

    # drop a breakpoint whenever the value does not change across it; Step
    # checks range and monotonicity of every kept value, and a dropped value
    # equals the kept one before it
    keep_b: list[float] = []
    keep_v: list[float] = [vals[0]]
    for b, nxt in zip(pts, vals[1:]):
        if nxt != keep_v[-1]:
            keep_b.append(b)
            keep_v.append(nxt)
    return Step(tuple(keep_b), tuple(keep_v))


def vf_min_steps_loop(fns):
    """Pointwise minimum of step functions read off by ``eval`` at the merged
    breakpoints (each value holds on the interval ending there), plus the
    right limit after the last one."""
    from fuzzygh.valuefn import Stationary

    bps: set[float] = set()
    for f in fns:
        bps.update(f.breakpoints)
    if not bps:
        return Stationary(min(f.values[0] for f in fns))
    pts = sorted(bps)
    vals = [min(f.eval(s) for f in fns) for s in pts]
    return compress_step_loop(pts, vals + [min(right_limit(f, pts[-1]) for f in fns)])


def right_limit(f, s: float) -> float:
    """The limit of f(t) as t falls to s >= 0, its limit at infinity for
    s = inf: a step's value after its breakpoints <= s; for t / (t + d),
    s / (s + d), except 0 (d > 0) or 1 (d = 0) at s = 0 and 1 at s = inf."""
    from fuzzygh.valuefn import Standard

    if not isinstance(f, Standard):
        return f.values[sum(b <= s for b in f.breakpoints)]
    if s == 0.0:
        return 0.0 if f.d > 0.0 else 1.0
    return 1.0 if s == math.inf else s / (s + f.d)


def vf_min_loop(fns, grid=()):
    """The step lower envelope of value functions of any representation: on
    each interval (a, b] between merged breakpoints and grid points, the least
    right limit at a."""
    from fuzzygh.valuefn import Step

    pts = sorted({b for f in fns for b in f.breakpoints} | {float(g) for g in grid if g > 0.0})
    return Step(pts, [min(right_limit(f, s) for f in fns) for s in [0.0, *pts]])


def damping_pairs(closure, capx, capy, norm):
    """(S,) least damping over every upper instance of the (S, n_x, n_y)
    cross ``closure``, expanded into one (S, pairs, n) array per side: the
    pairs p < p2 of rows with their caps capx[s, p, p2], then the pairs of
    columns with capy[s, q, q2]; 1 when a side has no pair."""
    px, px2 = np.triu_indices(capx.shape[1], 1)
    qy, qy2 = np.triu_indices(capy.shape[1], 1)
    gx = norm.max_damping(norm.array(closure[:, px], closure[:, px2]), capx[:, px, px2, None])
    gy = norm.max_damping(norm.array(closure[:, :, qy], closure[:, :, qy2]), capy[:, None, qy, qy2])
    return np.minimum(gx.min(axis=(1, 2), initial=1.0), gy.min(axis=(1, 2), initial=1.0))


# ---------------------------------------------------------------------------
# report serialization: the per-class ``as_dict`` bodies the ``Report`` mixin
# replaced, kept verbatim except that nested reports go through this oracle


def _net_certificate(self) -> dict:
    return {
        "t": self.t,
        "eps": self.eps,
        "indices": list(self.indices),
        "coverage": list(self.coverage),
        "minimal": self.minimal,
        "size": len(self.indices),
    }


def _axiom_report(self) -> dict:
    return {
        "km1": self.km1,
        "km2": self.km2,
        "km3": self.km3,
        "km5": self.km5,
        "na1": self.na1,
        "na2": self.na2,
        "na1_residual": self.na1_residual,
        "witness": list(self.witness) if self.witness is not None else None,
        "grid_size": len(self.grid),
        "tol": self.tol,
        "passed": self.passed,
    }


def _tnorm_axiom_report(self) -> dict:
    return {
        "commutativity": self.commutativity,
        "associativity": self.associativity,
        "identity": self.identity,
        "monotonicity": self.monotonicity,
        "range_violation": self.range_violation,
        "tol": self.tol,
        "passed": self.passed,
    }


def _upper_bound_result(self) -> dict:
    return {
        "t": self.t,
        "value": self.value,
        "variables": self.variables,
        "nodes": self.nodes,
        "relation": [list(w) for w in self.relation],
    }


def _floor_report(self) -> dict:
    return {
        "passed": self.passed,
        "positive": self.positive,
        "below_diameters": self.below_diameters,
        "worst_slack": self.worst_slack,
        "violations": [list(v) for v in self.violations[:20]],
    }


def _ratio_report(self) -> dict:
    return {
        "passed": self.passed,
        "product_form_passed": self.product_form_passed,
        "worst_margin": self.worst_margin,
        "witnesses": [list(w) for w in self.witnesses[:20]],
    }


def _pigeonhole_table(self) -> dict:
    return {
        "t": self.t,
        "eps": self.eps,
        "cell_width": self.cell_width,
        "matrices": [[list(r) for r in m] for m in self.matrices],
        "groups": [list(g) for g in self.groups],
        "selected": list(self.selected),
    }


def _group_certificate(self) -> dict:
    return {
        "t": self.t,
        "eps": self.eps,
        "threshold": self.threshold,
        "h_values": [list(v) for v in self.h_values],
        "failures": [list(f) for f in self.failures],
        "passed": self.passed,
    }


def _stationary_report(self) -> dict:
    return {
        "passed": self.passed,
        "failures": list(self.failures),
        "floor_value": self.floor_value,
        "cover_bound": self.cover_bound,
        "group": list(self.group),
        "certificate": report_as_dict(self.certificate) if self.certificate else None,
    }


def _bridge_report(self) -> dict:
    return {
        "passed": self.passed,
        "floor": report_as_dict(self.floor),
        "cover_rows": [list(r) for r in self.cover_rows],
        "cover_translation_ok": self.cover_translation_ok,
        "cover_bound_ok": self.cover_bound_ok,
        "ratio": report_as_dict(self.ratio),
        "t": self.t,
        "eps": self.eps,
        "radius": self.radius,
    }


def _no_cauchy_report(self) -> dict:
    return {
        "count": self.count,
        "t": self.t,
        "eps": self.eps,
        "even_value": self.even_value,
        "odd_value": self.odd_value,
        "damped_requirement": self.damped_requirement,
        "necessity_inequality_holds": self.necessity_inequality_holds,
        "net_sizes": list(self.net_sizes),
        "pair_upper_bounds": [list(p) for p in self.pair_upper_bounds],
        "max_pair_upper": self.max_pair_upper,
        "threshold": self.threshold,
        "self_lower_bound": self.self_lower_bound,
        "contradiction_confirmed": self.contradiction_confirmed,
    }


_AS_DICT = {
    "NetCertificate": _net_certificate,
    "AxiomReport": _axiom_report,
    "TNormAxiomReport": _tnorm_axiom_report,
    "UpperBoundResult": _upper_bound_result,
    "FloorReport": _floor_report,
    "RatioReport": _ratio_report,
    "PigeonholeTable": _pigeonhole_table,
    "GroupCertificate": _group_certificate,
    "StationaryReport": _stationary_report,
    "BridgeReport": _bridge_report,
    "NoCauchyReport": _no_cauchy_report,
}


def report_as_dict(report) -> dict:
    """The hand-written field-by-field dict of a report, keyed by its class name."""
    return _AS_DICT[type(report).__name__](report)
