"""The t-slice, the coverage predicate and the block Hausdorff value against the
per-cell ``space.value`` loops they replaced (tests/oracles.py)."""

import numpy as np
import pytest

from fuzzygh import (
    Step,
    TNorm,
    ZERO,
    extract_matched_nets,
    find_net,
    floor_envelope,
    gh_fuzzy_lower_bound,
    glue_constant,
    hausdorff_conditions,
    hausdorff_fuzzy,
    make_standard_space,
    make_stationary_space,
    make_step_space,
    metric_cover_number,
    point_to_set,
    union_hausdorff,
)
from fuzzygh import covering
from fuzzygh.covering import coverage, is_net
from fuzzygh.hausdorff import hausdorff_block
from fuzzygh.space import _CLIQUE_NODE_BUDGET

from oracles import (
    find_net_loop,
    hausdorff_conditions_loop,
    hausdorff_fuzzy_loop,
    is_net_loop,
    metric_cover_number_search,
    random_metric,
    random_safe_stationary_values,
    slice_loop,
)

NORMS = ("product", "minimum", "lukasiewicz")
STEP_BREAKS = (0.1, 0.3, 1.0, 3.0, 10.0)
SIZES = (1, 2, 3, 5, 8, 12)
EPS = (0.05, 0.3, 0.6)


def _space(rng, n, kind, rep):
    labels = [f"p{i}" for i in range(n)]
    norm = TNorm(kind)
    if rep == "stationary":
        return make_stationary_space(labels, random_safe_stationary_values(rng, n, 0.3, 0.95), norm)
    d = random_metric(rng, n, 0.1, 5.0)
    if rep == "standard":
        return make_standard_space(labels, d, norm)
    s = np.asarray(STEP_BREAKS + (2.0 * STEP_BREAKS[-1],))
    steps = {
        (i, j): Step(STEP_BREAKS, tuple(float(v) for v in s / (s + d[i, j])))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return make_step_space(labels, steps, norm)


def _cases(seed=5):
    """(space, t) for every norm, representation and size; step spaces are read
    below the first breakpoint, exactly on breakpoints and above the last one."""
    rng = np.random.default_rng(seed)
    for kind in NORMS:
        for rep in ("standard", "stationary", "step"):
            for n in SIZES:
                sp = _space(rng, n, kind, rep)
                ts = (0.05, STEP_BREAKS[2], STEP_BREAKS[-1], 50.0) if rep == "step" else (0.4, 2.5)
                for t in ts:
                    yield sp, t


def _subset(rng, n):
    k = int(rng.integers(1, n + 1))
    return tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))


def test_slice_matches_per_cell_values():
    for sp, t in _cases():
        assert sp.at(t) == slice_loop(sp, t)
    one = make_standard_space(["o"], [[0.0]], TNorm.product())
    assert one.at(1.0) == [[1.0]]
    assert one.at(0.0) == slice_loop(one, 0.0) == [[0.0]]


def test_nets_match_per_cell_search(monkeypatch):
    for sp, t in _cases():
        for eps in EPS:
            # the exact search, then the greedy one past a node budget of 0
            for budget, limit in ((_CLIQUE_NODE_BUDGET, 15), (0, 0)):
                monkeypatch.setattr(covering, "_CLIQUE_NODE_BUDGET", budget)
                cert = find_net(sp, t, eps)
                assert (cert.indices, cert.coverage, cert.minimal) == find_net_loop(
                    sp, t, eps, exact_limit=limit
                )
                assert cert.verify(sp) == is_net_loop(sp, cert.indices, t, 1.0 - eps) is True


def test_net_predicate_and_hausdorff_match_loops():
    rng = np.random.default_rng(9)
    for sp, t in _cases():
        rows = sp.at(t)
        for _ in range(3):
            a, b = _subset(rng, sp.n), _subset(rng, sp.n)
            for eps in EPS:
                assert is_net(rows, a, 1.0 - eps) == is_net_loop(sp, a, t, 1.0 - eps)
                assert hausdorff_conditions(sp, a, b, t, eps) == hausdorff_conditions_loop(
                    sp, a, b, t, eps
                )
            assert hausdorff_fuzzy(sp, a, b, t) == hausdorff_fuzzy_loop(sp, a, b, t)
            x = int(rng.integers(sp.n))
            assert point_to_set(sp, x, b, t) == max(sp.value(x, y, t) for y in b)


def test_values_within_tol_of_the_threshold_do_not_cover(monkeypatch):
    # 1 - 0.2 == 0.8: one tie, one value within tol above it, one beyond tol
    v = [[1.0, 0.8, 0.8 + 5e-13], [0.8, 1.0, 0.8 + 3e-12], [0.8 + 5e-13, 0.8 + 3e-12, 1.0]]
    sp = make_stationary_space(["a", "b", "c"], v, TNorm.product())
    expected = [[True, False, False], [False, True, True], [False, True, True]]
    assert coverage(sp.at(1.0), 1.0 - 0.2).tolist() == expected
    for budget, limit in ((_CLIQUE_NODE_BUDGET, 15), (0, 0)):
        monkeypatch.setattr(covering, "_CLIQUE_NODE_BUDGET", budget)
        cert = find_net(sp, 1.0, 0.2)
        assert cert.indices == find_net_loop(sp, 1.0, 0.2, exact_limit=limit)[0] == (0, 1)
    assert not is_net(sp.at(1.0), (2,), 0.8) and not is_net_loop(sp, (2,), 1.0, 0.8)
    assert hausdorff_conditions(sp, (0,), (1, 2), 1.0, 0.2) == hausdorff_conditions_loop(
        sp, (0,), (1, 2), 1.0, 0.2
    ) == (False, [("a", 0), ("b", 1), ("b", 2)])


def test_one_point_space():
    for kind in NORMS:
        sp = make_standard_space(["o"], [[0.0]], TNorm(kind))
        cert = find_net(sp, 1.0, 0.1)
        assert (cert.indices, cert.coverage, cert.minimal) == find_net_loop(sp, 1.0, 0.1) == ((0,), (0,), True)
        assert hausdorff_fuzzy(sp, (0,), (0,), 1.0) == hausdorff_block([[1.0]]) == 1.0
        assert hausdorff_conditions(sp, (0,), (0,), 1.0, 0.1) == (True, [])


def test_metric_cover_number_matches_its_own_search(monkeypatch):
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 9, 12):
        d = random_metric(rng, n, 0.1, 5.0)
        for radius in (0.5, 1.5, 3.0):
            for budget, limit in ((_CLIQUE_NODE_BUDGET, 15), (0, 0)):
                monkeypatch.setattr(covering, "_CLIQUE_NODE_BUDGET", budget)
                assert metric_cover_number(d, radius) == metric_cover_number_search(d, radius, limit)


def _metric(rng, n, kind):
    """A metric valid under the norm: the largest ultrametric below it for the minimum."""
    d = random_metric(rng, n)
    if kind == "minimum":
        for k in range(n):
            d = np.minimum(d, np.maximum(d[:, k : k + 1], d[k : k + 1, :]))
    return d


def _unions(kind, seed=3):
    rng = np.random.default_rng(seed)
    norm = TNorm(kind)
    for nx, ny in [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3), (4, 3)]:
        x = make_standard_space([f"x{i}" for i in range(nx)], _metric(rng, nx, kind), norm)
        y = make_standard_space([f"y{i}" for i in range(ny)], _metric(rng, ny, kind), norm)
        t = float(rng.uniform(0.3, 3.0))
        yield glue_constant(x, y, ZERO), t
        if nx + ny > 2:
            yield glue_constant(x, y, floor_envelope(x, y)), t
        yield gh_fuzzy_lower_bound(x, y, t).witness, t
        yield gh_fuzzy_lower_bound(x, x, t).witness, t  # a witness-relation gluing


@pytest.mark.parametrize("kind", NORMS)
def test_union_hausdorff_reads_the_cross_block(kind):
    for u, t in _unions(kind):
        left, right = u.left_indices(), u.right_indices()
        h = union_hausdorff(u, t)
        assert h == hausdorff_fuzzy(u.as_space(), left, right, t)
        assert h == hausdorff_fuzzy_loop(u.as_space(), left, right, t)


def test_matched_net_partners_are_the_first_argmax():
    checked = 0
    for kind in ("product", "lukasiewicz"):
        for u, t in _unions(kind):
            h = union_hausdorff(u, t)
            if not h > 0.02:
                continue
            eps = min(0.99, 1.0 - h + 0.01)
            net = find_net(u.left, t, eps).indices
            nets = extract_matched_nets(u, t, eps, net)
            partners = []
            for p in net:  # the loop the first argmax replaced
                best_q, best_v = 0, -1.0
                for q in range(u.n_right):
                    v = u.cross_value(p, q, t)
                    if v > best_v:
                        best_q, best_v = q, v
                partners.append(best_q)
            assert nets.right == tuple(partners)
            checked += 1
    assert checked > 10
