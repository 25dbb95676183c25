import sys
from itertools import permutations

import numpy as np
import pytest

from fuzzygh import (
    ConstructionError,
    DistanceMatrix,
    HypothesisError,
    ONE,
    SizeLimitError,
    Step,
    Standard,
    TNorm,
    UnionMetric,
    ZERO,
    attempt_net_gluing,
    classical_gh_exact,
    find_net,
    floor_envelope,
    gh_fuzzy_bounds,
    gh_fuzzy_lower_bound,
    gh_fuzzy_upper_bound,
    make_standard_space,
    make_stationary_space,
    make_step_space,
    glue_constant,
    check_axioms,
    union_hausdorff,
    validate_union,
)
from fuzzygh import ghdist, gluing
from fuzzygh.grids import GridSpec
from fuzzygh.sequences import gen_no_cauchy_family
from fuzzygh.space import FuzzySpace, certification_grid
from fuzzygh.util import TOL

from conftest import make_random_standard, make_random_stationary
from oracles import (
    bounds_hold_at_t,
    classical_gh_loop,
    closure_loop,
    eager_lower_bound_loop,
    instance_damping_loop,
    lower_bound_loop,
    na1_first_witness,
    pair_thresholds_loop,
    random_metric,
    random_safe_stationary_values,
    relaxation_feasible_loop,
    relaxation_grid_max,
    relaxation_sup_loop,
)


def test_lower_bound_self_pair_is_high(rng, product):
    x = make_random_stationary(rng, 3, product)
    res = gh_fuzzy_lower_bound(x, x, 1.0)
    assert res.value > 0.99 * 0.99
    assert validate_union(res.witness).passed
    # the bound is realized by its witness
    assert union_hausdorff(res.witness, 1.0) == pytest.approx(res.value, abs=1e-15)


def test_lower_bound_even_odd_pair_reaches_envelope(two_point_half, two_point_third):
    res = gh_fuzzy_lower_bound(two_point_half, two_point_third, 0.5)
    assert res.value >= 1 / 3 - 1e-12


def test_lower_bound_zero_floor_fallback(product):
    # wildly different sizes and values still yield a valid witness
    x = make_stationary_space(["a"], [[1.0]], product)
    y = make_stationary_space(["b", "c"], [[1, 0.2], [0.2, 1]], product)
    res = gh_fuzzy_lower_bound(x, y, 1.0)
    assert res.value >= 0.0
    assert validate_union(res.witness).passed


def test_upper_bound_counterexample_window(two_point_half, two_point_third):
    res = gh_fuzzy_upper_bound(two_point_half, two_point_third, 0.5)
    # the analytic optimum sqrt(2/3), with no grid slack
    assert res.value == pytest.approx(np.sqrt(2 / 3), abs=1e-9)


def test_upper_bound_self_pair_is_one(rng, product):
    x = make_random_stationary(rng, 3, product)
    assert gh_fuzzy_upper_bound(x, x, 1.0).value == 1.0


def test_upper_bound_single_points(product):
    x = make_stationary_space(["a"], [[1.0]], product)
    assert gh_fuzzy_upper_bound(x, x, 1.0).value == 1.0


def test_upper_bound_size_refusal(rng, product):
    x = make_random_stationary(rng, 7, product)
    y = make_random_stationary(rng, 6, product)
    with pytest.raises(SizeLimitError):
        gh_fuzzy_upper_bound(x, y, 1.0)  # 42 cross variables > 36


def test_bounds_symmetry(rng, product):
    x = make_random_stationary(rng, 2, product)
    y = make_random_stationary(rng, 3, product)
    t = 1.0
    assert gh_fuzzy_upper_bound(x, y, t).value == pytest.approx(
        gh_fuzzy_upper_bound(y, x, t).value, abs=1e-12
    )
    assert gh_fuzzy_lower_bound(x, y, t).value == pytest.approx(
        gh_fuzzy_lower_bound(y, x, t).value, abs=1e-9
    )


def test_constant_glue_lower_bound_monotone_in_t(rng, product):
    x = make_random_standard(rng, 3, product)
    y = make_random_standard(rng, 3, product)
    u = glue_constant(x, y, floor_envelope(x, y))
    values = [union_hausdorff(u, t) for t in (0.2, 1.0, 5.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_combined_bounds_sandwich(rng, product):
    x = make_random_stationary(rng, 2, product)
    y = make_random_stationary(rng, 2, product)
    bounds = gh_fuzzy_bounds(x, y, 1.0)
    doc = bounds.as_dict()
    assert set(doc) >= {"t", "lower", "upper"}
    assert doc["lower"] <= doc["upper"]


def test_bounds_on_nocauchy_pair_certify_noncloseness():
    fam = gen_no_cauchy_family(4)
    even, odd = fam.spaces[1], fam.spaces[2]
    ub = gh_fuzzy_upper_bound(even, odd, 0.5)
    assert ub.value < 0.9  # the Cauchy threshold at eps = 1/10 is out of reach


# ---------------------------------------------------------------------------
# the lower bound against the matched-net strategy loop

STEP_BREAKS = (0.1, 0.3, 1.0, 3.0, 10.0)
# (|x|, |y|, y is drawn / a permuted copy of x / a permuted copy moved by under 1 %)
SHAPES = [(1, 1, "drawn"), (2, 3, "drawn"), (3, 3, "drawn"), (2, 2, "copy"), (4, 4, "copy"),
          (3, 3, "near"), (4, 4, "near")]


def _ultrametric(d):
    """Largest ultrametric below d (minimax path lengths)."""
    u = d.copy()
    for k in range(len(u)):
        u = np.minimum(u, np.maximum(u[:, k : k + 1], u[k : k + 1, :]))
    return u


def _moved(m, rep):
    """A nearby space of the same kind: scaled distances, or similarities to a power."""
    return m**1.01 if rep == "stationary" else m * 1.005


def _draw(rng, n, kind, rep):
    """Distances (standard, step) or similarities (stationary) valid under the norm."""
    d = random_metric(rng, n)
    if kind == "minimum":
        d = _ultrametric(d)
    if rep != "stationary":
        return d
    return 1.0 / (1.0 + d) if kind == "minimum" else random_safe_stationary_values(rng, n)


def _build(m, norm, rep, name):
    labels = [f"{name}{i}" for i in range(len(m))]
    if rep == "standard":
        return make_standard_space(labels, m, norm)
    if rep == "stationary":
        return make_stationary_space(labels, m, norm)
    s = np.asarray(STEP_BREAKS + (2.0 * STEP_BREAKS[-1],))
    steps = {
        (i, j): Step(STEP_BREAKS, tuple(float(v) for v in s / (s + m[i, j])))
        for i in range(len(m))
        for j in range(i + 1, len(m))
    }
    return make_step_space(labels, steps, norm)


def _pairs(kind, seed=7):
    rng = np.random.default_rng([seed, ("product", "minimum", "lukasiewicz").index(kind)])
    norm = TNorm(kind)
    out = []
    for rep in ("standard", "stationary", "step"):
        for nx, ny, how in SHAPES:
            mx = _draw(rng, nx, kind, rep)
            if how == "drawn":
                my = _draw(rng, ny, kind, rep)
            else:
                perm = rng.permutation(nx)
                my = mx[np.ix_(perm, perm)] if how == "copy" else _moved(mx[np.ix_(perm, perm)], rep)
            t = float(rng.uniform(0.3, 3.0))
            out.append((_build(mx, norm, rep, "x"), _build(my, norm, rep, "y"), t))
    return out


def _same_result(res, loop):
    value, witness, method = loop
    assert res.value == value
    assert res.method == method
    assert repr(res.witness.cross) == repr(witness.cross)


def _count_everywhere(monkeypatch, fn, calls):
    """Count calls of ``fn`` made through any fuzzygh module namespace."""
    name = fn.__name__

    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    for mod in [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "fuzzygh"]:
        for attr in [a for a, v in vars(mod).items() if v is fn]:
            monkeypatch.setattr(mod, attr, wrapped)


@pytest.mark.parametrize("kind", ["product", "minimum", "lukasiewicz"])
def test_lower_bound_dominates_the_strategy_loop(kind):
    norm = TNorm(kind)
    relation_gluings = 0
    for x, y, t in _pairs(kind) + _upper_pairs(kind):
        res = gh_fuzzy_lower_bound(x, y, t)
        assert res.value >= lower_bound_loop(x, y, t)[0]
        if x.n * y.n <= ghdist.MAX_CROSS_VARIABLES:
            assert res.value <= gh_fuzzy_upper_bound(x, y, t).value
        # the bound is realized by a witness that passes the triangle loop
        u = res.witness
        assert union_hausdorff(u, t) == res.value
        space = u.as_space()
        worst, _ = na1_first_witness(space, norm, (*certification_grid(None, space).values, t))
        assert worst >= -1e-12
        if res.method != "witness-relation":
            continue
        # at t the cross block is the max-T closure through the upper bound's
        # relation, at the value its cells hold
        relation = gh_fuzzy_upper_bound(x, y, t).relation
        gamma = u.cross_value(*relation[0], t)
        assert all(u.cross_value(p, q, t) == gamma for p, q in relation)
        cl = closure_loop(x.at(t), y.at(t), kind, relation, gamma)
        assert np.allclose(gluing._cross_at(u, t), cl, rtol=0.0, atol=1e-15)
        relation_gluings += 1
    assert relation_gluings > 0


@pytest.mark.parametrize("kind", ["product", "minimum", "lukasiewicz"])
def test_lower_bound_matches_unscreened_loop(kind):
    # without a relation (beyond the upper bound's limit)
    # only the two constant gluings run: the strategy loop with no eps
    for x, y, t in _pairs(kind):
        _same_result(ghdist._lower_bound(x, y, t, None, None, TOL), lower_bound_loop(x, y, t, ()))
    rng = np.random.default_rng([9, ("product", "minimum", "lukasiewicz").index(kind)])
    x = _build(_draw(rng, 7, kind, "stationary"), TNorm(kind), "stationary", "x")
    y = _build(_draw(rng, 6, kind, "stationary"), TNorm(kind), "stationary", "y")
    _same_result(gh_fuzzy_lower_bound(x, y, 1.0), lower_bound_loop(x, y, 1.0, ()))


@pytest.mark.parametrize("kind", ["product", "minimum", "lukasiewicz"])
def test_lower_bound_matches_the_eager_loop(monkeypatch, kind):
    # validating in value order returns what building and validating every
    # gluing and keeping the first best returns, also where the top-ranked
    # gluing fails its check (the relation gluing of some Standard pairs on a
    # 16-point grid) and at a tolerance other than the default
    calls = {"validate_union": 0}
    _count_everywhere(monkeypatch, gluing.validate_union, calls)
    passed_over = 0
    coarse = GridSpec.log(1e-3, 1e4, 16)
    for x, y, t in _pairs(kind) + _upper_pairs(kind):
        relation = gh_fuzzy_upper_bound(x, y, t).relation
        for grid, tol in ((None, TOL), (None, 1e-6), (coarse, TOL)):
            calls["validate_union"] = 0
            res = ghdist._lower_bound(x, y, t, relation, grid, tol)
            passed_over += calls["validate_union"] > 1
            _same_result(res, eager_lower_bound_loop(x, y, t, relation, grid, tol))
    assert passed_over > 0


def test_a_top_gluing_that_passes_is_the_only_one_validated(monkeypatch, two_point_half, two_point_third):
    calls = {"validate_union": 0}
    _count_everywhere(monkeypatch, gluing.validate_union, calls)

    def validations(x, y, t, relation, method):
        calls["validate_union"] = 0
        assert ghdist._lower_bound(x, y, t, relation, None, TOL).method == method
        return calls["validate_union"]

    # the relation gluing (sqrt(2/3)) above the envelope (1/3)
    relation = gh_fuzzy_upper_bound(two_point_half, two_point_third, 0.5).relation
    assert validations(two_point_half, two_point_third, 0.5, relation, "witness-relation") == 1
    # two single points: their envelope is ONE and not ranked, so the relation gluing alone is validated
    one = make_standard_space(["a"], [[0]], TNorm.product())
    relation = gh_fuzzy_upper_bound(one, one, 1.0).relation
    assert validations(one, one, 1.0, relation, "witness-relation") == 1
    # the envelope alone, as beyond the upper bound's limit
    x, y, t = _pairs("product")[8]  # a drawn 2x3 stationary pair
    assert validations(x, y, t, None, "constant-envelope") == 1
    # the zero gluing alone, when the envelope cannot be built

    def failing(x, y, grid=None):
        raise HypothesisError("floor", detail="no envelope")

    monkeypatch.setattr(ghdist, "floor_envelope", failing)
    assert validations(x, y, t, None, "constant-zero") == 1


def test_an_envelope_of_value_zero_is_never_validated(monkeypatch, product):
    # every pair of x reads 0 up to 2, so the envelope's value at t = 1 is 0:
    # it ties with the zero gluing, which wins, and is the one validated
    x = make_step_space(["a", "b"], {(0, 1): Step((2.0,), (0.0, 0.5))}, product)
    y = make_stationary_space(["p", "q"], [[1, 0.6], [0.6, 1]], product)
    assert union_hausdorff(glue_constant(x, y, floor_envelope(x, y)), 1.0) == 0.0
    calls = {"validate_union": 0}
    _count_everywhere(monkeypatch, gluing.validate_union, calls)
    res = ghdist._lower_bound(x, y, 1.0, None, None, TOL)
    assert calls == {"validate_union": 1}
    _same_result(res, eager_lower_bound_loop(x, y, 1.0, None))
    assert res.method == "constant-zero"


def test_a_relation_gluing_that_fails_validation_gives_way(monkeypatch):
    # a relation union with every cross value 1 ranks first and fails the
    # union check; the envelope or the zero gluing is returned, as without
    # a relation; the union carries no samples, so it is read from its entries
    build = ghdist._relation_union

    def merged(x, y, t, relation, grid):
        u, g, _ = build(x, y, t, relation, grid)
        return UnionMetric(x, y, tuple(tuple(ONE for _ in row) for row in u.cross)), g, None

    monkeypatch.setattr(ghdist, "_relation_union", merged)
    methods = set()
    for kind in ("product", "minimum", "lukasiewicz"):
        for x, y, t in _pairs(kind):
            relation = gh_fuzzy_upper_bound(x, y, t).relation
            res = ghdist._lower_bound(x, y, t, relation, None, TOL)
            _same_result(res, eager_lower_bound_loop(x, y, t, None))
            methods.add(res.method)
    assert methods == {"constant-envelope", "constant-zero"}


def test_an_invalid_space_raises_the_zero_gluing_error(monkeypatch, product):
    # d(a, c) = 2.01 > d(a, b) + d(b, c): the product triangle fails for
    # t > 100, so every candidate fails on its grid and the zero gluing,
    # built last, raises its own error
    x = FuzzySpace("x", ("a", "b", "c"), product, (Standard(1.0), Standard(2.01), Standard(1.0)))
    y = make_standard_space(["p", "q"], [[0, 1], [1, 0]], product)
    with pytest.raises(ConstructionError, match="constant gluing fails") as zero:
        glue_constant(x, y, ZERO)
    calls = {"validate_union": 0}
    _count_everywhere(monkeypatch, gluing.validate_union, calls)
    with pytest.raises(ConstructionError) as lower:
        gh_fuzzy_lower_bound(x, y, 1.0)
    assert str(lower.value) == str(zero.value)
    assert calls == {"validate_union": 3}  # the envelope, the relation, then zero


def test_lower_bound_validates_every_gluing_at_its_tol(monkeypatch, product):
    # 0.64 - 1e-7 < 0.8 * 0.8 breaks the product triangle by 1e-7: the space
    # passes at tol 1e-6, and so does each gluing the lower bound builds
    v = 0.64 - 1e-7
    x = make_stationary_space(["a", "b", "c"], [[1, 0.8, 0.8], [0.8, 1, v], [0.8, v, 1]], product)
    assert check_axioms(x, tol=1e-6).passed
    assert not check_axioms(x).passed
    res = gh_fuzzy_lower_bound(x, x, 1.0, tol=1e-6)
    assert res.method == "witness-relation"
    assert validate_union(res.witness, tol=1e-6).passed
    assert ghdist._lower_bound(x, x, 1.0, None, None, 1e-6).method == "constant-envelope"
    with pytest.raises(ConstructionError, match="constant gluing fails"):
        gh_fuzzy_lower_bound(x, x, 1.0)

    def failing(x, y, grid=None):
        raise HypothesisError("floor", detail="no envelope")

    monkeypatch.setattr(ghdist, "floor_envelope", failing)
    assert ghdist._lower_bound(x, x, 1.0, None, None, 1e-6).method == "constant-zero"


def test_isometric_copies_and_single_points_reach_one():
    for kind in ("product", "minimum", "lukasiewicz"):
        rng = np.random.default_rng([5, ("product", "minimum", "lukasiewicz").index(kind)])
        cases = [("standard", 1)] + [(r, n) for r in ("stationary", "step") for n in (1, 2, 3, 4)]
        for rep, n in cases:
            m = _draw(rng, n, kind, rep)
            perm = rng.permutation(n)
            x = _build(m, TNorm(kind), rep, "x")
            y = _build(m[np.ix_(perm, perm)], TNorm(kind), rep, "y")
            bounds = gh_fuzzy_bounds(x, y, float(rng.uniform(0.3, 3.0)))
            assert bounds.lower.value == bounds.upper.value == 1.0
            assert bounds.lower.method == "witness-relation"


def test_even_odd_pair_meets_the_upper_bound(two_point_half, two_point_third):
    bounds = gh_fuzzy_bounds(two_point_half, two_point_third, 0.5)
    assert bounds.lower.method == "witness-relation"
    assert bounds.lower.value == pytest.approx(np.sqrt(2 / 3), abs=1e-9)
    assert bounds.lower.value <= bounds.upper.value


def test_no_cauchy_step_pairs_stay_below_the_upper_bound():
    # the threshold dips above t (the breakpoint of the larger index), so the
    # nondecreasing gluing value at t is held below the single-scale optimum
    fam = gen_no_cauchy_family(5)
    for a, b in zip(fam.spaces, fam.spaces[1:]):
        bounds = gh_fuzzy_bounds(a, b, 0.5)
        assert bounds.lower.method == "witness-relation"
        assert 0.57 < bounds.lower.value < 0.72
        assert bounds.upper.value == pytest.approx(np.sqrt(2 / 3), abs=1e-9)


def test_minimum_norm_net_gluings_never_beat_the_threshold():
    # every alignment that passes the screen is built, validated and then
    # rejected: each damped cross value at t is min(., 1-eps), the threshold
    # min(1-eps, 1-eps)
    norm = TNorm.minimum()
    passed = 0
    for x, y, t in _pairs("minimum"):
        mx, my = x.at(t), y.at(t)
        for eps in (0.5, 0.3, 0.2, 0.1, 0.05, 0.01):
            left = find_net(x, t, eps).indices
            right = find_net(y, t, eps).indices
            size = max(len(left), len(right))
            left += (left[0],) * (size - len(left))
            right += (right[0],) * (size - len(right))
            for sigma in permutations(range(size)):
                aligned = tuple(right[k] for k in sigma)
                if not bounds_hold_at_t(mx, my, left, aligned, norm, eps):
                    continue
                passed += 1
                with pytest.raises(ConstructionError, match="not above"):
                    attempt_net_gluing(x, y, t, eps, left, aligned)
    assert passed > 0


def test_lower_bound_without_envelope_skips_net_attempts(monkeypatch):
    # an envelope that raises leaves the zero floor and the relation gluing
    def failing(x, y, grid=None):
        raise HypothesisError("floor", detail="no envelope")

    monkeypatch.setattr(gluing, "floor_envelope", failing)
    monkeypatch.setattr(ghdist, "floor_envelope", failing)
    pairs = _pairs("product")[:6]
    loop = [lower_bound_loop(x, y, t)[0] for x, y, t in pairs]
    calls = {"attempt_net_gluing": 0}
    _count_everywhere(monkeypatch, gluing.attempt_net_gluing, calls)
    for (x, y, t), value in zip(pairs, loop):
        res = gh_fuzzy_lower_bound(x, y, t)
        assert res.method in ("constant-zero", "witness-relation")
        assert res.value >= value
    assert calls == {"attempt_net_gluing": 0}


def test_lower_bound_hoists_per_call_work(monkeypatch):
    # a moved copy: the positional alignment fails at t, a permuted one glues
    d = random_metric(np.random.default_rng(3), 3)
    perm = np.array([2, 0, 1])
    x = _build(d, TNorm.product(), "standard", "x")
    y = _build(_moved(d[np.ix_(perm, perm)], "standard"), TNorm.product(), "standard", "y")
    calls = {"log": 0, "gh_fuzzy_upper_bound": 0}
    log = GridSpec.log

    def counting(cls, *args):
        calls["log"] += 1
        return log(*args)

    monkeypatch.setattr(GridSpec, "log", classmethod(counting))
    _count_everywhere(monkeypatch, ghdist.gh_fuzzy_upper_bound, calls)
    bounds = gh_fuzzy_bounds(x, y, 1.0)
    assert calls == {"log": 0, "gh_fuzzy_upper_bound": 1}  # the default grid is built at import
    assert certification_grid(None) == GridSpec.default()
    assert bounds.lower.value >= lower_bound_loop(x, y, 1.0)[0]
    assert bounds.lower == gh_fuzzy_lower_bound(x, y, 1.0)


# ---------------------------------------------------------------------------
# the exact upper bound against the relaxation oracles

UPPER_SHAPES = [(1, 1, "drawn"), (1, 2, "drawn"), (2, 1, "drawn"), (1, 3, "drawn"),
                (3, 1, "drawn"), (2, 2, "drawn"), (2, 3, "drawn"), (3, 2, "drawn"),
                (2, 2, "copy"), (3, 3, "drawn"), (3, 3, "copy"), (3, 3, "near")]


def _upper_pairs(kind, seed=11):
    rng = np.random.default_rng([seed, ("product", "minimum", "lukasiewicz").index(kind)])
    norm = TNorm(kind)
    out = []
    for rep in ("standard", "stationary", "step"):
        for nx, ny, how in UPPER_SHAPES:
            mx = _draw(rng, nx, kind, rep)
            if how == "drawn":
                my = _draw(rng, ny, kind, rep)
            else:
                perm = rng.permutation(nx)
                my = mx[np.ix_(perm, perm)] if how == "copy" else _moved(mx[np.ix_(perm, perm)], rep)
            t = float(rng.uniform(0.3, 3.0))
            out.append((_build(mx, norm, rep, "x"), _build(my, norm, rep, "y"), t))
    return out


def _slice(space, t):
    return [[space.value(i, j, t) for j in range(space.n)] for i in range(space.n)]


@pytest.mark.parametrize("kind", ["product", "minimum", "lukasiewicz"])
def test_upper_bound_matches_relaxation_oracle(kind):
    for x, y, t in _upper_pairs(kind):
        mx, my = _slice(x, t), _slice(y, t)
        res = gh_fuzzy_upper_bound(x, y, t)
        assert res.value == pytest.approx(relaxation_sup_loop(mx, my, kind), abs=1e-9)
        assert res.value >= relaxation_grid_max(mx, my, kind)
        # the relation meets every row and column, and its closure attains the value
        assert {p for p, _ in res.relation} == set(range(x.n))
        assert {q for _, q in res.relation} == set(range(y.n))
        cl = closure_loop(mx, my, kind, res.relation, res.value - 1e-12)
        assert relaxation_feasible_loop(mx, my, kind, cl)
        assert min(min(max(row) for row in cl), min(max(col) for col in zip(*cl))) >= res.value - 2e-12
        assert gh_fuzzy_lower_bound(x, y, t).value <= res.value


def test_upper_bound_beyond_the_old_limit(rng, product):
    x = make_random_stationary(rng, 4, product)
    y = make_random_stationary(rng, 3, product)
    res = gh_fuzzy_upper_bound(x, y, 1.0)  # 12 cross variables, refused before
    assert res.variables == 12
    assert gh_fuzzy_lower_bound(x, y, 1.0).value <= res.value <= 1.0


def test_upper_bound_node_budget(monkeypatch):
    x, y, t = _upper_pairs("product")[9]  # 3x3: the bisection searches several levels
    nodes = gh_fuzzy_upper_bound(x, y, t).nodes
    monkeypatch.setattr(ghdist, "_CLIQUE_NODE_BUDGET", nodes - 1)
    with pytest.raises(SizeLimitError):
        gh_fuzzy_upper_bound(x, y, t)
    monkeypatch.setattr(ghdist, "_CLIQUE_NODE_BUDGET", nodes)
    assert gh_fuzzy_upper_bound(x, y, t).nodes == nodes


# ---------------------------------------------------------------------------
# the pairwise closed form against the instance form it replaced

THRESHOLD_TS = (0.05, 0.7, 3.0, 40.0)


def _tied_ultrametric(d):
    """The subdominant ultrametric of d on three tied levels: a nondecreasing
    map of its values, which keeps the ultrametric inequality."""
    u = _ultrametric(d)
    levels = np.unique(u[u > 0])
    return np.where(u > 0, 1.0 + 2.0 * (np.searchsorted(levels, u) * 3 // len(levels)), 0.0)


def _threshold_pairs(kind):
    """Drawn Standard, stationary and step pairs of 1x1 to 6x6 points, permuted
    copies and copies moved by 0.3 %, minimum-norm ultrametrics on tied levels,
    and Lukasiewicz stationary values of 0.5, where T(0.5, 0.5) is exactly 0."""
    rng = np.random.default_rng([5, ("product", "minimum", "lukasiewicz").index(kind)])
    norm = TNorm(kind)
    shapes = {
        "standard": [(1, 1), (1, 3), (2, 2), (3, 2), (4, 3), (6, 6)],
        "stationary": [(1, 2), (2, 3), (3, 3), (5, 4)],
        "step": [(2, 2), (3, 4)],
    }
    out = [
        tuple(_build(_draw(rng, n, kind, rep), norm, rep, name) for n, name in ((nx, "x"), (ny, "y")))
        for rep, sizes in shapes.items()
        for nx, ny in sizes
    ]
    for rep in ("standard", "stationary"):
        m = _draw(rng, 4, kind, rep)
        perm = rng.permutation(4)
        copy = m[np.ix_(perm, perm)]
        moved = copy**1.003 if rep == "stationary" else copy * 1.003
        out += [(_build(m, norm, rep, "x"), _build(c, norm, rep, "y")) for c in (copy, moved)]
    if kind == "minimum":
        tied = [_tied_ultrametric(random_metric(rng, n)) for n in (4, 4, 5, 3)]
        pairs = (tied[:2], tied[2:], (tied[0], tied[0][::-1, ::-1]))  # the last one a copy
        out += [(_build(a, norm, "standard", "x"), _build(b, norm, "standard", "y")) for a, b in pairs]
    if kind == "lukasiewicz":
        half = [np.full((n, n), 0.5) + 0.5 * np.eye(n) for n in (3, 2)]
        other = _draw(rng, 3, kind, "stationary")
        x = _build(half[0], norm, "stationary", "x")
        out += [(x, _build(m, norm, "stationary", "y")) for m in (half[1], other)]
    return out


@pytest.mark.parametrize("kind", ["product", "minimum", "lukasiewicz"])
def test_upper_bound_thresholds_match_the_instance_loop(monkeypatch, kind):
    # the (k, k) matrix the upper bound bisects is the instance form, bit for bit
    seen = []
    bottleneck = ghdist._bottleneck

    def spy(g, nx, ny):
        seen.append(g)
        return bottleneck(g, nx, ny)

    monkeypatch.setattr(ghdist, "_bottleneck", spy)
    for x, y in _threshold_pairs(kind):
        sx, sy = (np.array([sp.at(s) for s in THRESHOLD_TS]) for sp in (x, y))
        for mx, my, t in zip(sx.tolist(), sy.tolist(), THRESHOLD_TS):
            relation = gh_fuzzy_upper_bound(x, y, t).relation
            assert seen.pop().tolist() == pair_thresholds_loop(mx, my, kind, TOL)
            # the relation gluing's damping, on the closure through that relation
            closure = gluing._closure(sx, sy, relation, x.norm)
            loop = [
                instance_damping_loop(c, c, cx, cy, kind)
                for c, cx, cy in zip(closure.tolist(), sx.tolist(), sy.tolist())
            ]
            assert gluing._damping(closure, sx, sy, x.norm).tolist() == loop


@pytest.mark.parametrize("kind", ["product", "lukasiewicz"])
def test_upper_bound_memory_at_the_limit(kind):
    import tracemalloc

    rng = np.random.default_rng(6)
    norm = TNorm(kind)
    x = _build(random_metric(rng, 6), norm, "standard", "x")
    y = _build(random_metric(rng, 6), norm, "standard", "y")
    tracemalloc.start()
    try:
        res = gh_fuzzy_upper_bound(x, y, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.variables == ghdist.MAX_CROSS_VARIABLES
    assert peak < 1e6


# ---------------------------------------------------------------------------
# classical tools


def test_two_point_correspondences():
    a = DistanceMatrix.from_array([[0, 2], [2, 0]])
    b = DistanceMatrix.from_array([[0, 5], [5, 0]])
    assert classical_gh_exact(a, b) == pytest.approx(1.5, abs=1e-15)


def test_one_point_vs_two_point():
    a = DistanceMatrix.from_array([[0.0]])
    b = DistanceMatrix.from_array([[0, 3], [3, 0]])
    assert classical_gh_exact(a, b) == pytest.approx(1.5, abs=1e-15)


def test_isometric_pairs_have_zero_distance(rng):
    d = random_metric(rng, 3)
    perm = rng.permutation(3)
    d2 = d[np.ix_(perm, perm)]
    assert classical_gh_exact(d, d2) == pytest.approx(0.0, abs=1e-12)


def test_exact_respects_diameter_bound(rng):
    for _ in range(10):
        nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        if nx * ny > 12:
            continue
        dx, dy = random_metric(rng, nx), random_metric(rng, ny)
        # half the diameter gap bounds the classical GH distance from below
        assert classical_gh_exact(dx, dy) >= abs(dx.max() - dy.max()) / 2 - 1e-12


def test_size_limit_refusal(rng):
    dx, dy = random_metric(rng, 4), random_metric(rng, 4)
    with pytest.raises(SizeLimitError):
        classical_gh_exact(dx, dy)
    assert classical_gh_exact(dx, dy, limit=16) >= 0.0


def test_growing_distance_pair_matches_half_gap(rng):
    for n, m in [(1, 4), (2, 7), (3, 5)]:
        a = np.array([[0.0, n], [n, 0.0]])
        b = np.array([[0.0, m], [m, 0.0]])
        assert classical_gh_exact(a, b) == pytest.approx(abs(n - m) / 2, abs=1e-12)


def _integer_metric(rng, n):
    """Distances drawn from {3, 4, 5}: a metric with slack and many ties."""
    d = np.triu(rng.integers(3, 6, (n, n)), 1).astype(float)
    return d + d.T


def test_classical_matches_the_enumeration():
    """Bit-equal to the enumeration over all relations on drawn, tied, permuted
    and near-symmetric pairs (asymmetric within the validation tolerance)."""
    rng = np.random.default_rng(17)
    shapes = [(nx, ny) for nx in range(1, 5) for ny in range(1, 5) if nx * ny <= 12] * 20
    for k, (nx, ny) in enumerate(shapes + [(4, 4)] * 4):  # 4x4 costs the enumeration 0.25 s
        how = ("drawn", "tied", "copy", "near")[k % 4]
        if how == "copy":
            nx = ny = min(nx, ny)
        if how == "drawn":
            dx, dy = random_metric(rng, nx), random_metric(rng, ny)
        else:
            dx, dy = _integer_metric(rng, nx), _integer_metric(rng, ny)
        if how == "copy":
            perm = rng.permutation(nx)
            dy = dx[np.ix_(perm, perm)]
        elif how == "near":
            dx = dx + rng.choice([-4e-10, 0.0, 4e-10], (nx, nx)) * (1 - np.eye(nx))
            dy = dy + rng.choice([-4e-10, 0.0, 4e-10], (ny, ny)) * (1 - np.eye(ny))
        mx, my = DistanceMatrix.from_array(dx), DistanceMatrix.from_array(dy)
        assert classical_gh_exact(mx, my, limit=16) == classical_gh_loop(mx, my)
    # read in the later cell's row, the asymmetric entries would give 0.50000000015
    dx = [[0.0, 1.0], [0.9999999997, 0.0]]
    dy = [[0.0, 1.9999999997, 2.0000000003], [1.9999999997, 0.0, 0.9999999997], [2.0, 0.9999999997, 0.0]]
    assert classical_gh_exact(dx, dy) == classical_gh_loop(dx, dy) == 0.5


def test_classical_permuted_copy_beyond_the_enumeration(rng):
    d = random_metric(rng, 8)
    perm = rng.permutation(8)
    assert classical_gh_exact(d, d[np.ix_(perm, perm)], limit=64) == 0.0


def test_distance_matrix_rejects_non_finite_entries():
    for bad in (np.inf, np.nan):
        with pytest.raises(ConstructionError, match="finite"):
            DistanceMatrix.from_array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ConstructionError, match="finite"):
        DistanceMatrix.from_array([[np.nan, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# lower bounds that build no net


def test_lower_bound_without_net_gluings_builds_no_net(monkeypatch):
    from fuzzygh import covering, space

    calls = {"find_net": 0, "is_isometric": 0, "attempt_net_gluing": 0}
    _count_everywhere(monkeypatch, covering.find_net, calls)
    _count_everywhere(monkeypatch, space.is_isometric, calls)
    _count_everywhere(monkeypatch, gluing.attempt_net_gluing, calls)
    for kind in ("product", "minimum", "lukasiewicz"):
        for x, y, t in _pairs(kind):
            gh_fuzzy_lower_bound(x, y, t)
            gh_fuzzy_bounds(x, y, t)
    assert calls == {"find_net": 0, "is_isometric": 0, "attempt_net_gluing": 0}


@pytest.mark.parametrize("kind", ["product", "lukasiewicz"])
def test_bounds_memory_at_the_limit(kind):
    import tracemalloc

    rng = np.random.default_rng(6)
    norm = TNorm(kind)
    x = _build(random_metric(rng, 6), norm, "standard", "x")
    y = _build(random_metric(rng, 6), norm, "standard", "y")
    tracemalloc.start()
    try:
        bounds = gh_fuzzy_bounds(x, y, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bounds.lower.method == "witness-relation"
    assert bounds.upper.variables == ghdist.MAX_CROSS_VARIABLES
    assert peak < 4e6
