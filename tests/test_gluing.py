import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzzygh.gluing
import fuzzygh.space
from fuzzygh import (
    ConstructionError,
    UnionMetric,
    DomainError,
    FuzzySpace,
    GridSpec,
    HypothesisError,
    Standard,
    Stationary,
    Step,
    TNorm,
    ZERO,
    attempt_net_gluing,
    check_axioms,
    extract_matched_nets,
    floor_envelope,
    glue_constant,
    glue_via_nets,
    glue_via_relation,
    make_standard_space,
    make_stationary_space,
    make_step_space,
    match_nets,
    mutual_eps_domination,
    persistence_delta,
    t_diameter,
    union_hausdorff,
    validate_union,
)

from fuzzygh.gluing import (
    MatchedNets,
    _check_mutual_bounds,
    _damping,
    _net_cross,
    _relation_union,
    _samples,
    _step_cross,
)
from fuzzygh.io import load_space, union_from_doc, union_to_doc
from fuzzygh.space import certification_grid
from fuzzygh.valuefn import PairTable

from conftest import make_random_standard, make_random_stationary
from oracles import (
    damping_pairs,
    match_nets_loop,
    mutual_bounds_loop,
    net_cross_closures,
    persistence_delta_loop,
    random_metric,
    random_safe_stationary_values,
    union_pairs_loop,
)


def test_zero_floor_always_glues(rng, product):
    x = make_random_standard(rng, 3, product)
    y = make_random_stationary(rng, 2, product)
    u = glue_constant(x, y, ZERO)
    assert validate_union(u).passed
    assert union_hausdorff(u, 1.0) == 0.0


def test_union_pairs_match_the_entry_loop(rng, product):
    """The union's pairs, built from row slices of both parts and the cross
    rows, are the per-pair ``entry`` loop's, with 1-point and multi-point sides."""
    for nx, ny in ((1, 1), (1, 4), (4, 1), (3, 5), (6, 2)):
        x = make_random_standard(rng, nx, product, name="X")
        y = make_random_stationary(rng, ny, product, name="Y")
        cross = tuple(tuple(Stationary(0.1 + 0.01 * (p * ny + q)) for q in range(ny)) for p in range(nx))
        u = UnionMetric(x, y, cross)
        assert u.as_space().pairs == union_pairs_loop(u)


def test_standard_floor_with_large_offset(rng, product):
    x = make_random_standard(rng, 3, product, name="X")
    y = make_random_standard(rng, 3, product, name="Y")
    big = max(
        max(f.d for f in x.pairs),
        max(f.d for f in y.pairs),
    )
    u = glue_constant(x, y, Standard(big))
    assert validate_union(u).passed
    t = 1.5
    assert union_hausdorff(u, t) == pytest.approx(t / (t + big), abs=1e-12)


def test_floor_violation_names_scale(two_point_half, two_point_third):
    with pytest.raises(HypothesisError) as err:
        glue_constant(two_point_half, two_point_third, Stationary(0.4))
    assert err.value.which == "floor"
    assert err.value.where is not None


def test_constant_third_gluing(two_point_half, two_point_third):
    u = glue_constant(two_point_half, two_point_third, Stationary(1 / 3))
    assert validate_union(u).passed
    assert union_hausdorff(u, 0.7) == pytest.approx(1 / 3, abs=1e-15)


def test_envelope_exact_for_standard_pairs(rng, product):
    x = make_random_standard(rng, 3, product)
    y = make_random_standard(rng, 4, product)
    u = glue_constant(x, y, floor_envelope(x, y))
    for t in (0.4, 1.0, 3.0):
        assert union_hausdorff(u, t) == pytest.approx(
            min(t_diameter(x, t), t_diameter(y, t)), abs=1e-12
        )


def test_envelope_below_min_diameter_for_mixed_pairs(rng, product):
    x = make_random_standard(rng, 3, product)
    y = make_random_stationary(rng, 3, product)
    env = floor_envelope(x, y)
    u = glue_constant(x, y, env)
    assert validate_union(u).passed
    for t in (0.4, 1.0, 3.0):
        # every cross similarity is the floor, so H reproduces it exactly
        assert union_hausdorff(u, t) == pytest.approx(env.eval(t), abs=1e-15)
        expected = min(t_diameter(x, t), t_diameter(y, t))
        assert union_hausdorff(u, t) <= expected + 1e-12


def test_mixed_norm_kinds_rejected(two_point_half):
    other = make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], TNorm.minimum())
    with pytest.raises(DomainError):
        glue_constant(two_point_half, other, ZERO)


# ---------------------------------------------------------------------------
# persistence width


def test_persistence_delta_step_breakpoint_arithmetic(product):
    x = make_step_space(["a", "b"], {(0, 1): Step((2.0,), (0.5, 1.0))}, product)
    y = make_step_space(["a", "b"], {(0, 1): Step((2.0,), (0.45, 1.0))}, product)
    delta = persistence_delta(x, y, 0, 1, 0, 1, 3.0, 0.2)
    assert delta == pytest.approx(1.0, rel=1e-9)


def test_persistence_delta_stationary_is_half(two_point_half, two_point_third):
    assert persistence_delta(two_point_half, two_point_third, 0, 1, 0, 1, 2.0, 0.5) == 1.0


def test_persistence_delta_standard_bisection(product):
    x = make_standard_space(["a", "b"], [[0, 1.0], [1.0, 0]], product)
    y = make_standard_space(["a", "b"], [[0, 1.3], [1.3, 0]], product)
    t, eps = 1.0, 0.2
    delta = persistence_delta(x, y, 0, 1, 0, 1, t, eps)
    assert delta > 0.0
    # re-check both bounds at the bottom of the certified interval
    s = t - delta
    a, b = x.value(0, 1, s), y.value(0, 1, s)
    assert a >= b * (1 - eps) - 1e-9
    assert b >= a * (1 - eps) - 1e-9


def test_persistence_delta_requires_bounds_at_t(two_point_half, product):
    far = make_stationary_space(["a", "b"], [[1, 0.05], [0.05, 1]], product)
    with pytest.raises(HypothesisError):
        persistence_delta(two_point_half, far, 0, 1, 0, 1, 1.0, 0.1)


# ---------------------------------------------------------------------------
# matched nets and the spliced gluing


def test_worked_stationary_example(product):
    x = make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], product)
    y = make_stationary_space(["a", "b"], [[1, 0.45], [0.45, 1]], product)
    # mutual bounds: 0.5 >= 0.45*0.8 and 0.45 >= 0.5*0.8
    u = attempt_net_gluing(x, y, 0.5, 0.2, (0, 1), (0, 1))
    assert validate_union(u).passed
    h = union_hausdorff(u, 0.5)
    assert h > 0.8 * 0.8


def test_identity_gluing_of_a_space_with_itself(rng, product):
    x = make_random_standard(rng, 3, product)
    eps = 0.25
    u = attempt_net_gluing(x, x, 1.0, eps, tuple(range(3)), tuple(range(3)))
    assert validate_union(u).passed
    assert union_hausdorff(u, 1.0) > (1 - eps) * (1 - eps)


def test_hypothesis_b_violation_is_rejected(product):
    x = make_stationary_space(["a", "b"], [[1, 0.9], [0.9, 1]], product)
    y = make_stationary_space(["a", "b"], [[1, 0.3], [0.3, 1]], product)
    with pytest.raises(HypothesisError):
        attempt_net_gluing(x, y, 1.0, 0.2, (0, 1), (0, 1))


def test_net_detour_bound_for_matched_index(product):
    # cross(x, right_j, t) >= M_X(x, left_j, t) * (1 - eps)
    x = make_stationary_space(["a", "b"], [[1, 0.7], [0.7, 1]], product)
    y = make_stationary_space(["a", "b"], [[1, 0.68], [0.68, 1]], product)
    eps = 0.25
    u = attempt_net_gluing(x, y, 1.0, eps, (0, 1), (0, 1))
    for p in range(2):
        for j in range(2):
            assert u.cross_value(p, j, 1.0) >= x.value(p, j, 1.0) * (1 - eps) - 1e-12


def test_non_net_is_rejected(product):
    x = make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], product)
    with pytest.raises(HypothesisError) as err:
        # {0} is not a (t, 0.2)-net: 0.5 is not above 0.8
        attempt_net_gluing(x, x, 1.0, 0.2, (0,), (0,))
    assert err.value.which == "(2)"


def test_glue_via_nets_rejects_bad_delta(product):
    x = make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], product)
    nets = match_nets(x, x, 1.0, 0.3, (0, 1), (0, 1))
    with pytest.raises(DomainError):
        glue_via_nets(x, x, nets, 0.0, ZERO)


def test_mixed_representation_gluing(rng, product):
    x = make_random_standard(rng, 2, product)
    y = make_random_stationary(rng, 2, product)
    u = glue_constant(x, y, floor_envelope(x, y))
    assert validate_union(u).passed


# ---------------------------------------------------------------------------
# extraction


def test_extract_from_identity_gluing(rng, product):
    x = make_random_stationary(rng, 3, product)
    # the identity gluing at eps=0.1 reaches H = 0.9, strictly above 1 - 0.2
    u = attempt_net_gluing(x, x, 1.0, 0.1, (0, 1, 2), (0, 1, 2))
    nets = extract_matched_nets(u, 1.0, 0.2, (0, 1, 2))
    assert nets.right == (0, 1, 2)
    assert nets.all_conditions_hold()
    assert nets.right_net_eps3


def test_extract_requires_strict_closeness(product):
    x = make_stationary_space(["a", "b"], [[1, 0.8], [0.8, 1]], product)
    u = glue_constant(x, x, Stationary(0.8))
    # H equals exactly 1 - eps: strictness must reject
    with pytest.raises(HypothesisError):
        extract_matched_nets(u, 1.0, 0.2, (0, 1))


def test_extract_near_isometric_pair(product):
    x = make_stationary_space(["a", "b"], [[1, 0.7], [0.7, 1]], product)
    y = make_stationary_space(["a", "b"], [[1, 0.68], [0.68, 1]], product)
    u = attempt_net_gluing(x, y, 1.0, 0.3, (0, 1), (0, 1))  # H = 0.7
    nets = extract_matched_nets(u, 1.0, 0.45, (0, 1))
    assert nets.all_conditions_hold()
    assert nets.left_net_eps3 and nets.right_net_eps3


# ---------------------------------------------------------------------------
# damped mutual domination


def test_damped_domination_worked_example(product):
    assert mutual_eps_domination(0.5, 0.45, 0.4, 0.2, product)


def test_damped_domination_equal_values(product):
    assert mutual_eps_domination(0.5, 0.5, 0.3, 0.1, product)


def test_damped_domination_rejects_minimum_norm():
    with pytest.raises(DomainError):
        mutual_eps_domination(0.5, 0.45, 0.4, 0.2, TNorm.minimum())


def test_damped_domination_precondition(product):
    with pytest.raises(DomainError):
        mutual_eps_domination(0.5, 0.45, 0.6, 0.2, product)  # k >= min(a, b)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.05, 0.99),
    gap=st.floats(0.0, 0.5),
    k_frac=st.floats(0.01, 0.99),
    eps=st.floats(0.01, 0.99),
    kind=st.sampled_from(["product", "lukasiewicz"]),
)
def test_damped_domination_under_premise(a, gap, k_frac, eps, kind):
    norm = TNorm(kind)
    b = min(0.995, a + gap)
    k = k_frac * min(a, b)
    if not 0.0 < k < min(a, b) < 1.0:
        return
    if abs(a - b) < norm(k, eps):  # the premise
        assert mutual_eps_domination(a, b, k, eps, norm)


def test_damped_domination_bulk_samples(rng):
    # dense sweep constructed under the premise |a - b| < k * eps, both norms
    for kind in ("product", "lukasiewicz"):
        norm = TNorm(kind)
        count = 0
        while count < 50_000:
            a = float(rng.uniform(0.05, 0.99))
            eps = float(rng.uniform(0.01, 0.99))
            k = float(rng.uniform(0.3, 0.999)) * a
            width = norm(k, eps)
            if width <= 0.0:
                continue
            b = a + float(rng.uniform(-1.0, 1.0)) * width * 0.999
            if not (0.0 < b < 1.0):
                continue
            if not (0.0 < k < min(a, b) < 1.0) or abs(a - b) >= width:
                continue
            count += 1
            assert mutual_eps_domination(a, b, k, eps, norm)


# ---------------------------------------------------------------------------
# the array cross matrix and (a)/(b) scan against the closure loops

NORMS = (TNorm.product(), TNorm.minimum(), TNorm.lukasiewicz())
KIND_PAIRS = (("step", "step"), ("standard", "standard"), ("stationary", "stationary"), ("standard", "step"))


def random_space(rng, kind, norm, n, band=(0.3, 0.95)):
    """A random space; values in the default band need not satisfy the
    triangle axiom, values in [0.64, 0.8] do under the product and
    Lukasiewicz norms."""
    labels = [f"p{i}" for i in range(n)]
    if kind == "standard":
        return make_standard_space(labels, random_metric(rng, n, lo=0.2, hi=6.0), norm)
    if kind == "stationary":
        return make_stationary_space(labels, random_safe_stationary_values(rng, n, *band), norm)
    steps = {}
    for i in range(n):
        for j in range(i + 1, n):
            bps = sorted(rng.choice([0.3, 0.5, 1.0, 1.7, 4.0], size=int(rng.integers(1, 3)), replace=False))
            steps[(i, j)] = Step(tuple(bps), tuple(sorted(rng.uniform(*band, size=len(bps) + 1))))
    return make_step_space(labels, steps, norm)


def cross_outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ConstructionError as exc:
        return type(exc).__name__, str(exc)


def glue_inputs(rng, norm, kinds, eps, t=1.0, delta=0.5):
    x = random_space(rng, kinds[0], norm, 3)
    y = random_space(rng, kinds[1], norm, 4)
    nets = match_nets(x, y, t, eps, (0, 2, 1), (3, 0, 0))
    floor = Stationary(0.3) if rng.uniform() < 0.5 else floor_envelope(x, y)
    g = certification_grid(None, x, y, extra=(t, t - delta, *floor.breakpoints))
    return x, y, nets, floor, g


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_net_cross_matches_closures(rng, norm):
    t = 1.0
    built = fill = no_fill = tail_moves = tail_stays = 0
    for kinds in KIND_PAIRS:
        for eps in (0.2, 0.5):
            for delta in (0.5, t):
                x, y, nets, floor, g = glue_inputs(rng, norm, kinds, eps, t, delta)
                mx, my = _samples(x, g), _samples(y, g)
                samples = _net_cross(mx, my, nets, floor, t - delta, g, norm)
                got = cross_outcome(_step_cross, g.values, samples)
                assert got == cross_outcome(net_cross_closures, x, y, nets, floor, t - delta, g.values)
                built += isinstance(got, str)
                fill += t - delta >= g.values[0]
                no_fill += t - delta < g.values[0]
                # the row of limits at infinity against the row at the last grid point
                stays = all(np.array_equal(m[-1], m[-2]) for m in (mx, my))
                tail_stays += stays
                tail_moves += not stays
    assert built > 0
    assert fill > 0 and no_fill > 0  # a splice inside the grid, and none (delta = t)
    assert tail_moves > 0 and tail_stays > 0  # standard entries, and steps


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_mutual_bounds_scan_matches_loop(rng, norm):
    seen = set()
    for kinds in KIND_PAIRS * 3:
        for eps in (0.1, 0.4, 0.8):
            x, y, nets, _, g = glue_inputs(rng, norm, kinds, eps)
            mx, my = _samples(x, g), _samples(y, g)
            expected = mutual_bounds_loop(x, y, nets, [s for s in g.values if s >= nets.t])
            seen.add(expected and expected[0])
            if expected is None:
                _check_mutual_bounds(mx, my, nets, g, norm, 1e-12)
                continue
            with pytest.raises(HypothesisError) as err:
                _check_mutual_bounds(mx, my, nets, g, norm, 1e-12)
            assert (err.value.which, err.value.where) == expected
            assert str(err.value) == str(HypothesisError(*expected))
    assert seen == {None, "(a)", "(b)"}


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, HypothesisError) as exc:
        return type(exc).__name__, str(exc)


# t on the step breakpoints of random_space (0.5, 1.0, 1.7) and off them
SCALES = (0.5, 0.8, 1.0, 1.7, 2.0)


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_persistence_delta_matches_scalar_loop(rng, norm):
    seen = set()
    for kinds in KIND_PAIRS:
        for t in SCALES:
            for eps in (0.05, 0.2, 0.5):
                x = random_space(rng, kinds[0], norm, 3)
                y = random_space(rng, kinds[1], norm, 3)
                for pair in ((0, 1, 0, 1), (0, 2, 1, 2), (1, 2, 2, 0), (1, 1, 2, 2)):
                    got = outcome(persistence_delta, x, y, *pair, t, eps)
                    assert repr(got) == repr(outcome(persistence_delta_loop, x, y, *pair, t, eps))
                    seen.add("raised" if isinstance(got, tuple) else "t" if got == t else
                             "half" if got == t / 2 else "width")
    assert seen == {"raised", "t", "half", "width"}


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_match_nets_matches_scalar_loop(rng, norm):
    fields = ("t", "eps", "left", "right", "cond_a", "cond_b",
              "left_net_eps", "right_net_eps", "left_net_eps3", "right_net_eps3")
    seen = set()
    for kinds in KIND_PAIRS:
        for t in SCALES:
            for eps in (0.1, 0.4, 0.8):
                x = random_space(rng, kinds[0], norm, 3)
                y = random_space(rng, kinds[1], norm, 4)
                for left, right in (((0, 2, 1), (3, 0, 0)), ((1, 0), (2, 3)), ((0,), (4,)), ((), ())):
                    got = outcome(match_nets, x, y, t, eps, left, right)
                    want = outcome(match_nets_loop, x, y, t, eps, left, right)
                    if isinstance(want, dict):
                        got = {f: getattr(got, f) for f in fields}
                        want = {f: want[f] for f in fields}
                        seen.update(want["cond_a"][0] + want["cond_b"][0])
                    assert repr(got) == repr(want)
    assert seen == {True, False}


@pytest.mark.parametrize("norm", (TNorm.product(), TNorm.lukasiewicz()), ids=lambda nm: nm.kind)
@pytest.mark.parametrize("kind", ("step", "standard", "stationary"))
def test_glue_via_nets_cross_matches_closures(rng, norm, kind):
    x = random_space(rng, kind, norm, 4, band=(0.64, 0.8))
    t, eps, delta = 1.0, 0.2, 0.4
    nets = match_nets(x, x, t, eps, range(4), range(4))
    floor = floor_envelope(x, x)
    u = glue_via_nets(x, x, nets, delta, floor)
    g = certification_grid(None, x, x, extra=(t, t - delta, *floor.breakpoints))
    assert repr(u.cross) == repr(net_cross_closures(x, x, nets, floor, t - delta, g.values))


def test_glue_via_nets_samples_each_space_once(rng, product, monkeypatch):
    """The floor check, the (a)/(b) check and the cross all read one sample of
    each space: the ``PairTable`` of each space is read once for them and once
    in the union axiom check, and each read evaluates each pair once, also
    when ``write_slices`` gives each pair a block of its own."""
    d = random_metric(rng, 4, lo=0.2, hi=6.0)
    x = make_standard_space([f"p{i}" for i in range(4)], d, product)
    y = make_standard_space([f"q{i}" for i in range(4)], d * 1.05, product)
    nets = match_nets(x, y, 1.0, 0.9, range(4), range(4))
    floor = floor_envelope(x, y)
    reads, sampled = [], []
    real = PairTable.blocks

    def blocks(table, ts, step):
        reads.append(table)
        for idx, block in real(table, ts, step):
            sampled.append((table, idx))
            yield idx, block

    monkeypatch.setattr(PairTable, "blocks", blocks)
    for block in (fuzzygh.space._BLOCK, 1):
        monkeypatch.setattr(fuzzygh.space, "_BLOCK", block)
        reads.clear()
        sampled.clear()
        glue_via_nets(x, y, nets, 0.5, floor)
        for sp in (x, y):
            assert sum(table is sp._table for table in reads) == 2
            seen = np.concatenate([idx for table, idx in sampled if table is sp._table])
            assert np.bincount(seen).tolist() == [2] * len(sp.pairs)


def test_samples_fill_one_array(rng, product):
    """A 200-point Standard space on the default grid: 65 slices of 19.8 MiB.
    Written in place they peak at 21.8 MiB under tracemalloc; the slices
    copied into a (T + 1, n, n) array one row longer took 40.0 MiB."""
    sp = make_random_standard(rng, 200, product)
    g = certification_grid(None, sp)
    tracemalloc.start()
    try:
        samples = _samples(sp, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 26 * 2**20, peak
    assert samples.shape == (len(g) + 1, 200, 200)
    assert samples[:-1].tobytes() == sp.grid_values(g).tobytes()
    assert samples[-1].tobytes() == np.ones((200, 200)).tobytes()


def test_glue_via_nets_memory_cap(rng, product):
    # two 60-point spaces, 20-point matched nets, about 69 merged points: the
    # whole call peaks at 21.0 MiB under tracemalloc, most of it the 120-point
    # union check, while an (n_x, n_y, size, S) tensor would take 40 MB on its own
    d = random_metric(rng, 60, lo=0.2, hi=6.0)
    x = make_standard_space([f"p{i}" for i in range(60)], d, product)
    y = make_standard_space([f"q{i}" for i in range(60)], d * 1.05, product)
    nets = match_nets(x, y, 1.0, 0.9, range(20), range(20))
    floor = floor_envelope(x, y)
    tracemalloc.start()
    try:
        u = glue_via_nets(x, y, nets, 0.5, floor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(u.cross) == 60 and len(u.cross[0]) == 60
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_damping_equals_the_pair_expanded_formula(rng, norm):
    """The largest T(c_a, c_b) of each pair of rows or columns gives the
    damping of every pair of cells, bit for bit: zero values and caps, ties
    from a few levels, and one-point sides, which have no pair."""
    levels = np.array([0.0, 0.0, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0])
    zero_caps = zero_values = 0
    for nx in (1, 2, 3, 5):
        for ny in (1, 2, 4):
            for _ in range(12):
                S = int(rng.integers(1, 5))
                closure = rng.choice(levels, size=(S, nx, ny))
                if rng.uniform() < 0.5:
                    closure = rng.uniform(size=(S, nx, ny)) * (rng.uniform(size=(S, nx, ny)) < 0.8)
                caps = []
                for n in (nx, ny):
                    cap = rng.choice(levels, size=(S, n, n))
                    cap = np.minimum(cap, cap.transpose(0, 2, 1))
                    cap[:, np.arange(n), np.arange(n)] = 1.0
                    caps.append(cap)
                got, want = _damping(closure, *caps, norm), damping_pairs(closure, *caps, norm)
                assert got.tobytes() == want.tobytes()
                zero_values += (closure == 0.0).any()
                zero_caps += any((cap == 0.0).any() for cap in caps)
    assert zero_values > 0 and zero_caps > 0


@pytest.mark.parametrize("kind", ["product", "lukasiewicz"])
def test_glue_via_relation_memory_cap(rng, kind):
    # two 40-point spaces through the diagonal relation: the whole call peaks
    # at 8.8 MiB under tracemalloc, most of it the 80-point union check; the
    # damping expanded into (S, pairs, n) tensors took 68.3 MiB (product) and
    # 83.9 MiB (Lukasiewicz)
    norm = TNorm(kind)
    d = random_metric(rng, 40, lo=0.2, hi=6.0)
    x = make_standard_space([f"p{i}" for i in range(40)], d, norm)
    y = make_standard_space([f"q{i}" for i in range(40)], d * 1.05, norm)
    tracemalloc.start()
    try:
        u = glue_via_relation(x, y, 1.0, [(i, i) for i in range(40)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(u.cross) == 40 and len(u.cross[0]) == 40
    assert peak < 12 * 2**20, peak


def test_relation_gluing_takes_any_relation_of_cells(two_point_half, two_point_third):
    for relation in [(), ((0, 2),), ((-1, 0),)]:
        with pytest.raises(DomainError):
            glue_via_relation(two_point_half, two_point_third, 1.0, relation)
    # a relation that misses a row still glues: it only lowers the value
    u = glue_via_relation(two_point_half, two_point_third, 1.0, ((0, 0),))
    assert validate_union(u).passed
    assert union_hausdorff(u, 1.0) < union_hausdorff(
        glue_via_relation(two_point_half, two_point_third, 1.0, ((0, 0), (1, 1))), 1.0
    )


# ---------------------------------------------------------------------------
# the cross of steps read off whole sample arrays, and the unions validated
# from the samples they were built from


def per_entry_cross(points, samples):
    """The cross of ``_step_cross`` with one ``Step`` constructor per entry."""
    return tuple(tuple(Step(points, v) for v in row) for row in samples.transpose(1, 2, 0).tolist())


def monotone_samples(rng, S, nx, ny):
    """(S+1, nx, ny) samples nondecreasing along s, drawn from a few levels so
    that entries hold plateaus and ties, with some entries constant."""
    levels = np.array([0.0, 0.2, 0.5, 0.5, 0.8, 1.0])
    samples = np.sort(rng.choice(levels, size=(S + 1, nx, ny)), axis=0)
    flat = rng.uniform(size=(nx, ny)) < 0.3
    samples[:, flat] = samples[:1, flat]
    return samples


def test_step_cross_builds_the_steps_of_the_constructor(rng):
    seen_constant = seen_tie = 0
    for S in (1, 2, 5, 40):
        points = tuple(np.sort(rng.choice(np.logspace(-2, 2, 60), size=S, replace=False)).tolist())
        for nx, ny in ((1, 1), (2, 3), (4, 4)):
            samples = monotone_samples(rng, S, nx, ny)
            got, want = _step_cross(points, samples), per_entry_cross(points, samples)
            assert got == want
            for row, wrow in zip(got, want):
                for f, w in zip(row, wrow):
                    assert (f.breakpoints, f.values) == (w.breakpoints, w.values)
                    assert repr(f) == repr(w)
                    seen_constant += not f.breakpoints
                    seen_tie += len(f.values) < S + 1
    assert seen_constant > 0 and seen_tie > 0


def test_step_cross_refuses_what_the_constructor_refuses(rng):
    points = (0.5, 1.0, 2.0)
    base = monotone_samples(rng, 3, 2, 3)
    bad = []
    for value in (1.5, -0.1, np.nan):
        for k in (0, 2, 3):
            s = base.copy()
            s[k, 1, 2] = value
            bad.append(s)
    s = base.copy()
    s[:, 0, 1] = (0.1, 0.6, 0.4, 0.9)  # decreasing once
    bad.append(s)
    messages = set()
    for samples in bad:
        with pytest.raises(ConstructionError) as fast:
            _step_cross(points, samples)
        with pytest.raises(ConstructionError) as slow:
            per_entry_cross(points, samples)
        assert str(fast.value) == str(slow.value)
        messages.add(str(fast.value) == "step values must be nondecreasing")
    assert messages == {True, False}  # decreasing, and out of range


def _count_cross_tables(monkeypatch):
    """Count the cross blocks read from their entries (``PairTable`` in ``validate_union``)."""
    calls = {"PairTable": 0}
    inner = fuzzygh.gluing.PairTable

    def counted(*args):
        calls["PairTable"] += 1
        return inner(*args)

    monkeypatch.setattr(fuzzygh.gluing, "PairTable", counted)
    return calls


def _count_object_checks(monkeypatch):
    """Count the unions rebuilt as one space (``UnionMetric.as_space``)."""
    calls = {"as_space": 0}
    inner = UnionMetric.as_space

    def counted(*args, **kwargs):
        calls["as_space"] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(UnionMetric, "as_space", counted)
    return calls


FIXTURES = Path(__file__).parent / "golden" / "fixtures"


def closure_unions(rng, grid):
    """(union, grid, cross samples) of matched-net and relation unions built
    on ``grid``, unvalidated, from the golden fixtures of each norm and from
    seeded pairs with standard, step and stationary sides."""
    pairs = []
    by_norm = {}
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "points" in doc and len(doc["points"]) > 1:
            sp = load_space(path)
            by_norm.setdefault(sp.norm.kind, []).append(sp)
    for spaces in by_norm.values():
        pairs += [(x, y) for x in spaces for y in spaces]
    for norm in NORMS:
        for kinds in KIND_PAIRS + (("stationary", "step"), ("step", "standard")):
            pairs.append((random_space(rng, kinds[0], norm, 3, (0.64, 0.8)), random_space(rng, kinds[1], norm, 4)))
    for x, y in pairs:
        relation = tuple((p, int(rng.integers(y.n))) for p in range(x.n))
        yield _relation_union(x, y, 1.0, relation, grid)
        size = min(x.n, y.n)
        nets = match_nets(x, y, 1.0, 0.3, range(size), rng.permutation(y.n)[:size])
        floor = Stationary(0.2) if rng.uniform() < 0.5 else floor_envelope(x, y, grid)
        g = certification_grid(grid, x, y, extra=(1.0, 0.5, *floor.breakpoints))
        try:
            samples = _net_cross(_samples(x, g), _samples(y, g), nets, floor, 0.5, g, x.norm)
            yield UnionMetric(x, y, _step_cross(g.values, samples)), g, samples
        except ConstructionError:
            pass  # a floor above the detours: the cross decreases


@pytest.mark.parametrize("grid", (None, GridSpec.parse("log:1e-2:1e2:17")), ids=("default", "log17"))
def test_closure_unions_validate_from_their_samples(monkeypatch, rng, grid):
    calls = _count_object_checks(monkeypatch)
    tables = _count_cross_tables(monkeypatch)
    kinds = set()
    failed = 0
    for u, g, samples in closure_unions(rng, grid):
        calls["as_space"] = tables["PairTable"] = 0
        report = validate_union(u, g, _samples=samples)
        assert calls["as_space"] == 0  # read from the samples
        assert tables["PairTable"] == 0
        expected = check_axioms(u.as_space(), g)
        assert report == expected and repr(report) == repr(expected)
        failed += not report.passed
        kinds.add((u.left.norm.kind, u.left.all_steplike() and u.right.all_steplike()))
    assert len(kinds) == 6  # each norm, with and without a standard side
    assert failed > 0  # random stationary values break the triangle


def test_a_failing_closure_union_reports_its_witness(monkeypatch, rng, product):
    # d(a, c) = 2.01 > d(a, b) + d(b, c): the left side fails for t > 100
    x = FuzzySpace("x", ("a", "b", "c"), product, (Standard(1.0), Standard(2.01), Standard(1.0)))
    y = make_standard_space(["p", "q"], [[0, 1], [1, 0]], product)
    bad_side = _relation_union(x, y, 1.0, ((0, 0), (2, 1)), None)
    g = certification_grid(None, y)
    # random nondecreasing cross samples break the triangle through the cross
    samples = np.sort(rng.uniform(0.1, 0.9, size=(len(g) + 1, 2, 2)), axis=0)
    bad_cross = (UnionMetric(y, y, _step_cross(g.values, samples)), g, samples)
    calls = _count_object_checks(monkeypatch)
    for u, grid, s in (bad_side, bad_cross):
        calls["as_space"] = 0
        report = validate_union(u, grid, _samples=s)
        assert calls["as_space"] == 0
        assert not report.passed and report.witness is not None and report.na1_residual < 0.0
        assert report == check_axioms(u.as_space(), grid)
    # both sides pass, so the worst triple meets both
    i, j, k, _ = validate_union(bad_cross[0], g, _samples=samples).witness
    assert min(i, j, k) < 2 <= max(i, j, k)


def test_a_union_without_its_samples_is_read_from_its_entries(monkeypatch, rng):
    calls = _count_object_checks(monkeypatch)
    other = GridSpec.parse("log:1e-1:1e1:9")
    seen = returned = 0
    for u, g, samples in closure_unions(rng, None):
        plain = UnionMetric(u.left, u.right, u.cross)
        # a closure union holds its fields alone: equality, repr and documents see all of it
        assert plain == u and repr(plain) == repr(u)
        assert union_to_doc(plain) == union_to_doc(u)
        assert set(vars(u)) == {"left", "right", "cross"}
        for union, grid in ((plain, g), (union_from_doc(union_to_doc(u)), g), (u, other), (u, None)):
            calls["as_space"] = 0
            report = validate_union(union, grid)
            assert calls["as_space"] == 0  # read from the entries
            assert report == check_axioms(u.as_space(), grid)
            seen += 1
        # a union a gluing validated from its samples is read from its entries after
        if fuzzygh.gluing.validate_union(u, g, _samples=samples).passed:
            assert fuzzygh.gluing._validated(u, g, 1e-12, "closure", samples) is u
            assert set(vars(u)) == {"left", "right", "cross"}
            calls["as_space"] = 0
            assert validate_union(u, g) == check_axioms(u.as_space(), g)
            assert calls["as_space"] == 1  # the test's own
            returned += 1
    assert seen > 0 and returned > 0


def test_samples_off_their_grid_are_refused(two_point_half, two_point_third):
    x, y = two_point_half, two_point_third
    g = certification_grid(None, x, y)
    samples = np.full((len(g) + 1, x.n, y.n), 0.1)
    u = UnionMetric(x, y, _step_cross(g.values, samples))
    assert validate_union(u, g, _samples=samples).passed
    for grid, s in ((None, samples), (GridSpec.log(1e-1, 1e1, 5), samples), (g, samples[:, :1])):
        with pytest.raises(DomainError, match="cross slices on grid"):
            validate_union(u, grid, _samples=s)


def test_a_closure_cross_that_never_drops_below_one_is_refused_as_by_as_space(two_point_half, two_point_third):
    x, y = two_point_half, two_point_third
    g = certification_grid(None, x, y)
    samples = np.ones((len(g) + 1, x.n, y.n))
    u = UnionMetric(x, y, _step_cross(g.values, samples))
    with pytest.raises(ConstructionError) as refused:
        validate_union(u, g, _samples=samples)
    with pytest.raises(ConstructionError) as expected:
        u.as_space()
    assert str(refused.value) == str(expected.value)


# ---------------------------------------------------------------------------
# every union is validated from its blocks, as check_axioms on the union as one space


def union_outcome(u, grid):
    """(validate_union's report or error, check_axioms's on ``u.as_space()``)."""
    got = cross_outcome(validate_union, u, grid)
    try:
        expected = repr(check_axioms(u.as_space(), grid))
    except ConstructionError as exc:
        expected = type(exc).__name__, str(exc)
    return got, expected


def assert_same_report(u, grid, samples=None):
    """validate_union's report, read from the cross ``samples`` when given,
    equal by ``==`` and ``repr`` to check_axioms's on ``u.as_space()``
    (witness and ``na1_residual`` included)."""
    report = validate_union(u, grid, _samples=samples)
    expected = check_axioms(u.as_space(), grid)
    assert report == expected and repr(report) == repr(expected)
    return report


# a floor whose breakpoint lies past every breakpoint of random_space's steps,
# so the union's tail point lies past the sides'
TAIL_FLOOR = Step((50.0,), (0.0, 0.1))


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_constant_unions_validate_as_one_space(rng, norm):
    """Constant gluings (``ZERO``, the envelope, a ``Standard`` floor, a floor
    past the sides' breakpoints) and a constant cross above the sides' values,
    on standard, step and stationary sides of 1-4 points that pass or fail."""
    seen = set()
    for kinds in KIND_PAIRS + (("stationary", "step"),):
        for nx, ny in ((1, 1), (1, 3), (3, 1), (3, 4)):
            band = ((0.64, 0.8), (0.3, 0.95))[int(rng.integers(2))]
            x, y = random_space(rng, kinds[0], norm, nx, band), random_space(rng, kinds[1], norm, ny, band)
            unions = []
            floors = {"zero": ZERO, "envelope": floor_envelope(x, y), "standard": Standard(50.0), "tail": TAIL_FLOOR}
            for label, c in floors.items():
                try:
                    unions.append((label, *fuzzygh.gluing._constant_union(x, y, c, None, 1e-12)))
                except HypothesisError:
                    pass  # the floor rises above a t-diameter
            # above any floor: the sides fail through the cross
            high = tuple(tuple(Stationary(0.9) for _ in range(ny)) for _ in range(nx))
            unions.append(("above", UnionMetric(x, y, high), None))
            for label, u, g in unions:
                got, expected = union_outcome(u, g)
                assert got == expected
                if isinstance(got, str):
                    seen.add((label, assert_same_report(u, g).passed))
                else:
                    seen.add((label, got[0]))  # the envelope of two single points is ONE
    assert {label for label, _ in seen} == {"zero", "envelope", "standard", "tail", "above"}
    assert {passed for _, passed in seen} == {True, False, "ConstructionError"}
    assert ("above", False) in seen


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_a_closure_cross_constant_in_each_slice_validates_as_one_space(rng, norm):
    """Closure unions whose cross holds one value per slice, read from their
    samples, rebuilt without them and loaded from a document."""
    grid = GridSpec.parse("log:1e-2:1e2:17")
    for kinds in KIND_PAIRS:
        for nx, ny in ((1, 1), (1, 3), (3, 2)):
            band = ((0.64, 0.8), (0.3, 0.95))[int(rng.integers(2))]
            x, y = random_space(rng, kinds[0], norm, nx, band), random_space(rng, kinds[1], norm, ny, band)
            g = certification_grid(grid, x, y)
            levels = np.sort(rng.uniform(0.0, 0.7, size=len(g) + 1))
            samples = np.broadcast_to(levels[:, None, None], (len(g) + 1, nx, ny)).copy()
            u = UnionMetric(x, y, _step_cross(g.values, samples))
            for union in (UnionMetric(x, y, u.cross), union_from_doc(union_to_doc(u))):
                assert_same_report(union, g)
            assert_same_report(u, g, samples)


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_a_passing_constant_gluing_builds_no_union_slices(rng, monkeypatch, norm):
    """Constant gluings with a stationary or step side, and with sides of one
    point, are checked side by side: a passing one writes no (T, n_x + n_y,
    n_x + n_y) array, and its report is check_axioms's on the union as one
    space.  Under Lukasiewicz two single points glued at c take the across
    term c - (1 + c - 1), which rounds above 0 for some c; the sides' 0 wins,
    as in the one-space scan."""
    written = []
    real = fuzzygh.gluing.write_slices
    monkeypatch.setattr(fuzzygh.gluing, "write_slices", lambda sp, ts, out: written.append(out.shape) or real(sp, ts, out))
    def side(kind, n):
        if kind == "flat":  # one step on every pair: admissible under every norm
            rise = Step((1.0,), (0.7, 0.75))
            return make_step_space([f"p{i}" for i in range(n)], dict.fromkeys(zip(*np.triu_indices(n, 1)), rise), norm)
        return random_space(rng, kind, norm, n, (0.64, 0.8))

    passed = []
    for kinds in (("stationary", "step"), ("step", "stationary"), ("standard", "flat"), ("flat", "step")):
        for nx, ny in ((1, 1), (1, 4), (4, 1), (7, 5)):
            x, y = side(kinds[0], nx), side(kinds[1], ny)
            # the envelope of two single points never drops below 1: no union takes it
            for c in (ZERO, Stationary(0.1), Stationary(0.4), *[floor_envelope(x, y)][: nx * ny - 1]):
                try:
                    u, g = fuzzygh.gluing._constant_union(x, y, c, None, 1e-12)
                except HypothesisError:
                    continue  # the floor rises above a Standard side's t-diameter
                written.clear()
                report = assert_same_report(u, g)
                assert report.passed == (written == [])
                if report.passed:
                    passed.append((nx, ny))
    assert passed.count((1, 1)) == 12 and sum(nx * ny > 1 for nx, ny in passed) >= 5
    x = random_space(rng, "stationary", norm, 1)
    u, g = fuzzygh.gluing._constant_union(x, x, Stationary(0.4), None, 1e-12)
    if norm.kind == "lukasiewicz":
        assert 0.4 - ((1.0 + 0.4) - 1.0) > 0.0
    assert assert_same_report(u, g).na1_residual.hex() == "0x0.0p+0"
    # a one-point side's diagonal steps are 0: they pass a tol of 0 and fail a
    # negative one, however c rises
    ts, c = np.array([0.5, 1.0, 2.0]), np.array([0.1, 0.2, 0.3])
    for tol in (0.0, -1e-12):
        assert fuzzygh.space.glued_check(x, x, ts, tol, c)[1] == (tol >= 0.0)
        assert fuzzygh.space.glued_check(x, x, ts[:1], tol, c[:1])[1]


def test_large_constant_unions_validate_as_one_space(rng):
    """40 + 40 standard points on the 64 default scales: the side scans take
    several row blocks, and the failing unions' whole scans chunks of rows j."""
    x, y = (make_random_standard(rng, 40, TNorm.product(), name) for name in "xy")
    d = random_metric(rng, 40)
    d[3, 30] = d[30, 3] = 3.0 * d.max()  # the triangle fails on y
    bent = FuzzySpace("bent", y.labels, y.norm, tuple(Standard(d[i, j]) for i in range(40) for j in range(i + 1, 40)))
    high = tuple(tuple(Stationary(0.9) for _ in range(40)) for _ in range(40))
    reports = [
        assert_same_report(glue_constant(x, y, ZERO), None),
        assert_same_report(glue_constant(x, y, floor_envelope(x, y)), None),
        assert_same_report(UnionMetric(x, y, high), None),
        assert_same_report(fuzzygh.gluing._constant_union(x, bent, ZERO, None, 1e-12)[0], None),
    ]
    assert [r.passed for r in reports] == [True, True, False, False]
    assert len(reports[0].grid) == 64
    i, j, k, _ = reports[3].witness
    assert min(i, j, k) >= 40  # the bent side's own triple


def _guard_point(norm):
    return make_standard_space(["a"], [[0]], norm)


def _guard_close_union():
    """A 3-point space beside itself, every cross diagonal entry 1: Hausdorff
    value 1 at t = 1, while [0] is no (1, 0.1)-net of the left part."""
    x = make_standard_space("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]], TNorm.product())
    cross = tuple(tuple(Stationary(1.0) if p == q else x.entry(p, q) for q in range(3)) for p in range(3))
    return UnionMetric(x, x, cross)


def _guard_right_not_a_net():
    """Matched nets [0] and [0] of which only the left covers at eps = 0.1."""
    a = make_stationary_space("ab", [[1, 0.95], [0.95, 1]], TNorm.product())
    b = make_stationary_space("ab", [[1, 0.5], [0.5, 1]], TNorm.product())
    nets = match_nets(a, b, 1.0, 0.1, [0], [0])
    assert nets.left_net_eps and not nets.right_net_eps
    return glue_via_nets(a, b, nets, 0.5, ZERO)


def _guard_exact_tie():
    """Product norm, distances 3 against 1, t = 1, eps = 0.5: at t the bound
    1/4 >= 1/2 * 1/2 holds with equality, and below t it fails."""
    x, y = (make_standard_space("ab", [[0, d], [d, 0]], TNorm.product()) for d in (3.0, 1.0))
    return persistence_delta(x, y, 0, 1, 0, 1, 1.0, 0.5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: UnionMetric(_guard_point(TNorm.product()), _guard_point(TNorm.minimum()), ((ZERO,),)),
     ConstructionError, "both parts must share the t-norm kind"),
    (lambda: UnionMetric(_guard_point(TNorm.product()), _guard_point(TNorm.product()), ((ZERO, ZERO),)),
     ConstructionError, "cross matrix shape must be n_left x n_right"),
    (lambda: MatchedNets(1.0, 0.1, (), (), (), (), True, True, True, True),
     ConstructionError, "matched nets must be nonempty and equally long"),
    (lambda: extract_matched_nets(_guard_close_union(), 1.0, 0.1, [0]),
     DomainError, "net_left is not a (t, eps)-net in the left space"),
    (_guard_right_not_a_net, HypothesisError, "hypothesis (2) failed: right side is not a (t, eps)-net"),
    (_guard_exact_tie, HypothesisError,
     "hypothesis (a)/(b) failed at 1.0: bounds hold at t with no positive persistence width (exact tie)"),
], ids=["union-norms", "union-shape", "empty-nets", "extract-not-a-net", "right-not-a-net", "exact-tie"])
def test_gluing_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message

