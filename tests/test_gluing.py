import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fuzzygh import (
    ConstructionError,
    DomainError,
    HypothesisError,
    Standard,
    Stationary,
    Step,
    TNorm,
    ZERO,
    attempt_net_gluing,
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

from fuzzygh.gluing import _check_mutual_bounds, _cross_points, _net_cross
from fuzzygh.space import certification_grid
from fuzzygh.valuefn import vf_breakpoints

from conftest import make_random_standard, make_random_stationary
from oracles import (
    match_nets_loop,
    mutual_bounds_loop,
    net_cross_closures,
    persistence_delta_loop,
    random_metric,
    random_safe_stationary_values,
)


def test_zero_floor_always_glues(rng, product):
    x = make_random_standard(rng, 3, product)
    y = make_random_stationary(rng, 2, product)
    u = glue_constant(x, y, ZERO)
    assert validate_union(u).passed
    assert union_hausdorff(u, 1.0) == 0.0


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
    g = certification_grid(None, x, y, extra=(t, t - delta, *vf_breakpoints(floor)))
    return x, y, nets, floor, g


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_net_cross_matches_closures(rng, norm):
    t, splice = 1.0, 0.5
    built = inside = far = 0
    for kinds in KIND_PAIRS:
        for eps in (0.2, 0.5):
            x, y, nets, floor, g = glue_inputs(rng, norm, kinds, eps)
            points = _cross_points(x, y, floor, g, splice, t)
            got = cross_outcome(_net_cross, x, y, nets, floor, splice, points)
            assert got == cross_outcome(net_cross_closures, x, y, nets, floor, splice, points)
            built += isinstance(got, str)
            inside += points[0] < splice
            far += points[-1] >= 1e16
    assert built > 0
    assert inside > 0  # a splice strictly inside the merged points
    assert far > 0  # the far tail sample of analytic entries


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_mutual_bounds_scan_matches_loop(rng, norm):
    seen = set()
    for kinds in KIND_PAIRS * 3:
        for eps in (0.1, 0.4, 0.8):
            x, y, nets, _, g = glue_inputs(rng, norm, kinds, eps)
            expected = mutual_bounds_loop(x, y, nets, [s for s in g.values if s >= nets.t])
            seen.add(expected and expected[0])
            if expected is None:
                _check_mutual_bounds(x, y, nets, g, 1e-12)
                continue
            with pytest.raises(HypothesisError) as err:
                _check_mutual_bounds(x, y, nets, g, 1e-12)
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
    g = certification_grid(None, x, x, extra=(t, t - delta, *vf_breakpoints(floor)))
    points = _cross_points(x, x, floor, g, t - delta, t)
    assert repr(u.cross) == repr(net_cross_closures(x, x, nets, floor, t - delta, points))


def test_glue_via_nets_memory_cap(rng, product):
    # two 60-point spaces, 20-point matched nets, about 69 merged points: the
    # whole call peaks at 29.0 MiB under tracemalloc, most of it the 120-point
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
