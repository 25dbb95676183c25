import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzygh import (
    ConstructionError,
    DomainError,
    FuzzySpace,
    GridSpec,
    Standard,
    Stationary,
    Step,
    TNorm,
    check_axioms,
    diameter_fn,
    is_isometric,
    make_standard_space,
    make_stationary_space,
    make_step_space,
    t_diameter,
    validate_distance_matrix,
)
from fuzzygh import space as space_module
from fuzzygh.space import certification_grid

from conftest import make_random_standard, make_random_stationary
from oracles import (
    first_triangle_violation,
    is_isometric_loop,
    na1_first_witness,
    na1_worst_residual,
    random_metric,
    random_safe_stationary_values,
)

NORMS = (TNorm.minimum(), TNorm.product(), TNorm.lukasiewicz())


def test_standard_space_example(product):
    sp = make_standard_space(["a", "b"], [[0, 4], [4, 0]], product)
    assert sp.value(0, 1, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert sp.value(0, 0, 1.0) == 1.0
    assert sp.value(0, 0, 0.0) == 0.0


def test_single_point_space(product):
    sp = make_standard_space(["a"], [[0]], product)
    assert sp.n == 1
    assert sp.pairs == ()
    assert t_diameter(sp, 1.0) == 1.0


def test_triangle_violation_names_triple(product):
    with pytest.raises(ConstructionError, match="triangle"):
        make_standard_space(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]], product)


def test_stationary_constructor(product):
    sp = make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], product)
    for t in (0.1, 1.0, 50.0):
        assert sp.value(0, 1, t) == 0.5
    with pytest.raises(ConstructionError):
        make_stationary_space(["a", "b"], [[1, 1.0], [1.0, 1]], product)


def test_step_constructor_rejects_decreasing(product):
    with pytest.raises(ConstructionError):
        make_step_space(["a", "b"], {(0, 1): Step((5.0,), (0.9, 0.5))}, product)


def test_step_space_two_point(product):
    sp = make_step_space(["a", "b"], {(0, 1): Step((5.0,), (0.5, 1.0))}, product)
    assert sp.value(0, 1, 5.0) == 0.5
    assert sp.value(0, 1, 5.5) == 1.0
    assert check_axioms(sp).passed  # two-point step spaces are non-Archimedean


def test_axioms_standard_product_pass(rng):
    sp = make_random_standard(rng, 5, TNorm.product())
    report = check_axioms(sp)
    assert report.passed
    assert report.na1_residual >= 0.0


def test_axioms_match_bruteforce_oracle(rng):
    sp = make_random_standard(rng, 4, TNorm.product())
    grid = GridSpec.log(1e-2, 1e2, 9)
    report = check_axioms(sp, grid)
    oracle = na1_worst_residual(sp, TNorm.product(), grid.values)
    assert report.na1_residual == pytest.approx(oracle, abs=1e-12)


def test_non_ultrametric_minimum_norm_fails_na1(product):
    sp = make_standard_space(
        ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], TNorm.minimum()
    )
    report = check_axioms(sp)
    assert not report.na1
    assert report.witness is not None
    # the same metric under the product norm is fine
    assert check_axioms(make_standard_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], product)).passed


def test_demonstration_entries_residual_at_unit_scale():
    # analytic entries chosen to pin the failure numbers at t = 1
    sp = FuzzySpace("demo", ("a", "b", "c"), TNorm.minimum(), (Standard(1.0), Standard(3.0), Standard(1.0)))
    report = check_axioms(sp, GridSpec.explicit([1.0]))
    assert not report.na1
    assert report.na1_residual == pytest.approx(0.25 - 0.5, abs=1e-15)
    i, j, k, t = report.witness
    assert t == 1.0
    assert sp.value(i, k, t) == pytest.approx(0.25, abs=1e-15)


def test_stationary_two_point_any_value_passes(rng, product):
    for c in (0.1, 0.5, 0.9):
        sp = make_stationary_space(["a", "b"], [[1, c], [c, 1]], product)
        assert check_axioms(sp).passed


def test_t_diameter_standard_identity(rng, product):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = random_metric(rng, n)
        sp = make_standard_space([f"p{i}" for i in range(n)], d, product)
        for t in (0.3, 1.0, 7.0):
            assert t_diameter(sp, t) == pytest.approx(t / (t + d.max()), abs=1e-12)


def test_t_diameter_stationary_scale_free(two_point_half):
    assert t_diameter(two_point_half, 0.01) == t_diameter(two_point_half, 100.0) == 0.5


def test_t_diameter_domain(two_point_half):
    with pytest.raises(DomainError):
        t_diameter(two_point_half, 0.0)


def test_diameter_fn_matches_pointwise(rng, product):
    sp = make_random_standard(rng, 4, product)
    f = diameter_fn(sp)
    for t in (0.2, 1.0, 9.0):
        assert f.eval(t) == pytest.approx(t_diameter(sp, t), abs=1e-12)


def test_isometry_self_and_relabeling(two_point_half, two_point_third, product):
    assert is_isometric(two_point_half, two_point_half) == (0, 1)
    relabeled = make_stationary_space(["u", "v"], [[1, 0.5], [0.5, 1]], product)
    assert is_isometric(two_point_half, relabeled) in ((0, 1), (1, 0))
    assert is_isometric(two_point_half, two_point_third) is None


def test_isometry_under_permutation(rng, product):
    n = 5
    d = random_metric(rng, n)
    sp = make_standard_space([f"p{i}" for i in range(n)], d, product)
    perm = rng.permutation(n)
    d2 = d[np.ix_(perm, perm)]
    sp2 = make_standard_space([f"q{i}" for i in range(n)], d2, product)
    pi = is_isometric(sp, sp2)
    assert pi is not None
    for i in range(n):
        for j in range(n):
            assert sp.value(i, j, 1.0) == pytest.approx(sp2.value(pi[i], pi[j], 1.0), abs=1e-12)
    # symmetry: some permutation back exists and inverts values
    back = is_isometric(sp2, sp)
    assert back is not None
    inverse_of_pi = tuple(pi.index(k) for k in range(n))
    for i in range(n):
        for j in range(n):
            assert sp2.value(i, j, 2.0) == pytest.approx(
                sp.value(inverse_of_pi[i], inverse_of_pi[j], 2.0), abs=1e-12
            )


def test_isometry_requires_same_norm(two_point_half):
    other = make_stationary_space(["x1", "x2"], [[1, 0.5], [0.5, 1]], TNorm.minimum())
    with pytest.raises(DomainError):
        is_isometric(two_point_half, other)


def _iso_space(m, norm, rep, name):
    """A space of the representation rep whose pair values fall with the distances m;
    step pairs are all 0 below t = 0.5, so they differ only at later scales."""
    labels = [f"{name}{i}" for i in range(len(m))]
    if rep == "standard":
        return make_standard_space(labels, m, norm)
    if rep == "stationary":
        return make_stationary_space(labels, 1.0 / (1.0 + m), norm)
    s = np.array([2.0, 4.0])
    steps = {
        (i, j): Step((0.5, 2.0), (0.0, *(float(v) for v in s / (s + m[i, j]))))
        for i in range(len(m))
        for j in range(i + 1, len(m))
    }
    return make_step_space(labels, steps, norm)


def _moved_copy(rng, m, shift):
    """A permuted copy of m whose first and last points are moved shift apart."""
    perm = rng.permutation(len(m))
    m2 = m[np.ix_(perm, perm)]
    if len(m) > 1:
        m2[0, -1] += shift
        m2[-1, 0] += shift
    return m2


def test_isometry_matches_the_backtracking():
    """The same permutation or None as the permutation backtracking on drawn,
    equilateral, tied and permuted spaces and on copies moved just past or
    just within the tolerance."""
    rng = np.random.default_rng(23)
    isometric = 0
    for norm in NORMS:
        for rep in ("standard", "stationary", "step"):
            for n in range(1, 7):
                ties = np.triu(rng.integers(1, 3, (n, n)), 1).astype(float)
                cases = [(random_metric(rng, n, 1.0, 2.0), random_metric(rng, n, 1.0, 2.0)),
                         (1.0 - np.eye(n), 1.0 - np.eye(n)),
                         (ties + ties.T, _moved_copy(rng, ties + ties.T, 0.0))]
                for shift in (0.0, 1e-10, 1e-13):
                    m = random_metric(rng, n, 1.0, 2.0)
                    cases.append((m, _moved_copy(rng, m, shift)))
                for m, m2 in cases:
                    a, b = _iso_space(m, norm, rep, "a"), _iso_space(m2, norm, rep, "b")
                    found = is_isometric(a, b)
                    assert found == is_isometric_loop(a, b)
                    isometric += found is not None
    assert isometric > 150


def test_isometry_of_points_closer_than_the_tolerance(product):
    """Points 1e-16 apart agree with the diagonal on the grid, so only the
    row-and-column condition keeps the relation a permutation."""
    e = 1e-16
    a = make_standard_space("abc", [[0, e, 1], [e, 0, 1], [1, 1, 0]], product)
    b = make_standard_space("xyz", [[0, 1, 1], [1, 0, e], [1, e, 0]], product)
    assert is_isometric(a, a) == is_isometric_loop(a, a) == (0, 1, 2)
    assert is_isometric(a, b) == is_isometric_loop(a, b) == (1, 2, 0)


def test_standard_space_rejects_non_finite_distances(product):
    with pytest.raises(ConstructionError, match="finite"):
        make_standard_space(["a", "b"], [[0.0, np.inf], [np.inf, 0.0]], product)
    with pytest.raises(ConstructionError, match="finite"):
        make_standard_space(["a", "b"], [[np.nan, 1.0], [1.0, 0.0]], product)
    with pytest.raises(ConstructionError, match="finite"):
        Standard(np.inf)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_random_standard_always_passes_both_norms(seed, n):
    rng = np.random.default_rng(seed)
    d = random_metric(rng, n)
    grid = GridSpec.log(1e-3, 1e3, 50)
    for norm in (TNorm.product(), TNorm.lukasiewicz()):
        sp = make_standard_space([f"p{i}" for i in range(n)], d, norm)
        report = check_axioms(sp, grid)
        assert report.passed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
def test_random_stationary_band_passes(seed, n):
    rng = np.random.default_rng(seed)
    for norm in (TNorm.product(), TNorm.lukasiewicz()):
        sp = make_random_stationary(rng, n, norm)
        assert check_axioms(sp).passed


def test_grid_values_monotone_in_t(rng, product):
    sp = make_random_standard(rng, 5, product)
    grid = GridSpec.default()
    V = sp.grid_values(grid)
    assert np.all(np.diff(V, axis=0) >= -1e-15)


# ---------------------------------------------------------------------------
# the blocked triangle kernel against loop oracles


def _tied_stationary(rng, n, norm):
    # two levels only, so many triples tie for the worst residual
    v = rng.choice([0.5, 0.7], size=(n, n))
    v = np.minimum(v, v.T)
    np.fill_diagonal(v, 1.0)
    return make_stationary_space([f"p{i}" for i in range(n)], v, norm)


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_na1_residual_equals_loop_oracle_exactly(rng, norm):
    grid = GridSpec.log(1e-2, 1e2, 7)
    spaces = [
        make_random_standard(rng, 5, norm),
        make_random_stationary(rng, 4, norm),
        _tied_stationary(rng, 6, norm),
    ]
    for sp in spaces:
        report = check_axioms(sp, grid)
        assert report.na1_residual == na1_worst_residual(sp, norm, report.grid)
        worst, witness = na1_first_witness(sp, norm, report.grid)
        assert report.na1_residual == worst
        if not report.na1:
            assert report.witness == witness


def test_witness_in_last_block_matches_first_loop_witness(rng, product):
    # 20 points on the default grid span several blocks of whole t-slices;
    # (a, b) and (b, c) jump to 1 only past t = 2000, so every violation sits
    # at the largest grid point, in the last block
    n, a, b, c = 20, 3, 11, 16
    v = random_safe_stationary_values(rng, n)
    steps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in ((a, b), (b, c)):
                steps[(i, j)] = Step((2000.0,), (v[i, j], 1.0))
            else:
                steps[(i, j)] = Step((), (v[i, j],))
    sp = make_step_space([f"p{i}" for i in range(n)], steps, product)
    report = check_axioms(sp)
    assert n ** 3 * len(report.grid) > space_module._BLOCK
    assert not report.na1
    worst, witness = na1_first_witness(sp, product, report.grid)
    assert report.na1_residual == worst
    assert report.witness == witness
    assert witness[3] == report.grid[-1]


@pytest.mark.parametrize("block", [1, 7, 40, 300, 1 << 18])
@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_every_blocking_level_finds_the_first_worst_triple(rng, monkeypatch, norm, block):
    # block sizes below n, n^2 and n^3 exercise the j-, i- and t-blocked scans
    monkeypatch.setattr(space_module, "_BLOCK", block)
    grid = GridSpec.log(1e-1, 1e1, 3)
    for sp in (_tied_stationary(rng, 6, norm), make_random_standard(rng, 5, norm)):
        report = check_axioms(sp, grid)
        worst, witness = na1_first_witness(sp, norm, report.grid)
        assert report.na1_residual == worst
        assert report.witness == (None if report.na1 else witness)


def test_check_axioms_memory_is_bounded(rng, product):
    sp = make_random_standard(rng, 100, product)
    space_module._grid_values_cached.cache_clear()
    tracemalloc.start()
    try:
        report = check_axioms(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    # the (T, n, n, n) residual alone would take 64 * 100**3 * 8 bytes = 512 MB
    assert peak < 32 * 2 ** 20


def test_grid_values_of_mixed_representations_match_per_pair(rng, product):
    n = 9
    pairs = []
    for idx in range(n * (n - 1) // 2):
        kind = idx % 4
        if kind == 0:
            pairs.append(Standard(float(rng.uniform(0.1, 5.0))))
        elif kind == 1:
            pairs.append(Stationary(float(rng.uniform(0.0, 0.9))))
        elif kind == 2:
            pairs.append(Step((0.5, 4.0), tuple(sorted(rng.uniform(0.0, 0.9, size=3)))))
        else:
            pairs.append(Step((2.0,), (float(rng.uniform(0.0, 0.5)), 1.0)))
    sp = FuzzySpace("mix", tuple(f"p{i}" for i in range(n)), product, tuple(pairs))
    grid = certification_grid(GridSpec.log(1e-2, 1e2, 11), sp)
    V = sp.grid_values(grid)
    ts = grid.array()
    for i in range(n):
        assert np.array_equal(V[:, i, i], np.ones(len(ts)))
        for j in range(i + 1, n):
            expected = sp.entry(i, j).eval_array(ts)
            assert np.array_equal(V[:, i, j], expected)
            assert np.array_equal(V[:, j, i], expected)


def test_validate_distance_matrix_names_first_loop_violation(rng):
    d = rng.uniform(0.1, 10.0, size=(12, 12))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    # a metric of 80 points, scanned in two blocks of rows, broken in the second
    big = random_metric(rng, 80)
    big[70, 75] = big[75, 70] = 100.0
    for m in (d, big):
        i, j, k = first_triangle_violation(m)
        with pytest.raises(ConstructionError, match=rf"fails on \({i}, {j}, {k}\):"):
            validate_distance_matrix(m)
    big[3, 5] = big[5, 3] = 0.0
    big[2, 9] = big[9, 2] = 0.0
    with pytest.raises(ConstructionError, match="points 2 and 9 must be positive"):
        validate_distance_matrix(big)
