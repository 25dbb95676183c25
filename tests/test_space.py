import copy
import dataclasses
import itertools
import math
import pickle
import re
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
    ZERO,
    UnionMetric,
    check_axioms,
    glue_constant,
    is_isometric,
    make_standard_space,
    make_stationary_space,
    make_step_space,
    t_diameter,
    validate_distance_matrix,
    validate_union,
)
from fuzzygh import gluing as gluing_module
from fuzzygh import space as space_module
from fuzzygh.space import certification_grid, pair_indices, scan_points, slices_at, t_diameters
from fuzzygh.valuefn import PairTable, values

from conftest import make_random_standard, make_random_stationary
from oracles import (
    first_triangle_violation,
    fresh_slices_loop,
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
    # M(x, x, t) = 1 for t > 0: a diagonal off 1 is refused, as a nonzero
    # diagonal is for distances
    for diagonal in ((0.3, 0.0), (1.0, 1.0 - 1e-9), (1.0, float("nan"))):
        v = np.array([[0.0, 0.5], [0.5, 0.0]])
        np.fill_diagonal(v, diagonal)
        with pytest.raises(ConstructionError, match="unit diagonal"):
            make_stationary_space(["a", "b"], v, product)
    assert make_stationary_space(["a", "b"], [[1 - 1e-13, 0.5], [0.5, 1]], product).pairs == sp.pairs
    # the pairs of the per-pair loop, and its error for the first pair out of
    # [0, 1) in lexicographic order, NaN included
    rng = np.random.default_rng(3)
    v = random_safe_stationary_values(rng, 6)
    labels = [f"p{i}" for i in range(6)]
    loop = tuple(Stationary(float(v[i, j])) for i in range(6) for j in range(i + 1, 6))
    assert make_stationary_space(labels, v, product).pairs == loop
    cases = (((1, 4), (2, 3), r"\(p1, p4\) .* got nan"), ((3, 4), (0, 5), r"\(p0, p5\) .* got -0.25"))
    for nan_at, low_at, expected in cases:
        bad = v.copy()
        bad[nan_at] = bad[nan_at[::-1]] = float("nan")
        bad[low_at] = bad[low_at[::-1]] = -0.25
        with pytest.raises(ConstructionError, match=r"must lie in \[0, 1\)") as err:
            make_stationary_space(labels, bad, product)
        assert re.search(expected, str(err.value))


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


def test_isometry_self_and_relabeling(two_point_half, two_point_third, product):
    assert is_isometric(two_point_half, two_point_half) == (0, 1)
    relabeled = make_stationary_space(["u", "v"], [[1, 0.5], [0.5, 1]], product)
    assert is_isometric(two_point_half, relabeled) in ((0, 1), (1, 0))
    assert is_isometric(two_point_half, two_point_third) is None
    # spaces of different sizes are not compared
    assert is_isometric(two_point_half, make_stationary_space(["u"], [[1.0]], product)) is None


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


_STEP = Step((1.0,), (0.5, 1.0))


@pytest.mark.parametrize("build, error, message", [
    (lambda: GridSpec(()), DomainError, "grid must be nonempty"),
    (lambda: GridSpec((1.0, 1.0)), DomainError, "grid values must be strictly increasing and positive"),
    (lambda: GridSpec.parse("1,x"), DomainError, "bad grid spec '1,x'"),
    (lambda: GridSpec.default().merged([math.inf]), DomainError, "grid values must be finite"),
    (lambda: FuzzySpace("s", (), TNorm.product(), ()), ConstructionError, "space needs at least one point"),
    (lambda: FuzzySpace("s", ("a", "a"), TNorm.product(), (_STEP,)), ConstructionError,
     "point labels must be unique"),
    (lambda: FuzzySpace("s", ("a", "b"), TNorm.product(), ()), ConstructionError,
     "wrong number of off-diagonal entries"),
    (lambda: make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], TNorm.product()).pair_index(1, 1),
     DomainError, "diagonal has no stored entry"),
    (lambda: make_standard_space(["a"], [[0, 1], [1, 0]], TNorm.product()), ConstructionError,
     "label count does not match the distance matrix"),
    (lambda: make_stationary_space(["a"], [[1, 0.5], [0.5, 1]], TNorm.product()), ConstructionError,
     "values matrix shape does not match labels"),
    (lambda: make_stationary_space(["a", "b"], [[1, 0.5], [0.4, 1]], TNorm.product()), ConstructionError,
     "values matrix must be symmetric"),
    (lambda: make_step_space(["a", "b"], {(0, 0): _STEP}, TNorm.product()), ConstructionError,
     "bad pair indices (0, 0)"),
    (lambda: make_step_space(["a", "b"], {(0, 1): _STEP, (1, 0): _STEP}, TNorm.product()), ConstructionError,
     "duplicate entry for pair (0, 1)"),
    (lambda: make_step_space(["a", "b"], {(0, 1): Standard(1.0)}, TNorm.product()), ConstructionError,
     "pair entries must be Step functions"),
    (lambda: make_step_space(["a", "b", "c"], {(0, 1): _STEP}, TNorm.product()), ConstructionError,
     "missing entry for pair (0, 2)"),
])
def test_grid_and_space_input_guards(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


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


def _mixed_space(m, norm, name, perm=None):
    """Standard, stationary and step pairs cycling over the pairs of the
    distances m, read through the permutation perm of the points."""
    n = len(m)
    perm = np.arange(n) if perm is None else perm
    kinds = {}
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        d = float(m[i, j])
        kinds[(i, j)] = kinds[(j, i)] = (Standard(d), Stationary(1.0 / (1.0 + d)),
                                         Step((0.5, 2.0), (0.0, 2.0 / (2.0 + d), 4.0 / (4.0 + d))))[k % 3]
    pairs = tuple(kinds[(int(perm[i]), int(perm[j]))] for i, j in itertools.combinations(range(n), 2))
    return FuzzySpace(name, tuple(f"{name}{i}" for i in range(n)), norm, pairs)


def test_isometry_on_repeated_slices_matches_the_backtracking(rng, product):
    """Step, stationary and mixed permuted copies, compared on the slices that
    change only; a copy that differs on one later run of slices alone is no match."""
    for n in (2, 4, 6):
        m = random_metric(rng, n, 1.0, 2.0)
        perm = rng.permutation(n)
        pairs = [(_mixed_space(m, product, "a"), _mixed_space(m, product, "b", perm))]
        for rep in ("stationary", "step"):
            pairs.append((_iso_space(m, product, rep, "a"), _iso_space(m[np.ix_(perm, perm)], product, rep, "b")))
        for a, b in pairs:
            found = is_isometric(a, b)
            assert found is not None and found == is_isometric_loop(a, b)
        a = _iso_space(m, product, "step", "a")
        # the last pair moves only on (0.5, 2], the middle of three runs of a,
        # or only on (1, 2], where a's slices repeat and b's alone change
        (lo, hi), (v0, v1, v2) = a.pairs[-1].breakpoints, a.pairs[-1].values
        for moved in (Step((lo, hi), (v0, v1 + 1e-6, v2)), Step((lo, 1.0, hi), (v0, v1, v1 + 1e-6, v2))):
            b = FuzzySpace("b", a.labels, product, (*a.pairs[:-1], moved))
            assert is_isometric(a, b) is None and is_isometric_loop(a, b) is None


@pytest.mark.parametrize("block", [1, 300])
def test_isometry_in_row_blocks_matches_the_backtracking(monkeypatch, product, block):
    # blocks of one row, and of two rows with a shorter last block at n = 5
    monkeypatch.setattr(space_module, "_BLOCK", block)
    rng = np.random.default_rng(29)
    for rep in ("standard", "step"):
        for shift in (0.0, 1e-10):
            m = random_metric(rng, 5, 1.0, 2.0)
            a, b = _iso_space(m, product, rep, "a"), _iso_space(_moved_copy(rng, m, shift), product, rep, "b")
            assert is_isometric(a, b) == is_isometric_loop(a, b)


def test_isometry_memory_is_bounded(rng, product):
    """A permuted 50-point copy: one n^4 float gap per slice would take 50 MB."""
    n = 50
    d = random_metric(rng, n)
    perm = rng.permutation(n)
    a = make_standard_space([f"p{i}" for i in range(n)], d, product)
    b = make_standard_space([f"q{i}" for i in range(n)], d[np.ix_(perm, perm)], product)
    tracemalloc.start()
    try:
        found = is_isometric(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == is_isometric_loop(a, b) == tuple(int(k) for k in np.argsort(perm))
    assert peak < 16 * 2 ** 20


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


def _two_runs_space(norm):
    """Six points 0.7 apart where the triangle (0, 1, 2) fails on (10, 100]
    and (3, 4, 5) on (1, 100], both by 0.7 - T(1, 1): the worst value ties
    across rows 0 and 3, and its first scale is in row 3."""
    steps = {(i, j): Stationary(0.7) for i in range(6) for j in range(i + 1, 6)}
    for (a, b, c), low in (((0, 1, 2), 10.0), ((3, 4, 5), 1.0)):
        steps[(a, b)] = steps[(b, c)] = Step((low,), (0.7, 1.0))
        steps[(a, c)] = Step((100.0,), (0.7, 1.0))
    return make_step_space([f"p{i}" for i in range(6)], steps, norm)


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


def test_witness_in_last_block_matches_first_loop_witness(rng, monkeypatch, product):
    # 20 points on the default grid; (a, b) and (b, c) jump to 1 only past
    # t = 2000, so every violation sits at the largest grid point, and three
    # more pairs rise at 0.1, 10 and 100, so the scan sees five distinct slices;
    # a buffer of one slice puts each in its own t-block, the violation in the last
    n, a, b, c = 20, 3, 11, 16
    monkeypatch.setattr(space_module, "_BLOCK", n ** 3)
    v = random_safe_stationary_values(rng, n)
    steps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in ((a, b), (b, c)):
                steps[(i, j)] = Step((2000.0,), (v[i, j], 1.0))
            elif (i, j) in ((0, 1), (4, 5), (6, 7)):
                steps[(i, j)] = Step((10.0 ** (i // 2 - 1),), (v[i, j], 0.8))
            else:
                steps[(i, j)] = Step((), (v[i, j],))
    sp = make_step_space([f"p{i}" for i in range(n)], steps, product)
    scanned = _count_scanned_slices(monkeypatch)
    report = check_axioms(sp)
    assert scanned == [5]
    assert n ** 3 * len(report.grid) > space_module._BLOCK
    assert not report.na1
    worst, witness = na1_first_witness(sp, product, report.grid)
    assert report.na1_residual == worst
    assert report.witness == witness
    assert witness[3] == report.grid[-1]


@pytest.mark.parametrize("block", [1, 7, 40, 300, "n2T", 1 << 18])
@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_every_blocking_level_finds_the_first_worst_triple(rng, monkeypatch, norm, block):
    """Tied, random and step spaces, one with a worst value tied across rows,
    against the loop oracle at every buffer size: below one row i the rows j
    go in chunks, and n^2 T floats hold the first row exactly."""
    grid = GridSpec.log(1e-1, 1e1, 3)
    spaces = (_tied_stationary(rng, 6, norm), make_random_standard(rng, 5, norm),
              _run_space(norm, 1.0, 10.0), _two_runs_space(norm))
    chunked = False
    for sp in spaces:
        T = len(fresh_slices(grid, sp)[1])
        monkeypatch.setattr(space_module, "_BLOCK", sp.n ** 2 * T if block == "n2T" else block)
        chunked |= any(jb < sp.n for *_, jb in space_module._row_blocks(sp.n, T))
        report = check_axioms(sp, grid)
        worst, witness = na1_first_witness(sp, norm, report.grid)
        assert report.na1_residual == worst
        assert report.witness == (None if report.na1 else witness)
    assert chunked == (block in (1, 7, 40))


# ---------------------------------------------------------------------------
# a slice equal to the one before is scanned once


def fresh_slices(grid, *spaces):
    """(g, fresh): the certification grid of the spaces and the indices of the
    points an axiom check reads on it (``scan_points``)."""
    bps = [b for sp in spaces for b in sp.breakpoints()]
    g, fresh, _ = scan_points(grid, bps, all(sp.all_steplike() for sp in spaces))
    assert g == certification_grid(grid, *spaces)
    return g, fresh


def _count_scanned_slices(monkeypatch) -> list[int]:
    """The number of slices of each triangle scan, recorded as they happen."""
    scanned = []
    kernel = space_module.triangle_residual

    def counting(V, norm, *cross):
        scanned.append(V.shape[0])
        return kernel(V, norm, *cross)

    monkeypatch.setattr(space_module, "triangle_residual", counting)
    return scanned


def _run_space(norm, low, high, early=()):
    """Six points 0.7 apart where (0, 1) and (1, 2) rise to 1 past t = low and
    (0, 2) only past t = high, so the triangle fails exactly on (low, high];
    the pairs among points 3-5 rise within [0.7, 0.8] at the ``early`` scales."""
    rise = Step(early, tuple(np.linspace(0.7, 0.8, len(early) + 1)))
    steps = {(i, j): rise if i >= 3 else Stationary(0.7) for i in range(6) for j in range(i + 1, 6)}
    steps[(0, 1)] = steps[(1, 2)] = Step((low,), (0.7, 1.0))
    steps[(0, 2)] = Step((high,), (0.7, 1.0))
    return make_step_space([f"p{i}" for i in range(6)], steps, norm)


@pytest.mark.parametrize("block", [1, 7, 40, 300, 1 << 18])
@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_step_spaces_find_the_first_worst_triple(rng, monkeypatch, norm, block):
    """Step spaces and a Standard + step union against the loop oracle at every
    blocking level: a violation over a run of grid points has the run's first
    point as its scale, also when earlier runs hold none."""
    monkeypatch.setattr(space_module, "_BLOCK", block)
    for low, high, early in ((1.0, 10.0, ()), (100.0, 500.0, (0.01, 0.1, 1.0))):
        sp = _run_space(norm, low, high, early)
        report = check_axioms(sp)
        worst, witness = na1_first_witness(sp, norm, report.grid)
        assert (report.na1_residual, report.witness) == (worst, witness)
        assert witness[3] == min(t for t in report.grid if t > low)
    m = random_metric(rng, 4, 1.0, 2.0)
    step = _iso_space(m, norm, "step", "s")
    cross = tuple(tuple(Stationary(0.1 * (p + q + 1)) for q in range(4)) for p in range(3))
    union = UnionMetric(make_random_standard(rng, 3, norm), step, cross)
    grid = GridSpec.log(1e-1, 1e1, 5)
    for sp, report in ((step, check_axioms(step)), (union.as_space(), validate_union(union, grid))):
        worst, witness = na1_first_witness(sp, norm, report.grid)
        assert report.na1_residual == worst
        assert report.witness == (None if report.na1 else witness)


def test_triangle_scan_visits_each_distinct_slice_once(rng, monkeypatch, product):
    stationary = make_random_stationary(rng, 5, product)
    step = _iso_space(random_metric(rng, 5, 1.0, 2.0), product, "step", "s")
    standard = make_random_standard(rng, 6, product)
    cross = tuple(tuple(Stationary(0.2) for _ in range(5)) for _ in range(6))
    union = UnionMetric(standard, step, cross)
    scanned = _count_scanned_slices(monkeypatch)
    reports = [check_axioms(stationary), check_axioms(step), check_axioms(standard), validate_union(union)]
    assert len(step.breakpoints()) == 2
    # the standard space is decided from its distances and scans no slice;
    # the union's cross is constant: its standard side is decided from its
    # distances and its step side scanned, then, since the cross rises
    # above the standard side's diameter, the whole union for the witness
    assert reports[2].passed and not reports[3].passed
    assert scanned == [1, 3, *[len(reports[3].grid)] * 2]

    # the breakpoint rule against the value-difference loop it replaced: equal
    # when every entry is a step, with breakpoints off the grid, below it and
    # beyond it; a superset once a Standard entry is present
    moved = Step((1e-4, 1.0, 5e3), (0.1, 0.2, 0.25, 0.3))
    step_cross = tuple(tuple((moved, Stationary(0.2), Step((0.7,), (0.0, 0.3)))[(p + q) % 3]
                             for q in range(5)) for p in range(5))
    step_union = UnionMetric(step, _iso_space(random_metric(rng, 5, 1.0, 2.0), product, "step", "t"),
                             step_cross).as_space()
    for grid in (None, GridSpec.log(1e-2, 1e2, 11)):
        for spaces in ((stationary,), (step,), (step_union,), (step, stationary), (stationary, step_union)):
            g, fresh = fresh_slices(grid, *spaces)
            assert fresh.tolist() == fresh_slices_loop(g, *spaces)
        for spaces in ((standard,), (union.as_space(),), (step, standard)):
            g, fresh = fresh_slices(grid, *spaces)
            assert set(fresh_slices_loop(g, *spaces)) <= set(fresh.tolist())
    # strictly so where t/(t + d) rounds to 1 at every scale
    near = make_standard_space(["a", "b"], [[0.0, 1e-12], [1e-12, 0.0]], product)
    g = GridSpec.log(1e5, 1e8, 8)
    assert fresh_slices_loop(g, near) == [0] and fresh_slices(g, near)[1].tolist() == list(range(8))

    # is_isometric reads only the fresh slices and answers as the full grid does
    read = []
    slices_at = space_module.slices_at

    def counting(sp, ts):
        read.append(len(ts))
        return slices_at(sp, ts)

    monkeypatch.setattr(space_module, "slices_at", counting)
    outcomes = set()
    for rep in ("step", "standard"):
        for shift in (0.0, 1e-10):
            m = random_metric(rng, 5, 1.0, 2.0)
            a, b = _iso_space(m, product, rep, "a"), _iso_space(_moved_copy(rng, m, shift), product, rep, "b")
            read.clear()
            found = is_isometric(a, b)
            fresh = 3 if rep == "step" else len(certification_grid(None, a, b))
            assert read == [fresh, fresh]
            assert found == is_isometric_loop(a, b)
            outcomes.add(found is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the max-T kernel: rows i <= k, t innermost, the witness located on failure


def _record_blocks(monkeypatch) -> list[tuple[tuple[int, int, int], float]]:
    """((i0, i1, jb), least residual) of each row block the triangle scans
    compute, recorded as they happen."""
    reached = []
    real = space_module._block_residual

    def recording(W, norm, i0, i1, jb, *buf):
        R = real(W, norm, i0, i1, jb, *buf)
        reached.append(((i0, i1, jb), float(R.min())))
        return R

    monkeypatch.setattr(space_module, "_block_residual", recording)
    return reached


def test_a_worst_value_tied_across_row_blocks_takes_the_first_scale(monkeypatch, product):
    # blocks of rows [0, 2), [2, 5) and [5, 6): row 0 reaches the worst value
    # first in scan order, row 3 at the earlier scale
    sp = _two_runs_space(product)
    monkeypatch.setattr(space_module, "_BLOCK", 300)
    g, fresh = fresh_slices(None, sp)
    V = space_module.slices_at(sp, g.array()[fresh])
    reached = _record_blocks(monkeypatch)
    worst, first = space_module.triangle_residual(V, product, 1e-12)
    assert [block for block, value in reached if value == worst] == [(0, 2, 6), (2, 5, 6)]
    report = check_axioms(sp)
    assert report.na1_residual == worst == 0.7 - 1.0
    assert report.witness == (3, 4, 5, min(t for t in report.grid if t > 1.0))
    assert first == (g.array()[fresh].tolist().index(report.witness[3]), 3)
    assert report.witness == na1_first_witness(sp, product, report.grid)[1]


@pytest.mark.parametrize("block, blocks", [(7, 40), (300, 39), (1 << 16, 1)])
def test_a_failing_scan_takes_each_row_block_once(monkeypatch, product, block, blocks):
    """The witness of a failing scan is located in the pass that finds its
    worst value: one max-T product per row block, none run again.  A
    40-point stationary space with one pair planted low, in blocks of one
    row, of one to seven rows and of all 40."""
    v = np.full((40, 40), 0.7)
    np.fill_diagonal(v, 1.0)
    v[5, 31] = v[31, 5] = 0.1
    sp = make_stationary_space([f"p{i}" for i in range(40)], v, product)
    monkeypatch.setattr(space_module, "_BLOCK", block)
    reached = _record_blocks(monkeypatch)
    report = check_axioms(sp)
    assert not report.na1
    assert len(reached) == len(space_module._row_blocks(40, 1)) == blocks
    assert (report.na1_residual, report.witness) == na1_first_witness(sp, product, report.grid)
    assert report.witness[:3] == (5, 0, 31)


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_a_failing_union_of_standard_and_step_spaces_matches_the_loop_oracle(rng, monkeypatch, norm):
    # 20 Standard and 20 step points, every cross value 0.9: at the scales
    # where the Standard values are small the union fails; blocks of one
    # row, of chunks of rows j and of 20 rows
    left = make_random_standard(rng, 20, norm)
    right = _iso_space(random_metric(rng, 20, 1.0, 2.0), norm, "step", "s")
    union = UnionMetric(left, right, tuple(tuple(Stationary(0.9) for _ in range(20)) for _ in range(20)))
    grid = GridSpec.log(1e-1, 1e1, 5)
    sp = union.as_space()
    expected = None
    for block in (40 * 40 * len(fresh_slices(grid, sp)[1]), 300, 1 << 18):
        monkeypatch.setattr(space_module, "_BLOCK", block)
        report = validate_union(union, grid)
        assert not report.na1
        if expected is None:
            expected = na1_first_witness(sp, norm, report.grid)
        assert (report.na1_residual, report.witness) == expected


def test_a_passing_check_runs_no_location_pass(rng, monkeypatch, product):
    located = []
    locate = space_module.triangle_witness
    monkeypatch.setattr(space_module, "triangle_witness", lambda *args: located.append(args[2]) or locate(*args))
    # Lukasiewicz rounds 1 + M - 1 off M: the worst residual is below 0,
    # within the tolerance
    luk = make_random_standard(rng, 8, TNorm.lukasiewicz())
    for sp in (make_random_standard(rng, 8, product), luk, make_random_stationary(rng, 8, product)):
        assert check_axioms(sp).passed
    assert check_axioms(luk).na1_residual < 0.0
    assert located == []
    report = check_axioms(_two_runs_space(product))
    assert not report.na1 and located == [report.na1_residual]


@pytest.mark.parametrize("block", [9, 18, 1 << 18])
def test_monotonicity_check_sees_a_drop_in_any_block(monkeypatch, product, block):
    # 3 points: blocks of one and of two consecutive pairs of slices, and one
    # block of all 63; a drop before the second, third or last of 64 slices
    sp = make_standard_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], product)
    assert check_axioms(sp).na2
    monkeypatch.setattr(space_module, "_BLOCK", block)
    real = space_module.slices_at

    def dropped(space, ts, pos):
        V = real(space, ts)
        V[pos:, 0, 1] = V[pos:, 1, 0] = V[pos:, 0, 1] - 0.5
        return V

    for pos in (1, 2, 63):
        monkeypatch.setattr(space_module, "slices_at", lambda space, ts, pos=pos: dropped(space, ts, pos))
        assert not check_axioms(sp).na2


# ---------------------------------------------------------------------------
# Standard blocks decided from their distances, against the dense scan


def _certified_and_dense(monkeypatch, run):
    """(report with every block of 3 or more points offered to the distance
    certificate, report of the dense scan alone, the certificate's outcomes)."""
    outcomes = []
    dominated = space_module._dominated

    def recording(*args):
        outcomes.append(dominated(*args))
        return outcomes[-1]

    monkeypatch.setattr(space_module, "_dominated", recording)
    monkeypatch.setattr(space_module, "_CERTIFY_MIN", 3)
    certified = run()
    monkeypatch.setattr(space_module, "_CERTIFY_MIN", 10 ** 9)
    dense = run()
    return certified, dense, outcomes


def _assert_same_report(certified, dense):
    assert certified == dense
    assert repr(certified) == repr(dense)
    assert certified.na1_residual.hex() == dense.na1_residual.hex()


def _ultrametric(n, scale):
    """Points of a binary tree: d(i, j) grows with the highest bit of i ^ j."""
    d = np.array([[float((i ^ j).bit_length()) for j in range(n)] for i in range(n)])
    return scale * d


def test_certified_standard_checks_equal_the_dense_scan(monkeypatch):
    rng = np.random.default_rng(41)
    held = []
    for norm in NORMS:
        # collinear: slack exactly 0; at 1e-9 and 1e-3 a product or a sum of
        # values rounds past the term j = i, which the certificate must see
        line = np.abs(np.subtract.outer(np.arange(7.0), np.arange(7.0)))
        metrics = [line, 1e-9 * line, 1e-3 * line, _ultrametric(9, 0.5), 1e-9 * random_metric(rng, 6),
                   1e9 * random_metric(rng, 6)]
        metrics += [random_metric(rng, n, lo, 10 * lo) for n, lo in ((3, 1e-3), (12, 0.1), (29, 100.0))]
        for d in metrics:
            sp = make_standard_space([f"p{i}" for i in range(len(d))], d, norm)
            for grid, tol in ((None, 1e-12), (GridSpec.log(1e-3, 1e6, 40), 1e-12), (None, 0.0)):
                certified, dense, outcomes = _certified_and_dense(monkeypatch, lambda: check_axioms(sp, grid, tol))
                _assert_same_report(certified, dense)
                held += outcomes
    # most certify, and the tiny scale, and the ultrametric's rivals under
    # the other norms and the random metrics under minimum, fall back
    assert held.count(True) > 30 and held.count(False) > 10
    # Lukasiewicz rounds 1 + c - 1 off c, so a certified residual can lie
    # below 0: with tol = 0 it fails, and the witness comes from the scan
    luk = make_standard_space([f"p{i}" for i in range(8)], random_metric(rng, 8), TNorm.lukasiewicz())
    certified, dense, outcomes = _certified_and_dense(monkeypatch, lambda: check_axioms(luk, None, 0.0))
    assert outcomes == [True] and not certified.na1 and certified.witness is not None
    _assert_same_report(certified, dense)
    # the (1, 2.0001, 1) triangle fails the classical inequality and so the
    # certificate; the scan of the default grid still passes it (its
    # residual turns negative only past t = 1e4)
    bent = FuzzySpace("bent", ("a", "b", "c"), TNorm.product(), (Standard(1.0), Standard(2.0001), Standard(1.0)))
    certified, dense, outcomes = _certified_and_dense(monkeypatch, lambda: check_axioms(bent))
    assert outcomes == [False] and certified.passed
    _assert_same_report(certified, dense)


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_certified_glued_sides_equal_the_dense_scan(monkeypatch, norm):
    """Constant gluings of Standard sides, certified or scanned, of a point
    and of a step side: each side takes the term T(c, c) of every j across
    at its t-diameter, and a floor above a side's values fails.  With a
    tolerance of 1 every union passes and the side-by-side check decides
    the report, whose worst value, from a floor of 0.9, is that term: equal
    bit for bit to the scan of the union as one space."""
    rng = np.random.default_rng(43)
    held = []
    for nx, ny in ((3, 7), (8, 8), (1, 12), (8, 5)):
        dx = _ultrametric(nx, 1.0) if norm.kind == "minimum" else random_metric(rng, nx)
        dy = _ultrametric(ny, 2.0) if norm.kind == "minimum" else random_metric(rng, ny)
        x = make_standard_space([f"x{i}" for i in range(nx)], dx, norm)
        y = _iso_space(dy, norm, "step" if ny == 5 else "standard", "y")
        for floor, tol in ((Standard(float(max(dx.max(), dy.max()))), 1e-12), (Stationary(0.3), 1e-12),
                           (Stationary(0.9), 1.0)):
            union = UnionMetric(x, y, tuple(tuple(floor for _ in range(ny)) for _ in range(nx)))
            for grid in (None, GridSpec.log(1e-3, 1e6, 40)):
                certified, dense, outcomes = _certified_and_dense(monkeypatch, lambda: validate_union(union, grid, tol))
                _assert_same_report(certified, dense)
                held += outcomes
                if tol == 1.0:
                    _assert_same_report(certified, check_axioms(union.as_space(), grid, tol))
                    sides = [check_axioms(sp, grid, tol).na1_residual for sp in (x, y)]
                    assert certified.passed and certified.na1_residual < min(sides) - 0.1
    assert held.count(True) >= 8


@pytest.mark.parametrize("block", [1, 40, 1 << 16])
def test_the_slack_pass_sees_every_triple(monkeypatch, block):
    """The filter's O(n^3) pass reads the columns k >= i of each block of
    rows: against the loop over all ordered triples, on near-metrics with
    one pair stretched, at scales where its closed-form bounds hold."""
    monkeypatch.setattr(space_module, "_BLOCK", block)
    rng = np.random.default_rng(47)
    ts = np.array([0.5, 1.0])
    outcomes = set()
    for _ in range(60):
        n = int(rng.integers(3, 9))
        d = rng.uniform(1.0, 2.0, (n, n))
        i, k = rng.choice(n, size=2, replace=False)
        d[i, k] = rng.uniform(1.0, 4.0)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        dist = d[pair_indices(n)]
        triples = list(itertools.product(range(n), repeat=3))
        for kind, inner in (("product", np.add), ("lukasiewicz", np.add), ("minimum", np.maximum)):
            expected = all(inner(d[a, b], d[b, c]) >= d[a, c] for a, b, c in triples)
            assert space_module._dominated(dist, n, ts, kind) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_a_certified_check_scans_no_slice(rng, monkeypatch, product):
    scanned = _count_scanned_slices(monkeypatch)
    d = random_metric(rng, 40)
    labels = [f"p{i}" for i in range(40)]
    assert check_axioms(make_standard_space(labels, d, product)).passed
    assert scanned == []
    # at d = 1e-9 the gap the certificate needs is below the rounding error
    # at t = 1e3: undecided, so its 64 slices are scanned
    report = check_axioms(make_standard_space(labels, 1e-9 * d, product))
    assert report.passed and scanned == [64]


def _glued_reports(monkeypatch, x, y, floor, tol):
    """The union reports ``glue_constant`` reads, also when its check fails."""
    reports = []
    check = gluing_module.validate_union

    def recording(*args, **kw):
        reports.append(check(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(gluing_module, "validate_union", recording)
    try:
        glue_constant(x, y, floor, tol=tol)
    except ConstructionError:
        pass
    monkeypatch.setattr(gluing_module, "validate_union", check)
    return reports


@pytest.mark.parametrize("block", [1, 40, 1 << 16])
@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_streamed_checks_equal_the_dense_scan_in_blocks_of_any_size(monkeypatch, norm, block):
    """The streamed pass against the dense scan, in blocks of one pair, of
    under one pair's 64 values and of all pairs: checks, and constant
    gluings of two certified sides, of a point and a certified side, and of
    a certified side and a step side, which is scanned.  With tol = 0 a
    Lukasiewicz residual lies below 0, and the witness comes from the scan.
    The (1, 2.0001, 1) space fails the certificate, once, and is scanned."""
    monkeypatch.setattr(space_module, "_BLOCK", block)
    rng = np.random.default_rng(53)
    metric = _ultrametric if norm.kind == "minimum" else lambda n, s: s * random_metric(rng, n)
    dx, dy = metric(8, 1.0), metric(7, 2.0)
    x, y = (make_standard_space([f"{p}{i}" for i in range(len(d))], d, norm) for p, d in (("x", dx), ("y", dy)))
    point = make_standard_space(["o"], [[0.0]], norm)
    step = _iso_space(metric(5, 1.0), norm, "step", "s")
    floor = Standard(float(max(dx.max(), dy.max())))
    failed = []
    for tol in (1e-12, 0.0):
        for sp in (x, y):
            certified, dense, outcomes = _certified_and_dense(monkeypatch, lambda: check_axioms(sp, None, tol))
            _assert_same_report(certified, dense)
            assert outcomes == [True]
            failed.append(not certified.na1)
        for left, right, cross in ((x, y, floor), (point, y, floor), (x, point, floor), (x, step, ZERO)):
            certified, dense, outcomes = _certified_and_dense(
                monkeypatch, lambda: _glued_reports(monkeypatch, left, right, cross, tol)
            )
            assert len(certified) == 1 and outcomes == [True] * ((left is x) + (right is y))
            _assert_same_report(certified[0], dense[0])
            failed.append(not certified[0].na1)
    assert any(failed) == (norm.kind == "lukasiewicz")
    bent = FuzzySpace("bent", ("a", "b", "c"), norm, (Standard(1.0), Standard(2.0001), Standard(1.0)))
    certified, dense, outcomes = _certified_and_dense(monkeypatch, lambda: check_axioms(bent))
    assert outcomes == [False]
    _assert_same_report(certified, dense)


@pytest.mark.parametrize("block", [64, 5 * 64, 1 << 16])
@pytest.mark.parametrize("kind", ["product", "lukasiewicz"])
def test_the_stream_sees_a_drop_in_any_block(monkeypatch, kind, block):
    """A certified 8-point space whose values, as the stream reads them,
    drop before the second, third or last of 64 slices in the last block:
    blocks of one pair, of five and of all 28.  The stream decides the
    report, and no slice is built."""
    sp = make_standard_space([f"p{i}" for i in range(8)], random_metric(np.random.default_rng(59), 8), TNorm(kind))
    assert check_axioms(sp).passed
    monkeypatch.setattr(space_module, "_BLOCK", block)
    monkeypatch.setattr(space_module, "slices_at", None)
    real = PairTable.blocks
    read = []

    def dropped(table, ts, step, pos):
        blocks = list(real(table, ts, step))
        idx, values = blocks[-1]
        values = values.copy()
        values[pos:, -1] *= 0.5
        read.append(len(blocks))
        return [*blocks[:-1], (idx, values)]

    for pos in (1, 2, 63):
        monkeypatch.setattr(PairTable, "blocks", lambda table, ts, step, pos=pos: dropped(table, ts, step, pos))
        report = check_axioms(sp)
        assert report.na1 and not report.na2
    assert read == [{64: 28, 5 * 64: 6, 1 << 16: 1}[block]] * 3


def test_certified_checks_build_no_slice_tensor(monkeypatch, product):
    """A 320-point certified check and a 160 + 160 certified constant gluing
    stream their pair values: no slice is written and none scanned, and each
    peaks below 8 MiB under tracemalloc, where their 64 slices alone take
    50 MiB."""
    rng = np.random.default_rng(61)
    sp = make_random_standard(rng, 320, product)
    dx, dy = random_metric(rng, 160), random_metric(rng, 160)
    x, y = (make_standard_space([f"{p}{i}" for i in range(160)], d, product) for p, d in (("x", dx), ("y", dy)))
    floor = Standard(float(max(dx.max(), dy.max())))
    built = []
    for module, name in ((space_module, "slices_at"), (space_module, "write_slices"),
                         (space_module, "triangle_residual"), (gluing_module, "write_slices")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: built.append(name) or real(*args))
    for call in (lambda: check_axioms(sp).passed, lambda: glue_constant(x, y, floor) is not None):
        tracemalloc.start()
        try:
            passed = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert passed and peak < 8 * 2 ** 20, peak
    assert built == []


def test_check_axioms_memory_is_bounded(rng, product):
    # at 100 points the (T, n, n, n) residual alone would take 64 * 100**3 * 8
    # bytes = 512 MB, and at 160 points the 64 slices 12.5 MiB; these spaces
    # pass the distance certificate, so the check streams their pair values
    # and builds neither
    for n, cap in ((100, 32), (160, 24)):
        sp = make_random_standard(rng, n, product)
        tracemalloc.start()
        try:
            report = check_axioms(sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < cap * 2 ** 20, (n, peak)


def test_check_axioms_reads_only_the_fresh_slices_in_memory(rng, product):
    """One slice of a 320-point stationary space and three of a 120-point step
    space; the full grids of 64 and 67 slices and their differences would take
    100 MB and 15 MB."""
    stationary = make_random_stationary(rng, 320, product)
    step = _iso_space(random_metric(rng, 120, 1.0, 2.0), product, "step", "s")
    for sp in (stationary, step):
        tracemalloc.start()
        try:
            report = check_axioms(sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8 * 2 ** 20, peak


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
            expected = values([sp.entry(i, j)], ts)[:, 0]
            assert np.array_equal(V[:, i, j], expected)
            assert np.array_equal(V[:, j, i], expected)


def test_validate_distance_matrix_names_first_loop_violation(rng):
    d = rng.uniform(0.1, 10.0, size=(12, 12))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    # a metric of 80 points, scanned in two blocks of rows, broken in the second
    big = random_metric(rng, 80)
    big[70, 75] = big[75, 70] = 100.0
    # asymmetric within tol: only (2, 1, 0) breaks the inequality, by 5e-10
    line = np.array([[0.0, 1.0, 2.0 + 6e-10], [1.0, 0.0, 1.0], [2.0 + 1.5e-9, 1.0, 0.0]])
    for m in (d, big, line):
        i, j, k = first_triangle_violation(m)
        with pytest.raises(ConstructionError, match=rf"fails on \({i}, {j}, {k}\):"):
            validate_distance_matrix(m)
    big[3, 5] = big[5, 3] = 0.0
    big[2, 9] = big[9, 2] = 0.0
    with pytest.raises(ConstructionError, match="points 2 and 9 must be positive"):
        validate_distance_matrix(big)


def test_pair_indices_match_triu_indices():
    for n in range(9):
        got, want = pair_indices(n), np.triu_indices(n, 1)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_unseparated_pair_is_named():
    labels = ("p0", "p1", "p2", "p3")
    for idx, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        for bad in (Standard(0.0), Stationary(1.0), Step((1.0,), (1.0, 1.0))):
            pairs = [Stationary(0.5)] * 6
            pairs[idx] = bad
            with pytest.raises(ConstructionError, match=f"pair \\(p{i}, p{j}\\) never drops below 1"):
                FuzzySpace("x", labels, TNorm.product(), tuple(pairs))


def test_first_unseparated_pair_is_named_across_representations():
    labels = ("p0", "p1", "p2", "p3")
    fill = (Standard(1.0), Stationary(0.5), Step((1.0,), (0.2, 0.5)), Step((2.0,), (0.1, 0.4)))
    bads = (Standard(0.0), Stationary(1.0))
    for a, b in itertools.combinations(range(6), 2):
        for bad_a, bad_b in itertools.product(bads, repeat=2):
            pairs = [fill[idx % 4] for idx in range(6)]
            pairs[a], pairs[b] = bad_a, bad_b
            i, j = (int(k[a]) for k in pair_indices(4))
            with pytest.raises(ConstructionError, match=f"pair \\(p{i}, p{j}\\) never drops below 1"):
                FuzzySpace("x", labels, TNorm.product(), tuple(pairs))


def _table_spaces(rng, product):
    """Standard, stationary and mixed spaces, steps on one shared breakpoint
    tuple, on two and on distinct ones, and 1-point spaces of each kind."""
    n = 7
    labels = tuple(f"p{i}" for i in range(n))
    d = random_metric(rng, n)
    shared = (0.5, 1.0, 4.0)
    samples = np.array(shared + (8.0,))
    spaces = [
        make_standard_space(labels, d, product),
        make_stationary_space(labels, random_safe_stationary_values(rng, n), product),
        make_step_space(
            labels,
            {(i, j): Step(shared, tuple(samples / (samples + d[i, j]))) for i, j in itertools.combinations(range(n), 2)},
            product,
        ),
        make_step_space(
            labels,
            {
                (i, j): Step((0.1 * (k + 1), 3.0 + k), tuple(sorted(rng.uniform(0.0, 0.9, size=3))))
                for k, (i, j) in enumerate(itertools.combinations(range(n), 2))
            },
            product,
        ),
    ]
    two = {
        (i, j): Step(shared, tuple(samples / (samples + d[i, j]))) if k % 2 else Step((2.0,), (0.25, 0.5))
        for k, (i, j) in enumerate(itertools.combinations(range(n), 2))
    }
    spaces.append(make_step_space(labels, two, product))
    mixed = []
    for idx in range(n * (n - 1) // 2):
        kind = idx % 5
        if kind == 0:
            mixed.append(Standard(float(rng.uniform(0.1, 5.0))))
        elif kind == 1:
            mixed.append(Stationary(float(rng.uniform(0.0, 0.9))))
        elif kind == 2:
            mixed.append(Step(shared, tuple(sorted(rng.uniform(0.0, 0.9, size=4)))))
        elif kind == 3:
            mixed.append(Step((2.0,), (float(rng.uniform(0.0, 0.5)), 1.0)))
        else:
            mixed.append(Step((0.01 * idx, 7.0 + idx), tuple(sorted(rng.uniform(0.0, 0.9, size=3)))))
    spaces.append(FuzzySpace("mix", labels, product, tuple(mixed)))
    spaces += [
        make_standard_space(["a"], [[0.0]], product),
        make_stationary_space(["a"], [[1.0]], product),
        make_step_space(["a"], {}, product),
    ]
    return spaces


@pytest.mark.parametrize("block", (None, 1, 37))
def test_pair_tables_read_as_the_per_pair_loop(rng, product, monkeypatch, block):
    """slices_at, t_diameters, breakpoints() and all_steplike() equal a loop
    of ``eval`` over the pairs, bit for bit: at the breakpoints themselves,
    between them, near 1e-300 and near 1e300, in blocks of any size."""
    if block is not None:
        monkeypatch.setattr(space_module, "_BLOCK", block)
    tiny = [5e-324, 1e-300, np.nextafter(1e-300, 1.0)]
    huge = [np.nextafter(1e300, 0.0), 1e300, 1e305]
    for sp in _table_spaces(rng, product):
        bps = sorted({b for f in sp.pairs for b in f.breakpoints})
        assert sp.breakpoints() == tuple(bps)
        assert sp.all_steplike() == all(isinstance(f, Step) for f in sp.pairs)
        between = [b * 1.001 for b in bps] + [0.3, 1.0, 2.5, 50.0]
        ts = np.array(sorted({*tiny, *bps, *[np.nextafter(b, 0.0) for b in bps], *between, *huge}))
        expected = np.ones((len(ts), sp.n, sp.n))
        for i, j in itertools.combinations(range(sp.n), 2):
            f = sp.entry(i, j)
            expected[:, i, j] = expected[:, j, i] = [f.eval(float(t)) for t in ts]
        assert slices_at(sp, ts).tobytes() == expected.tobytes()
        diameters = [min((f.eval(float(t)) for f in sp.pairs), default=1.0) for t in ts]
        assert t_diameters(sp, GridSpec(tuple(map(float, ts)))).tobytes() == np.array(diameters).tobytes()
        assert [t_diameter(sp, float(t)) for t in ts] == diameters
        i, j = pair_indices(sp.n)
        assert values(sp.pairs, ts).tobytes() == expected[:, i, j].tobytes()


def test_the_pair_table_stays_outside_the_fields(rng, product):
    """Equality, repr, pickles and dataclasses.replace ignore the table: a
    loaded or replaced space builds its own, which reads the same."""
    ts = np.array([0.3, 1.0, 4.0, 9.0])
    for sp in _table_spaces(rng, product):
        assert "_table" not in repr(sp) and "_table" not in {f.name for f in dataclasses.fields(sp)}
        loaded = pickle.loads(pickle.dumps(sp))
        assert b"PairTable" not in pickle.dumps(sp)
        replaced = dataclasses.replace(sp, name="other")
        for other in (loaded, replaced, copy.deepcopy(sp)):
            assert other._table is not sp._table
            assert slices_at(other, ts).tobytes() == slices_at(sp, ts).tobytes()
            assert other.breakpoints() == sp.breakpoints() and other.all_steplike() == sp.all_steplike()
        assert loaded == sp and repr(loaded) == repr(sp)
        assert replaced != sp and dataclasses.replace(replaced, name=sp.name) == sp
