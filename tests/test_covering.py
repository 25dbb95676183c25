import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzygh import (
    ConstructionError,
    DistanceMatrix,
    DomainError,
    TNorm,
    cover_number,
    find_net,
    make_standard_space,
    make_stationary_space,
    uniform_cover_bound,
    validate_distance_matrix,
)
from fuzzygh import covering
from fuzzygh.covering import _min_cover, coverage, metric_cover_number

from conftest import make_random_standard
from oracles import metric_cover_number as metric_cover_oracle
from oracles import min_cover_numpy, minimal_net_size, random_metric


def test_two_point_half_requires_both_points(two_point_half):
    cert = find_net(two_point_half, 0.5, 0.1)
    assert cert.indices == (0, 1)  # 0.5 is not above 9/10
    assert cert.minimal
    assert cert.verify(two_point_half)


def test_larger_eps_shrinks_the_net(two_point_half):
    cert = find_net(two_point_half, 0.5, 0.6)
    assert cert.indices == (0,)  # 0.5 is above 0.4; lexicographically least


def test_single_point(product):
    sp = make_standard_space(["a"], [[0]], product)
    assert find_net(sp, 1.0, 0.5).indices == (0,)


def test_line_with_boundary_similarities(line4):
    # ball radius in metric terms is eps*t/(1-eps) = 1; strict membership
    # excludes neighbours at distance exactly 1
    number, cert = cover_number(line4, 0.5, 1.0)
    assert number == 4
    assert cert.minimal


def test_eps_within_tol_of_zero_is_refused(line4):
    # no ball would hold its own centre, so no cover exists
    with pytest.raises(DomainError, match="no ball holds its own centre"):
        find_net(line4, 1.0, 1e-13)
    assert find_net(line4, 1.0, 1e-13, tol=0.0).indices == (0, 1, 2, 3)


def test_eps_near_one_gives_singleton(line4):
    number, _ = cover_number(line4, 0.999, 1.0)
    assert number == 1


def test_cover_matches_metric_oracle(rng, product):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        d = random_metric(rng, n)
        sp = make_standard_space([f"p{i}" for i in range(n)], d, product)
        t = float(rng.uniform(0.3, 3.0))
        eps = float(rng.uniform(0.1, 0.9))
        radius = eps * t / (1.0 - eps)
        fuzzy, _ = cover_number(sp, eps, t)
        assert fuzzy == metric_cover_oracle(d, radius)
        assert fuzzy == metric_cover_number(d, radius)
        assert fuzzy == metric_cover_number(DistanceMatrix.from_array(d), radius)


@pytest.mark.parametrize(
    "distances, message",
    [
        ([[0.0, 1.0]], "must be square"),
        ([[0.0, np.nan], [np.nan, 0.0]], "must be finite"),
        ([[0.0, 5.0], [0.1, 0.0]], "must be symmetric"),
        ([[1.0, 2.0], [2.0, 0.0]], "zero diagonal"),
        ([[0.0, 0.0], [0.0, 0.0]], "points 0 and 1 must be positive"),
    ],
    ids=["not-square", "nan", "asymmetric", "diagonal", "zero-distance"],
)
def test_metric_cover_number_refuses_what_validate_distance_matrix_refuses(distances, message):
    with pytest.raises(ConstructionError, match=message) as refused:
        metric_cover_number(distances, 1.0)
    with pytest.raises(ConstructionError) as expected:
        validate_distance_matrix(distances)
    assert str(refused.value) == str(expected.value)


def test_a_distance_matrix_is_validated_however_it_is_built():
    # metric_cover_number takes a DistanceMatrix without checking it again
    for distances in ([[0.0, 5.0], [0.1, 0.0]], ((0.0, 5.0), (0.1, 0.0))):
        with pytest.raises(ConstructionError, match="must be symmetric"):
            DistanceMatrix(distances)
        with pytest.raises(ConstructionError, match="must be symmetric"):
            DistanceMatrix.from_array(distances)
    m = DistanceMatrix(((0, 1), (1, 0)))
    assert m == DistanceMatrix.from_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert m.entries == ((0.0, 1.0), (1.0, 0.0)) and all(type(v) is float for row in m.entries for v in row)


def test_distance_matrix_entries_are_the_validated_floats():
    # nested tuples of plain floats, bit for bit the validated array's: a
    # float32 input widened, an integer, and a -0.0 on the diagonal kept
    d = np.array([[-0.0, 0.1, 1], [0.1, 0.0, 1.0], [1, 1.0, -0.0]], dtype=np.float32)
    m = DistanceMatrix.from_array(d)
    validated = validate_distance_matrix(d)
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    assert all(type(v) is float for row in m.entries for v in row)
    assert np.array_equal(np.array(m.entries).view(np.int64), validated.view(np.int64))
    assert math.copysign(1.0, m.entries[0][0]) == -1.0 and m.entries[0][1] == float(np.float32(0.1))


def test_metric_cover_number_does_not_check_the_triangle_inequality():
    # 0 and 2 are 3 apart, 1 is 1 from both: not a metric, still a cover count
    d = [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    with pytest.raises(ConstructionError, match="triangle inequality"):
        validate_distance_matrix(d)
    assert metric_cover_number(d, 1.5) == 1


def test_exact_matches_independent_search(rng, product):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        sp = make_random_standard(rng, n, product)
        t, eps = 1.0, float(rng.uniform(0.2, 0.8))
        cert = find_net(sp, t, eps)
        assert len(cert.indices) == minimal_net_size(sp, t, eps)


def test_greedy_at_least_exact(rng, product, monkeypatch):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        sp = make_random_standard(rng, n, product)
        exact = find_net(sp, 1.0, 0.4)
        with monkeypatch.context() as patch:
            patch.setattr(covering, "_CLIQUE_NODE_BUDGET", 0)
            greedy = find_net(sp, 1.0, 0.4)
        assert exact.minimal and not greedy.minimal
        assert greedy.verify(sp)
        assert len(greedy.indices) >= len(exact.indices)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eps1=st.floats(0.1, 0.5),
    eps2=st.floats(0.5, 0.9),
    t1=st.floats(0.2, 1.0),
    t2=st.floats(1.0, 5.0),
)
def test_monotone_in_eps_and_t(seed, eps1, eps2, t1, t2):
    rng = np.random.default_rng(seed)
    sp = make_random_standard(rng, 5, TNorm.product())
    # nonincreasing in eps
    assert cover_number(sp, eps2, t1)[0] <= cover_number(sp, eps1, t1)[0]
    # nonincreasing in t
    assert cover_number(sp, eps1, t2)[0] <= cover_number(sp, eps1, t1)[0]


def test_uniform_bound_on_the_divergent_family():
    from fuzzygh.sequences import gen_no_cauchy_family

    fam = gen_no_cauchy_family(8)
    # every member needs both points at (t, eps) = (1/2, 1/10)
    assert uniform_cover_bound(fam.spaces, 0.1, 0.5) == 2


def test_uniform_cover_bound_examples(product):
    isolated = [
        make_stationary_space(
            [f"p{i}" for i in range(n)],
            np.where(np.eye(n, dtype=bool), 1.0, 0.9),
            product,
        )
        for n in range(1, 6)
    ]
    # at eps = 0.05 the threshold 0.95 isolates every point
    assert uniform_cover_bound(isolated, 0.05, 1.0) == 5
    singles = [make_standard_space(["a"], [[0]], product) for _ in range(3)]
    assert uniform_cover_bound(singles, 0.5, 1.0) == 1


def _coverage_matrices(rng, count, sizes):
    """Symmetric coverage matrices with the diagonal set, sparse to dense."""
    for _ in range(count):
        n = int(rng.integers(*sizes))
        upper = np.triu(rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.7), 1)
        yield upper | upper.T | np.eye(n, dtype=bool)


def test_bitset_cover_search_matches_the_subset_index():
    sizes = set()
    for cov in _coverage_matrices(np.random.default_rng(7), 600, (1, 16)):
        got = _min_cover(cov)
        assert got == min_cover_numpy(cov, 15)
        sizes.add(len(got[0]))
    # from one point to more than half of 15
    assert min(sizes) == 1 and max(sizes) > 7


def test_nets_past_fifteen_points_are_minimal_where_greedy_is_not(product):
    # 20 points drawn in the unit square; balls of radius 0.25 at t = 1
    points = np.random.default_rng(8).uniform(size=(20, 2))
    d = np.linalg.norm(points[:, None] - points[None], axis=2)
    sp = make_standard_space([f"p{i}" for i in range(20)], d, product)
    cert = find_net(sp, 1.0, 0.2)
    cov = coverage(sp.at(1.0), 0.8)
    assert cert.minimal and cert.verify(sp)
    assert cert.indices == min_cover_numpy(cov, 20)[0]
    assert len(cert.indices) == 4 < len(min_cover_numpy(cov, 0)[0]) == 5


def test_past_the_node_budget_the_cover_is_greedy(monkeypatch):
    rng = np.random.default_rng(11)
    monkeypatch.setattr(covering, "_CLIQUE_NODE_BUDGET", 0)
    for cov in _coverage_matrices(rng, 200, (1, 16)):
        assert _min_cover(cov) == min_cover_numpy(cov, 0)
    # a budget that cuts some searches short: those give the greedy cover, not a partial one
    monkeypatch.setattr(covering, "_CLIQUE_NODE_BUDGET", 100)
    minimal = set()
    for cov in _coverage_matrices(rng, 200, (10, 16)):
        got = _min_cover(cov)
        assert got == min_cover_numpy(cov, 15 if got[1] else 0)
        minimal.add(got[1])
    assert minimal == {True, False}


def test_uniform_cover_bound_refuses_an_empty_family():
    with pytest.raises(DomainError) as err:
        uniform_cover_bound([], 0.1, 1.0)
    assert str(err.value) == "family must be nonempty"

