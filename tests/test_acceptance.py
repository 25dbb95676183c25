"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import functools
import math
import time

import numpy as np
import pytest

from fuzzygh import (
    FuzzySpace,
    GridSpec,
    SequenceFamily,
    Standard,
    Stationary,
    TNorm,
    ZERO,
    attempt_net_gluing,
    certify_group,
    check_axioms,
    classical_gh_exact,
    floor_envelope,
    gh_fuzzy_lower_bound,
    gh_fuzzy_upper_bound,
    glue_constant,
    hausdorff_fuzzy,
    make_standard_space,
    make_stationary_space,
    pigeonhole_subsequence,
    register_nets,
    standard_bridge_check,
    t_diameter,
    tn_has_tn1,
    union_hausdorff,
    validate_union,
)
from fuzzygh.sequences import gen_no_cauchy_family
from fuzzygh.tnorm import unit_grid_pairs

from oracles import classical_hausdorff, random_metric, random_safe_stationary_values

TOL = 1e-12


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"\nACCEPTANCE {num} FAIL: {description} ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nACCEPTANCE {num} PASS: {description} ({elapsed:.2f}s)")

        return wrapper

    return deco


@criterion(1, "axiom suite on 100 random metrics, both norms, plus the triangle failure")
def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = GridSpec.default()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = random_metric(rng, n, lo=0.1, hi=10.0)
        labels = [f"p{i}" for i in range(n)]
        for norm in (TNorm.product(), TNorm.lukasiewicz()):
            report = check_axioms(make_standard_space(labels, d, norm), grid, tol=TOL)
            assert report.passed
            assert report.na1_residual >= -TOL
    # analytic entries pinning the failure numbers: pair values t/(t+1), t/(t+3)
    demo = FuzzySpace(
        "demo",
        ("a", "b", "c"),
        TNorm.minimum(),
        (Standard(1.0), Standard(3.0), Standard(1.0)),
    )
    report = check_axioms(demo, grid.merged([1.0]), tol=TOL)
    assert not report.na1
    at_one = check_axioms(demo, GridSpec.explicit([1.0]), tol=TOL)
    assert at_one.witness is not None and at_one.witness[3] == 1.0
    assert at_one.na1_residual == pytest.approx(0.25 - 0.5, abs=TOL)
    assert time.perf_counter() - start < 10.0


@criterion(2, "damping property on the full 0.01 grid: product and Lukasiewicz yes, minimum no")
def test_criterion_2_tn1_suite():
    pairs = unit_grid_pairs(0.01)
    assert len(pairs) == 10_201
    holds, witness = tn_has_tn1(TNorm.product(), pairs, tol=TOL)
    assert holds and witness is None
    holds, witness = tn_has_tn1(TNorm.lukasiewicz(), pairs, tol=TOL)
    assert holds and witness is None
    holds, witness = tn_has_tn1(TNorm.minimum(), pairs, tol=TOL)
    assert not holds and witness is not None
    a, b = witness
    assert a - min(a, b) < min(a, 1.0 - b) - TOL
    assert 0.5 - min(0.5, 0.5) < min(0.5, 1.0 - 0.5)  # the canonical witness violates


@criterion(3, "standard-metric identities for t-diameter and the Hausdorff bridge")
def test_criterion_3_standard_identities():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        d = random_metric(rng, n)
        sp = make_standard_space([f"p{i}" for i in range(n)], d, TNorm.product())
        t = float(rng.uniform(0.1, 10.0))
        assert t_diameter(sp, t) == pytest.approx(t / (t + d.max()), abs=TOL)
        a = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        b = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        dh = classical_hausdorff(d, a, b)
        assert hausdorff_fuzzy(sp, a, b, t) == pytest.approx(t / (t + dh), abs=TOL)


@criterion(4, "gluing validity: zero floor, envelope floor, 50 matched-net constructions")
def test_criterion_4_gluing_validity():
    rng = np.random.default_rng(104)
    norm = TNorm.product()

    def rand_space(n, kind):
        labels = [f"p{i}" for i in range(n)]
        if kind == 0:
            return make_standard_space(labels, random_metric(rng, n), norm)
        return make_stationary_space(labels, random_safe_stationary_values(rng, n), norm)

    for _ in range(10):
        x = rand_space(int(rng.integers(2, 4)), int(rng.integers(0, 2)))
        y = rand_space(int(rng.integers(2, 4)), int(rng.integers(0, 2)))
        assert validate_union(glue_constant(x, y, ZERO)).passed
        assert validate_union(glue_constant(x, y, floor_envelope(x, y))).passed

    eps = 0.25
    threshold = (1.0 - eps) * (1.0 - eps)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        labels = [f"p{i}" for i in range(n)]
        x = make_stationary_space(labels, random_safe_stationary_values(rng, n), norm)
        y = make_stationary_space(labels, random_safe_stationary_values(rng, n), norm)
        net = tuple(range(n))
        u = attempt_net_gluing(x, y, 1.0, eps, net, net)
        assert validate_union(u).passed
        assert union_hausdorff(u, 1.0) > threshold


@criterion(5, "counterexample reproduction: damped inequality fails, upper bound below 0.9")
def test_criterion_5_counterexample():
    start = time.perf_counter()
    # the closeness requirement 1/3 >= 1/2 * (9/10)^2 is false
    assert not (1.0 / 3.0 >= 0.5 * (9.0 / 10.0) ** 2)
    assert 1.0 / 3.0 < 0.405
    family = gen_no_cauchy_family(4)
    even, odd = family.spaces[1], family.spaces[2]
    ub = gh_fuzzy_upper_bound(even, odd, 0.5)
    analytic = math.sqrt(2.0 / 3.0)
    assert analytic - 1e-12 <= ub.value
    assert ub.value == pytest.approx(analytic, abs=1e-9)
    assert ub.value < 0.9  # the Cauchy threshold at eps = 1/10 is unreachable
    assert time.perf_counter() - start < 5.0


@criterion(6, "pigeonhole end-to-end on 40 spaces over 3 separated levels")
def test_criterion_6_pigeonhole():
    rng = np.random.default_rng(106)
    levels = (0.5, 0.7, 0.9)
    t, eps = 1.0, 0.3
    floor = Stationary(0.4)  # cell width 0.4 * 0.3 = 0.12 < level gaps of 0.2
    drawn = [levels[int(rng.integers(0, 3))] for _ in range(40)]
    spaces = tuple(
        make_stationary_space(["a", "b"], [[1.0, c], [c, 1.0]], TNorm.product(), name=f"S{k}")
        for k, c in enumerate(drawn)
    )
    family = SequenceFamily(spaces, floor=floor)
    register_nets(family, t, eps)
    _, group = pigeonhole_subsequence(family, t, eps)
    assert len(group) >= 14
    cert = certify_group(family, group, t, eps)
    assert cert.passed
    assert len(cert.h_values) == len(group) * (len(group) - 1) // 2
    assert all(h > cert.threshold for _, _, h in cert.h_values)


@criterion(7, "classical bridge: 50 bounded families pass, growing diameters fail the floor")
def test_criterion_7_bridge():
    rng = np.random.default_rng(107)
    bound = 6.0
    for _ in range(50):
        count = int(rng.integers(2, 5))
        mats = [random_metric(rng, int(rng.integers(2, 6)), lo=0.3, hi=5.0) for _ in range(count)]
        report, _ = standard_bridge_check(mats, bound, t=1.0, eps=0.1, tol=TOL)
        assert report.passed, report.as_dict()
        assert report.floor.worst_slack >= -TOL
        assert report.ratio.worst_margin >= -TOL
        assert all(fuzzy == classical for _, fuzzy, classical, _ in report.cover_rows)
    growing = [np.array([[0.0, n], [n, 0.0]]) for n in range(1, 9)]
    report, _ = standard_bridge_check(growing, 5.0, t=1.0, eps=0.1, tol=TOL)
    assert not report.floor.passed
    assert report.ratio.passed and report.cover_translation_ok and report.cover_bound_ok


@criterion(8, "classical GH distance sanity against enumeration and the diameter bound")
def test_criterion_8_classical_gh():
    rng = np.random.default_rng(108)
    for a, b in [(1.0, 4.0), (2.0, 7.0), (0.5, 0.75)]:
        da = np.array([[0.0, a], [a, 0.0]])
        db = np.array([[0.0, b], [b, 0.0]])
        assert classical_gh_exact(da, db) == pytest.approx(abs(a - b) / 2, abs=TOL)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        d = random_metric(rng, n)
        perm = rng.permutation(n)
        d2 = d[np.ix_(perm, perm)]
        assert classical_gh_exact(d, d2, limit=16) == pytest.approx(0.0, abs=1e-9)
    for _ in range(20):
        nx, ny = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        dx, dy = random_metric(rng, nx), random_metric(rng, ny)
        exact = classical_gh_exact(dx, dy, limit=16)
        assert exact >= abs(dx.max() - dy.max()) / 2 - TOL  # half the diameter gap


@criterion(9, "bound sandwich on 200 random small pairs")
def test_criterion_9_bound_sandwich():
    rng = np.random.default_rng(109)
    norm = TNorm.product()
    for _ in range(200):
        sizes = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        pair = []
        for n in sizes:
            labels = [f"p{i}" for i in range(n)]
            if rng.random() < 0.5:
                pair.append(make_standard_space(labels, random_metric(rng, n), norm))
            else:
                pair.append(
                    make_stationary_space(labels, random_safe_stationary_values(rng, n), norm)
                )
        x, y = pair
        t = float(rng.uniform(0.2, 3.0))
        lower = gh_fuzzy_lower_bound(x, y, t).value
        upper = gh_fuzzy_upper_bound(x, y, t).value
        assert lower <= upper, (lower, upper, sizes, t)
