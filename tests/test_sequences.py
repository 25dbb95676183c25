import json
import math
import tracemalloc

import numpy as np
import pytest

import fuzzygh.space
from fuzzygh import (
    ConstructionError,
    DistanceMatrix,
    DomainError,
    SequenceFamily,
    Standard,
    Stationary,
    Step,
    TNorm,
    check_axioms,
    check_diameter_floor,
    check_ratio_condition,
    check_stationary_hypotheses,
    certify_group,
    diagonal_subsequence,
    gen_no_cauchy_family,
    make_standard_space,
    make_stationary_space,
    make_step_space,
    pigeonhole_subsequence,
    register_nets,
    standard_bridge_check,
    verify_no_cauchy,
)
from fuzzygh.sequences import default_ratio_grid

from oracles import (
    diameter_floor_loop,
    pigeonhole_loop,
    random_metric,
    random_safe_stationary_values,
    ratio_condition_loop,
)


def stationary_family(values, floor=None, norm=None):
    norm = norm or TNorm.product()
    spaces = tuple(
        make_stationary_space(["a", "b"], [[1, c], [c, 1]], norm, name=f"S{k}")
        for k, c in enumerate(values)
    )
    return SequenceFamily(spaces, floor=floor)


def test_family_requires_shared_norm():
    a = make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], TNorm.product())
    b = make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], TNorm.minimum())
    with pytest.raises(ConstructionError):
        SequenceFamily((a, b))


def test_register_nets_pads_to_common_length(rng):
    fam = stationary_family([0.5, 0.9])
    # eps = 0.3: values 0.5 need both points, 0.9 needs one
    size = register_nets(fam, 1.0, 0.3)
    assert size == 2
    nets = fam.nets_for(1.0, 0.3)
    assert all(len(n) == 2 for n in nets)


def test_floor_check_passes_on_nocauchy_family():
    fam = gen_no_cauchy_family(6)
    report = check_diameter_floor(fam)
    assert report.passed
    assert report.worst_slack >= -1e-12


def test_floor_check_fails_for_unbounded_diameters():
    mats = [np.array([[0.0, n], [n, 0.0]]) for n in (1, 2, 6, 12)]
    spaces = tuple(
        make_standard_space(["a", "b"], m, TNorm.product(), name=f"X{k}")
        for k, m in enumerate(mats)
    )
    fam = SequenceFamily(spaces, floor=Stationary(0.25))
    report = check_diameter_floor(fam)
    assert not report.passed
    assert report.violations


def test_floor_positivity_is_required():
    fam = stationary_family([0.5, 0.6], floor=Stationary(0.0))
    report = check_diameter_floor(fam)
    assert not report.positive and not report.passed


def test_ratio_condition_trivial_for_stationary():
    fam = stationary_family([0.5, 0.52, 0.51], floor=Stationary(0.4))
    register_nets(fam, 0.5, 0.3)
    report = check_ratio_condition(fam, 0.5, 0.3)
    assert report.passed and report.product_form_passed


def test_ratio_condition_holds_for_standard_families(rng):
    mats = [random_metric(rng, 3, lo=0.5, hi=4.0) for _ in range(4)]
    spaces = tuple(
        make_standard_space(["a", "b", "c"], m, TNorm.product(), name=f"X{k}")
        for k, m in enumerate(mats)
    )
    fam = SequenceFamily(spaces, floor=Standard(5.0))
    register_nets(fam, 1.0, 0.2)
    report = check_ratio_condition(fam, 1.0, 0.2)
    assert report.passed
    assert report.product_form_passed
    assert report.worst_margin >= -1e-12


def test_ratio_condition_fails_for_nocauchy_family():
    fam = gen_no_cauchy_family(6)
    register_nets(fam, 0.5, 0.1)
    report = check_ratio_condition(fam, 0.5, 0.1)
    assert not report.passed
    n, m, i, j, s = report.witnesses[0]
    # the witness scale sits between the two breakpoints
    assert s > 0.5


def test_pigeonhole_worked_example():
    # values (0.5, 0.5, 0.9, 0.5, 0.9, 0.5), floor 0.4, eps 0.3 -> width 0.12
    fam = stationary_family([0.5, 0.5, 0.9, 0.5, 0.9, 0.5], floor=Stationary(0.4))
    register_nets(fam, 1.0, 0.3)
    table, group = pigeonhole_subsequence(fam, 1.0, 0.3)
    assert table.cell_width == pytest.approx(0.12, abs=1e-15)
    assert group == (0, 1, 3, 5)
    off_diag = [m[0][1] for m in table.matrices]
    assert off_diag == [
        math.floor(0.5 / table.cell_width),
        math.floor(0.5 / table.cell_width),
        math.floor(0.9 / table.cell_width),
        math.floor(0.5 / table.cell_width),
        math.floor(0.9 / table.cell_width),
        math.floor(0.5 / table.cell_width),
    ]
    assert off_diag[0] == 4 and off_diag[2] == 7


def test_pigeonhole_identical_spaces_form_one_group():
    fam = stationary_family([0.7] * 5, floor=Stationary(0.5))
    register_nets(fam, 1.0, 0.2)
    _, group = pigeonhole_subsequence(fam, 1.0, 0.2)
    assert group == (0, 1, 2, 3, 4)


def test_pigeonhole_nocauchy_levels_separate():
    fam = gen_no_cauchy_family(6)
    register_nets(fam, 0.5, 0.1)
    table, group = pigeonhole_subsequence(fam, 0.5, 0.1)
    # cell width (1/3) * (1/10); floors computed by the same rule as the table
    width = (1.0 / 3.0) * 0.1
    assert table.cell_width == pytest.approx(width, abs=1e-15)
    # parities separate; sizes tie at 3 and the tie goes to the group holding
    # the smallest space index, the odd-level one
    assert set(group) == {0, 2, 4}
    assert any(set(g) == {1, 3, 5} for g in table.groups)
    floors = {n: table.matrices[n][0][1] for n in range(6)}
    assert floors[1] == math.floor(0.5 / width)
    assert floors[0] == math.floor((1.0 / 3.0) / width)
    assert floors[1] != floors[0]


def test_pigeonhole_requires_positive_width():
    fam = stationary_family([0.5, 0.6], floor=Stationary(0.3), norm=TNorm.lukasiewicz())
    register_nets(fam, 1.0, 0.2)
    with pytest.raises(DomainError):
        pigeonhole_subsequence(fam, 1.0, 0.2)  # max(0.3 + 0.2 - 1, 0) = 0


def test_certify_group_end_to_end():
    fam = stationary_family([0.5, 0.52, 0.9, 0.5, 0.52], floor=Stationary(0.4))
    t, eps = 1.0, 0.3
    register_nets(fam, t, eps)
    _, group = pigeonhole_subsequence(fam, t, eps)
    cert = certify_group(fam, group, t, eps)
    assert cert.passed
    assert len(cert.h_values) == len(group) * (len(group) - 1) // 2
    assert all(h > cert.threshold for _, _, h in cert.h_values)


def test_certify_single_space_group_is_empty():
    fam = stationary_family([0.5, 0.9], floor=Stationary(0.4))
    register_nets(fam, 1.0, 0.3)
    cert = certify_group(fam, [0], 1.0, 0.3)
    assert cert.passed and cert.h_values == ()


def test_diagonal_identity_selector():
    assert diagonal_subsequence(lambda t, e, prev: list(range(1, 11)), 5) == (1, 2, 3, 4, 5)


def test_diagonal_halving_selector():
    def halving(t, eps, prev):
        base = list(range(1, 200)) if prev is None else list(prev)
        return base[::2] if prev is not None else base

    out = diagonal_subsequence(halving, 4)
    assert len(out) == 4
    # level n output is nested inside level n-1
    assert out[0] == 1


def test_diagonal_depth_zero():
    assert diagonal_subsequence(lambda t, e, prev: [1, 2, 3], 0) == ()


def test_diagonal_rejects_non_subsequence():
    def bad(t, eps, prev):
        return [1, 2, 3, 4] if prev is None else [99, 98, 97, 96]

    with pytest.raises(DomainError):
        diagonal_subsequence(bad, 2)


def test_diagonal_rejects_short_levels():
    with pytest.raises(DomainError, match="shorter"):
        diagonal_subsequence(lambda t, e, prev: [7], 2)


def test_stationary_hypotheses_pipeline():
    fam = stationary_family([0.5, 0.52, 0.9, 0.5, 0.52, 0.5])
    report = check_stationary_hypotheses(fam, 0.3)
    assert report.passed
    assert report.floor_value == 0.5
    assert report.cover_bound == 2
    assert set(report.group) == {0, 1, 3, 4, 5}
    assert report.certificate is not None and report.certificate.passed


def test_stationary_hypotheses_reject_nonstationary(rng):
    spaces = (
        make_stationary_space(["a", "b"], [[1, 0.5], [0.5, 1]], TNorm.product()),
        make_standard_space(["a", "b"], [[0, 1], [1, 0]], TNorm.product()),
    )
    report = check_stationary_hypotheses(SequenceFamily(spaces), 0.3)
    assert not report.passed
    assert any("not stationary" in f for f in report.failures)


def test_stationary_hypotheses_reject_minimum_norm():
    fam = stationary_family([0.5, 0.5], norm=TNorm.minimum())
    report = check_stationary_hypotheses(fam, 0.3)
    assert not report.passed
    assert any("damping" in f for f in report.failures)


def test_stationary_hypotheses_reject_zero_diameter():
    fam = stationary_family([0.5, 0.0])  # second space has a vanishing pair
    report = check_stationary_hypotheses(fam, 0.3)
    assert not report.passed
    assert any("floor" in f for f in report.failures)


# ---------------------------------------------------------------------------
# classical bridge


def test_bridge_random_families_pass(rng):
    for _ in range(5):
        mats = [random_metric(rng, int(rng.integers(2, 5)), lo=0.3, hi=4.5) for _ in range(4)]
        report, family = standard_bridge_check(mats, 5.0, t=1.0, eps=0.1)
        assert report.passed, report.as_dict()
        assert report.floor.worst_slack >= -1e-12
        assert report.ratio.worst_margin >= -1e-12
        assert all(fuzzy == classical for _, fuzzy, classical, _ in report.cover_rows)


def test_bridge_growing_diameters_fail_exactly_the_floor():
    mats = [np.array([[0.0, n], [n, 0.0]]) for n in range(1, 9)]
    report, _ = standard_bridge_check(mats, 5.0, t=1.0, eps=0.1)
    assert not report.passed
    assert not report.floor.passed
    assert report.ratio.passed
    assert report.cover_translation_ok and report.cover_bound_ok


def test_bridge_single_matrix_trivially_passes(rng):
    report, _ = standard_bridge_check([random_metric(rng, 3)], 12.0)
    assert report.passed


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_bridge_refuses_eps_outside_the_open_unit_interval(rng, eps):
    # at eps = 1 the classical radius eps t / (1 - eps) divides by zero
    with pytest.raises(DomainError, match="eps must lie strictly between 0 and 1"):
        standard_bridge_check([random_metric(rng, 3)], 12.0, eps=eps)


def test_bridge_validates_each_matrix_once(rng, monkeypatch):
    """A matrix is validated when its ``DistanceMatrix`` is built, and its
    standard space is built from that without a second check, however the
    matrices come in; the spaces equal those built from the arrays."""
    calls = []
    real = fuzzygh.space.validate_distance_matrix
    monkeypatch.setattr(fuzzygh.space, "validate_distance_matrix", lambda d, *a: calls.append(1) or real(d, *a))
    arrays = [random_metric(rng, int(rng.integers(2, 6)), lo=0.3, hi=4.5) for _ in range(5)]
    for metrics in (arrays, [DistanceMatrix.from_array(m) for m in arrays]):
        calls.clear()
        report, family = standard_bridge_check(metrics, 5.0, t=1.0, eps=0.1)
        assert len(calls) == (len(arrays) if metrics is arrays else 0)
        assert report.passed
        for sp, m in zip(family.spaces, arrays):
            assert sp == make_standard_space(sp.labels, m, TNorm.product(), name=sp.name)


# ---------------------------------------------------------------------------
# the family without Cauchy subsequences


def test_register_nets_refuses_an_empty_given_net():
    # padding an empty net would repeat its first point, which it lacks
    for indices in ([[0], []], [[], []]):
        fam = gen_no_cauchy_family(2)
        with pytest.raises(DomainError, match="nonempty"):
            register_nets(fam, 0.5, 0.1, indices=indices)
        assert fam.nets == {}


def test_nocauchy_generator_shapes():
    fam = gen_no_cauchy_family(5)
    assert len(fam.spaces) == 5
    assert fam.spaces[0].value(0, 1, 0.5) == pytest.approx(1 / 3, abs=1e-15)  # odd
    assert fam.spaces[1].value(0, 1, 0.5) == 0.5  # even
    assert fam.spaces[1].value(0, 1, 2.5) == 1.0  # above its breakpoint
    assert all(check_axioms(sp).passed for sp in fam.spaces)


def test_nocauchy_generator_rejects_tiny_count():
    with pytest.raises(DomainError):
        gen_no_cauchy_family(1)


def test_nocauchy_verification_needs_two_spaces():
    fam = SequenceFamily(gen_no_cauchy_family(2).spaces[:1])
    with pytest.raises(DomainError, match="at least two spaces"):
        verify_no_cauchy(fam)


def test_nocauchy_verification_report():
    fam = gen_no_cauchy_family(6)
    report = verify_no_cauchy(fam)
    assert not report.necessity_inequality_holds  # 1/3 < 0.5 * 0.81
    assert report.damped_requirement == pytest.approx(0.405, abs=1e-12)
    assert report.net_sizes == (2,) * 6
    assert report.max_pair_upper < 0.9
    assert report.self_lower_bound > 0.98
    assert report.contradiction_confirmed


# ---------------------------------------------------------------------------
# array scans against the loop references

NORMS = (TNorm.product(), TNorm.minimum(), TNorm.lukasiewicz())
KINDS = ("step", "standard", "stationary")


def random_family(rng, kind, norm, count=5, n=3):
    spaces = []
    for k in range(count):
        labels = [f"p{i}" for i in range(n)]
        if kind == "standard":
            sp = make_standard_space(labels, random_metric(rng, n, lo=0.2, hi=6.0), norm)
        elif kind == "stationary":
            sp = make_stationary_space(labels, random_safe_stationary_values(rng, n, 0.2, 0.95), norm)
        else:
            steps = {}
            for i in range(n):
                for j in range(i + 1, n):
                    bps = sorted(rng.choice([0.5, 1.0, 1.7, 3.0, 8.0], size=int(rng.integers(0, 3)), replace=False))
                    vals = sorted(rng.uniform(0.05, 0.99, size=len(bps) + 1))
                    steps[(i, j)] = Step(tuple(bps), tuple(vals))
            sp = make_step_space(labels, steps, norm)
        spaces.append(sp)
    return SequenceFamily(tuple(spaces))


def outcome(fn, *args, **kwargs):
    """repr and JSON of the report, or the raised exception's type and message."""
    try:
        report = fn(*args, **kwargs)
    except DomainError as exc:
        return type(exc).__name__, str(exc)
    return repr(report), json.dumps(report.as_dict())


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_floor_check_matches_loop(rng, norm):
    floors = (Standard(4.0), Stationary(0.3), Stationary(0.0), Step((0.8, 2.5), (0.1, 0.4, 0.7)))
    failed = 0
    for kind in KINDS:
        for floor in floors:
            fam = random_family(rng, kind, norm)
            fam.floor = floor
            report = check_diameter_floor(fam)
            assert outcome(check_diameter_floor, fam) == outcome(diameter_floor_loop, fam)
            assert all(type(v) is float for row in report.violations for v in row[1:])
            failed += not report.passed
    assert 0 < failed < len(KINDS) * len(floors)


def test_floor_check_violation_order_matches_loop():
    fam = stationary_family([0.5, 0.2, 0.6], floor=Step((1.0,), (0.0, 0.4)))
    report = check_diameter_floor(fam)
    assert outcome(check_diameter_floor, fam) == outcome(diameter_floor_loop, fam)
    # zero-floor rows (space -1) up to the breakpoint, then the 0.2-space above it
    assert not report.positive and not report.below_diameters
    assert {v[0] for v in report.violations} == {-1, 1}
    assert report.violations == tuple(sorted(report.violations, key=lambda v: (v[1], v[0])))


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_ratio_condition_matches_loop(rng, norm):
    seen = set()
    for kind in KINDS:
        for eps in (0.1, 0.3, 0.6):
            fam = random_family(rng, kind, norm)
            register_nets(fam, 1.0, eps, indices=[range(sp.n) for sp in fam.spaces])
            got = outcome(check_ratio_condition, fam, 1.0, eps)
            assert got == outcome(ratio_condition_loop, fam, 1.0, eps)
            if got[0] == "DomainError":
                seen.add(got[1])
            else:
                seen.add(len(json.loads(got[1])["witnesses"]) > 1)
    assert True in seen  # several witnesses in one report
    if norm.kind == "lukasiewicz":
        assert "zero damped denominator at t" in seen


def test_ratio_condition_witness_order_matches_loop():
    fam = gen_no_cauchy_family(7)
    register_nets(fam, 0.5, 0.1)
    report = check_ratio_condition(fam, 0.5, 0.1)
    assert outcome(check_ratio_condition, fam, 0.5, 0.1) == outcome(ratio_condition_loop, fam, 0.5, 0.1)
    assert len(report.witnesses) > 20
    assert list(report.witnesses) == sorted(report.witnesses)


def _straddling_space(rng, norm, eps, kind, n):
    """A space whose similarities at t = 1 lie near eps (some at or below it,
    some above) and rise above t."""
    labels = [f"p{i}" for i in range(n)]
    if kind == "standard":
        # M = 1 / (1 + d) at t = 1, so d near 1/eps - 1
        mid = 1.0 / eps - 1.0
        return make_standard_space(labels, random_metric(rng, n, lo=mid * 0.7, hi=mid * 1.4), norm)
    # one step for every pair keeps the triangle inequality under each norm
    low = float(rng.choice([eps - 0.1, eps, eps + 1e-13, eps + 0.05]))
    f = Step((1.5, 4.0), (low, low + 0.05 + 0.1 * rng.random(), 1.0))
    return make_step_space(labels, {(i, j): f for i in range(n) for j in range(i + 1, n)}, norm)


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_ratio_condition_zero_denominator_matches_loop(rng, norm):
    # Lukasiewicz damps v to max(v - eps, 0), which vanishes on the similarities
    # at or below eps; product and minimum never vanish on a positive similarity
    seen = set()
    for trial in range(60):
        eps = float(rng.uniform(0.3, 0.5))
        n = int(rng.integers(2, 4))
        kinds = rng.choice(["step", "standard"], size=int(rng.integers(1, 4)))
        fam = SequenceFamily(tuple(_straddling_space(rng, norm, eps, kind, n) for kind in kinds))
        register_nets(fam, 1.0, eps, indices=[range(n)] * len(kinds))
        got = outcome(check_ratio_condition, fam, 1.0, eps)
        assert got == outcome(ratio_condition_loop, fam, 1.0, eps)
        seen.add(got[1] if got[0] == "DomainError" else "report")
    assert "zero damped denominator above t" not in seen  # the oracle's branch never runs
    assert "report" in seen
    if norm.kind == "lukasiewicz":
        assert "zero damped denominator at t" in seen


def test_ratio_condition_without_scales_above_t():
    norm = TNorm.product()
    fam = SequenceFamily(tuple(make_step_space(["a", "b"], {(0, 1): Step((), (0.8,))}, norm) for _ in range(2)))
    register_nets(fam, 1.0, 0.3, indices=[(0, 1)] * 2)
    got = outcome(check_ratio_condition, fam, 1.0, 0.3, s_grid=(0.5,))
    assert got == outcome(ratio_condition_loop, fam, 1.0, 0.3, s_grid=(0.5,))
    assert json.loads(got[1])["passed"]


def _spaces_per_block(monkeypatch, fam, t, eps, per, s_grid=None):
    """Set the block buffer so that each block of the ratio check holds
    ``per`` spaces: one row is count * size^2 * S floats."""
    s_grid = default_ratio_grid(fam, t) if s_grid is None else s_grid
    row = len(fam.spaces) * len(fam.nets_for(t, eps)[0]) ** 2 * sum(s > t for s in s_grid)
    monkeypatch.setattr(fuzzygh.space, "_BLOCK", per * max(1, row))


@pytest.mark.parametrize("per", [2, 3])
def test_ratio_condition_block_seams_match_loop(monkeypatch, per):
    # 7 spaces in blocks of 2 or 3: witnesses from every block, in (n, m, i, j, s) order
    fam = gen_no_cauchy_family(7)
    register_nets(fam, 0.5, 0.1)
    _spaces_per_block(monkeypatch, fam, 0.5, 0.1, per)
    report = check_ratio_condition(fam, 0.5, 0.1)
    assert outcome(check_ratio_condition, fam, 0.5, 0.1) == outcome(ratio_condition_loop, fam, 0.5, 0.1)
    assert {n // per for n, *_ in report.witnesses} == set(range(-(-7 // per)))
    assert list(report.witnesses) == sorted(report.witnesses)

    # no scales above t: every block is empty and the worst margin reads 0
    two = SequenceFamily(tuple(make_step_space(["a", "b"], {(0, 1): Step((), (0.8,))}, TNorm.product()) for _ in range(2)))
    register_nets(two, 1.0, 0.3, indices=[(0, 1)] * 2)
    _spaces_per_block(monkeypatch, two, 1.0, 0.3, 1, s_grid=(0.5,))
    got = outcome(check_ratio_condition, two, 1.0, 0.3, s_grid=(0.5,))
    assert got == outcome(ratio_condition_loop, two, 1.0, 0.3, s_grid=(0.5,))
    assert json.loads(got[1])["worst_margin"] == 0.0

    # Lukasiewicz damps 0.2 to max(0.2 - 0.3, 0) = 0: one space divides by
    # it (under errstate, with nothing to compare), several refuse it
    f = Step((1.5, 4.0), (0.2, 0.4, 1.0))
    luk = make_step_space(["a", "b", "c"], {(0, 1): f, (0, 2): f, (1, 2): f}, TNorm.lukasiewicz())
    for count in (1, 3):
        fam = SequenceFamily((luk,) * count)
        register_nets(fam, 1.0, 0.3, indices=[range(3)] * count)
        _spaces_per_block(monkeypatch, fam, 1.0, 0.3, 1)
        got = outcome(check_ratio_condition, fam, 1.0, 0.3)
        assert got == outcome(ratio_condition_loop, fam, 1.0, 0.3)
        assert (got[0] == "DomainError") == (count > 1)


@pytest.mark.parametrize("norm", NORMS, ids=lambda nm: nm.kind)
def test_pigeonhole_matches_loop(rng, norm):
    # wide cells (floor 0.9) put several of 7 spaces in one group; the nets
    # are minimal ones padded to a common length
    largest = set()
    for kind in KINDS:
        for t, eps in ((1.0, 0.6), (0.7, 0.4), (2.0, 0.3)):
            fam = random_family(rng, kind, norm, count=7)
            fam.floor = Stationary(0.9)
            register_nets(fam, t, eps)
            table, selected = pigeonhole_subsequence(fam, t, eps)
            expected = pigeonhole_loop(fam, t, eps)
            assert repr(table) == repr(expected) and selected == expected.selected
            assert all(type(v) is int for mat in table.matrices for row in mat for v in row)
            largest.add(len(selected))
    assert max(largest) > 1 and min(largest) < 7


def test_ratio_condition_memory_is_per_space(rng):
    # 40 spaces with 10-point nets on 32 scales: a (count, count, size, size, S)
    # tensor would take 40 MB, while blocks of one space against all others
    # (128000 floats each, past _BLOCK) peak near 3.4 MB
    spaces = tuple(
        make_standard_space([f"p{i}" for i in range(10)], random_metric(rng, 10, lo=0.2, hi=6.0), TNorm.product())
        for _ in range(40)
    )
    fam = SequenceFamily(spaces)
    register_nets(fam, 1.0, 0.95, indices=[range(10)] * 40)
    tracemalloc.start()
    try:
        report = check_ratio_condition(fam, 1.0, 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 12 * 2**20, peak


def test_stationary_hypotheses_find_each_net_once(monkeypatch):
    import fuzzygh.sequences as seq

    calls = []
    real = seq.find_net

    def counting(*args, **kwargs):
        calls.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(seq, "find_net", counting)
    fam = stationary_family([0.5, 0.52, 0.9, 0.5, 0.52, 0.5])
    report = check_stationary_hypotheses(fam, 0.3, tol=1e-9)
    assert report.passed and report.cover_bound == 2
    assert calls == [1e-9] * 6
