import bisect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzygh import ConstructionError, DomainError, Standard, Stationary, Step
from fuzzygh.valuefn import ONE, PairTable, values, vf_min

from oracles import compress_step_loop, vf_min_loop, vf_min_steps_loop


def test_standard_eval():
    f = Standard(3.0)
    assert f.eval(1.0) == 0.25
    assert f.eval(0.0) == 0.0


def test_step_right_closed_intervals():
    f = Step((2.0,), (0.5, 1.0))
    assert f.eval(2.0) == 0.5  # value at the breakpoint comes from the left
    assert f.eval(2.0000001) == 1.0
    assert f.eval(0.5) == 0.5
    assert f.eval(0.0) == 0.0


def test_stationary_eval():
    f = Stationary(0.5)
    assert f.eval(10.0) == 0.5
    assert f.eval(0.0) == 0.0


def test_negative_t_rejected():
    with pytest.raises(DomainError):
        Standard(1.0).eval(-0.1)


def test_step_validation():
    with pytest.raises(ConstructionError):
        Step((2.0,), (0.9, 0.5))  # decreasing
    with pytest.raises(ConstructionError):
        Step((2.0, 1.0), (0.1, 0.2, 0.3))  # breakpoints not increasing
    with pytest.raises(ConstructionError):
        Step((1.0,), (0.5, 1.5))  # outside [0, 1]


def test_values_at_infinity_are_the_limits():
    # a last scale inf reads the limits at infinity: 1 for Standard, where
    # t / (t + d) would be inf / inf, a step's last value and a stationary value
    fns = (Standard(2.0), Standard(0.0), Step((1.0, 3.0), (0.2, 0.5, 0.9)), Stationary(0.3), Stationary(0.0))
    limits = [1.0, 1.0, 0.9, 0.3, 0.0]
    for ts in ([math.inf], [0.5, 3.0, math.inf]):
        out = values(fns, np.array(ts))
        assert out[-1].tolist() == limits
        assert out[:-1].tolist() == [[f.eval(t) for f in fns] for t in ts[:-1]]
    # each group alone, in blocks of one entry, and the minimum over them
    for f, limit in zip(fns, limits):
        table = PairTable([f, f])
        assert [b[-1].tolist() for _, b in table.blocks(np.array([1.0, math.inf]), 1)] == [[limit]] * 2
        assert table.minimum(np.array([1.0, math.inf])).tolist() == [f.eval(1.0), limit]


def test_values_matches_scalar():
    ts = np.array([0.5, 1.0, 2.0, 2.5, 7.0])
    fns = (
        Step((1.0, 2.5), (0.1, 0.4, 0.9)),
        Standard(2.0),
        Stationary(0.7),
        Step((1.0, 2.5), (0.2, 0.3, 1.0)),  # shares the first step's breakpoints
        Standard(0.0),
    )
    out = values(fns, ts)
    assert out.shape == (len(ts), len(fns))
    for p, f in enumerate(fns):
        assert out[:, p].tolist() == [f.eval(t) for t in ts]


def test_vf_min_and_compress_step_reproduce_steps():
    f = Step((1.0, 3.0), (0.2, 0.5, 1.0))
    assert vf_min([f, f]) == f
    assert vf_min([f, ONE]) == f
    # a step drops its silent breakpoints
    pts = [0.5, 1.0, 2.0, 3.0, 4.0]
    assert Step(pts, [f.eval(p) for p in pts] + [values([f], np.array([math.inf]))[0, 0]]) == f


def test_vf_min_of_mixed_inputs_is_a_lower_envelope():
    f = Standard(1.0)
    g = vf_min([f, ONE], grid=[0.5, 1.0, 2.0])
    assert g == Step((0.5, 1.0, 2.0), (0.0, 1 / 3, 0.5, 2 / 3))
    for t in np.linspace(0.01, 5.0, 200):
        assert g.eval(t) <= f.eval(t) + 1e-15


def test_vf_min_exact_families():
    assert vf_min([Standard(1.0), Standard(4.0)]) == Standard(4.0)
    assert vf_min([Stationary(0.5), Stationary(1 / 3)]) == Stationary(1 / 3)
    m = vf_min([Step((2.0,), (0.5, 1.0)), Step((3.0,), (1 / 3, 1.0))])
    assert m.eval(1.0) == 1 / 3
    assert m.eval(2.5) == 1 / 3
    assert m.eval(3.5) == 1.0


def test_vf_min_mixed_is_below_both():
    grid = np.linspace(0.1, 10.0, 25)
    m = vf_min([Standard(2.0), Step((1.0,), (0.4, 0.9))], grid=grid)
    for t in np.linspace(0.05, 12.0, 157):
        assert m.eval(t) <= min(Standard(2.0).eval(t), Step((1.0,), (0.4, 0.9)).eval(t)) + 1e-15


@given(
    bps=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=5, unique=True),
    raw=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_step_monotone_on_sorted_grids(bps, raw):
    bps = tuple(sorted(bps))
    vals = tuple(sorted(raw))[: len(bps) + 1]
    if len(vals) < len(bps) + 1:
        vals = vals + (vals[-1],) * (len(bps) + 1 - len(vals))
    f = Step(bps, vals)
    ts = np.linspace(0.0, max(bps) * 1.5, 50)[1:]
    out = values([f], ts)[:, 0]
    assert np.all(np.diff(out) >= -1e-15)


def test_compress_step_rejects_decreasing_and_out_of_range_values():
    # Step checks every value before it drops the silent breakpoints
    with pytest.raises(ConstructionError, match="nondecreasing"):
        Step([1.0, 2.0], [0.5, 0.5 - 1e-16, 0.5 - 1e-16])
    with pytest.raises(ConstructionError, match="outside"):
        Step([1.0], [0.5, 1.5])
    with pytest.raises(ConstructionError, match="outside"):
        Step([1.0, 2.0], [-0.25, -0.25, -0.25])


@given(
    bps=st.lists(st.floats(0.01, 50.0), max_size=8, unique=True).map(sorted),
    levels=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=9, max_size=9),
)
def test_step_is_the_compressed_step(bps, levels):
    # nondecreasing values with ties: every tie is a silent breakpoint
    vals = sorted(levels[: len(bps) + 1])
    f = Step(bps, vals)
    assert f == compress_step_loop(bps, vals)
    assert all(map(lambda a, b: a < b, f.values, f.values[1:]))
    # the uncompressed function: vals[k] on (bps[k-1], bps[k]]
    mids = [(a + b) / 2 for a, b in zip([0.0, *bps], bps)]
    for s in (*bps, *mids, 2.0 * max(bps, default=1.0)):
        assert f.eval(s) == vals[bisect.bisect_left(bps, s)]


def test_step_reports_the_first_bad_value():
    # in order of the values; a value out of range is reported before a decrease
    with pytest.raises(ConstructionError, match="nondecreasing"):
        Step((1.0, 2.0, 3.0), (0.5, 0.4, 1.5, 1.5))
    with pytest.raises(ConstructionError, match="outside"):
        Step((1.0, 2.0, 3.0), (0.5, 1.5, 0.4, 0.4))
    with pytest.raises(ConstructionError, match="-0.1 outside"):
        Step((1.0,), (0.5, -0.1))
    with pytest.raises(ConstructionError, match="nan outside"):
        Step((1.0, 2.0), (0.5, math.nan, 0.7))
    with pytest.raises(ConstructionError, match="strictly increasing"):
        Step((1.0, 1.0), (0.5, 0.6, 0.7))
    with pytest.raises(ConstructionError, match="exactly"):
        Step((), ())
    with pytest.raises(ConstructionError, match="finite"):
        Step((1.0, math.inf), (0.5, 0.6, 0.7))


def test_standard_has_no_breakpoints():
    f = Standard(2.0)
    assert f.breakpoints == ()
    assert repr(f) == "Standard(d=2.0)"
    assert vf_min([f, Step((1.0,), (0.4, 0.9))], grid=[0.5]).breakpoints == (0.5, 1.0)


def test_stationary_is_a_step_without_breakpoints():
    for c in (0.0, 0.3, 1.0):
        f = Stationary(c)
        assert f == Step((), (c,))
        assert repr(f) == f"Step(breakpoints=(), values=({c!r},))"
        assert (f.eval(0.0), f.eval(2.5), *values([f], np.array([5e-324, math.inf]))[:, 0]) == (0.0, c, c, c)
    with pytest.raises(ConstructionError, match="outside"):
        Stationary(1.5)


def _random_step(rng, pool):
    bps = sorted(rng.choice(pool, size=rng.integers(0, len(pool) + 1), replace=False).tolist())
    # distinct values from a coarse lattice: each step is compressed, and
    # several steps tie
    vals = np.sort(rng.choice(5, size=len(bps) + 1, replace=False) / 4.0).tolist()
    return Step(tuple(bps), tuple(vals))


def test_vf_min_of_steps_matches_the_eval_envelope():
    rng = np.random.default_rng(13)
    cases = [
        [Stationary(0.5), Stationary(0.25), Stationary(0.25)],  # all breakpoint-less, tied
        [Step((1.0, 2.0), (0.2, 0.5, 0.9)), Step((1.0, 2.0), (0.2, 0.6, 0.8))],  # shared, tied
        [Step((1.0,), (0.5, 1.0)), Stationary(0.5)],  # ties the first value
    ]
    for _ in range(300):
        pool = [0.5, 1.0, 2.0] if rng.uniform() < 0.5 else rng.uniform(0.01, 10.0, size=4)
        cases.append([_random_step(rng, pool) for _ in range(rng.integers(1, 5))])
    for fns in cases:
        got, want = vf_min(fns), vf_min_steps_loop(fns)
        assert (got.breakpoints, got.values) == (want.breakpoints, want.values)


def test_vf_min_matches_the_right_limit_loop():
    """The envelope read from the pair table equals, bit for bit, the least
    right limit at the left end of each interval: steps alone, mixed inputs
    on a grid, and Standard(0.0), which reads 1 right of 0."""
    rng = np.random.default_rng(29)
    cases = [
        ([Standard(0.0), Step((1.0,), (0.4, 0.9))], [0.5, 2.0]),
        ([Standard(0.0), Standard(0.0), Stationary(0.3)], [1.0]),
        ([Standard(0.0), Standard(2.0), Step((1.0,), (0.0, 1.0))], [0.25]),
        ([Standard(1e-300), Stationary(1.0)], [1e-300, 1.0]),
    ]
    for _ in range(400):
        pool = [0.5, 1.0, 2.0] if rng.uniform() < 0.5 else rng.uniform(0.01, 10.0, size=4)
        fns = [_random_step(rng, pool) for _ in range(rng.integers(1, 4))]
        grid = []
        if rng.uniform() < 0.6:
            fns += [Standard(float(d)) for d in rng.choice([0.0, 0.3, 1.0, 7.5], size=rng.integers(1, 3))]
            grid = sorted(rng.choice([0.0, 0.1, 0.5, 1.0, 3.0, 20.0], size=rng.integers(1, 4), replace=False))
        cases.append((fns, grid))
    for fns, grid in cases:
        got, want = vf_min(fns, grid=grid), vf_min_loop(fns, grid)
        assert (got.breakpoints, got.values) == (want.breakpoints, want.values)
