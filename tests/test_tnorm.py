import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzygh import (
    ConstructionError,
    DomainError,
    SizeLimitError,
    TNorm,
    tn_check_axioms,
    tn_eval,
    tn_has_tn1,
    tn_leq,
)
from fuzzygh.cli import main
from fuzzygh.tnorm import MIN_GRID_STEP, unit_grid, unit_grid_pairs

unit = st.floats(0.0, 1.0, allow_nan=False)


def test_eval_closed_forms():
    assert tn_eval(TNorm.product(), 0.5, 0.5) == 0.25
    assert tn_eval(TNorm.lukasiewicz(), 0.7, 0.7) == pytest.approx(0.4, abs=1e-15)
    assert tn_eval(TNorm.lukasiewicz(), 0.3, 0.3) == 0.0
    for norm in (TNorm.minimum(), TNorm.product(), TNorm.lukasiewicz()):
        assert tn_eval(norm, 0.3, 1.0) == pytest.approx(0.3, abs=1e-15)


def test_eval_rejects_out_of_range():
    with pytest.raises(DomainError):
        tn_eval(TNorm.product(), 1.5, 0.5)
    with pytest.raises(DomainError):
        tn_eval(TNorm.product(), 0.5, -0.1)


@pytest.mark.parametrize("kind", ["minimum", "product", "lukasiewicz"])
def test_axioms_exact_on_grid(kind):
    report = tn_check_axioms(TNorm(kind), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert report.passed
    assert report.commutativity == 0.0
    assert report.associativity == 0.0
    assert report.identity == 0.0
    assert report.monotonicity == 0.0


@pytest.mark.parametrize("kind", ["minimum", "product", "lukasiewicz"])
def test_associativity_is_checked_in_quadratic_memory(kind):
    """152 grid values: one value c at a time peaks near 1 MiB under
    tracemalloc, where the (m, m, m) sides of the identity took 107 MiB.  The
    worst residual equals that of the whole tensor, bit for bit (39 values)."""
    norm = TNorm(kind)
    g = np.linspace(0.0, 1.0, 152)
    tracemalloc.start()
    try:
        tn_check_axioms(norm, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak
    g = np.sort(np.random.default_rng(7).uniform(size=39))
    lhs = norm.array(norm.array(g[:, None, None], g[None, :, None]), g[None, None, :])
    rhs = norm.array(g[:, None, None], norm.array(g[None, :, None], g[None, None, :]))
    assert tn_check_axioms(norm, g).associativity == float(np.max(np.abs(lhs - rhs)))


def test_axioms_reject_empty_grid():
    with pytest.raises(DomainError):
        tn_check_axioms(TNorm.product(), [])


def test_tn1_product_is_an_identity():
    # a - a*b == a*(1-b) exactly in real arithmetic
    holds, witness = tn_has_tn1(TNorm.product())
    assert holds and witness is None


def test_tn1_lukasiewicz_full_grid():
    holds, witness = tn_has_tn1(TNorm.lukasiewicz())
    assert holds and witness is None


def test_tn1_minimum_fails_with_canonical_witness():
    holds, witness = tn_has_tn1(TNorm.minimum())
    assert not holds
    assert witness is not None
    a, b = witness
    assert a - min(a, b) < min(a, 1 - b)  # the returned pair genuinely violates
    # the canonical counterexample
    assert 0.5 - min(0.5, 0.5) < min(0.5, 1 - 0.5)


def test_ordering_chain():
    pairs = unit_grid_pairs(0.01)
    assert tn_leq(TNorm.lukasiewicz(), TNorm.product(), pairs)
    assert tn_leq(TNorm.product(), TNorm.minimum(), pairs)
    assert not tn_leq(TNorm.minimum(), TNorm.product(), [(0.5, 0.5)])


@given(a=unit, b=unit)
def test_eval_below_minimum(a, b):
    for kind in ("minimum", "product", "lukasiewicz"):
        assert TNorm(kind)(a, b) <= min(a, b) + 1e-15


@given(a=unit, b=unit, c=unit)
def test_one_lipschitz_in_each_argument(a, b, c):
    for kind in ("minimum", "product", "lukasiewicz"):
        norm = TNorm(kind)
        assert abs(norm(a, c) - norm(b, c)) <= abs(a - b) + 1e-15


@given(a=unit, b=unit)
def test_array_matches_scalar(a, b):
    for kind in ("minimum", "product", "lukasiewicz"):
        norm = TNorm(kind)
        assert float(norm.array(np.asarray(a), np.asarray(b))) == pytest.approx(
            norm(a, b), abs=1e-15
        )


@pytest.mark.parametrize(
    "norm",
    [TNorm.minimum(), TNorm.product(), TNorm.lukasiewicz()],
    ids=lambda norm: norm.kind,
)
def test_array_into_a_buffer_matches_a_fresh_array(norm):
    rng = np.random.default_rng(5)
    a, b = rng.uniform(0.0, 1.0, (7, 1)), rng.uniform(0.0, 1.0, (1, 9))
    buf = np.full((7, 9), np.nan)
    fresh = norm.array(a, b)
    assert norm.array(a, b, out=buf) is buf
    assert buf.tobytes() == fresh.tobytes()


def test_only_the_three_norms_exist(tmp_path, capsys):
    message = "unknown t-norm 'drastic'; expected one of minimum, product, lukasiewicz"
    with pytest.raises(ConstructionError, match=message):
        TNorm("drastic")
    with pytest.raises(TypeError):
        TNorm("product", lambda a, b: a * b)
    doc = tmp_path / "space.json"
    doc.write_text(json.dumps({"name": "s", "points": ["a"], "tnorm": "drastic",
                               "metric": {"kind": "stationary", "values": [[1.0]]}}), encoding="utf-8")
    assert main(["check", "--space", str(doc)]) == 2
    assert capsys.readouterr().err == f"error: {doc}: {message}\n"


@pytest.mark.parametrize("step", [0.01, 0.05, 0.25, 0.3, 1 / 3, 0.7, 1.0, MIN_GRID_STEP])
def test_unit_grid_spans_both_endpoints(step):
    grid = unit_grid(step)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    gaps = np.diff(grid)
    assert (gaps > 0).all() and gaps.max() <= step * (1 + 1e-9)
    assert len(grid) == math.ceil(round(1 / step, 9)) + 1


def test_unit_grid_refuses_a_bad_step():
    for step in (0.0, -1.0, 2.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="sample step"):
            unit_grid_pairs(step)
    # refused before any sample exists: (1/step + 1)^2 pairs would not fit
    tracemalloc.start()
    try:
        for step in (MIN_GRID_STEP / 2, 1e-12, 5e-324):
            with pytest.raises(SizeLimitError):
                unit_grid_pairs(step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
