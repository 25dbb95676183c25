"""Every report's ``as_dict`` (the ``Report`` mixin plus its few overrides)
against the hand-written field-by-field dicts in ``oracles.report_as_dict``:
same keys, same key order, same values, same canonical JSON."""

import math

import numpy as np
import pytest

from fuzzygh import TNorm, make_standard_space, make_stationary_space
from fuzzygh import covering
from fuzzygh.covering import find_net
from fuzzygh.ghdist import gh_fuzzy_upper_bound
from fuzzygh.io import dumps_report
from fuzzygh.sequences import (
    SequenceFamily,
    certify_group,
    check_diameter_floor,
    check_ratio_condition,
    check_stationary_hypotheses,
    gen_no_cauchy_family,
    pigeonhole_subsequence,
    register_nets,
    standard_bridge_check,
    verify_no_cauchy,
)
from fuzzygh.space import check_axioms
from fuzzygh.tnorm import TNormAxiomReport, tn_check_axioms
from fuzzygh.util import Report
from fuzzygh.valuefn import Stationary

from oracles import random_metric, report_as_dict

UNIT = [0.0, 0.25, 0.5, 0.75, 1.0]


def _stationary_family(levels, norm=None):
    spaces = tuple(
        make_stationary_space(["a", "b"], [[1, v], [v, 1]], norm or TNorm.product(), name=f"X{k}")
        for k, v in enumerate(levels)
    )
    return SequenceFamily(spaces)


def _growing_pairs(sizes):
    return [np.array([[0.0, n], [n, 0.0]]) for n in sizes]


def _reports(rng):
    """(name, report) for every report class, passing and failing alike."""
    line3 = make_standard_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], TNorm.product())
    line4 = make_standard_space(
        ["a", "b", "c", "d"], [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], TNorm.product()
    )
    bent = make_stationary_space(
        ["a", "b", "c"], [[1, 0.9, 0.1], [0.9, 1, 0.9], [0.1, 0.9, 1]], TNorm.product()
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(covering, "_CLIQUE_NODE_BUDGET", 0)
        greedy = find_net(line4, 1.0, 0.4)
    out = [
        ("axioms-pass", check_axioms(line3)),
        ("axioms-fail", check_axioms(bent)),
        ("tnorm-builtin", tn_check_axioms(TNorm.product(), UNIT)),
        ("tnorm-fail", TNormAxiomReport(0.0, 0.125, 0.0, 0.25, 0.0)),
        ("net-exact", find_net(line4, 1.0, 0.4)),
        ("net-greedy", greedy),
        ("upper", gh_fuzzy_upper_bound(line3, bent, 1.0)),
    ]

    # more than 20 floor violations, none with a nonpositive floor
    unbounded = SequenceFamily(
        tuple(make_standard_space(["a", "b"], m, TNorm.product()) for m in _growing_pairs((1, 2, 6))),
        floor=Stationary(0.25),
    )
    out.append(("floor-many", check_diameter_floor(unbounded)))

    # more than 20 ratio witnesses, a pigeonhole table and a failing group
    nocauchy = gen_no_cauchy_family(8)
    register_nets(nocauchy, 0.5, 0.1)
    table, group = pigeonhole_subsequence(nocauchy, 0.5, 0.1)
    out += [
        ("floor-pass", check_diameter_floor(nocauchy)),
        ("ratio-many", check_ratio_condition(nocauchy, 0.5, 0.1)),
        ("table", table),
        ("group", certify_group(nocauchy, group, 0.5, 0.1)),
        ("no-cauchy", verify_no_cauchy(gen_no_cauchy_family(4))),
    ]

    minimum = _stationary_family([0.5, 0.5], TNorm.minimum())
    metrics = [random_metric(rng, 3, lo=0.3, hi=4.5) for _ in range(3)]
    out += [
        ("stationary-pass", check_stationary_hypotheses(_stationary_family([0.5, 0.52, 0.5]), 0.3)),
        ("stationary-none", check_stationary_hypotheses(minimum, 0.3)),
        ("bridge-pass", standard_bridge_check(metrics, 5.0)[0]),
        ("bridge-fail", standard_bridge_check(_growing_pairs(range(1, 9)), 5.0)[0]),
    ]
    return out


def test_reports_cover_every_case(rng):
    reports = dict(_reports(rng))
    assert {type(r).__name__ for r in reports.values()} == {
        "AxiomReport", "TNormAxiomReport", "NetCertificate", "UpperBoundResult", "FloorReport",
        "RatioReport", "PigeonholeTable", "GroupCertificate", "StationaryReport", "BridgeReport",
        "NoCauchyReport",
    }
    assert reports["axioms-pass"].passed and not reports["axioms-fail"].passed
    assert reports["tnorm-builtin"].passed and not reports["tnorm-fail"].passed
    assert reports["net-exact"].minimal and not reports["net-greedy"].minimal
    assert len(reports["floor-many"].violations) > 20
    assert len(reports["ratio-many"].witnesses) > 20
    assert not reports["group"].passed and reports["stationary-none"].certificate is None


def test_report_mixin_matches_the_hand_written_dicts(rng):
    for name, report in _reports(rng):
        assert isinstance(report, Report), name
        got, want = report.as_dict(), report_as_dict(report)
        assert list(got.items()) == list(want.items()), name
        assert repr(got) == repr(want), name
        assert dumps_report(got) == dumps_report(want), name


def test_a_nonpositive_floor_row_writes_null():
    # the only declared difference: the hand-written dict kept the NaN
    # diameter of a nonpositive-floor row, which canonical JSON rejects
    fam = _stationary_family([0.5, 0.6])
    fam.floor = Stationary(0.0)
    report = check_diameter_floor(fam)
    assert not report.positive and math.isnan(report.violations[0][3])
    got, want = report.as_dict(), report_as_dict(report)
    assert list(got) == list(want)
    assert got["violations"] == [[s, t, c, None] for s, t, c, _ in want["violations"]]
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps_report(want)
    assert '"violations"' in dumps_report(got)

