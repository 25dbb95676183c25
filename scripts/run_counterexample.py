#!/usr/bin/env python3
"""Reproduce the divergent two-point family and certify why it has no
GH-close subsequence at the reference scale.

For each adjacent pair the exact single-scale upper bound on the GH fuzzy
distance is printed next to the closeness threshold; the damped mutual-bound
inequality that closeness would force is evaluated as well.

    PYTHONPATH=src python3 scripts/run_counterexample.py --count 8 --t 0.5 --eps 0.1
"""

import argparse

from fuzzygh import gen_no_cauchy_family, verify_no_cauchy
from fuzzygh.io import dumps_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--t", type=float, default=0.5)
    parser.add_argument("--eps", type=float, default=0.1)
    args = parser.parse_args()

    family = gen_no_cauchy_family(args.count)
    report = verify_no_cauchy(family, t=args.t, eps=args.eps)

    print(dumps_report(report.as_dict()))
    print()
    print(f"threshold for closeness: {report.threshold}")
    print(
        f"damped requirement {report.odd_value:.6f} >= {report.damped_requirement:.6f} "
        f"is {report.necessity_inequality_holds}"
    )
    for a, b, value in report.pair_upper_bounds:
        verdict = "below threshold" if value < report.threshold else "NOT below threshold"
        print(f"pair ({a}, {b}): upper bound {value:.4f} ({verdict})")
    print(f"contradiction confirmed: {report.contradiction_confirmed}")
    return 0 if report.contradiction_confirmed else 1


if __name__ == "__main__":
    raise SystemExit(main())
