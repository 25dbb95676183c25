"""Command-line front end: load documents, dispatch to the library, emit JSON.

Exit codes: 0 success / all checks pass, 1 verified findings (axiom or
hypothesis failures -- reported in full), 2 usage or document errors.
Reports are deterministic: canonical JSON on stdout, human summaries on
stderr, no timestamps.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from . import io as fio
from .covering import cover_number, find_net
from .errors import (
    ConstructionError,
    DomainError,
    HypothesisError,
    SizeLimitError,
)
from .ghdist import gh_fuzzy_bounds
from .gluing import attempt_net_gluing, floor_envelope, glue_constant, union_hausdorff, validate_union
from .grids import DEFAULT_SPEC, GridSpec
from .hausdorff import SubsetRef, hausdorff_conditions, hausdorff_fuzzy
from .sequences import (
    certify_group,
    check_diameter_floor,
    check_ratio_condition,
    gen_no_cauchy_family,
    pigeonhole_subsequence,
    register_nets,
    standard_bridge_check,
    verify_no_cauchy,
)
from .space import check_axioms, t_diameter
from .tnorm import KINDS, TNorm, tn_check_axioms, tn_has_tn1, tn_leq, unit_grid, unit_grid_pairs
from .util import TOL, require_open_unit, require_positive, require_unit
from .valuefn import ZERO


def _add_common(p: argparse.ArgumentParser, tol: bool = True, grid: bool = True) -> None:
    """``--out``, and ``--tol``/``--grid`` on the verbs that read them; a verb
    without one still reports the default it works with in ``params``."""
    if tol:
        p.add_argument("--tol", type=float, default=TOL, help="comparison tolerance")
    else:
        p.set_defaults(tol=TOL)
    if grid:
        p.add_argument("--grid", type=str, default=None, help="t-grid: log:<lo>:<hi>:<count> or CSV")
    else:
        p.set_defaults(grid=None)
    p.add_argument("--out", type=str, default=None, help="write the JSON report to a file")


def _grid(args) -> Optional[GridSpec]:
    return GridSpec.parse(args.grid) if args.grid else None


def _emit(report: dict, args, summary: str) -> None:
    text = fio.dumps_report(report)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout early: point the descriptor at devnull
            # so the interpreter's final flush stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(summary, file=sys.stderr)


def _params(args, **extra) -> dict:
    out = {"tol": args.tol, "grid": args.grid or DEFAULT_SPEC}
    out.update(extra)
    return out


def _axiom_grid(text: Optional[str]) -> Sequence[float]:
    if not text:
        return unit_grid(0.25)
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise DomainError(f"--axiom-grid must be comma-separated numbers, got {text!r}") from None


def _cmd_tnorm(args) -> int:
    norm = TNorm(args.kind)
    tn1_samples = unit_grid_pairs(args.tn1_step)
    report = tn_check_axioms(norm, _axiom_grid(args.axiom_grid))
    holds, witness = tn_has_tn1(norm, tn1_samples, tol=args.tol)
    orderings = {}
    for other_kind in KINDS:
        if other_kind != args.kind:
            other = TNorm(other_kind)
            orderings[f"leq_{other_kind}"] = tn_leq(norm, other, unit_grid_pairs(0.05))
    doc = {
        "kind": args.kind,
        "axioms": report.as_dict(),
        "tn1": {"holds": holds, "witness": list(witness) if witness else None},
        "orderings": orderings,
        "params": _params(args, tn1_step=args.tn1_step),
    }
    _emit(doc, args, f"tnorm {args.kind}: axioms {'ok' if report.passed else 'FAIL'}, tn1 {holds}")
    return 0 if report.passed else 1


def _cmd_check(args) -> int:
    space = fio.load_space(args.space)
    report = check_axioms(space, _grid(args), tol=args.tol)
    doc = {"space": space.name, "report": report.as_dict(), "params": _params(args)}
    _emit(doc, args, f"check {space.name or args.space}: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_diam(args) -> int:
    space = fio.load_space(args.space)
    value = t_diameter(space, args.t)
    doc = {"space": space.name, "t": args.t, "diameter": value, "params": _params(args)}
    _emit(doc, args, f"diam_t({space.name or args.space}, t={args.t}) = {value}")
    return 0


def _labels(text: str) -> list[str]:
    """The nonblank comma-separated labels of ``text``, in the order given."""
    return [s.strip() for s in text.split(",") if s.strip()]


def _parse_subset(space, text: str) -> SubsetRef:
    return SubsetRef.from_labels(space, _labels(text))


def _cmd_hausdorff(args) -> int:
    space = fio.load_space(args.space)
    a = _parse_subset(space, args.a)
    b = _parse_subset(space, args.b)
    value = hausdorff_fuzzy(space, a, b, args.t)
    doc = {
        "space": space.name,
        "t": args.t,
        "a": list(a.indices),
        "b": list(b.indices),
        "value": value,
        "params": _params(args),
    }
    if args.eps is not None:
        holds, witnesses = hausdorff_conditions(space, a, b, args.t, args.eps, tol=args.tol)
        doc["conditions"] = {
            "eps": args.eps,
            "holds": holds,
            "uncovered": [list(w) for w in witnesses],
        }
    _emit(doc, args, f"H(A, B, t={args.t}) = {value}")
    return 0


def _add_floor(p: argparse.ArgumentParser, other: str) -> None:
    """``--floor FILE`` or ``other``, the flag of the floor the verb does not default to."""
    p.set_defaults(floor_zero=False, floor_envelope=False)
    floor = p.add_mutually_exclusive_group()
    floor.add_argument("--floor", type=str, default=None, help="value-function JSON file")
    floor.add_argument(other, action="store_true")


def _floor_fn(args, left, right, grid):
    if args.floor_zero:
        return ZERO
    if args.floor_envelope:
        return floor_envelope(left, right, grid)
    if args.floor:
        return fio.load_valuefn(args.floor)
    return None


def _cmd_glue(args) -> int:
    if args.t is not None:
        require_positive(args.t, "t")
    left = fio.load_space(args.left)
    right = fio.load_space(args.right)
    grid = _grid(args)
    floor = _floor_fn(args, left, right, grid) or ZERO
    try:
        union = glue_constant(left, right, floor, grid, tol=args.tol)
    except (HypothesisError, ConstructionError) as exc:
        _emit({"error": str(exc), "params": _params(args)}, args, f"glue: FAIL ({exc})")
        return 1
    report = validate_union(union, grid, tol=args.tol)
    doc = {
        "union": fio.union_to_doc(union),
        "axioms": report.as_dict(),
        "hausdorff_at": {str(s): union_hausdorff(union, s) for s in (args.t,) if s is not None},
        "params": _params(args),
    }
    _emit(doc, args, f"glue: union valid={report.passed}")
    return 0 if report.passed else 1


def _parse_net(space, text: str) -> tuple[int, ...]:
    """The indices of the labels in the order given: nets pair by position."""
    net = tuple(map(space.index_of, _labels(text)))
    if not net:
        raise DomainError("a net must be nonempty")
    return net


def _cmd_mdelta(args) -> int:
    require_positive(args.t, "t")
    require_open_unit(args.eps, "eps")
    left = fio.load_space(args.left)
    right = fio.load_space(args.right)
    grid = _grid(args)
    l_idx = _parse_net(left, args.net_left) if args.net_left else tuple(range(left.n))
    r_idx = _parse_net(right, args.net_right) if args.net_right else tuple(range(right.n))
    if len(l_idx) != len(r_idx):
        raise DomainError(f"nets pair by position and must be equally long, got {len(l_idx)} and {len(r_idx)} points")
    floor = _floor_fn(args, left, right, grid)
    try:
        union = attempt_net_gluing(
            left, right, args.t, args.eps, l_idx, r_idx, floor=floor, grid=grid, tol=args.tol
        )
    except (HypothesisError, ConstructionError, DomainError) as exc:
        which = getattr(exc, "which", "construction")
        _emit(
            {"error": str(exc), "failed_hypothesis": which, "params": _params(args)},
            args,
            f"mdelta: FAIL ({exc})",
        )
        return 1
    h = union_hausdorff(union, args.t)
    doc = {
        "union": fio.union_to_doc(union),
        "hausdorff": h,
        "t": args.t,
        "eps": args.eps,
        "params": _params(args),
    }
    _emit(doc, args, f"mdelta: H = {h} at t={args.t}")
    return 0


def _cmd_gh_bounds(args) -> int:
    left = fio.load_space(args.left)
    right = fio.load_space(args.right)
    bounds = gh_fuzzy_bounds(left, right, args.t, grid=_grid(args))
    doc = {
        **bounds.as_dict(),
        "witness": fio.union_to_doc(bounds.lower.witness),
        "params": _params(args),
    }
    _emit(doc, args, f"gh-bounds: [{bounds.lower.value}, {bounds.upper.value}] at t={args.t}")
    return 0


def _cmd_net(args) -> int:
    space = fio.load_space(args.space)
    cert = find_net(space, args.t, args.eps, tol=args.tol)
    doc = {"space": space.name, "net": cert.as_dict(), "params": _params(args)}
    _emit(doc, args, f"net: size {len(cert.indices)} (minimal={cert.minimal})")
    return 0


def _cmd_cover(args) -> int:
    space = fio.load_space(args.space)
    number, cert = cover_number(space, args.eps, args.t, tol=args.tol)
    doc = {
        "space": space.name,
        "cover_number": number,
        "certificate": cert.as_dict(),
        "params": _params(args),
    }
    _emit(doc, args, f"cover: {number}")
    return 0


def _cmd_pigeonhole(args) -> int:
    family = fio.load_family(args.family)
    if args.floor:
        family.floor = fio.load_valuefn(args.floor)
    if family.floor is None:
        raise DomainError("family has no floor; pass --floor")
    key = (float(args.t), float(args.eps))
    if key not in family.nets:
        register_nets(family, args.t, args.eps, tol=args.tol)
    floor_report = check_diameter_floor(family, _grid(args), tol=args.tol)
    ratio_report = check_ratio_condition(family, args.t, args.eps, tol=args.tol)
    table, group = pigeonhole_subsequence(family, args.t, args.eps)
    doc = {
        "floor": floor_report.as_dict(),
        "ratio": ratio_report.as_dict(),
        "table": table.as_dict(),
        "group": list(group),
        "params": _params(args),
    }
    ok = floor_report.passed and ratio_report.passed
    if not args.no_certify:
        cert = certify_group(family, group, args.t, args.eps, grid=_grid(args), tol=args.tol)
        doc["certificate"] = cert.as_dict()
        ok = ok and cert.passed
    lines = [f"pigeonhole: {len(table.groups)} group(s), selected size {len(group)}"]
    for g in table.groups:
        marker = "*" if g == group else " "
        lines.append(f"  {marker} group {list(g)}")
    lines.append(f"floor {'pass' if floor_report.passed else 'FAIL'}, "
                 f"ratio {'pass' if ratio_report.passed else 'FAIL'}"
                 + ("" if args.no_certify else f", certify {'pass' if ok else 'FAIL'}"))
    _emit(doc, args, "\n".join(lines))
    return 0 if ok else 1


def _cmd_bridge(args) -> int:
    report, _family = standard_bridge_check(
        fio.load_metrics(args.metrics),
        args.bound,
        t=args.t,
        eps=args.eps,
        grid=_grid(args),
        tol=args.tol,
    )
    doc = {"report": report.as_dict(), "params": _params(args, bound=args.bound)}
    _emit(doc, args, f"bridge: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_example(args) -> int:
    require_positive(args.t, "t")
    require_unit(args.eps, "eps")
    family = gen_no_cauchy_family(args.count)
    doc: dict = {"count": args.count, "params": _params(args)}
    if args.out_dir:
        fio.save_family(family, args.out_dir)
        doc["written"] = args.out_dir
    ok = True
    if args.verify:
        report = verify_no_cauchy(family, t=args.t, eps=args.eps)
        doc["verification"] = report.as_dict()
        ok = report.contradiction_confirmed
    _emit(doc, args, f"example no-cauchy: {'confirmed' if ok else 'NOT confirmed'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzygh",
        description="Computations on finite non-Archimedean fuzzy metric spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("tnorm", help="t-norm property report")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--axiom-grid", type=str, default=None)
    p.add_argument("--tn1-step", type=float, default=0.01)
    _add_common(p, grid=False)
    p.set_defaults(fn=_cmd_tnorm)

    p = sub.add_parser("check", help="verify the fuzzy-metric axioms of a space")
    p.add_argument("--space", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("diam", help="t-diameter of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--t", type=float, required=True)
    _add_common(p, tol=False, grid=False)
    p.set_defaults(fn=_cmd_diam)

    p = sub.add_parser("hausdorff", help="Hausdorff fuzzy distance between label subsets")
    p.add_argument("--space", required=True)
    p.add_argument("--a", required=True, help="comma-separated labels")
    p.add_argument("--b", required=True, help="comma-separated labels")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, default=None)
    _add_common(p, grid=False)
    p.set_defaults(fn=_cmd_hausdorff)

    p = sub.add_parser("glue", help="constant gluing of two spaces")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_floor(p, "--floor-envelope")
    p.add_argument("--t", type=float, default=None, help="also report H at this scale")
    _add_common(p)
    p.set_defaults(fn=_cmd_glue)

    p = sub.add_parser("mdelta", help="matched-net gluing of two spaces")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--net-left", type=str, default=None, help="comma-separated labels, paired by position")
    p.add_argument("--net-right", type=str, default=None, help="comma-separated labels, paired by position")
    _add_floor(p, "--floor-zero")
    _add_common(p)
    p.set_defaults(fn=_cmd_mdelta)

    p = sub.add_parser("gh-bounds", help="two-sided GH fuzzy distance bounds")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--t", type=float, required=True)
    _add_common(p, tol=False)
    p.set_defaults(fn=_cmd_gh_bounds)

    p = sub.add_parser("net", help="minimal (t, eps)-net")
    p.add_argument("--space", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p, grid=False)
    p.set_defaults(fn=_cmd_net)

    p = sub.add_parser("cover", help="cover number")
    p.add_argument("--space", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_common(p, grid=False)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("pigeonhole", help="group extraction and pairwise certification")
    p.add_argument("--family", required=True, help="family directory")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--floor", type=str, default=None)
    p.add_argument("--no-certify", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_pigeonhole)

    p = sub.add_parser("bridge", help="classical-metric family hypothesis check")
    p.add_argument("--metrics", required=True, help="JSON file with a list of distance matrices")
    p.add_argument("--bound", type=float, required=True, help="uniform diameter bound")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser("example", help="reference families")
    p.add_argument("which", choices=("no-cauchy",))
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--out-dir", type=str, default=None)
    _add_common(p, tol=False, grid=False)
    p.set_defaults(fn=_cmd_example)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built once per process on first use.

    Building it costs more than parsing most command lines, and parsing leaves
    it unchanged.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not 0.0 <= args.tol < math.inf:
            raise DomainError(f"--tol must be finite and >= 0, got {args.tol!r}")
        return args.fn(args)
    except (ConstructionError, DomainError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
