import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from fuzzygh import TNorm, attempt_net_gluing, make_standard_space, make_stationary_space
from fuzzygh import cli
from fuzzygh.cli import main
from fuzzygh.io import load_space, save_family, save_space, union_from_doc, union_to_doc
from fuzzygh.sequences import SequenceFamily, gen_no_cauchy_family
from fuzzygh.valuefn import Step


@pytest.fixture
def std3(tmp_path):
    sp = make_standard_space(
        ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], TNorm.product(), name="std3"
    )
    path = tmp_path / "std3.json"
    save_space(sp, path)
    return str(path)


@pytest.fixture
def std3min(tmp_path):
    sp = make_standard_space(
        ["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], TNorm.minimum(), name="std3min"
    )
    path = tmp_path / "std3min.json"
    save_space(sp, path)
    return str(path)


@pytest.fixture
def half(tmp_path):
    sp = make_stationary_space(["x1", "x2"], [[1, 0.5], [0.5, 1]], TNorm.product(), name="half")
    path = tmp_path / "half.json"
    save_space(sp, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_pass(capsys, std3):
    code, doc = run(capsys, "check", "--space", std3)
    assert code == 0
    assert doc["report"]["passed"]


def test_check_na1_failure_exits_one(capsys, std3min):
    code, doc = run(capsys, "check", "--space", std3min)
    assert code == 1
    assert not doc["report"]["na1"]
    assert doc["report"]["witness"] is not None


def test_missing_file_exits_two(capsys, tmp_path):
    code = main(["check", "--space", str(tmp_path / "nope.json")])
    assert code == 2


def test_malformed_document_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a", "b"], "tnorm": "product"}), encoding="utf-8")
    assert main(["check", "--space", str(bad)]) == 2


def test_unknown_flag_exits_two(std3):
    assert main(["check", "--space", std3, "--bogus"]) == 2


def test_diam(capsys, std3):
    code, doc = run(capsys, "diam", "--space", std3, "--t", "1.0")
    assert code == 0
    assert doc["diameter"] == pytest.approx(1 / 3, abs=1e-12)


def test_hausdorff_verb(capsys, std3):
    code, doc = run(capsys, "hausdorff", "--space", std3, "--a", "a", "--b", "a,c", "--t", "1.0")
    assert code == 0
    assert doc["value"] == pytest.approx(1 / 3, abs=1e-12)


def test_tnorm_verb(capsys):
    code, doc = run(capsys, "tnorm", "--kind", "product")
    assert code == 0
    assert doc["tn1"]["holds"] is True
    code, doc = run(capsys, "tnorm", "--kind", "minimum")
    assert code == 0
    assert doc["tn1"]["holds"] is False


@pytest.mark.parametrize(
    "flags",
    [
        ("--tn1-step", "0"),
        ("--tn1-step", "nan"),
        ("--tn1-step", "-1"),
        ("--tn1-step", "2"),
        ("--tn1-step", "1e-9"),
        ("--axiom-grid", "a"),
        ("--axiom-grid", ","),
        ("--axiom-grid", "0,2"),
    ],
    ids=" ".join,
)
def test_tnorm_bad_samples_exit_two(capsys, flags):
    assert main(["tnorm", "--kind", "product", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_tnorm_axiom_grid_error_names_the_flag(capsys):
    assert main(["tnorm", "--kind", "product", "--axiom-grid", "0.5,x"]) == 2
    assert capsys.readouterr().err == "error: --axiom-grid must be comma-separated numbers, got '0.5,x'\n"


def test_net_and_cover(capsys, half):
    code, doc = run(capsys, "net", "--space", half, "--t", "0.5", "--eps", "0.1")
    assert code == 0
    assert doc["net"]["indices"] == [0, 1]
    code, doc = run(capsys, "cover", "--space", half, "--eps", "0.1", "--t", "0.5")
    assert code == 0
    assert doc["cover_number"] == 2


def test_glue_floor_violation_is_a_finding(capsys, half, tmp_path):
    floor_doc = tmp_path / "floor.json"
    floor_doc.write_text(json.dumps({"kind": "stationary", "c": 0.9}), encoding="utf-8")
    code, doc = run(capsys, "glue", "--left", half, "--right", half, "--floor", str(floor_doc))
    assert code == 1
    assert "floor" in doc["error"]


def test_glue_envelope(capsys, half):
    code, doc = run(capsys, "glue", "--left", half, "--right", half, "--floor-envelope", "--t", "1.0")
    assert code == 0
    assert doc["axioms"]["passed"]


@pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
def test_glue_bad_t_exits_two_before_gluing(capsys, half, monkeypatch, t):
    def never(*args, **kwargs):
        raise AssertionError("glued with a bad --t")

    monkeypatch.setattr(cli, "glue_constant", never)
    assert main(["glue", "--left", half, "--right", half, "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: t must be positive and finite, got {float(t)!r}\n"


@pytest.mark.parametrize("verb", ["glue", "mdelta"])
def test_conflicting_floor_flags_exit_two(capsys, half, tmp_path, verb):
    floor_doc = tmp_path / "floor.json"
    floor_doc.write_text(json.dumps({"kind": "stationary", "c": 0.3}), encoding="utf-8")
    base = [verb, "--left", half, "--right", half]
    if verb == "mdelta":
        base += ["--t", "1.0", "--eps", "0.1"]
    # each verb takes the flag of the floor it does not default to: glue
    # defaults to the zero floor, mdelta to the envelope
    other, default = ("--floor-envelope", "--floor-zero") if verb == "glue" else ("--floor-zero", "--floor-envelope")
    flags = (["--floor", str(floor_doc)], [other])
    for flag in flags:
        assert main([*base, *flag]) != 2
        capsys.readouterr()
    assert main([*base, *flags[0], *flags[1]]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert main([*base, default]) == 2
    assert f"unrecognized arguments: {default}" in capsys.readouterr().err


def test_mdelta(capsys, half):
    code, doc = run(
        capsys, "mdelta", "--left", half, "--right", half, "--t", "1.0", "--eps", "0.1"
    )
    assert code == 0
    assert doc["hausdorff"] > 0.81


def test_mdelta_pairs_the_nets_in_the_order_given(capsys, std3, tmp_path):
    """Net labels pair by position: the reflection of std3 puts (a, c) at
    0.7 at t = 1, as the library's gluing through (0, 1, 2) and (2, 1, 0)
    does; two collinear spaces labelled in opposite orders glue through
    the pairing that matches them."""
    base = ["mdelta", "--left", std3, "--right", std3, "--t", "1.0", "--eps", "0.3"]
    code, doc = run(capsys, *base, "--net-left", "a,b,c", "--net-right", "c,b,a")
    assert code == 0
    x = load_space(std3)
    expected = attempt_net_gluing(x, x, 1.0, 0.3, (0, 1, 2), (2, 1, 0))
    assert doc["union"] == union_to_doc(expected)
    assert union_from_doc(doc["union"]).cross_value(0, 2, 1.0) == pytest.approx(0.7)
    code, doc = run(capsys, *base, "--net-left", "a,b,c", "--net-right", "a,b,c")
    assert code == 0 and union_from_doc(doc["union"]).cross_value(0, 0, 1.0) == pytest.approx(0.7)

    def line(name, positions):
        sp = make_standard_space(["a", "b", "c"], abs(np.subtract.outer(positions, positions)), TNorm.product(), name)
        save_space(sp, tmp_path / f"{name}.json")
        return str(tmp_path / f"{name}.json")

    left, right = line("left", np.array([0.0, 1.0, 3.0])), line("right", np.array([3.0, 1.0, 0.0]))
    base = ["mdelta", "--left", left, "--right", right, "--t", "1.0", "--eps", "0.1"]
    code, doc = run(capsys, *base, "--net-left", "a,b,c", "--net-right", "c,b,a")
    assert code == 0 and doc["hausdorff"] == pytest.approx(0.9)
    code, doc = run(capsys, *base, "--net-left", "a,b,c", "--net-right", "a,b,c")
    assert code == 1 and doc["failed_hypothesis"] == "(a)/(b)"


@pytest.mark.parametrize("net", ["a,z", ",", " , "])
def test_mdelta_bad_net_labels_exit_two(capsys, std3, net):
    argv = ["mdelta", "--left", std3, "--right", std3, "--t", "1.0", "--eps", "0.3"]
    assert main([*argv, "--net-left", net]) == 2
    assert main([*argv, "--net-right", net]) == 2
    err = capsys.readouterr().err
    assert ("unknown point label 'z'" if "z" in net else "a net must be nonempty") in err


def test_mdelta_unequal_nets_exit_two(capsys, std3, half):
    """Nets pair by position: nets of different lengths are a usage error,
    whether given (a repeated label included) or the default nets of two
    spaces of different sizes."""
    base = ["mdelta", "--t", "1.0", "--eps", "0.3"]
    for argv, sizes in (
        ([*base, "--left", std3, "--right", std3, "--net-left", "a,b"], (2, 3)),
        ([*base, "--left", std3, "--right", std3, "--net-left", "a,a", "--net-right", "a"], (2, 1)),
        ([*base, "--left", std3, "--right", half], (3, 2)),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: nets pair by position and must be equally long, got {sizes[0]} and {sizes[1]} points\n"


@pytest.mark.parametrize("verb, argv, message", [
    ("mdelta", ["--t", "1.0", "--eps", "1.0"], "eps must lie strictly between 0 and 1"),
    ("mdelta", ["--t", "1.0", "--eps", "0"], "eps must lie strictly between 0 and 1"),
    ("mdelta", ["--t", "0", "--eps", "0.3"], "t must be positive and finite, got 0.0"),
    ("bridge", ["--bound", "5.0", "--eps", "1.0"], "eps must lie strictly between 0 and 1"),
    ("bridge", ["--bound", "5.0", "--eps", "0"], "eps must lie strictly between 0 and 1"),
    ("bridge", ["--bound", "5.0", "--tol", "0.1"], "eps = 0.1 must exceed tol = 0.1: no ball holds its own centre"),
    ("example", ["--t", "-1", "--eps", "1.0"], "t must be positive and finite, got -1.0"),
    ("example", ["--eps", "1.5"], "eps must lie in [0, 1], got 1.5"),
], ids=["mdelta-eps-1", "mdelta-eps-0", "mdelta-t-0", "bridge-eps-1", "bridge-eps-0", "bridge-tol-eps",
        "example-t-neg", "example-eps-big"])
def test_out_of_range_scales_exit_two(capsys, monkeypatch, std3, tmp_path, verb, argv, message):
    """A --t or --eps outside its range, or a --tol that is not below --eps,
    is a usage error, refused before any gluing, with or without ``example
    --verify``: exit 2 with one error line, not a finding or a traceback."""
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps([[[0, 1.0], [1.0, 0]]]), encoding="utf-8")
    monkeypatch.setattr(cli, "attempt_net_gluing", None)
    monkeypatch.setattr(cli, "gen_no_cauchy_family", None)
    inputs = {
        "mdelta": ["--left", std3, "--right", std3],
        "bridge": ["--metrics", str(metrics)],
        "example": ["no-cauchy", "--count", "3"],
    }[verb]
    assert main([verb, *inputs, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_gh_bounds_schema(capsys, half):
    code, doc = run(capsys, "gh-bounds", "--left", half, "--right", half, "--t", "1.0")
    assert code == 0
    assert {"t", "lower", "upper", "witness"} <= set(doc)
    assert doc["lower"] <= doc["upper"]
    assert {"relation", "nodes"} <= set(doc["upper_info"])


def test_example_verify_exits_zero(capsys):
    code, doc = run(capsys, "example", "no-cauchy", "--count", "4", "--verify")
    assert code == 0
    assert doc["verification"]["contradiction_confirmed"]


def test_pigeonhole_on_written_family(capsys, tmp_path):
    code, doc = run(
        capsys, "example", "no-cauchy", "--count", "4", "--out-dir", str(tmp_path / "fam")
    )
    assert code == 0
    code, doc = run(
        capsys,
        "pigeonhole",
        "--family",
        str(tmp_path / "fam"),
        "--t",
        "0.5",
        "--eps",
        "0.1",
        "--no-certify",
    )
    # the ratio condition fails for this family: a finding, exit 1
    assert code == 1
    assert not doc["ratio"]["passed"]
    assert len(doc["group"]) == 2


def test_bridge_verb(capsys, tmp_path):
    metrics = [[[0, 1.0], [1.0, 0]], [[0, 2.0], [2.0, 0]]]
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(metrics), encoding="utf-8")
    code, doc = run(capsys, "bridge", "--metrics", str(path), "--bound", "3.0")
    assert code == 0
    assert doc["report"]["passed"]


@pytest.mark.parametrize("gap, tol", [(5e-4, ["--tol", "1e-3"]), (1.1e-12, [])], ids=["tol-1e-3", "default-tol"])
def test_bridge_decides_classical_balls_where_the_fuzzy_balls_end(capsys, tmp_path, gap, tol):
    """Two points just inside the classical radius eps t / (1 - eps) = 1/9,
    whose fuzzy ball compared at --tol does not reach: the classical cover
    counts two balls too, and the bridge passes; the report's radius stays
    eps t / (1 - eps)."""
    d = 1.0 / 9.0 - gap
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps([[[0, d], [d, 0]]]), encoding="utf-8")
    code, doc = run(capsys, "bridge", "--metrics", str(path), "--bound", "5", *tol)
    assert code == 0
    assert doc["report"]["cover_rows"] == [[0, 2, 2, 2]]
    assert doc["report"]["radius"] == 0.1 * 1.0 / (1.0 - 0.1)


def test_pigeonhole_without_a_floor_exits_two(capsys, tmp_path):
    save_family(SequenceFamily(gen_no_cauchy_family(2).spaces), tmp_path / "fam")
    assert main(["pigeonhole", "--family", str(tmp_path / "fam"), "--t", "0.5", "--eps", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: family has no floor; pass --floor\n"


def test_reports_are_byte_identical(capsys, std3):
    main(["check", "--space", std3])
    first = capsys.readouterr().out
    main(["check", "--space", std3])
    second = capsys.readouterr().out
    assert first == second


def test_out_file(tmp_path, capsys, std3):
    out = tmp_path / "report.json"
    code = main(["check", "--space", std3, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["report"]["passed"]


def test_main_reuses_one_parser(capsys, monkeypatch, std3, half, tmp_path):
    runs = [
        ["check", "--space", std3],
        ["check", "--space", std3, "--bogus"],
        ["diam", "--space", std3, "--t", "1.0"],
        ["check", "--space", str(tmp_path / "nope.json")],
        ["tnorm", "--kind", "product"],
        ["net", "--space", half, "--t", "1.0", "--eps", "0.3"],
        ["gh-bounds", "--left", half, "--right", std3, "--t", "1.0"],
        ["check", "--space", std3],
    ]

    def outputs():
        out = []
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    shared = outputs()
    assert cli._parser() is cli._parser()
    # the same calls, each with a freshly built parser
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in shared[1][2]



def test_gh_bounds_has_no_variable_limit_flag(capsys, half):
    assert main(["gh-bounds", "--left", half, "--right", half, "--t", "1.0", "--max-variables", "36"]) == 2
    assert "unrecognized arguments: --max-variables" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, flag",
    [
        ("tnorm", "--grid"),
        ("diam", "--grid"),
        ("hausdorff", "--grid"),
        ("net", "--grid"),
        ("cover", "--grid"),
        ("example", "--grid"),
        ("diam", "--tol"),
        ("gh-bounds", "--tol"),
        ("example", "--tol"),
    ],
)
def test_flags_a_verb_does_not_read_exit_two(capsys, half, verb, flag):
    """--tol and --grid exist only on the verbs that read them."""
    base = {
        "tnorm": ["--kind", "product"],
        "diam": ["--space", half, "--t", "1.0"],
        "hausdorff": ["--space", half, "--a", "x1", "--b", "x2", "--t", "1.0"],
        "net": ["--space", half, "--t", "1.0", "--eps", "0.5"],
        "cover": ["--space", half, "--t", "1.0", "--eps", "0.5"],
        "example": ["no-cauchy", "--count", "2"],
        "gh-bounds": ["--left", half, "--right", half, "--t", "1.0"],
    }[verb]
    value = "0.3" if flag == "--tol" else "log:1e-2:1e2:8"
    assert main([verb, *base]) == 0
    capsys.readouterr()
    assert main([verb, *base, flag, value]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_pigeonhole_reports_a_zero_floor_in_full(capsys, tmp_path):
    # a floor that is 0 below s = 0.01 gives violation rows with no diameter,
    # written as null: the verb reports the finding instead of crashing
    line = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    spaces = tuple(
        make_standard_space(["a", "b", "c"], [[k * d for d in row] for row in line], TNorm.product())
        for k in (1, 2, 3)
    )
    save_family(SequenceFamily(spaces, floor=Step((0.01,), (0.0, 0.2))), tmp_path / "fam")
    fam = str(tmp_path / "fam")
    code, doc = run(capsys, "pigeonhole", "--family", fam, "--t", "1.0", "--eps", "0.1")
    assert code == 1
    assert doc["floor"]["positive"] is False
    zero_rows = [row for row in doc["floor"]["violations"] if row[0] == -1]
    assert zero_rows and all(row[2] == 0.0 and row[3] is None for row in zero_rows)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    # the reader closes the pipe before the report is written (the child is
    # still importing numpy): no traceback, and the verb's own exit code; a
    # buffered stdout fails only at the interpreter's final flush
    fixtures = Path(__file__).parent / "golden" / "fixtures"
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "fuzzygh.cli", "gh-bounds", "--t", "1.0",
            "--left", str(fixtures / "half.json"), "--right", str(fixtures / "third.json")]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("gh-bounds: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--space", "{std3}", "--grid", "log:a:b:c"],
        ["check", "--space", "{std3}", "--grid", "log:1:10:2.5"],
        ["check", "--space", "{std3}", "--grid", "1,inf"],
        ["check", "--space", "{std3}", "--grid", "log:1:inf:4"],
        ["gh-bounds", "--left", "{half}", "--right", "{half}", "--t", "inf"],
        ["hausdorff", "--space", "{std3}", "--a", "a", "--b", "c", "--t", "inf"],
        ["diam", "--space", "{std3}", "--t", "inf"],
        ["glue", "--left", "{half}", "--right", "{half}", "--t", "inf"],
        ["net", "--space", "{half}", "--t", "1.0", "--eps", "0.1", "--tol", "nan"],
        ["net", "--space", "{half}", "--t", "1.0", "--eps", "0.1", "--tol=-1e-9"],
        ["check", "--space", "{list_doc}"],
        ["check", "--space", "{binary}"],
        ["check", "--space", "{directory}"],
        ["glue", "--left", "{half}", "--right", "{half}", "--floor", "{no_values}"],
        ["pigeonhole", "--family", "{list_family}", "--t", "1.0", "--eps", "0.1"],
        ["check", "--space", "{std3}", "--out", "{directory}"],
    ],
    ids=" ".join,
)
def test_malformed_input_exits_two(capsys, tmp_path, std3, half, argv):
    # each is a usage or document error: one "error:" line, no traceback
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    no_values = '{"kind": "step", "breakpoints": [1.0]}'
    (tmp_path / "no_values.json").write_text(no_values, encoding="utf-8")
    (tmp_path / "fam").mkdir()
    (tmp_path / "fam" / "family.json").write_text('["space_000.json"]', encoding="utf-8")
    paths = {
        "std3": std3,
        "half": half,
        "list_doc": str(tmp_path / "list.json"),
        "binary": str(tmp_path / "binary.json"),
        "directory": str(tmp_path),
        "no_values": str(tmp_path / "no_values.json"),
        "list_family": str(tmp_path / "fam"),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


BAD_VALUE_DOCS = {
    "no_metrics.json": {"x": 1},
    "int_metrics.json": {"metrics": 3},
    "string_distance.json": {
        "name": "s",
        "points": ["a", "b"],
        "tnorm": "product",
        "metric": {"kind": "standard", "distances": [[0, "x"], ["x", 0]]},
    },
    "string_floor.json": {"kind": "standard", "d": "x"},
    "off_diagonal.json": {
        "name": "s",
        "points": ["a", "b"],
        "tnorm": "product",
        "metric": {"kind": "stationary", "values": [[0.3, 0.5], [0.5, 0.0]]},
    },
}


@pytest.mark.parametrize(
    "argv, name, field",
    [
        (["bridge", "--metrics", "{doc}", "--bound", "1"], "no_metrics.json", "missing field 'metrics'"),
        (["bridge", "--metrics", "{doc}", "--bound", "1"], "int_metrics.json", "field 'metrics'"),
        (["check", "--space", "{doc}"], "string_distance.json", "field 'distances'"),
        (["glue", "--left", "{half}", "--right", "{half}", "--floor", "{doc}"], "string_floor.json", "field 'd'"),
        (["check", "--space", "{doc}"], "off_diagonal.json", "unit diagonal"),
    ],
    ids=["no-metrics", "int-metrics", "string-distance", "string-floor", "stationary-diagonal"],
)
def test_document_values_of_the_wrong_type_exit_two(capsys, tmp_path, half, argv, name, field):
    # a KeyError, TypeError or ValueError from a document's values is a
    # document error naming the file and the field, not a traceback
    doc = tmp_path / name
    doc.write_text(json.dumps(BAD_VALUE_DOCS[name]), encoding="utf-8")
    assert main([arg.format(doc=doc, half=half) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {doc}: ") and field in line
