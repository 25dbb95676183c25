import json

import pytest

from fuzzygh import (
    ConstructionError,
    FuzzySpace,
    Standard,
    Stationary,
    Step,
    ZERO,
    glue_constant,
    make_step_space,
)
from fuzzygh.io import (
    dumps_report,
    load_family,
    load_metrics,
    load_space,
    load_valuefn,
    save_family,
    save_space,
    space_from_doc,
    space_to_doc,
    union_from_doc,
    union_to_doc,
    valuefn_from_doc,
    valuefn_to_doc,
)
from fuzzygh.sequences import gen_no_cauchy_family, register_nets

from conftest import make_random_standard, make_random_stationary


def test_valuefn_roundtrip():
    for f in (Step((1.0, 2.0), (0.1, 0.5, 1.0)), Standard(3.5), Stationary(0.25)):
        assert valuefn_from_doc(valuefn_to_doc(f)) == f


def test_stationary_docs_round_trip_byte_identically():
    doc = {"kind": "stationary", "c": 0.25}
    text = dumps_report(doc)
    assert dumps_report(valuefn_to_doc(valuefn_from_doc(json.loads(text)))) == text
    space_doc = {
        "name": "stat3",
        "points": ["a", "b", "c"],
        "tnorm": "product",
        "metric": {"kind": "stationary", "values": [[1.0, 0.5, 0.7], [0.5, 1.0, 0.6], [0.7, 0.6, 1.0]]},
    }
    text = dumps_report(space_doc)
    assert dumps_report(space_to_doc(space_from_doc(json.loads(text)))) == text


def test_breakpoint_less_step_docs_are_written_as_stationary():
    f = valuefn_from_doc({"kind": "step", "breakpoints": [], "values": [0.4]})
    assert f == Stationary(0.4)
    assert valuefn_to_doc(f) == {"kind": "stationary", "c": 0.4}
    doc = {
        "name": "flat",
        "points": ["a", "b", "c"],
        "tnorm": "product",
        "metric": {
            "kind": "step",
            "pairs": [
                {"i": 0, "j": 1, "breakpoints": [], "values": [0.5]},
                {"i": 0, "j": 2, "breakpoints": [], "values": [0.7]},
                {"i": 1, "j": 2, "breakpoints": [], "values": [0.6]},
            ],
        },
    }
    sp = space_from_doc(doc)
    out = space_to_doc(sp)
    assert out["metric"] == {
        "kind": "stationary",
        "values": [[1.0, 0.5, 0.7], [0.5, 1.0, 0.6], [0.7, 0.6, 1.0]],
    }
    assert space_from_doc(out) == sp


def test_step_docs_with_constant_values_are_written_as_stationary():
    # a step drops the breakpoints across which its value does not change
    f = valuefn_from_doc({"kind": "step", "breakpoints": [1.0, 2.0], "values": [0.4, 0.4, 0.4]})
    assert f == Stationary(0.4)
    assert valuefn_to_doc(f) == {"kind": "stationary", "c": 0.4}
    g = valuefn_from_doc({"kind": "step", "breakpoints": [1.0, 2.0], "values": [0.4, 0.4, 0.9]})
    assert valuefn_to_doc(g) == {"kind": "step", "breakpoints": [2.0], "values": [0.4, 0.9]}


def test_unreadable_files_are_document_errors(tmp_path):
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe{}")
    cases = [("list.json", "expected a JSON object"), ("binary.json", "binary.json: not UTF-8")]
    for name, match in [*cases, ("", "Is a directory")]:
        with pytest.raises(ConstructionError, match=match):
            load_space(tmp_path / name)


def test_valuefn_bad_docs():
    with pytest.raises(ConstructionError):
        valuefn_from_doc({"d": 1.0})
    with pytest.raises(ConstructionError):
        valuefn_from_doc({"kind": "spline"})


def test_valuefn_doc_rejects_an_infinite_distance():
    doc = json.loads('{"kind": "standard", "d": Infinity}')
    with pytest.raises(ConstructionError, match="finite"):
        valuefn_from_doc(doc)


def test_space_roundtrip_all_kinds(rng, product, line4, two_point_half):
    step_space = make_step_space(
        ["a", "b"], {(0, 1): Step((2.0,), (0.5, 1.0))}, product, name="step2"
    )
    for sp in (line4, two_point_half, step_space, make_random_standard(rng, 5, product)):
        assert space_from_doc(space_to_doc(sp)) == sp


def test_space_doc_schema_shape(line4):
    doc = space_to_doc(line4)
    assert doc["tnorm"] == "product"
    assert doc["metric"]["kind"] == "standard"
    assert len(doc["metric"]["distances"]) == 4
    # row-major full symmetric
    assert doc["metric"]["distances"][0][3] == doc["metric"]["distances"][3][0] == 3


def test_space_doc_validation_errors(line4):
    doc = space_to_doc(line4)
    doc["metric"]["distances"][0][1] = 99.0  # breaks symmetry
    with pytest.raises(ConstructionError):
        space_from_doc(doc)
    with pytest.raises(ConstructionError):
        space_from_doc({"points": ["a"], "tnorm": "product"})
    with pytest.raises(ConstructionError):
        space_from_doc({"name": "x", "points": ["a"], "tnorm": "frank", "metric": {}})


def test_space_doc_guards(product):
    mixed = FuzzySpace("s", ("a", "b", "c"), product, (Standard(1.0), Step((1.0,), (0.5, 1.0)), Standard(1.0)))
    pair = {"i": 0, "j": 1, "breakpoints": [1.0], "values": [0.5, 1.0]}
    doc = lambda metric: {"name": "s", "points": ["a", "b"], "tnorm": "product", "metric": metric}
    for call, message in (
        (lambda: space_to_doc(mixed), "space mixes analytic and step entries; not representable in the document schema"),
        (lambda: space_from_doc(doc({"kind": "step", "pairs": [pair, pair]})),
         "space 's': duplicate step entry for pair (0, 1)"),
        (lambda: space_from_doc(doc({"kind": "spline"})), "space 's': unknown metric kind 'spline'"),
    ):
        with pytest.raises(ConstructionError) as err:
            call()
        assert str(err.value) == message


def test_step_doc_requires_every_pair(product):
    doc = {
        "name": "bad",
        "points": ["a", "b", "c"],
        "tnorm": "product",
        "metric": {
            "kind": "step",
            "pairs": [{"i": 0, "j": 1, "breakpoints": [1.0], "values": [0.5, 1.0]}],
        },
    }
    with pytest.raises(ConstructionError, match="pair"):
        space_from_doc(doc)


def test_union_roundtrip(rng, product):
    x = make_random_standard(rng, 2, product)
    y = make_random_stationary(rng, 2, product)
    u = glue_constant(x, y, ZERO)
    assert union_from_doc(union_to_doc(u)) == u


def test_file_roundtrip(tmp_path, rng, product):
    sp = make_random_standard(rng, 4, product, name="disk")
    path = tmp_path / "space.json"
    save_space(sp, path)
    assert load_space(path) == sp


def test_bad_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ConstructionError, match="broken.json"):
        load_space(path)


def test_family_directory_roundtrip(tmp_path):
    fam = gen_no_cauchy_family(4)
    register_nets(fam, 0.5, 0.1)
    save_family(fam, tmp_path / "fam")
    loaded = load_family(tmp_path / "fam")
    assert loaded.spaces == fam.spaces
    assert loaded.floor == fam.floor
    assert loaded.nets == fam.nets


def test_family_net_rows_out_of_range_name_the_manifest_entry(tmp_path):
    fam = gen_no_cauchy_family(4)
    register_nets(fam, 0.5, 0.1)
    save_family(fam, tmp_path / "fam")
    path = tmp_path / "fam" / "family.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["nets"][0]["indices"][1][0] = 99
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ConstructionError) as err:
        load_family(tmp_path / "fam")
    assert str(err.value) == (
        f"{path}: nets at (t, eps) = (0.5, 0.1): point index 99 out of range for n=2"
    )


def test_family_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ConstructionError, match="family.json"):
        load_family(tmp_path / "empty")


def test_dumps_report_is_deterministic():
    a = dumps_report({"b": 1.0, "a": [1e-12, 0.3333333333333333]})
    b = dumps_report({"a": [1e-12, 0.3333333333333333], "b": 1.0})
    assert a == b
    # full double precision round-trips
    assert json.loads(a)["a"][1] == 0.3333333333333333


def test_values_of_the_wrong_type_name_the_file_and_the_field(tmp_path, line4):
    doc = space_to_doc(line4)
    doc["metric"]["distances"][0][1] = "x"
    with pytest.raises(ConstructionError, match="field 'distances': could not convert"):
        space_from_doc(doc)
    cases = [
        (load_space, doc, "field 'distances'"),
        (load_valuefn, {"kind": "standard", "d": "x"}, "standard value function: field 'd'"),
        (load_valuefn, {"kind": "step", "breakpoints": 1.0, "values": [0.5, 1.0]}, "field 'breakpoints'"),
        (load_metrics, {"x": 1}, "missing field 'metrics'"),
        (load_metrics, {"metrics": 3}, "field 'metrics': 'int' object is not iterable"),
        (load_metrics, [[[0, "x"], ["x", 0]]], "could not convert"),
    ]
    for k, (load, content, match) in enumerate(cases):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(ConstructionError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}: ") and match in str(err.value)


def test_family_manifest_values_of_the_wrong_type_name_the_manifest(tmp_path):
    fam = gen_no_cauchy_family(4)
    register_nets(fam, 0.5, 0.1)
    save_family(fam, tmp_path / "fam")
    path = tmp_path / "fam" / "family.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for field, value, match in [
        ("spaces", 3, "field 'spaces'"),
        ("floor", {"kind": "standard", "d": "x"}, "field 'floor': standard value function: field 'd'"),
        ("nets", [{"t": "x", "eps": 0.1, "indices": []}], "nets: field 't'"),
    ]:
        path.write_text(json.dumps({**manifest, field: value}), encoding="utf-8")
        with pytest.raises(ConstructionError) as err:
            load_family(tmp_path / "fam")
        assert str(err.value).startswith(f"{path}: ") and match in str(err.value)


def test_metrics_files_load_as_distance_matrices(tmp_path):
    metrics = [[[0, 1.0], [1.0, 0]], [[0, 2.0], [2.0, 0]]]
    for k, content in enumerate((metrics, {"metrics": metrics})):
        path = tmp_path / f"metrics{k}.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        assert [m.as_array().tolist() for m in load_metrics(path)] == metrics


def test_only_json_numbers_are_numbers(tmp_path, line4):
    """A string or a boolean where a number belongs, and a fractional index,
    is a document error naming the file and the field, never a value."""
    std = space_to_doc(line4)
    std["metric"]["distances"][0][1] = std["metric"]["distances"][1][0] = "1.5"
    stat = {"name": "s", "points": ["a", "b"], "tnorm": "product",
            "metric": {"kind": "stationary", "values": [[True, 0.5], [0.5, 1]]}}
    step = {"name": "s", "points": ["a", "b"], "tnorm": "product",
            "metric": {"kind": "step", "pairs": [{"i": 0, "j": 1, "breakpoints": [], "values": [0.5]}]}}
    cases = [
        (load_space, std, "field 'distances': could not convert '1.5'"),
        (load_space, stat, "field 'values': could not convert True"),
        (load_valuefn, {"kind": "stationary", "c": False}, "field 'c': could not convert False"),
        (load_valuefn, {"kind": "standard", "d": True}, "field 'd'"),
        (load_valuefn, {"kind": "step", "breakpoints": ["1"], "values": [0.5, 1.0]}, "field 'breakpoints'"),
        (load_metrics, [[[0, True], [True, 0]]], "field 'metrics': could not convert True"),
    ]
    for i, j, match in ((0.5, 1, "field 'i': index 0.5 is not an integer"),
                        (0, True, "field 'j': could not convert True"),
                        (0, "1", "field 'j': could not convert '1'")):
        pairs = [{**step["metric"]["pairs"][0], "i": i, "j": j}]
        cases.append((load_space, {**step, "metric": {"kind": "step", "pairs": pairs}}, match))
    for k, (load, content, match) in enumerate(cases):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        with pytest.raises(ConstructionError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}: ") and match in str(err.value)
    step["metric"]["pairs"][0].update(i=0.0, j=1.0)  # integral numbers are indices
    assert space_from_doc(step).n == 2


def test_family_net_indices_must_be_integral(tmp_path):
    fam = gen_no_cauchy_family(4)
    register_nets(fam, 0.5, 0.1)
    save_family(fam, tmp_path / "fam")
    path = tmp_path / "fam" / "family.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    rows = manifest["nets"][0]["indices"]
    for bad, match in (([0.5, 1.5], "index 0.5 is not an integer"), ([0, "1"], "could not convert '1'"),
                       ([False, 1], "could not convert False")):
        nets = [{**manifest["nets"][0], "indices": [bad, *rows[1:]]}]
        path.write_text(json.dumps({**manifest, "nets": nets}), encoding="utf-8")
        with pytest.raises(ConstructionError) as err:
            load_family(tmp_path / "fam")
        assert str(err.value).startswith(f"{path}: nets: field 'indices': ") and match in str(err.value)
    for value in ("0.5", True):
        nets = [{**manifest["nets"][0], "t": value}]
        path.write_text(json.dumps({**manifest, "nets": nets}), encoding="utf-8")
        with pytest.raises(ConstructionError, match="field 't': could not convert"):
            load_family(tmp_path / "fam")
