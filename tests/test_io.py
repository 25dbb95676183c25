import json

import pytest

from fuzzygh import (
    ConstructionError,
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
    load_space,
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
