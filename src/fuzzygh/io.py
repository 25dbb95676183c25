"""JSON documents for spaces, value functions, unions and family directories.

All matrices are row-major full symmetric; every document is validated on
load through the library constructors, so malformed files fail with a
path-and-field diagnostic before any computation runs.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path
from typing import Union

from .errors import ConstructionError, DomainError
from .ghdist import DistanceMatrix
from .gluing import UnionMetric
from .sequences import SequenceFamily, register_nets
from .space import (
    FuzzySpace,
    make_standard_space,
    make_stationary_space,
    make_step_space,
)
from .tnorm import TNorm
from .valuefn import Standard, Stationary, Step, ValueFn, is_stationary, is_steplike


def valuefn_to_doc(f: ValueFn) -> dict:
    if isinstance(f, Standard):
        return {"kind": "standard", "d": f.d}
    if isinstance(f, Step):
        if not f.breakpoints:
            return {"kind": "stationary", "c": f.values[0]}
        return {"kind": "step", "breakpoints": list(f.breakpoints), "values": list(f.values)}
    raise ConstructionError(f"unknown value-function type {type(f)!r}")


def valuefn_from_doc(doc: dict) -> ValueFn:
    kind = _require(doc, "kind", "value-function document")
    where = f"{kind} value function"
    if kind == "step":
        return _step(doc, where)
    if kind == "standard":
        return Standard(_require(doc, "d", where, _number))
    if kind == "stationary":
        return Stationary(_require(doc, "c", where, _number))
    raise ConstructionError(f"unknown value-function kind {kind!r}")


def _symmetric(n: int, diag: float, upper: list[float]) -> list[list[float]]:
    """n x n rows with ``diag`` on the diagonal and ``upper`` on the pairs i < j,
    in the lexicographic order of ``FuzzySpace.pairs``."""
    mat = [[diag] * n for _ in range(n)]
    for (i, j), v in zip(combinations(range(n), 2), upper):
        mat[i][j] = mat[j][i] = v
    return mat


def space_to_doc(space: FuzzySpace) -> dict:
    pairs = space.pairs
    doc: dict = {
        "name": space.name,
        "points": list(space.labels),
        "tnorm": space.norm.kind,
    }
    n = space.n
    if all(isinstance(f, Standard) for f in pairs) and n > 1:
        mat = _symmetric(n, 0.0, [f.d for f in pairs])  # type: ignore[union-attr]
        doc["metric"] = {"kind": "standard", "distances": mat}
    elif all(is_stationary(f) for f in pairs):
        mat = _symmetric(n, 1.0, [f.values[0] for f in pairs])  # type: ignore[union-attr]
        doc["metric"] = {"kind": "stationary", "values": mat}
    elif all(is_steplike(f) for f in pairs):
        rows = [
            {"i": i, "j": j, "breakpoints": list(f.breakpoints), "values": list(f.values)}
            for (i, j), f in zip(combinations(range(n), 2), pairs)
        ]
        doc["metric"] = {"kind": "step", "pairs": rows}
    else:
        raise ConstructionError(
            "space mixes analytic and step entries; not representable in the document schema"
        )
    return doc


def _require(doc: dict, field: str, where: str, build=lambda value: value):
    """``build`` of the field's value; a ValueError or TypeError there names the field."""
    if not isinstance(doc, dict):
        raise ConstructionError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if field not in doc:
        raise ConstructionError(f"{where}: missing field {field!r}")
    try:
        return build(doc[field])
    except (TypeError, ValueError) as exc:
        raise ConstructionError(f"{where}: field {field!r}: {exc}") from exc


def _number(value) -> float:
    """A JSON number as a float; a string or a boolean, which ``float`` takes, is none."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"could not convert {value!r} to a number: expected a JSON number")
    return float(value)


def _index(value) -> int:
    """A JSON number with an integral value as an int; 0.5 is no index."""
    if not _number(value).is_integer():
        raise ValueError(f"index {value!r} is not an integer")
    return int(value)


def _numbers(values) -> tuple[float, ...]:
    return tuple(map(_number, values))


def _matrix(rows) -> list[tuple[float, ...]]:
    return list(map(_numbers, rows))


def _step(doc: dict, where: str) -> Step:
    return Step(_require(doc, "breakpoints", where, _numbers), _require(doc, "values", where, _numbers))


def space_from_doc(doc: dict) -> FuzzySpace:
    where = f"space {doc.get('name', '?')!r}" if isinstance(doc, dict) else "space"
    labels = _require(doc, "points", where, lambda points: [str(l) for l in points])
    norm = TNorm(_require(doc, "tnorm", where))
    metric = _require(doc, "metric", where)
    kind = _require(metric, "kind", where)
    name = str(doc.get("name", ""))
    n = len(labels)
    if kind in ("standard", "stationary"):
        field = "distances" if kind == "standard" else "values"
        make = make_standard_space if kind == "standard" else make_stationary_space
        return _require(metric, field, where, lambda m: make(labels, _matrix(m), norm, name))
    if kind == "step":
        entries = {}
        for row in _require(metric, "pairs", where, list):
            i, j = _require(row, "i", where, _index), _require(row, "j", where, _index)
            if (i, j) in entries:
                raise ConstructionError(f"{where}: duplicate step entry for pair ({i}, {j})")
            entries[(i, j)] = _step(row, where)
        expected = n * (n - 1) // 2
        if len(entries) != expected:
            raise ConstructionError(
                f"{where}: step metric needs one entry per unordered pair "
                f"({expected} expected, {len(entries)} given)"
            )
        return make_step_space(labels, entries, norm, name=name)
    raise ConstructionError(f"{where}: unknown metric kind {kind!r}")


def union_to_doc(u: UnionMetric) -> dict:
    return {
        "left": space_to_doc(u.left),
        "right": space_to_doc(u.right),
        "cross": [[valuefn_to_doc(f) for f in row] for row in u.cross],
    }


def union_from_doc(doc: dict) -> UnionMetric:
    left, right = (_require(doc, side, "union", space_from_doc) for side in ("left", "right"))
    build = lambda rows: tuple(tuple(map(valuefn_from_doc, row)) for row in rows)
    return UnionMetric(left, right, _require(doc, "cross", "union", build))


# ---------------------------------------------------------------------------
# files


def load_json(path: Union[str, Path]) -> dict:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConstructionError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConstructionError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ConstructionError(str(exc)) from exc


def _in_file(path, from_doc, doc):
    """``from_doc(doc)``; a ValueError or TypeError there names the file."""
    try:
        return from_doc(doc)
    except (TypeError, ValueError) as exc:
        raise ConstructionError(f"{path}: {exc}") from exc


def load_space(path: Union[str, Path]) -> FuzzySpace:
    return _in_file(path, space_from_doc, load_json(path))


def save_space(space: FuzzySpace, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_report(space_to_doc(space)) + "\n", encoding="utf-8")


def load_valuefn(path: Union[str, Path]) -> ValueFn:
    return _in_file(path, valuefn_from_doc, load_json(path))


def load_metrics(path: Union[str, Path]) -> list[DistanceMatrix]:
    """The distance matrices of a metrics file: a JSON list of matrices, or an
    object holding that list under ``metrics``."""
    doc = load_json(path)
    doc = doc if isinstance(doc, dict) else {"metrics": doc}
    build = lambda mats: [DistanceMatrix.from_array(_matrix(m)) for m in mats]
    return _in_file(path, lambda d: _require(d, "metrics", "metrics file", build), doc)


FAMILY_MANIFEST = "family.json"


def load_family(directory: Union[str, Path]) -> SequenceFamily:
    """Family directory: one JSON space per file plus a ``family.json`` manifest
    with the ordered file list, an optional floor and optional net registrations,
    each one row per space, all of one length, checked by ``register_nets``."""
    directory = Path(directory)
    manifest_path = directory / FAMILY_MANIFEST
    if not manifest_path.exists():
        raise ConstructionError(f"{directory}: missing {FAMILY_MANIFEST}")
    manifest = load_json(manifest_path)
    files = _require(manifest, "spaces", manifest_path, lambda fs: [directory / f for f in fs])
    spaces = tuple(map(load_space, files))
    floor = None
    if manifest.get("floor") is not None:
        floor = _require(manifest, "floor", manifest_path, valuefn_from_doc)
    family = SequenceFamily(spaces, floor=floor)
    for entry in _require(manifest, "nets", manifest_path, list) if "nets" in manifest else ():
        nets = f"{manifest_path}: nets"
        t, eps = _require(entry, "t", nets, _number), _require(entry, "eps", nets, _number)
        rows = _require(entry, "indices", nets, lambda idx: [tuple(map(_index, row)) for row in idx])
        where = f"{manifest_path}: nets at (t, eps) = ({t}, {eps})"
        if len(rows) != len(spaces) or len({len(row) for row in rows}) != 1:
            raise ConstructionError(f"{where} need one row per space, all of one length")
        try:
            register_nets(family, t, eps, indices=rows)
        except (ConstructionError, DomainError) as exc:
            raise ConstructionError(f"{where}: {exc}") from exc
    return family


def save_family(family: SequenceFamily, directory: Union[str, Path]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for k, sp in enumerate(family.spaces):
        fname = f"space_{k:03d}.json"
        save_space(sp, directory / fname)
        files.append(fname)
    manifest: dict = {"spaces": files}
    manifest["floor"] = valuefn_to_doc(family.floor) if family.floor is not None else None
    manifest["nets"] = [
        {"t": t, "eps": eps, "indices": [list(row) for row in nets]}
        for (t, eps), nets in sorted(family.nets.items())
    ]
    (directory / FAMILY_MANIFEST).write_text(dumps_report(manifest) + "\n", encoding="utf-8")


def dumps_report(obj) -> str:
    """Canonical JSON: sorted keys, stable indentation, full double precision."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
