"""Workload family-cli: the bridge and pigeonhole CLI verbs on families written at set-up.

Ninety operations run ``bridge --metrics`` twice, then ``pigeonhole
--family`` once, in turn, each on its own documents, run in-process through
``fuzzygh.cli.main`` with t = 1 and eps = 0.1.  A family holds 8-11 standard
spaces of 8-10 points; the counts are fixed and only the values are seeded.
Each space is a uniform rescaling of one of three templates.  A template has
2-3 tight clusters (radius 0.02) placed well beyond the ball radius
eps * t / (1 - eps), so its exact net holds one point per cluster.  The
rescalings of one template keep every net similarity in the same pigeonhole
cell, so the pigeonhole groups are the templates by construction.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import fuzzygh as fg
import fuzzygh.cli
import reference as ref

T, EPS = 1.0, 0.1
RADIUS = EPS * T / (1.0 - EPS)  # classical ball radius of a (t, eps) ball
TEMPLATES = 3
CLUSTER_RADIUS = 0.02
MIN_SEPARATION = 0.4
MIN_SPREAD = 0.01  # smallest relative width of a template's rescaling interval
# rescalings stay within these factors: clusters keep within one ball and apart
MIN_SCALE, MAX_SCALE = 0.5, 1.5
STREAM = 13
# A pigeonhole takes about three times as long as a bridge.  With the verbs
# in equal shares the median fell between the slowest bridge and the fastest
# pigeonhole and jumped with either; with two bridges to one pigeonhole it
# falls among the bridges.  Ninety operations hold several draws of each
# family shape, so the tail, among the pigeonholes, is steady too.
OPERATIONS = 90


def _template(rng, n: int, clusters: int) -> np.ndarray:
    while True:
        centers = rng.uniform(0.0, 3.0, size=(clusters, 2))
        gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(-1))
        if gaps[np.triu_indices(clusters, 1)].min() >= MIN_SEPARATION:
            break
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    radius = CLUSTER_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    pts = centers[np.arange(n) % clusters] + np.stack([np.cos(angle), np.sin(angle)], 1) * radius[:, None]
    return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))


def _cells(d: np.ndarray, net, width: float) -> np.ndarray:
    return np.floor((T / (T + d[np.ix_(net, net)])) / width)


def _scale_interval(d: np.ndarray, net, width: float) -> tuple[float, float]:
    """Factors s in [MIN_SCALE, MAX_SCALE] for which s * d keeps every net similarity in its cell."""
    lo, hi = MIN_SCALE, MAX_SCALE
    for i in net:
        for j in net:
            if i == j:
                continue
            a = math.floor((T / (T + d[i, j])) / width)
            hi = min(hi, (T / (a * width) - T) / d[i, j])
            lo = max(lo, (T / ((a + 1) * width) - T) / d[i, j])
    return lo, hi


def _family(rng, count: int, n: int, clusters: int):
    """(distance matrices, template of each space, diameter bound)."""
    while True:
        templates = [_template(rng, n, clusters) for _ in range(TEMPLATES)]
        # the bound covers every rescaling, so the floor stays below each diameter
        bound = math.ceil(MAX_SCALE * max(t.max() for t in templates) * 10.0) / 10.0
        width = (T / (T + bound)) * EPS  # pigeonhole cell width under the product norm
        nets = [ref.min_cover(tpl < RADIUS) for tpl in templates]
        spans = [_scale_interval(tpl, net, width) for tpl, net in zip(templates, nets)]
        cells = [_cells(tpl, net, width).tolist() for tpl, net in zip(templates, nets)]
        distinct = all(cells[a] != cells[b] for a in range(TEMPLATES) for b in range(a))
        if distinct and all(hi - lo >= MIN_SPREAD * hi for lo, hi in spans):
            break
    owner = [k % TEMPLATES for k in range(count)]
    mats = []
    for tpl_id in owner:
        lo, hi = spans[tpl_id]
        mats.append(templates[tpl_id] * (lo + (hi - lo) * rng.uniform(0.2, 0.8)))
    return mats, owner, bound


def _space_doc(name: str, d: np.ndarray) -> dict:
    return {
        "name": name,
        "points": [f"p{i}" for i in range(len(d))],
        "tnorm": "product",
        "metric": {"kind": "standard", "distances": d.tolist()},
    }


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def _make(rng, workdir: Path, count: int, tag: str) -> list:
    ops = []
    for k in range(count):
        size = 8 + k % 4
        n = 8 + (k // 2) % 3
        clusters = 2 + (k // 4) % 2
        mats, owner, bound = _family(rng, size, n, clusters)
        for m in mats:
            fg.validate_distance_matrix(m)
        if k % 3 != 2:
            path = workdir / f"{tag}{k:02d}-metrics.json"
            _write(path, {"metrics": [m.tolist() for m in mats]})
            argv = ["bridge", "--metrics", str(path), "--bound", repr(bound),
                    "--t", repr(T), "--eps", repr(EPS)]
        else:
            family = workdir / f"{tag}{k:02d}-family"
            family.mkdir()
            files = []
            for s, m in enumerate(mats):
                files.append(f"space_{s:03d}.json")
                _write(family / files[-1], _space_doc(f"X{s}", m))
            _write(family / "family.json", {"spaces": files, "floor": {"kind": "standard", "d": bound}})
            argv = ["pigeonhole", "--family", str(family), "--t", repr(T), "--eps", repr(EPS)]
        ops.append({"argv": argv, "mats": mats, "owner": owner})
    return ops


def setup(seed: int, workdir: Path) -> dict:
    timed = _make(np.random.default_rng([seed, STREAM]), workdir, OPERATIONS, "op")
    warm = _make(np.random.default_rng([seed, STREAM, 1]), workdir, 4, "warm")
    return {"timed": timed, "warm": warm}


def _op(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fg.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def operations(inputs) -> list:
    return [_op(e["argv"]) for e in inputs["timed"]]


def warmup(inputs) -> list:
    return [_op(e["argv"]) for e in inputs["warm"]]


def check(inputs, results) -> list[str]:
    problems = []
    for k, (spec, result) in enumerate(zip(inputs["timed"], results)):
        if result is None:
            continue
        code, out, err = result
        if code != 0:
            problems.append(f"op {k}: {spec['argv'][0]} exited {code}: {err.strip()[:200]}")
            continue
        report = json.loads(out)
        if spec["argv"][0] == "bridge":
            fuzzy = [row[1] for row in report["report"]["cover_rows"]]
            classical = [len(ref.min_cover(m < RADIUS - ref.TOL)) for m in spec["mats"]]
            if fuzzy != classical:
                problems.append(f"op {k}: fuzzy cover numbers {fuzzy} != classical {classical}")
            continue
        owner = spec["owner"]
        expected = sorted(tuple(i for i, o in enumerate(owner) if o == tpl) for tpl in set(owner))
        groups = sorted(tuple(g) for g in report["table"]["groups"])
        if groups != expected:
            problems.append(f"op {k}: pigeonhole groups {groups} != templates {expected}")
        largest = min(expected, key=lambda g: (-len(g), g[0]))
        if tuple(report["group"]) != largest:
            problems.append(f"op {k}: selected group {report['group']} != {list(largest)}")
    return problems
