"""Span tracing of fuzzygh's public functions, installed from outside the package.

Each traced function is wrapped once, and the wrapper replaces the original in
every ``fuzzygh`` module namespace that holds it, so calls made through
``from .covering import find_net`` inside the package are traced too.  A span
is (id, name, start, end, parent, counts).  Spans stay in memory until the run
writes them out; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> traced functions; "grid_values" is the FuzzySpace method
TRACED = {
    "space": ("check_axioms", "grid_values", "is_isometric", "make_standard_space"),
    "covering": ("find_net", "metric_cover_number"),
    "gluing": ("validate_union", "glue_via_nets", "persistence_delta", "attempt_net_gluing"),
    "hausdorff": ("hausdorff_fuzzy",),
    "ghdist": ("gh_fuzzy_lower_bound", "gh_fuzzy_upper_bound"),
    "sequences": (
        "check_ratio_condition",
        "register_nets",
        "check_diameter_floor",
        "certify_group",
        "standard_bridge_check",
    ),
    "io": ("load_family", "dumps_report"),
    "cli": ("main",),
}


def _axiom_counts(args, result):
    # check_axioms materializes the product and residual tensors, both
    # float64 of shape (T, n, n, n)
    cells = len(result.grid) * args[0].n ** 3
    return {"triples": cells, "computed_mb": 16 * cells / 1e6}


# span name -> function of (positional args, result) giving extra counts;
# "ok" is counted for every span that returns without raising
COUNTS = {
    "space.check_axioms": _axiom_counts,
    "ghdist.gh_fuzzy_upper_bound": lambda args, result: {"nodes": result.nodes},
    "sequences.certify_group": lambda args, result: {
        "pairs": len(result.h_values) + len(result.failures)
    },
}

# the per-layer metrics a traced run reports: name -> unit
PER_LAYER = {
    "space.check_axioms.calls": "count",
    "space.check_axioms.self_ms": "ms",
    "space.check_axioms.triples": "count",
    "space.check_axioms.computed_mb": "MB",
    "space.grid_values.self_ms": "ms",
    "space.is_isometric.self_ms": "ms",
    "space.make_standard_space.self_ms": "ms",
    "covering.find_net.calls": "count",
    "covering.find_net.self_ms": "ms",
    "covering.metric_cover_number.calls": "count",
    "covering.metric_cover_number.self_ms": "ms",
    "gluing.validate_union.calls": "count",
    "gluing.validate_union.self_ms": "ms",
    "gluing.glue_via_nets.calls": "count",
    "gluing.glue_via_nets.self_ms": "ms",
    "gluing.persistence_delta.calls": "count",
    "gluing.persistence_delta.self_ms": "ms",
    "gluing.attempt_net_gluing.calls": "count",
    "gluing.attempt_net_gluing.ok": "count",
    "hausdorff.hausdorff_fuzzy.calls": "count",
    "hausdorff.hausdorff_fuzzy.self_ms": "ms",
    "ghdist.gh_fuzzy_lower_bound.self_ms": "ms",
    "ghdist.gh_fuzzy_upper_bound.self_ms": "ms",
    "ghdist.gh_fuzzy_upper_bound.nodes": "count",
    "sequences.check_ratio_condition.self_ms": "ms",
    "sequences.register_nets.self_ms": "ms",
    "sequences.check_diameter_floor.self_ms": "ms",
    "sequences.certify_group.self_ms": "ms",
    "sequences.certify_group.pairs": "count",
    "sequences.standard_bridge_check.self_ms": "ms",
    "io.load_family.self_ms": "ms",
    "io.dumps_report.self_ms": "ms",
    "cli.main.self_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            sid, parent = self._open()
            counts = {"ok": 0}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                counts["ok"] = 1
                if count is not None:
                    counts.update(count(args, result))
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, counts))

        return functools.wraps(fn)(traced)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, {}))

    def install(self) -> None:
        """Replace each traced function in every loaded fuzzygh module."""
        modules = [m for k, m in list(sys.modules.items()) if k == "fuzzygh" or k.startswith("fuzzygh.")]
        for mod_name, names in TRACED.items():
            home = sys.modules[f"fuzzygh.{mod_name}"]
            for fname in names:
                if fname == "grid_values":
                    cls = home.FuzzySpace
                    cls.grid_values = self.wrap("space.grid_values", cls.grid_values)
                    continue
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        setattr(mod, attr, wrapped)

    def layer_metrics(self, ranges) -> dict:
        """Per-layer metrics summed over span index ranges, each with a weight.

        ``ranges`` holds (begin, end, weight) triples; the timed rounds are
        given weight 1/rounds so that their metrics are per round.
        """
        child_s: dict = defaultdict(float)
        for sid, _name, start, end, parent, _c in self.spans:
            child_s[parent] += end - start
        totals: dict = defaultdict(float)
        for begin, end_idx, weight in ranges:
            for sid, name, start, end, _parent, counts in self.spans[begin:end_idx]:
                totals[f"{name}.calls"] += weight
                totals[f"{name}.self_ms"] += weight * 1e3 * (end - start - child_s[sid])
                for key, value in counts.items():
                    totals[f"{name}.{key}"] += weight * value
        out = {}
        for metric, unit in PER_LAYER.items():
            value = totals.get(metric, 0.0)
            if unit != "ms":
                value = round(value, 6)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """One JSON array per line: [id, name, start_s, end_s, parent, counts]."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, counts in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, counts]) + "\n")
