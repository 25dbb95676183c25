"""Benchmark for fuzzygh.

    python3 bench/run.py --workload bounds-pairs --seed 1 --seconds 25 --trace 0

Runs one workload in this process on a single thread, against the package in
``src/`` of the checkout.  Set-up (generating, constructing and validating
the inputs) is timed several times: once before the warm-up, whose inputs
are used, and once after each of the first timed rounds, so that the repeats
are spread over the run.  The warm-up runs operations on inputs outside the
timed list.  Then whole rounds of the fixed timed list run until the
operations have taken ``--seconds`` in total.  Before every operation the
package's lru caches are emptied, so each operation starts as a user's first
call would.

The machine's speed drifts, by up to half within a run and within seconds.
So after every operation the run times a fixed interpreter loop that shares
no code with the package; it runs twice and the second, cache-warm run is
timed, so the probe does not depend on what the operation left in the caches.
Each operation's duration is scaled by PROBE_REF_S / the median of the
probes timed nearest to it (PROBE_WINDOW on either side, in its round): it is
reported as it would read on this machine when the probe takes PROBE_REF_S.
An operation's time is then the mean of its faster half of the rounds (at
least one), since contention from other processes only ever adds time; a
minimum would fall as the number of rounds grows with the machine's speed.
Each set-up time is scaled by the mean of two probe figures, taken just
before and just after it.
``result.json`` keeps the unscaled durations and the probe times.  The
outputs of the first round are checked afterwards, outside the timing.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Traces and per-run results are written under ``bench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up is repeated until it has run SETUP_REPEATS times and for SETUP_SECONDS,
# but at most SETUP_MAX_REPEATS times
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 3, 1.0, 9
TAIL_BEYOND = 10  # operations above the reported tail latency
PROBE_REF_S = 100e-6  # probe time that reported times are scaled to
PROBE_WINDOW = 2  # an operation is scaled by the median of 2 * PROBE_WINDOW + 1 probes


def _import_package() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import fuzzygh

    origin = Path(fuzzygh.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"fuzzygh was imported from {origin}, not from {ROOT / 'src'}")


def _clear_caches(modules) -> None:
    for mod in modules:
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _probe() -> float:
    """Seconds taken by a fixed interpreter-bound loop that shares no code with the package."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(600):
        acc += (i * 0.5) / (i + 1.0)
        table[(i, i + 1)] = acc
    return time.perf_counter() - start


def _scaled(durations, probes):
    """Each duration times PROBE_REF_S / the median of the probes nearest to it."""
    return [
        [
            d * PROBE_REF_S / statistics.median(probe_row[max(0, k - PROBE_WINDOW) : k + PROBE_WINDOW + 1])
            for k, d in enumerate(row)
        ]
        for row, probe_row in zip(durations, probes)
    ]


def _faster_half(values):
    """The smaller half of ``values``, at least one of them."""
    return sorted(values)[: max(1, len(values) // 2)]


def _probe_figure() -> float:
    """Median of a few cache-warm probe times, for work timed apart from the operations."""
    _probe()
    return statistics.median(_probe() for _ in range(2 * PROBE_WINDOW + 1))


def _rounds(ops, seconds: float, reset, between, tracer=None):
    """Whole rounds of ops until they have taken ``seconds``, calling
    ``between()`` after each round and timing the probe after each operation.

    Returns the per-round lists of operation durations, the first round's
    results, the number of failed operations and the per-round lists of
    probe times.
    """
    durations, first, failed, probes = [], None, 0, []
    spent = 0.0
    while True:
        row, results, probe_row = [], [], []
        for k, op in enumerate(ops):
            reset()
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = op()
                else:
                    with tracer.span(f"bench.op.{k}"):
                        result = op()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                failed += 1
                result = None
            row.append(time.perf_counter() - start)
            results.append(result)
            _probe()  # the timed second run finds the probe in cache, whatever the operation did
            probe_row.append(_probe())
        durations.append(row)
        probes.append(probe_row)
        spent += sum(row)
        if first is None:
            first = results
        between()
        if spent >= seconds:
            return durations, first, failed, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import fuzzygh from the checkout: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import axioms_large
    import bounds_pairs
    import family_cli
    from spans import Tracer

    workloads = {"bounds-pairs": bounds_pairs, "axioms-large": axioms_large, "family-cli": family_cli}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    modules = [m for k, m in sys.modules.items() if k == "fuzzygh" or k.startswith("fuzzygh.")]
    reset = lambda: _clear_caches(modules)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_times, setup_probes = [], []

    def timed_setup():
        workdir = run_dir / f"setup{len(setup_times)}"
        workdir.mkdir()
        before = _probe_figure()
        start = time.perf_counter()
        inputs = wl.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
        setup_probes.append(statistics.fmean([before, _probe_figure()]))
        return inputs

    def more_setups() -> bool:
        # a traced run sets up once, so that its set-up spans are one set-up's
        return tracer is None and len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS
        )

    def between():
        if more_setups():
            timed_setup()

    inputs = timed_setup()
    setup_end = len(tracer.spans) if tracer else 0
    for op in wl.warmup(inputs):
        reset()
        try:
            op()
        except Exception:  # the timed operations count failures; warm-up only logs
            traceback.print_exc()
    ops = wl.operations(inputs)
    rounds_begin = len(tracer.spans) if tracer else 0
    durations, results, failed, probes = _rounds(ops, args.seconds, reset, between, tracer)
    rounds_end = len(tracer.spans) if tracer else 0
    while more_setups():
        timed_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # failed operations are counted in "failed"; the checks cover the others
    problems = wl.check(inputs, results)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    rounds = len(durations)
    per_op = [statistics.fmean(_faster_half(col)) for col in zip(*_scaled(durations, probes))]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "operations": len(ops),
        "setup_s": setup_times,
        "durations_ms": [[1e3 * v for v in row] for row in durations],
        "probe_us": [[1e6 * v for v in row] for row in probes],
        "setup_probe_us": [1e6 * v for v in setup_probes],
    }
    if tracer:
        metrics = tracer.layer_metrics([(0, setup_end, 1.0), (rounds_begin, rounds_end, 1.0 / rounds)])
        tracer.write(run_dir / "trace.jsonl")
    else:
        if args.workload == "bounds-pairs":
            gap = bounds_pairs.gap_mean(results)
        else:  # the same seeded bounds-pairs pairs, computed after the measurement
            gap = bounds_pairs.gap_of_seed(args.seed)
        ranked = sorted(per_op)
        metrics = {
            "throughput_ops_s": {"value": len(ops) / sum(per_op), "unit": "ops/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * ranked[len(ranked) - 1 - TAIL_BEYOND], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {
                "value": statistics.median(t * PROBE_REF_S / p for t, p in zip(setup_times, setup_probes)),
                "unit": "s",
            },
            "bound_gap_mean": {"value": gap, "unit": "1"},
        }
    summary["metrics"] = metrics
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for rep in range(len(setup_times)):
        shutil.rmtree(run_dir / f"setup{rep}", ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": rounds * len(ops),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
