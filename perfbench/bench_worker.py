"""One pass of one workload in a fresh interpreter.

    python3 perfbench/bench_worker.py --workload planar-sweep --seed 1 \
        --pass-index 0 --trace 0 --spawned <time.monotonic() at spawn>

Prints one JSON object: set-up seconds (spawn to first timed op), per-op
latencies as measured and at reference speed, failures, fingerprint
mismatches, peak RSS and, when traced, per-function span counters.  With ``--setup-only`` it
stops before the first op; with ``--catalog I/N`` it fingerprints the I-th of
N slices of every op any seed can produce (used to build the reference).
Exit code 3 means the library in this checkout could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CALIBRATION_EVERY_S = 0.2    # between ops, at most this often
CALIBRATION_EDGE = 5         # samples before the first and after the last op
CATALOG_SHUFFLE_SEED = 2212


def import_library():
    """Import planarhopf from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import planarhopf
    except ImportError as exc:
        print(f"error: cannot import planarhopf from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    if os.path.commonpath([os.path.abspath(planarhopf.__file__), SRC]) != SRC:
        print(f"error: planarhopf imported from outside {SRC}", file=sys.stderr)
        sys.exit(3)


def run_catalog(workload, part: str) -> dict:
    index, count = (int(x) for x in part.split("/"))
    from bench_check import fingerprint
    ops = workload.catalog()
    # slices of mixed ops in a fresh interpreter, like a pass: the op times
    # recorded here stratify the typed sample
    random.Random(CATALOG_SHUFFLE_SEED).shuffle(ops)
    workload.ops = ops[index::count]
    out, failed, costs = {}, [], {}

    def record(key, seconds, ok, outputs, midpoint):
        out[key] = fingerprint(outputs)
        costs[key] = seconds
        if not ok:
            failed.append(key)

    workload.timed(record)
    return {"fingerprints": out, "failed": failed, "seconds": costs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the spans when traced")
    ap.add_argument("--catalog", default=None)
    args = ap.parse_args(argv)

    import_library()
    from bench_check import aggregate, fingerprint, mismatches
    from bench_stats import speed_factors
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS

    tracer = Tracer(bool(args.trace))
    origin = time.perf_counter()
    workload = WORKLOADS[args.workload](tracer, args.seed, args.pass_index)
    if args.catalog:
        workload.setup_catalog()
        print(json.dumps(run_catalog(workload, args.catalog)))
        return 0
    with tracer.span("setup"):
        workload.setup()
    setup_s = time.monotonic() - args.spawned
    setup_end = time.perf_counter()
    workload.calibrate(CALIBRATION_EDGE)
    setup_scaled = setup_s * speed_factors(workload.calibration, [setup_end])[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_scaled": setup_scaled}))
        return 0

    latencies, midpoints, failed, observed = [], [], [], {}

    def record(key, seconds, ok, outputs, midpoint):
        latencies.append(seconds)
        midpoints.append(midpoint)
        observed[key] = fingerprint(outputs)
        if not ok:
            failed.append(key)
        if time.perf_counter() - workload.calibration[-1][0] > CALIBRATION_EVERY_S:
            workload.calibrate()

    workload.timed(record)
    workload.calibrate(CALIBRATION_EDGE)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = speed_factors(workload.calibration, midpoints)
    wrong = mismatches(observed, args.workload)
    if args.trace and args.spans:
        tracer.write(args.spans, origin)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_scaled": setup_scaled,
        "latencies": latencies,
        "scaled": [s * f for s, f in zip(latencies, factors)],
        "speed": statistics.median(factors) if factors else 1.0,
        "failed": failed,
        "mismatched": wrong,
        "terms": sum(fp[0] for fp in observed.values()),
        "digest": aggregate(fp[1] for fp in observed.values()),
        "peak_rss_mb": peak_rss_mb,
        "counters": workload.counters,
        "stats": tracer.summary() if args.trace else {},
        "spans": len(tracer.spans),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
