"""planarhopf benchmark: exact sweeps, eval requests and ``suite all``.

    python3 perfbench/run.py --workload planar-sweep --seed 1 --seconds 15 --trace 0

One client, closed loop, one process at a time: the benchmark runs passes of
the workload, each in a fresh interpreter (so the library's module-global
caches start empty and peak memory is per pass), one after another until
``--seconds`` would be exceeded, and always at least one pass.  Each pass
runs a fixed, seed-determined list of ops.  The set-up time is sampled in
every pass and in extra set-up-only interpreters, and reported as a median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same inputs, writes the spans under
``perfbench/out/spans/`` and prints the per-layer metrics, including the
tracing overhead.  Every op's outputs are checked against the committed
reference fingerprints.  The last line of standard output is a JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 when
every op is correct, 1 when some op failed and 2 when the benchmark could
not run (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from bench_stats import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "bench_worker.py")
OUT = os.path.join(HERE, "out")

# run.py never imports the library; the worker processes do
WORKLOADS = ("planar-sweep", "typed-sweep", "eval-stream", "suite-all")
BUDGET_S = 170.0          # every run ends well inside 180 s
SETUP_SAMPLES = 5         # set-up measurements per run, at least

# per-layer functions reported with calls, busy_s and terms
FUNCTIONS = (
    "postlie.mkw_coproduct", "postlie.gl_product", "postlie.antipode",
    "postlie.shuffle", "coactions.cointeraction_sides",
    "coactions.admissible_partitions", "negative.cointeraction_sides_trunc",
    "negative.cointeraction_sides_ex", "negative.delta_minus",
    "deformed.delta_plus_0", "deformed.star_plus", "rough.delta_plus_pb",
    "rough.delta_minus_pb", "linalg.compare",
)
# the functions the benchmark calls more than once with the same arguments;
# every other one gets one call per input in a pass, so its repeat share is
# 0 by construction and is not reported
REPEATED = ("postlie.mkw_coproduct", "postlie.gl_product", "postlie.antipode",
            "postlie.shuffle", "deformed.star_plus", "linalg.compare")
EVAL_MODULES = ("cli", "linalg", "trees", "postlie", "coactions", "rough",
                "deformed", "negative")


class BenchError(Exception):
    pass


def spawn(args, pass_index, traced, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(pass_index),
           "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "spans", f"{args.workload}-seed{args.seed}-pass{pass_index}.jsonl")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {pass_index} exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"pass {pass_index} exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args) -> tuple:
    """Passes until the next one would end after ``--seconds``.

    Traced runs alternate an untraced and a traced pass on the same inputs."""
    start = time.monotonic()
    deadline = start + BUDGET_S
    untraced, traced = [], []
    index = 0
    while True:
        t0 = time.monotonic()
        untraced.append(spawn(args, index, False, deadline))
        if args.trace:
            traced.append(spawn(args, index, True, deadline))
        index += 1
        last = time.monotonic() - t0
        if time.monotonic() - start + last > args.seconds:
            break
    setups = list(untraced)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, 0, False, deadline, setup_only=True))
    return untraced, traced, setups


def end_to_end(untraced, setups, field="scaled") -> tuple:
    """Per-pass figures, then their median over the passes.

    ``field`` "scaled" gives times at reference speed, "latencies" wall clock."""
    rates, p50s, tails = [], [], []
    for p in untraced:
        latencies = p[field]
        rates.append(len(latencies) / sum(latencies))
        p50s.append(1000 * statistics.median(latencies))
        tail_s, pct, n = tail(latencies)
        tails.append(1000 * tail_s)
    setup = "setup_scaled" if field == "scaled" else "setup_s"
    metrics = {
        "setup_s": (statistics.median(s[setup] for s in setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(p50s), "ms"),
        "op_tail_ms": (statistics.median(tails), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
    }
    notes = [f"op_tail_ms: p{pct:.2f} of the {n} ops of a pass (the highest "
             f"percentile with at least 10 ops beyond it), median of "
             f"{len(untraced)} passes",
             f"setup_s: median of {len(setups)} set-ups"]
    return metrics, notes


def _rate(passes) -> float:
    return (sum(len(p["scaled"]) for p in passes)
            / sum(sum(p["scaled"]) for p in passes))


def per_layer(untraced, traced) -> dict:
    stats, counters = {}, {}
    for p in traced:
        for name, s in p["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "terms": 0,
                                          "repeats": 0})
            for k in acc:
                acc[k] += s[k] * p["speed"] if k == "busy_s" else s[k]
        for name, v in p["counters"].items():
            counters[name] = counters.get(name, 0) + v
    empty = {"calls": 0, "busy_s": 0.0, "terms": 0, "repeats": 0}

    def get(name):
        return stats.get(name, empty)

    def share(s):
        return s["repeats"] / s["calls"] if s["calls"] else 0.0

    m = {}
    for name in FUNCTIONS:
        s = get(name)
        m[f"{name}.calls"] = (s["calls"], "count")
        m[f"{name}.busy_s"] = (s["busy_s"], "s")
        m[f"{name}.terms"] = (s["terms"], "count")
        if name in REPEATED:
            m[f"{name}.repeat_share"] = (share(s), "ratio")
    s = get("trees.regularity")
    m["trees.regularity.calls"] = (s["calls"], "count")
    m["trees.regularity.busy_s"] = (s["busy_s"], "s")
    m["trees.regularity.repeat_share"] = (share(s), "ratio")
    s = get("grammar.render_value")
    m["grammar.render_value.calls"] = (s["calls"], "count")
    m["grammar.render_value.busy_s"] = (s["busy_s"], "s")
    m["grammar.render_value.bytes"] = (counters.get("grammar.render_value.bytes", 0), "bytes")
    s = get("cli.eval_expression")
    m["cli.eval_expression.calls"] = (s["calls"], "count")
    m["cli.eval_expression.busy_s"] = (s["busy_s"], "s")
    m["cli.eval_expression.escapes"] = (counters.get("cli.eval_expression.escapes", 0), "count")
    s = get("cli.Session")
    m["cli.Session.calls"] = (s["calls"], "count")
    m["cli.Session.busy_s"] = (s["busy_s"], "s")
    for module in EVAL_MODULES:
        m[f"eval.{module}.busy_s"] = (get(f"eval.{module}")["busy_s"], "s")
    enum = [s for name, s in stats.items() if name.startswith("enumeration.")]
    m["enumeration.calls"] = (sum(s["calls"] for s in enum), "count")
    m["enumeration.busy_s"] = (sum(s["busy_s"] for s in enum), "s")
    for name, st in sorted(stats.items()):
        if name.startswith("suites."):      # suite-all only; not gated
            m[f"{name}.busy_s"] = (st["busy_s"], "s")
    m["trace.spans"] = (sum(p["spans"] for p in traced), "count")
    m["trace.overhead_frac"] = (1.0 - _rate(traced) / _rate(untraced), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "planarhopf", "__init__.py")):
        print(f"error: no planarhopf sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        untraced, traced, setups = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = untraced + traced
    attempted = sum(len(p["latencies"]) for p in passes)
    wrong = sorted({k for p in passes for k in p["failed"] + p["mismatched"]})
    failed = sum(len(set(p["failed"] + p["mismatched"])) for p in passes)
    escapes = sum(p["counters"].get("cli.eval_expression.escapes", 0) for p in passes)

    e2e, notes = end_to_end(untraced, setups)
    wall, _ = end_to_end(untraced, setups, field="latencies")
    metrics = per_layer(untraced, traced) if args.trace else e2e
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  ops {attempted}  failed {failed}")
    print(f"  {'metric':<12} {'reference speed':>16}  {'wall clock':>14}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12} {value:16.6f}  {wall[name][0]:14.6f} {unit}")
    print(f"  machine speed: {statistics.median(p['speed'] for p in untraced):.3f}"
          f" x reference (calibration loop, median over passes)")
    for note in notes:
        print("  " + note)
    first = untraced[0]
    print(f"  pass 0 fingerprint: {first['terms']} terms, sha256 {first['digest']}")
    if escapes:
        print(f"  {escapes} malformed requests escaped as an exception other than "
              f"ParseError/TreeError; fail_frac counting them "
              f"{(failed + escapes) / attempted:.4f}")
    for key in wrong[:20]:
        print(f"  FAILED {key}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:14.6f} {unit}")
        print(f"  spans written to {os.path.relpath(os.path.join(OUT, 'spans'), ROOT)}/")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
