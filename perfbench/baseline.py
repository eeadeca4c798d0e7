"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 101 --workloads typed-sweep --out perfbench/out/check.json

Runs ``run.py`` untraced once per (seed, workload), seeds in the outer loop so
drift of the machine spreads over all workloads, and writes every run's
result with, per workload and metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
together with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from bench_stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in seeds_of(args.seeds):
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if proc.returncode not in (0, 1):
                print(proc.stderr, file=sys.stderr)
                return 2
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            runs[w].append(result)
            shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w:<13} seed {seed:<4} {wall:6.1f}s  correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {shown}", flush=True)

    summary = {}
    for w, results in runs.items():
        summary[w] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) >= 2:
                med, q1, q3, rel = spread(values)
                summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "seconds": args.seconds, "summary": summary,
                   "runs": runs}, fh, indent=1)
    for w, metrics in summary.items():
        for name, s in metrics.items():
            print(f"{w:<13} {name:<12} median {s['median']:12.5g}  "
                  f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
