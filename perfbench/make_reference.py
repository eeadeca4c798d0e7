"""Rebuild the reference fingerprints from the library in this checkout.

    python3 perfbench/make_reference.py

Runs every op any seed can produce (the workloads' catalogs) in fresh
interpreters, slice by slice, and writes ``data/reference.json.gz`` (op key ->
[terms, digest]) and ``data/strata.json`` (the milliseconds each typed-pool
tree's op took here, by the tree's text form; the typed sample is stratified
by them).
Run it only at a commit whose outputs are known to be right: the benchmark
treats these fingerprints as the truth.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# typed slices are about the size of a typed-sweep pass (145 ops)
SLICES = {"planar-sweep": 1, "typed-sweep": 21, "eval-stream": 4, "suite-all": 1}


def run_slice(workload: str, part: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "bench_worker.py"), "--workload", workload,
           "--seed", "1", "--spawned", repr(time.monotonic()), "--catalog", part]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    tasks = [(w, f"{i}/{n}") for w, n in SLICES.items() for i in range(n)]
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        results = list(pool.map(lambda t: run_slice(*t), tasks))
    reference = {w: {} for w in SLICES}
    seconds, failed = {}, []
    for (workload, _), res in zip(tasks, results):
        reference[workload].update(res["fingerprints"])
        seconds.update(res["seconds"])
        failed += res["failed"]
    if failed:
        print("ops failed; no reference written:", *failed[:20], sep="\n  ",
              file=sys.stderr)
        return 1
    with gzip.open(os.path.join(HERE, "data", "reference.json.gz"), "wt",
                   encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from planarhopf.grammar import serialize_basis
    from bench_trace import Tracer
    from bench_workloads import TypedSweep

    typed = TypedSweep(Tracer(False), 0)
    typed.setup_catalog()
    strata = {kind: {key: round(1000 * seconds[f"{kind}|{key}"], 3)
                     for key in map(serialize_basis, pool)}
              for kind, pool in (("d1", typed.pool1), ("d2", typed.pool2))}
    with open(os.path.join(HERE, "data", "strata.json"), "w", encoding="utf-8") as fh:
        json.dump(strata, fh, separators=(",", ":"))
    for workload, table in reference.items():
        print(f"{workload}: {len(table)} reference fingerprints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
