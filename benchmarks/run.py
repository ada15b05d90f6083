#!/usr/bin/env python3
"""Run every perfbench workload for fixed seeds and write one BENCH record.

    python benchmarks/run.py --out benchmarks/BENCH_<n>.json

Each (workload, seed) pair runs ``perfbench/run.py --trace 0`` in its own
interpreter, one after another, from the root of the checkout ``--root``
(this one by default), so the run measures that checkout's ``src/``. The
record holds every run's end-to-end metrics, their median per workload,
and a stamp: the Python version, the kernels available, the kernels
that ran (in all, and per workload) and ``source_sha256``, the digest
of the ``src/`` that ran. ``perfbench/README.md`` describes the
workloads and the metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "check", "search", "classify")
SEEDS = (1, 2, 3)
SECONDS = 30  # each run's length, as BENCHMARK.json runs it


def perfbench(root, workload, seed):
    """The stamp and the end-to-end metrics of one perfbench run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    stamp = json.loads(next(line for line in lines
                            if line.startswith("stamp: "))[len("stamp: "):])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} ops failed their gates")
    return stamp, {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--root", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    stamps, workloads = [], {}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            stamp, metrics = perfbench(args.root, workload, seed)
            stamps.append(stamp)
            runs.append({"seed": seed, "metrics": metrics})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {value:.4g}" for name, value in metrics.items()),
                flush=True)
        workloads[workload] = {
            "kernels_run": sorted({k for s in stamps
                                   if s["workload"] == workload
                                   for k in s["kernels_run"]}),
            "median": {name: statistics.median(r["metrics"][name]
                                               for r in runs)
                       for name in runs[0]["metrics"]},
            "runs": runs}
    first = stamps[0]
    record = {
        "stamp": {"python": first["python"],
                  "kernels_available": first["kernels_available"],
                  "kernels_run": sorted({k for s in stamps
                                         for k in s["kernels_run"]}),
                  "nproc": first["nproc"],
                  "source_sha256": first["source_sha256"],
                  "seconds": SECONDS, "seeds": list(SEEDS)},
        "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
