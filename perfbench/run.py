#!/usr/bin/env python3
"""Benchmark for homstruct: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the repository root; the benchmark imports homstruct from
``src/``. Workloads (see ``workloads.py`` and ``README.md``): corpus,
check, search, classify.

The run builds the workload's inputs from the seed, then times whole
rounds of ops until one more round would pass ``--seconds`` (at least one
round always runs). Each op's result goes through its gate outside the
timed region. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the tracer
wraps homstruct's public functions and the metrics are the per-layer
ones. Lines before it print each metric by name with its unit, the raw
wall-clock figure beside each scaled one, the gate outcome and the
record's stamp; the whole record, and in a traced run its spans, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_PROBES = 7
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

# The speed of a shared machine drifts by about 20% within a minute, and
# a run sees only part of one swing. A fixed loop of Fraction arithmetic,
# timed between ops, slows down and speeds up in proportion with the ops:
# over 8-s windows of repeated ops (2 cores, Python 3.11.7), the op time
# alone varied by 10-20% (standard deviation), its ratio to the loop time
# by 1-3%. So every
# reported time is scaled to the machine speed at which the loop takes
# REF_NOMINAL_MS; the record keeps the raw wall-clock times too.
REF_TERMS = 1500
REF_NOMINAL_MS = 10.0
REF_WINDOW = 3  # reference samples on each side of an op

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def reference_ms() -> float:
    """Milliseconds the fixed reference loop takes right now. The loop uses
    only the standard library, so no change to homstruct can move it."""
    start = time.perf_counter()
    third, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, REF_TERMS):
        acc += third * Fraction(i, i + 1)
    return (time.perf_counter() - start) * 1000


def speed_scales(refs) -> list:
    """Scale factors for the intervals between consecutive reference
    samples: interval i lies between ``refs[i]`` and ``refs[i + 1]`` and is
    scaled by the median of the samples within ``REF_WINDOW`` of it."""
    return [REF_NOMINAL_MS / statistics.median(
        refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
        for i in range(len(refs) - 1)]


def tail_percentile(ops_per_round: int) -> int:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` ops beyond
    it in one round. Fixed per workload, so faster code that fits more
    rounds into a run still reports the same percentile."""
    for q in TAIL_PERCENTILES:
        if ops_per_round * (100 - q) / 100 >= TAIL_MIN_BEYOND:
            return q
    return 50


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the git repository rooted at ROOT; None when ROOT is not
    the top of one (git must not find a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def probe_setup(workload, seed) -> float:
    """Seconds from starting a fresh interpreter until it holds the
    workload's first round of inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=os.getcwd(), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({line.strip()!r})")
    return elapsed


def timed_setup(workload, seed) -> tuple:
    """Raw and speed-scaled seconds of ``SETUP_PROBES`` fresh set-ups."""
    refs = [reference_ms()]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(probe_setup(workload, seed))
        refs.append(reference_ms())
    return raw, [s * f for s, f in zip(raw, speed_scales(refs))], refs


def run(args) -> dict:
    import workloads
    from homstruct import _kernels

    workload = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer().install()
        state = tracer.span("setup", workload.setup)
    else:
        state = workload.setup()
    rounds = [workload.round(state, rng)]
    ops_per_round = len(rounds[0])
    setup_raw, setup_scaled, setup_refs = ((), (), ()) if args.trace else \
        timed_setup(args.workload, args.seed)

    op_ms, failures, kernels_run = [], [], set()
    refs = [reference_ms()]
    loop_start = time.perf_counter()
    op_id = 0
    while True:
        round_start = time.perf_counter()
        for op in rounds[-1]:
            if tracer:
                tracer.op_id = op_id
            t0 = time.perf_counter()
            try:
                result = (tracer.span(f"op.{args.workload}", op.run) if tracer
                          else op.run())
                error = None
            except Exception as exc:  # counted as a failed op
                error = f"{type(exc).__name__}: {exc}"
            op_ms.append((time.perf_counter() - t0) * 1000)
            if tracer:
                tracer.active = False
            if error is None:
                try:
                    problems = op.gate(result)
                except Exception as exc:
                    problems = [f"gate raised {type(exc).__name__}: {exc}"]
                kernel = getattr(result, "kernel", None)
                if kernel:
                    kernels_run.add(kernel)
            else:
                problems = [error]
            if tracer:
                tracer.active = True
            if problems:
                failures.append({"op": op_id, "label": op.label,
                                 "problems": problems[:5]})
            refs.append(reference_ms())
            op_id += 1
        now = time.perf_counter()
        if now - loop_start + (now - round_start) > args.seconds:
            break
        rounds.append(workload.round(state, rng))
    if tracer:
        tracer.uninstall()

    attempted = len(op_ms)
    passed = attempted - len(failures)
    scaled_ms = [t * f for t, f in zip(op_ms, speed_scales(refs))]
    ops_per_s = passed / (sum(scaled_ms) / 1000)
    q = tail_percentile(ops_per_round)
    swept = sum(op.candidates for r in rounds for op in r)
    wall = {"ops_per_s": passed / (sum(op_ms) / 1000),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": percentile(op_ms, q)}
    if tracer:
        metrics = tracing.layer_metrics(tracer, ops_per_s)
    else:
        wall["setup_s"] = statistics.median(setup_raw)
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(scaled_ms),
            "op_tail_ms": percentile(scaled_ms, q),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "kernels_available": list(_kernels.available()),
        "kernels_run": sorted(kernels_run), "nproc": os.cpu_count(),
        "commit": commit(), "source_sha256": source_digest(),
    }
    return {
        "stamp": stamp,
        "rounds": len(rounds), "ops_per_round": ops_per_round,
        "attempted": attempted, "failed": len(failures),
        "tail_percentile": q, "metrics": metrics, "wall": wall,
        "candidates_per_s": swept / (sum(scaled_ms) / 1000) if swept else None,
        "reference_ms": {"nominal": REF_NOMINAL_MS,
                         "median": statistics.median(refs),
                         "ops": refs, "setup": setup_refs},
        "setup_s": {"wall": setup_raw, "scaled": setup_scaled},
        "failures": failures, "op_ms": op_ms, "scaled_op_ms": scaled_ms,
        "labels": [op.label for r in rounds for op in r],
        "trace": tracer.record() if tracer else None,
    }


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        import workloads
        workload = workloads.WORKLOADS[args.workload]
        workload.round(workload.setup(),
                       random.Random(f"{args.workload}:{args.seed}"))
        print("ready", flush=True)
        return 0
    try:
        import workloads  # noqa: F401  (fails when src/ is absent)
    except ImportError as exc:
        print(f"cannot import homstruct from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                     f"trace{args.trace}.json")
    out.write_text(json.dumps(record))

    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in record["metrics"].items()}
    print("stamp: " + json.dumps(record["stamp"]))
    print(f"reference loop: median {record['reference_ms']['median']:.4g} ms "
          f"during the ops; times below are scaled to {REF_NOMINAL_MS:g} ms")
    for name, m in metrics.items():
        note = ""
        if name in record["wall"]:
            note = f"  (wall clock {record['wall'][name]:.6g})"
        if name == "op_tail_ms":
            note += (f"  (p{record['tail_percentile']} of "
                     f"{record['attempted']} ops)")
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_share = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} ops failed)")
    if record["candidates_per_s"] and not args.trace:
        print(f"candidates_per_s = {record['candidates_per_s']:.6g} 1/s  "
              "(candidates the timed sweeps visited; search only, so not "
              "in BENCHMARK.json)")
    for failure in record["failures"][:10]:
        print(f"FAILED op {failure['op']} {failure['label']}: "
              f"{'; '.join(failure['problems'])}")
    print("gate: " + ("pass" if not record["failed"] else "FAIL")
          + f"  (record: {out.relative_to(ROOT)})")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
