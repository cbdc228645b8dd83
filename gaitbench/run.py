#!/usr/bin/env python3
"""Benchmark of gaitpipe: one command, one workload per call.

    python3 gaitbench/run.py --workload long-walk --seed 1 --seconds 40 --trace 0

Workloads: long-walk, daily-living, factors (see gaitbench/NOTES.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. Every metric is printed with its unit
and sample count; the last line is one JSON object with the keys
correct, attempted, failed and metrics. The full report, with the
environment fingerprint, failures and (traced) spans, goes to
<workdir>/results/. --smoke runs a tiny size of the workload in seconds.

The program is imported from src/ of the checkout this file sits in;
without it the command exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("long-walk", "daily-living", "factors")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for checking the harness")
    p.add_argument("--workdir", type=Path, default=ROOT / ".gaitbench_work",
                   help="scratch inputs and the results/ reports")
    return p.parse_args(argv)


def import_bench():
    """Import the benchmark against the checkout's own src/gaitpipe."""
    src = ROOT / "src"
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import gaitpipe
    if Path(gaitpipe.__file__).resolve().parent != src / "gaitpipe":
        raise ImportError(f"gaitpipe imported from {gaitpipe.__file__}, "
                          f"not from {src}")
    import bench
    return bench


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    try:
        bench = import_bench()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    args.workdir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=args.workdir))
    try:
        result = bench.WORKLOADS[args.workload](args, scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ledger, report, tracer = result.ledger, result.metrics, result.tracer

    report["failed_ratio"] = bench.metric(
        ledger.failed / max(ledger.attempted, 1), "ratio",
        ledger.attempted)
    report["peak_rss_mb"] = bench.metric(bench.peak_rss_mb(), "MB", 1)
    env = bench.fingerprint(ROOT)
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "environment": env, "attempted": ledger.attempted,
            "failures": ledger.failures,
            "missing_layers": result.missing, "metrics": report,
            "samples": result.samples,
            "spans": [s.to_json() for s in tracer.spans] if tracer else []}
    results = args.workdir / "results"
    results.mkdir(exist_ok=True)
    out = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f"{'-smoke' if args.smoke else ''}.json")
    out.write_text(json.dumps(full, indent=1) + "\n")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {ledger.attempted} operations, "
          f"{ledger.failed} failed, {ledger.refused} of them refused")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in report.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:40s} {value:>14s} {m['unit']:<10s} n={m['n']}")
    for f in ledger.failures:
        print(f"# FAILED {f['op']}: {f['type']}: {f['message']}"
              + (f" at {f['where']}" if f.get("where") else ""))
    for name in result.missing:
        print(f"# missing layer: {name} does not exist; its metrics are n/a")

    if args.trace:
        keys = (bench.PIPELINE_LAYERS if args.workload != "factors"
                else bench.FACTORS_LAYERS)
    else:
        keys = (bench.PIPELINE_E2E if args.workload != "factors"
                else bench.FACTORS_E2E)
    # A layer metric may be n/a, with the missing layer named above; an
    # end-to-end metric without a value means the run measured nothing.
    unmeasured = [] if args.trace else [k for k in keys
                                        if report[k]["value"] is None]
    for name in unmeasured:
        print(f"# NOT MEASURED {name}: no operation gave it a value")
    print(f"# full report: {out.relative_to(args.workdir.parent)}")
    line = {
        "correct": not ledger.failures and not unmeasured,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": report[k]["value"], "unit": report[k]["unit"]}
                    for k in keys if report[k]["value"] is not None},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
