#!/usr/bin/env python3
"""Benchmark of the airmia pipeline; run from the root of a source checkout.

    python3 perfbench/run.py --workload {cell,staged,matrix} --seed N \\
        --seconds S --trace {0,1}

One process runs one workload as a closed loop: operations back to back
until S seconds have passed, at least one (two when traced). With
--trace 0 it reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb); with --trace 1 the operations alternate untraced and traced,
and it reports the per-layer metrics from the traced ones plus the tracing
overhead. Every operation's output is checked; the last stdout line is the
JSON result. A full record (environment included) goes to
perfbench/results/, and a traced run's spans to perfbench/results/*.json.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cell", "staged", "matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def cpu_seconds() -> float:
    """User plus system CPU of this process (all its threads) and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_workload(args, work: Path, import_s: float):
    """Set up, then run rounds until args.seconds pass. Returns (setup, ops, tracer)."""
    from airbench import layers, tracing, workloads

    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    setup = workload.setup()
    setup["import_s"] = import_s
    setup["setup_s"] = import_s + setup["warmup_median_s"] + setup["reference_s"]

    tracer = tracing.Tracer() if args.trace else None
    # A traced run pairs every traced operation with an untraced one before it.
    per_round = 2 if tracer is not None else 1
    ops = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < args.seconds:
        for _ in range(per_round):
            index = len(ops)
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install(layers.MODULES, layers.TARGETS, layers.COUNTERS)
            span = tracer.span if traced else workloads.no_span
            result, error = None, None
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                result = workload.operation(index, span)
            except Exception as exc:  # a failing operation is counted, not fatal
                error = f"operation raised {type(exc).__name__}: {exc}"
            finally:
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
                if traced:
                    tracer.uninstall()
            if error is None:
                try:
                    outcome = workload.check(index, result)
                except Exception as exc:  # an output the checks cannot read is wrong
                    outcome = workloads.Outcome(
                        problems=[f"check raised {type(exc).__name__}: {exc}"])
            else:
                outcome = workloads.Outcome(problems=[error])
            ops.append({"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                        "persist_mb": outcome.persist_mb, "problems": outcome.problems,
                        "known_fault": outcome.known_fault, "notes": outcome.notes})
    return setup, ops, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "airmia" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'airmia'}; "
              "run from the root of an airmia source checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from airbench import envinfo, layers, micro, workloads
    import_s = time.perf_counter() - t0

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup, ops, tracer = run_workload(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak = peak_rss_mb()

    plain = [op for op in ops if not op["traced"]]
    end_to_end = {
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "wall_s": {"value": statistics.median(op["wall_s"] for op in plain), "unit": "s"},
        "cpu_s": {"value": statistics.median(op["cpu_s"] for op in plain), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    record = {"environment": envinfo.collect(ROOT, args.workload, args.seed,
                                             args.seconds, bool(args.trace)),
              "setup": setup, "operations": ops, "end_to_end": end_to_end}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if tracer is not None:
        traced = [op for op in ops if op["traced"]]
        extra = micro.step_metrics(args.seed)
        extra["harness.persist_mb"] = statistics.mean(op["persist_mb"] for op in traced)
        extra["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                     - end_to_end["wall_s"]["value"])
        metrics = layers.per_layer_metrics(tracer.totals(), tracer.counts, len(traced), extra)
        record["per_layer"] = metrics
        tracer.write(results / f"{stem}.spans.json.gz")
    else:
        metrics = end_to_end

    unexpected = [p for op in ops for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"] or op["known_fault"])
    known = sum(1 for op in ops if op["known_fault"])
    result = {"correct": not unexpected, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record["result"] = result
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    threads = record["environment"]["blas_threads"]
    print(f"workload {args.workload} seed {args.seed}: BLAS threads {threads['count']} "
          f"({threads['method']}), nproc {record['environment']['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"  operations attempted {len(ops)}, failed {failed}")
    if known:
        print(f"  {known} failed on the known fault: {workloads.KNOWN_FAULT}")
    for note in sorted({n for op in ops for n in op["notes"]}):
        print(f"  note (seed-dependent, not a failure): {note}")
    for problem in unexpected:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
