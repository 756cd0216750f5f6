"""Exactness-gated benchmark of tlc.

    python3 perfbench/run.py --workload {enum-d4,queries,cone} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports tlc from src/.  One
process, jobs=1, one caller in a closed loop: each question is asked only
after the previous answer came back and passed its gate.  A run does a fixed
amount of work proportional to --seconds, sized to take about that long on
the reference machine (see perfbench/layers.json).

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it gives the failed-operation share,
raw (unscaled) wall times and per-part latencies with their sample counts.
The exit code is 0 only if every answer passed its gate.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# per-layer metrics of a traced run besides the tracer's own
TRACE_UNITS = {"trace.overhead_s": "s", "trace.spans": "count"}
clock = time.perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _measured_setup(setup, golden_mod, probe, seed, seconds):
    """Inputs of one pass, and the median scaled time of SETUP_REPEATS
    identical set-ups (fixture load plus input generation)."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample(force=True)
        t0 = clock()
        inputs = setup(golden_mod.load(), seed, seconds)
        t1 = clock()
        probe.sample(force=True)
        times.append((t1 - t0) * probe.factor(t0, t1))
    return inputs, statistics.median(times)


def _run_pass(workloads, run, inputs, probe):
    """Ask every question of `inputs` once, with a fresh store directory."""
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="store-", dir=OUT)
    rec = workloads.Recorder(probe)
    try:
        run(inputs, rec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    probe.sample(force=True)
    return rec


def _summary(args, detail_spec, recs, timings) -> dict:
    attempted = sum(r.attempted for r in recs)
    failures = [f for r in recs for f in r.failures]
    detail = {}
    for part, q in detail_spec:
        samples = timings.parts.get(part) or timings.kinds.get(part, [])
        if samples:
            detail[f"{part}_p{q}_ms"] = {"value": percentile(samples, q) * 1e3, "unit": "ms", "samples": len(samples)}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed_ops": len(failures) / max(1, attempted),
        "raw_wall_s": [r.wall_s for r in recs],
        "samples": len(timings.latency),
        "detail": detail,
        "failures": failures[:10],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("enum-d4", "queries", "cone"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    t0 = clock()
    try:
        import tlc  # noqa: F401
        import golden
        import speed
        import tracer
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    t1 = clock()
    try:
        golden.load()
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot load the golden fixture: {e}", file=sys.stderr)
        return 2

    probe = speed.Probe()
    setup, run = workloads.WORKLOADS[args.workload]
    if args.trace == 0:
        inputs, setup_s = _measured_setup(setup, golden, probe, args.seed, args.seconds)
        import_s = (t1 - t0) * probe.factor(t0, t1)
        recs = [_run_pass(workloads, run, inputs, probe)]
        timings = recs[0].timings()
        lat = timings.latency or [float("nan")]
        metrics = {
            "setup_s": (import_s + setup_s, "s"),
            "wall_s": (timings.wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        }
    else:
        # the same half-size pass twice, untraced then traced: the difference
        # in scaled wall time is the tracing overhead
        inputs, _ = _measured_setup(setup, golden, probe, args.seed, args.seconds / 2)
        untraced = _run_pass(workloads, run, inputs, probe)
        with tracer.Tracer() as tr:
            traced = _run_pass(workloads, run, inputs, probe)
        tr.write(OUT / f"spans-{args.workload}-{args.seed}.json")
        units = tracer.metric_units()
        metrics = {k: (v, units[k]) for k, v in tr.metrics().items()}
        timings = traced.timings()
        metrics["trace.overhead_s"] = (timings.wall_s - untraced.timings().wall_s, TRACE_UNITS["trace.overhead_s"])
        metrics["trace.spans"] = (len(tr.span_name), TRACE_UNITS["trace.spans"])
        recs = [untraced, traced]

    summary = _summary(args, workloads.DETAIL[args.workload], recs, timings)
    print(json.dumps(summary))
    failed = sum(len(r.failures) for r in recs)
    result = {
        "correct": failed == 0,
        "attempted": max(1, summary["attempted"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
