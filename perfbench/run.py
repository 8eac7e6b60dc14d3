"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse_inbox --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed 2 --seconds 15 --trace 1
    python3 perfbench/run.py --workload campaign_grid --smoke --seconds 1

Workloads: ``sparse_inbox`` and ``dense_agreement`` (direct
``Scenario.run()``), ``serve_mixed`` (HTTP clients against ``repro
serve``) and ``campaign_grid`` (``run_campaign`` with a pool and a
file-backed cache).  ``BENCHMARK.json`` at the repository root names
the metrics and their units.

With ``--trace 0`` the run measures set-up several times (median), then
as many timed passes as take about ``--seconds`` on the development
machine (at least two), and reports the end-to-end metrics: set-up
time, median pass time, peak RSS of this process plus its largest child,
and p50/p99 latency of one operation (a scenario run, an HTTP request,
a campaign chunk that executes runs) taken per pass, median across
passes.  With ``--trace 1`` it runs one untraced pass, then the same
pass with span wrappers (``tracing.py``), and reports the per-layer
metrics; engine workloads then run every sync scenario once under
``tracemalloc`` (peak allocation) and once with ``fastpath="off"``
(on/off time ratio).
Layers a workload does not reach read 0.

Every output is checked; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``, preceded by one JSON
line of detail (sample counts, pass times, failure messages).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
MIN_PASSES = 2


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, seed: int, size: str, work: Path):
        self.root = ROOT
        self.seed = seed
        self.size = size
        self.work = work
        # Subprocesses (import probes, the server) import the package
        # from this checkout.
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    child (server subprocess, pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure_setup(workload) -> List[float]:
    return [
        workload.setup_round(keep=index == SETUP_REPEATS - 1)
        for index in range(SETUP_REPEATS)
    ]


def untraced_run(workload, seconds: float):
    setups = measure_setup(workload)
    # A fixed number of passes, so memory and counts do not depend on
    # how fast the host happens to be; a very slow host stops early.
    target = max(MIN_PASSES, round(seconds / workload.pass_s))
    passes = []
    while len(passes) < target and sum(p.wall_s for p in passes) < 2 * seconds:
        passes.append(workload.run_pass(len(passes)))
        # Checked (and its outputs dropped) between passes, untimed.
        workload.verify(passes[-1])
    workload.close()  # a server's peak RSS counts once it is waited for
    # Latency percentiles are taken per pass; the run reports their
    # median across passes, which one slow pass cannot move.
    samples = sum(len(p.latencies_ms) for p in passes)
    walls = [p.wall_s for p in passes]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "latency_p50_ms": (
            statistics.median(statistics.median(p.latencies_ms) for p in passes), samples
        ),
        "latency_p99_ms": (
            statistics.median(percentile(p.latencies_ms, 0.99) for p in passes), samples
        ),
    }
    detail = {"pass_wall_s": walls, "setup_rounds_s": setups}
    resumes = [p.extra["resume_s"] for p in passes if "resume_s" in p.extra]
    if resumes:
        detail["resume_s"] = statistics.median(resumes)
    for key in ("hits", "misses", "coalesced"):
        if any(key in p.extra for p in passes):
            detail[key] = sum(p.extra.get(key, 0) for p in passes)
    if isinstance(getattr(workload, "retries", None), int):
        detail["client_retries"] = workload.retries
    return values, passes, detail


# ---- the traced run ------------------------------------------------------


def traced_run(workload, name: str, work: Path):
    from tracing import Tracer, install, layer_values, load_records

    setup_s = workload.setup_round(keep=True)
    baseline = workload.run_pass(0)
    spans_dir = work / "spans"
    workload.start_tracing(spans_dir)
    tracer = Tracer(spans_dir)
    uninstall = install(tracer)
    try:
        traced = workload.run_pass(0, tracer=tracer)
    finally:
        uninstall()
    extra_values, extra_passes = workload.traced_extras(baseline, traced)
    tracer.flush()
    passes = [baseline, traced] + extra_passes
    for result_pass in passes:
        workload.verify(result_pass)
    records = load_records(spans_dir)
    kept = ROOT / ".perfbench" / f"trace-{name}.jsonl"
    with kept.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    values = layer_values(records)
    values.update(extra_values)
    values["trace.overhead_s"] = (traced.wall_s - baseline.wall_s, 1)
    detail = {
        "untraced_wall_s": baseline.wall_s,
        "traced_wall_s": traced.wall_s,
        "setup_s": setup_s,
        "span_records": len(records),
        "span_file": str(kept.relative_to(ROOT)),
    }
    return values, passes, detail


# ---- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-check)")
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    work = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    context = Context(args.seed, "smoke" if args.smoke else "full", work)
    workload = WORKLOADS[args.workload](context)
    try:
        if args.trace:
            values, passes, detail = traced_run(workload, args.workload, work)
        else:
            values, passes, detail = untraced_run(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [message for p in passes for message in p.errors][:10]
    metrics, report = {}, {}
    for entry in wanted:
        if not args.trace and entry["name"] not in values:
            raise RuntimeError(f"end-to-end metric {entry['name']} was not measured")
        # A layer this workload never reaches reads 0 from 0 samples.
        value, samples = values.pop(entry["name"], (0.0, 0))
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        report[entry["name"]] = {
            "value": float(value), "unit": entry["unit"], "samples": samples
        }
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        size=context.size, passes=len(passes),
        failed_frac=failed / attempted if attempted else 1.0, errors=errors,
    )
    print(json.dumps({"detail": detail, "metrics": report}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    raise SystemExit(main())
