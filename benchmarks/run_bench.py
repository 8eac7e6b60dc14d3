#!/usr/bin/env python
"""Standalone engine benchmark runner (no pytest dependency).

Times a handful of representative simulation scenarios and writes a
machine-readable ``BENCH_engine.json`` at the repo root so successive
PRs can track the performance trajectory of the synchronous engine.

Scenarios are pure data: each entry below is a serialized
:class:`repro.api.Scenario` dict (protocol, engine, adversary spec,
delay model, limits), so adding a benchmark case means adding a dict -
the same dict ``python -m repro run --scenario`` accepts.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # tiny sizes
    PYTHONPATH=src python benchmarks/run_bench.py --out /tmp/bench.json

Exits nonzero if any scenario crashes or produces an incomplete run, so
a smoke invocation can be wired into CI / the test suite.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.tables import format_number  # noqa: E402
from repro.api import Scenario  # noqa: E402
from repro.sim.columnar import HAVE_NUMPY  # noqa: E402

SMOKE_SCENARIOS = [
    {
        "name": "A_small",
        "protocol": "A",
        "n": 64,
        "t": 8,
        "adversary": "random:4,max_action_index=10",
        "seed": 1,
    },
    {
        "name": "C_exponential_rounds_small",
        "protocol": "C",
        "n": 16,
        "t": 4,
        "adversary": "kill-active:3,actions_before_kill=2",
        "seed": 1,
    },
    {
        "name": "D_small",
        "protocol": "D",
        "n": 64,
        "t": 8,
        "adversary": "random:3,max_action_index=10",
        "seed": 1,
    },
    {
        "name": "D_large_t_small",
        "protocol": "D",
        "n": 128,
        "t": 16,
        "adversary": "random:4,max_action_index=10",
        "seed": 1,
    },
    {
        "name": "A_async_small",
        "protocol": "A-async",
        "engine": "async",
        "n": 64,
        "t": 8,
        "delay": "uniform:0.5,4.0",
        "crash_times": {pid: 4.0 + 7.0 * pid for pid in range(2)},
        "seed": 1,
    },
    {
        "name": "D_dynamic_small",
        "protocol": "D-dynamic",
        "n": 64,
        "t": 8,
        "seed": 1,
        "options": {"schedule": "arrivals:0x32,12x32", "cycle_length": 12},
    },
    {
        # Smoke-sized stand-in for D_n4096_t1024: large-t agreement
        # broadcasts exercising the packed Broadcast commit path.
        "name": "D_broadcast_smoke",
        "protocol": "D",
        "n": 256,
        "t": 64,
        "adversary": "random:4,max_action_index=15",
        "seed": 1,
    },
    {
        # Crash-recover path: checkpoint restores, rejoin heap, stale
        # phase replay - tracks what recovery support costs the engine.
        "name": "D_recovery_smoke",
        "protocol": "D-recovery",
        "n": 64,
        "t": 8,
        "adversary": "crash-recover:3,repair_delay=5,max_action_index=15",
        "seed": 1,
    },
    {
        # Columnar (numpy) delivery fast path at smoke size: same shape
        # as D_broadcast_smoke but with fastpath pinned on, so CI proves
        # the columnar store runs (fastpath="on" raises without numpy).
        "name": "D_columnar_smoke",
        "protocol": "D",
        "n": 256,
        "t": 64,
        "adversary": "random:4,max_action_index=15",
        "seed": 1,
        "fastpath": "on",
    },
]

FULL_SCENARIOS = [
    {
        "name": "A_n4096_t64",
        "protocol": "A",
        "n": 4096,
        "t": 64,
        "adversary": "random:32,max_action_index=25",
        "seed": 1,
    },
    {
        "name": "C_exponential_rounds",
        "protocol": "C",
        "n": 64,
        "t": 16,
        "adversary": "kill-active:15,actions_before_kill=2",
        "seed": 1,
    },
    {
        "name": "D_n4096_t64",
        "protocol": "D",
        "n": 4096,
        "t": 64,
        "adversary": "random:20,max_action_index=30",
        "seed": 1,
    },
    {
        "name": "A_n4096_t4096",
        "protocol": "A",
        "n": 4096,
        "t": 4096,
        "adversary": "random:1024,max_action_index=25",
        "seed": 1,
    },
    {
        # The bitset tentpole scenario: t^2 agreement messages per
        # round, each folding an n-unit outstanding set.
        "name": "D_n8192_t256",
        "protocol": "D",
        "n": 8192,
        "t": 256,
        "adversary": "random:64,max_action_index=40",
        "seed": 1,
    },
    {
        "name": "A_async_n4096_t64",
        "protocol": "A-async",
        "engine": "async",
        "n": 4096,
        "t": 64,
        "delay": "uniform:0.5,4.0",
        "crash_times": {pid: 4.0 + 7.0 * pid for pid in range(16)},
        "seed": 1,
    },
    {
        # Dynamic arrivals (schedule spec): periodic agreement over a
        # workload that trickles in as three bursts.
        "name": "D_dynamic_n2048_t64",
        "protocol": "D-dynamic",
        "n": 2048,
        "t": 64,
        "seed": 1,
        "options": {"schedule": "arrivals:0x1024,40x512,80x512", "cycle_length": 20},
    },
    {
        # Crash-recover at scale: repeated checkpoint restores and stale
        # phase replays on top of the D agreement machinery.
        "name": "D_recovery_n2048_t64",
        "protocol": "D-recovery",
        "n": 2048,
        "t": 64,
        "adversary": "crash-recover:16,repair_delay=8,max_action_index=30",
        "seed": 1,
    },
    {
        # The lazy-broadcast tentpole scenario: Theta(t) = 1024-recipient
        # agreement broadcasts every phase round (~8M message copies),
        # committed as shared-payload Broadcast objects end to end.
        # Default fastpath ("auto") - the columnar path when numpy is
        # importable; the pinned variants below track both paths.
        "name": "D_n4096_t1024",
        "protocol": "D",
        "n": 4096,
        "t": 1024,
        "adversary": "random:8,max_action_index=30",
        "seed": 1,
    },
    {
        # Columnar-path tentpole, pinned on: vectorized commit/drain and
        # word-parallel agreement folds.  Identical metrics to the "off"
        # row is part of the contract (the fuzz harness pins it).
        "name": "D_n4096_t1024_fastpath_on",
        "protocol": "D",
        "n": 4096,
        "t": 1024,
        "adversary": "random:8,max_action_index=30",
        "seed": 1,
        "fastpath": "on",
    },
    {
        # Pure-python baseline, pinned off: the denominator for the
        # columnar speedup headline in docs/perf.md.
        "name": "D_n4096_t1024_fastpath_off",
        "protocol": "D",
        "n": 4096,
        "t": 1024,
        "adversary": "random:8,max_action_index=30",
        "seed": 1,
        "fastpath": "off",
    },
]

# Paired on/off rows for the protocols whose processes do not read
# columns: one or two envelopes per wake, so the columnar store only adds
# per-drain numpy calls.  They back fastpath="auto" leaving these
# protocols on the pure-python store (docs/perf.md).
FULL_SCENARIOS += [
    {
        "name": f"{protocol}_n1024_t256_fastpath_{mode}",
        "protocol": protocol,
        "n": 1024,
        "t": 256,
        "adversary": "random:32",
        "seed": 1,
        "fastpath": mode,
    }
    for protocol in ("A", "B", "C", "naive")
    for mode in ("on", "off")
]


def _scenarios(smoke: bool):
    """(name, Scenario) pairs built from the data tables above."""
    return [
        (spec["name"], Scenario.from_dict(spec))
        for spec in (SMOKE_SCENARIOS if smoke else FULL_SCENARIOS)
    ]


def _virtual_rounds(rounds: int):
    """The retire round as a float, or as the exact int once it passes
    the float range (Protocol C's exponential deadlines do at t=256)."""
    try:
        return float(rounds)
    except OverflowError:
        return rounds


def run(smoke: bool, repeat: int, out_path: Path) -> int:
    results = []
    failures = 0
    for name, scenario in _scenarios(smoke):
        if scenario.fastpath == "on" and not HAVE_NUMPY:
            # Pinned-columnar rows need the optional numpy extra; their
            # absence is an environment fact, not a perf regression.
            print(f"{name}: SKIPPED (fastpath='on' requires numpy)")
            results.append({"name": name, "skipped": "numpy not installed"})
            continue
        timings = []
        result = None
        try:
            for _ in range(repeat):
                start = time.perf_counter()
                result = scenario.run()
                timings.append(time.perf_counter() - start)
        except Exception as exc:  # pragma: no cover - crash reporting path
            print(f"{name}: FAILED ({type(exc).__name__}: {exc})")
            failures += 1
            results.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        if not result.completed:
            print(f"{name}: run did not complete all work units")
            failures += 1
        best = min(timings)
        row = {
            "name": name,
            "seconds_best": round(best, 6),
            "seconds_all": [round(s, 6) for s in timings],
            "work": result.metrics.work_total,
            "messages": result.metrics.messages_total,
            "virtual_rounds": _virtual_rounds(result.metrics.retire_round),
            "completed": result.completed,
            "scenario": scenario.to_dict(),
        }
        results.append(row)
        print(
            f"{name}: {best:.3f}s  work={row['work']} messages={row['messages']} "
            f"virtual_rounds={format_number(row['virtual_rounds'])}"
        )
    payload = {
        "suite": "engine",
        "smoke": smoke,
        "repeat": repeat,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": results,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny scenario sizes (for CI smoke runs)"
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="timing repetitions per scenario"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="output JSON path (default: BENCH_engine.json at the repo root)",
    )
    args = parser.parse_args(argv)
    return run(args.smoke, max(1, args.repeat), args.out)


if __name__ == "__main__":
    raise SystemExit(main())
