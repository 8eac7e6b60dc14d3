"""Self-check of the benchmark's output, on real smoke-sized runs.

Run from the repository root::

    python3 -m pytest -q perfbench/check_output.py

Every workload runs at smoke size, untraced and traced; the output must
carry every metric ``BENCHMARK.json`` names, each with its unit, a sample
count and a finite number, with no failed operation.  The file is not
named ``test_*.py`` so that the repository's own test run does not
collect it.
"""

from __future__ import annotations

import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Layers each workload must reach in its traced run (samples > 0).
COVERED = {
    "sparse_inbox": [
        "api.build_s", "core.on_round_s", "sim.engine.self_s", "sim.columnar.drain_s",
        "sim.columnar.post_s", "sim.columnar.peak_alloc_mb", "sim.async_engine.run_s",
        "sim.columnar.on_off_ratio.A", "sim.columnar.on_off_ratio.B",
        "sim.columnar.on_off_ratio.naive", "sim.columnar.on_off_ratio.C",
        "trace.overhead_s",
    ],
    "dense_agreement": [
        "api.build_s", "core.on_round_s", "sim.engine.self_s", "sim.columnar.drain_s",
        "sim.columnar.peak_alloc_mb", "sim.columnar.on_off_ratio.D",
        "sim.columnar.on_off_ratio.D-dynamic", "sim.columnar.on_off_ratio.D-recovery",
        "trace.overhead_s",
    ],
    "serve_mixed": [
        "api.cache_key_s", "sim.metrics.serialize_s", "sim.metrics.payload_bytes",
        "cache.get_s", "cache.put_s", "cache.hit_ratio", "cache.journal_bytes",
        "server.submit_s", "server.run_s", "server.coalesced",
        "client.hit_latency_p50_ms", "client.miss_latency_p50_ms", "client.retries",
        "trace.overhead_s",
    ],
    "campaign_grid": [
        "api.run_scenarios_s", "api.pool_overhead_s", "cache.get_s", "cache.put_s",
        "cache.journal_bytes", "campaign.append_s", "campaign.load_s",
        "campaign.report_s", "campaign.ledger_bytes", "resume_s", "trace.overhead_s",
    ],
}


def validate(stdout: str, trace: int) -> dict:
    """Parse one run's stdout; raise AssertionError naming what is wrong."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    assert len(lines) >= 2, f"expected a detail line and a result line, got {lines!r}"
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int) and not isinstance(result[key], bool), key
    assert result["attempted"] >= 1, "no operation attempted"
    wanted = MANIFEST["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in wanted]
    assert sorted(result["metrics"]) == sorted(names), (
        f"metric names differ from BENCHMARK.json: "
        f"missing {sorted(set(names) - set(result['metrics']))}, "
        f"extra {sorted(set(result['metrics']) - set(names))}"
    )
    for entry in wanted:
        name = entry["name"]
        metric = result["metrics"][name]
        assert set(metric) == {"value", "unit"}, f"{name}: keys {sorted(metric)}"
        assert metric["unit"] == entry["unit"], f"{name}: unit {metric['unit']!r}"
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (
            f"{name}: value {value!r} is not a number"
        )
        assert math.isfinite(value), f"{name}: value {value!r} is not finite"
        reported = detail["metrics"].get(name)
        assert reported is not None, f"{name}: missing from the detail line"
        assert reported.get("unit") == entry["unit"], f"{name}: no unit in the detail line"
        samples = reported.get("samples")
        assert isinstance(samples, int) and samples >= 0, f"{name}: no sample count"
        if not trace:
            assert samples >= 1 and value > 0, f"{name}: {value} from {samples} samples"
    return {"result": result, "detail": detail}


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: int, seed: int = 1) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return validate(completed.stdout, trace)


def test_manifest_follows_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in MANIFEST["workloads"])
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in MANIFEST[key]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    for entry in MANIFEST["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in MANIFEST["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in MANIFEST["end_to_end"])
    for entry in MANIFEST["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert MANIFEST["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_output(workload):
    run = smoke_run(workload, 0)
    assert run["result"]["correct"] and run["result"]["failed"] == 0
    assert run["detail"]["detail"]["failed_frac"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_output(workload):
    run = smoke_run(workload, 1)
    assert run["result"]["correct"] and run["result"]["failed"] == 0
    reported = run["detail"]["metrics"]
    for name in COVERED[workload]:
        assert reported[name]["samples"] > 0, f"{workload} traced run misses {name}"


@pytest.mark.parametrize("workload", ["serve_mixed", "campaign_grid"])
def test_second_seed_gives_the_full_metric_set(workload):
    run = smoke_run(workload, 0, seed=2)
    assert run["result"]["correct"] and run["result"]["failed"] == 0


def test_validate_rejects_malformed_output():
    good = smoke_run("dense_agreement", 0)
    result = json.loads(json.dumps(good["result"]))
    detail = json.dumps(good["detail"])
    del result["metrics"]["wall_s"]["unit"]
    with pytest.raises(AssertionError, match="wall_s"):
        validate(detail + "\n" + json.dumps(result), 0)
    result = json.loads(json.dumps(good["result"]))
    result["metrics"]["latency_p99_ms"]["value"] = "12"
    with pytest.raises(AssertionError, match="latency_p99_ms"):
        validate(detail + "\n" + json.dumps(result), 0)
    with pytest.raises(AssertionError):
        validate(json.dumps(good["result"]), 0)


def test_fails_without_the_package_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sparse_inbox",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


if __name__ == "__main__":
    raise SystemExit(pytest.main(["-q", __file__]))
