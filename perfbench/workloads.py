"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed, measures one
set-up repetition at a time (:meth:`setup_round`), runs timed passes
(:meth:`run_pass`) and checks every output it produced.  ``pass_s`` is
the time one pass took on the development machine (2 vCPUs, CPython
3.11); the runner sizes a run from it, so every run of a workload does
the same work.  Engine
workloads check pinned counts (``pins.json``); the served and campaign
workloads compare each result with a direct :meth:`Scenario.run`.

Only the package's public surface is called: ``Scenario``,
``ResultCache``, ``Client``, ``repro serve`` (through
``serve_launcher.py``) and ``run_campaign``.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro import CampaignSpec, Client, ResultCache, RunResult, Scenario, run_campaign

BENCH_DIR = Path(__file__).resolve().parent

#: A failed operation's latency: over any limit the benchmark reports.
FAILED_LATENCY_S = 30.0


@dataclass
class Pass:
    """One timed pass: its wall time, per-operation latencies and the
    operations it attempted and failed (with the first failure reasons)."""

    wall_s: float
    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """What the runner calls; ``pass_s`` sizes a run (see module doc)."""

    pass_s: float

    def setup_round(self, keep: bool) -> float:
        """One set-up repetition, in seconds; ``keep`` keeps its result
        (e.g. a running server) for the timed passes."""
        raise NotImplementedError

    def run_pass(self, index: int, tracer=None) -> Pass:
        raise NotImplementedError

    def verify(self, result_pass: Pass) -> None:
        """Check the pass's outputs (untimed) and count its failures."""

    def start_tracing(self, spans_dir: Path) -> None:
        """Called before the traced pass; spans go to ``spans_dir``."""

    def traced_extras(self, baseline: Pass, traced: Pass) -> tuple:
        """Per-layer values measured outside the spans, and any extra
        passes they ran: ``({name: (value, samples)}, [Pass, ...])``."""
        return {}, []

    def close(self) -> None:
        """Stop every process this workload started; idempotent."""


def traced_call(tracer, name, fn, *args, extra=None):
    """``fn(*args)`` inside a span when tracing, plainly otherwise."""
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, args, {}, extra=extra)


def import_probe(context) -> float:
    """Seconds for a fresh interpreter to import the package."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"],
        cwd=context.root, env=context.env, check=True,
    )
    return perf_counter() - start


def counts_of(result) -> Dict[str, Any]:
    metrics = result.metrics
    return {
        "work": metrics.work_total,
        "messages": metrics.messages_total,
        "rounds": metrics.retire_round,
        "completed": result.completed,
    }


# =====================================================================
# Engine workloads: direct Scenario.run()
# =====================================================================

ASYNC_CRASHES = {pid: 4.0 + 7.0 * pid for pid in range(32)}

ENGINE_SCENARIOS = {
    # sparse_inbox sizes keep a pass near 3 s, so a run fits enough
    # passes that the median scenario latency is steady; the inboxes
    # stay tiny and the default fastpath still runs at a loss.
    "sparse_inbox": {
        "full": [
            {"name": "A", "protocol": "A", "n": 2048, "t": 512,
             "adversary": "random:128,max_action_index=25", "seed": 1},
            {"name": "B", "protocol": "B", "n": 2048, "t": 512,
             "adversary": "random:128,max_action_index=25", "seed": 1},
            {"name": "naive", "protocol": "naive", "n": 512, "t": 128,
             "adversary": "random:16", "seed": 1},
            {"name": "C", "protocol": "C", "n": 512, "t": 128,
             "adversary": "random:16", "seed": 1},
            {"name": "A-async", "protocol": "A-async", "n": 32768, "t": 128,
             "delay": "uniform:0.5,4.0", "crash_times": ASYNC_CRASHES, "seed": 1},
        ],
        "smoke": [
            {"name": "A", "protocol": "A", "n": 128, "t": 32,
             "adversary": "random:8,max_action_index=25", "seed": 1},
            {"name": "B", "protocol": "B", "n": 128, "t": 32,
             "adversary": "random:8,max_action_index=25", "seed": 1},
            {"name": "naive", "protocol": "naive", "n": 64, "t": 16,
             "adversary": "random:4", "seed": 1},
            {"name": "C", "protocol": "C", "n": 64, "t": 16,
             "adversary": "random:4", "seed": 1},
            {"name": "A-async", "protocol": "A-async", "n": 1024, "t": 16,
             "delay": "uniform:0.5,4.0",
             "crash_times": {pid: 4.0 + 7.0 * pid for pid in range(4)}, "seed": 1},
        ],
    },
    "dense_agreement": {
        "full": [
            {"name": "D_t1024", "protocol": "D", "n": 4096, "t": 1024,
             "adversary": "random:8,max_action_index=30", "seed": 1},
            {"name": "D_t256", "protocol": "D", "n": 8192, "t": 256,
             "adversary": "random:64,max_action_index=40", "seed": 1},
            {"name": "D-dynamic", "protocol": "D-dynamic", "n": 2048, "t": 64,
             "options": {"schedule": "arrivals:0x1024,40x512,80x512",
                         "cycle_length": 20}, "seed": 1},
            {"name": "D-recovery", "protocol": "D-recovery", "n": 2048, "t": 64,
             "adversary": "crash-recover:16", "seed": 1},
        ],
        "smoke": [
            {"name": "D_t32", "protocol": "D", "n": 128, "t": 32,
             "adversary": "random:4,max_action_index=15", "seed": 1},
            {"name": "D_t16", "protocol": "D", "n": 256, "t": 16,
             "adversary": "random:4,max_action_index=15", "seed": 1},
            {"name": "D-dynamic", "protocol": "D-dynamic", "n": 64, "t": 8,
             "options": {"schedule": "arrivals:0x32,12x32", "cycle_length": 12},
             "seed": 1},
            {"name": "D-recovery", "protocol": "D-recovery", "n": 64, "t": 8,
             "adversary": "crash-recover:3", "seed": 1},
        ],
    },
}


class EngineWorkload(Workload):
    """Direct ``Scenario.run()`` of a fixed scenario table at the
    default ``fastpath``; each run's counts are checked against
    ``pins.json`` as it ends."""

    def __init__(self, context, name: str):
        self.context = context
        self.pass_s = {"sparse_inbox": 3.3, "dense_agreement": 2.5}[name]
        specs = ENGINE_SCENARIOS[name][context.size]
        self.scenarios = [Scenario.from_dict(spec) for spec in specs]
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
        self.pins = pins[context.size][name]

    def setup_round(self, keep: bool) -> float:
        return import_probe(self.context)

    def _run_checked(self, scenario, result_pass: Pass, tracer=None) -> float:
        if tracer is not None:
            tracer.begin_op()
        start = perf_counter()
        try:
            result = scenario.run()
        except Exception as exc:  # a raising run is a failed operation
            result_pass.attempted += 1
            result_pass.fail(f"{scenario.name}: {type(exc).__name__}: {exc}")
            return FAILED_LATENCY_S
        elapsed = perf_counter() - start
        result_pass.attempted += 1
        observed = counts_of(result)
        if observed != self.pins[scenario.name]:
            result_pass.fail(
                f"{scenario.name} (fastpath={scenario.fastpath}): {observed} "
                f"!= pinned {self.pins[scenario.name]}"
            )
        return elapsed

    def run_pass(self, index: int, tracer=None) -> Pass:
        result_pass = Pass(wall_s=0.0)
        times = {}
        start = perf_counter()
        for scenario in self.scenarios:
            times[scenario.name] = self._run_checked(scenario, result_pass, tracer)
        result_pass.wall_s = perf_counter() - start
        result_pass.latencies_ms = [seconds * 1000.0 for seconds in times.values()]
        result_pass.extra["times"] = times
        return result_pass

    def traced_extras(self, baseline: Pass, traced: Pass) -> tuple:
        """Run every sync scenario once under ``tracemalloc`` (its peak
        allocation at the default fastpath) and once with
        ``fastpath="off"``; the ``on/off`` time ratio per protocol
        family compares the latter with the untraced pass.  Both extra
        passes are checked against the same pins."""
        sync = [s for s in self.scenarios if s.resolved_engine == "sync"]
        memory_pass, off_pass = Pass(wall_s=0.0), Pass(wall_s=0.0)
        peak = 0
        tracemalloc.start()
        try:
            for scenario in sync:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                self._run_checked(scenario, memory_pass)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        on_sum: Dict[str, float] = {}
        off_sum: Dict[str, float] = {}
        for scenario in sync:
            family = scenario.protocol
            elapsed = self._run_checked(scenario.replace(fastpath="off"), off_pass)
            on_sum[family] = on_sum.get(family, 0.0) + baseline.extra["times"][scenario.name]
            off_sum[family] = off_sum.get(family, 0.0) + elapsed
        values = {
            f"sim.columnar.on_off_ratio.{family}": (on_sum[family] / off_sum[family], 1)
            for family in on_sum
        }
        values["sim.columnar.peak_alloc_mb"] = (peak / 2**20, len(sync))
        return values, [memory_pass, off_pass]


# =====================================================================
# serve_mixed: closed-loop clients against a `repro serve` subprocess
# =====================================================================


class ServerProcess:
    """``repro serve --port 0`` launched through ``serve_launcher.py``."""

    def __init__(self, context, cache_file: Path, cache_size: int,
                 spans_dir: Optional[Path] = None):
        command = [sys.executable, str(BENCH_DIR / "serve_launcher.py")]
        if spans_dir is not None:
            command += ["--spans", str(spans_dir)]
        # The in-memory cache holds one pass's pool, so the server's
        # memory does not grow with the number of passes a run fits.
        command += ["serve", "--port", "0", "--cache-file", str(cache_file),
                    "--cache-size", str(cache_size)]
        self.proc = subprocess.Popen(
            command, cwd=context.root, env=context.env, text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.log: List[str] = []
        self._listening = threading.Event()
        self.url = ""
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            self._wait_ready(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.stop()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            if "listening on " in line and not self.url:
                self.url = line.split("listening on ", 1)[1].split()[0]
                self._listening.set()
        self._listening.set()  # exited: unblock the waiter

    def _wait_ready(self, deadline: float) -> None:
        self._listening.wait(timeout=max(0.0, deadline - time.monotonic()))
        if not self.url:
            raise RuntimeError("repro serve did not start: " + " | ".join(self.log[-5:]))
        while True:
            try:
                with urllib.request.urlopen(self.url + "/readyz", timeout=5.0) as reply:
                    if reply.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve never answered /readyz")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGINT (the CLI drains in-flight jobs), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10.0)


class ServeWorkload(Workload):
    """Two closed-loop client threads; each request is drawn by seed from
    a pool of small A/B/D scenarios, 70% from a hot set.  Every pass
    draws a fresh pool, so each pass starts with those keys uncached."""

    CLIENTS = 2
    HOT_SHARE = 0.7
    pass_s = 2.5

    def __init__(self, context):
        self.context = context
        smoke = context.size == "smoke"
        self.pool_size = 40 if smoke else 400
        self.hot_size = 6 if smoke else 60
        self.requests_per_client = 50 if smoke else 500
        self.server: Optional[ServerProcess] = None
        self._servers = 0
        self.retries = 0
        self._retry_lock = threading.Lock()

    def _new_server(self, spans_dir: Optional[Path] = None) -> ServerProcess:
        self._servers += 1
        cache_file = self.context.work / f"serve-cache-{self._servers}.jsonl"
        self.cache_file = cache_file
        return ServerProcess(self.context, cache_file, self.pool_size, spans_dir)

    def setup_round(self, keep: bool) -> float:
        start = perf_counter()
        server = self._new_server()
        elapsed = perf_counter() - start
        if keep:
            self.server = server
        else:
            server.stop()
        return elapsed

    def start_tracing(self, spans_dir: Path) -> None:
        """Replace the running server by a traced one (fresh cache file)."""
        self.stop_server()
        self.server = self._new_server(spans_dir)
        self.retries = 0

    def traced_extras(self, baseline: Pass, traced: Pass) -> tuple:
        stats = Client(self.server.url).stats()
        self.stop_server()  # the server writes its spans as it exits
        return {
            "server.coalesced": (stats["coalesced"], 1),
            "cache.journal_bytes": (self.cache_file.stat().st_size, 1),
            "client.retries": (self.retries, 1),
        }, []

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def pool(self, index: int) -> List[Scenario]:
        rng = random.Random(f"serve-pool:{self.context.seed}:{index}")
        adversaries = [None, "random:2", "random:4,max_action_index=10"]
        return [
            Scenario(
                protocol=rng.choice(["A", "B", "D"]), n=64, t=8,
                adversary=rng.choice(adversaries), seed=rng.randrange(1_000_000),
            )
            for _ in range(self.pool_size)
        ]

    def _count_retry(self, delay: float) -> None:
        with self._retry_lock:
            self.retries += 1
        time.sleep(delay)

    def _client_loop(self, index, worker, scenarios, out, tracer) -> None:
        rng = random.Random(f"serve-draw:{self.context.seed}:{index}:{worker}")
        client = Client(self.server.url, timeout=FAILED_LATENCY_S)
        client._sleep = self._count_retry  # count transport retries

        def request(scenario):
            snapshot = client.submit(scenario)
            if snapshot["status"] == "done":
                result = RunResult.from_dict(snapshot["results"][0])
            else:
                result = client.wait(snapshot["job"], timeout=FAILED_LATENCY_S)[0]
            return snapshot["sources"][0], result

        for _ in range(self.requests_per_client):
            if rng.random() < self.HOT_SHARE:
                choice = rng.randrange(self.hot_size)
            else:
                choice = rng.randrange(self.hot_size, len(scenarios))
            if tracer is not None:
                tracer.begin_op()
            start = perf_counter()
            try:
                source, result = traced_call(
                    tracer, "client.request", request, scenarios[choice],
                    extra=lambda reply: reply[0],
                )
                out.append((choice, perf_counter() - start, source, result, None))
            except Exception as exc:  # a failed request is an outcome
                out.append((choice, FAILED_LATENCY_S, "error", None,
                            f"{type(exc).__name__}: {exc}"))

    def run_pass(self, index: int, tracer=None) -> Pass:
        scenarios = self.pool(index)
        outcomes: List[list] = [[] for _ in range(self.CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(index, worker, scenarios, outcomes[worker], tracer),
            )
            for worker in range(self.CLIENTS)
        ]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result_pass = Pass(wall_s=perf_counter() - start)
        flat = [item for chunk in outcomes for item in chunk]
        result_pass.latencies_ms = [item[1] * 1000.0 for item in flat]
        sources = [item[2] for item in flat]
        result_pass.extra.update(
            hits=sources.count("cache"), misses=sources.count("run"),
            coalesced=sources.count("coalesced"), outcomes=flat, pool=scenarios,
        )
        return result_pass

    def verify(self, result_pass: Pass) -> None:
        """Served == direct: every served result must equal a direct
        ``Scenario.run()`` of its scenario, config echo included."""
        scenarios = result_pass.extra.pop("pool")
        direct: Dict[int, dict] = {}
        for choice, _, source, result, error in result_pass.extra.pop("outcomes"):
            result_pass.attempted += 1
            if error is not None:
                result_pass.fail(f"request failed: {error}")
                continue
            if choice not in direct:
                direct[choice] = scenarios[choice].run().to_dict(full=True)
            if result.to_dict(full=True) != direct[choice]:
                result_pass.fail(
                    f"served ({source}) result differs from the direct run "
                    f"of {scenarios[choice].to_dict()}"
                )

    def close(self) -> None:
        self.stop_server()


# =====================================================================
# campaign_grid: run_campaign with a pool and a file-backed cache
# =====================================================================


class CampaignWorkload(Workload):
    """Cold campaign interrupted after half its chunks, resumed through
    to the report, then the whole grid again on a second ledger against
    the warm cache."""

    WORKERS = 2
    pass_s = 5.0

    def __init__(self, context):
        self.context = context
        rng = random.Random(f"campaign-seeds:{context.seed}")
        if context.size == "smoke":
            self.spec = CampaignSpec(
                name="bench-grid-smoke", base=Scenario(protocol="A", n=32, t=8),
                seeds=sorted(rng.sample(range(1_000_000), 4)),
                protocols=["A", "D"], adversaries=[None, "random:2"],
                n_values=[32, 48], chunk_size=8,
            )
        else:
            self.spec = CampaignSpec(
                name="bench-grid", base=Scenario(protocol="A", n=256, t=32),
                seeds=sorted(rng.sample(range(1_000_000), 25)),
                protocols=["A", "B", "D", "D-recovery"],
                adversaries=[None, "random:8"], n_values=[256, 512], chunk_size=40,
            )
        self.cold_chunks = self.spec.total_chunks // 2
        self._dirs = 0
        self._direct: Optional[Dict[str, dict]] = None

    def _new_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.context.work / f"campaign-{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup_round(self, keep: bool) -> float:
        start = perf_counter()
        import_probe(self.context)
        shutil.rmtree(self._new_dir("setup"))
        # The package's batch pool is a fork pool on Linux; time starting
        # (and stopping) one of the same size.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        with multiprocessing.get_context(method).Pool(self.WORKERS) as pool:
            pool.map(abs, range(self.WORKERS))
        return perf_counter() - start

    def run_pass(self, index: int, tracer=None) -> Pass:
        directory = self._new_dir("pass")
        cache_path = directory / "cache.jsonl"
        chunk_times: List[float] = []
        marks = [0.0]

        def progress(line: str) -> None:
            now = perf_counter()
            if line.startswith("chunk") and "stopping" not in line:
                chunk_times.append(now - marks[0])
            marks[0] = now

        def session(ledger: Path, cache, max_chunks=None):
            if tracer is not None:
                tracer.begin_op()
            marks[0] = perf_counter()
            return traced_call(
                tracer, "campaign.session", lambda: run_campaign(
                    self.spec, ledger, workers=self.WORKERS, cache=cache,
                    max_chunks=max_chunks, progress=progress,
                ),
            )

        start = perf_counter()
        cold = session(directory / "ledger-a.jsonl", ResultCache(path=cache_path),
                       max_chunks=self.cold_chunks)
        resume_start = perf_counter()
        warm_cache = ResultCache(path=cache_path)  # a new session reopens the journal
        resumed = session(directory / "ledger-a.jsonl", warm_cache)
        resumed_report = resumed.report()
        resume_s = perf_counter() - resume_start
        # Latency samples are the chunks that execute runs.  The warm
        # rerun's chunks are cache reads some twenty times faster; with
        # them the median would fall in the gap between the two kinds.
        executed_chunks = len(chunk_times)
        rerun = session(directory / "ledger-b.jsonl", warm_cache)
        rerun_report = rerun.report()
        result_pass = Pass(wall_s=perf_counter() - start)
        result_pass.latencies_ms = [
            seconds * 1000.0 for seconds in chunk_times[:executed_chunks]
        ]
        result_pass.extra.update(
            resume_s=resume_s,
            reports=[resumed_report, rerun_report],
            journal_bytes=cache_path.stat().st_size,
            ledger_bytes=sum(p.stat().st_size for p in directory.glob("ledger-*.jsonl")),
        )
        total = self.spec.total_runs
        contract = {
            "cold session stops at max_chunks": cold.interrupted
            and cold.executed_runs == self.cold_chunks * self.spec.chunk_size,
            "resume completes the grid": resumed_report.complete,
            "resume re-runs no checkpointed chunk":
                resumed.chunks_skipped == self.cold_chunks,
            "warm grid executes nothing": rerun.executed_runs == 0
            and rerun.cache_hits == total and rerun_report.complete,
        }
        for label, holds in contract.items():
            result_pass.attempted += 1
            if not holds:
                result_pass.fail(f"campaign contract broken: {label}")
        shutil.rmtree(directory)
        return result_pass

    def verify(self, result_pass: Pass) -> None:
        """Every run in both reports equals a direct ``Scenario.run()``."""
        if self._direct is None:
            self._direct = {
                scenario.cache_key(): scenario.run().to_dict(full=True)
                for scenario in self.spec.scenarios()
            }
        for report in result_pass.extra.pop("reports"):
            for scenario, result in report.result_set:
                result_pass.attempted += 1
                if result.to_dict(full=True) != self._direct.get(scenario.cache_key()):
                    result_pass.fail(
                        f"campaign result differs from the direct run of "
                        f"{scenario.to_dict()}"
                    )

    def traced_extras(self, baseline: Pass, traced: Pass) -> tuple:
        return {
            "resume_s": (traced.extra["resume_s"], 1),
            "cache.journal_bytes": (traced.extra["journal_bytes"], 1),
            "campaign.ledger_bytes": (traced.extra["ledger_bytes"], 1),
        }, []


WORKLOADS = {
    "sparse_inbox": lambda context: EngineWorkload(context, "sparse_inbox"),
    "dense_agreement": lambda context: EngineWorkload(context, "dense_agreement"),
    "serve_mixed": ServeWorkload,
    "campaign_grid": CampaignWorkload,
}
