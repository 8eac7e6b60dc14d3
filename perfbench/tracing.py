"""Span tracing for the benchmark's traced run.

Nothing here edits the package: :func:`install` wraps public functions
and methods of ``repro`` from the outside (module attributes and class
attributes are swapped for timing wrappers) and returns a callable that
puts the originals back.

Each span records its name, start, end, parent span and operation id.
Spans stay in memory and are written to ``spans-<pid>.jsonl`` in the
tracer's output directory when the process finishes (or, in a forked
pool worker, each time the worker returns to the depth it was forked
at, because pool workers are terminated without running exit hooks).

High-frequency spans (protocol handlers, columnar post/drain, cache-key
hashing, result (de)serialization, cache lookups) are *aggregated*: one
record per (name, parent span) with a call count, total time, self time
and a unit count, instead of one record per call.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class _ThreadState:
    __slots__ = ("stack", "spans", "aggs", "op")

    def __init__(self) -> None:
        # stack frames: [span_id, child_seconds, op_id, name]
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.aggs: Dict[tuple, list] = {}
        self.op: Optional[int] = None


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._payloads: List[dict] = []
        # In a forked worker: the stack depth inherited from the parent.
        self._fork_depth: Optional[int] = None

    # ---- per-thread state ------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _new_id(self) -> int:
        return self.pid * 1_000_000_000 + next(self._ids)

    def after_fork(self) -> None:
        """Forked child: drop the parent's records, keep its open stack
        so the child's spans link to the span that forked it."""
        if not self.active:
            return
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        state = self._state()
        state.spans = []
        state.aggs = {}
        self._states = [state]
        self._payloads = []
        self._fork_depth = len(state.stack)

    # ---- operations --------------------------------------------------

    def new_op(self) -> int:
        return self.pid * 1_000_000_000 + next(self._ops)

    def begin_op(self) -> int:
        """Start a new operation on this thread; later spans carry its id."""
        op = self.new_op()
        self._state().op = op
        return op

    # ---- span recording ----------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs, *, hot: bool = False,
             units: Optional[Callable[[Any], float]] = None,
             extra: Optional[Callable[[Any], Any]] = None):
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        op = parent[2] if parent is not None else state.op
        if op is None:
            op = self.new_op()
        frame = [self._new_id(), 0.0, op, name]
        stack.append(frame)
        start = perf_counter()
        result = None
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self_s = duration - frame[1]
            parent_id = parent[0] if parent is not None else None
            if hot:
                key = (name, parent_id)
                agg = state.aggs.get(key)
                if agg is None:
                    agg = state.aggs[key] = [0, 0.0, 0.0, 0.0, op]
                agg[0] += 1
                agg[1] += duration
                agg[2] += self_s
                if ok and units is not None:
                    agg[3] += units(result)
            else:
                state.spans.append((
                    frame[0], name, start, end, parent_id, op, self_s,
                    extra(result) if ok and extra is not None else None,
                ))
                if self._fork_depth is not None and len(stack) == self._fork_depth:
                    self.flush()

    def keep_payload(self, payload: Any) -> None:
        """Remember a result payload; its JSON size is measured at flush,
        outside every timed span."""
        if isinstance(payload, dict):
            self._payloads.append(dict(payload))

    # ---- output ------------------------------------------------------

    def records(self) -> List[dict]:
        out: List[dict] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for span_id, name, start, end, parent, op, self_s, extra in state.spans:
                out.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self": self_s, "extra": extra,
                    "pid": self.pid,
                })
            for (name, parent), (count, total, self_s, units, op) in state.aggs.items():
                out.append({
                    "agg": name, "parent": parent, "op": op, "count": count,
                    "total": total, "self": self_s, "units": units, "pid": self.pid,
                })
        for payload in self._payloads:
            out.append({
                "payload_bytes": len(json.dumps(payload, sort_keys=True)),
                "pid": self.pid,
            })
        return out

    def flush(self) -> None:
        """Append this process's records to its span file and clear them."""
        records = self.records()
        with self._lock:
            for state in self._states:
                state.spans = []
                state.aggs = {}
            self._payloads = []
        if not records:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")


def load_records(out_dir) -> List[dict]:
    records: List[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with path.open() as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


# =====================================================================
# Wrappers around the package's public surface
# =====================================================================


def _swap(undo: list, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        wrapped = classmethod(make(raw.__func__))
    else:
        wrapped = make(raw)
    setattr(owner, attr, wrapped)
    undo.append((owner, attr, raw))


def _plain(tracer: Tracer, name: str, hot: bool = False, units=None, extra=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hot=hot, units=units, extra=extra)

        return wrapper

    return make


def _on_round(tracer: Tracer):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._state().stack
            if stack and stack[-1][3] == "core.on_round":
                return fn(*args, **kwargs)  # a subclass calling super()
            return tracer.call("core.on_round", fn, args, kwargs, hot=True)

        return wrapper

    return make


def _payload_out(tracer: Tracer):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = tracer.call("sim.metrics.serialize", fn, args, kwargs, hot=True)
            tracer.keep_payload(payload)
            return payload

        return wrapper

    return make


def _payload_in(tracer: Tracer):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(cls, data, *args, **kwargs):
            tracer.keep_payload(data)
            return tracer.call(
                "sim.metrics.serialize", fn, (cls, data) + args, kwargs, hot=True
            )

        return wrapper

    return make


def _process_classes() -> list:
    from repro.core import registry
    from repro.sim.process import Process

    registry.available_protocols()  # protocol modules are imported
    found, todo = [], [Process]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "on_round" in sub.__dict__:
                found.append(sub)
    return found


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the package's layer boundaries; returns the undo callable."""
    import repro.api as api
    import repro.campaign.ledger as ledger
    import repro.campaign.runner as runner
    import repro.core.registry as registry
    import repro.server.jobs as jobs
    from repro.cache import ResultCache
    from repro.sim.async_engine import AsyncEngine
    from repro.sim.columnar import ColumnarMailboxes
    from repro.sim.engine import Engine
    from repro.sim.metrics import RunResult

    undo: list = []
    _swap(undo, registry, "build_processes", _plain(tracer, "api.build"))
    _swap(undo, api, "adversary_from_spec", _plain(tracer, "api.build"))
    _swap(undo, api.Scenario, "run", _plain(tracer, "api.run"))
    _swap(undo, api.Scenario, "cache_key", _plain(tracer, "api.cache_key", hot=True))
    _swap(undo, runner, "run_scenarios", _plain(tracer, "api.run_scenarios"))
    _swap(undo, jobs, "run_scenarios", _plain(tracer, "server.run"))
    _swap(undo, jobs.JobStore, "submit", _plain(tracer, "server.submit"))
    _swap(undo, Engine, "run", _plain(tracer, "sim.engine.run"))
    _swap(undo, AsyncEngine, "run", _plain(tracer, "sim.async_engine.run"))
    for cls in _process_classes():
        _swap(undo, cls, "on_round", _on_round(tracer))
    _swap(undo, ColumnarMailboxes, "post_broadcast",
          _plain(tracer, "sim.columnar.post", hot=True))
    _swap(undo, ColumnarMailboxes, "post_p2p",
          _plain(tracer, "sim.columnar.post", hot=True))
    _swap(undo, ColumnarMailboxes, "drain",
          _plain(tracer, "sim.columnar.drain", hot=True, units=len))
    _swap(undo, RunResult, "to_dict", _payload_out(tracer))
    _swap(undo, RunResult, "from_dict", _payload_in(tracer))
    _swap(undo, ResultCache, "get_payload",
          _plain(tracer, "cache.get", hot=True, units=lambda hit: hit is not None))
    _swap(undo, ResultCache, "put", _plain(tracer, "cache.put"))
    _swap(undo, ledger.CampaignLedger, "append_chunk", _plain(tracer, "campaign.append"))
    _swap(undo, ledger.CampaignState, "load", _plain(tracer, "campaign.load"))
    _swap(undo, runner, "build_report", _plain(tracer, "campaign.report"))
    os.register_at_fork(after_in_child=tracer.after_fork)

    def uninstall() -> None:
        tracer.active = False
        while undo:
            owner, attr, raw = undo.pop()
            setattr(owner, attr, raw)

    return uninstall


# =====================================================================
# Per-layer metrics from the records of every process
# =====================================================================


def _sum(items, key):
    return sum(item[key] for item in items)


def layer_values(records: List[dict]) -> Dict[str, tuple]:
    """Per-layer (value, samples) from the span records of every process."""
    spans: Dict[str, List[dict]] = {}
    aggs: Dict[str, List[dict]] = {}
    payload_sizes = []
    for record in records:
        if "name" in record:
            spans.setdefault(record["name"], []).append(record)
        elif "agg" in record:
            aggs.setdefault(record["agg"], []).append(record)
        elif "payload_bytes" in record:
            payload_sizes.append(record["payload_bytes"])

    def span_s(name):
        found = spans.get(name, [])
        return sum(r["end"] - r["start"] for r in found), len(found)

    def agg_s(name):
        found = aggs.get(name, [])
        return _sum(found, "total"), _sum(found, "count"), _sum(found, "units")

    values: Dict[str, tuple] = {}
    values["api.build_s"] = span_s("api.build")
    total, calls, _ = agg_s("api.cache_key")
    values["api.cache_key_s"] = (total, calls)
    total, calls, _ = agg_s("core.on_round")
    values["core.on_round_s"] = (total, calls)
    values["core.on_round_calls"] = (calls, calls)
    engine_runs = spans.get("sim.engine.run", [])
    values["sim.engine.self_s"] = (_sum(engine_runs, "self"), len(engine_runs))
    total, calls, _ = agg_s("sim.columnar.post")
    values["sim.columnar.post_s"] = (total, calls)
    total, calls, rows = agg_s("sim.columnar.drain")
    values["sim.columnar.drain_s"] = (total, calls)
    values["sim.columnar.drain_calls"] = (calls, calls)
    values["sim.columnar.rows_per_drain"] = (rows / calls if calls else 0.0, calls)
    values["sim.async_engine.run_s"] = span_s("sim.async_engine.run")
    total, calls, _ = agg_s("sim.metrics.serialize")
    values["sim.metrics.serialize_s"] = (total, calls)
    values["sim.metrics.payload_bytes"] = (
        statistics.mean(payload_sizes) if payload_sizes else 0.0, len(payload_sizes)
    )
    total, calls, hits = agg_s("cache.get")
    values["cache.get_s"] = (total, calls)
    values["cache.hit_ratio"] = (hits / calls if calls else 0.0, calls)
    values["cache.put_s"] = span_s("cache.put")
    values["server.submit_s"] = span_s("server.submit")
    values["server.run_s"] = span_s("server.run")
    requests = spans.get("client.request", [])
    for label, wanted in (("hit", {"cache"}), ("miss", {"run", "coalesced"})):
        found = [
            (r["end"] - r["start"]) * 1000.0 for r in requests if r["extra"] in wanted
        ]
        values[f"client.{label}_latency_p50_ms"] = (
            statistics.median(found) if found else 0.0, len(found)
        )
    values["api.run_scenarios_s"] = span_s("api.run_scenarios")
    # Pool overhead of one pooled batch: its wall time minus the busy
    # time of its busiest worker (scenario runs in child processes).
    runs_by_parent: Dict[int, Dict[int, float]] = {}
    for run in spans.get("api.run", []):
        busy = runs_by_parent.setdefault(run["parent"], {})
        busy[run["pid"]] = busy.get(run["pid"], 0.0) + run["end"] - run["start"]
    overhead, pooled = 0.0, 0
    for batch in spans.get("api.run_scenarios", []):
        workers = {
            pid: busy for pid, busy in runs_by_parent.get(batch["id"], {}).items()
            if pid != batch["pid"]
        }
        if workers:
            pooled += 1
            overhead += batch["end"] - batch["start"] - max(workers.values())
    values["api.pool_overhead_s"] = (overhead, pooled)
    values["campaign.append_s"] = span_s("campaign.append")
    values["campaign.load_s"] = span_s("campaign.load")
    values["campaign.report_s"] = span_s("campaign.report")
    return values
