"""Traced runs: spans and counts at the program's layer boundaries.

The program is not instrumented. A traced run replaces public methods
of each layer with wrappers, from the benchmark's own files, before the
workload starts. A timed wrapper records a span (name, start, end,
parent) and folds it into per-layer totals; a layer's self time is its
spans' duration minus the part its child spans cover. Functions that
return generators (simulation processes) are counted, not timed: their
work happens later, inside the event loop, and cannot be attributed
from outside.

Spans are kept in memory (up to :data:`SPAN_CAP`) and written out when
the run ends; the per-layer totals count every call, kept or not.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

#: Spans kept in memory for the span file; later ones only count.
SPAN_CAP = 100_000


def _subclasses(cls: type) -> list[type]:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


class Tracer:
    """Per-process span recorder and layer counters."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []               # (id, parent, name, start, end)
        self.spans_dropped = 0
        self._next_id = 0
        # Each thread has its own span stack of [name, child_s, span_id];
        # the totals are shared, so updates take the lock.
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- wrappers ------------------------------------------------------------
    def timed(self, owner: Any, attr: str, name: str,
              on_result: Optional[Callable[..., None]] = None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.
        A call nested directly in a span of the same name (a subclass
        calling ``super()``) is not counted twice. ``on_result(args,
        result)`` sees each outermost call's arguments and result."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        totals, spans, lock, local = self.totals, self.spans, self._lock, self._local
        totals.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            with lock:
                tracer._next_id += 1
                frame = [name, 0.0, tracer._next_id]
            parent = stack[-1][2] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                with lock:
                    agg = totals[name]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
                    if len(spans) < SPAN_CAP:
                        spans.append((frame[2], parent, name, t0, t1))
                    else:
                        tracer.spans_dropped += 1
            if on_result is not None:
                on_result(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (for generator-returning
        functions, whose time cannot be attributed from outside)."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts, lock = self.counts, self._lock
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def timed_methods(self, base: type, attrs: tuple[str, ...], name: str,
                      on_result: Optional[Callable[..., None]] = None) -> None:
        """:meth:`timed` on every definition of ``attrs`` in ``base``
        and its subclasses, all folded into one layer ``name``."""
        for cls in _subclasses(base):
            for attr in attrs:
                if attr in cls.__dict__:
                    self.timed(cls, attr, name, on_result)

    @staticmethod
    def _patch(owner: Any, attr: str, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)

    # -- results -------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def write_spans(self, path: Path) -> None:
        """One JSON object per span, then a summary line."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
            fh.write(json.dumps({"summary": {
                "kept": len(self.spans), "dropped": self.spans_dropped,
                "totals": self.totals, "counts": self.counts}}) + "\n")


class SimulationLayers:
    """The simulation stack's layers (``sim``, ``hadoop``, ``sched``,
    ``cell``, ``perf``, ``hdfs``, ``experiments``) seen from this
    process: an in-process pass, or a traced ``repro serve`` daemon and
    the pool workers it forks (which :meth:`reset` and :meth:`dump`
    serve; :func:`read_dumps` adds the processes up).

    Without ``spans`` only the stable counts are taken: events per event
    loop and the JobTrackers' decision counters, read once per
    simulation, not per event. With ``spans`` every layer boundary below
    is traced as well.
    """

    def __init__(self, spans: bool) -> None:
        from repro.cell.runtime import OffloadRuntime
        from repro.experiments import driver
        from repro.hadoop.jobtracker import JobTracker
        from repro.hadoop.kernel_bridge import MapKernel
        from repro.hadoop.recordreader import RecordReader
        from repro.hadoop.tasktracker import TaskTracker
        from repro.hdfs.client import HDFSClient
        from repro.hdfs.namenode import NameNode
        from repro.perf.kernels import KernelPerfModel
        from repro.sched.base import Scheduler
        from repro.sim.engine import Environment

        self.tracer = t = Tracer()
        self.events = 0
        self.assign_empty = 0
        # Decision counters of every JobTracker, refreshed whenever an
        # event loop returns, so a tracker's last refresh holds its final
        # counts. Trackers are held weakly: a sweep's finished clusters
        # are freed as they would be untraced.
        self._trackers: list[tuple[weakref.ref, int]] = []
        self._decisions: list[dict] = []
        layers = self

        original_init = JobTracker.__init__

        def jobtracker_init(jt, *args, **kwargs):
            original_init(jt, *args, **kwargs)
            layers._trackers.append((weakref.ref(jt), len(layers._decisions)))
            layers._decisions.append({})

        t._patch(JobTracker, "__init__", jobtracker_init)

        # The span covers the event loop only; the bookkeeping around it
        # (event delta, counter refresh) stays outside.
        if spans:
            t.timed(Environment, "run", "sim.run")
        inner_run = Environment.run

        def env_run(env, *args, **kwargs):
            before = env.processed_events
            try:
                return inner_run(env, *args, **kwargs)
            finally:
                layers.events += env.processed_events - before
                layers._refresh_decisions()

        t._patch(Environment, "run", env_run)
        if not spans:
            return

        t.timed(JobTracker, "has_demand", "hadoop.has_demand")
        t.counted(TaskTracker, "poke", "hadoop.poke")
        t.counted(RecordReader, "read_record", "hadoop.records")
        t.counted(MapKernel, "process_record", "hadoop.kernel_records")

        def note_assign(_args, result):
            if not result:
                layers.assign_empty += 1

        t.timed_methods(Scheduler, ("assign",), "sched.assign", note_assign)
        t.timed_methods(OffloadRuntime, ("analytic_time", "analytic_samples_time",
                                         "analytic_samples_time_batch"),
                        "cell.analytic")
        t.timed_methods(KernelPerfModel, ("time_for", "time_for_batch"), "perf.kernel")
        t.counted(NameNode, "locate", "hdfs.locate")
        t.timed(HDFSClient, "choose_replica", "hdfs.choose_replica")
        t.timed(HDFSClient, "ingest_file", "hdfs.ingest")
        t.counted(HDFSClient, "write_file", "hdfs.write")
        t.timed(driver, "build_result", "experiments.build_result")
        t.timed(driver.SweepResult, "canonical_json", "experiments.canonical_json")

    def _refresh_decisions(self) -> None:
        live = []
        for ref, i in self._trackers:
            jt = ref()
            if jt is not None:
                self._decisions[i] = jt.decision_counters()
                live.append((ref, i))
        self._trackers = live

    def counts(self) -> dict[str, int]:
        """The stable counts, taken with or without spans."""
        raw = self.raw()
        return {"sim.events": raw["events"], "hadoop.heartbeats": raw["heartbeats"],
                "hadoop.heartbeat_batches": raw["heartbeat_batches"]}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this process can see (needs spans)."""
        return layer_metrics(self.raw())

    def raw(self) -> dict:
        """This process's totals in a form that adds up across processes
        (see :func:`merge_raw`)."""
        t = self.tracer
        return {
            "totals": t.totals, "counts": t.counts,
            "events": self.events, "assign_empty": self.assign_empty,
            "heartbeats": sum(d.get("heartbeats", 0) for d in self._decisions),
            "heartbeat_batches": sum(d.get("heartbeat_batches", 0) for d in self._decisions),
        }

    def reset(self) -> None:
        """Forget everything seen so far, keeping the wrappers in place:
        a forked child starts from zero instead of a copy of its
        parent's totals."""
        t = self.tracer
        for agg in t.totals.values():
            agg[:] = [0, 0.0, 0.0]
        for name in t.counts:
            t.counts[name] = 0
        t.spans.clear()
        t.spans_dropped = 0
        self.events = self.assign_empty = 0
        self._trackers, self._decisions = [], []

    def dump(self, path: Path) -> None:
        """Write :meth:`raw` to ``path`` atomically (a reader never sees
        half a file, even from a process killed mid-write)."""
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.raw()))
        os.replace(tmp, path)


def merge_raw(raws: list[dict]) -> dict:
    """The sum of several processes' :meth:`SimulationLayers.raw`."""
    out: dict[str, Any] = {"totals": {}, "counts": {}, "events": 0, "assign_empty": 0,
                           "heartbeats": 0, "heartbeat_batches": 0}
    for raw in raws:
        for name, agg in raw["totals"].items():
            acc = out["totals"].setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(agg):
                acc[i] += value
        for name, n in raw["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
        for key in ("events", "assign_empty", "heartbeats", "heartbeat_batches"):
            out[key] += raw[key]
    return out


def read_dumps(directory: Path) -> dict:
    """Merge every :meth:`SimulationLayers.dump` left in ``directory``."""
    return merge_raw([json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))])


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics of one process's or several processes'
    merged :meth:`SimulationLayers.raw`."""
    totals, counts, events = raw["totals"], raw["counts"], raw["events"]

    def calls(name: str) -> int:
        return int(totals.get(name, (0,))[0])

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    run_s = seconds("sim.run")
    assign_calls = calls("sched.assign")
    return {
        "sim.events": events,
        "hadoop.heartbeats": raw["heartbeats"],
        "hadoop.heartbeat_batches": raw["heartbeat_batches"],
        "sim.run_s": run_s,
        "sim.self_s": totals.get("sim.run", (0, 0.0, 0.0))[2],
        "sim.host_us_per_event": run_s / events * 1e6 if events else 0.0,
        "hadoop.has_demand_calls": calls("hadoop.has_demand"),
        "hadoop.has_demand_s": seconds("hadoop.has_demand"),
        "hadoop.poke_calls": counts.get("hadoop.poke", 0),
        "hadoop.records": counts.get("hadoop.records", 0),
        "hadoop.kernel_records": counts.get("hadoop.kernel_records", 0),
        "sched.assign_calls": assign_calls,
        "sched.assign_s": seconds("sched.assign"),
        "sched.assign_us_per_call": (seconds("sched.assign") / assign_calls * 1e6
                                     if assign_calls else 0.0),
        "sched.assign_empty_ratio": raw["assign_empty"] / assign_calls if assign_calls else 0.0,
        "cell.analytic_calls": calls("cell.analytic"),
        "cell.analytic_s": seconds("cell.analytic"),
        "perf.kernel_calls": calls("perf.kernel"),
        "perf.kernel_s": seconds("perf.kernel"),
        "hdfs.locate_calls": counts.get("hdfs.locate", 0),
        "hdfs.choose_replica_calls": calls("hdfs.choose_replica"),
        "hdfs.choose_replica_s": seconds("hdfs.choose_replica"),
        "hdfs.ingest_s": seconds("hdfs.ingest"),
        "hdfs.write_calls": counts.get("hdfs.write", 0),
        "experiments.point_s": seconds("experiments.point"),
        "experiments.build_result_s": seconds("experiments.build_result"),
        "experiments.canonical_json_s": seconds("experiments.canonical_json"),
    }


class WireLayer:
    """The load generator's side of :mod:`repro.wire`: every frame it
    decodes, with its bytes and decode time."""

    def __init__(self) -> None:
        import repro.wire as wire

        self.tracer = Tracer()
        self.bytes_in = 0

        def note_frame(args, _result):
            self.bytes_in += len(args[0])

        self.tracer.timed(wire, "decode", "wire.decode", note_frame)

    def metrics(self) -> dict[str, float]:
        t = self.tracer
        return {"wire.frames_in": t.calls("wire.decode"), "wire.bytes_in": self.bytes_in,
                "wire.decode_s": t.seconds("wire.decode")}
