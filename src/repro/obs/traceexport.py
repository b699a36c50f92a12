"""Chrome-trace / Perfetto JSON export for simulation tracers.

:class:`TraceCollector` is the bridge between a scenario run and the
exporter: bind it as the ``traces`` of a :class:`repro.runctx.RunContext`
and every cluster built under that context records into an enabled,
ring-capped :class:`~repro.sim.trace.Tracer` the collector owns. After
the run, :func:`write_chrome_trace` serialises all collected tracers
into the Trace Event Format both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.

Mapping:

- one *process* per collected tracer (per simulated cluster), named
  ``sim-<n>``;
- one *thread* (timeline row) per distinct span ``track`` — e.g.
  ``node2/slot0``, ``node2/slot0/kernel`` — so the paper's
  RecordReader-vs-kernel phase interleave is visible lane by lane;
- spans → phase ``"X"`` complete events (ts/dur in microseconds of
  virtual time);
- instantaneous :class:`~repro.sim.trace.TraceRecord`\\ s → phase
  ``"i"`` instant events on a per-category lane.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["TraceCollector", "chrome_trace", "write_chrome_trace"]

#: Default ring cap per tracer — generous for small scenarios, bounded
#: for big ones (satellite: 2048/4096-node runs must not grow unbounded
#: trace lists).
DEFAULT_MAX_RECORDS = 200_000


class TraceCollector:
    """Owns the tracers of every cluster built while installed."""

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.max_records = max_records
        self.tracers: list[Tracer] = []

    def tracer(self, env: "Environment") -> Tracer:
        """Factory ``Cluster.__init__`` calls instead of its default."""
        tracer = Tracer(env, enabled=True, max_records=self.max_records)
        self.tracers.append(tracer)
        return tracer

    @property
    def dropped(self) -> int:
        return sum(t.dropped for t in self.tracers)

    def span_count(self) -> int:
        return sum(len(t.spans) for t in self.tracers)

    def record_count(self) -> int:
        return sum(len(t.records) for t in self.tracers)


def _us(t: float) -> float:
    return round(t * 1e6, 3)


def chrome_trace(tracers: Sequence[Tracer]) -> dict[str, Any]:
    """Build the Trace Event Format dict for the given tracers."""
    events: list[dict[str, Any]] = []
    for pid, tracer in enumerate(tracers, start=1):
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": f"sim-{pid}"},
        })
        tids: dict[str, int] = {}

        def tid_for(track: str, pid: int = pid, tids: dict[str, int] = tids) -> int:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids) + 1
                events.append({
                    "ph": "M", "pid": pid, "tid": tid, "ts": 0,
                    "name": "thread_name", "args": {"name": track},
                })
            return tid

        for span in tracer.spans:
            events.append({
                "ph": "X",
                "pid": pid,
                "tid": tid_for(span.track),
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "name": span.name,
                "cat": span.category,
                "args": dict(span.attrs),
            })
        for rec in tracer.records:
            events.append({
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid_for(f"events/{rec.category}"),
                "ts": _us(rec.time),
                "name": rec.event,
                "cat": rec.category,
                "args": dict(rec.attrs),
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro",
            "clock": "virtual-seconds-as-microseconds",
            "dropped_records": sum(t.dropped for t in tracers),
        },
    }


def write_chrome_trace(
    path: str | Path,
    tracers: Optional[Sequence[Tracer]] = None,
    collector: Optional[TraceCollector] = None,
) -> dict[str, Any]:
    """Serialise tracers (or a collector's tracers) to ``path``.

    Returns the trace dict for inspection/tests.
    """
    if tracers is None:
        if collector is None:
            raise ValueError("pass tracers or a collector")
        tracers = collector.tracers
    trace = chrome_trace(tracers)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trace, separators=(",", ":"), sort_keys=True))
    return trace
