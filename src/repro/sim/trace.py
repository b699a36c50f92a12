"""Structured tracing for simulation runs.

Every subsystem emits :class:`TraceRecord`\\ s through a shared
:class:`Tracer`. Traces power the analysis layer (phase breakdowns such as
"how much of the job was RecordReader time vs. kernel time", which is the
paper's central observation) and make failed benchmark shapes debuggable.

Two record shapes:

- :class:`TraceRecord` — instantaneous events (``emit``), the original
  API every subsystem already uses.
- :class:`SpanRecord` — closed intervals (``span(...)`` → ``.end()``),
  the per-task/per-phase timeline ``repro trace`` exports as
  Chrome-trace/Perfetto JSON (see :mod:`repro.obs.traceexport`).

Memory is bounded: pass ``max_records`` and both stores become ring
buffers (oldest evicted first), with evictions tallied in
:attr:`Tracer.dropped` so truncation is visible, never silent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["NULL_SPAN", "SpanRecord", "TraceRecord", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """A single trace entry.

    Attributes
    ----------
    time: virtual time of the event.
    category: subsystem tag, e.g. ``"hdfs"``, ``"jobtracker"``, ``"dma"``.
    event: short event name, e.g. ``"block_read"``, ``"task_assigned"``.
    attrs: free-form payload (sizes, node ids, durations).
    """

    time: float
    category: str
    event: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return f"[{self.time:12.6f}] {self.category}/{self.event} {kv}"


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """A closed interval on the simulation timeline.

    Attributes
    ----------
    start, end: virtual-time bounds (``end >= start``).
    category: subsystem tag (``"task"``, ``"kernel"``, ``"recordreader"``).
    name: what ran, e.g. ``"map 3"`` or ``"shuffle"``.
    track: timeline lane for visualisation, e.g. ``"node2/slot0"``;
        spans on one track render as one row in Perfetto.
    attrs: free-form payload merged from open and close.
    """

    start: float
    end: float
    category: str
    name: str
    track: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        return (
            f"[{self.start:12.6f}..{self.end:12.6f}] "
            f"{self.category}/{self.name} @{self.track} {kv}"
        )


class _Span:
    """Open span handle; ``end()`` seals it into the tracer."""

    __slots__ = ("_tracer", "start", "category", "name", "track", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        start: float,
        category: str,
        name: str,
        track: str,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.start = start
        self.category = category
        self.name = name
        self.track = track
        self.attrs = attrs

    def end(self, **attrs: Any) -> None:
        tracer = self._tracer
        if tracer is None:
            return
        self._tracer = None  # idempotent close
        if attrs:
            self.attrs.update(attrs)
        tracer._seal(  # noqa: SLF001
            SpanRecord(
                self.start, tracer.env.now, self.category,
                self.name, self.track, self.attrs,
            )
        )

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end()


class _NullSpan:
    """Shared do-nothing span returned by disabled tracers."""

    __slots__ = ()

    def end(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects trace records; can be disabled for large benchmark runs.

    Parameters
    ----------
    env:
        Environment supplying timestamps.
    enabled:
        When False, :meth:`emit` is a no-op and :meth:`span` returns the
        shared :data:`NULL_SPAN` (zero overhead path used by the
        large benchmark sweeps).
    keep:
        Optional predicate limiting which instantaneous records are
        retained.
    max_records:
        Ring-buffer cap applied independently to records and spans;
        ``None`` (default) keeps everything. Evictions increment
        :attr:`dropped`.
    """

    def __init__(
        self,
        env: "Environment",
        enabled: bool = True,
        keep: Optional[Callable[[TraceRecord], bool]] = None,
        max_records: Optional[int] = None,
    ):
        self.env = env
        self.enabled = enabled
        self.keep = keep
        self.max_records = max_records
        self.records: deque[TraceRecord] = deque(maxlen=max_records)
        self.spans: deque[SpanRecord] = deque(maxlen=max_records)
        self.dropped = 0
        self._counters: dict[tuple[str, str], int] = {}

    def emit(self, category: str, event: str, **attrs: Any) -> None:
        """Record one event (cheap no-op when disabled)."""
        key = (category, event)
        self._counters[key] = self._counters.get(key, 0) + 1
        if not self.enabled:
            return
        rec = TraceRecord(self.env.now, category, event, attrs)
        if self.keep is None or self.keep(rec):
            records = self.records
            if records.maxlen is not None and len(records) == records.maxlen:
                self.dropped += 1
            records.append(rec)

    def span(self, category: str, name: str, track: Optional[str] = None, **attrs: Any):
        """Open a span starting now; close it with ``.end(**attrs)``.

        Disabled tracers return the shared :data:`NULL_SPAN` so call
        sites never branch on :attr:`enabled` themselves.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, self.env.now, category, name, track or category, attrs)

    def _seal(self, span: SpanRecord) -> None:
        spans = self.spans
        if spans.maxlen is not None and len(spans) == spans.maxlen:
            self.dropped += 1
        spans.append(span)

    def count(self, category: str, event: Optional[str] = None) -> int:
        """Number of emissions (counted even while disabled)."""
        if event is not None:
            return self._counters.get((category, event), 0)
        return sum(v for (cat, _e), v in self._counters.items() if cat == category)

    def select(self, category: Optional[str] = None, event: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate retained records matching the filters."""
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if event is not None and rec.event != event:
                continue
            yield rec

    def clear(self) -> None:
        self.records.clear()
        self.spans.clear()
        self.dropped = 0
        self._counters.clear()

    def __len__(self) -> int:
        return len(self.records)
