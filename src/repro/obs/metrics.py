"""Metric primitives and the registry that holds them.

Four instrument kinds, deliberately small:

- :class:`Counter` — monotonically increasing totals.
- :class:`Gauge` — last-write-wins point-in-time values.
- :class:`Histogram` — bucketed distributions (sum/count preserved),
  rendered cumulatively only at Prometheus exposition time.
- :class:`Timeseries` — (virtual_time, value) samples recorded inside a
  simulation, for the ``repro metrics`` virtual-time series report.

All instruments support optional labels declared at registration time;
``inc``/``set``/``observe`` take the label values as keyword arguments.
Unlabeled instruments pay no per-call label handling.

Mutation is guarded by a per-instrument lock so the serve daemon can
update metrics from its connection threads; single-threaded simulation
code pays one uncontended acquire per update, and only when telemetry
is enabled at all (disabled runs never reach these objects).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timeseries",
]

#: Default histogram bucket upper bounds (seconds-flavoured, matching
#: the classic Prometheus client defaults).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(
    label_names: tuple[str, ...], labels: Mapping[str, Any]
) -> tuple[str, ...]:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Shared registration surface: name, help text, label schema."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if not labels and not self.label_names:
            return ()
        return _label_key(self.label_names, labels)


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0.0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "values": {",".join(k): v for k, v in sorted(self._values.items())},
        }


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0.0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "values": {",".join(k): v for k, v in sorted(self._values.items())},
        }


class _HistogramState:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # final slot: > last bound
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate histogram bucket bounds")
        self.buckets = bounds
        self._states: dict[tuple[str, ...], _HistogramState] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(len(self.buckets))
            state.counts[bisect_left(self.buckets, value)] += 1
            state.sum += value
            state.count += 1

    def state(self, **labels: Any) -> Optional[_HistogramState]:
        return self._states.get(self._key(labels))

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "buckets": list(self.buckets),
            "values": {
                ",".join(k): {
                    "counts": list(s.counts),
                    "sum": s.sum,
                    "count": s.count,
                }
                for k, s in sorted(self._states.items())
            },
        }


class Timeseries(_Metric):
    """(virtual_time, value) samples with a drop-newest cap.

    The cap bounds memory on very long simulations; ``dropped`` counts
    samples discarded once full (reported, never silent).
    """

    kind = "timeseries"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_points: int = 20000,
    ) -> None:
        super().__init__(name, help, labels)
        self.max_points = max_points
        self._points: dict[tuple[str, ...], list[tuple[float, float]]] = {}
        self.dropped = 0

    def observe(self, t: float, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            points = self._points.get(key)
            if points is None:
                points = self._points[key] = []
            if len(points) >= self.max_points:
                self.dropped += 1
                return
            points.append((float(t), float(value)))

    def points(self, **labels: Any) -> list[tuple[float, float]]:
        return list(self._points.get(self._key(labels), ()))

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "dropped": self.dropped,
            "values": {
                ",".join(k): [[t, v] for t, v in pts]
                for k, pts in sorted(self._points.items())
            },
        }


class MetricsRegistry:
    """Name → instrument map with get-or-create registration.

    Re-registering a name returns the existing instrument; registering
    the same name as a different kind raises (a config bug worth
    failing loudly on). ``snapshot()`` is a plain JSON-able dict —
    the interchange format between sweep workers and the driver, the
    ``repro metrics`` report, and the tests.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help=help, labels=labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help=help, labels=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help=help, labels=labels, buckets=buckets
        )

    def timeseries(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_points: int = 20000,
    ) -> Timeseries:
        return self._get_or_create(
            Timeseries, name, help=help, labels=labels, max_points=max_points
        )

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> dict[str, Any]:
        return {m.name: m.snapshot() for m in self.metrics()}

    def reset(self) -> None:
        """Drop every registered instrument.

        Callers that cached instrument handles must re-fetch them —
        the convention everywhere in the simulator is to fetch handles
        at object construction, so a reset between simulations is safe.
        """
        with self._lock:
            self._metrics.clear()
