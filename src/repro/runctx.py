"""The run context: which engine and model modes a run uses, and where
its telemetry goes.

One frozen :class:`RunContext` replaces process-wide switches. Objects
that depend on a mode read :func:`current` **once, at construction**
(``Environment``, ``JobTracker``, ``MapKernel``, ``OffloadRuntime``,
``TaskTracker``, ``SimulatedCluster``, ``Cluster``, ``PointCache``), so
a running simulation never changes mode mid-flight. :func:`using`
binds a context for a block; the binding lives in a
:class:`contextvars.ContextVar`, so it is scoped to the thread (and
asyncio task) that made it. A new thread does not inherit its parent's
binding: it starts from :meth:`RunContext.from_env`. That is what lets
four sweeps in four modes run side by side in one process.

The fields:

- ``engine_reference`` — the pre-overhaul ``step()``-per-event loop
  instead of the optimized one (``REPRO_SIM_REFERENCE=1``). Both loops
  are trace-identical.
- ``model_reference`` — the pre-overhaul cluster protocol
  (``REPRO_MODEL_REFERENCE=1``). The default protocol is event-thin,
  and therefore *not* trace-identical to the reference one:

  - **event-thin heartbeats**: a TaskTracker with no free slots, no
    completions and no local state change parks instead of emitting
    work-less fixed-interval heartbeats. It wakes on a per-tracker
    dirty signal (slot release, queued kill, new cluster demand) or on
    the liveness keepalive deadline;
  - **analytic task segments**: the per-SPE seed/compute/result DMA
    chains of a Monte-Carlo offload collapse into one composite event
    when nothing can observe the interleaving;
  - **deadline-driven failure monitoring**: the JobTracker's liveness
    monitor sleeps to the next expiry deadline instead of ticking every
    heartbeat interval.

  Reference mode keeps the fixed-interval protocol and the
  event-accurate offload exactly as frozen before that overhaul, so the
  pre-overhaul makespans stay byte-reproducible
  (``tests/model/test_event_thin.py``). See ``docs/PERFORMANCE.md``
  ("Model-layer performance") for the elision contract.
- ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` that
  instrumented objects record into, or None (``REPRO_OBS=1`` gives the
  process one registry). None keeps every hot path at one ``is None``
  test.
- ``traces`` — a :class:`~repro.obs.traceexport.TraceCollector` that
  every cluster built under the context records into, or None.

Both modes are part of every cache key. Telemetry never is: recording
never perturbs canonical bytes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.traceexport import TraceCollector

__all__ = ["RunContext", "current", "using"]


def _flag(name: str) -> bool:
    return os.environ.get(name, "0") not in ("", "0")


@dataclass(frozen=True)
class RunContext:
    """The modes and telemetry sinks of one run (see the module doc)."""

    engine_reference: bool = False
    model_reference: bool = False
    metrics: Optional[MetricsRegistry] = None
    traces: Optional["TraceCollector"] = None

    @classmethod
    def from_env(cls) -> "RunContext":
        """The context the environment variables describe, read once per
        process: every call returns the same object."""
        return _FROM_ENV

    def __reduce__(self):
        # The sinks are objects of this process (their instruments hold
        # locks, which do not pickle): a context sent to a pool worker
        # carries the two modes only.
        return (RunContext, (self.engine_reference, self.model_reference))


_FROM_ENV = RunContext(
    engine_reference=_flag("REPRO_SIM_REFERENCE"),
    model_reference=_flag("REPRO_MODEL_REFERENCE"),
    metrics=MetricsRegistry() if _flag("REPRO_OBS") else None,
)

_CURRENT: ContextVar[RunContext] = ContextVar("repro_run_context", default=_FROM_ENV)


def current() -> RunContext:
    """The context bound in this thread, else :meth:`RunContext.from_env`."""
    return _CURRENT.get()


@contextmanager
def using(ctx: RunContext) -> Iterator[RunContext]:
    """Bind ``ctx`` for the block, in this thread only."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
