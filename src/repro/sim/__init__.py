"""Discrete-event simulation engine.

A small, dependency-free, generator-based discrete-event simulation (DES)
kernel in the style of SimPy, purpose-built for this reproduction. All
timed behaviour of the simulated Cell BE cluster (disks, NICs, DMA
engines, map tasks, ...) is expressed as *processes*: Python generators
that ``yield`` events. The Hadoop heartbeat protocol runs as callbacks
scheduled with :meth:`~repro.sim.engine.Environment.call_at`. The
engine maintains a global event heap and advances virtual time
deterministically.

Public surface:

- :class:`~repro.sim.engine.Environment` — the event loop and clock.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`,
  :class:`~repro.sim.events.Process` — awaitables.
- :class:`~repro.sim.resources.Resource` (FIFO, with lazy cancellation
  and :meth:`~repro.sim.resources.Resource.try_claim`) and the bounded
  :class:`~repro.sim.resources.Store` — contention primitives.
- :class:`~repro.sim.pipes.Pipe` — a bandwidth/latency-limited byte
  channel used by every network and bus model (the rack backplane uses
  its fair-share sibling :class:`~repro.sim.pipes.SharedPipe`).
- :class:`~repro.sim.trace.Tracer` — structured event tracing.
"""

from repro.sim.engine import Environment, SimulationError
from repro.sim.events import (
    AllOf,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.pipes import Pipe
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "Pipe",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "TraceRecord",
    "Tracer",
]
