"""Discrete-event simulation engine.

A small, dependency-free, generator-based discrete-event simulation (DES)
kernel in the style of SimPy, purpose-built for this reproduction. All
timed behaviour of the simulated Cell BE cluster (disks, NICs, DMA
engines, Hadoop heartbeats, ...) is expressed as *processes*: Python
generators that ``yield`` events. The engine maintains a global event
heap and advances virtual time deterministically.

Public surface:

- :class:`~repro.sim.engine.Environment` — the event loop and clock.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`, :class:`~repro.sim.events.AnyOf`,
  :class:`~repro.sim.events.Process` — awaitables.
- :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.PriorityResource`,
  :class:`~repro.sim.resources.Container`,
  :class:`~repro.sim.resources.Store` — contention primitives.
- :class:`~repro.sim.pipes.Pipe` — a bandwidth/latency-limited byte
  channel used by every network and bus model.
- :class:`~repro.sim.trace.Tracer` — structured event tracing.
"""

from repro.sim.engine import Environment, SimulationError
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import (
    Container,
    PriorityResource,
    Resource,
    Store,
)
from repro.sim.pipes import Pipe
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "Pipe",
    "PriorityResource",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "TraceRecord",
    "Tracer",
]
