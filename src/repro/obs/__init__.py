"""Telemetry: the ``repro.obs`` observability layer.

Where telemetry goes is part of the run context
(:class:`repro.runctx.RunContext`): its ``metrics`` registry and its
``traces`` collector, each None when off. Instrumented objects read the
context **at construction time**, like the engine and model modes, and
pre-sample it into a handle-or-``None`` attribute, so the disabled path
costs one ``is None`` check — usually zero, because the instrumented
object is never even attached.

The contract that makes telemetry safe to leave wired in everywhere:
**observation never perturbs canonical bytes.** Samplers only read
simulation state and yield plain ``env.timeout`` delays (never pooled
timeouts, which could be shared with model events); counters are
flushed from already-maintained model tallies after ``env.run``
returns. Golden series and sweep sha256 parity hold byte-identical
with everything enabled — ``tests/obs/test_transparency.py`` pins it
in all four engine x model mode combinations.

Environment:

- ``REPRO_OBS=1`` gives the process's default context one registry.

Trace collection is orthogonal: bind a context whose ``traces`` is a
:class:`repro.obs.traceexport.TraceCollector` and every cluster built
under it records into an enabled, ring-capped tracer owned by the
collector (the ``repro trace`` command does exactly this).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeseries,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timeseries",
]
