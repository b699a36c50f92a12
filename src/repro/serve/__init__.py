"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

A long-running process that accepts concurrent simulation/sweep
requests over a line-delimited JSON protocol (TCP or unix socket),
multiplexes them onto one shared persistent worker pool, coalesces
identical concurrent requests onto a single computation, and streams
per-point progress plus a final payload that is byte-identical to what
the offline ``repro sweep`` command writes.

Layering:

- :mod:`repro.serve.protocol` — wire format and request validation;
- :mod:`repro.serve.jobs` — job state machine, coalescing admission,
  subscriber fan-out (socket-free, fake-clock testable);
- :mod:`repro.serve.server` — the daemon: listener, connection
  handlers, pool-backed executors;
- :mod:`repro.serve.client` — the thin client ``repro submit`` uses.
"""

import importlib

from repro.serve.client import (
    Address,
    request_one,
    request_stream,
    retry_delays,
    wait_for_server,
)
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError

#: Daemon-side names, imported on first use: a client process imports
#: only the wire format, not the sweep stack (and NumPy) behind them.
_DAEMON_NAMES = {
    "Job": "repro.serve.jobs",
    "JobRequest": "repro.serve.jobs",
    "JobTable": "repro.serve.jobs",
    "ReproServer": "repro.serve.server",
}


def __getattr__(name: str):
    module = _DAEMON_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)

__all__ = [
    "Address",
    "Job",
    "JobRequest",
    "JobTable",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "request_one",
    "request_stream",
    "retry_delays",
    "wait_for_server",
]
