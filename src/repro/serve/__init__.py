"""Simulation-as-a-service: ``repro serve``, the one daemon, and its client.

A long-running process that accepts concurrent simulation/sweep
requests over a line-delimited JSON protocol (TCP or unix socket),
coalesces identical concurrent requests onto a single computation,
leases every job's points to its local worker pool and to registered
``repro fleet worker`` processes, and streams per-point progress plus a final
payload that is byte-identical to what the offline ``repro sweep``
command writes. ``repro fleet serve`` is the same daemon with no local
pool and one journaled job.

Layering:

- :mod:`repro.serve.protocol` — the client and worker frames and their
  validation;
- :mod:`repro.serve.jobs` — job state machine, coalescing admission,
  subscriber fan-out (socket-free, fake-clock testable);
- :mod:`repro.serve.server` — the daemon: listener, client and worker
  sessions, per-job lease tables (:mod:`repro.fabric.tracker`) and
  executors;
- :mod:`repro.serve.client` — the thin client ``repro submit`` and the
  fleet worker use.
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
