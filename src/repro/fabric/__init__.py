"""Fault-tolerant leasing for the one daemon: trackers, worker, journal.

``repro serve`` (:mod:`repro.serve`) leases every job's points to its
local pool and to a fleet of **workers** (``repro fleet worker``) that
register over the same line-JSON connection clients use, heartbeat on
a jittered cadence, execute points through the existing scenario
machinery, and stream values back. ``repro fleet serve`` is that
daemon with no local pool and one job, admitted at start with a
journal.

What makes it a fabric rather than a job queue is the failure model —
everything on the daemon side assumes workers lie, stall, die, and
resurrect:

- a lazy-expiry failure detector revokes leases from silent workers
  and re-enqueues their points;
- leases themselves time out, so a wedged worker cannot strand a point;
- stragglers past a configurable duration quantile are speculatively
  re-executed on idle lessees, first result wins;
- failing points retry with exponential backoff up to a budget, then
  quarantine (the job fails loudly rather than hangs);
- a ``fleet serve`` job journals completed points to disk, so a
  crashed daemon restarts into a resume, not a re-run.

The hard contract is inherited from the rest of the repo: any worker
count, failure schedule, and completion order merges to bytes
**identical** to a serial ``repro sweep`` (sha256-equal), with
exactly-once accounting — duplicated deliveries are deduplicated, late
results from zombie replicas are dropped, every accepted point is
accepted exactly once. ``fabric/chaos.py`` is the deterministic
fault-injection harness the tests drive that contract with.

Layering (socket-free core first, so the interesting logic is
fake-clock unit-testable):

- :mod:`repro.fabric.tracker` — per-job lease/retry/speculation state
  machine and the daemon's worker liveness table;
- :mod:`repro.fabric.journal` — the sweep journal (``fleet serve``
  resume, shard output);
- :mod:`repro.fabric.worker` — the worker client;
- :mod:`repro.fabric.chaos` — scripted fault injection + fleet harness.

The frames live in :mod:`repro.serve.protocol` and the daemon in
:mod:`repro.serve.server`. See ``docs/FAULT_TOLERANCE.md`` for
semantics and tuning.
"""

import importlib

#: Public names, imported on first use: the daemon imports only the
#: tracker, not the worker or the chaos harness.
_NAMES = {
    "CoordinatorChaos": "repro.fabric.chaos",
    "FleetError": "repro.fabric.worker",
    "FleetWorker": "repro.fabric.worker",
    "Journal": "repro.fabric.journal",
    "SweepTracker": "repro.fabric.tracker",
    "TrackerConfig": "repro.fabric.tracker",
    "WorkerChaos": "repro.fabric.chaos",
    "WorkerTable": "repro.fabric.tracker",
    "run_chaos_fleet": "repro.fabric.chaos",
}


def __getattr__(name: str):
    module = _NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = sorted(_NAMES)
