"""Fault-tolerant distributed sweep fabric: coordinator + worker fleet.

The third execution tier for scenario sweeps, after in-process
(``repro sweep``) and daemon-served (``repro serve``): a
**coordinator** (``repro fleet serve``) holds the canonical point list
for one sweep and hands out point *leases* to a fleet of **workers**
(``repro fleet worker``) that register over the same line-JSON wire
format the serving layer uses, heartbeat on a jittered cadence, execute
points through the existing scenario machinery, and stream values back.

What makes it a fabric rather than a job queue is the failure model —
everything on the coordinator side assumes workers lie, stall, die,
and resurrect:

- a lazy-expiry failure detector revokes leases from silent workers
  and re-enqueues their points;
- leases themselves time out, so a wedged worker cannot strand a point;
- stragglers past a configurable duration quantile are speculatively
  re-executed on idle workers, first result wins;
- failing points retry with exponential backoff up to a budget, then
  quarantine (the sweep aborts loudly rather than hangs);
- completed points are journaled to disk, so a crashed coordinator
  restarts into a resume, not a re-run.

The hard contract is inherited from the rest of the repo: any worker
count, failure schedule, and completion order merges to bytes
**identical** to a serial ``repro sweep`` (sha256-equal), with
exactly-once accounting — duplicated deliveries are deduplicated, late
results from zombie replicas are dropped, every accepted point is
accepted exactly once. ``fabric/chaos.py`` is the deterministic
fault-injection harness the tests drive that contract with.

Layering (socket-free core first, so the interesting logic is
fake-clock unit-testable):

- :mod:`repro.fabric.protocol` — fleet wire messages on
  :mod:`repro.wire`;
- :mod:`repro.fabric.journal` — the sweep journal (coordinator resume,
  shard output);
- :mod:`repro.fabric.tracker` — lease/retry/speculation state machine;
- :mod:`repro.fabric.coordinator` — the network coordinator;
- :mod:`repro.fabric.worker` — the worker client;
- :mod:`repro.fabric.chaos` — scripted fault injection + fleet harness.

See ``docs/FAULT_TOLERANCE.md`` for semantics and tuning.
"""

from repro.fabric.chaos import CoordinatorChaos, WorkerChaos, run_chaos_fleet
from repro.fabric.coordinator import FleetCoordinator
from repro.fabric.journal import Journal
from repro.fabric.protocol import FLEET_PROTOCOL_VERSION, FleetError
from repro.fabric.tracker import SweepTracker, TrackerConfig
from repro.fabric.worker import FleetWorker

__all__ = [
    "CoordinatorChaos",
    "FLEET_PROTOCOL_VERSION",
    "FleetCoordinator",
    "FleetError",
    "FleetWorker",
    "Journal",
    "SweepTracker",
    "TrackerConfig",
    "WorkerChaos",
    "run_chaos_fleet",
]
