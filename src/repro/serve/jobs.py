"""The daemon's job table: admission, coalescing, lifecycle, fan-out.

A :class:`Job` is one admitted computation — a bound scenario plus the
run context (engine/model modes) it will run under, identified by the
canonical :func:`~repro.experiments.cache.request_key`. The
:class:`JobTable` keeps the live (queued or running) job per key: a
submit whose key matches one **attaches** to it instead of creating a
new one, which is the request-coalescing guarantee — K identical
concurrent submits execute the grid once and every client receives the
same payload bytes.

States move ``queued → running → done`` with two exits (``cancelled``,
``failed``); terminal states never transition again. Every state
change happens under the job's lock, so a cancel racing the executor's
``queued → running`` flip resolves deterministically to exactly one
winner.

Subscribers receive events through per-subscriber queues. A subscriber
that attaches late (a coalesced client joining mid-run) may miss early
``point`` progress events — those are advisory — but terminal events
are replayed on subscribe, so no client can ever hang on a finished
job.

Time is injected (``clock``) so the status/cancel protocol is unit-
testable against a fake clock; nothing in this module reads wall time
directly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Callable, Mapping, Optional

from repro import runctx
from repro.experiments.cache import request_key
from repro.experiments.registry import get_scenario
from repro.experiments.scenario import Scenario

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "Job",
    "JobRequest",
    "JobTable",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"

TERMINAL_STATES = frozenset({DONE, CANCELLED, FAILED})


@dataclass(frozen=True)
class JobRequest:
    """One submit, as data: scenario name, overrides, seed, modes.

    ``reference_engine``/``reference_model`` of None mean "whatever mode
    the admitting thread's run context is in" — resolved once at
    admission, so the job's request key is fixed from then on.
    """

    scenario: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    reference_engine: Optional[bool] = None
    reference_model: Optional[bool] = None

    def bind(self) -> Scenario:
        """Resolve + bind the scenario (raises KeyError/GridError for
        unknown names or bad override values — admission-time errors)."""
        return get_scenario(self.scenario).with_overrides(
            dict(self.overrides) or None, seed=self.seed
        )

    def context(self) -> runctx.RunContext:
        """The run context the job executes under."""
        base = runctx.current()
        return runctx.RunContext(
            engine_reference=(base.engine_reference if self.reference_engine is None
                              else bool(self.reference_engine)),
            model_reference=(base.model_reference if self.reference_model is None
                             else bool(self.reference_model)),
        )


class Job:
    """One admitted computation and its subscriber fan-out."""

    def __init__(
        self,
        job_id: str,
        request: JobRequest,
        scenario: Scenario,
        ctx: runctx.RunContext,
        key: str,
        clock: Callable[[], float],
    ):
        self.id = job_id
        self.request = request
        self.scenario = scenario
        self.ctx = ctx
        self.key = key
        self.state = QUEUED
        self.total = len(scenario.points())
        self.done = 0
        self.clients = 0
        self.sha256: Optional[str] = None
        self.payload: Optional[str] = None
        self.result = None  # the SweepResult, once done
        self.error: Optional[str] = None
        self.executed_points = 0
        self.cached_points = 0
        self.cache_hit = False
        self.created = clock()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: The job's SweepLedger and SweepTracker, once the daemon has
        #: read its durable sources.
        self.ledger = None
        self.tracker = None
        self._clock = clock
        self._lock = threading.Lock()
        self._subs: list[SimpleQueue] = []
        self._cancel = threading.Event()
        self._settled = threading.Event()
        # Abandonment tracking: a job whose last *streaming* client
        # disconnected mid-run (without an explicit cancel) holds a
        # lease that expires instead of leaking — see
        # ReproServer.abandon_timeout_s. Jobs submitted with detach
        # never subscribe, so they are exempt by construction.
        self._had_subscriber = False
        self._idle_since: Optional[float] = None

    # -- subscriber fan-out --------------------------------------------------
    def subscribe(self) -> SimpleQueue:
        """A queue this job's events will land on. Subscribing to a
        finished job immediately delivers the terminal event, so late
        (coalesced or detached-then-reattached) clients never block."""
        q: SimpleQueue = SimpleQueue()
        with self._lock:
            if self.state in TERMINAL_STATES:
                q.put(self._terminal_event_locked())
            else:
                self._subs.append(q)
                self._had_subscriber = True
                self._idle_since = None
        return q

    def unsubscribe(self, q: SimpleQueue) -> None:
        with self._lock:
            try:
                self._subs.remove(q)
            except ValueError:
                pass
            if (not self._subs and self._had_subscriber
                    and self.state not in TERMINAL_STATES
                    and self._idle_since is None):
                self._idle_since = self._clock()

    def abandoned_for(self, now: float) -> float:
        """Seconds this job has been running with every one of its
        streaming clients gone. 0.0 while any subscriber is attached,
        for detach-submitted jobs (which never subscribe), and for
        terminal jobs — the reaper only ever sees positive values for
        genuinely orphaned leases."""
        with self._lock:
            if self._idle_since is None or self.state in TERMINAL_STATES:
                return 0.0
            return now - self._idle_since

    def _publish_locked(self, event: dict[str, Any]) -> None:
        for q in self._subs:
            q.put(event)

    def _terminal_event_locked(self) -> dict[str, Any]:
        if self.state == DONE:
            return self._result_event_locked()
        if self.state == CANCELLED:
            return {"event": "cancelled", "job": self.id}
        return {"event": "error", "job": self.id,
                "message": self.error or "job failed"}

    def _result_event_locked(self) -> dict[str, Any]:
        return {
            "event": "result",
            "job": self.id,
            "scenario": self.scenario.name,
            "sha256": self.sha256,
            "payload": self.payload,
            "executed_points": self.executed_points,
            "cached_points": self.cached_points,
            "cache_hit": self.cache_hit,
            "elapsed_s": round((self.finished or 0) - (self.started or 0), 6),
        }

    # -- lifecycle -----------------------------------------------------------
    def attach(self) -> None:
        with self._lock:
            self.clients += 1

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        return self._settled.wait(timeout)

    def mark_running(self) -> bool:
        """queued → running; False if the job is already terminal (a
        cancel won the race), telling the executor to do nothing."""
        with self._lock:
            if self.state != QUEUED:
                return False
            self.state = RUNNING
            self.started = self._clock()
            return True

    def note_cached(self, cached: int) -> None:
        with self._lock:
            self.done += cached

    def publish_point(
        self, index: int, params: Mapping[str, Any], values: Mapping[str, float]
    ) -> None:
        with self._lock:
            self.done += 1
            self._publish_locked({
                "event": "point",
                "job": self.id,
                "index": index,
                "params": dict(params),
                "values": dict(values),
                "done": self.done,
                "total": self.total,
            })

    def cancel(self) -> str:
        """Request cancellation; returns the resulting state.

        A queued job (no executor has claimed it yet) dies on the spot;
        a running one gets the flag and the executor confirms with
        :meth:`finish_cancelled` — callers see ``"cancelling"`` until
        then. Terminal jobs are unaffected (idempotent)."""
        with self._lock:
            if self.state in TERMINAL_STATES:
                return self.state
            self._cancel.set()
            if self.state == QUEUED:
                self._finish_locked(CANCELLED)
                return CANCELLED
            return "cancelling"

    def finish_done(self, result, payload: str, sha256: str,
                    cache_hit: bool = False) -> None:
        with self._lock:
            if self.state in TERMINAL_STATES:
                return
            self.result = result
            self.payload = payload
            self.sha256 = sha256
            self.cache_hit = cache_hit
            self.executed_points = result.executed_points
            self.cached_points = result.cached_points
            self.done = self.total
            self._finish_locked(DONE)

    def finish_cancelled(self) -> None:
        with self._lock:
            if self.state not in TERMINAL_STATES:
                self._finish_locked(CANCELLED)

    def finish_failed(self, message: str) -> None:
        with self._lock:
            if self.state not in TERMINAL_STATES:
                self.error = message
                self._finish_locked(FAILED)

    def _finish_locked(self, state: str) -> None:
        self.state = state
        self.finished = self._clock()
        self._publish_locked(self._terminal_event_locked())
        self._subs.clear()  # every subscriber got the terminal event
        self._settled.set()

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """One status row (non-canonical, display/protocol only)."""
        with self._lock:
            now = self._clock()
            row: dict[str, Any] = {
                "job": self.id,
                "scenario": self.scenario.name,
                "state": self.state,
                "done": self.done,
                "total": self.total,
                "clients": self.clients,
                "request_key": self.key[:16],
                "age_s": round(now - self.created, 3),
            }
            if self.started is not None:
                row["runtime_s"] = round(
                    (self.finished if self.finished is not None else now)
                    - self.started, 3)
            if self.sha256 is not None:
                row["sha256"] = self.sha256
            if self.error is not None:
                row["error"] = self.error
            return row


class JobTable:
    """Thread-safe admission + lookup, coalescing on the request key."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}  # insertion order == admission order
        self._live: dict[str, Job] = {}  # request key -> queued/running job
        self._seq = 0
        self.coalesced_submits = 0

    def admit(self, request: JobRequest) -> tuple[Job, bool]:
        """``(job, created)``: a fresh job the caller must execute, or a
        live one with an identical request key the caller attaches to.

        Raises ``KeyError``/``GridError`` for unresolvable requests —
        admission rejects what execution could never run.
        """
        sc = request.bind()
        ctx = request.context()
        key = request_key(sc, ctx)
        with self._lock:
            job = self._live.get(key)
            # A finished job its executor has not released yet is not
            # live: a resubmit must reach the cache, not its husk.
            created = job is None or job.state in TERMINAL_STATES
            if created:
                self._seq += 1
                job = Job(f"job-{self._seq:06d}", request, sc, ctx, key,
                          self._clock)
                self._jobs[job.id] = job
                self._live[key] = job
            else:
                self.coalesced_submits += 1
        job.attach()
        return job, created

    def release(self, job: Job) -> None:
        """Drop a finished job from the live map (its status row stays);
        idempotent, and never evicts a newer job for the same key."""
        with self._lock:
            if self._live.get(job.key) is job:
                del self._live[job.key]

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def active(self) -> list[Job]:
        return [j for j in self.jobs() if j.state not in TERMINAL_STATES]

    def cancel(self, job_id: str) -> tuple[bool, str]:
        """``(ok, state)``; unknown ids are reported, not raised."""
        job = self.get(job_id)
        if job is None:
            return False, f"unknown job {job_id!r}"
        state = job.cancel()
        if state == CANCELLED:
            self.release(job)
        return True, state

    def rows(self) -> list[dict[str, Any]]:
        return [job.snapshot() for job in self.jobs()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
