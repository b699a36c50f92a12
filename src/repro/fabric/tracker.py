"""The coordinator's sweep state machine: leases, failure detection,
retries, speculation — socket-free and fake-clock testable.

:class:`SweepTracker` owns everything interesting about the fleet's
fault tolerance; the network coordinator is a thin shell that feeds it
worker frames and a clock. That split mirrors the simulated liveness
monitor elsewhere in the repo: all timing logic runs against an
injected ``clock``, so every failure schedule is unit-testable in
microseconds without sockets, sleeps, or races.

Mechanisms, and why each exists:

- **Leases.** Points are handed to workers in cost-ordered batches
  (longest-estimated-first, the driver's straggler rule). A lease is a
  *claim*, not a transfer: the tracker keeps the point until a result
  is accepted, so no worker failure can lose work.
- **Lazy-expiry failure detection.** Every heartbeat pushes a
  ``(deadline, seq, worker)`` entry onto a heap; a worker whose newest
  entry expires without a fresher heartbeat is declared dead and its
  leases are revoked and re-enqueued at the front of the queue.
  Stale heap entries (superseded by later heartbeats) are recognized
  by sequence number and skipped — O(log n) per heartbeat, no timer
  threads, no per-worker state scans.
- **Lease timeouts.** Independent of worker liveness: a worker that
  heartbeats happily but never delivers a leased point (wedged
  executor) loses the lease after ``lease_timeout_s`` and the point
  re-dispatches. The same seq discipline invalidates expired-lease
  entries for points that completed or were re-leased meanwhile.
- **Speculative execution.** When the queue is empty and a worker has
  spare capacity, points still running longer than ``factor ×`` the
  ``quantile`` of accepted durations (with at least ``min_completed``
  samples) are replicated onto the idle worker, capped at
  ``max_replicas`` concurrent attempts. First result wins; the loser
  becomes a zombie whose eventual delivery is counted and dropped.
- **Retry with backoff + quarantine.** A point that *fails* (raises)
  is retried after ``retry_backoff_s × 2**(failures-1)``; at
  ``max_attempts`` failures it is quarantined as a poison point and
  the sweep aborts loudly — a deterministic failure must never grind
  through an infinite retry loop.
- **Exactly-once accounting.** Results are accepted first-wins by
  point index; duplicates (worker retransmits, zombie replicas,
  re-registered workers finishing pre-revocation leases) are counted
  and discarded. A result does not need a live lease to be accepted —
  a worker that finished a point while partitioned still contributes
  it — so no completed work is ever thrown away, and no point is ever
  accepted twice.

The tracker is **not** thread-safe; the coordinator serializes access
under one lock (frame handling is cheap — all heavy work happens in
workers).
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["SweepTracker", "TrackerConfig"]


@dataclass(frozen=True)
class TrackerConfig:
    """Failure-detector and retry tuning (see docs/FAULT_TOLERANCE.md).

    Defaults suit LAN fleets running sub-second points; chaos tests
    shrink every window to keep wall time low.
    """

    #: Heartbeat silence after which a worker is declared dead.
    worker_timeout_s: float = 5.0
    #: How long one leased point may run before being re-dispatched.
    lease_timeout_s: float = 60.0
    #: Max points granted per lease (also capped by worker capacity).
    batch_size: int = 4
    #: Failed attempts per point before quarantine aborts the sweep.
    max_attempts: int = 3
    #: Base retry delay; actual delay is base * 2**(failures-1).
    retry_backoff_s: float = 0.25
    #: Duration quantile of accepted points used as the straggler bar.
    speculation_quantile: float = 0.75
    #: A running point is speculated past factor * quantile duration.
    speculation_factor: float = 2.0
    #: Straggler bar never drops below this: when every point finishes
    #: in microseconds, factor * quantile rounds to ~0 and would flag
    #: any in-flight point — replicating work that costs less than the
    #: replication itself.
    speculation_floor_s: float = 0.5
    #: Accepted durations needed before speculation switches on.
    speculation_min_completed: int = 3
    #: Max concurrent attempts of one point (original + speculative).
    max_replicas: int = 2


@dataclass
class _Worker:
    name: str
    capacity: int
    last_seen: float
    seq: int = 0  # bumped per heartbeat; validates liveness-heap entries
    alive: bool = True
    leased: set[int] = field(default_factory=set)
    results: int = 0


class SweepTracker:
    """Lease/retry/speculation bookkeeping for one sweep's points."""

    def __init__(
        self,
        order: Iterable[int],
        total: int,
        config: Optional[TrackerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or TrackerConfig()
        self.total = total
        self._clock = clock
        self._queue: deque[int] = deque(order)
        self._queued: set[int] = set(self._queue)
        #: Indices of accepted and prefilled points; their values live
        #: in the coordinator's ledger.
        self.completed: set[int] = set()
        #: index -> (worker, attempt, was_speculative): the ledger every
        #: exactly-once assertion checks — exactly one entry per point.
        self.accepted: dict[int, tuple[str, int, bool]] = {}
        #: index -> error message for quarantined points.
        self.poison: dict[int, str] = {}
        self._workers: dict[str, _Worker] = {}
        # index -> {worker: (lease_seq, started_at, speculative)}
        self._runners: dict[int, dict[str, tuple[int, float, bool]]] = {}
        self._attempts: dict[int, int] = {}
        self._failures: dict[int, int] = {}
        self._worker_heap: list[tuple[float, int, str]] = []
        self._lease_heap: list[tuple[float, int, int, str]] = []
        self._retry_heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._durations: list[float] = []
        self.prefilled = 0
        self.ever_registered = False
        self.counters: dict[str, int] = {
            "results_accepted": 0,
            "duplicates": 0,
            "redispatched": 0,
            "retries": 0,
            "speculative": 0,
            "speculative_wins": 0,
            "dead_workers": 0,
            "quarantined": 0,
        }

    # -- completion state ----------------------------------------------------
    @property
    def finished(self) -> bool:
        return len(self.completed) >= self.total

    @property
    def poisoned(self) -> bool:
        return bool(self.poison)

    def live_workers(self) -> list[str]:
        return [w.name for w in self._workers.values() if w.alive]

    def prefill(self, index: int) -> None:
        """Mark a point complete from outside the fleet (journal resume
        or point cache) — it will never be leased."""
        if index in self.completed:
            return
        self.completed.add(index)
        self._queued.discard(index)  # lazily skipped at grant time too
        self.prefilled += 1

    # -- worker lifecycle ----------------------------------------------------
    def register(self, name: str, capacity: int) -> None:
        """Admit (or re-admit) a worker. A re-register supersedes any
        earlier incarnation: its leases are revoked and re-enqueued —
        but results it still delivers remain acceptable, so work done
        across a reconnect is never wasted."""
        now = self._clock()
        old = self._workers.get(name)
        if old is not None:
            self._revoke_worker(old)
        worker = _Worker(name=name, capacity=capacity, last_seen=now)
        self._workers[name] = worker
        self.ever_registered = True
        self._beat(worker, now)

    def _beat(self, worker: _Worker, now: float) -> None:
        worker.last_seen = now
        worker.alive = True
        worker.seq += 1
        heapq.heappush(
            self._worker_heap,
            (now + self.config.worker_timeout_s, worker.seq, worker.name),
        )

    def heartbeat(
        self, name: str, free: int
    ) -> tuple[str, Optional[list[int]]]:
        """One worker heartbeat. Returns ``(verdict, lease)``:

        - ``("abort", None)`` — the sweep is poisoned; stop working;
        - ``("done", None)`` — every point is accepted; disconnect;
        - ``("reregister", None)`` — unknown (or previously declared
          dead) worker, typically after a coordinator restart;
        - ``("lease", [indices])`` — points granted to this worker;
        - ``("ok", None)`` — noted, nothing to hand out.
        """
        if self.poisoned:
            return "abort", None
        if self.finished:
            return "done", None
        worker = self._workers.get(name)
        if worker is None or not worker.alive:
            return "reregister", None
        now = self._clock()
        self._beat(worker, now)
        self.tick(now)
        grant = self._grant(worker, free, now)
        return ("lease", grant) if grant else ("ok", None)

    # -- leasing + speculation ----------------------------------------------
    def _grant(self, worker: _Worker, free: int, now: float) -> list[int]:
        budget = min(free, self.config.batch_size)
        grant: list[int] = []
        while budget > 0 and self._queue:
            index = self._queue.popleft()
            self._queued.discard(index)
            if index in self.completed or index in self.poison:
                continue
            self._lease(index, worker, now, speculative=False)
            grant.append(index)
            budget -= 1
        if budget > 0 and not self._queue:
            for index in self._speculation_candidates(worker, now):
                if budget <= 0:
                    break
                self._lease(index, worker, now, speculative=True)
                grant.append(index)
                budget -= 1
                self.counters["speculative"] += 1
        return grant

    def _lease(self, index: int, worker: _Worker, now: float,
               speculative: bool) -> None:
        self._seq += 1
        self._runners.setdefault(index, {})[worker.name] = (
            self._seq, now, speculative)
        worker.leased.add(index)
        self._attempts[index] = self._attempts.get(index, 0) + 1
        heapq.heappush(
            self._lease_heap,
            (now + self.config.lease_timeout_s, self._seq, index, worker.name),
        )

    def _speculation_candidates(self, worker: _Worker, now: float) -> list[int]:
        cfg = self.config
        if len(self._durations) < cfg.speculation_min_completed:
            return []
        ordered = sorted(self._durations)
        rank = min(len(ordered) - 1,
                   max(0, math.ceil(cfg.speculation_quantile * len(ordered)) - 1))
        threshold = max(cfg.speculation_factor * ordered[rank],
                        cfg.speculation_floor_s)
        candidates: list[tuple[float, int]] = []
        for index, runners in self._runners.items():
            if index in self.completed or not runners:
                continue
            if worker.name in runners or len(runners) >= cfg.max_replicas:
                continue
            oldest = min(started for _, started, _ in runners.values())
            running_for = now - oldest
            if running_for > threshold:
                candidates.append((-running_for, index))
        return [index for _, index in sorted(candidates)]

    # -- results -------------------------------------------------------------
    def report_result(
        self, name: str, index: int, elapsed_s: Optional[float],
    ) -> bool:
        """Accept (or dedup) one delivered point; True when accepted.

        First result wins. Acceptance does not require a live lease:
        a point finished across a partition/reconnect still counts.
        """
        worker = self._workers.get(name)
        entry = self._runners.get(index, {}).pop(name, None)
        if not self._runners.get(index):
            self._runners.pop(index, None)
        if worker is not None:
            worker.leased.discard(index)
        if index in self.completed:
            self.counters["duplicates"] += 1
            return False
        if not 0 <= index < self.total:
            self.counters["duplicates"] += 1
            return False
        self.completed.add(index)
        speculative = bool(entry and entry[2])
        self.accepted[index] = (name, self._attempts.get(index, 1), speculative)
        if speculative:
            self.counters["speculative_wins"] += 1
        if elapsed_s is not None:
            self._durations.append(elapsed_s)
        if worker is not None:
            worker.results += 1
        self.counters["results_accepted"] += 1
        self._queued.discard(index)
        return True

    def report_failure(self, name: str, index: int, error: str) -> None:
        """One failed attempt: schedule a backed-off retry, or
        quarantine the point once its attempt budget is spent."""
        worker = self._workers.get(name)
        entry = self._runners.get(index, {}).pop(name, None)
        if not self._runners.get(index):
            self._runners.pop(index, None)
        if worker is not None:
            worker.leased.discard(index)
        if index in self.completed or index in self.poison:
            return  # a zombie replica failing after the point settled
        del entry  # the lease is spent either way
        failures = self._failures.get(index, 0) + 1
        self._failures[index] = failures
        if failures >= self.config.max_attempts:
            self.poison[index] = error
            self.counters["quarantined"] += 1
            return
        delay = self.config.retry_backoff_s * (2 ** (failures - 1))
        self._seq += 1
        heapq.heappush(self._retry_heap,
                       (self._clock() + delay, self._seq, index))
        self.counters["retries"] += 1

    # -- time ----------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> None:
        """Advance the failure detectors: release due retries, declare
        silent workers dead (revoking + re-enqueuing their leases), and
        expire overdue leases. Safe to call as often as convenient —
        all heaps expire lazily with seq validation."""
        if now is None:
            now = self._clock()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, index = heapq.heappop(self._retry_heap)
            self._requeue(index)
        while self._worker_heap and self._worker_heap[0][0] <= now:
            _, seq, name = heapq.heappop(self._worker_heap)
            worker = self._workers.get(name)
            if worker is None or not worker.alive or worker.seq != seq:
                continue  # superseded by a fresher heartbeat
            worker.alive = False
            self.counters["dead_workers"] += 1
            self._revoke_worker(worker)
        while self._lease_heap and self._lease_heap[0][0] <= now:
            _, seq, index, name = heapq.heappop(self._lease_heap)
            entry = self._runners.get(index, {}).get(name)
            if entry is None or entry[0] != seq:
                continue  # completed, revoked, or re-leased since
            self._runners[index].pop(name, None)
            if not self._runners.get(index):
                self._runners.pop(index, None)
            worker = self._workers.get(name)
            if worker is not None:
                worker.leased.discard(index)
            self.counters["redispatched"] += 1
            self._requeue(index)

    def _revoke_worker(self, worker: _Worker) -> None:
        # Reverse order: each point is pushed at the queue's front, so
        # walking high-to-low leaves the batch in canonical order.
        for index in sorted(worker.leased, reverse=True):
            runners = self._runners.get(index)
            if runners is not None:
                runners.pop(worker.name, None)
                if not runners:
                    self._runners.pop(index, None)
            self.counters["redispatched"] += 1
            self._requeue(index)
        worker.leased.clear()

    def _requeue(self, index: int) -> None:
        """Put a point back at the *front* of the queue — revoked work
        is the oldest work, and cost-ordered dispatch already put the
        longest points first. Skipped when the point settled meanwhile
        or another replica is still running it (that replica's own
        failure/expiry will requeue it if needed)."""
        if (index in self.completed or index in self.poison
                or index in self._queued or self._runners.get(index)):
            return
        self._queue.appendleft(index)
        self._queued.add(index)

    # -- reporting -----------------------------------------------------------
    def accounting(self) -> dict[str, Any]:
        """The exactly-once ledger, summarized for assertions and the
        coordinator's final log line."""
        return {
            "total": self.total,
            "accepted": len(self.accepted),
            "prefilled": self.prefilled,
            "completed": len(self.completed),
            **self.counters,
        }

    def stats(self) -> dict[str, Any]:
        return {
            "workers_live": len(self.live_workers()),
            "workers_known": len(self._workers),
            "pending": len(self._queue),
            "running": sum(len(r) for r in self._runners.values()),
            "completed": len(self.completed),
            "total": self.total,
            **self.counters,
        }
