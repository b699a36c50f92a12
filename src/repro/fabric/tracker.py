"""The daemon's lease state machines: per-job leases, retries and
speculation, and the liveness of remote workers — socket-free and
fake-clock testable.

``repro serve`` leases every job's points. Each admitted job owns a
:class:`SweepTracker`; its lessees are the daemon's local pool and the
registered ``repro fleet worker`` processes, whose liveness one
:class:`WorkerTable` tracks for every job at once (the paper's
JobTracker, with TaskTrackers as lessees). All timing logic runs
against an injected ``clock``, so every failure schedule is
unit-testable in microseconds without sockets, sleeps, or races.

Mechanisms, and why each exists:

- **Leases.** Points are handed out in cost-ordered batches
  (longest-estimated-first, the driver's straggler rule). A lease is a
  *claim*, not a transfer: the tracker keeps the point until a result
  is accepted, so no lessee failure can lose work.
- **Lazy-expiry failure detection** (:class:`WorkerTable`). Every
  heartbeat pushes a ``(deadline, seq, worker)`` entry onto a heap; a
  worker whose newest entry expires without a fresher heartbeat is
  declared dead, and the daemon revokes its leases in every job, which
  re-enqueues them at the front of each queue. Stale heap entries
  (superseded by later heartbeats) are recognized by sequence number
  and skipped — O(log n) per heartbeat, no timer threads.
- **Lease timeouts.** Independent of worker liveness: a remote worker
  that heartbeats happily but never delivers a leased point (wedged
  executor) loses the lease after ``lease_timeout_s`` and the point
  re-dispatches. The local pool's leases never expire: its dispatch
  loop survives a dead pool worker by itself.
- **Speculative execution.** When the queue is empty and a lessee has
  spare capacity, points still running longer than ``factor ×`` the
  ``quantile`` of accepted durations (with at least ``min_completed``
  samples) are replicated onto it, capped at ``max_replicas``
  concurrent attempts. First result wins; the loser becomes a zombie
  whose eventual delivery is counted and dropped.
- **Retry with backoff + quarantine.** A point that *fails* remotely
  is retried after ``retry_backoff_s × 2**(failures-1)``; at
  ``max_attempts`` failures it is quarantined as a poison point and
  the job fails loudly — a deterministic failure must never grind
  through an infinite retry loop.
- **Exactly-once accounting.** Results are accepted first-wins by
  point index; duplicates (worker retransmits, zombie replicas,
  re-registered workers finishing pre-revocation leases) are counted
  and discarded. A result does not need a live lease to be accepted —
  a worker that finished a point while partitioned still contributes
  it — so no completed work is ever thrown away, and no point is ever
  accepted twice.

Neither class is thread-safe; the daemon serializes access under one
lock (frame handling is cheap — all heavy work happens in lessees).
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = ["SweepTracker", "TrackerConfig", "WorkerTable"]


@dataclass(frozen=True)
class TrackerConfig:
    """Failure-detector and retry tuning (see docs/FAULT_TOLERANCE.md).

    Defaults suit LAN fleets running sub-second points; chaos tests
    shrink every window to keep wall time low.
    """

    #: Heartbeat silence after which a worker is declared dead.
    worker_timeout_s: float = 5.0
    #: How long one remotely leased point may run before re-dispatch.
    lease_timeout_s: float = 60.0
    #: Max points granted per lease (also capped by free capacity).
    batch_size: int = 4
    #: Failed attempts per point before quarantine fails the job.
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


class WorkerTable:
    """Liveness of the registered remote workers, shared by every job."""

    def __init__(self, timeout_s: float, clock: Callable[[], float] = time.monotonic):
        self.timeout_s = timeout_s
        self._clock = clock
        #: name -> [seq of its last heartbeat, alive]; the seq validates
        #: heap entries. Table-wide, so a re-registered worker never
        #: matches an entry of its previous incarnation.
        self._workers: dict[str, list] = {}
        self._heap: list[tuple[float, int, str]] = []
        self._seq = 0
        self.ever_registered = False
        #: Workers declared dead by the detector.
        self.dead = 0

    def register(self, name: str) -> bool:
        """Admit (or re-admit) a worker; True when it supersedes an
        earlier incarnation, whose leases the caller revokes — results
        it still delivers remain acceptable."""
        known = name in self._workers
        self._workers[name] = [0, True]
        self.ever_registered = True
        self._beat(name)
        return known

    def forget(self, name: str) -> None:
        self._workers.pop(name, None)

    def beat(self, name: str) -> bool:
        """One heartbeat; False for an unknown or declared-dead worker,
        which must register again (typically after a daemon restart)."""
        entry = self._workers.get(name)
        if entry is None or not entry[1]:
            return False
        self._beat(name)
        return True

    def _beat(self, name: str) -> None:
        self._seq += 1
        self._workers[name][0] = self._seq
        heapq.heappush(self._heap, (self._clock() + self.timeout_s, self._seq, name))

    def tick(self, now: Optional[float] = None) -> list[str]:
        """Declare silent workers dead; returns their names."""
        now = self._clock() if now is None else now
        dead = []
        while self._heap and self._heap[0][0] <= now:
            _, seq, name = heapq.heappop(self._heap)
            entry = self._workers.get(name)
            if entry is None or not entry[1] or entry[0] != seq:
                continue  # superseded by a fresher heartbeat
            entry[1] = False
            self.dead += 1
            dead.append(name)
        return dead

    def live(self) -> list[str]:
        return [name for name, (_, alive) in self._workers.items() if alive]


class SweepTracker:
    """Lease/retry/speculation bookkeeping for one job's points."""

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
        #: in the job's ledger.
        self.completed: set[int] = set()
        #: index -> (lessee, attempt, was_speculative): the ledger every
        #: exactly-once assertion checks — exactly one entry per point.
        self.accepted: dict[int, tuple[str, int, bool]] = {}
        #: index -> error message for quarantined points.
        self.poison: dict[int, str] = {}
        #: lessee -> indices it holds leases on.
        self._held: dict[str, set[int]] = {}
        # index -> {lessee: (lease_seq, started_at, speculative)}
        self._runners: dict[int, dict[str, tuple[int, float, bool]]] = {}
        self._attempts: dict[int, int] = {}
        self._failures: dict[int, int] = {}
        self._lease_heap: list[tuple[float, int, int, str]] = []
        self._retry_heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._durations: list[float] = []
        self.prefilled = 0
        self.counters: dict[str, int] = {
            "results_accepted": 0,
            "duplicates": 0,
            "redispatched": 0,
            "retries": 0,
            "speculative": 0,
            "speculative_wins": 0,
            "quarantined": 0,
        }

    # -- completion state ----------------------------------------------------
    @property
    def finished(self) -> bool:
        return len(self.completed) >= self.total

    @property
    def poisoned(self) -> bool:
        return bool(self.poison)

    @property
    def queued(self) -> bool:
        """Points wait in the dispatch queue."""
        return bool(self._queued)

    def prefill(self, index: int) -> None:
        """Mark a point complete from outside the job (journal resume
        or point cache) — it will never be leased."""
        if index in self.completed:
            return
        self.completed.add(index)
        self._queued.discard(index)  # lazily skipped at grant time too
        self.prefilled += 1

    # -- leasing + speculation ----------------------------------------------
    def grant(self, lessee: str, free: int, *, expires: bool = True) -> list[int]:
        """Lease up to ``min(free, batch_size)`` points to ``lessee``:
        queued points first, then speculative replicas of stragglers.
        ``expires=False`` (the local pool) exempts the leases from the
        lease timeout."""
        now = self._clock()
        self.tick(now)
        budget = min(free, self.config.batch_size)
        grant: list[int] = []
        while budget > 0 and self._queue:
            index = self._queue.popleft()
            if index not in self._queued:
                continue  # settled while queued
            self._queued.discard(index)
            self._lease(index, lessee, now, False, expires)
            grant.append(index)
            budget -= 1
        if budget > 0 and not self._queued:
            for index in self._speculation_candidates(lessee, now)[:budget]:
                self._lease(index, lessee, now, True, expires)
                grant.append(index)
                self.counters["speculative"] += 1
        return grant

    def _lease(self, index: int, lessee: str, now: float,
               speculative: bool, expires: bool) -> None:
        self._seq += 1
        self._runners.setdefault(index, {})[lessee] = (self._seq, now, speculative)
        self._held.setdefault(lessee, set()).add(index)
        self._attempts[index] = self._attempts.get(index, 0) + 1
        if expires:
            heapq.heappush(self._lease_heap, (
                now + self.config.lease_timeout_s, self._seq, index, lessee))

    def _speculation_candidates(self, lessee: str, now: float) -> list[int]:
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
            if index in self.completed or lessee in runners:
                continue
            if len(runners) >= cfg.max_replicas:
                continue
            running_for = now - min(started for _, started, _ in runners.values())
            if running_for > threshold:
                candidates.append((-running_for, index))
        return [index for _, index in sorted(candidates)]

    def _release(self, lessee: str, index: int):
        """Drop ``lessee``'s lease on ``index``; its runner entry."""
        self._held.get(lessee, set()).discard(index)
        runners = self._runners.get(index)
        if runners is None:
            return None
        entry = runners.pop(lessee, None)
        if not runners:
            del self._runners[index]
        return entry

    # -- results -------------------------------------------------------------
    def report_result(
        self, lessee: str, index: int, elapsed_s: Optional[float],
    ) -> bool:
        """Accept (or dedup) one delivered point; True when accepted.

        First result wins. Acceptance does not require a live lease:
        a point finished across a partition/reconnect still counts.
        """
        entry = self._release(lessee, index)
        if index in self.completed or not 0 <= index < self.total:
            self.counters["duplicates"] += 1
            return False
        self.completed.add(index)
        speculative = bool(entry and entry[2])
        self.accepted[index] = (lessee, self._attempts.get(index, 1), speculative)
        if speculative:
            self.counters["speculative_wins"] += 1
        if elapsed_s is not None:
            self._durations.append(elapsed_s)
        self.counters["results_accepted"] += 1
        self._queued.discard(index)
        return True

    def report_failure(self, lessee: str, index: int, error: str) -> None:
        """One failed attempt: schedule a backed-off retry, or
        quarantine the point once its attempt budget is spent."""
        self._release(lessee, index)
        if index in self.completed or index in self.poison:
            return  # a zombie replica failing after the point settled
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

    def revoke(self, lessee: str) -> None:
        """Re-enqueue every lease ``lessee`` holds: it died, registered
        again, or refused the job."""
        # Reverse order: each point is pushed at the queue's front, so
        # walking high-to-low leaves the batch in canonical order.
        for index in sorted(self._held.pop(lessee, ()), reverse=True):
            self._release(lessee, index)
            self.counters["redispatched"] += 1
            self._requeue(index)

    # -- time ----------------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> None:
        """Release due retries and expire overdue leases. Safe to call
        as often as convenient — both heaps expire lazily with seq
        validation."""
        if now is None:
            now = self._clock()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, index = heapq.heappop(self._retry_heap)
            self._requeue(index)
        while self._lease_heap and self._lease_heap[0][0] <= now:
            _, seq, index, lessee = heapq.heappop(self._lease_heap)
            entry = self._runners.get(index, {}).get(lessee)
            if entry is None or entry[0] != seq:
                continue  # completed, revoked, or re-leased since
            self._release(lessee, index)
            self.counters["redispatched"] += 1
            self._requeue(index)

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
        daemon's final log line."""
        return {
            "total": self.total,
            "accepted": len(self.accepted),
            "prefilled": self.prefilled,
            "completed": len(self.completed),
            "pending": len(self._queued),
            "running": sum(len(r) for r in self._runners.values()),
            **self.counters,
        }
