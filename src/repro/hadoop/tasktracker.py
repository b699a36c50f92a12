"""The TaskTracker: per-blade task execution agent.

"The process that controls the execution of the map tasks inside a node
is named TaskTracker. This process receives a split description, divides
the split data into records ... and launches the processes that will
execute the map tasks (Mappers). The programmer can also decide how many
simultaneous map() functions wants to execute on a node" (§III-A). The
paper runs two Mappers per blade — one per Cell socket.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro import runctx
from repro.hadoop.job import TaskKind
from repro.hadoop.messages import (
    Assignment,
    Heartbeat,
    KillDirective,
    TaskDone,
    TaskFailed,
)
from repro.hadoop.tasks import TaskContext, run_map_task, run_reduce_task
from repro.sim.events import Interrupt, Process
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.hadoop.jobtracker import JobTracker

__all__ = ["TaskTracker"]

#: Parked trackers still report in every ``heartbeat_timeout_s *
#: KEEPALIVE_FACTOR`` seconds. The keepalive serves two contracts: the
#: JobTracker's silence-based failure detector keeps working unchanged
#: (a live tracker is never silent for anywhere near the timeout), and
#: it is the starvation safety net — even if a demand poke were ever
#: missed, a parked tracker re-offers its free slots within one
#: keepalive period.
KEEPALIVE_FACTOR = 0.5


class TaskTracker:
    """Heartbeat-driven task execution on one worker blade.

    Parameters
    ----------
    jobtracker: the cluster's JobTracker.
    node: the hosting blade.
    map_slots: simultaneous mappers (paper: 2).
    reduce_slots: simultaneous reducers.
    """

    def __init__(
        self,
        jobtracker: "JobTracker",
        node: "Node",
        map_slots: Optional[int] = None,
        reduce_slots: int = 1,
    ):
        self.jt = jobtracker
        self.node = node
        self.env = node.env
        self.calib = jobtracker.calib
        self.map_slots = map_slots if map_slots is not None else self.calib.mappers_per_node
        self.reduce_slots = reduce_slots
        self.mailbox = Store(self.env)
        self.alive = True
        self._running: dict[tuple[int, TaskKind, int, int], Process] = {}
        self._used_map_slots = 0
        self._used_reduce_slots = 0
        self._slot_in_use: list[bool] = [False] * self.map_slots
        self._proc: Optional[Process] = None
        #: One Heartbeat per (free map, free reduce) pair: the message is
        #: frozen, so each exchange reuses the one carrying its counts.
        self._heartbeats: dict[tuple[int, int], Heartbeat] = {}
        # Event-thin heartbeat state (see repro.runctx): a dirty flag
        # forces the next heartbeat out even when nothing else would;
        # while parked, the loop waits for a poke or the keepalive
        # deadline instead of emitting work-less fixed-interval rounds.
        self._event_thin = jobtracker.event_thin
        self._dirty = True
        self._wait_kind: Optional[str] = None  # None | "parked" | "resting"
        self._rejitter = False
        self._next_keepalive = 0.0
        self._keepalive_s = self.calib.heartbeat_timeout_s * KEEPALIVE_FACTOR
        self.heartbeat_parks = 0
        """Work-less heartbeat rounds replaced by a park (diagnostics)."""
        # Telemetry handle, pre-sampled at construction: None keeps the
        # exchange loop at a single `is None` test per heartbeat.
        metrics = runctx.current().metrics
        self._obs_hb_latency = (
            metrics.histogram(
                "sim_heartbeat_service_latency_seconds",
                "Virtual time from heartbeat send to assignment reply",
            )
            if metrics is not None
            else None
        )
        jobtracker.register_tracker(self)

    @property
    def tracker_id(self) -> int:
        return self.node.node_id

    @property
    def free_map_slots(self) -> int:
        return self.map_slots - self._used_map_slots

    @property
    def free_reduce_slots(self) -> int:
        return self.reduce_slots - self._used_reduce_slots

    @property
    def running_count(self) -> int:
        return len(self._running)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> Process:
        """Begin the heartbeat loop."""
        self._proc = self.env.process(self._heartbeat_loop(), name=f"tt-{self.tracker_id}")
        return self._proc

    def kill(self) -> None:
        """Fail-stop this tracker (fault injection): heartbeats cease and
        all running task attempts die silently — exactly what the
        JobTracker's timeout machinery must recover from."""
        self.alive = False
        for proc in list(self._running.values()):
            if proc.is_alive:
                proc.interrupt("node failure")
        # Slot counters unwind through each attempt's finally block.

    # -- heartbeat protocol ----------------------------------------------------------
    def poke(self, dirty: bool = False, urgent: bool = False) -> None:
        """Wake a sleeping heartbeat loop early (event-thin mode).

        ``dirty=True`` marks local state changed (slot release), which
        forces the next heartbeat out even if the elision predicate
        would skip it. ``urgent=True`` (a kill waiting at the JobTracker)
        always wakes. A non-urgent poke wakes the loop only when an
        immediate heartbeat could accomplish something: this tracker has
        a free slot to offer *and* the cluster has work to hand out —
        otherwise the sleep (and the heartbeat phase) is left alone and
        the dirty flag simply makes the next scheduled round un-elidable.

        Clearing ``_wait_kind`` *before* interrupting makes a
        same-instant double poke a no-op instead of a stray Interrupt
        into the next protocol step.
        """
        if dirty:
            self._dirty = True
        if self._wait_kind is None:
            return
        if not urgent:
            if self._wait_kind == "resting":
                # Mid-cadence trackers keep their phase: the next
                # scheduled round is at most one interval away and the
                # dirty flag guarantees it goes out — exactly what the
                # fixed-interval protocol would deliver.
                return
            if self.free_map_slots == 0 and self.free_reduce_slots == 0:
                return  # nothing to offer; keepalive covers liveness
            if not self.jt.has_demand():
                return  # nothing to fetch; the dirty flag persists
            # A parked tracker lost its heartbeat phase; rather than
            # reporting instantly (which would synchronize every parked
            # tracker onto the demand event and compress the assignment
            # ramp the paper's JobTracker serialization spreads out), it
            # re-enters the cadence at a fresh jittered phase.
            self._rejitter = True
        self._wait_kind = None
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("poke")

    def _may_skip_heartbeat(self) -> bool:
        """The elision predicate: this round's heartbeat carries nothing.

        True when nothing changed locally since the last report
        (``_dirty`` clear) and either every slot is busy (the scheduler
        could not place work here) or the cluster has no demand for the
        free slots (nothing pending, nothing speculatable). Time-driven
        policy behaviour — straggler speculation, delay-scheduling
        patience — only needs heartbeats from trackers with free slots
        *while demand exists*, and those keep the fixed cadence.
        """
        if self._dirty:
            return False
        if self.free_map_slots == 0 and self.free_reduce_slots == 0:
            return True
        return not self.jt.has_demand()

    def _heartbeat_loop(self) -> Generator:
        jitter_rng = self.jt.rng.stream(f"tt-jitter-{self.tracker_id}")
        interval = self.calib.heartbeat_interval_s
        heartbeats = self._heartbeats
        # Desynchronize tracker phases like real daemon start-up does.
        yield self.env.pooled_timeout(float(jitter_rng.uniform(0, interval)))
        while self.alive:
            if self._rejitter:
                # Woken from a park by a demand signal: rejoin the
                # heartbeat cadence at a fresh phase, like a restarted
                # daemon, instead of synchronizing on the wake instant.
                self._rejitter = False
                yield self.env.pooled_timeout(float(jitter_rng.uniform(0, interval)))
                continue
            if self._event_thin and self._may_skip_heartbeat():
                # Park until poked, but never past the keepalive
                # deadline — the failure detector must keep seeing us.
                wait = self._next_keepalive - self.env.now
                if wait > 0:
                    self.heartbeat_parks += 1
                    # A sleep that a poke may cut short (see poke()).
                    self._wait_kind = "parked"
                    try:
                        yield self.env.timeout(wait)
                    except Interrupt:
                        pass
                    self._wait_kind = None
                    continue  # re-evaluate with fresh state
            free = (self.free_map_slots, self.free_reduce_slots)
            hb = heartbeats.get(free)
            if hb is None:
                hb = heartbeats[free] = Heartbeat(self.tracker_id, *free)
            self._dirty = False
            self._next_keepalive = self.env.now + self._keepalive_s
            sent_at = self.env.now
            self.jt.inbox.put((hb, self.mailbox))
            # Only heartbeat replies land here: the JobTracker never
            # answers TaskDone/TaskFailed, so no filter is needed.
            reply = yield self.mailbox.get()
            if self._obs_hb_latency is not None:
                self._obs_hb_latency.observe(self.env.now - sent_at)
            for kill in reply.kills:
                self._kill_attempt(kill)
            # Launch every assignment from this reply in one batch: the
            # attempt processes are created deferred and their start
            # events are pushed with a single schedule_many pass.
            started = [proc for a in reply.assignments if (proc := self._launch(a)) is not None]
            if started:
                self.env.start_processes(started)
            sleep_s = interval * float(jitter_rng.uniform(0.95, 1.05))
            if self._event_thin:
                # The between-rounds rest is also wakeable: when demand
                # appears (job arrival, reduces unlocked, requeue) a
                # free-slotted tracker reports in immediately instead of
                # waiting out its interval.
                self._wait_kind = "resting"
                try:
                    yield self.env.timeout(sleep_s)
                except Interrupt:
                    pass
                self._wait_kind = None
            else:
                yield self.env.pooled_timeout(sleep_s)

    def _kill_attempt(self, kill: KillDirective) -> None:
        key = (kill.job_id, kill.kind, kill.task_id, kill.attempt)
        proc = self._running.get(key)
        if proc is not None and proc.is_alive:
            proc.interrupt("killed by jobtracker")

    def _launch(self, assignment: Assignment) -> Optional[Process]:
        """Create an attempt process, binding map attempts to a free
        slot/socket; returns it unstarted (the heartbeat loop batches the
        start events).

        Slot accounting happens here (synchronously) so two assignments
        arriving in one reply cannot race for the same Cell socket.
        """
        if not self.alive:
            return None
        is_map = assignment.kind is TaskKind.MAP
        if is_map:
            free = self.free_slot_indices()
            if not free:
                return None  # stale assignment; the JobTracker will reissue
            slot = free[0]
            self._used_map_slots += 1
            self._slot_in_use[slot] = True
        else:
            if self.free_reduce_slots <= 0:
                return None
            slot = 0
            self._used_reduce_slots += 1
        key = (assignment.job_id, assignment.kind, assignment.task_id, assignment.attempt)
        proc = self.env.process(
            self._run_attempt(assignment, slot),
            name=f"attempt-{assignment.kind.value}{assignment.task_id}.{assignment.attempt}@{self.tracker_id}",
            start=False,
        )
        self._running[key] = proc
        return proc

    def _run_attempt(self, assignment: Assignment, slot: int) -> Generator:
        key = (assignment.job_id, assignment.kind, assignment.task_id, assignment.attempt)
        job = self.jt.job_by_id(assignment.job_id)
        task = job.task(assignment.kind, assignment.task_id)
        is_map = assignment.kind is TaskKind.MAP
        ctx = TaskContext(
            env=self.env,
            node=self.node,
            client=self.jt.client,
            calib=self.calib,
            tracer=self.jt.tracer,
            map_outputs=self.jt.map_outputs,
            event_thin=self._event_thin,
        )
        try:
            if is_map:
                stats = yield from run_map_task(ctx, job, task, slot)
            else:
                stats = yield from run_reduce_task(ctx, job, task, slot, self.jt.cluster_nodes)
            if self.alive:
                self.jt.inbox.put(
                    (
                        TaskDone(
                            tracker_id=self.tracker_id,
                            job_id=assignment.job_id,
                            kind=assignment.kind,
                            task_id=assignment.task_id,
                            attempt=assignment.attempt,
                            stats=stats,
                        ),
                        self.mailbox,
                    )
                )
        except Interrupt:
            pass  # killed: the JobTracker already knows or will time us out
        except Exception as exc:  # noqa: BLE001 - converted to TaskFailed
            if self.alive:
                self.jt.inbox.put(
                    (
                        TaskFailed(
                            tracker_id=self.tracker_id,
                            job_id=assignment.job_id,
                            kind=assignment.kind,
                            task_id=assignment.task_id,
                            attempt=assignment.attempt,
                            reason=f"{type(exc).__name__}: {exc}",
                        ),
                        self.mailbox,
                    )
                )
        finally:
            self._running.pop(key, None)
            if is_map:
                self._used_map_slots = max(0, self._used_map_slots - 1)
                self._slot_in_use[slot] = False
            else:
                self._used_reduce_slots = max(0, self._used_reduce_slots - 1)
            if self._event_thin:
                # Slot released: local state changed, so the next
                # heartbeat must go out — and if the loop is parked,
                # right now (the demand-driven wakeup).
                self.poke(dirty=True)

    def free_slot_indices(self) -> list[int]:
        """Map slot indices currently idle (socket binding for the bridge)."""
        return [i for i, used in enumerate(self._slot_in_use) if not used]
