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

#: The waits a poke may cut short (``TaskTracker._wait_kind``; None is
#: a wait no poke ends: the start-up or re-jitter sleep, or a heartbeat
#: awaiting its reply).
_RESTING = "resting"  # between rounds: only an urgent poke wakes it
_PARKED = "parked"  # a work-less round skipped until the keepalive
_MERGED = "merged"  # a rest that ends in a park, as one timer


class _ReplyBox:
    """Where the JobTracker puts a tracker's heartbeat reply.

    A put delivers the reply as one NORMAL event at the current instant,
    the event (and heap position) a waiting ``Store`` getter would cost.
    """

    __slots__ = ("_env", "_deliver")

    def __init__(self, env, deliver) -> None:
        self._env = env
        self._deliver = deliver

    def put(self, reply) -> None:
        env = self._env
        env.call_at(env.now, self._deliver, reply)


class TaskTracker:
    """Heartbeat-driven task execution on one worker blade.

    The heartbeat protocol is a callback state machine: every wakeup is
    one engine event whose callback runs the next step, so no process
    sleeps between rounds. Each event keeps the time, priority and order
    the equivalent process loop gave it.

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
        self.alive = True
        self._running: dict[tuple[int, TaskKind, int, int], Process] = {}
        self._used_map_slots = 0
        self._used_reduce_slots = 0
        self._slot_in_use: list[bool] = [False] * self.map_slots
        self._reply_box = _ReplyBox(self.env, self._on_reply)
        self._jitter = jobtracker.rng.stream(f"tt-jitter-{self.tracker_id}")
        self._interval = self.calib.heartbeat_interval_s
        #: The pending wakeup; an event that fires while another one is
        #: pending here was superseded (by a poke) and is dropped.
        self._timer = None
        self._sent_at = 0.0
        #: One Heartbeat per (free map, free reduce) pair: the message is
        #: frozen, so each exchange reuses the one carrying its counts.
        self._heartbeats: dict[tuple[int, int], Heartbeat] = {}
        # Event-thin heartbeat state (see repro.runctx): a dirty flag
        # forces the next heartbeat out even when nothing else would;
        # while parked, the tracker waits for a poke or the keepalive
        # deadline instead of emitting work-less fixed-interval rounds.
        self._event_thin = jobtracker.event_thin
        self._dirty = True
        self._wait_kind: Optional[str] = None
        self._rest_end = 0.0
        self._rejitter = False
        self._next_keepalive = 0.0
        self._keepalive_s = self.calib.heartbeat_timeout_s * KEEPALIVE_FACTOR
        self._parks = 0
        # Telemetry handle, pre-sampled at construction: None keeps the
        # exchange at a single `is None` test per heartbeat.
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

    @property
    def heartbeat_parks(self) -> int:
        """Work-less heartbeat rounds replaced by a park (diagnostics).

        A merged wait holds its park from the end of its rest on.
        """
        merged = self._wait_kind is _MERGED and self.env.now >= self._rest_end
        return self._parks + merged

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating: an URGENT event at this instant (where a
        started process would first run) draws the start-up jitter."""
        env = self.env
        env.call_at(env.now, self._on_start, priority=env.URGENT)

    def kill(self) -> None:
        """Fail-stop this tracker (fault injection): heartbeats cease and
        all running task attempts die silently — exactly what the
        JobTracker's timeout machinery must recover from."""
        self.alive = False
        if self._wait_kind is _MERGED and self.env.now < self._rest_end:
            # A dead tracker stops at the end of its rest; it never parks.
            self._rest(self._rest_end)
        for proc in list(self._running.values()):
            if proc.is_alive:
                proc.interrupt("node failure")
        # Slot counters unwind through each attempt's finally block.

    # -- heartbeat protocol ----------------------------------------------------------
    def poke(self, dirty: bool = False, urgent: bool = False) -> None:
        """Wake a sleeping tracker early (event-thin mode).

        ``dirty=True`` marks local state changed (slot release), which
        forces the next heartbeat out even if the elision predicate
        would skip it. ``urgent=True`` (a kill waiting at the JobTracker)
        always wakes. A non-urgent poke wakes a parked tracker only when
        an immediate heartbeat could accomplish something: this tracker
        has a free slot to offer *and* the cluster has work to hand out —
        otherwise the wait (and the heartbeat phase) is left alone and
        the dirty flag simply makes the next scheduled round un-elidable.

        A merged wait is a rest until ``_rest_end`` and a park after it.
        Inside the rest, a poke that makes the round at ``_rest_end``
        un-elidable turns the wait back into a plain rest. A wake is an
        URGENT event at this instant; clearing ``_wait_kind`` first makes
        a same-instant double poke a no-op.
        """
        if dirty:
            self._dirty = True
        kind = self._wait_kind
        if kind is None:
            return
        if kind is _MERGED:
            if self.env.now < self._rest_end:
                if not urgent and not self._may_skip_heartbeat():
                    self._rest(self._rest_end)
                    return
                kind = _RESTING
            else:
                kind = _PARKED
        if not urgent:
            if kind is _RESTING:
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
        self._end_wait()
        env = self.env
        self._timer = env.call_at(env.now, self._on_timer, priority=env.URGENT)

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

    def _on_start(self, _event) -> None:
        # Desynchronize tracker phases like real daemon start-up does.
        self._sleep(float(self._jitter.uniform(0, self._interval)))

    def _sleep(self, delay: float) -> None:
        """A wait no poke cuts short."""
        env = self.env
        self._timer = env.call_at(env.now + delay, self._on_timer)

    def _on_timer(self, event) -> None:
        if event is not self._timer:
            return  # superseded by a poke
        self._timer = None
        self._end_wait()
        self._round()

    def _end_wait(self) -> None:
        if self._wait_kind is _MERGED and self.env.now >= self._rest_end:
            self._parks += 1
        self._wait_kind = None

    def _round(self) -> None:
        """One heartbeat round: re-jitter, park, or send."""
        if not self.alive:
            return
        if self._rejitter:
            # Woken from a park by a demand signal: rejoin the
            # heartbeat cadence at a fresh phase, like a restarted
            # daemon, instead of synchronizing on the wake instant.
            self._rejitter = False
            self._sleep(float(self._jitter.uniform(0, self._interval)))
            return
        env = self.env
        now = env.now
        if self._event_thin and self._may_skip_heartbeat():
            # Park until poked, but never past the keepalive deadline —
            # the failure detector must keep seeing us.
            wait = self._next_keepalive - now
            if wait > 0:
                self._parks += 1
                self._wait_kind = _PARKED
                self._timer = env.call_at(now + wait, self._on_timer)
                return
        free = (self.free_map_slots, self.free_reduce_slots)
        hb = self._heartbeats.get(free)
        if hb is None:
            hb = self._heartbeats[free] = Heartbeat(self.tracker_id, *free)
        self._dirty = False
        self._next_keepalive = now + self._keepalive_s
        self._sent_at = now
        self.jt.inbox.put((hb, self._reply_box))

    def _on_reply(self, event) -> None:
        reply = event.value
        if self._obs_hb_latency is not None:
            self._obs_hb_latency.observe(self.env.now - self._sent_at)
        for kill in reply.kills:
            self._kill_attempt(kill)
        # Launch every assignment from this reply in one batch: the
        # attempt processes are created deferred and their start
        # events are pushed with a single schedule_many pass.
        started = [proc for a in reply.assignments if (proc := self._launch(a)) is not None]
        if started:
            self.env.start_processes(started)
        sleep_s = self._interval * float(self._jitter.uniform(0.95, 1.05))
        self._rest_until(self.env.now + sleep_s)

    def _rest_until(self, rest_end: float) -> None:
        """Rest until ``rest_end``, or, when the round there would park
        anyway, straight on to the keepalive deadline: one timer at the
        time the park would end instead of a rest and a park."""
        if self._event_thin and self.alive and self._may_skip_heartbeat():
            wait = self._next_keepalive - rest_end
            if wait > 0:
                self._rest_end = rest_end
                self._wait_kind = _MERGED
                self._timer = self.env.call_at(rest_end + wait, self._on_timer)
                return
        self._rest(rest_end)

    def _rest(self, rest_end: float) -> None:
        """The between-rounds rest; only an urgent poke cuts it short
        (event-thin mode; the reference protocol never pokes)."""
        if self._event_thin:
            self._wait_kind = _RESTING
        self._timer = self.env.call_at(rest_end, self._on_timer)

    def _kill_attempt(self, kill: KillDirective) -> None:
        key = (kill.job_id, kill.kind, kill.task_id, kill.attempt)
        proc = self._running.get(key)
        if proc is not None and proc.is_alive:
            proc.interrupt("killed by jobtracker")

    def _launch(self, assignment: Assignment) -> Optional[Process]:
        """Create an attempt process, binding map attempts to a free
        slot/socket; returns it unstarted (the reply handler batches the
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
                        None,  # reports get no reply
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
                        None,  # reports get no reply
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
                # heartbeat must go out — and if the tracker is parked,
                # right now (the demand-driven wakeup).
                self.poke(dirty=True)

    def free_slot_indices(self) -> list[int]:
        """Map slot indices currently idle (socket binding for the bridge)."""
        return [i for i, used in enumerate(self._slot_in_use) if not used]
