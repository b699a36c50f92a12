"""The JobTracker: split queue, heartbeat service, fault recovery.

"The process which distributes work among nodes is named JobTracker ...
If a node in the system becomes idle, the JobTracker picks a new job from
its queue to feed it ... Another consideration of the map tasks
scheduling is the location of the blocks, as it tries to minimize the
number of remote blocks accesses ... the JobTracker can detect a node
failure and reschedule the task to another TaskTracker" (§III-A).

The JobTracker is a single serialized service (it ran on the JS22 master
blade with the NameNode); every heartbeat and completion report costs
:attr:`CalibrationProfile.jobtracker_service_s` of its time. At large
node counts this serialization is the growing component of the runtime
floor — the mechanism behind the 10x-samples curve in Fig. 8 "stop[ping]
scaling its performance when increasing the number of TaskTrackers".

Task *placement* is delegated to a pluggable policy from
:mod:`repro.sched`: per heartbeat that could earn work, the active
:class:`~repro.sched.base.Scheduler` sees a read-only
:class:`~repro.sched.view.ClusterView` and returns the full batch of
:class:`~repro.sched.base.TaskChoice` decisions for that exchange in
one call; the JobTracker validates and applies them (queue removal,
locality/speculation counters, attempt records) and replies with the
matching wire :class:`~repro.hadoop.messages.Assignment` batch. The
default :class:`~repro.sched.fifo.FifoScheduler` reproduces the
pre-refactor inline logic decision for decision.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Generator, Optional, Union

from repro import runctx
from repro.hadoop.config import JobConf
from repro.hadoop.job import Job, JobState, TaskKind, TaskRecord
from repro.hadoop.messages import (
    Assignment,
    AssignmentReply,
    Heartbeat,
    KillDirective,
    TaskDone,
    TaskFailed,
)
from repro.hadoop.split import InputFormat
from repro.sched.base import (
    PreemptChoice,
    Scheduler,
    SchedulerError,
    TaskChoice,
    resolve_scheduler,
)
from repro.sched.view import ClusterView

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Cluster
    from repro.hadoop.tasktracker import TaskTracker
    from repro.hdfs.client import HDFSClient

__all__ = ["JobTracker"]

#: The reply to every exchange that launches and kills nothing (frozen,
#: so one instance serves every tracker).
_EMPTY_REPLY = AssignmentReply()


class _MapOutputRegistry(dict):
    """``(job_id, task_id) → MapOutput`` with a by-node inverse index.

    Loss recovery must find every completed map output a dead node held;
    scanning all jobs × maps is O(cluster) per declaration, which
    dominates mass-loss instants at saturation scale. The index keeps
    that lookup O(owned). Only the mutation paths the simulator uses are
    indexed (``__setitem__``, ``pop``, ``__delitem__``).
    """

    __slots__ = ("by_node",)

    def __init__(self) -> None:
        super().__init__()
        self.by_node: dict[int, set[tuple[int, int]]] = {}

    def _unindex(self, key, out) -> None:
        owned = self.by_node.get(out.node_id)
        if owned is not None:
            owned.discard(key)
            if not owned:
                del self.by_node[out.node_id]

    def __setitem__(self, key, out) -> None:
        old = self.get(key)
        if old is not None:
            self._unindex(key, old)
        super().__setitem__(key, out)
        self.by_node.setdefault(out.node_id, set()).add(key)

    def __delitem__(self, key) -> None:
        self._unindex(key, self[key])
        super().__delitem__(key)

    def pop(self, key, *default):
        if key in self:
            out = super().pop(key)
            self._unindex(key, out)
            return out
        return super().pop(key, *default)


class _Inbox:
    """The JobTracker's RPC queue of ``(message, reply_box)`` pairs.

    ``put`` is the producers' whole interface: an idle JobTracker starts
    serving the message at once, a busy one queues it behind the
    message in service (see :meth:`JobTracker._serve`).
    """

    __slots__ = ("items", "_jt")

    def __init__(self, jt: "JobTracker") -> None:
        self.items: deque = deque()
        self._jt = jt

    def put(self, item: tuple) -> None:
        if self._jt._in_service is None:
            self._jt._serve(item)
        else:
            self.items.append(item)


class JobTracker:
    """Cluster-level task coordinator bound to the master blade."""

    def __init__(
        self,
        cluster: "Cluster",
        client: "HDFSClient",
        scheduler: Union[None, str, Scheduler, type] = None,
    ):
        self.cluster = cluster
        self.client = client
        self.env = cluster.env
        self.calib = cluster.calib
        self.rng = cluster.rng
        self.tracer = cluster.tracer
        self.inbox = _Inbox(self)
        #: The ``(message, reply_box)`` whose service slice is running;
        #: None while the JobTracker is idle.
        self._in_service: Optional[tuple] = None
        self._service_s = self.calib.jobtracker_service_s
        self.map_outputs: _MapOutputRegistry = _MapOutputRegistry()
        self.cluster_nodes = {n.node_id: n for n in cluster.nodes}
        self.scheduler: Scheduler = resolve_scheduler(scheduler)

        self._trackers: dict[int, "TaskTracker"] = {}
        self._last_seen: dict[int, float] = {}
        self._jobs: dict[int, Job] = {}
        self._pending_maps: dict[int, list[int]] = {}
        self._pending_reduces: dict[int, list[int]] = {}
        self._running_attempts: dict[tuple[int, TaskKind, int], list[tuple[int, int, float]]] = {}
        """(job, kind, task) → [(tracker_id, attempt, start_time)]."""
        self._live_attempts: dict[int, int] = {}
        """job_id → live attempt count (the fair-share load measure)."""
        self._tracker_attempts: dict[int, int] = {}
        """tracker_id → live attempt count. Gates the loss-recovery scan
        of ``_running_attempts``: a starved-idle tracker (the common
        case in mass-loss instants at saturation) owes nothing, so its
        declaration skips the O(attempts) walk entirely."""
        self._kill_queue: dict[int, list[KillDirective]] = {}
        self._next_job_id = 0
        self._started = False
        #: Event-thin protocol (sampled once; see repro.runctx).
        self.event_thin: bool = not runctx.current().model_reference
        #: Lazy expiry heap for dead-tracker detection: one
        #: ``(last_seen + timeout, tracker_id)`` entry per live tracker,
        #: re-armed on pop when the stored deadline turned out stale.
        self._expiry: list[tuple[float, int]] = []
        #: Incremental ClusterView bookkeeping: the view caches its
        #: JobView/TrackerView structures against these epochs, so an
        #: ``assign`` call costs O(changed), not O(trackers x jobs).
        self._membership_epoch = 0
        self._jobs_epoch = 0
        self._queue_epochs: dict[int, int] = {}
        #: Bumped with every per-job queue epoch: together with
        #: ``_jobs_epoch`` it keys the :meth:`has_demand` memo.
        self._queue_version = 0
        self._demand_key: tuple[int, int] = (-1, -1)
        self._demand = False
        #: Jobs whose pending-map queue may have left ascending task-id
        #: order. ``_setup_job`` seeds the queue sorted and assignment
        #: removals preserve relative order; only a failure/loss requeue
        #: *append* can break it, and those sites add the job here. The
        #: view's pick fast path (per-node candidate index) is gated on
        #: absence from this set — conservative, hence always exact.
        self._queue_unsorted: set[int] = set()
        #: Mechanism-side decision tallies (policy-side ones live on the
        #: Scheduler; see :meth:`decision_counters`).
        self._decisions: dict[str, int] = {
            "heartbeats": 0,
            "assignments": 0,
            "speculative_assignments": 0,
            "kills_issued": 0,
            "preemptions": 0,
        }
        #: Heartbeats served per service pass → pass count. Batch sizes
        #: above 1 mean several exchanges queued behind one another in
        #: one busy period of the (saturated) JobTracker.
        self._batch_hist: dict[int, int] = {}
        self._pass_heartbeats = 0
        #: Open job spans for the trace exporter (enabled tracers only).
        self._job_spans: dict[int, Any] = {}
        self._view = ClusterView(self)

    # -- membership -------------------------------------------------------------
    def register_tracker(self, tracker: "TaskTracker") -> None:
        self._trackers[tracker.tracker_id] = tracker
        self._last_seen[tracker.tracker_id] = self.env.now
        heappush(
            self._expiry,
            (self.env.now + self.calib.heartbeat_timeout_s, tracker.tracker_id),
        )
        # Runtime joiners (elastic membership) must be reachable for the
        # reduce shuffle's node lookup; construction-time trackers are
        # already present, so this is a no-op for them.
        self.cluster_nodes[tracker.node.node_id] = tracker.node
        self._membership_epoch += 1
        self.scheduler.on_membership_change(
            self._view, joined=(tracker.tracker_id,)
        )

    @property
    def live_trackers(self) -> list[int]:
        return sorted(self._trackers)

    def job_by_id(self, job_id: int) -> Job:
        return self._jobs[job_id]

    # -- event-thin protocol support ---------------------------------------------
    def has_demand(self) -> bool:
        """True while an *idle* tracker's heartbeat could earn work.

        PREP jobs count (their queues fill within ``job_setup_s``, so
        idle trackers keep the fixed cadence instead of parking and
        waking moments later); a RUNNING job demands slots while it has
        pending tasks, or while speculation could still duplicate one of
        its running maps. The answer is memoized on ``(_jobs_epoch,
        _queue_version)``: every job-state change bumps the first, every
        pending-queue change (including the ``maps_all_done`` flips,
        which unlock or requeue work) bumps the second.
        """
        key = (self._jobs_epoch, self._queue_version)
        if key != self._demand_key:
            self._demand_key = key
            self._demand = self._scan_demand()
        return self._demand

    def _scan_demand(self) -> bool:
        """The unmemoized :meth:`has_demand`: one scan over the jobs."""
        for job_id, job in self._jobs.items():
            state = job.state
            if state is JobState.PREP:
                return True
            if state is JobState.RUNNING:
                if self._pending_maps.get(job_id) or self._pending_reduces.get(job_id):
                    return True
                if job.conf.speculative and not job.maps_all_done:
                    return True
        return False

    def _poke_trackers(self) -> None:
        """Demand signal: wake every parked tracker (event-thin mode).

        Registration order is ascending node id, so the wakeup order is
        deterministic. Trackers that cannot use the news (still full)
        simply re-park.
        """
        if not self.event_thin:
            return
        for tracker in self._trackers.values():
            tracker.poke()

    def _bump_queue(self, job_id: int) -> None:
        """Invalidate the view's cached pending-queue snapshot."""
        self._queue_epochs[job_id] = self._queue_epochs.get(job_id, 0) + 1
        self._queue_version += 1

    # -- decision counters ---------------------------------------------------------
    def decision_counters(self) -> dict[str, object]:
        """Mechanism + policy decision tallies for reporting.

        Merges the JobTracker's apply-side counts (assignments,
        speculations, kills, heartbeats handled) with whatever the
        active policy tallied internally (e.g. delay-scheduling waits),
        the trackers' elision stats, and the heartbeat batch-size
        histogram (``heartbeat_batch_hist``: served-per-pass → passes).
        """
        out = dict(self._decisions)
        out["heartbeat_parks"] = sum(
            t.heartbeat_parks for t in self._trackers.values()
        )
        out["heartbeat_batches"] = sum(self._batch_hist.values())
        #: Batch-size histogram ({size: passes}, string keys so the
        #: counters dict stays JSON-serializable end to end).
        out["heartbeat_batch_hist"] = {
            str(size): count for size, count in sorted(self._batch_hist.items())
        }
        for key, value in sorted(self.scheduler.decision_counters().items()):
            out[key] = out.get(key, 0) + value
        return out

    # -- policy selection --------------------------------------------------------
    def set_scheduler(self, scheduler: Union[str, Scheduler, type]) -> Scheduler:
        """Swap the placement policy. Only valid before any job is
        submitted — policies may carry per-job internal state, and a
        mid-flight swap would silently drop it."""
        if self._jobs:
            raise RuntimeError(
                "cannot change the scheduler after jobs have been submitted"
            )
        self.scheduler = resolve_scheduler(scheduler)
        return self.scheduler

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        """Start the failure-monitor process (the inbox needs none)."""
        if self._started:
            return
        self._started = True
        self.env.process(self._failure_monitor(), name="jt-monitor")

    # -- submission ----------------------------------------------------------------
    def submit_job(self, conf: JobConf) -> Job:
        """Create a job and start its setup; returns immediately.

        Wait on ``job.completion`` to get the :class:`JobResult`.
        """
        job = Job(conf=conf, env=self.env, job_id=self._next_job_id)
        job.submit_time = self.env.now
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        self._jobs_epoch += 1
        self.env.process(self._setup_job(job), name=f"job-setup-{job.job_id}")
        # Demand appeared: parked trackers must resume the heartbeat
        # cadence (the PREP state keeps them from re-parking).
        self._poke_trackers()
        return job

    def _setup_job(self, job: Job) -> Generator:
        conf = job.conf
        yield self.env.timeout(self.calib.job_setup_s)
        if conf.is_data_driven:
            from repro.hdfs.namenode import HDFSError

            try:
                meta = self.client.namenode.file_meta(conf.input_path)
            except HDFSError as exc:
                job.mark_finished(JobState.FAILED, reason=f"job setup failed: {exc}")
                self._jobs_epoch += 1
                return
            splits = InputFormat.compute_splits(meta, num_splits=conf.num_map_tasks)
            for split in splits:
                job.maps[split.split_id] = TaskRecord(
                    kind=TaskKind.MAP, task_id=split.split_id, split=split
                )
        else:
            per_task = conf.samples / conf.num_map_tasks
            for i in range(conf.num_map_tasks):
                job.maps[i] = TaskRecord(kind=TaskKind.MAP, task_id=i, samples=per_task)
        for r in range(conf.num_reduce_tasks):
            job.reduces[r] = TaskRecord(kind=TaskKind.REDUCE, task_id=r)
        self._pending_maps[job.job_id] = sorted(job.maps)
        self._pending_reduces[job.job_id] = []
        self._bump_queue(job.job_id)
        job.state = JobState.RUNNING
        self._jobs_epoch += 1
        if not job.maps:
            yield from self._finish_job(job)
        if self.tracer.enabled:
            self.tracer.emit("jobtracker", "job_started", job=job.job_id, maps=len(job.maps))
            self._job_spans[job.job_id] = self.tracer.span(
                "job", f"job {job.job_id}", track="jobs",
                maps=len(job.maps), reduces=len(job.reduces),
            )

    # -- service ------------------------------------------------------------------
    def _serve(self, item: tuple) -> None:
        """Start one message's serialized service slice.

        Every RPC the JobTracker handles costs ``jobtracker_service_s``
        of its time; the message is handled when its slice ends
        (:meth:`_served`), so no process has to wake to fetch it.
        """
        self._in_service = item
        env = self.env
        env.call_at(env.now + self._service_s, self._served)

    def _served(self, _event) -> None:
        """Handle the message whose slice just ended, then start the
        next queued one.

        Messages are handled in arrival order, each after its own slice,
        exactly as a process taking one message per ``get()`` would. A
        *pass* is one busy period: it opens when a message reaches an
        idle JobTracker and closes when the queue is empty after a
        message; its heartbeat count feeds the batch-size histogram
        surfaced through :meth:`decision_counters`.
        """
        msg, reply_box = self._in_service
        if isinstance(msg, Heartbeat):
            reply_box.put(self._handle_heartbeat(msg))
            self._pass_heartbeats += 1
        elif isinstance(msg, TaskDone):
            self._handle_done(msg)
        elif isinstance(msg, TaskFailed):
            self._handle_failed(msg)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown message {msg!r}")
        items = self.inbox.items
        if items:
            self._serve(items.popleft())
            return
        self._in_service = None
        heartbeats = self._pass_heartbeats
        if heartbeats:
            self._pass_heartbeats = 0
            self._batch_hist[heartbeats] = self._batch_hist.get(heartbeats, 0) + 1

    # -- heartbeat handling ------------------------------------------------------------
    def _handle_heartbeat(self, hb: Heartbeat) -> AssignmentReply:
        """One exchange: the policy decides the whole batch, we apply it.

        The active :class:`~repro.sched.base.Scheduler` gets at most one
        ``assign`` call per heartbeat and returns every launch for this
        tracker's free slots at once — the batched-reply protocol. The
        apply step below owns all mutation and double-checks the policy
        against the queues (a bad choice is a policy bug, reported as
        :class:`~repro.sched.base.SchedulerError`, never silent state
        corruption).

        An exchange that can earn nothing — no demand anywhere and no
        kill queued for this tracker — skips ``assign`` and gets the
        shared empty reply: every policy returns ``[]`` there and keeps
        its decision tallies (the contract in ``docs/SCHEDULING.md``).
        """
        self._last_seen[hb.tracker_id] = self.env.now
        self._decisions["heartbeats"] += 1
        if hb.tracker_id not in self._kill_queue and not self.has_demand():
            return _EMPTY_REPLY
        choices = self.scheduler.assign(self._view, hb)
        preempts: Optional[list[PreemptChoice]] = None
        if any(type(c) is PreemptChoice for c in choices):
            preempts = [c for c in choices if type(c) is PreemptChoice]
            choices = [c for c in choices if type(c) is not PreemptChoice]
        maps = sum(1 for c in choices if c.kind is TaskKind.MAP)
        if maps > hb.free_map_slots or len(choices) - maps > hb.free_reduce_slots:
            raise SchedulerError(
                f"{self.scheduler.name}: {len(choices)} choices exceed the "
                f"tracker's free slots ({hb.free_map_slots} map, "
                f"{hb.free_reduce_slots} reduce)"
            )
        if preempts:
            # Preemptions first: a preempted task is requeued *before*
            # launches apply, so a policy that both preempts a task and
            # (buggily) speculates it in the same batch fails loudly in
            # ``_apply_choice`` instead of corrupting state.
            for preempt in preempts:
                self._apply_preempt(preempt)
        assignments = tuple(
            self._apply_choice(choice, hb.tracker_id) for choice in choices
        )
        # The kill queue drains after the apply steps so a preemption
        # aimed at the heartbeating tracker itself rides this very
        # reply. Nothing between the old pop site and here reads the
        # queue, so non-preempting policies are unaffected.
        kills = tuple(self._kill_queue.pop(hb.tracker_id, ()))
        if not assignments and not kills:
            return _EMPTY_REPLY
        return AssignmentReply(assignments=assignments, kills=kills)

    def _apply_preempt(self, choice: PreemptChoice) -> None:
        """Validate one preemption decision and issue the kill.

        Killed attempts die silently (the tracker swallows the interrupt
        and reports nothing — same path as speculation cleanup), so all
        bookkeeping retires here, at issue time. The task re-enters its
        pending queue exactly once: only when the preempted attempt was
        the last one live. ``task.attempts`` is *not* rolled back — a
        preemption is not a failure, and the attempt counter must keep
        producing unique attempt ids — and preemptions never count
        against ``max_attempts`` (only ``TaskFailed`` does).
        """
        job = self._jobs.get(choice.job_id)
        if job is None or job.state is not JobState.RUNNING:
            raise SchedulerError(
                f"{self.scheduler.name}: preempt target in non-running job "
                f"{choice.job_id}"
            )
        table = job.maps if choice.kind is TaskKind.MAP else job.reduces
        task = table.get(choice.task_id)
        if task is None or task.state != "running":
            raise SchedulerError(
                f"{self.scheduler.name}: preempt target {choice.kind.value} "
                f"task {choice.task_id} of job {choice.job_id} is not running"
            )
        key = (choice.job_id, choice.kind, choice.task_id)
        attempts = self._running_attempts.get(key, [])
        victims = [
            a for a in attempts
            if a[0] == choice.tracker_id and a[1] == choice.attempt
        ]
        if not victims:
            raise SchedulerError(
                f"{self.scheduler.name}: preempt target attempt "
                f"{choice.attempt} of {choice.kind.value} task "
                f"{choice.task_id} (job {choice.job_id}) is not live on "
                f"tracker {choice.tracker_id}"
            )
        remaining = [a for a in attempts if a not in victims]
        self._running_attempts[key] = remaining
        self._note_attempts_gone(choice.job_id, len(victims))
        self._note_tracker_attempts_gone(victims)
        self._kill_queue.setdefault(choice.tracker_id, []).append(
            KillDirective(choice.job_id, choice.kind, choice.task_id, choice.attempt)
        )
        self._decisions["kills_issued"] += 1
        self._decisions["preemptions"] += 1
        job.bump("preempted_attempts")
        if self.event_thin:
            target = self._trackers.get(choice.tracker_id)
            if target is not None:
                target.poke(dirty=True, urgent=True)
        if not remaining:
            task.state = "pending"
            pending = (
                self._pending_maps
                if choice.kind is TaskKind.MAP
                else self._pending_reduces
            ).setdefault(choice.job_id, [])
            if choice.task_id not in pending:
                pending.append(choice.task_id)
                if choice.kind is TaskKind.MAP:
                    self._queue_unsorted.add(choice.job_id)
                self._bump_queue(choice.job_id)
                self._poke_trackers()
        if self.tracer.enabled:
            self.tracer.emit(
                "jobtracker",
                "task_preempted",
                job=choice.job_id,
                kind=choice.kind.value,
                task=choice.task_id,
                tracker=choice.tracker_id,
                attempt=choice.attempt,
            )

    def _apply_choice(self, choice: TaskChoice, tracker_id: int) -> Assignment:
        """Validate one policy decision and turn it into a wire Assignment."""
        job = self._jobs.get(choice.job_id)
        if job is None or job.state is not JobState.RUNNING:
            raise SchedulerError(
                f"{self.scheduler.name}: chose task for non-running job "
                f"{choice.job_id}"
            )
        table = job.maps if choice.kind is TaskKind.MAP else job.reduces
        task = table.get(choice.task_id)
        if task is None:
            raise SchedulerError(
                f"{self.scheduler.name}: job {job.job_id} has no "
                f"{choice.kind.value} task {choice.task_id}"
            )
        if choice.speculative:
            if choice.kind is not TaskKind.MAP or task.state != "running":
                raise SchedulerError(
                    f"{self.scheduler.name}: invalid speculation target "
                    f"{choice.kind.value} task {choice.task_id} "
                    f"(state {task.state!r})"
                )
            job.bump("speculative_attempts")
            self._decisions["speculative_assignments"] += 1
        else:
            pending = (
                self._pending_maps
                if choice.kind is TaskKind.MAP
                else self._pending_reduces
            ).get(job.job_id, [])
            try:
                pending.remove(choice.task_id)
            except ValueError:
                raise SchedulerError(
                    f"{self.scheduler.name}: {choice.kind.value} task "
                    f"{choice.task_id} of job {job.job_id} is not pending"
                ) from None
            self._bump_queue(job.job_id)
            self._decisions["assignments"] += 1
            if choice.kind is TaskKind.MAP:
                job.bump(
                    "data_local_maps"
                    if task.split is not None and tracker_id in task.split.preferred_nodes
                    else "other_maps"
                )
        return self._issue(job, task, tracker_id)

    def _issue(self, job: Job, task: TaskRecord, tracker_id: int) -> Assignment:
        task.attempts += 1
        task.state = "running"
        task.tracker = tracker_id
        if task.start_time < 0:
            task.start_time = self.env.now
        if job.launch_time < 0:
            job.launch_time = self.env.now
        key = (job.job_id, task.kind, task.task_id)
        self._running_attempts.setdefault(key, []).append(
            (tracker_id, task.attempts, self.env.now)
        )
        self._live_attempts[job.job_id] = self._live_attempts.get(job.job_id, 0) + 1
        self._tracker_attempts[tracker_id] = self._tracker_attempts.get(tracker_id, 0) + 1
        if self.tracer.enabled:
            self.tracer.emit(
                "jobtracker",
                "task_assigned",
                job=job.job_id,
                kind=task.kind.value,
                task=task.task_id,
                tracker=tracker_id,
            )
        return Assignment(
            job_id=job.job_id,
            kind=task.kind,
            task_id=task.task_id,
            attempt=task.attempts,
            slot=0,
        )

    # -- completion handling ------------------------------------------------------------
    def _handle_done(self, msg: TaskDone) -> None:
        job = self._jobs.get(msg.job_id)
        if job is None or job.state is not JobState.RUNNING:
            return
        task = job.task(msg.kind, msg.task_id)
        key = (msg.job_id, msg.kind, msg.task_id)
        attempts = self._running_attempts.get(key, [])
        remaining = [a for a in attempts if a[1] != msg.attempt]
        self._running_attempts[key] = remaining
        self._note_attempts_gone(msg.job_id, len(attempts) - len(remaining))
        if len(remaining) != len(attempts):
            self._note_tracker_attempts_gone(
                a for a in attempts if a[1] == msg.attempt
            )
        if task.state == "done":
            return  # late duplicate
        task.state = "done"
        job.note_task_done(msg.kind)
        task.end_time = self.env.now
        task.tracker = msg.tracker_id
        stats = msg.stats
        task.records = int(stats.get("records", 0))
        task.output_bytes = float(stats.get("output_bytes", 0.0))
        task.kernel_busy_s = float(stats.get("kernel_busy_s", 0.0))
        task.remote_bytes = float(stats.get("remote_bytes", 0.0))
        if msg.kind is TaskKind.MAP:
            job.bump("map_input_bytes", float(stats.get("input_bytes", 0.0)))
            job.bump("remote_input_bytes", float(stats.get("remote_bytes", 0.0)))
            job.bump("map_output_bytes", task.output_bytes)
            job.bump("map_records", task.records)
        else:
            job.bump("reduce_shuffle_bytes", float(stats.get("shuffle_bytes", 0.0)))
        # Kill redundant attempts of this task (speculation cleanup).
        # Killed attempts die silently (the tracker swallows the
        # interrupt and reports nothing), so retire their bookkeeping
        # here — otherwise the per-job load tally stays inflated and
        # fair sharing starves speculating jobs.
        leftovers = self._running_attempts.get(key)
        if leftovers:
            for tracker_id, attempt, _t0 in leftovers:
                self._kill_queue.setdefault(tracker_id, []).append(
                    KillDirective(msg.job_id, msg.kind, msg.task_id, attempt)
                )
                self._decisions["kills_issued"] += 1
                # Kills ride on heartbeats; a sleeping target must
                # report in now, not at its keepalive deadline.
                if self.event_thin:
                    target = self._trackers.get(tracker_id)
                    if target is not None:
                        target.poke(dirty=True, urgent=True)
            self._note_attempts_gone(msg.job_id, len(leftovers))
            self._note_tracker_attempts_gone(leftovers)
            self._running_attempts[key] = []
        if msg.kind is TaskKind.MAP and job.maps_all_done and job.maps_done_time < 0:
            job.maps_done_time = self.env.now
            self._pending_reduces[job.job_id] = sorted(job.reduces)
            self._bump_queue(job.job_id)
            if self._pending_reduces[job.job_id]:
                self._poke_trackers()
        if job.is_complete:
            self.env.process(self._finish_job(job), name=f"job-finish-{job.job_id}")

    def _handle_failed(self, msg: TaskFailed) -> None:
        job = self._jobs.get(msg.job_id)
        if job is None or job.state is not JobState.RUNNING:
            return
        task = job.task(msg.kind, msg.task_id)
        key = (msg.job_id, msg.kind, msg.task_id)
        attempts = self._running_attempts.get(key, [])
        remaining = [a for a in attempts if a[1] != msg.attempt]
        self._running_attempts[key] = remaining
        self._note_attempts_gone(msg.job_id, len(attempts) - len(remaining))
        if len(remaining) != len(attempts):
            self._note_tracker_attempts_gone(
                a for a in attempts if a[1] == msg.attempt
            )
        if task.state == "done":
            return
        job.bump("failed_attempts")
        if task.attempts >= job.conf.max_attempts:
            job.mark_finished(
                JobState.FAILED,
                reason=f"{msg.kind.value} task {msg.task_id} failed {task.attempts} times: {msg.reason}",
            )
            self._jobs_epoch += 1
            return
        task.state = "pending"
        pending = (
            self._pending_maps if msg.kind is TaskKind.MAP else self._pending_reduces
        ).setdefault(msg.job_id, [])
        if msg.task_id not in pending:
            pending.append(msg.task_id)
            if msg.kind is TaskKind.MAP:
                self._queue_unsorted.add(msg.job_id)
            self._bump_queue(msg.job_id)
            self._poke_trackers()

    def _note_attempts_gone(self, job_id: int, count: int) -> None:
        """Keep the per-job live-attempt tally in step with
        ``_running_attempts`` removals."""
        if count > 0:
            self._live_attempts[job_id] = max(
                0, self._live_attempts.get(job_id, 0) - count
            )

    def _note_tracker_attempts_gone(self, removed) -> None:
        """Keep the per-tracker live-attempt tally in step with
        ``_running_attempts`` removals (``removed``: attempt tuples)."""
        counts = self._tracker_attempts
        for tracker_id, _attempt, _t0 in removed:
            n = counts.get(tracker_id, 0) - 1
            if n > 0:
                counts[tracker_id] = n
            else:
                counts.pop(tracker_id, None)

    def _finish_job(self, job: Job) -> Generator:
        yield self.env.timeout(self.calib.job_cleanup_s)
        if job.state is JobState.RUNNING or job.state is JobState.PREP:
            job.mark_finished(JobState.SUCCEEDED)
            self._jobs_epoch += 1
            if self.tracer.enabled:
                self.tracer.emit("jobtracker", "job_done", job=job.job_id)
                span = self._job_spans.pop(job.job_id, None)
                if span is not None:
                    span.end(state=job.state.name)

    # -- failure detection ---------------------------------------------------------------
    def _failure_monitor(self) -> Generator:
        """Dead-tracker detection against the lazy expiry heap.

        Reference model: tick every heartbeat interval (the pre-overhaul
        schedule; declarations land on the same ticks, since the heap
        check finds exactly the trackers the full ``_last_seen`` scan
        used to). Event-thin model: sleep to the earliest expiry
        deadline instead — O(1) wakeups per timeout window rather than
        one per interval, with the sleep clamped to
        ``[interval, timeout]`` so late joiners are still picked up.
        """
        interval = self.calib.heartbeat_interval_s
        timeout = self.calib.heartbeat_timeout_s
        thin = self.event_thin
        heap = self._expiry
        last_seen = self._last_seen
        while True:
            if thin and heap:
                # Re-arm stale heads eagerly: entries whose tracker has
                # heartbeat since their push carry an expired-looking
                # deadline that would wake the monitor early for
                # nothing. Advancing them here lets one sleep span a
                # whole keepalive window — and one wake then drains a
                # whole batched expiry instant instead of N stale ticks.
                while heap:
                    deadline, tracker_id = heap[0]
                    last = last_seen.get(tracker_id)
                    if last is None:
                        heappop(heap)  # tracker already declared lost
                        continue
                    true_deadline = last + timeout
                    if true_deadline > deadline:
                        heappop(heap)
                        heappush(heap, (true_deadline, tracker_id))
                        continue
                    break
            if thin and heap:
                delay = min(max(heap[0][0] - self.env.now, interval), timeout)
            else:
                delay = interval
            yield self.env.pooled_timeout(delay)
            self._check_liveness()

    def _check_liveness(self) -> None:
        """Declare every expired tracker lost — O(expired + re-armed).

        Heap entries carry the deadline implied by the ``_last_seen``
        value current when they were (re-)pushed; a popped entry whose
        tracker has heartbeat since is re-armed at its true deadline.
        Expiry keeps the pre-overhaul strict inequality
        (``now - last_seen > timeout``) in reference model mode; the
        event-thin monitor wakes exactly at deadlines, so it treats
        ``>=`` as expired (detection up to one interval earlier).
        """
        now = self.env.now
        timeout = self.calib.heartbeat_timeout_s
        heap = self._expiry
        thin = self.event_thin
        expired: list[int] = []
        while heap and (heap[0][0] <= now if thin else heap[0][0] < now):
            _deadline, tracker_id = heappop(heap)
            last = self._last_seen.get(tracker_id)
            if last is None:
                continue  # already declared lost (stale entry)
            true_deadline = last + timeout
            if (true_deadline <= now) if thin else (true_deadline < now):
                expired.append(tracker_id)
            else:
                heappush(heap, (true_deadline, tracker_id))
        # Ascending-id order == the registration order the pre-overhaul
        # full scan used, so multi-loss recovery stays deterministic.
        # One demand sweep covers the whole pass: the declarations are
        # synchronous (no yields between them), so every interrupt a
        # per-declaration poke would schedule lands at this same instant
        # anyway — minus redundant wakes for trackers that are themselves
        # mid-declaration in this pass.
        expired.sort()
        for tracker_id in expired:
            self._declare_lost(tracker_id, poke=False)
        if expired:
            self._poke_trackers()

    def _declare_lost(self, tracker_id: int, poke: bool = True) -> None:
        """Remove a dead tracker and reschedule everything it owed us.

        ``poke=False`` defers the demand wakeup to the caller so a
        multi-loss monitor pass (same-instant expiries at saturation)
        coalesces into a single ``_poke_trackers`` sweep instead of one
        per declaration.
        """
        self._trackers.pop(tracker_id, None)
        self._last_seen.pop(tracker_id, None)
        # Undelivered kills for a dead tracker would sit forever (its
        # heartbeats are the only drain); node ids are never reused, so
        # the entry is garbage the moment the tracker is gone.
        self._kill_queue.pop(tracker_id, None)
        self._membership_epoch += 1
        self.scheduler.on_membership_change(self._view, lost=(tracker_id,))
        if self.tracer.enabled:
            self.tracer.emit("jobtracker", "tracker_lost", tracker=tracker_id)
        # Running attempts: walk the table only if the tracker owed any
        # (per-tracker tally); a starved-idle tracker skips the O(attempts)
        # scan entirely, and the tally bounds the scan — once every owed
        # attempt is found the walk stops. Completed keys linger with
        # empty lists, so skip those without the per-entry filter. The
        # body only reassigns values (never inserts/deletes keys), so
        # iterating the live dict is safe.
        owed = self._tracker_attempts.pop(tracker_id, 0)
        if owed:
            for key, attempts in self._running_attempts.items():
                if not attempts:
                    continue
                removed = sum(1 for a in attempts if a[0] == tracker_id)
                if not removed:
                    continue
                remaining = [a for a in attempts if a[0] != tracker_id]
                job_id, kind, task_id = key
                self._running_attempts[key] = remaining
                self._note_attempts_gone(job_id, removed)
                owed -= removed
                job = self._jobs.get(job_id)
                if job is not None and job.state is JobState.RUNNING:
                    task = job.task(kind, task_id)
                    if task.state == "running" and not remaining:
                        task.state = "pending"
                        pending = (
                            self._pending_maps if kind is TaskKind.MAP else self._pending_reduces
                        ).setdefault(job_id, [])
                        if task_id not in pending:
                            pending.append(task_id)
                            if kind is TaskKind.MAP:
                                self._queue_unsorted.add(job_id)
                            self._bump_queue(job_id)
                        job.bump("rescheduled_tasks")
                if owed <= 0:
                    break
        # Completed map outputs on the dead node are gone; jobs with
        # reducers still shuffling must re-run those maps. The by-node
        # index yields exactly the outputs the node held; ascending
        # (job_id, task_id) order equals the old jobs-then-maps walk.
        owned = self.map_outputs.by_node.get(tracker_id)
        for job_id, task_id in sorted(owned) if owned else ():
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.RUNNING or not job.reduces:
                continue
            if job.reduces_all_done:
                continue
            task = job.maps.get(task_id)
            if task is None or task.state != "done":
                continue
            task.state = "pending"
            job.note_task_undone(TaskKind.MAP)
            task.attempts = 0
            self.map_outputs.pop((job_id, task_id), None)
            pending = self._pending_maps.setdefault(job_id, [])
            if task_id not in pending:
                pending.append(task_id)
                self._queue_unsorted.add(job_id)
                self._bump_queue(job_id)
            if job.maps_done_time >= 0:
                job.maps_done_time = -1.0
            job.bump("rerun_completed_maps")
        # Requeued work is demand: wake every parked survivor.
        if poke:
            self._poke_trackers()
