"""Read-only cluster snapshots handed to scheduling policies.

A :class:`ClusterView` is the *only* window a
:class:`~repro.sched.base.Scheduler` gets onto the running cluster: jobs
in submission order with their pending queues and live attempts, tracker
hardware capabilities, and the calibration profile. Everything it
exposes is plain data — ints, floats, strings, tuples, frozen dataclass
records — never an engine object (no ``Environment``, no ``Store``, no
``Process``), which is what keeps policies pure decision functions that
can be unit-tested against a :class:`SyntheticView` with no simulation
at all.

Invariants (see ``docs/SCHEDULING.md``):

- The view reads live JobTracker state *at heartbeat-handling time*.
  The JobTracker is a serialized service, so the state cannot change
  while a policy's ``assign`` runs — the view behaves as a snapshot.
- Policies must never mutate anything reached through a view. All
  mutation flows back through the
  :class:`~repro.sched.base.TaskChoice` list the policy returns.
- ``jobs()`` yields RUNNING jobs in ascending ``job_id`` (= submission)
  order; ``pending_maps``/``pending_reduces`` preserve JobTracker queue
  order. Both orders are part of the determinism contract.

Maintenance is *incremental*: the view caches its JobView list, the
TrackerView table, and each job's pending-queue tuples against epoch
counters the JobTracker bumps on the corresponding mutations
(``_jobs_epoch`` for job set/state changes, ``_membership_epoch`` for
tracker join/loss, ``_queue_epochs`` for queue edits). An ``assign``
call against unchanged state therefore costs O(1) in view refresh work
— O(changed) overall — instead of rebuilding an O(trackers x jobs)
snapshot per heartbeat exchange. The caches are value-transparent: a
policy cannot distinguish a cached view from a freshly built one.
Anything that mutates tracker capabilities mid-run (hardware, slots,
speed factor) must bump ``JobTracker._membership_epoch``; the built-in
mutators (register/loss) already do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.hadoop.job import JobState, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.hadoop.jobtracker import JobTracker
    from repro.perf.calibration import Backend, CalibrationProfile

__all__ = [
    "AttemptView",
    "ClusterView",
    "JobView",
    "SyntheticJob",
    "SyntheticView",
    "TrackerView",
]


class AttemptView:
    """One live task attempt: where it runs and since when."""

    __slots__ = ("tracker_id", "attempt", "start_time")

    def __init__(self, tracker_id: int, attempt: int, start_time: float):
        self.tracker_id = tracker_id
        self.attempt = attempt
        self.start_time = start_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Attempt #{self.attempt} tracker={self.tracker_id} t0={self.start_time}>"


class TrackerView:
    """Hardware capabilities of one TaskTracker's blade.

    ``has_cells`` / ``has_gpus`` drive accelerator-affinity placement;
    ``speed_factor`` (> 1 means slower) exposes injected stragglers the
    way a load monitor would see them.
    """

    __slots__ = ("tracker_id", "has_cells", "has_gpus", "speed_factor",
                 "map_slots", "reduce_slots")

    def __init__(
        self,
        tracker_id: int,
        has_cells: bool = False,
        has_gpus: bool = False,
        speed_factor: float = 1.0,
        map_slots: int = 2,
        reduce_slots: int = 1,
    ):
        self.tracker_id = tracker_id
        self.has_cells = has_cells
        self.has_gpus = has_gpus
        self.speed_factor = speed_factor
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tracker {self.tracker_id} cells={self.has_cells} "
            f"gpus={self.has_gpus} x{self.speed_factor:g}>"
        )


class JobView:
    """Scheduling-relevant state of one RUNNING job.

    Wraps the live :class:`~repro.hadoop.job.Job` plus the JobTracker's
    queue/attempt bookkeeping. Accessors return copies or plain values;
    the underlying record is never handed out. Instances are cached and
    reused across heartbeat exchanges by :class:`ClusterView`, so the
    pending-queue tuples below are memoized against the JobTracker's
    per-job queue epoch — an unchanged queue is never re-copied.
    """

    __slots__ = ("_job", "_jt", "_queue_epoch", "_pending_maps", "_pending_reduces",
                 "_preferred_lookup", "_has_locality", "_local_candidates",
                 "_unconstrained_maps", "_pending_map_set", "_pending_maps_sorted")

    def __init__(self, job, jt: "JobTracker"):
        self._job = job
        self._jt = jt
        self._queue_epoch = -1
        self._pending_maps: tuple[int, ...] = ()
        self._pending_reduces: tuple[int, ...] = ()
        self._preferred_lookup: Optional[dict[int, tuple[int, ...]]] = None
        self._has_locality = False
        self._local_candidates: Optional[dict[int, tuple[int, ...]]] = None
        self._unconstrained_maps: Optional[tuple[int, ...]] = None
        self._pending_map_set: Optional[frozenset[int]] = None
        self._pending_maps_sorted = True

    # -- identity / configuration -----------------------------------------
    @property
    def job_id(self) -> int:
        return self._job.job_id

    @property
    def name(self) -> str:
        return self._job.conf.name

    @property
    def workload(self) -> str:
        return self._job.conf.workload

    @property
    def backend(self) -> "Backend":
        return self._job.conf.backend

    @property
    def fallback_backend(self) -> Optional["Backend"]:
        return self._job.conf.fallback_backend

    @property
    def weight(self) -> float:
        return self._job.conf.weight

    @property
    def speculative(self) -> bool:
        return self._job.conf.speculative

    @property
    def submit_time(self) -> float:
        return self._job.submit_time

    # -- queues -------------------------------------------------------------
    def _refresh_queues(self) -> None:
        jid = self._job.job_id
        epoch = self._jt._queue_epochs.get(jid, 0)
        if epoch != self._queue_epoch:
            self._pending_maps = tuple(self._jt._pending_maps.get(jid, ()))
            self._pending_map_set = None
            # Ascending queues (no failure/loss requeue has appended out
            # of order yet) let the pick fast path walk the per-node
            # candidate index instead of the whole queue. The JobTracker
            # tracks the (rare, sticky) out-of-order appends, so this is
            # a set probe rather than an O(pending) rescan per epoch.
            self._pending_maps_sorted = jid not in self._jt._queue_unsorted
            self._pending_reduces = tuple(self._jt._pending_reduces.get(jid, ()))
            self._queue_epoch = epoch

    @property
    def pending_maps(self) -> tuple[int, ...]:
        """Unassigned map task ids, in JobTracker queue order."""
        self._refresh_queues()
        return self._pending_maps

    @property
    def pending_map_set(self) -> frozenset[int]:
        """Pending map ids as a set (O(1) membership for pick loops).
        Built lazily per queue epoch — jobs whose picks never probe it
        (no locality) never pay for it."""
        self._refresh_queues()
        cached = self._pending_map_set
        if cached is None:
            cached = self._pending_map_set = frozenset(self._pending_maps)
        return cached

    @property
    def pending_maps_sorted(self) -> bool:
        """True while the map queue is in ascending task-id order —
        then first-in-queue-order equals first-in-ascending-id, and the
        locality pick may use :attr:`local_candidates`."""
        self._refresh_queues()
        return self._pending_maps_sorted

    @property
    def local_candidates(self) -> dict[int, tuple[int, ...]]:
        """``node_id → map task ids preferring it`` (ascending ids).

        The static inverse of :attr:`preferred_lookup`: a tracker's
        locality probe walks its own few candidates instead of the whole
        pending queue. Valid as a queue-order pick only while
        :attr:`pending_maps_sorted` holds.
        """
        index = self._local_candidates
        if index is None:
            build: dict[int, list[int]] = {}
            for tid, preferred in self.preferred_lookup.items():
                for node in preferred:
                    build.setdefault(node, []).append(tid)
            index = self._local_candidates = {
                node: tuple(sorted(tids)) for node, tids in build.items()
            }
        return index

    @property
    def unconstrained_maps(self) -> tuple[int, ...]:
        """Map task ids with no split (ascending) — "local everywhere"
        for policies that treat no-preference as local (delay
        scheduling). Static, like :attr:`local_candidates`."""
        ids = self._unconstrained_maps
        if ids is None:
            ids = self._unconstrained_maps = tuple(
                sorted(tid for tid, pref in self.preferred_lookup.items() if not pref)
            )
        return ids

    @property
    def pending_reduces(self) -> tuple[int, ...]:
        """Unassigned reduce task ids, in JobTracker queue order."""
        self._refresh_queues()
        return self._pending_reduces

    @property
    def num_maps(self) -> int:
        return len(self._job.maps)

    @property
    def num_reduces(self) -> int:
        return len(self._job.reduces)

    @property
    def maps_all_done(self) -> bool:
        return self._job.maps_all_done

    @property
    def running_attempt_count(self) -> int:
        """Live attempts (maps + reduces) across the cluster — the load
        measure fair sharing balances."""
        return self._jt._live_attempts.get(self._job.job_id, 0)

    # -- per-task detail -----------------------------------------------------
    @property
    def preferred_lookup(self) -> dict[int, tuple[int, ...]]:
        """``task_id → preferred node ids`` for every map task.

        Splits are immutable once ``_setup_job`` built the task table
        (reschedules re-queue ids, never re-split), so the lookup is
        computed once per job and shared across every heartbeat — the
        batch pick loops probe it instead of paying a method call and
        attribute chase per pending task. Policies must not mutate it.
        """
        lookup = self._preferred_lookup
        if lookup is None:
            lookup = self._preferred_lookup = {
                tid: (() if t.split is None else t.split.preferred_nodes)
                for tid, t in self._job.maps.items()
            }
            self._has_locality = any(lookup.values())
        return lookup

    @property
    def has_locality(self) -> bool:
        """True if any map task has a preferred node — compute-driven
        jobs (no splits) short-circuit the per-task locality probe."""
        if self._preferred_lookup is None:
            _ = self.preferred_lookup
        return self._has_locality

    def preferred_nodes(self, task_id: int) -> tuple[int, ...]:
        """HDFS block locality of one map task (compute-driven jobs have
        no split and prefer nowhere)."""
        return self.preferred_lookup[task_id]

    def map_state(self, task_id: int) -> str:
        return self._job.maps[task_id].state

    def done_map_durations(self) -> list[float]:
        """Durations of completed maps, for straggler detection."""
        return [t.duration for t in self._job.maps.values() if t.state == "done"]

    def running_map_attempts(self) -> Iterator[tuple[int, list[AttemptView]]]:
        """``(task_id, attempts)`` for every map currently running."""
        jid = self._job.job_id
        for task in self._job.maps.values():
            if task.state != "running":
                continue
            raw = self._jt._running_attempts.get((jid, TaskKind.MAP, task.task_id), ())
            yield task.task_id, [AttemptView(*a) for a in raw]

    def map_output_nodes(self) -> dict[int, int]:
        """``node_id → completed map outputs of this job held there`` —
        the shuffle source mass reduce-affinity placement ranks nodes
        by. Not cached: only consulted while reduces are pending, a
        window in which the underlying index changes on every map
        completion anyway."""
        jid = self._job.job_id
        out: dict[int, int] = {}
        for node, keys in self._jt.map_outputs.by_node.items():
            held = sum(1 for k in keys if k[0] == jid)
            if held:
                out[node] = held
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JobView {self.job_id} {self.name!r} pending={len(self.pending_maps)}>"


class ClusterView:
    """The live JobTracker seen through a policy-safe, read-only lens.

    One instance lives for the whole cluster; its JobView list, the
    TrackerView table, and the membership aggregates (slot totals,
    capability flags) are rebuilt only when the JobTracker's epoch
    counters say the underlying state changed.
    """

    def __init__(self, jt: "JobTracker"):
        self._jt = jt
        self._jobs_epoch = -1
        self._jobs_cache: list[JobView] = []
        self._job_views: dict[int, JobView] = {}
        self._members_epoch = -1
        self._tracker_views: dict[int, TrackerView] = {}
        self._trackers_cache: list[TrackerView] = []
        self._total_map_slots = 0

    @property
    def now(self) -> float:
        return self._jt.env.now

    @property
    def calib(self) -> "CalibrationProfile":
        """The (frozen) calibration profile: slot speeds per backend."""
        return self._jt.calib

    @property
    def membership_epoch(self) -> int:
        """Monotone counter bumped on tracker join/loss — a cheap
        memoization key for policies whose derived state depends only
        on the tracker set (see the accel policy)."""
        return self._jt._membership_epoch

    def jobs(self) -> list[JobView]:
        """RUNNING jobs in ascending job-id (submission) order."""
        jt = self._jt
        if self._jobs_epoch != jt._jobs_epoch:
            views = self._job_views
            cache = []
            for jid in sorted(jt._jobs):
                job = jt._jobs[jid]
                if job.state is not JobState.RUNNING:
                    continue
                view = views.get(jid)
                if view is None:
                    view = views[jid] = JobView(job, jt)
                cache.append(view)
            self._jobs_cache = cache
            self._jobs_epoch = jt._jobs_epoch
        return list(self._jobs_cache)

    def _refresh_trackers(self) -> None:
        jt = self._jt
        if self._members_epoch == jt._membership_epoch:
            return
        table: dict[int, TrackerView] = {}
        for tid in sorted(jt._trackers):
            tt = jt._trackers[tid]
            node = tt.node
            table[tid] = TrackerView(
                tracker_id=tid,
                has_cells=bool(node.cells),
                has_gpus=bool(node.gpus),
                speed_factor=node.speed_factor,
                map_slots=tt.map_slots,
                reduce_slots=tt.reduce_slots,
            )
        self._tracker_views = table
        self._trackers_cache = list(table.values())
        self._total_map_slots = sum(t.map_slots for t in self._trackers_cache)
        self._members_epoch = jt._membership_epoch

    def tracker(self, tracker_id: int) -> TrackerView:
        self._refresh_trackers()
        view = self._tracker_views.get(tracker_id)
        if view is None:
            # A heartbeat can race a loss declaration (the report was
            # queued before the timeout fired): give affinity policies a
            # capability-less default instead of a KeyError.
            return TrackerView(tracker_id)
        return view

    def trackers(self) -> list[TrackerView]:
        """All live trackers, ascending tracker id."""
        self._refresh_trackers()
        return list(self._trackers_cache)

    @property
    def tracker_count(self) -> int:
        """Live tracker count without materializing the view list."""
        return len(self._jt._trackers)

    @property
    def total_map_slots(self) -> int:
        self._refresh_trackers()
        return self._total_map_slots


class SyntheticJob:
    """A hand-built stand-in for :class:`JobView` (policy unit tests).

    Carries the same read surface as :class:`JobView` but from plain
    constructor data, so a policy's decision function can be exercised
    against crafted job states with no JobTracker behind it.
    """

    def __init__(
        self,
        job_id: int,
        *,
        name: str = "job",
        workload: str = "pi",
        backend=None,
        fallback_backend=None,
        weight: float = 1.0,
        speculative: bool = False,
        submit_time: float = 0.0,
        pending_maps: Sequence[int] = (),
        pending_reduces: Sequence[int] = (),
        num_maps: Optional[int] = None,
        num_reduces: int = 0,
        maps_all_done: bool = False,
        running_attempt_count: int = 0,
        preferred: Optional[dict[int, tuple[int, ...]]] = None,
        map_states: Optional[dict[int, str]] = None,
        done_durations: Sequence[float] = (),
        running_attempts: Optional[dict[int, list[AttemptView]]] = None,
        map_output_nodes: Optional[dict[int, int]] = None,
    ):
        from repro.perf.calibration import Backend

        self.job_id = job_id
        self.name = name
        self.workload = workload
        self.backend = backend if backend is not None else Backend.JAVA_PPE
        self.fallback_backend = fallback_backend
        self.weight = weight
        self.speculative = speculative
        self.submit_time = submit_time
        self.pending_maps = tuple(pending_maps)
        self.pending_reduces = tuple(pending_reduces)
        self.num_maps = num_maps if num_maps is not None else len(self.pending_maps)
        self.num_reduces = num_reduces
        self.maps_all_done = maps_all_done
        self.running_attempt_count = running_attempt_count
        self._preferred = dict(preferred or {})
        self._map_states = dict(map_states or {})
        self._done_durations = list(done_durations)
        self._running_attempts = dict(running_attempts or {})
        self._map_output_nodes = dict(map_output_nodes or {})

    @property
    def preferred_lookup(self) -> dict[int, tuple[int, ...]]:
        return self._preferred

    @property
    def has_locality(self) -> bool:
        return any(self._preferred.values())

    @property
    def pending_map_set(self) -> frozenset[int]:
        return frozenset(self.pending_maps)

    @property
    def pending_maps_sorted(self) -> bool:
        pending = self.pending_maps
        return all(pending[i] < pending[i + 1] for i in range(len(pending) - 1))

    @property
    def local_candidates(self) -> dict[int, tuple[int, ...]]:
        build: dict[int, list[int]] = {}
        for tid, preferred in self._preferred.items():
            for node in preferred:
                build.setdefault(node, []).append(tid)
        return {node: tuple(sorted(tids)) for node, tids in build.items()}

    @property
    def unconstrained_maps(self) -> tuple[int, ...]:
        return tuple(
            sorted(tid for tid in self.pending_maps if not self._preferred.get(tid))
        )

    def preferred_nodes(self, task_id: int) -> tuple[int, ...]:
        return self._preferred.get(task_id, ())

    def map_state(self, task_id: int) -> str:
        return self._map_states.get(task_id, "pending")

    def done_map_durations(self) -> list[float]:
        return list(self._done_durations)

    def running_map_attempts(self) -> Iterator[tuple[int, list[AttemptView]]]:
        for task_id in sorted(self._running_attempts):
            yield task_id, list(self._running_attempts[task_id])

    def map_output_nodes(self) -> dict[int, int]:
        return dict(self._map_output_nodes)


class SyntheticView:
    """A hand-built stand-in for :class:`ClusterView` (policy unit tests).

    Constructed from plain data — no JobTracker, no engine. Exposes the
    same surface policies consume, so a policy's decision function can
    be exercised against crafted cluster states directly.
    """

    def __init__(
        self,
        jobs: Sequence["SyntheticJob"],
        trackers: Sequence[TrackerView],
        now: float = 0.0,
        calib=None,
        membership_epoch: int = 0,
    ):
        from repro.perf.calibration import PAPER_CALIBRATION

        self._jobs = list(jobs)
        self._trackers = {t.tracker_id: t for t in trackers}
        self.now = now
        self.calib = calib if calib is not None else PAPER_CALIBRATION
        self.membership_epoch = membership_epoch

    def jobs(self) -> list[JobView]:
        return list(self._jobs)

    def tracker(self, tracker_id: int) -> TrackerView:
        return self._trackers[tracker_id]

    def trackers(self) -> list[TrackerView]:
        return [self._trackers[tid] for tid in sorted(self._trackers)]

    @property
    def tracker_count(self) -> int:
        return len(self._trackers)

    @property
    def total_map_slots(self) -> int:
        return sum(t.map_slots for t in self.trackers())
