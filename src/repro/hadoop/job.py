"""Job state, task bookkeeping, and results.

The :class:`Job` is the shared mutable record the JobTracker schedules
from; :class:`JobResult` is the immutable summary the harness consumes
(makespan, phase breakdown, counters) — the numbers behind Figs. 4–8.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.hadoop.config import JobConf
from repro.hadoop.split import InputSplit

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment
    from repro.sim.events import Event

__all__ = ["Job", "JobResult", "JobState", "TaskRecord", "TaskKind"]


class JobState(enum.Enum):
    PREP = "prep"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class TaskKind(enum.Enum):
    MAP = "map"
    REDUCE = "reduce"


@dataclass
class TaskRecord:
    """Lifetime record of one logical task (across attempts)."""

    kind: TaskKind
    task_id: int
    split: Optional[InputSplit] = None
    samples: float = 0.0
    attempts: int = 0
    state: str = "pending"  # pending | running | done | failed
    tracker: Optional[int] = None
    """Node id of the tracker running (or having run) the task."""
    start_time: float = -1.0
    end_time: float = -1.0
    speculative_of: Optional[int] = None
    output_bytes: float = 0.0
    kernel_busy_s: float = 0.0
    records: int = 0
    remote_bytes: float = 0.0

    @property
    def duration(self) -> float:
        if self.start_time < 0 or self.end_time < 0:
            return float("nan")
        return self.end_time - self.start_time

    @property
    def key(self) -> tuple[TaskKind, int]:
        return (self.kind, self.task_id)


@dataclass
class Job:
    """One submitted MapReduce job."""

    conf: JobConf
    env: "Environment"
    job_id: int = 0
    state: JobState = JobState.PREP
    maps: dict[int, TaskRecord] = field(default_factory=dict)
    reduces: dict[int, TaskRecord] = field(default_factory=dict)
    submit_time: float = 0.0
    launch_time: float = -1.0
    """Time the first task attempt started."""
    maps_done_time: float = -1.0
    finish_time: float = -1.0
    counters: dict[str, float] = field(default_factory=dict)
    completion: Optional["Event"] = None
    failure_reason: Optional[str] = None
    _done_map_count: int = 0
    _done_reduce_count: int = 0
    """Completion tallies maintained by the JobTracker on task-state
    transitions, so the per-heartbeat completion predicates are O(1)
    instead of scanning every task."""

    def __post_init__(self) -> None:
        self.completion = self.env.event()

    # -- bookkeeping -------------------------------------------------------------
    def bump(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def note_task_done(self, kind: TaskKind) -> None:
        """Record a pending/running → done transition (JobTracker only)."""
        if kind is TaskKind.MAP:
            self._done_map_count += 1
        else:
            self._done_reduce_count += 1

    def note_task_undone(self, kind: TaskKind) -> None:
        """Record a done → pending transition (lost map output)."""
        if kind is TaskKind.MAP:
            self._done_map_count -= 1
        else:
            self._done_reduce_count -= 1

    def task(self, kind: TaskKind, task_id: int) -> TaskRecord:
        table = self.maps if kind is TaskKind.MAP else self.reduces
        return table[task_id]

    @property
    def all_tasks(self) -> list[TaskRecord]:
        return [*self.maps.values(), *self.reduces.values()]

    @property
    def maps_completed(self) -> int:
        return self._done_map_count

    @property
    def reduces_completed(self) -> int:
        return self._done_reduce_count

    @property
    def maps_all_done(self) -> bool:
        return self._done_map_count >= len(self.maps)

    @property
    def reduces_all_done(self) -> bool:
        return self._done_reduce_count >= len(self.reduces)

    @property
    def is_complete(self) -> bool:
        return self.maps_all_done and self.reduces_all_done

    def mark_finished(self, state: JobState, reason: Optional[str] = None) -> None:
        self.state = state
        self.finish_time = self.env.now
        self.failure_reason = reason
        if not self.completion.triggered:
            self.completion.succeed(self.result())

    # -- summary ------------------------------------------------------------------
    def result(self) -> "JobResult":
        return JobResult(
            job_id=self.job_id,
            name=self.conf.name,
            workload=self.conf.workload,
            backend=self.conf.backend.value,
            state=self.state,
            submit_time=self.submit_time,
            launch_time=self.launch_time,
            maps_done_time=self.maps_done_time,
            finish_time=self.finish_time,
            num_maps=len(self.maps),
            num_reduces=len(self.reduces),
            counters=dict(self.counters),
            tasks=[*self.maps.values(), *self.reduces.values()],
            failure_reason=self.failure_reason,
        )


@dataclass
class JobResult:
    """Immutable job summary."""

    job_id: int
    name: str
    workload: str
    backend: str
    state: JobState
    submit_time: float
    launch_time: float
    maps_done_time: float
    finish_time: float
    num_maps: int
    num_reduces: int
    counters: dict[str, float]
    tasks: list[TaskRecord]
    failure_reason: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.state is JobState.SUCCEEDED

    @property
    def makespan_s(self) -> float:
        """Submit-to-finish wall time — what the paper's figures plot."""
        return self.finish_time - self.submit_time

    @property
    def kernel_busy_s(self) -> float:
        """Total kernel-active seconds across all task attempts."""
        return sum(t.kernel_busy_s for t in self.tasks)

    @property
    def total_records(self) -> int:
        return sum(t.records for t in self.tasks if t.kind is TaskKind.MAP)

    @property
    def remote_fraction(self) -> float:
        """Fraction of input bytes read from a remote DataNode."""
        total = self.counters.get("map_input_bytes", 0.0)
        if total <= 0:
            return 0.0
        return self.counters.get("remote_input_bytes", 0.0) / total

    def summary(self) -> dict[str, Any]:
        """Flat dict for table rendering."""
        return {
            "job": self.name,
            "workload": self.workload,
            "backend": self.backend,
            "state": self.state.value,
            "makespan_s": round(self.makespan_s, 3),
            "maps": self.num_maps,
            "reduces": self.num_reduces,
            "kernel_busy_s": round(self.kernel_busy_s, 3),
            "remote_fraction": round(self.remote_fraction, 4),
        }
