"""Job post-mortem analysis: where did the time go?

The paper's argument is a time-accounting argument ("most of the
application time is spent on the Hadoop communication processes"). This
module reconstructs that accounting from a finished job: per-task and
per-job breakdowns of delivery time vs. kernel time vs. runtime
overhead — the numbers behind statements like "the runtime is the main
limiting factor".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hadoop.job import JobResult, TaskKind
from repro.perf.calibration import CalibrationProfile

__all__ = ["JobPhaseBreakdown", "analyze_job"]


@dataclass
class JobPhaseBreakdown:
    """Aggregate time accounting for one job (seconds, summed over tasks
    unless marked wall)."""

    makespan_wall_s: float
    setup_wall_s: float
    """Job submission → first task launch (setup + first heartbeat wave)."""
    tail_wall_s: float
    """Last task completion → job finish (completion report + cleanup)."""
    task_time_s: float
    """Sum of task attempt durations (launch → completion)."""
    delivery_s: float
    """Estimated RecordReader delivery time inside the tasks."""
    kernel_s: float
    """Kernel-busy time reported by the backends."""
    launch_overhead_s: float
    """Per-task launch + cleanup charges."""
    records: int
    input_bytes: float

    @property
    def delivery_fraction(self) -> float:
        """Share of total task time spent delivering records — the
        paper's 'communication' share. ~1.0 for data-intensive jobs."""
        if self.task_time_s <= 0:
            return 0.0
        return min(1.0, self.delivery_s / self.task_time_s)

    @property
    def kernel_fraction(self) -> float:
        if self.task_time_s <= 0:
            return 0.0
        return min(1.0, self.kernel_s / self.task_time_s)

    def summary(self) -> dict:
        return {
            "makespan_s": round(self.makespan_wall_s, 2),
            "setup_s": round(self.setup_wall_s, 2),
            "tail_s": round(self.tail_wall_s, 2),
            "task_time_s": round(self.task_time_s, 2),
            "delivery_s": round(self.delivery_s, 2),
            "kernel_s": round(self.kernel_s, 2),
            "delivery_fraction": round(self.delivery_fraction, 3),
            "kernel_fraction": round(self.kernel_fraction, 3),
        }


def analyze_job(result: JobResult, calib: CalibrationProfile) -> JobPhaseBreakdown:
    """Reconstruct the phase breakdown of a finished job.

    Delivery time is recomputed from the calibrated RecordReader model
    (records × per-record overhead + bytes / stream rate); kernel time
    comes from the per-task counters the backends maintained.
    """
    maps = [t for t in result.tasks if t.kind is TaskKind.MAP and t.state == "done"]
    task_time = sum(t.duration for t in result.tasks if t.state == "done")
    records = sum(t.records for t in maps)
    input_bytes = result.counters.get("map_input_bytes", 0.0)
    delivery = (
        records * calib.recordreader_per_record_s
        + input_bytes / calib.recordreader_stream_bw
    )
    kernel = result.kernel_busy_s
    n_attempts = sum(t.attempts for t in result.tasks)
    launch_overhead = n_attempts * (calib.task_launch_s + calib.task_cleanup_s)
    first_start = min((t.start_time for t in result.tasks if t.start_time >= 0), default=result.submit_time)
    last_end = max((t.end_time for t in result.tasks if t.end_time >= 0), default=result.finish_time)
    return JobPhaseBreakdown(
        makespan_wall_s=result.makespan_s,
        setup_wall_s=first_start - result.submit_time,
        tail_wall_s=result.finish_time - last_end,
        task_time_s=task_time,
        delivery_s=delivery,
        kernel_s=kernel,
        launch_overhead_s=launch_overhead,
        records=records,
        input_bytes=input_bytes,
    )

