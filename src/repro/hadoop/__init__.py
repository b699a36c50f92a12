"""Hadoop-0.19-style MapReduce runtime.

Implements the cluster-level half of the paper's prototype (§III-A):

- :class:`~repro.hadoop.jobtracker.JobTracker` — split queue, heartbeat-
  driven locality-aware scheduling, failure detection, re-execution,
  optional speculative execution.
- :class:`~repro.hadoop.tasktracker.TaskTracker` — per-blade mapper
  slots (2, one per Cell socket), heartbeat protocol, task launch.
- :class:`~repro.hadoop.recordreader.RecordReader` — the
  DataNode→TaskTracker record delivery path whose measured slowness is
  the paper's central finding.
- :class:`~repro.hadoop.tasks` — map/reduce task processes, including
  the kernel-backend bridge (the "JNI" boundary of the paper).
"""

from repro.hadoop.config import JobConf
from repro.hadoop.split import InputFormat, InputSplit
from repro.hadoop.recordreader import RecordReader
from repro.hadoop.job import Job, JobResult, JobState, TaskRecord
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.tasktracker import TaskTracker
from repro.hadoop.kernel_bridge import MapKernel
from repro.hadoop.faults import (
    ChurnEvent,
    ChurnPlan,
    FaultPlan,
    apply_churn,
    kill_node_at,
)

__all__ = [
    "ChurnEvent",
    "ChurnPlan",
    "FaultPlan",
    "InputFormat",
    "InputSplit",
    "Job",
    "JobConf",
    "JobResult",
    "JobState",
    "JobTracker",
    "MapKernel",
    "RecordReader",
    "TaskRecord",
    "TaskTracker",
    "apply_churn",
    "kill_node_at",
]
