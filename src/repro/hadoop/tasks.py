"""Map and reduce task processes.

A map task is the pipeline the paper describes and measures:

    RecordReader (DataNode → TaskTracker delivery)  →  bounded queue
      →  map() kernel via the backend bridge  →  output collection

Reading ahead of the kernel through a depth-2 queue reproduces Hadoop's
streaming behaviour; it is why the Java and Cell mappers tie in Fig. 4 —
both pipelines are bounded by the delivery stage, not the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.hadoop.config import JobConf
from repro.hadoop.job import Job, TaskKind, TaskRecord
from repro.hadoop.kernel_bridge import MapKernel
from repro.hadoop.recordreader import RecordReader
from repro.perf.calibration import Backend

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.hdfs.client import HDFSClient
    from repro.perf.calibration import CalibrationProfile
    from repro.sim.engine import Environment
    from repro.sim.trace import Tracer

from repro.sim.resources import Store

__all__ = ["TaskContext", "MapOutput", "run_map_task", "run_reduce_task"]

_SENTINEL = object()

PI_MAP_OUTPUT_BYTES = 128
"""A Pi mapper emits two longs (inside/outside counts) plus framing."""


@dataclass
class MapOutput:
    """Registry entry describing one completed map attempt's output."""

    node_id: int
    nbytes: float
    payload: Optional[bytes] = None
    """Real output bytes (functional-verification mode only)."""


@dataclass
class TaskContext:
    """Everything a task process needs from its host."""

    env: "Environment"
    node: "Node"
    client: "HDFSClient"
    calib: "CalibrationProfile"
    tracer: Optional["Tracer"] = None
    map_outputs: Optional[dict] = None
    """Shared registry: (job_id, map_task_id) → :class:`MapOutput`."""
    event_thin: Optional[bool] = None
    """The cluster's model-protocol mode (JobTracker-bound), threaded to
    kernels so one simulation never mixes protocols. None falls back to
    the bound run context (engine-free unit-test / raw-bench
    construction)."""


def _map_output_bytes(conf: JobConf, input_bytes: float) -> float:
    """Output volume of one map task, by workload."""
    if conf.workload == "pi":
        return PI_MAP_OUTPUT_BYTES
    if conf.workload == "empty" or conf.backend is Backend.EMPTY:
        return 0.0
    # AES ciphertext and terasort records are size-preserving.
    return input_bytes


def run_map_task(
    ctx: TaskContext, job: Job, task: TaskRecord, slot: int
) -> Generator:
    """Process: one map task attempt. Returns a stats dict.

    Raises simulation-level exceptions (e.g. HDFSError for lost blocks)
    to the TaskTracker, which reports a TaskFailed.
    """
    env = ctx.env
    calib = ctx.calib
    conf = job.conf
    # Span plumbing is pre-sampled once per attempt: `tracing` is None
    # unless a tracer exists AND is enabled, so the per-record loop
    # below never pays for disabled tracing.
    tracing = ctx.tracer if (ctx.tracer is not None and ctx.tracer.enabled) else None
    lane = f"node{ctx.node.node_id}/slot{slot}"
    attempt_span = (
        tracing.span("task", f"map {task.task_id}", track=lane, job=job.job_id)
        if tracing is not None
        else None
    )
    if conf.workload == "pi":
        # Compute-driven attempts fold the launch delay into the kernel
        # wave (one composite event in event-thin model mode; the same
        # delay as a separate event otherwise) — nothing observable
        # happens between launch and the first kernel event.
        launch_lead = calib.task_launch_s
    else:
        launch_lead = 0.0
        yield env.pooled_timeout(calib.task_launch_s)

    backend = conf.backend
    needs_missing_accel = (
        backend in (Backend.CELL_SPE_DIRECT, Backend.CELL_SPE_MAPREDUCE)
        and not ctx.node.cells
    ) or (backend is Backend.GPU_TESLA and not ctx.node.gpus)
    if needs_missing_accel and conf.fallback_backend is not None:
        # §V heterogeneous clusters: a Cell-targeted task scheduled onto
        # a general-purpose node falls back to the portable kernel.
        backend = conf.fallback_backend
    kernel = MapKernel(
        ctx.node, slot, backend, conf.workload, calib, event_thin=ctx.event_thin
    )
    stats: dict[str, Any] = {
        "records": 0,
        "input_bytes": 0.0,
        "remote_bytes": 0.0,
        "output_bytes": 0.0,
        "kernel_busy_s": 0.0,
    }

    if conf.workload == "pi":
        kernel_span = (
            tracing.span("kernel", "run_samples", track=f"{lane}/kernel")
            if tracing is not None
            else None
        )
        yield from kernel.run_samples(task.samples, lead_s=launch_lead)
        if kernel_span is not None:
            kernel_span.end(busy_s=kernel.kernel_busy_s)
        stats["kernel_busy_s"] = kernel.kernel_busy_s
        stats["output_bytes"] = PI_MAP_OUTPUT_BYTES
        yield from ctx.node.disk.write(PI_MAP_OUTPUT_BYTES)
        _register_output(ctx, job, task, PI_MAP_OUTPUT_BYTES)
    else:
        assert task.split is not None
        reader = RecordReader(ctx.client, task.split, ctx.node, calib, ctx.tracer)
        depth = calib.record_pipeline_depth
        if depth > 0:
            # Streaming mode: the reader runs up to `depth` records ahead
            # of the kernel — Hadoop's normal behaviour, and the reason
            # kernel speed hides under delivery time in Figs. 4/5.
            queue = Store(env, capacity=depth)
            reader_proc = env.process(
                _reader_loop(reader, queue), name=f"reader-m{task.task_id}"
            )
        else:
            # Ablation mode: strictly serial read -> compute per record.
            queue = None
            reader_proc = None
        cipher = None
        if conf.aes_key is not None and conf.workload == "aes":
            from repro.workloads.aes import AES128

            cipher = AES128(conf.aes_key)
        ciphertext_parts: list[bytes] = []
        ranges = reader.record_ranges()
        serial_idx = 0
        try:
            while True:
                if queue is not None:
                    batch = yield queue.get()
                    if batch is _SENTINEL:
                        break
                    if isinstance(batch, BaseException):
                        raise batch
                else:
                    if serial_idx >= len(ranges):
                        break
                    off, length = ranges[serial_idx]
                    batch = yield from reader.read_record(off, length, serial_idx)
                    serial_idx += 1
                if tracing is not None:
                    kernel_span = tracing.span(
                        "kernel", "process_record", track=f"{lane}/kernel"
                    )
                    yield from kernel.process_record(batch.nbytes)
                    kernel_span.end(nbytes=batch.nbytes)
                else:
                    yield from kernel.process_record(batch.nbytes)
                if cipher is not None and batch.payload is not None:
                    # Functional-verification mode: really encrypt the
                    # record at its absolute CTR offset, like the Cell
                    # kernel encrypts each 4 KB chunk at its own offset.
                    ciphertext_parts.append(
                        bytes(
                            cipher.ctr_crypt(
                                batch.payload,
                                conf.aes_nonce,
                                initial_counter=batch.offset // 16,
                            )
                        )
                    )
                out = _map_output_bytes(conf, batch.nbytes)
                if out > 0:
                    # Spill the record's output to the local disk (map
                    # output semantics; map-only jobs commit from here).
                    yield from ctx.node.disk.write(out)
                    stats["output_bytes"] += out
                stats["records"] += 1
                stats["input_bytes"] += batch.nbytes
                stats["remote_bytes"] += batch.remote_bytes
        finally:
            if reader_proc is not None and reader_proc.is_alive:
                reader_proc.interrupt("map task aborted")
        stats["kernel_busy_s"] = kernel.kernel_busy_s
        _register_output(
            ctx, job, task, stats["output_bytes"],
            payload=b"".join(ciphertext_parts) if ciphertext_parts else None,
        )

    yield env.pooled_timeout(calib.task_cleanup_s)
    if attempt_span is not None:
        attempt_span.end(
            records=stats["records"], kernel_busy_s=stats["kernel_busy_s"]
        )
    if ctx.tracer is not None:
        ctx.tracer.emit(
            "task", "map_done", job=job.job_id, task=task.task_id, node=ctx.node.node_id
        )
    return stats


def _reader_loop(reader: RecordReader, queue: Store) -> Generator:
    """Feed records into the bounded queue; sentinel marks completion.

    On a read failure the exception is parked in the queue so the
    consumer re-raises it in task context (and the attempt fails).
    """
    try:
        for index, (offset, length) in enumerate(reader.record_ranges()):
            batch = yield from reader.read_record(offset, length, index)
            yield queue.put(batch)
        yield queue.put(_SENTINEL)
    except BaseException as exc:  # noqa: BLE001 - forwarded to consumer
        from repro.sim.events import Interrupt

        if isinstance(exc, Interrupt):
            return
        yield queue.put(exc)


def _register_output(
    ctx: TaskContext,
    job: Job,
    task: TaskRecord,
    nbytes: float,
    payload: Optional[bytes] = None,
) -> None:
    if ctx.map_outputs is not None:
        ctx.map_outputs[(job.job_id, task.task_id)] = MapOutput(
            node_id=ctx.node.node_id, nbytes=nbytes, payload=payload
        )


def run_reduce_task(
    ctx: TaskContext,
    job: Job,
    task: TaskRecord,
    slot: int,
    cluster_nodes: dict[int, "Node"],
) -> Generator:
    """Process: one reduce task attempt (shuffle → merge → reduce → write).

    "The JobTracker is also responsible for collecting and sorting the
    partial results produced by the Mappers in order to use them as the
    input for the reduce phase" (§III-A). Each reducer fetches its
    partition of every map output over the network, merge-sorts it at
    the calibrated CPU sort rate, applies the reduce function, and
    writes the result to HDFS.
    """
    env = ctx.env
    calib = ctx.calib
    conf = job.conf
    tracing = ctx.tracer if (ctx.tracer is not None and ctx.tracer.enabled) else None
    lane = f"node{ctx.node.node_id}/rslot{slot}"
    attempt_span = (
        tracing.span("task", f"reduce {task.task_id}", track=lane, job=job.job_id)
        if tracing is not None
        else None
    )
    yield env.pooled_timeout(calib.task_launch_s)
    stats: dict[str, Any] = {"shuffle_bytes": 0.0, "output_bytes": 0.0, "kernel_busy_s": 0.0}

    nreduce = max(1, conf.num_reduce_tasks)
    # Shuffle: this reducer's share of every map output.
    shuffle_span = (
        tracing.span("phase", "shuffle", track=lane) if tracing is not None else None
    )
    fetched = 0.0
    if ctx.map_outputs is not None:
        for map_id in sorted(job.maps):
            out = ctx.map_outputs.get((job.job_id, map_id))
            if out is None:
                continue
            share = out.nbytes / nreduce
            if share <= 0:
                continue
            src = cluster_nodes[out.node_id]
            yield from src.disk.read(share)
            yield from ctx.client.namenode.datanode(out.node_id).network.transfer(
                src, ctx.node, share
            )
            fetched += share
    if shuffle_span is not None:
        shuffle_span.end(nbytes=fetched)
    stats["shuffle_bytes"] = fetched

    # Merge sort at CPU sort bandwidth, then the reduce function: Pi's
    # aggregation is O(#maps) and effectively free; sort's reduce streams
    # the data once more. Both phases are pure deterministic compute with
    # nothing observing the boundary, so they collapse into one
    # composite event.
    if fetched > 0:
        merge_s = fetched / calib.sort_cpu_bw_per_core
        reduce_s = merge_s if conf.workload == "sort" else 0.0
        merge_span = (
            tracing.span("phase", "merge+reduce", track=lane)
            if tracing is not None
            else None
        )
        yield env.composite_timeout(merge_s, reduce_s)
        if merge_span is not None:
            merge_span.end(merge_s=merge_s, reduce_s=reduce_s)
        stats["kernel_busy_s"] += merge_s + reduce_s

    # Output commit to HDFS. Attempt-scoped path, as real Hadoop writes
    # per-attempt temporary outputs and promotes the winner on commit.
    out_bytes = fetched if conf.workload == "sort" else PI_MAP_OUTPUT_BYTES
    if out_bytes > 0:
        path = f"/out/{conf.name}-{job.job_id}/part-{task.task_id:05d}.a{task.attempts}"
        yield from ctx.client.write_file(
            path, int(out_bytes), ctx.node, replication=conf.output_replication
        )
        stats["output_bytes"] = out_bytes

    yield env.pooled_timeout(calib.task_cleanup_s)
    if attempt_span is not None:
        attempt_span.end(shuffle_bytes=stats["shuffle_bytes"])
    if ctx.tracer is not None:
        ctx.tracer.emit(
            "task", "reduce_done", job=job.job_id, task=task.task_id, node=ctx.node.node_id
        )
    return stats
