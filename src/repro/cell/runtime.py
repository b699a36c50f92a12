"""SPE offload runtimes — the paper's two native libraries (§III-B).

Both runtimes split a record into small chunks ("each record was split
into 4KB data blocks that were sent to the SPUs", §IV-A), stream them to
the 8 SPEs with double-buffered DMA, and collect the results.

Timing has two paths, checked against each other by a property test:

- **event path** — every chunk is simulated: DMA slot acquisition, bus
  transfer, SPE occupancy. Exact but O(chunks) events.
- **analytic path** — the closed form of the steady-state pipeline, used
  automatically above :attr:`OffloadRuntime.event_chunk_limit` chunks so
  that simulating a 64 MB record (16384 chunks × 8 SPEs) stays cheap in
  the cluster benchmarks.

A third, *functional* API (:meth:`OffloadRuntime.execute_bytes`) runs a
real kernel over real bytes chunk-by-chunk, enforcing local-store
capacity and SIMD alignment — the tests drive real AES through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

import numpy as np

from repro import runctx
from repro.perf.calibration import CalibrationProfile
from repro.cell.dma import chunk_time_estimate
from repro.cell.localstore import LocalStore, LocalStoreOverflow
from repro.cell.processor import CellProcessor
from repro.cell.simd import check_alignment

__all__ = ["OffloadResult", "OffloadRuntime", "DirectSPERuntime", "CellMapReduceRuntime"]


@dataclass
class OffloadResult:
    """Outcome of one simulated offload call."""

    bytes_processed: float
    elapsed_s: float
    chunks: int
    path: str
    """``"event"`` or ``"analytic"``."""
    spe_busy_s: float = 0.0


class OffloadRuntime:
    """Common chunking/offload machinery for both native libraries.

    Parameters
    ----------
    cell:
        The socket this runtime drives.
    calib:
        Calibration profile (chunk size, DMA limits).
    startup_s:
        One-time cost charged on the first offload (SPE context creation
        and code upload; the Fig. 2 left-edge ramp).
    chunk_bytes:
        Chunk size; defaults to the paper's 4 KB.
    event_chunk_limit:
        Offloads with more chunks than this use the analytic path.
    analytic_samples:
        Collapse Monte-Carlo offloads into one composite event (the
        event-thin model mode). ``None`` reads the bound
        :mod:`repro.runctx` context; cluster runs pass their
        JobTracker's construction-time flag down instead, so one
        simulation never mixes protocols.
    """

    name = "offload"

    def __init__(
        self,
        cell: CellProcessor,
        calib: CalibrationProfile,
        startup_s: float = 0.0,
        chunk_bytes: Optional[int] = None,
        event_chunk_limit: int = 1024,
        analytic_samples: Optional[bool] = None,
    ):
        self.cell = cell
        self.env = cell.env
        self.calib = calib
        self.startup_s = float(startup_s)
        self.chunk_bytes = int(calib.cell_chunk_bytes if chunk_bytes is None else chunk_bytes)
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if self.chunk_bytes % 16 != 0:
            raise ValueError("chunk_bytes must be a multiple of the 16-byte vector size")
        self.event_chunk_limit = event_chunk_limit
        self._started = False
        #: Event-thin model mode: Monte-Carlo offloads collapse into one
        #: composite event via :meth:`analytic_samples_time` instead of
        #: spawning one process per SPE. See repro.runctx.
        self.analytic_samples = (
            (not runctx.current().model_reference)
            if analytic_samples is None
            else bool(analytic_samples)
        )
        # Every numeric input the closed forms read, so memoized results
        # can be shared across runtime instances (one is built per task
        # attempt) without ever mixing calibrations. The DMA limits are
        # the ones the socket's DMA engine copies from its calibration;
        # reading them there builds no engine.
        self._memo_key = (
            type(self).__name__,
            self.chunk_bytes,
            cell.spe_count,
            calib.spe_per_chunk_overhead_s,
            cell.calib.dma_request_latency_s,
            cell.calib.dma_max_request_bytes,
            calib.dma_bus_bw,
            calib.ppe_memcpy_bw,
            calib.cell_mr_per_chunk_overhead_s,
        )
        self.validate_buffers()

    # -- local-store validation -------------------------------------------------
    #: ``(runtime class, local-store bytes, chunk bytes)`` shapes already
    #: proven to fit an empty local store.
    _VALIDATED: set = set()

    def validate_buffers(self) -> None:
        """Prove the double-buffer set fits each SPE's local store.

        Double buffering needs two input and two output buffers of one
        chunk each. Runs against SPE 0's allocator (all SPEs are
        identical) and rolls back, so configuration errors surface at
        construction time exactly like an SPE link failure would. While
        the socket's SPEs are unbuilt, a fresh store of the same size
        stands in (it is what SPE 0 would start with), once per shape.
        """
        if self.cell.spes_built:
            self._probe_buffers(self.cell.spes[0].local_store)
            return
        size = self.cell.calib.local_store_bytes
        shape = (type(self), size, self.chunk_bytes)
        if shape not in OffloadRuntime._VALIDATED:
            self._probe_buffers(LocalStore(size_bytes=size))
            OffloadRuntime._VALIDATED.add(shape)

    def _probe_buffers(self, ls: LocalStore) -> None:
        names = ["in0", "in1", "out0", "out1"]
        allocated = []
        try:
            for n in names:
                ls.alloc(f"__probe_{n}", self.chunk_bytes)
                allocated.append(f"__probe_{n}")
        except LocalStoreOverflow as exc:
            raise LocalStoreOverflow(
                f"{self.name}: chunk size {self.chunk_bytes} needs "
                f"{4 * self.chunk_bytes} bytes of buffers; {exc}"
            ) from None
        finally:
            for n in reversed(allocated):
                ls.free(n)

    # -- timing helpers -----------------------------------------------------------
    def _chunk_compute_s(self, spe_bw: float, nbytes: Optional[int] = None) -> float:
        """SPE time per chunk: raw SIMD compute plus the per-chunk
        software overhead (mailbox sync, loop control)."""
        size = self.chunk_bytes if nbytes is None else nbytes
        return size / spe_bw + self.calib.spe_per_chunk_overhead_s

    def _chunk_dma_s(self) -> float:
        """One-direction DMA time per chunk (uncontended)."""
        return chunk_time_estimate(self.cell.calib, self.chunk_bytes)

    def _steady_period_s(self, spe_bw: float) -> float:
        """Per-chunk period of one double-buffered SPE at steady state.

        With double buffering the chunk period is the max of compute and
        each DMA direction (they overlap); for the paper's 4 KB chunks
        and AES rates, compute dominates by ~300x.
        """
        return max(self._chunk_compute_s(spe_bw), self._chunk_dma_s())

    #: Shared closed-form result cache: memo key (every numeric input of
    #: the formula) → duration. Cluster runs build one runtime per task
    #: attempt but evaluate the same few (record size, rate) points tens
    #: of thousands of times; the memo turns those repeats into one dict
    #: probe. Bounded: cleared wholesale when full (keys are few in any
    #: real run; the bound only guards pathological sweeps).
    _ANALYTIC_MEMO: dict = {}
    _ANALYTIC_MEMO_MAX = 8192

    def analytic_time(self, nbytes: float, spe_bw: float) -> float:
        """Closed-form offload time (excludes one-time startup), memoized
        on every numeric input (see :attr:`_ANALYTIC_MEMO`)."""
        memo = OffloadRuntime._ANALYTIC_MEMO
        key = (self._memo_key, nbytes, spe_bw)
        t = memo.get(key)
        if t is None:
            t = self._analytic_time_uncached(nbytes, spe_bw)
            if len(memo) >= self._ANALYTIC_MEMO_MAX:
                memo.clear()
            memo[key] = t
        return t

    def _analytic_time_uncached(self, nbytes: float, spe_bw: float) -> float:
        """Exact critical path of the round-robin chunk distribution: SPE
        *i* receives ``ceil((chunks - i) / nspe)`` chunks, all full-size
        except that the SPE holding the globally last chunk processes
        the (possibly short) tail instead of a full chunk.
        """
        if nbytes <= 0:
            return 0.0
        chunks = max(1, int(np.ceil(nbytes / self.chunk_bytes)))
        nspe = self.cell.spe_count
        period = self._steady_period_s(spe_bw)
        tail_bytes = nbytes - (chunks - 1) * self.chunk_bytes
        tail_aligned = int(np.ceil(tail_bytes / 16) * 16)
        tail_period = max(
            self._chunk_compute_s(spe_bw, tail_aligned),
            chunk_time_estimate(self.cell.calib, max(16, tail_aligned)),
        )
        tail_spe = (chunks - 1) % nspe
        critical = 0.0
        for i in range(min(nspe, chunks)):
            count = (chunks - i + nspe - 1) // nspe
            if i == tail_spe:
                t = (count - 1) * period + tail_period
            else:
                t = count * period
            critical = max(critical, t)
        # Pipeline fill: first chunk must be DMA'd in before compute starts;
        # drain: last result DMA'd out after compute. Both use the actual
        # first/last transfer sizes (a lone sub-chunk pays sub-chunk DMA).
        first_aligned = int(min(self.chunk_bytes, max(16, np.ceil(nbytes / 16) * 16)))
        fill = chunk_time_estimate(self.cell.calib, first_aligned)
        drain = chunk_time_estimate(self.cell.calib, max(16, tail_aligned))
        return fill + drain + critical

    # -- simulated offload ----------------------------------------------------------
    def offload_bytes(self, nbytes: float, spe_bw: float) -> Generator:
        """Process: run a byte-streaming kernel over ``nbytes``.

        Returns an :class:`OffloadResult`. ``spe_bw`` is the per-SPE
        plateau bandwidth of the kernel (socket plateau / 8).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        t0 = self.env.now
        startup = self._startup_delay()
        chunks = max(1, int(np.ceil(nbytes / self.chunk_bytes))) if nbytes else 0
        if chunks == 0:
            if startup > 0:
                yield self.env.pooled_timeout(startup)
            return OffloadResult(0.0, self.env.now - t0, 0, "analytic")
        if chunks > self.event_chunk_limit:
            # Startup + closed-form pipeline time: one composite event.
            t = self.analytic_time(nbytes, spe_bw)
            yield self.env.composite_timeout(startup, t)
            busy = nbytes / spe_bw + chunks * self.calib.spe_per_chunk_overhead_s
            self._record_busy(busy)
            return OffloadResult(nbytes, self.env.now - t0, chunks, "analytic", busy)
        if startup > 0:
            yield self.env.pooled_timeout(startup)
        yield from self._event_offload(nbytes, chunks, spe_bw)
        busy = nbytes / spe_bw + chunks * self.calib.spe_per_chunk_overhead_s
        return OffloadResult(nbytes, self.env.now - t0, chunks, "event", busy)

    #: Seed-in / result-out record moved per SPE by a Monte-Carlo offload.
    PI_DMA_BYTES = 128

    def analytic_samples_time(self, samples: float, socket_rate: float) -> float:
        """Closed-form Monte-Carlo offload time (excludes startup).

        The critical path of the event-accurate worker wave: all SPEs
        issue their 128-byte seed ``get`` together, so the inbound bus
        (FIFO, one channel) serializes ``nspe`` transfers; every SPE
        then computes the same ``samples / socket_rate`` seconds, so the
        result ``put``s arrive staggered by exactly one bus slice and
        never queue. The last SPE therefore finishes after two DMA issue
        latencies, ``nspe + 1`` bus slices, and one compute span.
        """
        return self._samples_time_base() + samples / socket_rate

    def _samples_time_base(self) -> float:
        """The samples-independent part of :meth:`analytic_samples_time`
        (DMA issue latencies plus the serialized seed bus slices)."""
        nspe = self.cell.spe_count
        bus_slice = self.PI_DMA_BYTES / self.calib.dma_bus_bw
        return 2 * self.cell.calib.dma_request_latency_s + (nspe + 1) * bus_slice

    def analytic_samples_time_batch(self, samples, socket_rate: float) -> np.ndarray:
        """Vectorized :meth:`analytic_samples_time` for a wave of tasks.

        One array op computes every composite-event duration; each
        element is bit-identical to the scalar path (the base term is
        evaluated once with the same association, then ``+ s / rate``
        applies the same IEEE-754 ops per element).
        """
        s = np.asarray(samples, dtype=np.float64)
        return self._samples_time_base() + s / socket_rate

    def offload_samples(
        self, samples: float, socket_rate: float, lead_s: float = 0.0
    ) -> Generator:
        """Process: run a compute-only kernel (Monte-Carlo Pi).

        No input data crosses the DMA engine beyond the tiny seed/result
        records, so the time is pure SPE occupancy: samples are split
        evenly over the 8 SPEs running at ``socket_rate / 8`` each. In
        event-thin model mode the whole wave — a leading ``lead_s``
        delay, startup, seed DMA, compute, result DMA — is one composite
        event (:meth:`analytic_samples_time`); nothing outside the task
        can observe the per-SPE interleaving, because each mapper slot
        drives its own Cell socket with its own DMA engine.
        """
        if samples < 0:
            raise ValueError("samples must be non-negative")
        t0 = self.env.now
        startup = self._startup_delay()
        if self.analytic_samples:
            if samples == 0:
                if lead_s > 0 or startup > 0:
                    yield self.env.composite_timeout(lead_s, startup)
                return OffloadResult(0.0, self.env.now - t0, 0, "analytic")
            yield self.env.composite_timeout(
                lead_s, startup, self.analytic_samples_time(samples, socket_rate)
            )
            busy = samples / socket_rate * self.cell.spe_count
            self._record_busy(busy)
            return OffloadResult(
                samples, self.env.now - t0, self.cell.spe_count, "analytic", busy
            )
        if lead_s > 0:
            yield self.env.pooled_timeout(lead_s)
        if startup > 0:
            yield self.env.pooled_timeout(startup)
        if samples == 0:
            return OffloadResult(0.0, self.env.now - t0, 0, "analytic")
        nspe = self.cell.spe_count
        per_spe = samples / nspe
        spe_rate = socket_rate / nspe
        compute_s = per_spe / spe_rate
        # Seed in / result out: one minimal DMA round trip per SPE.
        # Workers start deferred and are batch-scheduled in one heap pass.
        procs = [
            self.env.process(
                self._pi_spe_worker(spe, compute_s), name=f"pi-spe{spe.spe_id}", start=False
            )
            for spe in self.cell.spes
        ]
        self.env.start_processes(procs)
        yield self.env.all_of(procs)
        return OffloadResult(samples, self.env.now - t0, nspe, "event", compute_s * nspe)

    def _pi_spe_worker(self, spe, compute_s: float) -> Generator:
        yield from self.cell.dma.get(self.PI_DMA_BYTES)
        yield from spe.compute(compute_s)
        yield from self.cell.dma.put(self.PI_DMA_BYTES)

    # -- internals ---------------------------------------------------------------
    def _startup_delay(self) -> float:
        """One-time startup cost, consumed on the first offload.

        Returned as a plain delay so callers can fold it into a
        composite event instead of paying a separate startup event.
        """
        if self._started:
            return 0.0
        self._started = True
        return self.startup_s

    def _record_busy(self, seconds: float) -> None:
        """Spread analytic busy time evenly over the SPEs."""
        self.cell.add_spe_busy(seconds / self.cell.spe_count)

    def _event_offload(self, nbytes: float, chunks: int, spe_bw: float) -> Generator:
        """Event-accurate double-buffered offload across all SPEs."""
        counter = {"next": 0, "total": chunks, "last_bytes": nbytes - (chunks - 1) * self.chunk_bytes}
        workers = [
            self.env.process(
                self._spe_worker(spe, counter, spe_bw),
                name=f"{self.name}-spe{spe.spe_id}",
                start=False,
            )
            for spe in self.cell.spes
        ]
        self.env.start_processes(workers)
        yield self.env.all_of(workers)

    def _spe_worker(self, spe, counter: dict, spe_bw: float) -> Generator:
        """One SPE's loop over the shared chunk counter.

        Chunks are fetched, computed, and written back per-iteration. For
        the paper's 4 KB chunks DMA is ~0.5 % of compute, so forgoing
        explicit get/compute overlap here costs less than the tolerance
        of the analytic-vs-event consistency test; the analytic path
        models the overlapped (max) form.
        """
        dma = self.cell.dma
        while True:
            idx = counter["next"]
            if idx >= counter["total"]:
                break
            counter["next"] = idx + 1
            size = counter["last_bytes"] if idx == counter["total"] - 1 else self.chunk_bytes
            size = int(np.ceil(size / 16) * 16)
            yield from dma.transfer_chunk(size, inbound=True)
            yield from spe.compute(self._chunk_compute_s(spe_bw, size))
            yield from dma.transfer_chunk(size, inbound=False)

    # -- functional execution -------------------------------------------------------
    def execute_bytes(self, data: bytes | np.ndarray, kernel: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Run a real kernel over real bytes, chunk-by-chunk.

        Enforces the SIMD alignment contract and the local-store buffer
        budget; the output is the concatenation of per-chunk results.
        This path carries no simulated time — it is the "does the math
        actually work" half of the reproduction.
        """
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
        check_alignment(arr.size)
        out_parts: list[np.ndarray] = []
        for off in range(0, arr.size, self.chunk_bytes):
            chunk = arr[off : off + self.chunk_bytes]
            check_alignment(chunk.size)
            result = kernel(chunk)
            out_parts.append(np.asarray(result, dtype=np.uint8))
        if not out_parts:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(out_parts)


class DirectSPERuntime(OffloadRuntime):
    """The paper's first native library: direct pthread-style offload.

    No PPE-side staging: records stream straight from system memory to
    the SPEs. This is the fastest Fig. 2 configuration (~700 MB/s AES).
    """

    name = "direct-spe"


class CellMapReduceRuntime(OffloadRuntime):
    """Proxy to the MapReduce-for-Cell framework (de Kruijf et al.).

    "...incurs in a considerable overhead because the way the PPEs are
    used to initialize the input data (basically the original input data
    must be copied again to internal buffers managed by the framework)"
    (§IV-A). We model that as a full PPE-side input copy that precedes
    SPE processing, plus a small per-chunk scheduling overhead on the
    PPE — together they produce the Fig. 2 gap below the direct runtime.
    """

    name = "cell-mapreduce"

    def _analytic_time_uncached(self, nbytes: float, spe_bw: float) -> float:
        base = super()._analytic_time_uncached(nbytes, spe_bw)
        chunks = max(1, int(np.ceil(nbytes / self.chunk_bytes)))
        copy_s = nbytes / self.calib.ppe_memcpy_bw
        sched_s = chunks * self.calib.cell_mr_per_chunk_overhead_s
        return copy_s + sched_s + base

    def offload_bytes(self, nbytes: float, spe_bw: float) -> Generator:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        t0 = self.env.now
        startup = self._startup_delay()
        chunks = max(1, int(np.ceil(nbytes / self.chunk_bytes))) if nbytes else 0
        if chunks == 0:
            if startup > 0:
                yield self.env.pooled_timeout(startup)
            return OffloadResult(0.0, self.env.now - t0, 0, "analytic")
        if chunks > self.event_chunk_limit:
            t = self.analytic_time(nbytes, spe_bw)
            yield self.env.composite_timeout(startup, t)
            busy = nbytes / spe_bw + chunks * self.calib.spe_per_chunk_overhead_s
            self._record_busy(busy)
            return OffloadResult(nbytes, self.env.now - t0, chunks, "analytic", busy)
        if startup > 0:
            yield self.env.pooled_timeout(startup)
        # Event path: the framework's input-initialization copy runs on
        # the PPE before the map phase touches the SPEs.
        yield from self.cell.ppe.copy(nbytes)
        sched = chunks * self.calib.cell_mr_per_chunk_overhead_s
        if sched > 0:
            yield from self.cell.ppe.compute(sched)
        yield from self._event_offload(nbytes, chunks, spe_bw)
        busy = nbytes / spe_bw + chunks * self.calib.spe_per_chunk_overhead_s
        return OffloadResult(nbytes, self.env.now - t0, chunks, "event", busy)
