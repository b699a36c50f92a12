"""The SPE DMA engine.

SPEs "access system memory via a DMA engine connected to a high bandwidth
bus, relying on software to explicitly initiate DMA requests ... up to 16
concurrent requests of up to 16K, and bandwidth between the DMA engine
and the bus is 8 bytes per cycle in each direction" (§II-B). The bus
interface "allows issuing asynchronous DMA transfer requests, and
provides synchronization calls to check or wait".

This module models exactly that: an engine per Cell socket with 16
request slots shared by its 8 SPEs, a shared element-interconnect-bus
channel at 8 B/cycle per direction, a hard 16 KB per-request cap, and an
async issue/wait API shaped like ``mfc_get``/``mfc_put`` + tag waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.sim.engine import Environment
from repro.sim.events import Event, Process
from repro.sim.pipes import Pipe
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.calibration import CalibrationProfile

__all__ = ["DMAEngine", "DMARequestError", "DMAStats", "chunk_time_estimate"]


class DMARequestError(ValueError):
    """Illegal DMA request (size/alignment violation)."""


@dataclass
class DMAStats:
    """Aggregate transfer statistics for one engine."""

    requests: int = 0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    wait_time_s: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.bytes_in + self.bytes_out


def chunk_time_estimate(calib: "CalibrationProfile", nbytes: int) -> float:
    """Uncontended time for an engine built from ``calib`` to move
    ``nbytes`` through one direction (no engine needed)."""
    full, rem = divmod(int(nbytes), calib.dma_max_request_bytes)
    nreq = full + (1 if rem else 0)
    return nreq * calib.dma_request_latency_s + nbytes / float(calib.dma_bus_bw)


class DMAEngine:
    """DMA engine for one Cell socket.

    Parameters
    ----------
    env: simulation environment.
    calib: calibration profile carrying the §II-B limits.
    """

    def __init__(self, env: Environment, calib: "CalibrationProfile"):
        self.env = env
        self.calib = calib
        self.max_request_bytes = calib.dma_max_request_bytes
        self.request_latency_s = calib.dma_request_latency_s
        self._slots = Resource(env, capacity=calib.dma_max_inflight)
        # One bus channel per direction, each 8 B/cycle (§II-B).
        bus_bw = calib.dma_bus_bw
        self._bus_in = Pipe(env, bus_bw, name="eib/in")
        self._bus_out = Pipe(env, bus_bw, name="eib/out")
        self.stats = DMAStats()

    # -- validation ----------------------------------------------------------
    def validate(self, nbytes: int, ls_offset: int = 0) -> None:
        """Enforce the §II-B request constraints.

        Real MFC requests must be 1/2/4/8/16 bytes or a multiple of 16,
        at most 16 KB, with matching 16-byte alignment for vector data.
        """
        if nbytes <= 0:
            raise DMARequestError(f"DMA size must be positive, got {nbytes}")
        if nbytes > self.max_request_bytes:
            raise DMARequestError(
                f"DMA request of {nbytes} bytes exceeds the {self.max_request_bytes} byte cap"
            )
        if nbytes >= 16 and nbytes % 16 != 0:
            raise DMARequestError(f"DMA size {nbytes} >= 16 must be a multiple of 16")
        if nbytes < 16 and nbytes not in (1, 2, 4, 8):
            raise DMARequestError(f"small DMA size must be 1/2/4/8 bytes, got {nbytes}")
        if ls_offset % 16 != 0:
            raise DMARequestError(f"local-store offset {ls_offset} not 16-byte aligned")

    # -- async API -------------------------------------------------------------
    def issue_get(self, nbytes: int, ls_offset: int = 0) -> Process:
        """Async transfer memory→local store; returns a joinable process."""
        self.validate(nbytes, ls_offset)
        return self.env.process(self._do_transfer(nbytes, inbound=True), name="dma-get")

    def issue_put(self, nbytes: int, ls_offset: int = 0) -> Process:
        """Async transfer local store→memory; returns a joinable process."""
        self.validate(nbytes, ls_offset)
        return self.env.process(self._do_transfer(nbytes, inbound=False), name="dma-put")

    def get(self, nbytes: int, ls_offset: int = 0) -> Generator:
        """Blocking get: validate + transfer inline.

        Equivalent timing to ``yield issue_get(...)`` without spawning a
        process per request (the dominant DMA pattern is synchronous
        ``mfc_get`` + immediate tag wait).
        """
        self.validate(nbytes, ls_offset)
        return (yield from self._do_transfer(nbytes, inbound=True))

    def put(self, nbytes: int, ls_offset: int = 0) -> Generator:
        """Blocking put: validate + transfer inline."""
        self.validate(nbytes, ls_offset)
        return (yield from self._do_transfer(nbytes, inbound=False))

    def transfer_chunk(self, nbytes: int, inbound: bool) -> Generator:
        """Move an arbitrary-size chunk as a sequence of ≤16 KB requests.

        This is the software-visible "DMA list" pattern SPE code uses for
        bulk data: the chunk is split into max-size requests issued
        back-to-back (each still consumes an engine slot).
        """
        remaining = int(nbytes)
        while remaining > 0:
            req = min(remaining, self.max_request_bytes)
            if req >= 16:
                req -= req % 16 or 0
                if req == 0:
                    req = remaining
            if inbound:
                yield from self.get(req)
            else:
                yield from self.put(req)
            remaining -= req

    # -- internals -------------------------------------------------------------
    def _do_transfer(self, nbytes: int, inbound: bool) -> Generator:
        t0 = self.env.now
        bus = self._bus_in if inbound else self._bus_out
        slots = self._slots
        # Free request slot (the common case: 16 slots, 8 SPEs): charge
        # issue latency + bus time without a grant event.
        claim = slots.try_claim()
        req = None
        try:
            if claim is None:
                req = slots.request()
                yield req
            yield self.env.pooled_timeout(self.request_latency_s)
            yield from bus.transfer(nbytes)
        finally:
            if claim is not None:
                slots.release_claim(claim)
            elif req is not None:
                slots.release(req)
        self.stats.requests += 1
        if inbound:
            self.stats.bytes_in += nbytes
        else:
            self.stats.bytes_out += nbytes
        self.stats.wait_time_s += self.env.now - t0
        return nbytes

    def chunk_time_estimate(self, nbytes: int) -> float:
        """Uncontended time to move ``nbytes`` through one direction."""
        return chunk_time_estimate(self.calib, nbytes)

    @property
    def inflight(self) -> int:
        """Number of requests currently holding engine slots."""
        return self._slots.count
