"""PPE, SPE, and the Cell socket that binds them.

The compute elements are deliberately thin: an SPE is a serialized
execution slot plus a local store; a PPE is a serialized slot with a
memcpy channel. All offload *policy* (chunking, double buffering,
MapReduce-on-Cell semantics) lives in :mod:`repro.cell.runtime`.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Generator

from repro.sim.engine import Environment
from repro.sim.pipes import Pipe
from repro.sim.resources import Resource

from repro.cell.dma import DMAEngine
from repro.cell.localstore import LocalStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.calibration import CalibrationProfile

__all__ = ["SPE", "PPE", "CellProcessor"]


class SPE:
    """One Synergistic Processing Element.

    Owns its 256 KB local store; shares the socket's DMA engine. Compute
    is expressed as timed occupancy of the execution slot.
    """

    def __init__(self, env: Environment, spe_id: int, dma: DMAEngine, calib: "CalibrationProfile"):
        self.env = env
        self.spe_id = spe_id
        self.dma = dma
        self.calib = calib
        self.local_store = LocalStore(size_bytes=calib.local_store_bytes)
        self._slot = Resource(env, capacity=1)
        self.busy_s = 0.0

    def compute(self, seconds: float) -> Generator:
        """Process: occupy the SPE for ``seconds`` of kernel time."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        slot = self._slot
        claim = slot.try_claim()  # idle slot: skip the grant event
        req = None
        try:
            if claim is None:
                req = slot.request()
                yield req
            yield self.env.pooled_timeout(seconds)
        finally:
            if claim is not None:
                slot.release_claim(claim)
            elif req is not None:
                slot.release(req)
        self.busy_s += seconds

    @property
    def busy(self) -> bool:
        return self._slot.count > 0


class PPE:
    """The Power Processing Element: a general-purpose core.

    Runs the "Java" kernels and the framework-side copies of the
    MapReduce-for-Cell runtime.
    """

    def __init__(self, env: Environment, calib: "CalibrationProfile"):
        self.env = env
        self.calib = calib
        self._slot = Resource(env, capacity=1)
        # Software memcpy through the PPE cache hierarchy.
        self.memcpy = Pipe(env, calib.ppe_memcpy_bw, name="ppe/memcpy")
        self.busy_s = 0.0

    def compute(self, seconds: float) -> Generator:
        """Process: occupy the PPE for ``seconds``."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        slot = self._slot
        claim = slot.try_claim()
        req = None
        try:
            if claim is None:
                req = slot.request()
                yield req
            yield self.env.pooled_timeout(seconds)
        finally:
            if claim is not None:
                slot.release_claim(claim)
            elif req is not None:
                slot.release(req)
        self.busy_s += seconds

    def copy(self, nbytes: float) -> Generator:
        """Process: PPE-side buffer copy of ``nbytes``."""
        slot = self._slot
        claim = slot.try_claim()
        req = None
        try:
            if claim is None:
                req = slot.request()
                yield req
            yield from self.memcpy.transfer(nbytes)
        finally:
            if claim is not None:
                slot.release_claim(claim)
            elif req is not None:
                slot.release(req)
        self.busy_s += nbytes / self.calib.ppe_memcpy_bw


class CellProcessor:
    """One Cell BE socket: 1 PPE + 8 SPEs + shared DMA engine.

    The hardware is built on first use by an event path (a simulated
    DMA transfer or SPE occupancy): a socket that only hosts Java
    mappers, or only analytic offloads, allocates no PPE, DMA engine or
    SPE. Construction has no simulation side effects, so building late
    changes no event.
    """

    def __init__(self, env: Environment, socket_id: int, calib: "CalibrationProfile"):
        self.env = env
        self.socket_id = socket_id
        self.calib = calib
        #: Busy seconds each SPE has accumulated while still unbuilt:
        #: analytic offloads add the same share to every SPE, so one
        #: float stands for all of them until they exist.
        self._unbuilt_spe_busy_s = 0.0

    @cached_property
    def dma(self) -> DMAEngine:
        return DMAEngine(self.env, self.calib)

    @cached_property
    def ppe(self) -> PPE:
        return PPE(self.env, self.calib)

    @cached_property
    def spes(self) -> list[SPE]:
        spes = [SPE(self.env, i, self.dma, self.calib) for i in range(self.spe_count)]
        for spe in spes:
            spe.busy_s = self._unbuilt_spe_busy_s
        return spes

    @property
    def spes_built(self) -> bool:
        """True once an event path has built the SPEs."""
        return "spes" in self.__dict__

    @property
    def spe_count(self) -> int:
        return self.calib.spes_per_cell

    def add_spe_busy(self, share: float) -> None:
        """Add ``share`` busy seconds to every SPE, building none."""
        if self.spes_built:
            for spe in self.spes:
                spe.busy_s += share
        else:
            self._unbuilt_spe_busy_s += share

    def total_spe_busy_s(self) -> float:
        """Aggregate SPE kernel-active seconds (energy accounting)."""
        if self.spes_built:
            return sum(s.busy_s for s in self.spes)
        return sum([self._unbuilt_spe_busy_s] * self.spe_count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CellProcessor #{self.socket_id} spes={self.spe_count}>"
