"""Bandwidth/latency-limited byte channels.

Every wire in the simulated system — GigE links, the loopback interface,
disk platters, the Cell element-interconnect bus — is a :class:`Pipe`: a
shared channel with a peak byte rate, a fixed per-transfer latency, and a
per-message overhead. Concurrent transfers share bandwidth via serialized
access (FIFO through an internal resource), which matches the store-and-
forward behaviour of the real interfaces at the granularity this
reproduction measures (whole records and blocks).

For fair-share semantics (many long flows progressing simultaneously),
:class:`SharedPipe` implements progressive max-min style sharing using
fixed-size quanta.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Pipe", "SharedPipe"]


class Pipe:
    """A serialized transfer channel.

    Parameters
    ----------
    env:
        Simulation environment.
    bandwidth_bps:
        Peak rate in **bytes per second**.
    latency_s:
        Fixed latency added to every transfer (propagation + setup).
    per_message_overhead_s:
        Extra fixed cost per transfer (protocol/software overhead).
    name:
        Optional identifier used in traces.
    """

    def __init__(
        self,
        env: "Environment",
        bandwidth_bps: float,
        latency_s: float = 0.0,
        per_message_overhead_s: float = 0.0,
        name: str = "pipe",
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if latency_s < 0 or per_message_overhead_s < 0:
            raise ValueError("latencies must be non-negative")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.per_message_overhead_s = float(per_message_overhead_s)
        self.name = name
        self._channel = Resource(env, capacity=1)
        self.bytes_transferred = 0.0
        self.transfer_count = 0

    def transfer_time(self, nbytes: float) -> float:
        """Pure service time for ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency_s + self.per_message_overhead_s + nbytes / self.bandwidth_bps

    def transfer(self, nbytes: float) -> Generator:
        """Process: move ``nbytes`` through the pipe, queueing if busy.

        The idle-channel case — the overwhelmingly common one at the
        block/record granularity this model runs at — is collapsed into
        a single pooled timeout: a synchronous claim replaces the
        request-grant event and the timeout object is recycled.
        """
        channel = self._channel
        claim = channel.try_claim()
        req = None
        try:
            if claim is None:
                req = channel.request()
                yield req
            yield self.env.pooled_timeout(self.transfer_time(nbytes))
        finally:
            if claim is not None:
                channel.release_claim(claim)
            elif req is not None:
                channel.release(req)
        self.bytes_transferred += nbytes
        self.transfer_count += 1
        return nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Pipe {self.name!r} {self.bandwidth_bps / 1e6:.1f} MB/s>"


class SharedPipe:
    """A channel where concurrent flows share bandwidth fairly.

    Transfers are split into ``quantum_bytes`` slices which interleave
    FIFO through the channel; with *k* concurrent flows each observes
    roughly ``bandwidth / k``. Quantum size trades fidelity against event
    count (a 120 GB dataset with a 64 KB quantum would be millions of
    events, so cluster models use multi-megabyte quanta).
    """

    def __init__(
        self,
        env: "Environment",
        bandwidth_bps: float,
        latency_s: float = 0.0,
        quantum_bytes: float = 4 * 1024 * 1024,
        name: str = "shared-pipe",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if quantum_bytes <= 0:
            raise ValueError("quantum must be positive")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.quantum_bytes = float(quantum_bytes)
        self.name = name
        self._channel = Resource(env, capacity=1)
        self.bytes_transferred = 0.0
        self.transfer_count = 0
        self.active_flows = 0

    def transfer(self, nbytes: float) -> Generator:
        """Process: move ``nbytes`` in interleaved quanta."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.active_flows += 1
        try:
            if self.latency_s:
                yield self.env.pooled_timeout(self.latency_s)
            remaining = nbytes
            channel = self._channel
            while remaining > 0:
                slice_bytes = min(self.quantum_bytes, remaining)
                claim = channel.try_claim()
                req = None
                try:
                    if claim is None:
                        req = channel.request()
                        yield req
                    yield self.env.pooled_timeout(slice_bytes / self.bandwidth_bps)
                finally:
                    if claim is not None:
                        channel.release_claim(claim)
                    elif req is not None:
                        channel.release(req)
                remaining -= slice_bytes
        finally:
            self.active_flows -= 1
        self.bytes_transferred += nbytes
        self.transfer_count += 1
        return nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SharedPipe {self.name!r} {self.bandwidth_bps / 1e6:.1f} MB/s flows={self.active_flows}>"
