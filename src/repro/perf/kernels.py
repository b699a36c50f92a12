"""Analytic kernel timing models.

Two families cover both workloads:

- :class:`RatePerfModel` — time for *bytes* processed at a plateau
  bandwidth after a one-time startup (AES and other streaming kernels).
- :class:`SamplesPerfModel` — time for *samples* computed at a plateau
  rate after a one-time startup (Monte-Carlo Pi).

These models give the single-node "raw" curves (Figs. 2 and 6). Inside
the cluster simulation, the Cell backends are additionally represented by
the event-accurate :mod:`repro.cell` runtimes; the analytic plateau is
the closed form of that runtime's steady state, and a property test pins
the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.calibration import Backend, CalibrationProfile

__all__ = ["KernelPerfModel", "RatePerfModel", "SamplesPerfModel", "make_aes_model", "make_pi_model"]


class KernelPerfModel:
    """Base class: maps a work amount to a duration in seconds."""

    def time_for(self, work: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def effective_rate(self, work: float) -> float:
        """Work units per second including startup amortization."""
        t = self.time_for(work)
        if t <= 0:
            return float("inf")
        return work / t


@dataclass(frozen=True)
class RatePerfModel(KernelPerfModel):
    """``time = startup + bytes / bandwidth`` streaming model.

    ``bandwidth`` of ``inf`` models the EmptyMapper (zero compute).
    """

    bandwidth_bps: float
    startup_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.startup_s < 0:
            raise ValueError("startup must be non-negative")

    def time_for(self, work: float) -> float:
        if work < 0:
            raise ValueError("work must be non-negative")
        if work == 0:
            return 0.0
        return self.startup_s + work / self.bandwidth_bps


@dataclass(frozen=True)
class SamplesPerfModel(KernelPerfModel):
    """``time = startup + samples / rate`` compute model."""

    rate_per_s: float
    startup_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("rate must be positive")
        if self.startup_s < 0:
            raise ValueError("startup must be non-negative")

    def time_for(self, work: float) -> float:
        if work < 0:
            raise ValueError("work must be non-negative")
        if work == 0:
            return 0.0
        return self.startup_s + work / self.rate_per_s


def make_aes_model(calib: CalibrationProfile, backend: Backend) -> RatePerfModel:
    """AES timing model for ``backend`` under ``calib``."""
    return RatePerfModel(
        bandwidth_bps=calib.aes_backend_bw(backend),
        startup_s=calib.kernel_startup_s(backend, "aes"),
    )


def make_pi_model(calib: CalibrationProfile, backend: Backend) -> SamplesPerfModel:
    """Monte-Carlo Pi timing model for ``backend`` under ``calib``."""
    return SamplesPerfModel(
        rate_per_s=calib.pi_backend_rate(backend),
        startup_s=calib.kernel_startup_s(backend, "pi"),
    )
