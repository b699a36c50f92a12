"""Single-node raw kernel experiments (Figs. 2 and 6).

"In our first experiment ... we use one single Cell blade to evaluate
the raw potential of the Cell acceleration when the workload is no[t]
subject to the communication and synchronization requirements that are
present in distributed systems ... Notice that Hadoop is not involved in
this experiment" (§IV-A).

Cell configurations run through the simulated offload runtimes (a fresh
runtime per measurement, so SPE startup is included, exactly as each
benchmarked kernel invocation paid it); Java configurations use the
calibrated analytic models directly (a JVM loop has no interesting
internal structure to simulate).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.perf.calibration import Backend, CalibrationProfile, MB, PAPER_CALIBRATION
from repro.perf.kernels import make_aes_model, make_pi_model
from repro.cell.processor import CellProcessor
from repro.cell.runtime import CellMapReduceRuntime, DirectSPERuntime
from repro.sim.engine import Environment
from repro.analysis.series import Series

__all__ = ["raw_encryption_bandwidth", "raw_pi_rates", "FIG2_CONFIGS", "FIG6_CONFIGS"]

FIG2_CONFIGS: tuple[Backend, ...] = (
    Backend.CELL_SPE_DIRECT,
    Backend.CELL_SPE_MAPREDUCE,
    Backend.JAVA_PPE,
    Backend.JAVA_POWER6,
)
"""Fig. 2's four curves: "Cell BE", "MapReduce Cell", "PPC", "Power 6"."""

FIG6_CONFIGS: tuple[Backend, ...] = (
    Backend.CELL_SPE_DIRECT,
    Backend.JAVA_PPE,
    Backend.JAVA_POWER6,
)
"""Fig. 6's three curves: "Cell BE", "PPC", "Power 6"."""

_LABELS = {
    Backend.CELL_SPE_DIRECT: "Cell BE",
    Backend.CELL_SPE_MAPREDUCE: "MapReduce Cell",
    Backend.JAVA_PPE: "PPC",
    Backend.JAVA_POWER6: "Power 6",
}


def _cell_offload_time(
    backend: Backend, nbytes: float, calib: CalibrationProfile
) -> float:
    """Simulate one fresh-runtime offload of ``nbytes``; returns seconds."""
    env = Environment()
    cell = CellProcessor(env, 0, calib)
    cls = DirectSPERuntime if backend is Backend.CELL_SPE_DIRECT else CellMapReduceRuntime
    runtime = cls(cell, calib, startup_s=calib.kernel_startup_s(backend, "aes"))
    spe_bw = calib.aes_spe_bw

    def run():
        result = yield from runtime.offload_bytes(nbytes, spe_bw)
        return result

    proc = env.process(run())
    result = env.run(proc)
    return result.elapsed_s


def raw_encryption_bandwidth(
    sizes_mb: Sequence[float] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    configs: Iterable[Backend] = FIG2_CONFIGS,
    calib: CalibrationProfile = PAPER_CALIBRATION,
) -> list[Series]:
    """Fig. 2: encryption bandwidth (MB/s) vs. working-set size (MB)."""
    out: list[Series] = []
    for backend in configs:
        xs = [float(size_mb) for size_mb in sizes_mb]
        byte_counts = [size_mb * MB for size_mb in sizes_mb]
        if backend in (Backend.CELL_SPE_DIRECT, Backend.CELL_SPE_MAPREDUCE):
            elapsed_per_size = [
                _cell_offload_time(backend, nbytes, calib) for nbytes in byte_counts
            ]
        else:
            model = make_aes_model(calib, backend)
            elapsed_per_size = [model.time_for(nbytes) for nbytes in byte_counts]
        ys = [
            nbytes / elapsed / MB
            for nbytes, elapsed in zip(byte_counts, elapsed_per_size)
        ]
        out.append(Series(label=_LABELS[backend], xs=xs, ys=ys, backend=backend))
    return out


def _cell_pi_time(samples: float, calib: CalibrationProfile) -> float:
    env = Environment()
    cell = CellProcessor(env, 0, calib)
    runtime = DirectSPERuntime(cell, calib, startup_s=calib.pi_spu_init_s)

    def run():
        result = yield from runtime.offload_samples(samples, calib.pi_cell_rate)
        return result

    proc = env.process(run())
    result = env.run(proc)
    return result.elapsed_s


def raw_pi_rates(
    sample_counts: Sequence[float] = (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9),
    configs: Iterable[Backend] = FIG6_CONFIGS,
    calib: CalibrationProfile = PAPER_CALIBRATION,
) -> list[Series]:
    """Fig. 6: Pi estimation rate (samples/s) vs. problem size (samples)."""
    out: list[Series] = []
    for backend in configs:
        xs = [float(samples) for samples in sample_counts]
        if backend is Backend.CELL_SPE_DIRECT:
            elapsed_per_count = [_cell_pi_time(s, calib) for s in sample_counts]
        else:
            model = make_pi_model(calib, backend)
            elapsed_per_count = [model.time_for(s) for s in sample_counts]
        ys = [s / elapsed for s, elapsed in zip(sample_counts, elapsed_per_count)]
        out.append(Series(label=_LABELS[backend], xs=xs, ys=ys, backend=backend))
    return out
