"""Tests for calibration constants, kernel models, and the energy model."""

import pytest

from repro.perf import (
    Backend,
    EnergyModel,
    PAPER_CALIBRATION,
    PowerSpec,
    RatePerfModel,
    SamplesPerfModel,
)
from repro.perf.calibration import MB
from repro.perf.kernels import make_aes_model, make_pi_model

CAL = PAPER_CALIBRATION


# --------------------------------------------------------------------------- #
# Calibration anchors from the paper's text                                     #
# --------------------------------------------------------------------------- #
def test_paper_anchor_rates():
    assert CAL.aes_cell_direct_bw == 700 * MB       # "near 700MB/s"
    assert CAL.aes_power6_bw == 45 * MB             # "around 45MB/s"
    assert CAL.hdfs_block_bytes == 64 * MB          # "64MB blocks"
    assert CAL.hdfs_replication == 1                # "replication level of 1"
    assert CAL.mappers_per_node == 2                # "two Mappers ... in parallel"
    assert CAL.cell_chunk_bytes == 4 * 1024         # "4KB data blocks"
    assert CAL.spes_per_cell == 8
    assert CAL.local_store_bytes == 256 * 1024
    assert CAL.dma_max_inflight == 16
    assert CAL.dma_max_request_bytes == 16 * 1024


def test_fig2_rate_ordering():
    assert (
        CAL.aes_cell_direct_bw
        > CAL.aes_cell_mr_bw
        > CAL.aes_power6_bw
        > CAL.aes_ppe_bw
    )


def test_fig6_rate_ordering():
    assert CAL.pi_cell_rate > CAL.pi_power6_rate > CAL.pi_ppe_rate
    assert CAL.pi_cell_rate / CAL.pi_power6_rate >= 10  # "one order of magnitude"


def test_recordreader_is_the_slowest_stage():
    """The paper's headline: the delivery path sits below the kernels."""
    assert CAL.recordreader_stream_bw < CAL.aes_ppe_bw
    assert CAL.recordreader_stream_bw < CAL.loopback_bw
    assert CAL.recordreader_stream_bw < CAL.disk_bw


def test_evolve_is_non_destructive():
    v = CAL.evolve(recordreader_stream_bw=999.0)
    assert v.recordreader_stream_bw == 999.0
    assert CAL.recordreader_stream_bw != 999.0


def test_kernel_startup_lookup():
    assert CAL.kernel_startup_s(Backend.CELL_SPE_DIRECT, "pi") == CAL.pi_spu_init_s
    assert CAL.kernel_startup_s(Backend.EMPTY, "aes") == 0.0
    assert CAL.kernel_startup_s(Backend.JAVA_POWER6, "aes") > 0


# --------------------------------------------------------------------------- #
# Kernel models                                                                 #
# --------------------------------------------------------------------------- #
def test_rate_model_math():
    m = RatePerfModel(bandwidth_bps=100.0, startup_s=1.0)
    assert m.time_for(0) == 0
    assert m.time_for(100) == pytest.approx(2.0)
    assert m.effective_rate(100) == pytest.approx(50.0)


def test_samples_model_math():
    m = SamplesPerfModel(rate_per_s=10.0, startup_s=0.5)
    assert m.time_for(0) == 0
    assert m.time_for(10) == pytest.approx(1.5)


def test_model_validation():
    with pytest.raises(ValueError):
        RatePerfModel(bandwidth_bps=0)
    with pytest.raises(ValueError):
        RatePerfModel(bandwidth_bps=1, startup_s=-1)
    with pytest.raises(ValueError):
        SamplesPerfModel(rate_per_s=-5)
    for m in (RatePerfModel(bandwidth_bps=1), SamplesPerfModel(rate_per_s=1)):
        with pytest.raises(ValueError):
            m.time_for(-1)


def test_make_models_bind_calibration():
    aes = make_aes_model(CAL, Backend.JAVA_POWER6)
    assert aes.bandwidth_bps == CAL.aes_power6_bw
    pi = make_pi_model(CAL, Backend.CELL_SPE_DIRECT)
    assert pi.startup_s == CAL.pi_spu_init_s


def test_startup_amortization_shapes_fig2_ramp():
    """Effective rate grows with size toward the plateau."""
    m = make_aes_model(CAL, Backend.CELL_SPE_DIRECT)
    rates = [m.effective_rate(s * MB) for s in (1, 16, 256, 1024)]
    assert rates == sorted(rates)
    assert rates[-1] / CAL.aes_cell_direct_bw > 0.98


# --------------------------------------------------------------------------- #
# Energy model                                                                  #
# --------------------------------------------------------------------------- #
def test_power_spec_integrates_busy_idle():
    spec = PowerSpec(active_w=100, idle_w=20)
    assert spec.energy_j(busy_s=1, total_s=2) == pytest.approx(120)
    with pytest.raises(ValueError):
        spec.energy_j(busy_s=3, total_s=2)


def test_accelerated_node_saves_energy_when_makespan_equal():
    """Same makespan (data-bound job), far less busy time on the Cell:
    lower total energy — the paper's §V claim."""
    model = EnergyModel(CAL)
    makespan = 100.0
    java = model.node_energy(Backend.JAVA_PPE, kernel_busy_s=95.0, makespan_s=makespan)
    cell = model.node_energy(Backend.CELL_SPE_DIRECT, kernel_busy_s=2.2, makespan_s=makespan)
    assert cell.total_j < java.total_j


def test_job_energy_scales_with_nodes():
    model = EnergyModel(CAL)
    e1 = model.job_energy(Backend.JAVA_PPE, 10, 100, nodes=1)
    e4 = model.job_energy(Backend.JAVA_PPE, 10, 100, nodes=4)
    assert e4 == pytest.approx(4 * e1)
    with pytest.raises(ValueError):
        model.job_energy(Backend.JAVA_PPE, 10, 100, nodes=0)


def test_busy_time_clamped_to_makespan():
    model = EnergyModel(CAL)
    e = model.node_energy(Backend.JAVA_PPE, kernel_busy_s=200.0, makespan_s=100.0)
    assert e.compute_j == pytest.approx(CAL.power_ppe_only_active_w * 100.0)
