"""Unit + property tests for the SPE offload runtimes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import Backend, PAPER_CALIBRATION
from repro.cell import (
    CellMapReduceRuntime,
    CellProcessor,
    DirectSPERuntime,
    LocalStoreOverflow,
    SIMDAlignmentError,
)
from repro.sim import Environment

CAL = PAPER_CALIBRATION
MB = 1024 * 1024


def make_runtime(cls=DirectSPERuntime, **kw):
    env = Environment()
    cell = CellProcessor(env, 0, CAL)
    return env, cell, cls(cell, CAL, **kw)


def offload(env, runtime, nbytes, spe_bw=None):
    spe_bw = spe_bw if spe_bw is not None else CAL.aes_spe_bw

    def run():
        result = yield from runtime.offload_bytes(nbytes, spe_bw)
        return result

    return env.run(env.process(run()))


# --------------------------------------------------------------------------- #
# Configuration validation                                                     #
# --------------------------------------------------------------------------- #
def test_paper_chunk_size_default():
    _env, _cell, rt = make_runtime()
    assert rt.chunk_bytes == 4 * 1024


def test_chunk_must_fit_double_buffers_in_local_store():
    # 4 buffers of chunk_bytes must fit in 256K - 48K reserve: 52K chunks fail.
    with pytest.raises(LocalStoreOverflow):
        make_runtime(chunk_bytes=64 * 1024)
    make_runtime(chunk_bytes=32 * 1024)  # 128K of buffers: fits


def test_chunk_must_be_vector_aligned():
    with pytest.raises(ValueError):
        make_runtime(chunk_bytes=1000)
    with pytest.raises(ValueError):
        make_runtime(chunk_bytes=0)


def test_probe_allocation_rolls_back():
    _env, cell, _rt = make_runtime()
    ls = cell.spes[0].local_store
    assert ls.used_bytes == pytest.approx(48 * 1024, abs=16)


def test_construction_builds_no_cell_hardware():
    _env, cell, _rt = make_runtime()
    assert not cell.spes_built
    assert "dma" not in cell.__dict__


def test_validation_probes_spe0_store_once_built():
    """With the SPEs built, the probe runs on SPE 0's real allocator, so
    space already claimed there counts."""
    env = Environment()
    cell = CellProcessor(env, 0, CAL)
    cell.spes[0].local_store.alloc("resident", 200 * 1024)
    with pytest.raises(LocalStoreOverflow):
        DirectSPERuntime(cell, CAL)


def test_late_spes_adopt_analytic_busy_bit_for_bit():
    """Analytic offloads on a socket whose SPEs are unbuilt account the
    same busy floats as on one whose SPEs exist, and SPEs built later
    start from them."""
    env = Environment()
    early, late = (CellProcessor(env, i, CAL) for i in range(2))
    early.spes  # built before any offload
    for cell in (early, late):
        rt = DirectSPERuntime(cell, CAL, analytic_samples=True)
        for samples in (1e9, 3.7e10, 2.2e8):
            env.process(rt.offload_samples(samples, CAL.pi_cell_rate))
    env.run()
    assert not late.spes_built
    assert late.total_spe_busy_s() == early.total_spe_busy_s() > 0.0
    assert [s.busy_s for s in late.spes] == [s.busy_s for s in early.spes]
    assert late.total_spe_busy_s() == early.total_spe_busy_s()


# --------------------------------------------------------------------------- #
# Timing                                                                        #
# --------------------------------------------------------------------------- #
def test_startup_charged_once():
    env, _cell, rt = make_runtime(startup_s=0.5)
    r1 = offload(env, rt, 4096)
    r2 = offload(env, rt, 4096)
    assert r1.elapsed_s > 0.5
    assert r2.elapsed_s < 0.5


def test_plateau_reaches_700mbps():
    env, _cell, rt = make_runtime()
    result = offload(env, rt, 256 * MB)
    bw = 256 * MB / result.elapsed_s
    assert bw == pytest.approx(CAL.aes_cell_direct_bw, rel=0.01)


def test_analytic_and_event_paths_agree():
    # Same 2 MB offload, one forced through each path.
    env_e, _c1, rt_event = make_runtime(event_chunk_limit=10**9)
    env_a, _c2, rt_analytic = make_runtime(event_chunk_limit=0)
    r_event = offload(env_e, rt_event, 2 * MB)
    r_analytic = offload(env_a, rt_analytic, 2 * MB)
    assert r_event.path == "event"
    assert r_analytic.path == "analytic"
    assert r_event.elapsed_s == pytest.approx(r_analytic.elapsed_s, rel=0.05)


@given(nbytes=st.integers(min_value=16, max_value=4 * MB).map(lambda v: v - v % 16))
@settings(max_examples=20, deadline=None)
def test_event_analytic_consistency_property(nbytes):
    """For any aligned size, the two timing paths agree within 6%."""
    env_e, _c1, rt_event = make_runtime(event_chunk_limit=10**9)
    env_a, _c2, rt_analytic = make_runtime(event_chunk_limit=0)
    r_event = offload(env_e, rt_event, nbytes)
    r_analytic = offload(env_a, rt_analytic, nbytes)
    assert r_event.elapsed_s == pytest.approx(r_analytic.elapsed_s, rel=0.06)


def test_eight_spes_faster_than_one():
    """Halving the socket to 1 SPE must slow the offload ~8x."""
    env8, _c, rt8 = make_runtime(event_chunk_limit=0)
    r8 = offload(env8, rt8, 64 * MB)
    one_spe = CAL.evolve(spes_per_cell=1)
    env1 = Environment()
    cell1 = CellProcessor(env1, 0, one_spe)
    rt1 = DirectSPERuntime(cell1, one_spe, event_chunk_limit=0)

    def run():
        result = yield from rt1.offload_bytes(64 * MB, CAL.aes_spe_bw)
        return result

    r1 = env1.run(env1.process(run()))
    assert r1.elapsed_s / r8.elapsed_s == pytest.approx(8.0, rel=0.05)


def test_spe_busy_accounted():
    env, cell, rt = make_runtime()
    offload(env, rt, 8 * MB)
    chunks = 8 * MB // CAL.cell_chunk_bytes
    expected = 8 * MB / CAL.aes_spe_bw + chunks * CAL.spe_per_chunk_overhead_s
    assert cell.total_spe_busy_s() == pytest.approx(expected, rel=0.01)


def test_zero_bytes_is_instant():
    env, _cell, rt = make_runtime()
    result = offload(env, rt, 0)
    assert result.elapsed_s == 0
    assert result.chunks == 0


def test_negative_bytes_rejected():
    env, _cell, rt = make_runtime()
    with pytest.raises(ValueError):
        offload(env, rt, -1)


# --------------------------------------------------------------------------- #
# MapReduce-for-Cell overhead                                                   #
# --------------------------------------------------------------------------- #
def test_mapreduce_cell_slower_than_direct():
    env_d, _c1, direct = make_runtime()
    env_m, _c2, mr = make_runtime(cls=CellMapReduceRuntime)
    rd = offload(env_d, direct, 64 * MB)
    rm = offload(env_m, mr, 64 * MB)
    assert rm.elapsed_s > rd.elapsed_s * 1.3


def test_mapreduce_cell_event_path_uses_ppe_copy():
    env, cell, mr = make_runtime(cls=CellMapReduceRuntime, event_chunk_limit=10**9)
    offload(env, mr, 1 * MB)
    # The framework copied the full input through the PPE.
    assert cell.ppe.busy_s >= 1 * MB / CAL.ppe_memcpy_bw


def test_mapreduce_cell_between_direct_and_java():
    """Fig. 2 ordering: direct > framework > Power6 plateau rates."""
    assert CAL.aes_cell_direct_bw > CAL.aes_cell_mr_bw > CAL.aes_power6_bw


# --------------------------------------------------------------------------- #
# Pi offload                                                                    #
# --------------------------------------------------------------------------- #
def test_pi_offload_rate_and_init():
    env, _cell, rt = make_runtime(startup_s=CAL.pi_spu_init_s)

    def run(n):
        result = yield from rt.offload_samples(n, CAL.pi_cell_rate)
        return result

    r = env.run(env.process(run(1e9)))
    expected = CAL.pi_spu_init_s + 1e9 / CAL.pi_cell_rate
    assert r.elapsed_s == pytest.approx(expected, rel=0.01)


def test_pi_small_problem_dominated_by_init():
    env, _cell, rt = make_runtime(startup_s=CAL.pi_spu_init_s)

    def run(n):
        result = yield from rt.offload_samples(n, CAL.pi_cell_rate)
        return result

    r = env.run(env.process(run(1e4)))
    assert r.elapsed_s > CAL.pi_spu_init_s
    rate = 1e4 / r.elapsed_s
    assert rate < CAL.pi_power6_rate  # below Power6: the Fig. 6 left side


def test_pi_zero_samples():
    env, _cell, rt = make_runtime()

    def run():
        result = yield from rt.offload_samples(0, CAL.pi_cell_rate)
        return result

    r = env.run(env.process(run()))
    assert r.bytes_processed == 0


# --------------------------------------------------------------------------- #
# Functional path                                                               #
# --------------------------------------------------------------------------- #
def test_execute_bytes_applies_kernel_per_chunk():
    _env, _cell, rt = make_runtime()
    data = np.arange(16 * 1024, dtype=np.uint8)
    out = rt.execute_bytes(data, lambda chunk: chunk ^ 0xFF)
    assert np.array_equal(out, data ^ 0xFF)


def test_execute_bytes_chunk_boundaries_respected():
    _env, _cell, rt = make_runtime(chunk_bytes=64)
    seen_sizes = []

    def kernel(chunk):
        seen_sizes.append(chunk.size)
        return chunk

    rt.execute_bytes(np.zeros(160, dtype=np.uint8), kernel)
    assert seen_sizes == [64, 64, 32]


def test_execute_bytes_rejects_unaligned_input():
    _env, _cell, rt = make_runtime()
    with pytest.raises(SIMDAlignmentError):
        rt.execute_bytes(np.zeros(17, dtype=np.uint8), lambda c: c)


def test_execute_bytes_empty():
    _env, _cell, rt = make_runtime()
    out = rt.execute_bytes(b"", lambda c: c)
    assert out.size == 0
