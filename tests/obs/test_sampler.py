"""Virtual-time sampling and post-run counter flushing on real jobs."""

from dataclasses import replace

import pytest

from repro import runctx
from repro.core import run_encryption_job, run_pi_job
from repro.perf import Backend
from repro.obs.metrics import MetricsRegistry
from repro.perf.calibration import MB


@pytest.fixture
def obs_registry():
    registry = MetricsRegistry()
    with runctx.using(replace(runctx.current(), metrics=registry)):
        yield registry


def test_pi_job_populates_vt_series_and_latency(obs_registry):
    result = run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, seed=1)
    assert result.succeeded
    snap = obs_registry.snapshot()

    util = snap["sim_vt_map_slot_utilization"]["values"][""]
    assert len(util) >= 2
    # samples are (virtual_time, fraction) with t strictly increasing
    times = [t for t, _ in util]
    assert times == sorted(times)
    assert all(0.0 <= v <= 1.0 for _, v in util)
    assert max(v for _, v in util) > 0.0  # the job actually ran maps

    assert "sim_vt_pending_tasks" in snap
    assert "sim_vt_heartbeat_parks" in snap

    lat = snap["sim_heartbeat_service_latency_seconds"]["values"][""]
    assert lat["count"] > 0
    assert lat["sum"] >= 0.0


def test_pi_job_flushes_model_counters(obs_registry):
    run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, seed=1)
    reg = obs_registry
    assert reg.get("sim_heartbeats_total").value() > 0
    assert reg.get("sim_assignments_total").value() > 0
    assert reg.get("sim_events_total").value() > 0
    # heartbeat batch histogram arrives as a size-labelled counter whose
    # total equals the batch count
    passes = reg.get("sim_heartbeat_batch_passes_total")
    total = sum(passes.snapshot()["values"].values())
    assert total == reg.get("sim_heartbeat_batches_total").value()


def test_encryption_job_flushes_hdfs_counters(obs_registry):
    result = run_encryption_job(2, 64 * MB, Backend.CELL_SPE_DIRECT, seed=1)
    assert result.succeeded
    reg = obs_registry
    assert reg.get("sim_hdfs_bytes_served_total").value() >= 64 * MB
    local = reg.get("sim_hdfs_reads_local_total")
    remote = reg.get("sim_hdfs_reads_remote_total")
    reads = (local.value() if local else 0) + (remote.value() if remote else 0)
    assert reads > 0


def test_repeated_flush_never_double_counts(obs_registry):
    """publish_metrics runs once per job; the high-water-mark delta flush
    must keep two identical jobs at exactly twice one job's totals."""
    run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, seed=1)
    one = obs_registry.get("sim_heartbeats_total").value()
    run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, seed=1)
    assert obs_registry.get("sim_heartbeats_total").value() == 2 * one


def test_sampler_does_not_change_job_outcome():
    baseline = run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, seed=1)
    with runctx.using(replace(runctx.current(), metrics=MetricsRegistry())):
        sampled = run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, seed=1)
    assert sampled.makespan_s == baseline.makespan_s
    assert sampled.summary() == baseline.summary()
