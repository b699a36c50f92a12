"""Tests for the job phase-breakdown analysis."""

from repro.perf import Backend, PAPER_CALIBRATION
from repro.perf.calibration import GB
from repro.core.simexec import SimulatedCluster
from repro.hadoop import JobConf
from repro.hadoop.metrics import analyze_job

CAL = PAPER_CALIBRATION


def run_encrypt(nodes=2, data=4 * GB, backend=Backend.JAVA_PPE):
    sim = SimulatedCluster(nodes)
    sim.ingest("/in", int(data))
    conf = JobConf(name="m", workload="aes", backend=backend,
                   input_path="/in", num_map_tasks=nodes * 2)
    return sim, sim.run_job(conf)


def run_pi(nodes=2, samples=1e8):
    sim = SimulatedCluster(nodes)
    conf = JobConf(name="p", workload="pi", backend=Backend.JAVA_PPE,
                   samples=samples, num_map_tasks=nodes * 2)
    return sim, sim.run_job(conf)


def test_data_intensive_job_is_delivery_dominated():
    """The paper's central claim, as a metric: for the encryption job,
    the delivery share of task time is dominant and the kernel share is
    small (Cell) or overlapped (Java)."""
    _sim, result = run_encrypt(backend=Backend.CELL_SPE_DIRECT)
    b = analyze_job(result, CAL)
    assert b.delivery_fraction > 0.8
    assert b.kernel_fraction < 0.1


def test_java_kernel_fraction_larger_but_overlapped():
    _sim, result = run_encrypt(backend=Backend.JAVA_PPE)
    b = analyze_job(result, CAL)
    # The PPE kernel runs at ~16 MB/s vs 10 MB/s delivery: busy a large
    # share of the pipeline, but still delivery-bound overall.
    assert 0.3 < b.kernel_fraction < 1.0
    assert b.delivery_fraction > 0.7


def test_cpu_intensive_job_is_kernel_dominated():
    _sim, result = run_pi(samples=2e9)
    b = analyze_job(result, CAL)
    assert b.kernel_fraction > 0.6
    assert b.delivery_s == 0.0


def test_breakdown_accounting_consistency():
    _sim, result = run_encrypt()
    b = analyze_job(result, CAL)
    assert b.records == result.total_records
    assert b.input_bytes == result.counters["map_input_bytes"]
    assert b.setup_wall_s > 0
    assert b.tail_wall_s > 0
    assert b.makespan_wall_s > b.setup_wall_s + b.tail_wall_s
    summary = b.summary()
    assert set(summary) >= {"makespan_s", "delivery_fraction", "kernel_fraction"}


def slot_utilization(result, total_slots):
    """Fraction of (slots x makespan) occupied by finished attempts."""
    busy = sum(t.duration for t in result.tasks if t.state == "done")
    return busy / (total_slots * result.makespan_s)


def test_slot_utilization_high_for_work_bound_job():
    sim, result = run_encrypt(nodes=2, data=8 * GB)
    util = slot_utilization(result, total_slots=4)
    assert util > 0.7


def test_slot_utilization_low_on_runtime_floor():
    _sim, result = run_pi(nodes=2, samples=1e6)  # trivial work
    util = slot_utilization(result, total_slots=4)
    assert util < 0.4

