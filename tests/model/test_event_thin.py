"""Model-layer tests: event-thin protocol invariants and parity.

The event-thin cluster protocol (``repro.runctx``) intentionally
changes the simulated timeline — work-less heartbeats are elided, parked
trackers wake on demand, the Monte-Carlo offload collapses into one
composite event — so its contract is pinned from four directions:

1. **Parity** — reference model mode (``REPRO_MODEL_REFERENCE``)
   reproduces the pre-overhaul golden series byte for byte (frozen under
   ``tests/model/data/`` when the goldens were re-frozen for the thin
   protocol).
2. **Event-count regression** — events-per-job must stay at least 2x
   below the reference protocol at fixed node counts, and must not creep
   back up with cluster size (the "heartbeats scale with idle nodes"
   failure mode this overhaul removed).
3. **No starvation** (hypothesis) — elision never strands work: every
   random workload completes under the thin protocol, in about the time
   the reference protocol takes.
4. **Fault detection** — a killed tracker is still declared lost within
   ``heartbeat_timeout_s`` (plus monitor granularity) of its death, even
   though live trackers now heartbeat as rarely as every
   ``keepalive`` period.
"""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runctx
from repro.core.simexec import SimulatedCluster, run_pi_job, run_workload_mix
from repro.experiments import run_sweep
from repro.hadoop import JobConf
from repro.hadoop.tasktracker import KEEPALIVE_FACTOR
from repro.perf import Backend, PAPER_CALIBRATION

CAL = PAPER_CALIBRATION
DATA_DIR = Path(__file__).parent / "data"

#: Reduced grids matching the golden suite at the time the reference
#: fixtures were frozen (pre-overhaul tests/golden/data bytes).
PARITY_CASES = {
    "fig8": {"nodes": [2, 4], "samples": 1e9},
    "multijob": {"num_jobs": [2, 4], "nodes": 2},
    "sched_compare": {"nodes": [2, 4]},
    "fig7": {"nodes": 4, "samples": [1e4, 1e8]},
    # Elastic-membership families (frozen under the reference model when
    # they were introduced): churn and preemption decisions must stay
    # byte-stable under the fixed-interval protocol too.
    "elastic": {"nodes": [2, 4]},
    "spot_storm": {"revoked": [0, 2]},
    "sla_mix": {"nodes": [2, 4]},
}


def _model_mode(reference: bool):
    return runctx.using(replace(runctx.current(), model_reference=reference))


@pytest.fixture
def reference_model():
    with _model_mode(True):
        yield


def _run_modes(fn, *args, **kwargs):
    """Run a job builder under (reference, thin) model modes."""
    out = []
    for reference in (True, False):
        with _model_mode(reference):
            out.append(fn(*args, **kwargs))
    return out


# --------------------------------------------------------------------------- #
# 1. Reference-model parity                                                    #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("fig", sorted(PARITY_CASES))
def test_reference_model_reproduces_pre_overhaul_goldens(fig, reference_model):
    """`REPRO_MODEL_REFERENCE=1` must land on the exact bytes the golden
    suite froze *before* the event-thin overhaul."""
    result = run_sweep(fig, PARITY_CASES[fig], workers=1)
    golden = (DATA_DIR / f"{fig}.reference-model.golden.json").read_text()
    assert result.pretty_json() == golden, (
        f"{fig}: the reference model protocol drifted from its frozen "
        f"pre-overhaul bytes — the parity flag no longer reproduces the "
        f"old timeline"
    )


def test_modes_sampled_at_cluster_construction(reference_model):
    """Like the engine flag, the model flag binds at construction: a
    cluster built under reference mode keeps the fixed-interval protocol
    — heartbeats *and* kernels, which sample the mode per task attempt
    through the TaskContext — even if the default flips mid-run."""
    sim = SimulatedCluster(2, seed=1)
    assert sim.jobtracker.event_thin is False
    with _model_mode(False):
        assert sim.jobtracker.event_thin is False  # unchanged
        assert SimulatedCluster(2, seed=1).jobtracker.event_thin is True

        # The whole timeline must stay pure reference protocol: running
        # the reference-built cluster *after* the flip lands on the same
        # bytes as a run performed entirely under reference mode.
        conf = JobConf(name="bind", workload="pi",
                       backend=Backend.CELL_SPE_DIRECT, samples=1e9,
                       num_map_tasks=4, num_reduce_tasks=1)
        mixed_ms = sim.run_job(conf).makespan_s
    pure_ms = SimulatedCluster(2, seed=1).run_job(conf).makespan_s
    assert mixed_ms == pure_ms


# --------------------------------------------------------------------------- #
# 2. Event-count regression                                                    #
# --------------------------------------------------------------------------- #


def _pi_events(nodes: int, samples: float) -> tuple[int, float]:
    result, sim = run_pi_job(
        nodes, samples, Backend.CELL_SPE_DIRECT, return_cluster=True
    )
    assert result.succeeded
    return sim.env.processed_events, result.makespan_s


def test_events_per_job_halved_at_64_nodes():
    """The PR-4 acceptance floor: events per job at 64 nodes drops >= 2x
    vs the reference protocol (measured, not assumed)."""
    (ref_events, _), (thin_events, _) = _run_modes(_pi_events, 64, 1e10)
    assert thin_events * 2 <= ref_events, (
        f"event-thin protocol only reduced events x{ref_events / thin_events:.2f}"
    )


def test_events_per_task_does_not_grow_with_cluster_size():
    """Under the thin protocol, per-task event cost must stay flat as
    idle/busy heartbeat traffic scales out — the whole point of demand-
    driven wakeups. (Reference-protocol cost grows with node count.)"""
    per_task = {}
    for nodes in (16, 64):
        events, _ = _pi_events(nodes, 1e10)
        per_task[nodes] = events / (nodes * CAL.mappers_per_node)
    assert per_task[64] <= per_task[16] * 1.25, per_task


def test_makespan_drift_is_bounded():
    """The thin protocol trades exact JobTracker queue timing for event
    count; the drift it may introduce is small and bounded."""
    for nodes, samples in ((4, 1e9), (16, 1e10), (64, 1e10)):
        (_, ref_ms), (_, thin_ms) = _run_modes(_pi_events, nodes, samples)
        assert abs(thin_ms - ref_ms) / ref_ms < 0.15, (nodes, ref_ms, thin_ms)


def test_decision_counters_surface_assignments():
    """The mechanism counters the CLI/report surface add up: one
    assignment per map+reduce task when nothing fails or speculates."""
    mix, sim = run_workload_mix(4, num_jobs=2, scheduler="fair",
                                data_gb=0.5, samples=5e8, return_cluster=True)
    assert mix.succeeded
    counters = mix.decision_counters
    tasks = sum(r.num_maps + r.num_reduces for r in mix.results)
    assert counters["assignments"] == tasks
    assert counters["speculative_assignments"] == 0
    assert counters["kills_issued"] == 0
    assert counters["heartbeats"] >= 1
    assert mix.scheduler == "fair"
    assert counters == sim.jobtracker.decision_counters()


# --------------------------------------------------------------------------- #
# 3. No starvation (hypothesis)                                                #
# --------------------------------------------------------------------------- #


@given(
    policy=st.sampled_from(["fifo", "fair", "locality", "accel"]),
    nodes=st.integers(min_value=1, max_value=4),
    num_jobs=st.integers(min_value=1, max_value=3),
    stagger=st.sampled_from([0.0, 5.0, 20.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=12, deadline=None)
def test_elision_never_starves_work(policy, nodes, num_jobs, stagger, seed):
    """Event-thin heartbeats never strand a tracker with free slots
    while work is pending: every workload completes, no slower than the
    fixed-interval protocol plus one heartbeat round of wakeup slack per
    job wave (in practice the thin timeline is within a few percent)."""
    def _mix():
        mix = run_workload_mix(
            nodes, num_jobs=num_jobs, scheduler=policy, stagger_s=stagger,
            data_gb=0.25, samples=5e8, accelerated_fraction=0.5, seed=seed,
        )
        assert mix.succeeded
        return mix.makespan_s

    ref_ms, thin_ms = _run_modes(_mix)
    slack = 2 * CAL.heartbeat_interval_s * num_jobs
    assert thin_ms <= ref_ms * 1.10 + slack, (ref_ms, thin_ms)


@given(samples=st.sampled_from([2e9, 4e9, 8e9]),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=8, deadline=None)
def test_speculation_still_fires_under_elision(samples, seed):
    """A straggler's duplicate needs a heartbeat from *another* tracker
    with a free slot while the straggler still runs; elision must keep
    those heartbeats flowing (speculative jobs count as demand). Sizes
    start at 2e9 samples so the straggler outlives the 1.5x-mean
    detection criterion under either protocol."""
    sim = SimulatedCluster(4, seed=seed, slow_nodes={1: 8.0})
    result = sim.run_job(JobConf(
        name="spec", workload="pi", backend=Backend.CELL_SPE_DIRECT,
        samples=samples, num_map_tasks=8, num_reduce_tasks=1,
        speculative=True,
    ))
    assert result.succeeded
    assert result.counters.get("speculative_attempts", 0) >= 1
    assert sim.jobtracker.decision_counters()["speculative_assignments"] >= 1


# --------------------------------------------------------------------------- #
# 4. Fault detection under keepalive heartbeats                                #
# --------------------------------------------------------------------------- #


def _lost_time(sim) -> float:
    records = [r for r in sim.cluster.tracer.records if r.event == "tracker_lost"]
    assert records, "tracker loss never declared"
    return records[0].time


@given(kill_at=st.floats(min_value=1.0, max_value=40.0),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=10, deadline=None)
def test_fault_detection_within_timeout(kill_at, seed):
    """Keepalive reporting must not blunt the failure detector: a tracker
    killed at any point — parked or mid-protocol — is declared lost no
    later than ``heartbeat_timeout_s`` after its last sign of life plus
    one monitor wakeup of slack."""
    sim = SimulatedCluster(3, seed=seed, trace=True)
    conf = JobConf(name="victim", workload="pi",
                   backend=Backend.CELL_SPE_DIRECT, samples=4e10,
                   num_map_tasks=6, num_reduce_tasks=1)
    sim.start()
    job = sim.jobtracker.submit_job(conf)

    def _killer():
        yield sim.env.timeout(kill_at)
        sim.decommission(2, kill_datanode=False)

    sim.env.process(_killer())
    result = sim.env.run(job.completion)
    assert result.succeeded  # recovery actually happened
    bound = kill_at + CAL.heartbeat_timeout_s + 2 * CAL.heartbeat_interval_s
    # A late kill can leave the job finishing before the detection
    # deadline; the declaration contract is about the monitor, not the
    # job, so give the monitor its full window before asserting.
    if sim.env.now < bound:
        sim.env.run(until=bound)
    lost = _lost_time(sim)
    assert lost <= bound, (kill_at, lost, bound)
    # ...and not spuriously early either: silence shorter than the
    # timeout must never trigger a declaration.
    assert lost >= kill_at + CAL.heartbeat_timeout_s - CAL.heartbeat_timeout_s * KEEPALIVE_FACTOR


def test_live_parked_trackers_are_never_declared_dead():
    """A fully-parked cluster (long tasks, every slot busy) keeps its
    keepalive cadence under the failure timeout — nobody is falsely
    declared lost during a 10-minute task wave."""
    sim = SimulatedCluster(4, seed=3, trace=True)
    result = sim.run_job(JobConf(
        name="long", workload="pi", backend=Backend.JAVA_PPE,
        samples=2e10, num_map_tasks=8, num_reduce_tasks=0,
    ))
    assert result.succeeded
    assert not [r for r in sim.cluster.tracer.records if r.event == "tracker_lost"]
    assert len(sim.jobtracker.live_trackers) == 4
