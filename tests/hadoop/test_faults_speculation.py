"""Fault-tolerance and speculative-execution tests.

"In order to provide the environment with fault tolerance capability,
during the process of a split the TaskTracker sends periodic heartbeats
to the JobTracker. This way, the JobTracker can detect a node failure
and reschedule the task to another TaskTracker" (§III-A).
"""

import pytest

from repro.perf import Backend, PAPER_CALIBRATION
from repro.perf.calibration import GB, MB
from repro.core.simexec import SimulatedCluster
from repro.hadoop import FaultPlan, JobConf, kill_node_at
from repro.hadoop.job import JobState

CAL = PAPER_CALIBRATION


def test_node_crash_with_replication_recovers():
    """Replication 2: a mid-job crash loses a tracker but not the data;
    the job finishes on the survivors."""
    sim = SimulatedCluster(3, trace=True)
    sim.client.ingest_file("/in", 2 * GB, replication=2)
    conf = JobConf(name="ft", workload="aes", backend=Backend.JAVA_PPE,
                   input_path="/in", num_map_tasks=6)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    victim = sim.trackers[0]
    kill_node_at(sim.env, victim, FaultPlan(node_id=victim.tracker_id, at_time=30.0),
                 namenode=sim.namenode)
    result = sim.env.run(job.completion)
    assert result.state is JobState.SUCCEEDED
    assert result.counters.get("rescheduled_tasks", 0) >= 1
    # No surviving task ran on the dead node.
    for t in result.tasks:
        assert t.tracker != victim.tracker_id


def test_node_crash_replication_1_fails_job():
    """The paper's replication=1 setting cannot survive DataNode loss:
    tasks needing the lost blocks exhaust their attempts and the job
    fails — the trade-off the paper accepted for the experiments."""
    sim = SimulatedCluster(2)
    sim.ingest("/in", 2 * GB)  # replication 1
    conf = JobConf(name="ft1", workload="aes", backend=Backend.JAVA_PPE,
                   input_path="/in", num_map_tasks=4, max_attempts=2)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    victim = sim.trackers[0]
    kill_node_at(sim.env, victim, FaultPlan(node_id=victim.tracker_id, at_time=20.0),
                 namenode=sim.namenode)
    result = sim.env.run(job.completion)
    assert result.state is JobState.FAILED


def test_crash_before_start_is_tolerated_with_surviving_data():
    """Pi has no input data: losing a node only costs its slots."""
    sim = SimulatedCluster(3)
    conf = JobConf(name="pi-ft", workload="pi", backend=Backend.JAVA_PPE,
                   samples=2e9, num_map_tasks=6)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    victim = sim.trackers[2]
    kill_node_at(sim.env, victim, FaultPlan(node_id=victim.tracker_id, at_time=1.0,
                                            kill_datanode=False))
    result = sim.env.run(job.completion)
    assert result.state is JobState.SUCCEEDED


def test_tracker_loss_detected_within_timeout():
    sim = SimulatedCluster(2, trace=True)
    conf = JobConf(name="pi", workload="pi", backend=Backend.JAVA_PPE,
                   samples=5e9, num_map_tasks=4)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    victim = sim.trackers[1]
    kill_node_at(sim.env, victim, FaultPlan(node_id=victim.tracker_id, at_time=10.0,
                                            kill_datanode=False))
    result = sim.env.run(job.completion)
    assert result.state is JobState.SUCCEEDED
    lost = [r for r in sim.cluster.tracer.select("jobtracker", "tracker_lost")]
    assert len(lost) == 1
    # Detection happened after the crash but within ~timeout + interval.
    assert 10.0 < lost[0].time <= 10.0 + CAL.heartbeat_timeout_s + 2 * CAL.heartbeat_interval_s


def test_completed_maps_rerun_when_reducer_needs_them():
    """Map outputs live on the mapper's local disk; losing that node
    after the map finished but before the shuffle forces a re-run."""
    sim = SimulatedCluster(3, trace=True)
    sim.client.ingest_file("/in", 1536 * MB, replication=2)
    conf = JobConf(name="sort", workload="sort", backend=Backend.JAVA_PPE,
                   input_path="/in", num_map_tasks=6, num_reduce_tasks=2)
    sim.start()
    job = sim.jobtracker.submit_job(conf)

    def kill_after_maps():
        # Wait until all maps are done, then kill a node holding outputs.
        while job.maps_done_time < 0:
            yield sim.env.timeout(1.0)
        victim = sim.trackers[0]
        victim.kill()
        sim.namenode.handle_datanode_failure(victim.tracker_id)

    sim.env.process(kill_after_maps())
    result = sim.env.run(job.completion)
    assert result.state is JobState.SUCCEEDED
    assert result.counters.get("rerun_completed_maps", 0) >= 1


def test_speculative_execution_duplicates_straggler():
    """With speculation on, a job over heterogeneous mappers spawns at
    least one duplicate attempt and still completes correctly."""
    # Heterogeneous cluster: half the nodes lack accelerators, so a
    # Cell-backed job's pending queue drains while PPE... instead, use
    # pi with many tasks and one slow tracker via fault-free approach:
    # speculation triggers when free slots exist and a straggler runs.
    sim = SimulatedCluster(3, trace=True)
    conf = JobConf(name="spec", workload="pi", backend=Backend.JAVA_PPE,
                   samples=6e9, num_map_tasks=5,  # odd count leaves a free slot
                   speculative=True)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    result = sim.env.run(job.completion)
    assert result.state is JobState.SUCCEEDED
    # All logical tasks completed exactly once in the bookkeeping.
    assert all(t.state == "done" for t in result.tasks)


def test_speculation_off_no_duplicates():
    sim = SimulatedCluster(3, trace=True)
    conf = JobConf(name="nospec", workload="pi", backend=Backend.JAVA_PPE,
                   samples=6e9, num_map_tasks=5, speculative=False)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    result = sim.env.run(job.completion)
    assert result.counters.get("speculative_attempts", 0) == 0
    assert result.state is JobState.SUCCEEDED


def test_speculation_kills_reach_trackers_after_demand_ends():
    """The last map's completion ends all demand and queues kills for
    the straggler's outrun attempts. A tracker with a queued kill still
    gets an ``assign`` exchange (only kill-free, demand-free exchanges
    take the empty fast path), so every kill is delivered."""
    sim = SimulatedCluster(3, seed=1, slow_nodes={1: 6.0})
    conf = JobConf(name="spec", workload="pi", backend=Backend.CELL_SPE_DIRECT,
                   samples=2e9, num_map_tasks=6, num_reduce_tasks=0,
                   speculative=True)
    sim.start()
    job = sim.jobtracker.submit_job(conf)
    assert sim.env.run(job.completion).succeeded
    sim.env.run(until=sim.env.now + 60.0)
    assert not sim.jobtracker.has_demand()
    assert sim.jobtracker.decision_counters()["kills_issued"] >= 1
    assert sim.jobtracker._kill_queue == {}
    assert all(not t._running for t in sim.trackers)
