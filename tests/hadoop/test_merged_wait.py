"""The merged rest-and-park wait moves no simulated decision.

After a heartbeat reply, a tracker whose next round would be elided
anyway schedules one timer at the time its park would end, instead of a
rest that ends in a park. A poke inside the rest that makes the round
un-elidable turns the wait back into a plain rest. These tests run the
same workloads with the merge and with the tracker forced onto the plain
rest-then-park path (``_rest_until`` replaced by ``_rest``), and require
identical job traces, decision counters (heartbeat parks included) and
sweep bytes, across seeds and through stragglers with speculation, a
revocation storm, a preempting SLA mix and a preempting speculative mix
under churn.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runctx
from repro.core.simexec import SimulatedCluster, run_pi_job
from repro.experiments import run_sweep
from repro.hadoop import ChurnPlan, JobConf
from repro.hadoop.faults import FaultPlan, apply_churn, kill_node_at
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.tasktracker import TaskTracker
from repro.perf.calibration import Backend


@contextmanager
def _observed(merged):
    """Run a block with the merged wait on or off; yields the list of
    JobTrackers built inside it."""
    jobtrackers = []
    init = JobTracker.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        jobtrackers.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(JobTracker, "__init__", tracking_init)
        if not merged:
            mp.setattr(TaskTracker, "_rest_until", TaskTracker._rest)
        yield jobtrackers


def _job_trace(jt):
    """Every job's timeline and every task's attempts, placement and
    times, in job-id order."""
    return [
        (
            job.conf.name, job.state.name, job.submit_time, job.launch_time,
            job.maps_done_time, job.finish_time, sorted(job.counters.items()),
            [(t.kind.value, t.task_id, t.attempts, t.state, t.tracker,
              t.start_time, t.end_time) for t in job.all_tasks],
        )
        for _job_id, job in sorted(jt._jobs.items())
    ]


def _fingerprint(jobtrackers):
    return [(_job_trace(jt), jt.decision_counters(), jt.env.now)
            for jt in jobtrackers]


def _events(jobtrackers):
    return sum(jt.env.processed_events for jt in jobtrackers)


def _both_ways(run):
    """``(merged, plain)`` as ``(result, fingerprint, events)`` each,
    under the event-thin protocol (the only one that parks)."""
    ctx = replace(runctx.current(), model_reference=False)
    out = []
    for merged in (True, False):
        with runctx.using(ctx), _observed(merged) as jobtrackers:
            result = run()
        out.append((result, _fingerprint(jobtrackers), _events(jobtrackers)))
    return out


def _assert_same_decisions(run):
    """Events may go either way here: a merged wait that a poke turns
    back into a rest leaves its superseded timer on the heap."""
    (m_result, m_print, _), (p_result, p_print, _) = _both_ways(run)
    assert m_result == p_result
    assert m_print == p_print
    return m_print


def _sweep(name, overrides, seed):
    return lambda: run_sweep(name, overrides, seed=seed).canonical_json()


def _preempting_speculative_mix(seed):
    """fair_preempt kills and requeues maps while speculation duplicates
    them, and a straggler plus a revocation storm with replacement
    capacity add requeues and a join."""
    def run():
        sim = SimulatedCluster(4, seed=seed, slow_nodes={1: 6.0},
                               scheduler="fair_preempt")
        sim.start()
        apply_churn(sim.env, sim, ChurnPlan.spot_storm(
            [4], at_time=12.0, replace_after_s=8.0))
        confs = [
            JobConf(name=f"spec-{i}", workload="pi",
                    backend=Backend.CELL_SPE_DIRECT,
                    fallback_backend=Backend.JAVA_PPE, samples=4e10,
                    num_map_tasks=16, num_reduce_tasks=1, speculative=True)
            for i in range(3)
        ]
        results = sim.run_jobs(confs, arrivals=[0.0, 3.0, 6.0])
        return [(r.succeeded, r.makespan_s) for r in results]
    return run


_SEEDS = st.integers(min_value=0, max_value=2**16)


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_merged_wait_is_exact_with_stragglers_and_speculation(seed):
    _assert_same_decisions(_sweep("faults", {"slow_factor": [1, 8]}, seed))


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_merged_wait_is_exact_through_a_spot_storm(seed):
    _assert_same_decisions(_sweep("spot_storm", {"revoked": [2]}, seed))


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_merged_wait_is_exact_in_the_sla_mix(seed):
    _assert_same_decisions(_sweep("sla_mix", {"nodes": [2]}, seed))


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS)
def test_merged_wait_is_exact_in_a_preempting_speculative_mix(seed):
    prints = _assert_same_decisions(_preempting_speculative_mix(seed))
    counters = prints[0][1]
    assert counters["preemptions"] > 0 or counters["speculative_assignments"] > 0


@pytest.mark.parametrize("at_time,in_rest", [(21.0, True), (25.0, False)])
def test_tracker_killed_in_a_merged_wait(monkeypatch, at_time, in_rest):
    """Eight Java maps fill four trackers and leave no demand, so every
    tracker sits in merged waits; one is killed inside the rest (it
    must not park) or after it (it has parked)."""
    seen = []
    kill = TaskTracker.kill

    def recording_kill(self):
        seen.append((self._wait_kind, self.env.now < self._rest_end))
        kill(self)

    monkeypatch.setattr(TaskTracker, "kill", recording_kill)

    def run():
        sim = SimulatedCluster(4, seed=3)
        sim.start()
        victim = sim.trackers[1]
        kill_node_at(sim.env, victim, FaultPlan(
            node_id=victim.tracker_id, at_time=at_time, kill_datanode=False))
        result = sim.run_job(JobConf(
            name="pi", workload="pi", backend=Backend.JAVA_PPE,
            samples=1e10, num_map_tasks=8, num_reduce_tasks=1))
        return result.succeeded, result.makespan_s

    _assert_same_decisions(run)
    assert seen[0] == ("merged", in_rest)


def test_merged_wait_saves_events_on_a_java_fig8_point():
    """Java mappers hold their slots for the whole job, so nearly every
    exchange ends in a park: the merge drops about one event per park
    and moves nothing."""
    def run():
        result = run_pi_job(8, 1e11, Backend.JAVA_PPE, seed=1)
        return result.makespan_s
    (m_result, m_print, m_events), (p_result, p_print, p_events) = _both_ways(run)
    assert m_result == p_result
    assert m_print == p_print
    assert m_print[0][1]["heartbeat_parks"] > 0
    assert m_events < p_events
