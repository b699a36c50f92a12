"""FIFO-extraction equivalence and JobTracker↔policy integration.

The strongest equivalence evidence lives in ``tests/golden``: the
refactored JobTracker + extracted FifoScheduler reproduce the frozen
pre-refactor series byte for byte, in both engine modes and at 1/2/4
sweep workers. These tests add the task-level view: identical
*assignment traces* across every way of selecting FIFO, plus the policy
plumbing (selection routes, validation, misbehaving policies).
"""

from dataclasses import replace

import pytest

from repro import runctx
from repro.core.simexec import SimulatedCluster
from repro.hadoop import JobConf
from repro.hadoop.job import TaskKind
from repro.perf import Backend
from repro.sched import FifoScheduler, Scheduler, SchedulerError, TaskChoice
from repro.sched.base import register_scheduler


def _pi_conf(**kw):
    return JobConf(name="equiv", workload="pi", backend=Backend.CELL_SPE_DIRECT,
                   samples=2e9, num_map_tasks=8, num_reduce_tasks=1, **kw)


def _assignment_trace(scheduler=None, reference=False, conf=None):
    """(time, job, kind, task, tracker) of every task_assigned event."""
    with runctx.using(replace(runctx.current(), engine_reference=reference)):
        sim = SimulatedCluster(4, seed=99, trace=True, scheduler=scheduler)
        result = sim.run_job(conf if conf is not None else _pi_conf())
        assert result.succeeded
        return [
            (r.time, r.attrs["job"], r.attrs["kind"], r.attrs["task"],
             r.attrs["tracker"])
            for r in sim.cluster.tracer.records
            if r.event == "task_assigned"
        ], result.makespan_s


def test_every_fifo_selection_route_is_trace_identical():
    baseline, makespan = _assignment_trace(scheduler=None)
    assert len(baseline) == 9  # 8 maps + 1 reduce
    for route in ("fifo", FifoScheduler, FifoScheduler()):
        trace, ms = _assignment_trace(scheduler=route)
        assert trace == baseline
        assert ms == makespan
    # JobConf-level request resolves to the same policy.
    trace, ms = _assignment_trace(conf=_pi_conf(scheduler="fifo"))
    assert trace == baseline and ms == makespan


def test_fast_and_reference_engines_assign_identically():
    fast, fast_ms = _assignment_trace(reference=False)
    ref, ref_ms = _assignment_trace(reference=True)
    assert fast == ref
    assert fast_ms == ref_ms


def test_speculative_golden_path_unchanged():
    """Speculation decisions (the subtlest extracted logic) survive the
    refactor: with a straggler node the FIFO policy still launches
    duplicates, and the job still finishes."""
    with runctx.using(replace(runctx.current(), engine_reference=False)):
        sim = SimulatedCluster(4, seed=7, slow_nodes={1: 8.0})
        result = sim.run_job(_pi_conf(speculative=True))
    assert result.succeeded
    assert result.counters.get("speculative_attempts", 0) >= 1


# -- policy plumbing ---------------------------------------------------------

def test_set_scheduler_rejected_after_submission():
    sim = SimulatedCluster(2, seed=1)
    sim.start()
    sim.jobtracker.submit_job(_pi_conf())
    with pytest.raises(RuntimeError, match="after jobs"):
        sim.jobtracker.set_scheduler("fair")


def test_jobconf_scheduler_conflicts_are_errors():
    sim = SimulatedCluster(2, seed=1, scheduler="fifo")
    with pytest.raises(ValueError, match="cluster runs"):
        sim.run_job(_pi_conf(scheduler="fair"))
    sim2 = SimulatedCluster(2, seed=1)
    with pytest.raises(ValueError, match="conflicting"):
        sim2.run_jobs([_pi_conf(scheduler="fair"), _pi_conf(scheduler="accel")])


def test_jobconf_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown scheduler"):
        _pi_conf(scheduler="wat")


def test_jobconf_scheduler_adopted_by_unconfigured_cluster():
    sim = SimulatedCluster(2, seed=1)
    sim.run_job(_pi_conf(scheduler="fair"))
    assert sim.jobtracker.scheduler.name == "fair"


@register_scheduler
class _DoubleAssignScheduler(Scheduler):
    """Deliberately broken: hands the same task out twice."""

    name = "_test_double_assign"

    def assign(self, view, hb):
        for job in view.jobs():
            if job.pending_maps and hb.free_map_slots >= 2:
                t = job.pending_maps[0]
                return [TaskChoice(job.job_id, TaskKind.MAP, t),
                        TaskChoice(job.job_id, TaskKind.MAP, t)]
        return []


@register_scheduler
class _OverAssignScheduler(Scheduler):
    """Deliberately broken: ignores the tracker's free-slot budget."""

    name = "_test_over_assign"

    def assign(self, view, hb):
        return [
            TaskChoice(job.job_id, TaskKind.MAP, t)
            for job in view.jobs()
            for t in job.pending_maps
        ]


@pytest.mark.parametrize("name,match", [
    ("_test_double_assign", "not pending"),
    ("_test_over_assign", "exceed"),
])
def test_misbehaving_policies_surface_scheduler_errors(name, match):
    sim = SimulatedCluster(2, seed=1, scheduler=name)
    with pytest.raises(SchedulerError, match=match):
        sim.run_job(_pi_conf())


def test_run_jobs_staggered_arrivals_and_order():
    sim = SimulatedCluster(2, seed=5)
    confs = [_pi_conf(), _pi_conf()]
    results = sim.run_jobs(confs, arrivals=[0.0, 30.0])
    assert all(r.succeeded for r in results)
    assert results[0].submit_time == 0.0
    assert results[1].submit_time == 30.0
    # Results come back in conf order even with reversed arrival input.
    sim2 = SimulatedCluster(2, seed=5)
    r2 = sim2.run_jobs([_pi_conf(), _pi_conf()], arrivals=[30.0, 0.0])
    assert r2[0].submit_time == 30.0 and r2[1].submit_time == 0.0


def test_run_jobs_validates_arrivals():
    sim = SimulatedCluster(2, seed=5)
    with pytest.raises(ValueError, match="arrivals"):
        sim.run_jobs([_pi_conf()], arrivals=[0.0, 1.0])
    with pytest.raises(ValueError, match=">= 0"):
        sim.run_jobs([_pi_conf()], arrivals=[-1.0])
    assert sim.run_jobs([]) == []
