"""``JobTracker.has_demand`` memo: always the answer a fresh scan gives.

The memo is keyed on ``(_jobs_epoch, _queue_version)``; it is only
correct if every change that can flip demand bumps one of them. These
tests run workloads that exercise every such change — job arrival and
finish, assignment, failure and loss requeues, membership churn,
preemption, and the ``maps_all_done`` flip that unlocks reduces and
ends speculation — and check each memoized answer against the
unmemoized scan.
"""

import pytest

from repro.core.simexec import SimulatedCluster
from repro.experiments import run_sweep
from repro.hadoop import ChurnPlan, JobConf
from repro.hadoop.faults import apply_churn
from repro.hadoop.jobtracker import JobTracker
from repro.perf.calibration import Backend


@pytest.fixture
def checked_demand(monkeypatch):
    """Make every ``has_demand`` call also run the fresh scan; returns
    the tally of (calls, calls answered True)."""
    memoized = JobTracker.has_demand
    tally = {"calls": 0, "true": 0}

    def has_demand(self):
        answer = memoized(self)
        assert answer == self._scan_demand(), (
            f"memo says {answer} at t={self.env.now}"
        )
        tally["calls"] += 1
        tally["true"] += answer
        return answer

    monkeypatch.setattr(JobTracker, "has_demand", has_demand)
    return tally


def _assert_exercised(tally):
    assert tally["calls"] > 100
    assert 0 < tally["true"] < tally["calls"]


def test_memo_matches_scan_with_stragglers_and_speculation(checked_demand):
    run_sweep("faults", {"slow_factor": [1, 8]})
    _assert_exercised(checked_demand)


def test_memo_matches_scan_through_a_spot_storm(checked_demand):
    run_sweep("spot_storm", {"revoked": [0, 2]})
    _assert_exercised(checked_demand)


def test_memo_matches_scan_in_the_sla_mix(checked_demand):
    run_sweep("sla_mix", {"nodes": [2]})
    _assert_exercised(checked_demand)


def test_memo_matches_scan_in_a_preempting_speculative_mix(checked_demand):
    """fair_preempt kills and requeues maps while speculation duplicates
    them and a straggler and a mid-run revocation add requeues."""
    sim = SimulatedCluster(4, seed=5, slow_nodes={1: 6.0},
                           scheduler="fair_preempt")
    sim.start()
    apply_churn(sim.env, sim, ChurnPlan.spot_storm([4], at_time=12.0,
                                                   replace_after_s=8.0))
    confs = [
        JobConf(name=f"spec-{i}", workload="pi",
                backend=Backend.CELL_SPE_DIRECT,
                fallback_backend=Backend.JAVA_PPE, samples=4e10,
                num_map_tasks=16, num_reduce_tasks=1,
                speculative=True)
        for i in range(3)
    ]
    results = sim.run_jobs(confs, arrivals=[0.0, 3.0, 6.0])
    assert all(r.succeeded for r in results)
    counters = sim.jobtracker.decision_counters()
    assert counters["speculative_assignments"] > 0
    assert counters["preemptions"] > 0
    _assert_exercised(checked_demand)
