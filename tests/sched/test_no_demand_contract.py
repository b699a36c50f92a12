"""The no-demand contract: with nothing to hand out, ``assign`` is inert.

The JobTracker skips ``Scheduler.assign`` on an exchange when the
cluster has no demand (no PREP job, no pending map or reduce, nothing
speculatable) and no kill is queued for the heartbeating tracker; it
replies with the shared empty reply instead. That is only safe if every
policy, called in that state, returns no choice and tallies no
decision. These tests pin it for every registered policy, on fresh and
on warmed-up instances, with and without free slots.
"""

import pytest

from repro.hadoop.messages import Heartbeat
from repro.perf.calibration import Backend
from repro.sched import (
    AttemptView,
    SyntheticJob,
    SyntheticView,
    TrackerView,
    resolve_scheduler,
    scheduler_names,
)


def _trackers():
    return [
        TrackerView(1, has_cells=True),
        TrackerView(2),
        TrackerView(3, has_gpus=True, speed_factor=2.0),
    ]


def _map_phase_job(job_id, tracker_id, start, weight=1.0):
    """A non-speculative job whose every map is running: no demand."""
    return SyntheticJob(
        job_id,
        backend=Backend.CELL_SPE_DIRECT,
        fallback_backend=Backend.JAVA_PPE,
        weight=weight,
        num_maps=4,
        num_reduces=1,
        running_attempt_count=4,
        map_states={t: "running" for t in range(4)},
        running_attempts={
            t: [AttemptView(tracker_id, 1, start + t)] for t in range(4)
        },
        preferred={t: (tracker_id,) for t in range(4)},
    )


def _reduce_phase_job(job_id):
    """A speculative job past its maps, its one reduce running."""
    return SyntheticJob(
        job_id,
        workload="aes",
        speculative=True,
        num_maps=4,
        num_reduces=1,
        maps_all_done=True,
        running_attempt_count=1,
        map_states={t: "done" for t in range(4)},
        done_durations=(3.0, 3.5, 4.0, 9.0),
        map_output_nodes={1: 3, 2: 1},
    )


def _no_demand_views():
    yield SyntheticView([], _trackers(), now=5.0)
    yield SyntheticView([_map_phase_job(0, 1, 1.0)], _trackers(), now=20.0)
    # Unequal load and weights: a fair share would favour job 1, but it
    # has nothing pending, so nothing may be granted or preempted.
    yield SyntheticView(
        [_map_phase_job(0, 1, 1.0), _map_phase_job(1, 2, 2.0, weight=3.0),
         _reduce_phase_job(2)],
        _trackers(),
        now=400.0,
    )


_HEARTBEATS = [
    Heartbeat(tracker_id=1, free_map_slots=2, free_reduce_slots=1),
    Heartbeat(tracker_id=2, free_map_slots=1, free_reduce_slots=0),
    Heartbeat(tracker_id=3, free_map_slots=0, free_reduce_slots=0),
]


@pytest.mark.parametrize("name", scheduler_names())
def test_assign_without_demand_is_empty_and_uncounted(name):
    policy = resolve_scheduler(name)
    for view in _no_demand_views():
        for hb in _HEARTBEATS:
            before = policy.decision_counters()
            assert policy.assign(view, hb) == []
            assert policy.decision_counters() == before


@pytest.mark.parametrize("name", scheduler_names())
def test_assign_without_demand_after_real_decisions(name):
    """A policy that has already placed work (and built up delay or
    starvation state) is just as inert once demand is gone."""
    policy = resolve_scheduler(name)
    busy = SyntheticView(
        [_map_phase_job(0, 1, 1.0),
         SyntheticJob(1, pending_maps=(0, 1, 2), preferred={0: (3,), 1: (3,)})],
        _trackers(),
        now=10.0,
    )
    for now in (10.0, 16.0, 30.0):
        busy.now = now
        assert policy.assign(busy, _HEARTBEATS[0])
    for view in _no_demand_views():
        for hb in _HEARTBEATS:
            before = policy.decision_counters()
            assert policy.assign(view, hb) == []
            assert policy.decision_counters() == before
