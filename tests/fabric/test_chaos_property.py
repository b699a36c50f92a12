"""Hypothesis chaos property: *any* failure schedule merges to serial.

Random worker kills, heartbeat-silence windows, duplicated deliveries,
and coordinator crash/restart at random points in a fig8 sweep must
always produce a merge byte-identical to the serial result — in both
engine×model reference combos — with exactly-once accounting: every
grid point accepted exactly once, none lost, none double-counted.

The schedules are drawn by Hypothesis but executed deterministically
(all triggers key off delivered-result counts, not wall time), so a
failing example shrinks to a reproducible script.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import runctx
from repro.experiments import run_sweep
from repro.fabric import CoordinatorChaos, TrackerConfig, WorkerChaos, run_chaos_fleet

OV = {"nodes": [2, 3, 4], "samples": 1e8}
_SERIAL_SHA: dict[tuple[bool, bool], str] = {}


def _modes(reference: bool, model_reference: bool) -> runctx.RunContext:
    return replace(runctx.current(), engine_reference=reference,
                   model_reference=model_reference)


def serial_sha(reference: bool, model_reference: bool) -> str:
    combo = (reference, model_reference)
    if combo not in _SERIAL_SHA:
        with runctx.using(_modes(reference, model_reference)):
            _SERIAL_SHA[combo] = run_sweep("fig8", OV).sha256()
    return _SERIAL_SHA[combo]


worker_chaos_st = st.one_of(
    st.none(),
    st.builds(
        WorkerChaos,
        kill_after_results=st.one_of(st.none(), st.integers(1, 3)),
        silences=st.one_of(
            st.just(()),
            st.tuples(st.tuples(st.integers(0, 2),
                                st.floats(0.7, 1.2))),
        ),
        duplicate_results=st.booleans(),
    ),
)

schedule_st = st.fixed_dictionaries({
    "workers": st.integers(2, 3),
    "worker_chaos": st.lists(worker_chaos_st, min_size=0, max_size=3),
    "crash_after": st.one_of(st.none(), st.integers(1, 3)),
})


@pytest.mark.parametrize("reference,model_reference",
                         [(False, False), (True, True)],
                         ids=["opt-opt", "ref-ref"])
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_st)
def test_random_failure_schedules_merge_byte_identical(
        schedule, reference, model_reference):
    expected = serial_sha(reference, model_reference)
    with (tempfile.TemporaryDirectory() as td,
          runctx.using(_modes(reference, model_reference))):
        result, stats, reports = run_chaos_fleet(
            "fig8", OV,
            journal_path=Path(td) / "j.jsonl",
            workers=schedule["workers"],
            worker_chaos=schedule["worker_chaos"],
            coordinator_chaos=(
                CoordinatorChaos(crash_after_results=schedule["crash_after"])
                if schedule["crash_after"] is not None else None),
            respawn_killed=True,
            config=TrackerConfig(worker_timeout_s=0.5, lease_timeout_s=15.0,
                                 retry_backoff_s=0.1),
            timeout_s=90.0, linger_s=0.3)

    assert result.sha256() == expected

    # Exactly-once: every point lands once — via a worker in some
    # incarnation ("accepted") or via the journal after a coordinator
    # crash ("prefilled") — and extra deliveries are dropped, not
    # merged. (Worker reports are not asserted on: a worker still in a
    # silence window or reconnect backoff at teardown reports late.)
    assert stats["accepted"] + stats["prefilled"] == stats["total"]
    assert stats["completed"] == stats["total"]
    assert stats["quarantined"] == 0
