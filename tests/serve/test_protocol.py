"""Wire-format validation and the job table's status/cancel protocol.

Everything here is socket-free: the protocol functions are pure, and
the job table runs against an injected fake clock, so these tests pin
the admission/coalescing/cancel semantics deterministically — no
sleeps, no daemon, no pool.
"""

import io
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.serve import JobRequest, JobTable
from repro.serve import jobs as jobs_mod
from repro.serve import protocol


# -- framing -----------------------------------------------------------------

def test_client_import_loads_only_the_wire_format():
    """A client process does not pay for the daemon's sweep stack."""
    heavy = ("numpy", "repro.serve.jobs", "repro.serve.server", "repro.experiments")
    code = ("import sys; from repro.serve import Address, request_stream; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_encode_decode_roundtrip():
    msg = {"verb": "submit", "scenario": "fig8", "overrides": {"nodes": [2, 4]}}
    line = protocol.encode(msg)
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert protocol.decode(line) == msg


def test_decode_rejects_garbage_and_non_objects():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"{ not json\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"[1, 2, 3]\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b'"just a string"\n')


def test_read_events_skips_blank_lines():
    stream = io.BytesIO(b'{"event":"a"}\n\n{"event":"b"}\n')
    assert [e["event"] for e in protocol.read_events(stream)] == ["a", "b"]


# -- request validation ------------------------------------------------------

def test_parse_request_rejects_unknown_verbs():
    for bad in ({}, {"verb": "run"}, {"verb": 7}):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(bad)


def test_parse_submit_shape_errors():
    ok = protocol.parse_request(protocol.submit_request("fig8", {"nodes": [2]}))
    assert ok["scenario"] == "fig8" and ok["overrides"] == {"nodes": [2]}
    for bad in (
        {"verb": "submit"},  # no scenario
        {"verb": "submit", "scenario": ""},
        {"verb": "submit", "scenario": "fig8", "overrides": [1]},
        {"verb": "submit", "scenario": "fig8", "seed": "abc"},
        {"verb": "submit", "scenario": "fig8", "reference_engine": "yes"},
        {"verb": "submit", "scenario": "fig8", "detach": 1},
    ):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(bad)


def test_parse_cancel_status_shutdown():
    assert protocol.parse_request({"verb": "cancel", "job": "j1"})["job"] == "j1"
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_request({"verb": "cancel"})
    assert protocol.parse_request({"verb": "status"})["job"] is None
    assert protocol.parse_request({"verb": "status", "job": "j1"})["job"] == "j1"
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_request({"verb": "status", "job": ""})
    assert protocol.parse_request({"verb": "shutdown"})["mode"] == "graceful"
    assert protocol.parse_request(
        {"verb": "shutdown", "mode": "now"})["mode"] == "now"
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_request({"verb": "shutdown", "mode": "later"})


# -- job table against a fake clock ------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def table(clock):
    return JobTable(clock=clock)


REQ = JobRequest(scenario="_serve_synth", seed=1)


def test_identical_requests_coalesce(table):
    job, created = table.admit(REQ)
    again, created2 = table.admit(JobRequest(scenario="_serve_synth", seed=1))
    assert created and not created2
    assert again is job
    assert job.clients == 2
    assert table.coalesced_submits == 1
    assert len(table) == 1


def test_different_requests_get_distinct_jobs(table):
    base, _ = table.admit(REQ)
    for other in (
        JobRequest(scenario="_serve_synth", seed=2),
        JobRequest(scenario="_serve_synth", seed=1, overrides={"k": [0, 1]}),
        JobRequest(scenario="_serve_synth", seed=1, reference_engine=True),
        JobRequest(scenario="_serve_synth", seed=1, reference_model=True),
    ):
        job, created = table.admit(other)
        assert created and job is not base and job.key != base.key


def test_admit_rejects_unknown_scenario_and_bad_grid(table):
    with pytest.raises(KeyError):
        table.admit(JobRequest(scenario="_no_such_scenario"))
    from repro.experiments import GridError

    with pytest.raises(GridError):
        table.admit(JobRequest(scenario="_serve_synth",
                               overrides={"bogus_param": [1]}))
    assert len(table) == 0  # nothing half-admitted


def test_queued_cancel_is_immediate_and_releases_the_key(table):
    job, _ = table.admit(REQ)
    ok, state = table.cancel(job.id)
    assert ok and state == jobs_mod.CANCELLED
    assert job.state == jobs_mod.CANCELLED
    # The key is free again: an identical submit starts a fresh job.
    fresh, created = table.admit(REQ)
    assert created and fresh is not job


def test_running_cancel_reports_cancelling_until_confirmed(table):
    job, _ = table.admit(REQ)
    assert job.mark_running()
    ok, state = table.cancel(job.id)
    assert ok and state == "cancelling"
    assert job.cancelled and job.state == jobs_mod.RUNNING
    job.finish_cancelled()
    assert job.state == jobs_mod.CANCELLED
    # Cancelling again is idempotent and reports the terminal state.
    ok, state = table.cancel(job.id)
    assert ok and state == jobs_mod.CANCELLED


def test_cancel_unknown_job(table):
    ok, state = table.cancel("job-999999")
    assert not ok and "unknown job" in state


def test_cancel_loses_race_to_running(table):
    """The executor claimed the job first: cancel must not pretend the
    job died instantly, and mark_running after a cancel must refuse."""
    job, _ = table.admit(REQ)
    assert job.mark_running()
    assert table.cancel(job.id) == (True, "cancelling")
    job2, _ = table.admit(JobRequest(scenario="_serve_synth", seed=7))
    assert job2.cancel() == jobs_mod.CANCELLED  # queued: dies on the spot
    assert not job2.mark_running()  # the executor must stand down


def test_snapshot_ages_with_the_clock(table, clock):
    job, _ = table.admit(REQ)
    clock.now += 4.0
    assert job.snapshot()["age_s"] == 4.0
    job.mark_running()
    clock.now += 2.5
    row = job.snapshot()
    assert row["age_s"] == 6.5 and row["runtime_s"] == 2.5
    job.finish_failed("boom")
    clock.now += 50.0
    row = job.snapshot()
    assert row["runtime_s"] == 2.5  # frozen at finish, not still ticking
    assert row["state"] == jobs_mod.FAILED and row["error"] == "boom"


def test_done_lifecycle_and_terminal_replay(table):
    job, _ = table.admit(REQ)
    live = job.subscribe()
    job.mark_running()
    job.publish_point(0, {"k": 0}, {"y": 1.0})
    result = SimpleNamespace(executed_points=6, cached_points=0)
    job.finish_done(result, payload='{"x": 1}\n', sha256="ab" * 32)
    events = [live.get_nowait() for _ in range(2)]
    assert [e["event"] for e in events] == ["point", "result"]
    assert events[1]["payload"] == '{"x": 1}\n'
    # A late subscriber (coalesced client, detached reattach) gets the
    # terminal event replayed immediately instead of hanging.
    late = job.subscribe()
    replay = late.get_nowait()
    assert replay["event"] == "result" and replay["sha256"] == "ab" * 32
    assert job.snapshot()["done"] == job.total


def test_finished_job_releases_key_but_keeps_status_row(table):
    job, _ = table.admit(REQ)
    job.mark_running()
    job.finish_done(SimpleNamespace(executed_points=6, cached_points=0),
                    "{}\n", "cd" * 32)
    table.release(job)
    fresh, created = table.admit(REQ)
    assert created and fresh is not job
    assert len(table) == 2  # both rows remain queryable
    assert table.get(job.id) is job
    states = {r["job"]: r["state"] for r in table.rows()}
    assert states[job.id] == jobs_mod.DONE
    assert states[fresh.id] == jobs_mod.QUEUED


def test_finished_but_unreleased_job_is_not_a_coalescing_target(table):
    job, _ = table.admit(REQ)
    job.mark_running()
    job.finish_done(SimpleNamespace(executed_points=6, cached_points=0),
                    "{}\n", "cd" * 32)
    # The executor has not released the key yet: a resubmit must start
    # a fresh job (a cache hit) instead of replaying the finished one.
    fresh, created = table.admit(REQ)
    assert created and fresh is not job
    table.release(job)  # the late release leaves the fresh job live
    assert table.admit(REQ) == (fresh, False)


def test_stale_release_never_evicts_a_newer_job(table):
    job, _ = table.admit(REQ)
    table.release(job)
    newer, _ = table.admit(REQ)
    table.release(job)  # stale: must not evict `newer`
    attached, created = table.admit(REQ)
    assert not created and attached is newer
