"""End-to-end fleet tests over real sockets and threads.

The centerpiece is the acceptance matrix: a fleet sweep with two
injected worker deaths **and** a coordinator crash/restart must merge
byte-identical (sha256) to a serial ``run_sweep`` of the same request,
in all four engine×model reference-mode combinations — plus the
fail-fast paths (fully dead fleet, poison quarantine) that must error
clearly instead of hanging. The "coordinator" is the daemon serving the
sweep as its one job, as ``repro fleet serve`` does.
"""

import threading
from dataclasses import replace

import pytest

from repro import runctx
from repro.experiments import run_sweep
from repro.fabric import (
    CoordinatorChaos,
    FleetError,
    FleetWorker,
    TrackerConfig,
    WorkerChaos,
    run_chaos_fleet,
)
from repro.serve import JobRequest, ReproServer
from repro.serve.client import Address
from repro.serve.protocol import PROTOCOL_VERSION

OV = {"nodes": [2, 3, 4, 5, 6], "samples": 1e8}


def serial_sha(scenario, overrides, ctx):
    with runctx.using(ctx):
        return run_sweep(scenario, overrides).sha256()


def one_job_daemon(scenario, **kwargs):
    """A pool-less daemon serving ``scenario`` as its one job."""
    server = ReproServer(port=0, workers=0, **kwargs)
    return server, server.serve_one(JobRequest(scenario))


def test_fleet_matches_serial_happy_path(tmp_path):
    serial = serial_sha("_fleet_synth", None, runctx.current())
    result, stats, reports = run_chaos_fleet(
        "_fleet_synth", journal_path=tmp_path / "j.jsonl", workers=3,
        timeout_s=60.0, linger_s=0.3)
    assert result.sha256() == serial
    acct = {**stats}
    assert acct["accepted"] == acct["total"] == 8
    assert acct["duplicates"] == 0
    assert not (tmp_path / "j.jsonl").exists()  # removed on success


def test_duplicated_and_delayed_deliveries_dedup(tmp_path):
    serial = serial_sha("_fleet_synth", None, runctx.current())
    result, stats, reports = run_chaos_fleet(
        "_fleet_synth", journal_path=tmp_path / "j.jsonl", workers=2,
        worker_chaos=[WorkerChaos(duplicate_results=True,
                                  delay_results_s=0.01)],
        timeout_s=60.0, linger_s=0.3)
    assert result.sha256() == serial
    dup_worker = next(r for r in reports if r.get("duplicates_sent"))
    assert stats["duplicates"] >= dup_worker["duplicates_sent"]
    assert stats["accepted"] == stats["total"]


@pytest.mark.parametrize(
    "reference,model_reference",
    [(False, False), (False, True), (True, False), (True, True)],
    ids=["opt-opt", "opt-refmodel", "refengine-opt", "ref-ref"],
)
def test_acceptance_two_kills_one_coordinator_restart(
        tmp_path, reference, model_reference):
    """The ISSUE's acceptance bar, per mode combo: >=2 worker deaths
    plus a coordinator crash/restart, byte-identical to serial."""
    ctx = replace(runctx.current(), engine_reference=reference,
                  model_reference=model_reference)
    serial = serial_sha("fig8", OV, ctx)
    # Both initial workers carry a kill order, so both deaths are
    # guaranteed to fire (each must deliver the fleet's early results);
    # the harness respawns clean replacements that finish the sweep.
    with runctx.using(ctx):
        result, stats, reports = run_chaos_fleet(
            "fig8", OV,
            journal_path=tmp_path / "j.jsonl", workers=2,
            worker_chaos=[WorkerChaos(kill_after_results=1),
                          WorkerChaos(kill_after_results=1)],
            coordinator_chaos=CoordinatorChaos(crash_after_results=3),
            timeout_s=90.0, linger_s=0.3)
    assert result.sha256() == serial
    assert stats["restarts"] == 1
    assert sum(1 for r in reports if r.get("killed")) >= 2
    # Exactly-once across the crash: journaled points count as
    # prefilled in the second incarnation, fresh ones as accepted.
    assert stats["accepted"] + stats["prefilled"] == stats["total"]
    assert stats["completed"] == stats["total"]


def test_heartbeat_silence_triggers_redispatch_but_not_byte_drift(tmp_path):
    serial = serial_sha("_fleet_slow", None, runctx.current())
    # Worker 0 goes silent for well past the worker timeout after its
    # first delivery; the detector revokes its leases, yet its late
    # work (delivered after re-registering) is still merged or deduped.
    result, stats, _ = run_chaos_fleet(
        "_fleet_slow", journal_path=tmp_path / "j.jsonl", workers=2,
        worker_chaos=[WorkerChaos(silences=((1, 2.5),))],
        config=TrackerConfig(worker_timeout_s=0.5, lease_timeout_s=15.0,
                             retry_backoff_s=0.1),
        timeout_s=60.0, linger_s=0.3)
    assert result.sha256() == serial
    assert stats["dead_workers"] >= 1
    assert stats["accepted"] + stats["duplicates"] >= stats["total"]


def test_fully_dead_fleet_fails_fast_not_hangs(tmp_path):
    # Every worker dies almost immediately and nothing respawns: the
    # coordinator must abort with a clear error, well before the test
    # timeout, instead of waiting for workers that will never return.
    with pytest.raises(FleetError) as err:
        run_chaos_fleet(
            "_fleet_synth", journal_path=tmp_path / "j.jsonl", workers=2,
            worker_chaos=[WorkerChaos(kill_after_results=1),
                          WorkerChaos(kill_after_results=1)],
            respawn_killed=False,
            no_worker_timeout_s=0.5, timeout_s=30.0)
    assert "fully dead" in str(err.value)
    assert "journal preserved" in str(err.value)
    assert (tmp_path / "j.jsonl").exists()  # resume material survives


def test_no_worker_ever_registers_fails_fast():
    coord, job = one_job_daemon("_fleet_synth", no_worker_timeout_s=0.3)
    try:
        assert coord.wait(timeout=15.0)
        assert job.result is None
        assert "no worker ever registered" in job.error
    finally:
        coord.close()


def test_poison_point_quarantines_and_aborts(tmp_path, fast_config):
    with pytest.raises(FleetError) as err:
        run_chaos_fleet(
            "_fleet_poison", journal_path=tmp_path / "j.jsonl", workers=2,
            config=fast_config, timeout_s=30.0)
    assert "quarantined" in str(err.value)
    assert "poison point k=2" in str(err.value)


def test_worker_refuses_on_request_key_mismatch(monkeypatch):
    coord, _ = one_job_daemon("_fleet_synth", no_worker_timeout_s=10.0)
    try:
        monkeypatch.setattr("repro.fabric.worker.request_key",
                            lambda *a, **k: "f" * 64)
        worker = FleetWorker(
            Address.parse(f"127.0.0.1:{coord.port}", None), name="drifted")
        with pytest.raises(FleetError) as err:
            worker.run()
        assert "request key mismatch" in str(err.value)
    finally:
        coord.close()


def test_register_refuses_a_protocol_version_mismatch(monkeypatch):
    # A worker speaking another protocol version is refused at
    # registration, before it can lease a single point — both on the
    # wire and loudly in the worker.
    coord, _ = one_job_daemon("_fleet_synth", no_worker_timeout_s=10.0)
    try:
        import socket as socket_mod

        from repro.wire import recv_msg, send_msg
        with socket_mod.create_connection(("127.0.0.1", coord.port)) as sock:
            stream = sock.makefile("rwb")
            send_msg(stream, {"type": "register", "worker": "old",
                              "capacity": 1, "version": PROTOCOL_VERSION - 1})
            reply = recv_msg(stream)
            stream.close()
        assert reply["type"] == "error"
        assert "protocol version mismatch" in reply["message"]

        monkeypatch.setattr("repro.fabric.worker.PROTOCOL_VERSION",
                            PROTOCOL_VERSION + 1)
        worker = FleetWorker(
            Address.parse(f"127.0.0.1:{coord.port}", None), name="new")
        with pytest.raises(FleetError, match="protocol version mismatch"):
            worker.run()
        assert coord.fleet.live() == []
    finally:
        coord.close()


def test_oversized_frame_is_refused_and_coordinator_keeps_serving(monkeypatch):
    import socket as socket_mod

    from repro import wire

    coord, _ = one_job_daemon("_fleet_synth", no_worker_timeout_s=10.0)
    try:
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        frame = wire.encode({"type": "register", "worker": "flood",
                             "capacity": 1, "pad": "x" * 4096})
        sock = socket_mod.create_connection(("127.0.0.1", coord.port))
        reply = b""
        try:
            sock.sendall(frame)
            while chunk := sock.recv(65536):
                reply += chunk
        except OSError:
            pass  # reset: the coordinator refused the frame and hung up
        finally:
            sock.close()
        assert b"registered" not in reply and b"reregister" not in reply
        assert reply == b"" or b"oversized frame" in reply
        assert coord.fleet.live() == []

        monkeypatch.undo()  # the registered reply is longer than 64 bytes
        with socket_mod.create_connection(("127.0.0.1", coord.port)) as sock:
            stream = sock.makefile("rwb")
            wire.send_msg(stream, {"type": "register", "worker": "w0",
                                   "capacity": 1, "version": PROTOCOL_VERSION})
            assert wire.recv_msg(stream)["type"] == "registered"
            stream.close()
    finally:
        coord.close()


def test_point_cache_prefill_keeps_bytes_identical(tmp_path):
    serial = serial_sha("_fleet_synth", None, runctx.current())
    cache_dir = tmp_path / "cache"
    # First fleet run populates the point cache...
    first, _, _ = run_chaos_fleet(
        "_fleet_synth", cache_dir=cache_dir, workers=2,
        timeout_s=60.0, linger_s=0.3)
    assert first.sha256() == serial
    # ...the second is answered from the whole-sweep cache without any
    # worker executing a point.
    second, stats, reports = run_chaos_fleet(
        "_fleet_synth", cache_dir=cache_dir, workers=1,
        timeout_s=60.0, linger_s=0.3)
    assert second.sha256() == serial
    assert sum(r.get("results_sent", 0) for r in reports) == 0


def test_fleet_metrics_render(tmp_path):
    coord, _ = one_job_daemon("_fleet_synth", no_worker_timeout_s=30.0,
                              linger_s=0.2)
    worker = FleetWorker(Address.parse(f"127.0.0.1:{coord.port}", None),
                         name="w0", heartbeat_s=0.05)
    t = threading.Thread(target=worker.run, daemon=True)
    t.start()
    try:
        assert coord.wait(timeout=30.0)
        text = coord.render_metrics()
        assert 'repro_serve_jobs_total{outcome="done"} 1' in text
        assert 'repro_serve_frames_total{type="result"} 8' in text
        assert 'repro_serve_frames_total{type="heartbeat"}' in text
    finally:
        coord.close()
        t.join(timeout=5.0)
