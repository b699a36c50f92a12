"""End-to-end daemon lifecycle over a real unix socket.

Boot → ping → concurrent submits → mid-flight cancel from a second
connection → graceful shutdown with no orphaned pool processes. The
CLI-level test at the bottom drives the exact `repro serve` / `repro
submit` entry points (including on-disk byte identity with `repro
sweep --out`).
"""

import io
import json
import os
import threading
import time

import pytest

from repro import wire
from repro.cli import main as cli_main
from repro.experiments import run_sweep, save_sweep
from repro.serve import (
    Address,
    ReproServer,
    protocol,
    request_one,
    request_stream,
    wait_for_server,
)


def submit_events(address, scenario, overrides=None, seed=1234, **kw):
    return list(request_stream(
        address, protocol.submit_request(scenario, overrides, seed=seed, **kw)
    ))


def test_ping_and_empty_status(server, address):
    assert wait_for_server(address, timeout=5)
    st = request_one(address, {"verb": "status"})
    assert st["event"] == "status" and st["jobs"] == []
    assert st["stats"]["workers"] == 2
    assert st["stats"]["jobs"] == 0


def test_single_submit_streams_points_and_result(server, address):
    offline = run_sweep("_serve_synth", seed=1234, workers=1)
    events = submit_events(address, "_serve_synth")
    kinds = [e["event"] for e in events]
    assert kinds[0] == "accepted" and kinds[-1] == "result"
    assert kinds.count("point") == 6
    done = sorted(e["done"] for e in events if e["event"] == "point")
    assert done == list(range(1, 7))
    term = events[-1]
    assert term["payload"] == offline.pretty_json()
    assert term["sha256"] == offline.sha256()
    assert term["executed_points"] == 6 and term["cached_points"] == 0


def test_concurrent_distinct_submits_all_serve_correct_bytes(server, address):
    seeds = [11, 22, 33, 44]
    offline = {s: run_sweep("_serve_synth", seed=s, workers=1) for s in seeds}
    results = {}

    def worker(seed):
        results[seed] = submit_events(address, "_serve_synth", seed=seed)

    threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(results) == 4
    job_ids = set()
    for seed in seeds:
        acc, term = results[seed][0], results[seed][-1]
        assert not acc["coalesced"]  # four distinct requests
        job_ids.add(acc["job"])
        assert term["event"] == "result"
        assert term["payload"] == offline[seed].pretty_json()
    assert len(job_ids) == 4


def test_cancel_mid_flight_from_a_second_connection(server, address):
    events = []
    done = threading.Event()

    def streamer():
        for ev in request_stream(
            address, protocol.submit_request("_serve_slow", seed=5)
        ):
            events.append(ev)
            if ev["event"] == "accepted":
                done.set()
        done.set()

    t = threading.Thread(target=streamer)
    t.start()
    assert done.wait(10)
    job_id = events[0]["job"]
    ev = request_one(address, {"verb": "cancel", "job": job_id})
    assert ev["ok"] and ev["state"] in ("cancelling", "cancelled")
    t.join(timeout=30)
    assert not t.is_alive()
    assert events[-1] == {"event": "cancelled", "job": job_id}
    # Wave dispatch: a 2-worker pool never queues the whole grid, so a
    # prompt cancel leaves most of the 8 slow points unexecuted.
    assert sum(1 for e in events if e["event"] == "point") < 8
    row = request_one(address, {"verb": "status", "job": job_id})["jobs"][0]
    assert row["state"] == "cancelled"
    # The key is free again: a resubmit starts fresh instead of
    # attaching to the cancelled husk.
    retry = request_one(
        address, protocol.submit_request("_serve_slow", seed=5, detach=True)
    )
    assert retry["event"] == "accepted" and not retry["coalesced"]
    assert retry["job"] != job_id
    request_one(address, {"verb": "cancel", "job": retry["job"]})


def test_cancel_unknown_job_is_reported_not_fatal(server, address):
    ev = request_one(address, {"verb": "cancel", "job": "job-424242"})
    assert ev["event"] == "cancel" and not ev["ok"]
    assert "unknown job" in ev["state"]


def test_malformed_and_invalid_requests_get_error_events(server, address):
    import socket as socket_mod

    # Raw garbage on the wire.
    sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    sock.connect(str(server.socket_path))
    stream = sock.makefile("rwb")
    stream.write(b"{ not json\n")
    stream.flush()
    events = list(protocol.read_events(stream))
    sock.close()
    assert len(events) == 1 and events[0]["event"] == "error"
    # Structurally valid but semantically wrong submits.
    bad_scenario = submit_events(address, "_no_such_scenario")
    assert bad_scenario[-1]["event"] == "error"
    assert "_no_such_scenario" in bad_scenario[-1]["message"]
    bad_grid = submit_events(address, "_serve_synth", {"bogus": [1]})
    assert bad_grid[-1]["event"] == "error"
    # The daemon survived all of it.
    assert wait_for_server(address, timeout=5)


def _send_raw(path, data):
    """Send raw bytes on a fresh connection; everything the daemon
    wrote back before closing (empty when it reset the connection)."""
    import socket as socket_mod

    sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    sock.connect(str(path))
    reply = b""
    try:
        sock.sendall(data)
        while chunk := sock.recv(65536):
            reply += chunk
    except OSError:
        pass  # reset: the daemon refused the frame and hung up
    finally:
        sock.close()
    return reply


def test_oversized_frame_is_refused_and_daemon_keeps_serving(
        server, address, monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
    reply = _send_raw(server.socket_path,
                      b'{"verb":"ping","pad":"' + b"x" * 4096 + b'"}\n')
    assert b"pong" not in reply
    assert reply == b"" or b"oversized frame" in reply
    assert request_one(address, {"verb": "ping"})["event"] == "pong"


def test_detach_then_poll_status_for_payload(server, address):
    offline = run_sweep("_serve_synth", seed=77, workers=1)
    acc = request_one(
        address, protocol.submit_request("_serve_synth", seed=77, detach=True)
    )
    assert acc["event"] == "accepted"
    deadline = time.monotonic() + 30
    row = None
    while time.monotonic() < deadline:
        row = request_one(
            address, {"verb": "status", "job": acc["job"]})["jobs"][0]
        if row["state"] == "done":
            break
        time.sleep(0.05)
    assert row is not None and row["state"] == "done"
    assert row["payload"] == offline.pretty_json()
    assert row["sha256"] == offline.sha256()


def test_graceful_shutdown_leaves_no_orphaned_workers(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "d.sock", workers=2).start()
    address = Address(socket_path=srv.socket_path)
    assert wait_for_server(address, timeout=5)
    submit_events(address, "_serve_synth", seed=3)  # fork the pool
    pids = srv.pool.worker_pids()
    assert len(pids) == 2
    ev = request_one(address, {"verb": "shutdown"})
    assert ev["ok"]
    assert srv.wait(30)
    assert not srv.pool.started
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        gone = [pid for pid in pids if not _alive(pid)]
        if len(gone) == len(pids):
            break
        time.sleep(0.05)
    for pid in pids:
        assert not _alive(pid), f"orphaned pool worker {pid}"
    assert not srv.socket_path.exists()
    # New connections are refused after shutdown.
    with pytest.raises(OSError):
        request_one(address, {"verb": "ping"})


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_shutdown_now_cancels_running_jobs(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "d.sock", workers=2).start()
    address = Address(socket_path=srv.socket_path)
    events = []

    def streamer():
        events.extend(request_stream(
            address, protocol.submit_request("_serve_slow", seed=9)
        ))

    t = threading.Thread(target=streamer)
    t.start()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and not events:
        time.sleep(0.02)
    assert events and events[0]["event"] == "accepted"
    ev = request_one(address, {"verb": "shutdown", "mode": "now"})
    assert ev["ok"]
    assert srv.wait(30)
    t.join(timeout=10)
    assert events[-1]["event"] == "cancelled"
    assert not srv.pool.started


def test_handed_pool_is_left_open(tmp_path):
    from repro.experiments.pool import SweepPool

    with SweepPool(2) as pool:
        srv = ReproServer(socket_path=tmp_path / "d.sock", pool=pool).start()
        address = Address(socket_path=srv.socket_path)
        submit_events(address, "_serve_synth", seed=4)
        pids = pool.worker_pids()
        request_one(address, {"verb": "shutdown"})
        assert srv.wait(30)
        # The server never closes a pool it was handed (same contract
        # as the sweep driver); the context manager owns it.
        assert pool.started and pool.worker_pids() == pids


def test_cli_serve_and_submit_roundtrip(tmp_path):
    """The real entry points end to end: `repro serve` in a thread,
    `repro submit --out` writing byte-identical files, `--status`,
    then `--shutdown` returning the serve loop."""
    sock = tmp_path / "cli.sock"
    serve_out = io.StringIO()
    codes = {}

    def serve():
        codes["serve"] = cli_main(
            ["serve", "--socket", str(sock), "--workers", "2"], out=serve_out)

    t = threading.Thread(target=serve)
    t.start()
    assert wait_for_server(Address(socket_path=sock), timeout=10)

    offline_dir, served_dir = tmp_path / "offline", tmp_path / "served"
    buf = io.StringIO()
    assert cli_main(["sweep", "_serve_synth", "--grid", "k=0,1,2",
                     "--out", str(offline_dir)], out=buf) == 0
    buf = io.StringIO()
    code = cli_main(["submit", "_serve_synth", "--grid", "k=0,1,2",
                     "--socket", str(sock), "--out", str(served_dir)], out=buf)
    assert code == 0, buf.getvalue()
    text = buf.getvalue()
    assert "accepted job-" in text and "served _serve_synth" in text
    offline = (offline_dir / "_serve_synth.json").read_bytes()
    served = (served_dir / "_serve_synth.json").read_bytes()
    assert served == offline  # byte-identical on disk, not just on the wire

    buf = io.StringIO()
    assert cli_main(["submit", "--status", "--socket", str(sock)], out=buf) == 0
    assert "job-000001" in buf.getvalue() and "done" in buf.getvalue()

    buf = io.StringIO()
    assert cli_main(["submit", "--shutdown", "--socket", str(sock)], out=buf) == 0
    t.join(timeout=30)
    assert not t.is_alive() and codes["serve"] == 0
    assert "shut down cleanly" in serve_out.getvalue()


def test_cli_submit_usage_errors(tmp_path):
    buf = io.StringIO()
    assert cli_main(["submit", "_serve_synth"], out=buf) == 2  # no address
    buf = io.StringIO()
    assert cli_main(["submit", "--socket", str(tmp_path / "none.sock")],
                    out=buf) == 2  # no scenario, no control verb
    buf = io.StringIO()
    code = cli_main(["submit", "_serve_synth", "--status",
                     "--socket", str(tmp_path / "none.sock")], out=buf)
    assert code == 2  # control verb + scenario is ambiguous
    buf = io.StringIO()
    code = cli_main(["submit", "_serve_synth",
                     "--socket", str(tmp_path / "none.sock")], out=buf)
    # Unreachable daemon is its own exit code (4), distinct from usage
    # errors (2), failed jobs (1), and cancelled jobs (3).
    assert code == 4 and "cannot reach daemon" in buf.getvalue()
