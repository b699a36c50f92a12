"""One daemon: ``repro serve`` leases every job's points to its local
pool and to registered fleet workers.

Pinned here: a pool-less daemon (``--workers 0``) serves concurrent
submits through a fleet worker, a local pool and a remote worker share
one job exactly once, cancelling a job voids its remote leases, and a
worker that cannot rebuild a job's request key is refused loudly.
"""

import threading
import time
from dataclasses import replace

from repro import runctx
from repro.experiments import run_sweep
from repro.fabric import FleetError, FleetWorker, WorkerChaos
from repro.fabric.worker import request_key as real_request_key
from repro.serve import Address, ReproServer, protocol, request_one, request_stream


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class Fleet:
    """Fleet worker threads against one daemon, stopped and joined on exit."""

    def __init__(self, server):
        self.address = Address(socket_path=server.socket_path)
        self.threads, self.workers, self.errors = [], [], []

    def spawn(self, name, **kwargs):
        worker = FleetWorker(self.address, name=name, heartbeat_s=0.02, **kwargs)

        def run():
            try:
                worker.run()
            except FleetError as exc:
                self.errors.append(str(exc))

        t = threading.Thread(target=run, name=f"repro-test-{name}", daemon=True)
        self.threads.append(t)
        self.workers.append(worker)
        t.start()
        return worker

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for worker in self.workers:
            worker.stop()
        for t in self.threads:
            t.join(timeout=10)


def _submit(address, scenario, overrides=None, ctx=None, **kwargs):
    msg = protocol.submit_request(
        scenario, overrides,
        reference_engine=ctx.engine_reference if ctx else None,
        reference_model=ctx.model_reference if ctx else None, **kwargs)
    return list(request_stream(address, msg, timeout=60))


def _offline(scenario, overrides=None, ctx=None):
    with runctx.using(ctx or runctx.current()):
        return run_sweep(scenario, overrides).pretty_json()


def test_a_fleet_worker_serves_concurrent_submits_on_a_poolless_daemon(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "d.sock", workers=0).start()
    ref = replace(runctx.current(), engine_reference=True, model_reference=True)
    requests = [("_fleet_synth", None, runctx.current()),
                ("fig8", {"nodes": [2, 3], "samples": 1e8}, ref)]
    events = {}
    try:
        with Fleet(srv) as fleet:
            fleet.spawn("w0")
            clients = [threading.Thread(
                target=lambda r=r: events.__setitem__(r[0], _submit(fleet.address, *r)))
                for r in requests]
            for c in clients:
                c.start()
            for c in clients:
                c.join(timeout=60)
            assert not fleet.errors
    finally:
        srv.close()
    for scenario, overrides, ctx in requests:
        terminal = events[scenario][-1]
        assert terminal["event"] == "result", terminal
        assert terminal["payload"] == _offline(scenario, overrides, ctx)
        assert terminal["executed_points"] == len(run_sweep(scenario, overrides).points)
    assert srv.stats()["points_executed"] == 8 + 2


def test_local_pool_and_remote_worker_share_one_job_exactly_once(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "d.sock", workers=1).start()
    overrides = {"delay_s": 0.15}
    try:
        with Fleet(srv) as fleet:
            fleet.spawn("w0")
            assert _wait_for(lambda: srv.fleet.live() == ["w0"])
            terminal = _submit(fleet.address, "_fleet_slow", overrides)[-1]
    finally:
        srv.close()
    assert terminal["event"] == "result"
    assert terminal["payload"] == _offline("_fleet_slow", overrides)
    tracker = srv.table.get(terminal["job"]).tracker
    lessees = [lessee for lessee, _, _ in tracker.accepted.values()]
    assert sorted(tracker.accepted) == list(range(8))
    assert {"", "w0"} <= set(lessees)  # the local pool ("") and the worker
    assert tracker.counters["results_accepted"] == 8


def test_cancel_revokes_remote_leases_and_drops_the_late_result(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "d.sock", workers=0).start()
    try:
        with Fleet(srv) as fleet:
            # The worker holds each result back, so the cancel lands
            # while its lease is out.
            fleet.spawn("w0", chaos=WorkerChaos(delay_results_s=0.5))
            accepted = request_one(fleet.address, protocol.submit_request(
                "_fleet_slow", {"delay_s": 0.01}, detach=True))
            job = srv.table.get(accepted["job"])
            assert _wait_for(lambda: job.tracker is not None
                             and job.tracker.accounting()["running"] == 1)
            results_before = srv._m_frames.value(type="result")  # noqa: SLF001
            ev = request_one(fleet.address, {"verb": "cancel", "job": job.id})
            assert ev["ok"]
            assert _wait_for(lambda: job.state == "cancelled")
            # The late delivery is acknowledged (the worker carries on)
            # and dropped: nothing lands in the cancelled job's ledger.
            assert _wait_for(lambda: srv._m_frames.value(type="result")  # noqa: SLF001
                             > results_before)
            assert job.ledger.fresh == []
            assert job.tracker.counters["duplicates"] >= 1
            assert all(t.is_alive() for t in fleet.threads)
            assert not fleet.errors
    finally:
        srv.close()


def test_worker_refuses_a_job_whose_key_it_rebuilds_differently(tmp_path, monkeypatch):
    # The worker's code disagrees about `_fleet_slow` only: it refuses
    # that job loudly and leaves; a healthy worker then finishes it.
    def drifted(sc, ctx):
        return "f" * 64 if sc.name == "_fleet_slow" else real_request_key(sc, ctx)

    monkeypatch.setattr("repro.fabric.worker.request_key", drifted)
    srv = ReproServer(socket_path=tmp_path / "d.sock", workers=0).start()
    try:
        with Fleet(srv) as fleet:
            fleet.spawn("drifted")
            accepted = request_one(fleet.address, protocol.submit_request(
                "_fleet_slow", {"delay_s": 0.0}, detach=True))
            assert _wait_for(lambda: fleet.errors)
            assert "request key mismatch for job " + accepted["job"] in fleet.errors[0]
            assert srv.fleet.live() == []
            job = srv.table.get(accepted["job"])
            assert job.state == "running" and job.ledger.fresh == []

            monkeypatch.setattr("repro.fabric.worker.request_key", real_request_key)
            fleet.spawn("healthy")
            assert job.wait(timeout=30)
            assert job.payload == _offline("_fleet_slow", {"delay_s": 0.0})
    finally:
        srv.close()


def test_cli_serve_accepts_workers_zero(tmp_path):
    import io

    from repro.cli import main as cli_main
    from repro.serve import wait_for_server

    sock = tmp_path / "cli.sock"
    out = io.StringIO()
    t = threading.Thread(target=cli_main,
                         args=(["serve", "--socket", str(sock), "--workers", "0"],),
                         kwargs={"out": out}, name="repro-test-cli")
    t.start()
    address = Address(socket_path=sock)
    try:
        assert wait_for_server(address, timeout=30)
        assert request_one(address, {"verb": "status"})["stats"]["workers"] == 0
    finally:
        request_one(address, {"verb": "shutdown"})
        t.join(timeout=30)
    assert "(0 worker(s))" in out.getvalue()
