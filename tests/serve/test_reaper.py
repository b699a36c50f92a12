"""Abandoned-job reaping: a disconnect without a cancel must expire
the job's lease, while coalesced survivors keep the job alive.

A client that vanishes mid-stream used to leave its job running to
completion no matter what — harmless for short grids, a capacity leak
for long ones. The daemon now cancels a running job once every
streaming client has been gone for ``abandon_timeout_s``. Detached
submits and jobs with any remaining coalesced subscriber are exempt.
"""

import socket
import threading
import time

from repro.serve import Address, ReproServer, protocol, request_stream
from repro.serve.client import connect


def _submit_and_abandon(srv, overrides):
    """Open a raw connection, submit ``_serve_slow``, read the accepted
    event, then drop the socket without cancelling. Returns the job."""
    address = Address(socket_path=srv.socket_path)
    sock = connect(address)
    stream = sock.makefile("rwb")
    stream.write(protocol.encode(
        protocol.submit_request("_serve_slow", overrides)))
    stream.flush()
    accepted = protocol.decode(stream.readline())
    assert accepted["event"] == "accepted"
    # Vanish: no cancel, no clean goodbye. shutdown() ends the stream
    # the way a remote client's exit does; close() alone would not, as
    # pool workers forked while the socket was open hold a duplicate.
    sock.shutdown(socket.SHUT_RDWR)
    sock.close()
    job = srv.table.get(accepted["job"])
    assert job is not None
    return job


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_abandoned_job_is_reaped(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "reap.sock", workers=2,
                      abandon_timeout_s=0.2)
    srv.start()
    try:
        # 12 points x 0.25s on 2 workers = ~1.5s of work: plenty of
        # runway for the ~0.5s disconnect-then-reap sequence to land
        # before the job could finish on its own.
        job = _submit_and_abandon(
            srv, {"k": list(range(12)), "delay_s": 0.25})
        assert _wait_for(lambda: job.state == "cancelled"), (
            f"job was never reaped (state={job.state})")
        assert "repro_serve_jobs_reaped_total 1" in srv.render_metrics()
    finally:
        srv.close()


def test_coalesced_survivor_keeps_job_alive(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "survive.sock", workers=2,
                      abandon_timeout_s=0.2)
    srv.start()
    try:
        address = Address(socket_path=srv.socket_path)
        overrides = {"k": list(range(8)), "delay_s": 0.2}

        # Survivor client: coalesces onto the same job and stays
        # attached to the bitter end, collecting every event.
        survivor_events = []

        def survive():
            for event in request_stream(
                    address,
                    protocol.submit_request("_serve_slow", overrides)):
                survivor_events.append(event)

        job = _submit_and_abandon(srv, overrides)
        t = threading.Thread(target=survive, daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()

        terminal = survivor_events[-1]
        assert terminal["event"] == "result", (
            "the survivor's job was reaped out from under it: "
            f"{terminal}")
        assert job.state == "done"
        assert srv._m_reaped.value() == 0  # noqa: SLF001
    finally:
        srv.close()
