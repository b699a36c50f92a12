"""The daemon's cache path: a ``repro serve --cache-dir`` daemon keys
jobs exactly as ``repro sweep --cache`` does.

A resubmit is answered from the whole-sweep cache without running a
point, a grid edit reuses the point-cache entries of the points it
shares with an earlier job, and a job cancelled mid-flight banks the
points it finished, so its resubmit only runs the remainder.
"""

import threading

import pytest

from repro.experiments import run_sweep
from repro.serve import Address, ReproServer, protocol, request_one, request_stream


@pytest.fixture
def cached_server(tmp_path):
    srv = ReproServer(socket_path=tmp_path / "cache.sock", workers=2,
                      cache_dir=tmp_path / "cache")
    srv.start()
    try:
        yield srv
    finally:
        srv.close()


def _submit(address, scenario, overrides=None, seed=1234):
    events = list(request_stream(
        address, protocol.submit_request(scenario, overrides, seed=seed)))
    assert events[-1]["event"] == "result", events[-1]
    return events[-1]


def test_resubmit_is_a_whole_sweep_hit(cached_server):
    address = Address(socket_path=cached_server.socket_path)
    first = _submit(address, "_serve_synth")
    assert not first["cache_hit"]
    assert first["executed_points"] == 6
    again = _submit(address, "_serve_synth")
    assert again["cache_hit"]
    assert again["executed_points"] == 0
    assert again["payload"] == first["payload"]
    assert again["sha256"] == first["sha256"]
    assert cached_server.stats()["cache_hits"] == 1
    assert cached_server.stats()["points_executed"] == 6


def test_grid_edit_reuses_point_cache_entries(cached_server):
    address = Address(socket_path=cached_server.socket_path)
    _submit(address, "_serve_synth")  # k = 0..5
    wider = {"k": list(range(8))}
    term = _submit(address, "_serve_synth", wider)
    assert not term["cache_hit"]
    assert term["executed_points"] == 2
    assert term["cached_points"] == 6
    offline = run_sweep("_serve_synth", wider, seed=1234, workers=1)
    assert term["payload"] == offline.pretty_json()


def test_cancelled_job_banks_its_finished_points(cached_server):
    address = Address(socket_path=cached_server.socket_path)
    overrides = {"delay_s": 0.2}
    events = []
    first_point = threading.Event()

    def streamer():
        for ev in request_stream(
                address, protocol.submit_request("_serve_slow", overrides, seed=5)):
            events.append(ev)
            if ev["event"] == "point":
                first_point.set()
        first_point.set()

    t = threading.Thread(target=streamer)
    t.start()
    assert first_point.wait(30)
    job_id = events[0]["job"]
    request_one(address, {"verb": "cancel", "job": job_id})
    t.join(timeout=30)
    assert not t.is_alive()
    assert events[-1] == {"event": "cancelled", "job": job_id}
    banked = sum(1 for e in events if e["event"] == "point")
    assert 1 <= banked < 8

    term = _submit(address, "_serve_slow", overrides, seed=5)
    assert not term["cache_hit"]
    assert term["cached_points"] == banked
    assert term["executed_points"] == 8 - banked
    offline = run_sweep("_serve_slow", overrides, seed=5, workers=1)
    assert term["payload"] == offline.pretty_json()
