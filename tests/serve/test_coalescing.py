"""Request coalescing: the daemon's core correctness feature.

K identical concurrent submits must execute the grid exactly once and
hand every client byte-identical payloads, themselves byte-identical
to what the offline `repro sweep` path produces — across both engine
modes and both model-protocol modes.
"""

import json
import threading
from dataclasses import replace

from repro import runctx
from repro.experiments import run_sweep
from repro.serve import protocol, request_one, request_stream


def concurrent_submits(address, requests):
    """Fire all requests at once; returns each connection's event list."""
    results = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def worker(i, req):
        barrier.wait()
        results[i] = list(request_stream(address, req))

    threads = [threading.Thread(target=worker, args=(i, r))
               for i, r in enumerate(requests)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(r is not None for r in results), "a submit never finished"
    return results


def submit_while_held(server, address, reqs):
    """Submit ``reqs`` one after another while every job is held before
    it runs, so a later submit provably finds the earlier jobs live.
    Returns each connection's event list."""
    release = threading.Event()
    run_job = server._run_job

    def held_run_job(job, hit):
        release.wait(60)
        run_job(job, hit)

    server._run_job = held_run_job
    results = [[] for _ in reqs]
    accepted = [threading.Event() for _ in reqs]

    def worker(i):
        for ev in request_stream(address, dict(reqs[i])):
            results[i].append(ev)
            accepted[i].set()
        accepted[i].set()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(reqs))]
    started = []
    try:
        for t, acc in zip(threads, accepted):
            t.start()
            started.append(t)
            assert acc.wait(30), "a submit was never accepted"
    finally:
        release.set()
        del server._run_job
        for t in started:
            t.join(timeout=120)
    assert all(results) and not any(t.is_alive() for t in threads), \
        "a submit never finished"
    return results


def test_eight_identical_submits_execute_once(server, address):
    offline = run_sweep("_serve_slow", seed=1234, workers=1)
    req = protocol.submit_request("_serve_slow", seed=1234)
    results = concurrent_submits(address, [dict(req) for _ in range(8)])

    job_ids = {evs[0]["job"] for evs in results}
    coalesced = sum(evs[0]["coalesced"] for evs in results)
    assert len(job_ids) == 1, f"expected one job, got {job_ids}"
    assert coalesced == 7  # first created, seven attached

    payloads = {evs[-1]["payload"] for evs in results}
    shas = {evs[-1]["sha256"] for evs in results}
    assert len(payloads) == 1 and len(shas) == 1
    assert payloads.pop() == offline.pretty_json()
    assert shas.pop() == offline.sha256()

    # The executed-points accounting proves the grid ran exactly once:
    # every client's result reports the same single execution, and the
    # daemon's global counter saw exactly one grid's worth of points.
    for evs in results:
        assert evs[-1]["executed_points"] == 8
        assert evs[-1]["cached_points"] == 0
    stats = request_one(address, {"verb": "status"})["stats"]
    assert stats["points_executed"] == 8
    assert stats["coalesced_submits"] == 7
    assert stats["jobs"] == 1


def test_interleaved_distinct_requests_do_not_cross_coalesce(server, address):
    """Identical pairs coalesce with each other, never across seeds."""
    no_delay = {"delay_s": 0.0}
    reqs = [protocol.submit_request("_serve_slow", no_delay, seed=s)
            for s in (1, 2, 1, 2)]
    results = submit_while_held(server, address, reqs)
    by_seed = {}
    for req, evs in zip(reqs, results):
        by_seed.setdefault(req["seed"], []).append(evs)
    jobs = {}
    for seed, pair in by_seed.items():
        ids = {evs[0]["job"] for evs in pair}
        assert len(ids) == 1  # the pair shares a job...
        jobs[seed] = ids.pop()
        payloads = {evs[-1]["payload"] for evs in pair}
        assert len(payloads) == 1
        offline = run_sweep("_serve_slow", no_delay, seed=seed, workers=1)
        assert payloads.pop() == offline.pretty_json()
    assert jobs[1] != jobs[2]  # ...and the seeds never share one
    stats = request_one(address, {"verb": "status"})["stats"]
    assert stats["points_executed"] == 16  # two grids, once each
    assert stats["coalesced_submits"] == 2


def test_mode_combinations_coalesce_and_match_offline(server, address):
    """All four engine×model reference combinations, each submitted
    twice concurrently: one execution per combination, byte-identical
    to an offline sweep run under those modes. One daemon serves every
    combination without touching its own run context."""
    overrides = {"nodes": [2, 4], "samples": 1e9}
    sha_by_combo = {}
    for ref_engine in (False, True):
        for ref_model in (False, True):
            ctx = replace(runctx.current(), engine_reference=ref_engine,
                          model_reference=ref_model)
            with runctx.using(ctx):
                offline = run_sweep("fig8", overrides, seed=1234, workers=1)
            req = protocol.submit_request(
                "fig8", overrides, seed=1234,
                reference_engine=ref_engine, reference_model=ref_model,
            )
            results = submit_while_held(server, address, [req, req])
            assert {evs[0]["job"] for evs in results} and \
                sum(evs[0]["coalesced"] for evs in results) == 1
            for evs in results:
                term = evs[-1]
                assert term["event"] == "result", term
                assert term["payload"] == offline.pretty_json(), (
                    f"served bytes diverge offline at "
                    f"engine_ref={ref_engine} model_ref={ref_model}"
                )
                assert term["sha256"] == offline.sha256()
            sha_by_combo[(ref_engine, ref_model)] = offline.sha256()
    # The reference engine is *supposed* to agree with the fast engine
    # byte for byte; the model-protocol modes are distinct computations.
    for ref_model in (False, True):
        assert sha_by_combo[(False, ref_model)] == sha_by_combo[(True, ref_model)]
    assert sha_by_combo[(False, False)] != sha_by_combo[(False, True)]


def test_payload_is_the_canonical_result_document(server, address):
    """The served payload parses back into the same canonical dict the
    offline result produces — the wire adds nothing and loses nothing."""
    offline = run_sweep("_serve_synth", seed=42, workers=1)
    evs = list(request_stream(
        address, protocol.submit_request("_serve_synth", seed=42)))
    doc = json.loads(evs[-1]["payload"])
    assert doc == offline.canonical_dict()
