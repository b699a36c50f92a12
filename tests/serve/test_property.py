"""Property test: random request mixes against a live daemon.

Hypothesis draws a batch of submits — random scenario, grid subset,
seed, engine/model mode combination, duplicates encouraged, some
cancelled right after admission — fires them concurrently, and checks
that every result the daemon serves is byte-identical to a memoized
serial offline `run_sweep` under the same modes. A
cancelled submit may legitimately land as either `cancelled` or `done`
(the cancel can lose the race to a fast grid); when it lands `done`
its bytes must still match offline exactly.
"""

import threading
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro import runctx
from repro.experiments import run_sweep
from repro.serve import Address, ReproServer, protocol, request_one, request_stream

#: (scenario, allowed grid subsets) — small fig8 grids exercise the
#: real simulation under every mode; the synthetic scenario exercises
#: wide-and-cheap fan-out.
SCENARIOS = {
    "_serve_synth": ("k", [[0, 1, 2], [0, 1, 2, 3, 4, 5]]),
    "fig8": ("nodes", [[2], [2, 4]]),
}

request_strategy = st.fixed_dictionaries({
    "scenario": st.sampled_from(sorted(SCENARIOS)),
    "grid_choice": st.integers(min_value=0, max_value=1),
    "seed": st.sampled_from([1, 2]),
    "reference_engine": st.booleans(),
    "reference_model": st.booleans(),
    "cancel": st.booleans(),
})


@pytest.fixture(scope="module")
def prop_server(tmp_path_factory):
    sock = tmp_path_factory.mktemp("serve") / "prop.sock"
    srv = ReproServer(socket_path=sock, workers=2).start()
    try:
        yield srv
    finally:
        srv.close()


_offline_memo: dict = {}


def offline_bytes(spec) -> tuple[str, dict]:
    """Serial, in-process reference run under the spec's modes
    (memoized — identical specs across examples pay once)."""
    scenario = spec["scenario"]
    param, choices = SCENARIOS[scenario]
    grid = choices[spec["grid_choice"]]
    key = (scenario, param, tuple(grid), spec["seed"],
           spec["reference_engine"], spec["reference_model"])
    if key not in _offline_memo:
        ctx = replace(runctx.current(),
                      engine_reference=spec["reference_engine"],
                      model_reference=spec["reference_model"])
        with runctx.using(ctx):
            result = run_sweep(scenario, {param: grid},
                               seed=spec["seed"], workers=1)
        _offline_memo[key] = result.pretty_json()
    overrides = {param: grid}
    return _offline_memo[key], overrides


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(specs=st.lists(request_strategy, min_size=1, max_size=4))
def test_random_interleavings_serve_offline_bytes(prop_server, specs):
    address = Address(socket_path=prop_server.socket_path)
    expected = []
    requests = []
    for spec in specs:
        payload, overrides = offline_bytes(spec)
        expected.append(payload)
        requests.append(protocol.submit_request(
            spec["scenario"], overrides, seed=spec["seed"],
            reference_engine=spec["reference_engine"],
            reference_model=spec["reference_model"],
            detach=spec["cancel"],
        ))

    outcomes = [None] * len(specs)
    barrier = threading.Barrier(len(specs))

    def streamer(i):
        barrier.wait()
        events = list(request_stream(address, requests[i]))
        outcomes[i] = ("stream", events)

    def cancel_after_submit(i):
        barrier.wait()
        acc = request_one(address, requests[i])
        assert acc["event"] == "accepted", acc
        request_one(address, {"verb": "cancel", "job": acc["job"]})
        outcomes[i] = ("detached", acc["job"])

    threads = [
        threading.Thread(
            target=cancel_after_submit if specs[i]["cancel"] else streamer,
            args=(i,),
        )
        for i in range(len(specs))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(o is not None for o in outcomes), "a request never finished"

    def logical_key(spec):
        return (spec["scenario"], spec["grid_choice"], spec["seed"],
                spec["reference_engine"], spec["reference_model"])

    cancelled_keys = {logical_key(s) for s in specs if s["cancel"]}

    for i, (kind, data) in enumerate(outcomes):
        if kind == "stream":
            term = data[-1]
            if (term["event"] == "cancelled"
                    and logical_key(specs[i]) in cancelled_keys):
                # This submit coalesced with a duplicate that was
                # cancelled: losing the shared job is correct behavior.
                continue
            assert term["event"] == "result", term
            assert term["payload"] == expected[i], (
                f"served bytes diverge from serial offline run for {specs[i]}"
            )
        else:
            # Cancelled submits settle as cancelled OR done (the cancel
            # may lose to a fast grid, or the key may be shared with an
            # uncancelled duplicate); done must still serve exact bytes.
            row = _wait_terminal(address, data)
            assert row["state"] in ("cancelled", "done"), row
            if row["state"] == "done":
                assert row["payload"] == expected[i]


def _wait_terminal(address, job_id, timeout=60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        row = request_one(address, {"verb": "status", "job": job_id})["jobs"][0]
        if row["state"] in ("done", "cancelled", "failed"):
            return row
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached a terminal state")
