"""Determinism and lazy-cancellation tests for the engine overhaul.

The optimized event loop (inlined dispatch, Timeout fast path, pooled
timeouts, synchronous store completions, claim API) must be
observationally identical to the reference loop: same ``(time,
priority, seq, event-class)`` trace for the same program, and
byte-identical figure series. These tests pin that contract, plus the
unit-level invariants of lazy cancellation.
"""

import json
from dataclasses import replace

import pytest

from repro import runctx
from repro.sim import (
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    SimulationError,
    Store,
)


def _mixed_scenario(env: Environment) -> list:
    """Dense mixed workload covering every specialized dispatch path."""
    log = []
    res = PriorityResource(env, capacity=2)
    plain = Resource(env, capacity=1)
    store = Store(env, capacity=3)

    def worker(i):
        with res.request(priority=i % 3) as req:
            yield req
            yield env.timeout(1 + i % 4)
            log.append(("worker", i, env.now))
        yield store.put(i)

    def fickle(i):
        yield env.timeout(0.5 * i)
        req = res.request(priority=0)
        yield env.timeout(0.25)
        req.cancel()
        log.append(("cancel", i, env.now))

    def consumer():
        for _ in range(8):
            v = yield store.get()
            log.append(("got", v, env.now))

    def pipe_user(i):
        claim = plain.try_claim()
        if claim is not None:
            try:
                yield env.pooled_timeout(0.5)
            finally:
                plain.release_claim(claim)
        else:
            with plain.request() as req:
                yield req
                yield env.pooled_timeout(0.5)
        log.append(("pipe", i, env.now))

    def sleeper():
        try:
            yield env.timeout(500.0)
        except Interrupt as exc:
            log.append(("interrupted", str(exc.cause), env.now))
            yield env.timeout(0.125)

    def killer(victim):
        yield env.timeout(3.0)
        if victim.is_alive:
            victim.interrupt("trace")

    for i in range(8):
        env.process(worker(i))
    for i in range(4):
        env.process(fickle(i))
    for i in range(3):
        env.process(pipe_user(i))
    env.process(consumer())
    victim = env.process(sleeper())
    env.process(killer(victim))
    env.run()
    return log


def test_trace_identical_between_fast_and_reference_loops():
    fast = Environment(reference=False)
    fast_trace = fast.capture_trace()
    fast_log = _mixed_scenario(fast)

    ref = Environment(reference=True)
    ref_trace = ref.capture_trace()
    ref_log = _mixed_scenario(ref)

    assert len(fast_trace) > 50
    assert fast_trace == ref_trace
    assert fast_log == ref_log


def test_trace_identical_across_repeated_fast_runs():
    traces = []
    for _ in range(2):
        env = Environment(reference=False)
        t = env.capture_trace()
        _mixed_scenario(env)
        traces.append(t)
    assert traces[0] == traces[1]


def _with_reference_mode(enabled, fn):
    with runctx.using(replace(runctx.current(), engine_reference=enabled)):
        return fn()


def test_fig8_series_byte_identical_across_engine_modes():
    """Small Fig-8 slice: cluster sim output must not depend on the
    engine mode (the loop rewrite is observationally invisible)."""
    from repro.core import run_pi_job
    from repro.perf import Backend

    def sweep():
        out = []
        for backend in (Backend.JAVA_PPE, Backend.CELL_SPE_DIRECT):
            for n in (4, 8):
                out.append(run_pi_job(n, 1e9, backend).makespan_s)
        return out

    ref = _with_reference_mode(True, sweep)
    fast = _with_reference_mode(False, sweep)
    assert json.dumps(ref) == json.dumps(fast)


def test_fig6_series_byte_identical_across_engine_modes():
    """Small Fig-6 slice (raw single-node Pi rates), same contract."""
    from repro.core import raw_pi_rates

    samples = (1e3, 1e5, 1e7)
    ref = _with_reference_mode(True, lambda: raw_pi_rates(samples))
    fast = _with_reference_mode(False, lambda: raw_pi_rates(samples))
    ref_points = [(s.label, s.xs, s.ys) for s in ref]
    fast_points = [(s.label, s.xs, s.ys) for s in fast]
    assert json.dumps(ref_points) == json.dumps(fast_points)


# --------------------------------------------------------------------------- #
# Lazy cancellation: interrupts                                                #
# --------------------------------------------------------------------------- #
def test_interrupt_detaches_lazily_without_scan():
    env = Environment()
    barrier = env.timeout(100.0)
    woke = []

    def sleeper(i):
        try:
            yield barrier
            woke.append(("event", i, env.now))
        except Interrupt:
            woke.append(("interrupt", i, env.now))

    procs = [env.process(sleeper(i)) for i in range(5)]

    def killer():
        yield env.timeout(1.0)
        for p in reversed(procs[:3]):
            p.interrupt()

    env.process(killer())
    env.run()
    # The barrier still fires at t=100 with the stale callbacks attached;
    # the detached processes must not be resumed by it.
    assert sorted(woke) == sorted(
        [("interrupt", 0, 1.0), ("interrupt", 1, 1.0), ("interrupt", 2, 1.0),
         ("event", 3, 100.0), ("event", 4, 100.0)]
    )


def test_interrupted_process_can_rewait_on_same_event():
    env = Environment()
    evt = env.timeout(10.0, value="late")
    log = []

    def proc():
        try:
            yield evt
        except Interrupt:
            log.append(("interrupted", env.now))
        v = yield evt  # re-subscribe to the abandoned (still pending) event
        log.append((v, env.now))

    p = env.process(proc())

    def killer():
        yield env.timeout(1.0)
        p.interrupt()

    env.process(killer())
    env.run()
    assert log == [("interrupted", 1.0), ("late", 10.0)]


def test_stale_interrupt_on_dead_process_is_dropped():
    """Two same-instant interrupts: the first kills the process, the
    second lands on a corpse and must be swallowed (the eager engine
    crashed here)."""
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            return  # dies on the first interrupt

    p = env.process(sleeper())

    def killer():
        yield env.timeout(1.0)
        p.interrupt("first")
        p.interrupt("second")

    env.process(killer())
    env.run()
    assert not p.is_alive


def test_interrupting_dead_process_still_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


# --------------------------------------------------------------------------- #
# Lazy cancellation: resource queues                                           #
# --------------------------------------------------------------------------- #
def test_withdrawn_request_skipped_at_grant_time():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def impatient():
        yield env.timeout(1)
        req = res.request()
        yield env.timeout(1)
        req.cancel()

    def patient():
        yield env.timeout(3)
        with res.request() as req:
            yield req
            order.append(env.now)

    env.process(holder())
    env.process(impatient())
    env.process(patient())
    env.run()
    # The tombstoned request must not absorb the freed slot at t=5.
    assert order == [5]


def test_priority_queue_mass_cancel_compacts():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    served = []

    def holder():
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(10)

    def churn():
        yield env.timeout(1)
        reqs = [res.request(priority=5) for _ in range(200)]
        keeper = res.request(priority=7)
        yield env.timeout(1)
        for r in reqs:
            r.cancel()
        # Compaction must have swept most tombstones: the live count is
        # exact and the physical queue is bounded well below the 200
        # cancelled entries (only a sub-threshold tail may linger).
        assert res.queued == 1
        assert len(res._pqueue) < 64
        with keeper:
            granted_at = yield keeper
            served.append(env.now)

    env.process(holder())
    env.process(churn())
    env.run()
    assert served == [10]


def test_priority_resource_grants_when_queue_is_all_tombstones():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    got = []

    def holder():
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(5)

    def canceller():
        yield env.timeout(1)
        reqs = [res.request(priority=1) for _ in range(3)]
        yield env.timeout(1)
        for r in reqs:
            r.cancel()

    def late():
        # Arrives while the queue holds only tombstones and the holder
        # has released: must be granted immediately, not stranded.
        yield env.timeout(6)
        with res.request(priority=9) as req:
            yield req
            got.append(env.now)

    env.process(holder())
    env.process(canceller())
    env.process(late())
    env.run()
    assert got == [6]


# --------------------------------------------------------------------------- #
# Claim API                                                                    #
# --------------------------------------------------------------------------- #
def test_try_claim_respects_capacity_and_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    assert res.try_claim() is not None  # slot taken synchronously
    assert res.try_claim() is None  # full
    req = res.request()  # queues behind the claim
    assert not req.triggered
    assert res.try_claim() is None
    res.release_claim(res.users[0])
    env.run()
    assert req.triggered  # queued request granted on claim release
    res.release(req)
    # With a live queued request a fresh claim must not jump the queue.
    res2 = Resource(env, capacity=1)
    hold = res2.request()
    waiting = res2.request()
    assert res2.try_claim() is None
    res2.release(hold)
    env.run()
    assert waiting.triggered


def test_claim_released_on_interrupt():
    env = Environment()
    res = Resource(env, capacity=1)

    def claimer():
        claim = res.try_claim()
        assert claim is not None
        try:
            yield env.pooled_timeout(100.0)
        finally:
            res.release_claim(claim)

    p = env.process(claimer())

    def killer():
        yield env.timeout(1.0)
        p.interrupt()

    env.process(killer())
    with pytest.raises(Interrupt):
        env.run()
    assert res.count == 0  # finally released the slot


# --------------------------------------------------------------------------- #
# Pooled timeouts                                                              #
# --------------------------------------------------------------------------- #
def test_pooled_timeouts_recycle_and_deliver_values():
    env = Environment(reference=False)
    seen = []

    def proc():
        for i in range(5):
            v = yield env.pooled_timeout(1.0, value=i)
            seen.append((v, env.now))

    env.process(proc())
    env.run()
    assert seen == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]
    # The free-list actually recycled: a sequential chain alternates
    # between two pooled objects (the replacement is created during the
    # resume, before the dispatched one is reclaimed), so five sleeps
    # leave exactly two objects — not five — in the pool.
    assert len(env._timeout_pool) == 2


def test_pooled_timeout_rejects_negative_delay():
    env = Environment(reference=False)

    def proc():
        yield env.pooled_timeout(1.0)  # prime the pool

    env.process(proc())
    env.run()
    with pytest.raises(ValueError):
        env.pooled_timeout(-1.0)
    with pytest.raises(ValueError):
        env.composite_timeout(1.0, -0.5)


def test_composite_timeout_sums_phases():
    env = Environment()

    def proc():
        yield env.composite_timeout(1.0, 2.0, 0.5)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 3.5


def test_reference_mode_pooled_timeout_does_not_pool():
    env = Environment(reference=True)

    def proc():
        for _ in range(3):
            yield env.pooled_timeout(1.0)

    env.process(proc())
    env.run()
    assert env._timeout_pool == []


# --------------------------------------------------------------------------- #
# Batched scheduling                                                           #
# --------------------------------------------------------------------------- #
def test_start_processes_matches_eager_start_order():
    def build(batched):
        env = Environment()
        order = []

        def worker(i):
            order.append(("start", i, env.now))
            yield env.timeout(1)
            order.append(("end", i, env.now))

        if batched:
            procs = [env.process(worker(i), start=False) for i in range(6)]
            env.start_processes(procs)
        else:
            for i in range(6):
                env.process(worker(i))
        env.run()
        return order

    assert build(True) == build(False)


def test_schedule_many_preserves_fifo_ties():
    env = Environment()
    order = []

    def waiter(tag, evt):
        yield evt
        order.append(tag)

    events = [env.event() for _ in range(4)]
    for i, evt in enumerate(events):
        env.process(waiter(i, evt))
    for evt in events:
        evt._value = None
        evt._triggered = True
    env.schedule_many(events, delay=1.0)
    env.run()
    assert order == [0, 1, 2, 3]


# --------------------------------------------------------------------------- #
# run(until=...) flag reuse (sentinel micro-fix)                               #
# --------------------------------------------------------------------------- #
def test_run_until_event_twice_reuses_flag():
    env = Environment()

    def proc(delay, value):
        yield env.timeout(delay)
        return value

    p1 = env.process(proc(1, "a"))
    p2 = env.process(proc(2, "b"))
    assert env.run(p1) == "a"
    assert env.run(p2) == "b"
    assert env.now == 2


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    t = env.timeout(1, value="v")
    env.run()
    assert t.processed
    assert env.run(t) == "v"


def test_run_until_event_flag_not_leaked_on_exceptional_exit():
    """After a deadlocked run(until=ev1), the recycled completion flag
    must not remain subscribed to ev1 — a later run(until=ev2) would be
    stopped early (and report false completion) when ev1 fires."""
    env = Environment()
    ev1 = env.event()
    with pytest.raises(SimulationError):
        env.run(ev1)
    ev1.succeed("late")

    def proc():
        yield env.timeout(5)
        return "done"

    p = env.process(proc())
    assert env.run(p) == "done"
    assert env.now == 5


def test_nested_run_until_event():
    env = Environment()
    log = []

    def inner():
        yield env.timeout(1)
        return "inner"

    def outer():
        # A callback-driven nested run: the reusable flag must hand out
        # a fresh one instead of corrupting the outer run's flag.
        p = env.process(inner())
        v = yield p
        log.append(v)
        return "outer"

    p_out = env.process(outer())
    assert env.run(p_out) == "outer"
    assert log == ["inner"]


# --------------------------------------------------------------------------- #
# Store fast paths                                                             #
# --------------------------------------------------------------------------- #
def test_store_sync_completion_preserves_fifo():
    env = Environment()
    store = Store(env, capacity=2)
    log = []

    def producer():
        for i in range(6):
            yield store.put(i)
            log.append(("put", i, env.now))
            yield env.timeout(1)

    def consumer():
        yield env.timeout(2.5)
        while len(log) < 12:
            v = yield store.get()
            log.append(("got", v, env.now))

    env.process(producer())
    env.process(consumer())
    env.run(until=20)
    puts = [e for e in log if e[0] == "put"]
    gots = [e for e in log if e[0] == "got"]
    assert [p[1] for p in puts] == [0, 1, 2, 3, 4, 5]
    assert [g[1] for g in gots] == [0, 1, 2, 3, 4, 5]


def test_store_filtered_get_does_not_starve():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag, flt):
        v = yield store.get(flt)
        got.append((tag, v))

    env.process(consumer("odd", lambda x: x % 2 == 1))
    env.process(consumer("any", None))

    def producer():
        yield env.timeout(1)
        yield store.put(2)  # serves "any" even though "odd" queued first
        yield env.timeout(1)
        yield store.put(3)

    env.process(producer())
    env.run()
    assert sorted(got) == [("any", 2), ("odd", 3)]
