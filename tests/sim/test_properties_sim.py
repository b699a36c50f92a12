"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_time_never_goes_backwards(delays):
    """Observed timestamps across arbitrary timeout processes are sorted."""
    env = Environment()
    observed = []

    def proc(d):
        yield env.timeout(d)
        observed.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    works=st.lists(st.floats(min_value=0.1, max_value=10), min_size=1, max_size=25),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_oversubscribed(capacity, works):
    """At no instant do more than `capacity` processes hold the resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = [0]

    def worker(w):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            yield env.timeout(w)

    for w in works:
        env.process(worker(w))
    env.run()
    assert max_seen[0] <= capacity
    assert res.count == 0


@given(items=st.lists(st.integers(), min_size=0, max_size=40))
@settings(max_examples=50, deadline=None)
def test_store_preserves_items_and_order(items):
    """Everything put into a Store comes out, in FIFO order."""
    env = Environment()
    store = Store(env)
    out = []

    def producer():
        for it in items:
            yield store.put(it)

    def consumer():
        for _ in items:
            out.append((yield store.get()))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == items


@given(
    sizes=st.lists(st.floats(min_value=1, max_value=1e6), min_size=1, max_size=15),
    bw=st.floats(min_value=1, max_value=1e9),
)
@settings(max_examples=50, deadline=None)
def test_pipe_serialized_duration_is_sum(sizes, bw):
    """A serialized pipe's total busy time equals the sum of service times."""
    from repro.sim import Pipe

    env = Environment()
    pipe = Pipe(env, bandwidth_bps=bw)
    end = [0.0]

    def xfer(n):
        yield env.process(pipe.transfer(n))
        end[0] = env.now

    for n in sizes:
        env.process(xfer(n))
    env.run()
    expected = sum(n / bw for n in sizes)
    assert abs(end[0] - expected) < 1e-6 * max(1.0, expected)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_engine_determinism_under_seeded_load(seed):
    """A randomized workload replayed with the same seed gives identical
    event schedules (the reproduction's determinism guarantee)."""
    import numpy as np

    def run_once():
        rng = np.random.default_rng(seed)
        env = Environment()
        res = Resource(env, capacity=3)
        log = []

        def worker(i, d1, d2):
            yield env.timeout(d1)
            with res.request() as req:
                yield req
                log.append((round(env.now, 9), i))
                yield env.timeout(d2)

        for i in range(20):
            env.process(worker(i, float(rng.random()), float(rng.random())))
        env.run()
        return log

    assert run_once() == run_once()
