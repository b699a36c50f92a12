"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store


# --------------------------------------------------------------------------- #
# Resource                                                                     #
# --------------------------------------------------------------------------- #
def test_resource_serializes_at_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def worker(i):
        with res.request() as req:
            yield req
            log.append(("start", i, env.now))
            yield env.timeout(10)
        log.append(("end", i, env.now))

    for i in range(4):
        env.process(worker(i))
    env.run()
    starts = {i: t for op, i, t in log if op == "start"}
    assert starts == {0: 0, 1: 0, 2: 10, 3: 10}


def test_resource_grants_in_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def worker(i):
        yield env.timeout(1)
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    env.process(holder())
    for i in range(3):
        env.process(worker(i))
    env.run()
    assert order == [0, 1, 2]


def test_resource_count_and_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def waiter():
        yield env.timeout(1)
        with res.request() as req:
            yield req

    env.process(holder())
    env.process(waiter())
    env.run(until=2)
    assert res.count == 1
    assert len(res.queue) == 1
    env.run()
    assert res.count == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_context_manager_releases_on_exception():
    env = Environment()
    res = Resource(env, capacity=1)

    def failing():
        with res.request() as req:
            yield req
            raise RuntimeError("die")

    def after():
        yield env.timeout(1)
        with res.request() as req:
            yield req
            return env.now

    env.process(failing())
    p = env.process(after())
    with pytest.raises(RuntimeError):
        env.run()
    # The slot was released despite the crash; the second process gets it.
    assert env.run(p) == 1


def test_cancel_queued_request_withdraws_it():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    env.process(holder())

    def impatient():
        yield env.timeout(1)
        req = res.request()
        yield env.timeout(1)
        req.cancel()
        granted.append(req.triggered)

    env.process(impatient())
    env.run(until=3)
    # Lazy cancellation: the entry may linger as a tombstone, but it no
    # longer counts as queued and must never be granted.
    assert res.queued == 0
    env.run()
    assert granted == [False]
    assert res.count == 0


# --------------------------------------------------------------------------- #
# Store                                                                         #
# --------------------------------------------------------------------------- #
def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    put_times = []

    def producer():
        for i in range(3):
            yield store.put(i)
            put_times.append(env.now)

    def consumer():
        while True:
            yield env.timeout(5)
            yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run(until=20)
    assert put_times == [0, 5, 10]


def test_store_len():
    env = Environment()
    store = Store(env)

    def producer():
        yield store.put("a")
        yield store.put("b")

    env.process(producer())
    env.run()
    assert len(store) == 2
