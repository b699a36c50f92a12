"""Property-based tests for the lazy-cancellation invariants.

PR-1 made cancellation lazy everywhere: a cancelled queued request is
tombstoned (``_withdrawn``) and dropped at pop time, with periodic
compaction bounding the garbage (``docs/PERFORMANCE.md``). These
hypothesis tests drive random interleavings of request/cancel/release
against :class:`Resource` and check, after
every single operation:

1. a withdrawn request is never served (never triggers, never appears
   among the users);
2. the stale-tombstone count always stays under the compaction policy's
   bound — compaction actually fires past the threshold;
3. capacity is never oversubscribed and live accounting stays exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt, Resource
from repro.sim.resources import _COMPACT_MIN

# One step of the interleaving: (operation, target pick).
_OPS = st.tuples(
    st.sampled_from(["request", "cancel", "release"]),
    st.integers(min_value=0, max_value=10**6),
)


def _stale_bound_ok(stale: int, queue_len: int) -> bool:
    """The compaction policy's invariant: once ``stale >= _COMPACT_MIN``
    and tombstones are at least half the queue, a sweep must have run."""
    return not (stale >= _COMPACT_MIN and stale * 2 >= queue_len and stale > 0)


def _check_invariants(res, granted, withdrawn):
    for r in withdrawn:
        assert not r._triggered, "withdrawn request was served"
        assert r not in res.users
    assert len(res.users) <= res.capacity
    assert res.queued >= 0
    assert _stale_bound_ok(res._stale, len(res.queue))
    # Every granted-and-not-yet-released request is accounted for.
    for r in granted:
        assert r in res.users


def _drive(res, ops):
    """Apply a random op sequence at the resource API level, checking
    the invariants after every operation."""
    issued = []          # every request ever made, in order
    granted = set()      # triggered and not yet released
    withdrawn = []       # cancelled while still queued
    for op, pick in ops:
        if op == "request":
            req = res.request()
            issued.append(req)
            if req._triggered:
                granted.add(req)
        elif issued:
            req = issued[pick % len(issued)]
            if op == "cancel" and not req._triggered and not req._withdrawn:
                req.cancel()
                withdrawn.append(req)
            elif op == "release" and req in granted:
                res.release(req)
                granted.discard(req)
                # The freed slot may have granted queued requests.
                for r in issued:
                    if r._triggered and not r._withdrawn and r in res.users:
                        granted.add(r)
        _check_invariants(res, granted, withdrawn)
    return withdrawn


@given(capacity=st.integers(min_value=1, max_value=4),
       ops=st.lists(_OPS, max_size=250))
@settings(max_examples=80, deadline=None)
def test_resource_random_interleaving_invariants(capacity, ops):
    env = Environment()
    res = Resource(env, capacity=capacity)
    withdrawn = _drive(res, ops)
    # Draining every queued request must still never revive a tombstone.
    for r in list(res.users):
        res.release(r)
    for r in withdrawn:
        assert not r._triggered


@given(
    holds=st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=1, max_size=8),
    cancels=st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_withdrawn_requests_never_served_under_simulation(holds, cancels, capacity):
    """Full-engine variant: holder processes occupy the resource while
    fickle processes request, wait a random delay, and cancel. No
    cancelled-in-queue request may ever be granted afterwards."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    served_after_withdraw = []

    def holder(d):
        with res.request() as req:
            yield req
            yield env.timeout(d)

    def fickle(i, d):
        req = res.request()
        yield env.timeout(d)
        if not req._triggered:
            req.cancel()
            was_withdrawn = req._withdrawn
            yield env.timeout(1.0)
            if was_withdrawn and req._triggered:
                served_after_withdraw.append(req)
        else:
            res.release(req)

    for d in holds:
        env.process(holder(d))
    for i, d in enumerate(cancels):
        env.process(fickle(i, d))
    env.run()
    assert not served_after_withdraw
    assert res.count == 0
    assert res.queued == 0


@given(n=st.integers(min_value=_COMPACT_MIN, max_value=4 * _COMPACT_MIN))
@settings(max_examples=20, deadline=None)
def test_mass_cancellation_compacts_past_threshold(n):
    """Cancelling a whole wave of queued requests must leave the queue
    compacted (tombstones swept), not a graveyard that pop-time skipping
    would have to wade through forever."""
    env = Environment()
    res = Resource(env, capacity=1)
    hold = res.request()
    assert hold._triggered
    reqs = [res.request() for _ in range(n)]
    for r in reqs:
        r.cancel()
    stale, qlen = res._stale, len(res.queue)
    tombstones = sum(1 for r in res.queue if r._withdrawn)
    assert tombstones == stale
    assert _stale_bound_ok(stale, qlen), "compaction did not fire past threshold"
    assert stale < _COMPACT_MIN, "tombstone garbage exceeds the policy bound"
    assert res.queued == 0
    res.release(hold)


def test_interrupted_waiter_does_not_leak_slot():
    """A waiter interrupted mid-queue releases via the context manager;
    the slot bookkeeping must come back to zero (regression guard for
    the tombstone + interrupt interaction)."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            order.append("holder")
            yield env.timeout(5.0)

    def victim():
        try:
            with res.request() as req:
                yield req
                order.append("victim")  # pragma: no cover - never granted
        except Interrupt:
            order.append("interrupted")

    def heir():
        with res.request() as req:
            yield req
            order.append("heir")

    env.process(holder())
    v = env.process(victim())
    env.process(heir())

    def killer():
        yield env.timeout(1.0)
        v.interrupt("go away")

    env.process(killer())
    env.run()
    assert order == ["holder", "interrupted", "heir"]
    assert res.count == 0 and res.queued == 0
