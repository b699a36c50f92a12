"""Fake-clock unit tests for the daemon's lease/retry/speculation state
machine and its worker liveness table — every failure schedule scripted
in virtual time, no sockets, no sleeps."""

import pytest

from repro.fabric import SweepTracker, TrackerConfig, WorkerTable


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make(total=6, **cfg):
    clock = Clock()
    defaults = dict(worker_timeout_s=1.0, lease_timeout_s=10.0,
                    batch_size=2, max_attempts=3, retry_backoff_s=0.5)
    defaults.update(cfg)
    tracker = SweepTracker(range(total), total,
                           config=TrackerConfig(**defaults), clock=clock)
    return tracker, clock


def workers(clock, timeout_s=1.0):
    return WorkerTable(timeout_s, clock)


def tick(table, tracker):
    """One daemon monitor tick: dead workers lose their leases."""
    for name in table.tick():
        tracker.revoke(name)
    tracker.tick()


def accept(tracker, worker, index, elapsed=1.0):
    return tracker.report_result(worker, index, elapsed)


def test_lease_grant_respects_batch_and_capacity():
    tracker, _ = make(total=6, batch_size=2)
    assert tracker.grant("w0", 4) == [0, 1]  # batch_size caps below capacity
    assert tracker.grant("w0", 1) == [2]  # free capacity caps below batch_size


def test_unknown_worker_is_told_to_reregister():
    _, clock = make()
    assert not workers(clock).beat("ghost")


def test_silent_worker_dies_and_its_leases_redispatch():
    tracker, clock = make(total=4, worker_timeout_s=1.0)
    table = workers(clock, 1.0)
    table.register("w0")
    assert tracker.grant("w0", 2) == [0, 1]
    table.register("w1")

    # w1 keeps heartbeating; w0 goes silent past the timeout.
    clock.advance(0.9)
    assert table.beat("w1")
    clock.advance(0.2)
    tick(table, tracker)
    assert table.live() == ["w1"]
    assert table.dead == 1
    assert tracker.counters["redispatched"] == 2

    # The revoked points come back *first* — they are the oldest work.
    assert tracker.grant("w1", 2) == [0, 1]


def test_fresh_heartbeats_invalidate_stale_liveness_entries():
    _, clock = make()
    table = workers(clock, 1.0)
    table.register("w0")
    for _ in range(5):
        clock.advance(0.6)  # always inside the window
        assert table.beat("w0")
        assert table.tick() == []
    assert table.live() == ["w0"]
    assert table.dead == 0


def test_expired_lease_redispatches_without_killing_the_worker():
    tracker, clock = make(total=2, lease_timeout_s=2.0, worker_timeout_s=10.0)
    table = workers(clock, 10.0)
    table.register("w0")
    assert tracker.grant("w0", 1) == [0]
    clock.advance(2.5)
    tick(table, tracker)
    assert table.live() == ["w0"]  # alive, just wedged
    assert tracker.counters["redispatched"] == 1
    assert tracker.grant("w1", 1) == [0]


def test_local_leases_never_expire():
    tracker, clock = make(total=2, lease_timeout_s=2.0)
    assert tracker.grant("", 1, expires=False) == [0]
    clock.advance(100.0)
    tracker.tick()
    assert tracker.counters["redispatched"] == 0
    assert tracker.grant("w0", 1) == [1]


def test_result_accepted_exactly_once_and_duplicates_counted():
    tracker, _ = make(total=2)
    tracker.grant("w0", 2)
    assert accept(tracker, "w0", 0) is True
    assert accept(tracker, "w0", 0) is False
    assert accept(tracker, "w1", 0) is False  # zombie from elsewhere
    assert tracker.counters["duplicates"] == 2
    assert list(tracker.accepted) == [0]
    assert tracker.counters["results_accepted"] == 1


def test_result_without_live_lease_still_counts():
    # A worker partitioned long enough to be declared dead delivers its
    # finished point after re-registering: the work is not wasted.
    tracker, clock = make(total=2, worker_timeout_s=1.0)
    table = workers(clock, 1.0)
    table.register("w0")
    assert tracker.grant("w0", 1) == [0]
    clock.advance(2.0)
    tick(table, tracker)
    assert table.live() == []
    assert accept(tracker, "w0", 0) is True
    assert tracker.accepted[0][0] == "w0"


def test_reregister_revokes_but_late_results_remain_acceptable():
    tracker, clock = make(total=4)
    table = workers(clock)
    assert table.register("w0") is False
    assert tracker.grant("w0", 2) == [0, 1]
    if table.register("w0"):  # the worker came back: a new incarnation
        tracker.revoke("w0")
    assert tracker.counters["redispatched"] == 2
    assert accept(tracker, "w0", 0) is True  # pre-revocation work lands


def test_failure_retries_with_exponential_backoff():
    tracker, clock = make(total=1, retry_backoff_s=0.5, max_attempts=3)
    assert tracker.grant("w0", 1) == [0]
    tracker.report_failure("w0", 0, "boom")
    assert tracker.counters["retries"] == 1

    # Not requeued until the backoff elapses.
    tracker.tick()
    assert tracker.grant("w0", 1) == []
    clock.advance(0.6)
    assert tracker.grant("w0", 1) == [0]

    # Second failure waits twice as long.
    tracker.report_failure("w0", 0, "boom")
    clock.advance(0.6)
    assert tracker.grant("w0", 1) == []
    clock.advance(0.5)
    assert tracker.grant("w0", 1) == [0]


def test_quarantine_after_max_attempts_poisons_the_sweep():
    tracker, clock = make(total=2, max_attempts=2, retry_backoff_s=0.1)
    assert tracker.grant("w0", 1) == [0]
    tracker.report_failure("w0", 0, "boom 1")
    clock.advance(0.2)
    assert tracker.grant("w0", 1) == [0]
    tracker.report_failure("w0", 0, "boom 2")
    assert tracker.poisoned
    assert tracker.poison == {0: "boom 2"}
    assert tracker.counters["quarantined"] == 1


def test_speculation_replicates_stragglers_onto_idle_workers():
    tracker, clock = make(
        total=5, batch_size=4, worker_timeout_s=100.0, lease_timeout_s=100.0,
        speculation_quantile=0.5, speculation_factor=2.0,
        speculation_min_completed=3, max_replicas=2)
    assert tracker.grant("w0", 4) == [0, 1, 2, 3]
    for index in (0, 1, 2):
        accept(tracker, "w0", index, elapsed=1.0)
    assert tracker.grant("w0", 1) == [4]  # queue drains before speculation

    # Point 3 has now been running 5x the median: an idle second
    # worker picks up a speculative replica.
    clock.advance(5.0)
    assert tracker.grant("w1", 1) == [3]
    assert tracker.counters["speculative"] == 1

    # Point 4 is a straggler too (one replica so far): a third idle
    # worker replicates it...
    assert tracker.grant("w2", 1) == [4]
    assert tracker.counters["speculative"] == 2

    # ...but max_replicas stops any further attempt on either point.
    assert tracker.grant("w3", 1) == []

    # The replica wins; the original's late delivery is a duplicate.
    assert accept(tracker, "w1", 3, elapsed=0.5) is True
    assert tracker.counters["speculative_wins"] == 1
    assert accept(tracker, "w0", 3) is False
    assert tracker.counters["duplicates"] == 1


def test_speculation_needs_enough_samples():
    tracker, clock = make(total=3, batch_size=4, worker_timeout_s=1000.0,
                          lease_timeout_s=1000.0, speculation_min_completed=3)
    tracker.grant("w0", 4)
    accept(tracker, "w0", 0, elapsed=0.1)
    clock.advance(100.0)
    # Only one duration on record: never speculate, however long the
    # remaining points have been running.
    assert tracker.grant("w1", 1) == []


def test_prefilled_points_are_never_leased():
    tracker, _ = make(total=4)
    tracker.prefill(0)
    tracker.prefill(1)
    assert tracker.grant("w0", 4) == [2, 3]
    accept(tracker, "w0", 2)
    accept(tracker, "w0", 3)
    assert tracker.finished
    assert tracker.grant("w0", 1) == []
    acct = tracker.accounting()
    assert acct["prefilled"] == 2
    assert acct["accepted"] == 2
    assert acct["completed"] == 4


def test_accounting_is_exactly_once_under_a_messy_schedule():
    tracker, clock = make(total=4, worker_timeout_s=1.0,
                          retry_backoff_s=0.1, batch_size=4)
    table = workers(clock, 1.0)
    table.register("w0")
    tracker.grant("w0", 4)
    accept(tracker, "w0", 0)
    tracker.report_failure("w0", 1, "flake")
    clock.advance(2.0)  # w0 dies; 2, 3 revoke; retry for 1 comes due
    tick(table, tracker)
    table.register("w1")
    grant = tracker.grant("w1", 4)
    assert sorted(grant) == [1, 2, 3]
    for index in grant:
        accept(tracker, "w1", index)
    accept(tracker, "w0", 2)  # zombie delivery
    assert tracker.finished
    acct = tracker.accounting()
    assert acct["accepted"] == 4
    assert acct["completed"] == 4
    assert acct["duplicates"] == 1
    assert sorted(tracker.accepted) == [0, 1, 2, 3]


@pytest.mark.parametrize("bad", [-1, 99])
def test_out_of_range_results_are_dropped(bad):
    tracker, _ = make(total=4)
    assert tracker.report_result("w0", bad, 0.1) is False
    assert tracker.counters["duplicates"] == 1
