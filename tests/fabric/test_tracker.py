"""Fake-clock unit tests for the fleet's lease/retry/speculation state
machine — every failure schedule scripted in virtual time, no sockets,
no sleeps."""

import pytest

from repro.fabric import SweepTracker, TrackerConfig


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


def accept(tracker, worker, index, elapsed=1.0):
    return tracker.report_result(worker, index, elapsed)


def test_lease_grant_respects_batch_and_capacity():
    tracker, _ = make(total=6, batch_size=2)
    tracker.register("w0", capacity=4)
    verdict, grant = tracker.heartbeat("w0", free=4)
    assert verdict == "lease"
    assert grant == [0, 1]  # batch_size caps below capacity
    verdict, grant = tracker.heartbeat("w0", free=1)
    assert grant == [2]  # free capacity caps below batch_size


def test_unknown_worker_is_told_to_reregister():
    tracker, _ = make()
    assert tracker.heartbeat("ghost", free=1) == ("reregister", None)


def test_silent_worker_dies_and_its_leases_redispatch():
    tracker, clock = make(total=4, worker_timeout_s=1.0)
    tracker.register("w0", capacity=2)
    _, grant = tracker.heartbeat("w0", free=2)
    assert grant == [0, 1]
    tracker.register("w1", capacity=2)

    # w1 keeps heartbeating; w0 goes silent past the timeout.
    clock.advance(0.9)
    tracker.heartbeat("w1", free=0)
    clock.advance(0.2)
    tracker.tick()
    assert tracker.live_workers() == ["w1"]
    assert tracker.counters["dead_workers"] == 1
    assert tracker.counters["redispatched"] == 2

    # The revoked points come back *first* — they are the oldest work.
    _, regrant = tracker.heartbeat("w1", free=2)
    assert regrant == [0, 1]


def test_fresh_heartbeats_invalidate_stale_liveness_entries():
    tracker, clock = make(worker_timeout_s=1.0)
    tracker.register("w0", capacity=1)
    for _ in range(5):
        clock.advance(0.6)  # always inside the window
        verdict, _ = tracker.heartbeat("w0", free=0)
        assert verdict == "ok"
    assert tracker.live_workers() == ["w0"]
    assert tracker.counters["dead_workers"] == 0


def test_expired_lease_redispatches_without_killing_the_worker():
    tracker, clock = make(total=2, lease_timeout_s=2.0, worker_timeout_s=10.0)
    tracker.register("w0", capacity=1)
    _, grant = tracker.heartbeat("w0", free=1)
    assert grant == [0]
    clock.advance(2.5)
    tracker.tick()
    assert tracker.live_workers() == ["w0"]  # alive, just wedged
    assert tracker.counters["redispatched"] == 1
    tracker.register("w1", capacity=1)
    _, regrant = tracker.heartbeat("w1", free=1)
    assert regrant == [0]


def test_result_accepted_exactly_once_and_duplicates_counted():
    tracker, _ = make(total=2)
    tracker.register("w0", capacity=2)
    tracker.heartbeat("w0", free=2)
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
    tracker.register("w0", capacity=1)
    _, grant = tracker.heartbeat("w0", free=1)
    assert grant == [0]
    clock.advance(2.0)
    tracker.tick()
    assert tracker.live_workers() == []
    assert accept(tracker, "w0", 0) is True
    assert tracker.accepted[0][0] == "w0"


def test_reregister_revokes_but_late_results_remain_acceptable():
    tracker, _ = make(total=4)
    tracker.register("w0", capacity=2)
    _, grant = tracker.heartbeat("w0", free=2)
    assert grant == [0, 1]
    tracker.register("w0", capacity=2)  # the worker came back
    assert tracker.counters["redispatched"] == 2
    assert accept(tracker, "w0", 0) is True  # pre-revocation work lands


def test_failure_retries_with_exponential_backoff():
    tracker, clock = make(total=1, retry_backoff_s=0.5, max_attempts=3)
    tracker.register("w0", capacity=1)
    assert tracker.heartbeat("w0", free=1)[1] == [0]
    tracker.report_failure("w0", 0, "boom")
    assert tracker.counters["retries"] == 1

    # Not requeued until the backoff elapses.
    tracker.tick()
    assert tracker.heartbeat("w0", free=1) == ("ok", None)
    clock.advance(0.6)
    assert tracker.heartbeat("w0", free=1)[1] == [0]

    # Second failure waits twice as long.
    tracker.report_failure("w0", 0, "boom")
    clock.advance(0.6)
    assert tracker.heartbeat("w0", free=1) == ("ok", None)
    clock.advance(0.5)
    assert tracker.heartbeat("w0", free=1)[1] == [0]


def test_quarantine_after_max_attempts_poisons_the_sweep():
    tracker, clock = make(total=2, max_attempts=2, retry_backoff_s=0.1)
    tracker.register("w0", capacity=1)
    assert tracker.heartbeat("w0", free=1)[1] == [0]
    tracker.report_failure("w0", 0, "boom 1")
    clock.advance(0.2)
    assert tracker.heartbeat("w0", free=1)[1] == [0]
    tracker.report_failure("w0", 0, "boom 2")
    assert tracker.poisoned
    assert tracker.poison == {0: "boom 2"}
    assert tracker.counters["quarantined"] == 1
    assert tracker.heartbeat("w0", free=1) == ("abort", None)


def test_speculation_replicates_stragglers_onto_idle_workers():
    tracker, clock = make(
        total=5, batch_size=4, worker_timeout_s=100.0, lease_timeout_s=100.0,
        speculation_quantile=0.5, speculation_factor=2.0,
        speculation_min_completed=3, max_replicas=2)
    tracker.register("w0", capacity=4)
    _, grant = tracker.heartbeat("w0", free=4)
    assert grant == [0, 1, 2, 3]
    for index in (0, 1, 2):
        accept(tracker, "w0", index, elapsed=1.0)
    _, grant = tracker.heartbeat("w0", free=1)
    assert grant == [4]  # queue drains before speculation

    # Point 3 has now been running 5x the median: an idle second
    # worker picks up a speculative replica.
    clock.advance(5.0)
    tracker.register("w1", capacity=1)
    verdict, grant = tracker.heartbeat("w1", free=1)
    assert (verdict, grant) == ("lease", [3])
    assert tracker.counters["speculative"] == 1

    # Point 4 is a straggler too (one replica so far): a third idle
    # worker replicates it...
    tracker.register("w2", capacity=1)
    assert tracker.heartbeat("w2", free=1) == ("lease", [4])
    assert tracker.counters["speculative"] == 2

    # ...but max_replicas stops any further attempt on either point.
    tracker.register("w3", capacity=1)
    assert tracker.heartbeat("w3", free=1) == ("ok", None)

    # The replica wins; the original's late delivery is a duplicate.
    assert accept(tracker, "w1", 3, elapsed=0.5) is True
    assert tracker.counters["speculative_wins"] == 1
    assert accept(tracker, "w0", 3) is False
    assert tracker.counters["duplicates"] == 1


def test_speculation_needs_enough_samples():
    tracker, clock = make(total=3, batch_size=4, worker_timeout_s=1000.0,
                          lease_timeout_s=1000.0, speculation_min_completed=3)
    tracker.register("w0", capacity=4)
    tracker.heartbeat("w0", free=4)
    accept(tracker, "w0", 0, elapsed=0.1)
    clock.advance(100.0)
    tracker.register("w1", capacity=1)
    # Only one duration on record: never speculate, however long the
    # remaining points have been running.
    assert tracker.heartbeat("w1", free=1) == ("ok", None)


def test_prefilled_points_are_never_leased():
    tracker, _ = make(total=4)
    tracker.prefill(0)
    tracker.prefill(1)
    tracker.register("w0", capacity=4)
    _, grant = tracker.heartbeat("w0", free=4)
    assert grant == [2, 3]
    accept(tracker, "w0", 2)
    accept(tracker, "w0", 3)
    assert tracker.finished
    assert tracker.heartbeat("w0", free=1) == ("done", None)
    acct = tracker.accounting()
    assert acct["prefilled"] == 2
    assert acct["accepted"] == 2
    assert acct["completed"] == 4


def test_accounting_is_exactly_once_under_a_messy_schedule():
    tracker, clock = make(total=4, worker_timeout_s=1.0,
                          retry_backoff_s=0.1, batch_size=4)
    tracker.register("w0", capacity=4)
    tracker.heartbeat("w0", free=4)
    accept(tracker, "w0", 0)
    tracker.report_failure("w0", 1, "flake")
    clock.advance(2.0)  # w0 dies; 2, 3 revoke; retry for 1 comes due
    tracker.register("w1", capacity=4)
    _, grant = tracker.heartbeat("w1", free=4)
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
    tracker.register("w0", capacity=1)
    assert tracker.report_result("w0", bad, 0.1) is False
    assert tracker.counters["duplicates"] == 1
