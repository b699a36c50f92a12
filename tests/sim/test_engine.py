"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=5.5).now == 5.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(3.0)
        seen.append(env.now)
        yield env.timeout(1.5)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [3.0, 4.5]


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1, value="payload")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_exactly():
    env = Environment()
    ticks = []

    def proc():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(proc())
    env.run(until=5)
    assert ticks == [1, 2, 3, 4, 5]
    assert env.now == 5


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=3)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return 42

    p = env.process(proc())
    assert env.run(p) == 42
    assert env.now == 2


def test_run_until_never_triggered_event_is_deadlock():
    env = Environment()
    evt = env.event()

    def waiter():
        yield evt

    env.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(evt)


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for i in range(5):
        env.process(proc(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_step_on_empty_heap_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7


def test_determinism_same_structure_same_schedule():
    def build():
        env = Environment()
        log = []

        def worker(i):
            yield env.timeout(i % 3)
            log.append((env.now, i))
            yield env.timeout(1)
            log.append((env.now, i))

        for i in range(20):
            env.process(worker(i))
        env.run()
        return log

    assert build() == build()


def test_unhandled_process_failure_propagates_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(bad())
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_handled_failure_does_not_propagate():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1)
        raise RuntimeError("boom")

    def guard():
        try:
            yield env.process(bad())
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(guard())
    env.run()
    assert caught == ["boom"]


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(TypeError):
        env.run()
    assert p.triggered and not p.ok


def test_event_from_other_environment_rejected():
    env1, env2 = Environment(), Environment()

    def bad():
        yield env2.timeout(1)

    env1.process(bad())
    with pytest.raises(RuntimeError, match="different Environment"):
        env1.run()


def test_processed_event_count_increases():
    env = Environment()

    def proc():
        yield env.timeout(1)
        yield env.timeout(1)

    env.process(proc())
    env.run()
    assert env.processed_events >= 2


def _call_at_program(env, log):
    """Callbacks at absolute times, tied with process wakeups, both
    priorities, pooled reuse, and a superseded wakeup dropped by an
    identity test."""
    live = {}

    def note(ev):
        log.append((env.now, ev.value))

    def timer(ev):
        if ev is live.get("timer"):
            log.append((env.now, "timer"))

    def proc():
        for _ in range(3):
            yield env.pooled_timeout(0.5)
            log.append((env.now, "proc"))
            env.call_at(env.now, note, "now")
        live["timer"] = env.call_at(env.now + 2.0, timer)
        live["timer"] = env.call_at(env.now + 1.0, timer)  # supersedes

    env.call_at(1.0, note, "normal")
    env.call_at(1.0, note, "urgent", priority=env.URGENT)
    env.call_at(0.1 + 0.2, note, "float")
    env.process(proc())


def test_call_at_runs_callbacks_in_heap_order_in_both_loops():
    runs = []
    for reference in (False, True):
        env = Environment(reference=reference)
        trace = env.capture_trace()
        log = []
        _call_at_program(env, log)
        env.run()
        runs.append((trace, log))
    (trace, log), (ref_trace, ref_log) = runs
    assert trace == ref_trace
    assert log == ref_log
    assert log[0] == (0.1 + 0.2, "float")
    assert log[1:4] == [(0.5, "proc"), (0.5, "now"), (1.0, "urgent")]
    assert [entry for entry in log if entry[1] == "timer"] == [(2.5, "timer")]


def test_call_at_rejects_the_past():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.call_at(0.5, lambda ev: None)
