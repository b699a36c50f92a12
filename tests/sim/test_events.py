"""Unit tests for event composition, processes, and interrupts."""

import pytest

from repro.sim import AllOf, Environment, Interrupt


# --------------------------------------------------------------------------- #
# Basic events                                                                 #
# --------------------------------------------------------------------------- #
def test_event_succeed_delivers_value():
    env = Environment()
    evt = env.event()
    got = []

    def waiter():
        got.append((yield evt))

    env.process(waiter())

    def firer():
        yield env.timeout(1)
        evt.succeed("hello")

    env.process(firer())
    env.run()
    assert got == ["hello"]


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(RuntimeError):
        evt.succeed(2)
    with pytest.raises(RuntimeError):
        evt.fail(RuntimeError("x"))


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_event_value_before_trigger_raises():
    env = Environment()
    with pytest.raises(RuntimeError):
        _ = env.event().value


def test_failed_event_raises_at_yield_site():
    env = Environment()
    evt = env.event()
    caught = []

    def waiter():
        try:
            yield evt
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())

    def firer():
        yield env.timeout(1)
        evt.fail(ValueError("bad"))

    env.process(firer())
    env.run()
    assert caught == ["bad"]


def test_defused_failed_event_does_not_crash_run():
    env = Environment()
    evt = env.event()
    evt.fail(RuntimeError("ignored")).defused()
    env.run()  # should not raise


# --------------------------------------------------------------------------- #
# Processes                                                                    #
# --------------------------------------------------------------------------- #
def test_process_join_returns_value():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "done"

    def parent():
        v = yield env.process(child())
        return v

    p = env.process(parent())
    assert env.run(p) == "done"


def test_process_is_alive_lifecycle():
    env = Environment()

    def child():
        yield env.timeout(5)

    p = env.process(child())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_already_processed_event_resumes_without_rescheduling():
    env = Environment()

    def proc():
        t = env.timeout(0)
        yield env.timeout(1)
        # t has long been processed; yielding it must resume immediately.
        yield t
        return env.now

    p = env.process(proc())
    assert env.run(p) == 1


# --------------------------------------------------------------------------- #
# Interrupts                                                                   #
# --------------------------------------------------------------------------- #
def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            seen.append((env.now, i.cause))

    p = env.process(sleeper())

    def killer():
        yield env.timeout(3)
        p.interrupt("reason")

    env.process(killer())
    env.run()
    assert seen == [(3, "reason")]


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            log.append("interrupted")
        yield env.timeout(1)
        log.append(env.now)

    p = env.process(sleeper())

    def killer():
        yield env.timeout(2)
        p.interrupt()

    env.process(killer())
    env.run()
    assert log == ["interrupted", 3]


def test_interrupting_dead_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_uncaught_interrupt_fails_process():
    env = Environment()

    def sleeper():
        yield env.timeout(100)

    p = env.process(sleeper())

    def killer():
        yield env.timeout(1)
        p.interrupt("bang")

    env.process(killer())
    with pytest.raises(Interrupt):
        env.run()


# --------------------------------------------------------------------------- #
# Conditions                                                                   #
# --------------------------------------------------------------------------- #
def test_all_of_waits_for_every_event():
    env = Environment()
    done_at = []

    def proc():
        t1, t2, t3 = env.timeout(1), env.timeout(5), env.timeout(3)
        yield env.all_of([t1, t2, t3])
        done_at.append(env.now)

    env.process(proc())
    env.run()
    assert done_at == [5]


def test_condition_value_maps_events():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = yield env.all_of([t1, t2])
        return [result[t1], result[t2]]

    p = env.process(proc())
    assert env.run(p) == ["a", "b"]


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    p = env.process(proc())
    assert env.run(p) == 0


def test_all_of_propagates_failure():
    env = Environment()
    evt = env.event()

    def firer():
        yield env.timeout(1)
        evt.fail(ValueError("nope"))

    def waiter():
        yield env.all_of([env.timeout(10), evt])

    env.process(firer())
    p = env.process(waiter())
    with pytest.raises(ValueError):
        env.run()
    assert p.triggered and not p.ok
