"""The simulation event loop.

:class:`Environment` owns the virtual clock and the event heap. Events are
ordered by ``(time, priority, sequence)`` so that simultaneous events run
in a deterministic FIFO order — determinism is a hard requirement for the
reproduction benchmarks (same seed, same schedule, same numbers).

Engine internals (see ``docs/PERFORMANCE.md`` for the full contract):

- :meth:`Environment.run` inlines the pop-advance-dispatch cycle with
  local-variable binding, and has a dedicated fast path for the dominant
  event class (a :class:`Timeout` resuming a single waiting
  :class:`Process`).
- A :class:`Timeout` free-list (:meth:`pooled_timeout`) recycles timeout
  objects on the hot paths where the yielded event is consumed
  immediately and never stored.
- :meth:`composite_timeout` collapses a deterministic chain of pure
  delays into one event; :meth:`schedule_many` batch-pushes events and
  backs :meth:`start_processes`.
- Reference mode (``reference=True``, a bound
  :class:`~repro.runctx.RunContext` with ``engine_reference``, or
  ``REPRO_SIM_REFERENCE=1``) runs the pre-overhaul ``step()``-per-event
  loop without pooling or fast dispatch. Both modes must produce
  identical ``(time, priority, seq, event-class)`` traces — the
  determinism tests assert exactly that, and the count budget
  (``tests/test_count_budget.py``) holds both loops to one event cap.
"""

from __future__ import annotations

from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Generator, Iterable, Optional

from repro import runctx
from repro.sim.events import (
    AllOf,
    Environment_NORMAL,
    Environment_URGENT,
    Event,
    Initialize,
    Process,
    Timeout,
)

__all__ = ["Environment", "SimulationError"]

#: Upper bound on the Timeout free-list, to keep memory bounded when a
#: burst of concurrent timeouts drains at once.
_TIMEOUT_POOL_MAX = 1024


class SimulationError(RuntimeError):
    """Raised for structural simulation errors (deadlock, bad run bound)."""


class _StopFlag:
    """Reusable bound flag for ``run(until=Event)``.

    Appending one shared callable object instead of a fresh closure per
    call keeps tight driver loops (one ``run()`` per job) allocation-free.
    """

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = False

    def __call__(self, _event: Event) -> None:
        self.done = True


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (seconds by convention
        throughout this project).
    reference:
        ``True`` forces the reference (pre-overhaul) event loop,
        ``False`` the optimized one; ``None`` uses the bound run context
        (:func:`repro.runctx.current`). Both loops are trace-identical.

    Notes
    -----
    The engine is single-threaded and fully deterministic: ties in time
    are broken by scheduling priority, then by a monotonically increasing
    sequence number.
    """

    URGENT = Environment_URGENT
    NORMAL = Environment_NORMAL

    def __init__(self, initial_time: float = 0.0, reference: Optional[bool] = None):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._processed_count = 0
        self._reference = (runctx.current().engine_reference if reference is None
                           else bool(reference))
        self._timeout_pool: list[Timeout] = []
        self._trace: Optional[list[tuple[float, int, int, str]]] = None
        self._until_flag: Optional[_StopFlag] = _StopFlag()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (monitoring aid)."""
        return self._processed_count

    # -- event tracing -----------------------------------------------------------
    def capture_trace(self, sink: Optional[list] = None) -> list:
        """Record ``(time, priority, seq, event-class-name)`` per processed
        event into ``sink`` (a fresh list if omitted) and return it.

        The trace is the engine's determinism contract: the reference and
        optimized loops must produce identical traces for the same
        program. Tracing costs one branch per event when enabled.
        """
        self._trace = [] if sink is None else sink
        return self._trace

    def stop_trace(self) -> None:
        """Stop recording processed events."""
        self._trace = None

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A recycled :class:`Timeout` from the engine's free-list.

        Contract: the returned event must be yielded immediately and
        never stored, composed into an :class:`AllOf`, or inspected after
        it resumes the waiter — the engine reclaims the object as soon as
        its callbacks have run. Internal hot paths (pipes, Cell offloads,
        service delays) use this; general code should call
        :meth:`timeout`. In reference mode this degrades to a plain
        :meth:`timeout` so both engine modes stay trace-identical while
        the reference loop keeps the pre-overhaul allocation behaviour.
        """
        pool = self._timeout_pool
        if pool:  # never populated in reference mode
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            t = pool.pop()
            t.delay = delay
            t._value = value
            t._processed = False
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self._now + delay, Environment_NORMAL, seq, t))
            return t
        t = Timeout(self, delay, value)
        if not self._reference:
            t._recycle = True
        return t

    def composite_timeout(self, *delays: float, value: Any = None) -> Timeout:
        """One event covering a chain of deterministic delay phases.

        Collapses ``timeout(d1); timeout(d2); ...`` — a multi-phase
        compute chain with nothing observing the phase boundaries — into
        a single scheduled event. Subject to the :meth:`pooled_timeout`
        contract (yield immediately, do not store).
        """
        total = 0.0
        for d in delays:
            if d < 0:
                raise ValueError(f"negative timeout delay: {d}")
            total += d
        return self.pooled_timeout(total, value)

    def call_at(
        self,
        when: float,
        callback: Callable[[Event], None],
        value: Any = None,
        priority: int = NORMAL,
    ) -> Timeout:
        """Run ``callback(event)`` at absolute virtual time ``when``.

        The callback-driven counterpart of a process sleeping on a
        timeout: one heap entry, no generator. ``event.value`` carries
        ``value``. The event comes from the :meth:`pooled_timeout`
        free-list, so the caller may keep it only to recognise it (an
        identity test drops a superseded wakeup) until it fires, never
        afterwards. ``when`` is pushed as given, so a deadline computed
        by the caller lands on exactly that float.
        """
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        pool = self._timeout_pool
        if pool:  # never populated in reference mode
            t = pool.pop()
            t._value = value
            t._processed = False
        else:
            t = Timeout.__new__(Timeout)
            t.env = self
            t.callbacks = []
            t._value = value
            t._exc = None
            t._triggered = True
            t._processed = False
            t._defused = False
            t._recycle = not self._reference
        t.delay = when - self._now
        t.callbacks.append(callback)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, priority, seq, t))
        return t

    def process(self, gen: Generator, name: Optional[str] = None, start: bool = True) -> Process:
        """Start a new process from generator ``gen``.

        With ``start=False`` the process is created but its initial
        resume is not scheduled; pass it to :meth:`start_processes` to
        batch-schedule several starts with one heap pass.
        """
        return Process(self, gen, name=name, start=start)

    def all_of(self, events) -> AllOf:
        """Event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the heap ``delay`` from now."""
        self._seq += 1
        heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def schedule_many(
        self, events: Iterable[Event], delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Batch-schedule triggered events sharing one delay and priority.

        Sequence numbers are assigned in iteration order, so this is
        trace-identical to calling :meth:`schedule` in a loop — it only
        hoists the per-call attribute traffic out of the loop.
        """
        t = self._now + delay
        heap = self._heap
        seq = self._seq
        for event in events:
            seq += 1
            heappush(heap, (t, priority, seq, event))
        self._seq = seq

    def start_processes(self, procs: Iterable[Process]) -> None:
        """Batch-schedule the initial resume of processes created with
        ``start=False`` (same trace as starting each one eagerly)."""
        self.schedule_many(
            [Initialize(self, p, schedule=False) for p in procs],
            priority=Environment_URGENT,
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (the reference dispatch path).

        Raises
        ------
        SimulationError
            If the heap is empty.
        """
        if not self._heap:
            raise SimulationError("no more events to process")
        t, prio, seq, event = heappop(self._heap)
        if t < self._now:  # pragma: no cover - defensive; cannot happen
            raise SimulationError(f"time went backwards: {t} < {self._now}")
        self._now = t
        if self._trace is not None:
            self._trace.append((t, prio, seq, event.__class__.__name__))
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        self._processed_count += 1
        for cb in callbacks:
            cb(event)
        if event._exc is not None and not event._defused:
            # Unhandled failure: nobody waited on this event.
            raise event._exc
        if event.__class__ is Timeout and event._recycle:
            event._value = None
            pool = self._timeout_pool
            if len(pool) < _TIMEOUT_POOL_MAX:
                pool.append(event)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the heap drains.
            a number — run until the clock reaches that time.
            an :class:`Event` — run until that event is processed and
            return its value.
        """
        if self._reference:
            return self._run_reference(until)

        if until is None:
            self._drain(float("inf"), None)
            return None

        if isinstance(until, Event):
            target = until
            if target._processed:
                return target._value if target._exc is None else _reraise(target._exc)
            # Micro-fix: reuse one bound flag object instead of allocating
            # a sentinel list + closure per call (nested runs fall back to
            # a fresh flag).
            flag = self._until_flag
            if flag is None:
                flag = _StopFlag()
            else:
                self._until_flag = None
            flag.done = False
            target.callbacks.append(flag)
            try:
                self._drain(float("inf"), flag)
            finally:
                if not flag.done:
                    # Exceptional exit (propagated failure or the deadlock
                    # below): unsubscribe before pooling the flag, or a
                    # later run(until=...) could be stopped early by this
                    # stale subscription firing.
                    try:
                        target.callbacks.remove(flag)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                self._until_flag = flag
            if not flag.done:
                raise SimulationError(
                    f"simulation ran out of events before {target!r} triggered "
                    "(deadlock: a process is waiting on an event nobody will fire)"
                )
            return target._value if target._exc is None else _reraise(target._exc)

        stop_at = float(until)
        if stop_at < self._now:
            raise SimulationError(f"run(until={stop_at}) is in the past (now={self._now})")
        self._drain(stop_at, None)
        self._now = stop_at
        return None

    # -- optimized inner loop ------------------------------------------------------
    def _drain(self, stop_at: float, flag: Optional[_StopFlag]) -> None:
        """Inlined pop-advance-dispatch cycle.

        One loop serves all three ``run`` modes; everything hot is bound
        to locals. Two nested fast paths handle the dominant traffic:

        1. the dominant event class — a :class:`Timeout`, which is
           triggered at construction and can never fail, so the failure
           check is skipped and the free-list is fed;
        2. the dominant waiter — a single :class:`Process` whose
           generator is advanced right here (one ``send``, the fresh
           Timeout it yields back subscribed inline), skipping the
           generic callback-list iteration and the ``_resume`` call
           frame. Anything unusual falls back to the shared slow paths
           (``Process._resume`` / ``Process._after_yield``).

        The dispatch order, clock updates, and failure propagation are
        identical to :meth:`step` — the determinism tests compare full
        event traces between the two loops.
        """
        heap = self._heap
        pop = heappop
        pool = self._timeout_pool
        pool_max = _TIMEOUT_POOL_MAX
        timeout_cls = Timeout
        method_cls = MethodType
        resume_func = Process._resume
        trace = self._trace  # bound once: enabling tracing mid-run is unsupported
        processed = 0
        try:
            while heap:
                t, prio, seq, event = pop(heap)
                if t > stop_at:
                    # Pop-then-push-back beats peeking every iteration:
                    # this branch runs at most once per run() call.
                    heappush(heap, (t, prio, seq, event))
                    break
                self._now = t
                if trace is not None:
                    trace.append((t, prio, seq, event.__class__.__name__))
                processed += 1
                event._processed = True
                callbacks = event.callbacks
                if event.__class__ is timeout_cls:
                    if len(callbacks) == 1:
                        cb = callbacks[0]
                        callbacks.clear()  # reuse the list: event.callbacks stays valid
                        if cb.__class__ is method_cls and cb.__func__ is resume_func:
                            # Inline Process._resume's dominant leg.
                            proc = cb.__self__
                            if event is proc._target:  # else: stale wakeup, drop
                                proc._target = None
                                try:
                                    nxt = proc.gen.send(event._value)
                                except StopIteration as stop:
                                    proc.succeed(stop.value)
                                except BaseException as exc:
                                    proc.fail(exc)
                                else:
                                    if (
                                        nxt.__class__ is timeout_cls
                                        and not nxt._processed
                                        and nxt.env is self
                                    ):
                                        nxt.callbacks.append(cb)
                                        proc._target = nxt
                                    else:
                                        proc._after_yield(nxt)
                        else:
                            cb(event)
                    else:
                        event.callbacks = []
                        for cb in callbacks:
                            cb(event)
                    if event._recycle and len(pool) < pool_max:
                        event._value = None
                        pool.append(event)
                else:
                    event.callbacks = []
                    for cb in callbacks:
                        cb(event)
                    exc = event._exc
                    if exc is not None and not event._defused:
                        raise exc
                if flag is not None and flag.done:
                    break
        finally:
            self._processed_count += processed

    # -- reference loop -------------------------------------------------------------
    def _run_reference(self, until: Any) -> Any:
        """The pre-overhaul loop: one :meth:`step` call per event."""
        if until is None:
            while self._heap:
                self.step()
            return None

        if isinstance(until, Event):
            target = until
            if target._processed:
                return target._value if target._exc is None else _reraise(target._exc)
            flag = self._until_flag
            if flag is None:
                flag = _StopFlag()
            else:
                self._until_flag = None
            flag.done = False
            target.callbacks.append(flag)
            try:
                while not flag.done:
                    if not self._heap:
                        raise SimulationError(
                            f"simulation ran out of events before {target!r} triggered "
                            "(deadlock: a process is waiting on an event nobody will fire)"
                        )
                    self.step()
            finally:
                if not flag.done:
                    try:
                        target.callbacks.remove(flag)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                self._until_flag = flag
            return target._value if target._exc is None else _reraise(target._exc)

        stop_at = float(until)
        if stop_at < self._now:
            raise SimulationError(f"run(until={stop_at}) is in the past (now={self._now})")
        while self._heap and self._heap[0][0] <= stop_at:
            self.step()
        self._now = stop_at
        return None


def _reraise(exc: BaseException) -> Any:
    raise exc
