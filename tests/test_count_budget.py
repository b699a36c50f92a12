"""The count budget: the repo's deterministic perf gate (no timing).

Host time is noisy; the counts behind it are not. ``BUDGET`` pins, per
workload row, the counts that say how much work a run does:

- ``events``: engine events processed (a cap);
- ``heartbeats``: heartbeat exchanges the JobTracker served (exact: the
  protocol itself, unchanged by any cost work);
- ``parks``: heartbeat parks (exact);
- ``assign``: scheduler ``assign`` calls (a cap);
- ``heapify``: ``heapq.heapify`` calls, that is priority-queue rebuilds
  (a cap);
- ``values``: the point's simulated results (exact).

Every cap is the count measured when it was set. A change that lowers
a count lowers its cap with it, so the caps only ratchet down. The
counts come from outside: the test wraps ``Environment`` and
``JobTracker`` construction and every policy's ``assign``; nothing in
``src/`` tallies for it. Figure values are pinned byte for byte by the
goldens, so only the ``scale`` rows, which no golden covers, carry
values here.

The file also pins that a cluster builds no Cell hardware it never
reads: none for Java mappers, none for the event-thin Pi offload (one
analytic event), and every SPE and DMA engine for the event-accurate
reference Pi offload.
"""

import heapq
from collections import Counter
from dataclasses import replace

import pytest

from repro import runctx
from repro.cell.dma import DMAEngine
from repro.cell.processor import SPE
from repro.core.simexec import run_pi_job
from repro.experiments import get_scenario
from repro.hadoop.jobtracker import JobTracker
from repro.perf.calibration import Backend
from repro.sched.base import Scheduler
from repro.sim import Environment, Event, Interrupt, PriorityResource, Resource, Store

SAMPLES = 1e11  # the fig8 scenario's default

#: Counts compared as ``measured <= budget``; the rest must match exactly.
CAPS = ("events", "assign", "heapify")

#: Row -> counts at the row's seed (fig8 rows seed 1, the rest the
#: scenario seed 1234).
BUDGET = {
    "fig8-8-java": {"events": 2906, "heartbeats": 862, "parks": 840, "assign": 22},
    "fig8-8-cell": {"events": 356, "heartbeats": 46, "parks": 24, "assign": 22},
    "fig8-8-cell10x": {"events": 811, "heartbeats": 190, "parks": 173, "assign": 22},
    "fig8-72-java": {"events": 4952, "heartbeats": 1030, "parks": 915, "assign": 154},
    "fig8-72-cell": {"events": 2655, "heartbeats": 238, "parks": 123, "assign": 154},
    "fig8-72-cell10x": {"events": 3089, "heartbeats": 382, "parks": 265, "assign": 154},
    "fig4-8": {"events": 2420, "heartbeats": 106, "parks": 80, "assign": 34},
    "fig5-4": {"events": 1652, "heartbeats": 79, "parks": 60, "assign": 27},
    "fig7-1e8": {"events": 305, "heartbeats": 28, "parks": 7, "assign": 20},
    "scale-256": {
        "events": 282_959, "heartbeats": 42_595, "parks": 11_581, "assign": 14_456,
        "values": {
            "FIFO": 287.3745120235993,
            "Fair": 436.9375435460291,
            "Locality-aware": 302.77103761252,
            "Accel-aware": 308.73353761251417,
        },
    },
    "scale-1024": {
        "events": 970_847, "heartbeats": 88_731, "parks": 0, "assign": 44_567,
        "values": {
            "FIFO": 907.995596269413,
            "Fair": 1086.3955962693315,
            "Locality-aware": 908.0080962694128,
            "Accel-aware": 907.995596269413,
        },
    },
    "micro-timeout_chain": {"events": 20_002},
    "micro-event_pingpong": {"events": 16_004},
    "micro-interrupt_storm": {"events": 1_804},
    "micro-cancel_churn": {"events": 8, "heapify": 5},
    "micro-store_pingpong": {"events": 12_003},
    "micro-resource_cycle": {"events": 14_002},
}


# --------------------------------------------------------------------------- #
# Workloads                                                                    #
# --------------------------------------------------------------------------- #

FIG8_CURVES = {
    "java": (Backend.JAVA_PPE, SAMPLES),
    "cell": (Backend.CELL_SPE_DIRECT, SAMPLES),
    "cell10x": (Backend.CELL_SPE_DIRECT, 10 * SAMPLES),
}


def _fig8(nodes, curve):
    backend, samples = FIG8_CURVES[curve]

    def run():
        assert run_pi_job(nodes, samples, backend, seed=1).succeeded

    return run


def _scenario_point(name, **overrides):
    """One point of a registered scenario, bound as the sweep driver
    binds it (scenario defaults and seed); returns its values."""
    scenario = get_scenario(name).with_overrides(overrides)
    (cfg,) = scenario.points()
    return lambda: scenario.run_point(cfg)


def micro_timeout_chain(n=20_000):
    """Pure event-loop throughput: one process, n sequential sleeps."""
    env = Environment()

    def proc():
        for _ in range(n):
            yield env.pooled_timeout(1.0)

    env.process(proc())
    env.run()


def micro_event_pingpong(n=8_000):
    """Two processes rendezvousing through bare events."""
    env = Environment()
    box = {"evt": Event(env)}

    def ping():
        for _ in range(n):
            box["evt"].succeed()
            box["evt"] = Event(env)
            yield env.timeout(1.0)

    def pong():
        for _ in range(n):
            yield box["evt"]

    env.process(pong())
    env.process(ping())
    env.run()


def micro_interrupt_storm(n=600):
    """n sleepers on one shared event, all interrupted (in reverse, the
    worst order for an eager callback removal)."""
    env = Environment()
    barrier = env.timeout(10_000.0)

    def sleeper():
        try:
            yield barrier
        except Interrupt:
            pass

    procs = [env.process(sleeper()) for _ in range(n)]

    def killer():
        yield env.timeout(1.0)
        for p in reversed(procs):
            if p.is_alive:
                p.interrupt("storm")

    env.process(killer())
    env.run()


def micro_cancel_churn(n=600):
    """n queued priority requests withdrawn in one wave: lazy deletion
    rebuilds the heap a handful of times, not once per cancel."""
    env = Environment()
    res = PriorityResource(env, capacity=1)

    def holder():
        with res.request(priority=0) as req:
            yield req
            yield env.timeout(1_000.0)

    def churn():
        yield env.timeout(1.0)
        reqs = [res.request(priority=1 + (i % 7)) for i in range(n)]
        yield env.timeout(1.0)
        for r in reqs:
            r.cancel()

    env.process(holder())
    env.process(churn())
    env.run()


def micro_store_pingpong(n=6_000):
    """Producer/consumer through bounded Stores: the mailbox pattern of
    the cluster protocol."""
    env = Environment()
    inbox = Store(env, capacity=4)
    outbox = Store(env, capacity=4)

    def producer():
        for i in range(n):
            yield inbox.put(i)
            yield outbox.get()

    def consumer():
        for _ in range(n):
            item = yield inbox.get()
            yield outbox.put(item)

    env.process(producer())
    env.process(consumer())
    env.run()


def micro_resource_cycle(n=7_000):
    """Acquire/hold/release cycles on an uncontended unit resource."""
    env = Environment()
    res = Resource(env, capacity=1)

    def worker():
        for _ in range(n):
            with res.request() as req:
                yield req
                yield env.timeout(1.0)

    env.process(worker())
    env.run()


#: Row -> zero-argument workload (returns the point's values, if any).
WORKLOADS = {
    **{f"fig8-{nodes}-{curve}": _fig8(nodes, curve)
       for nodes in (8, 72) for curve in FIG8_CURVES},
    # One point of each other cluster figure, at the golden grid.
    "fig4-8": _scenario_point("fig4", nodes=8, gb_per_mapper=0.5),
    "fig5-4": _scenario_point("fig5", nodes=4, data_gb=4),
    "fig7-1e8": _scenario_point("fig7", nodes=4, samples=1e8),
    "scale-256": _scenario_point("scale", nodes=256),
    "scale-1024": _scenario_point("scale", nodes=1024),
    "micro-timeout_chain": micro_timeout_chain,
    "micro-event_pingpong": micro_event_pingpong,
    "micro-interrupt_storm": micro_interrupt_storm,
    "micro-cancel_churn": micro_cancel_churn,
    "micro-store_pingpong": micro_store_pingpong,
    "micro-resource_cycle": micro_resource_cycle,
}

#: Rows cheap enough to run under both engine loops too (their event
#: traces are identical, so one budget serves both).
BOTH_ENGINES = tuple(row for row in BUDGET if row.startswith(("fig8-", "micro-")))


# --------------------------------------------------------------------------- #
# Counting                                                                     #
# --------------------------------------------------------------------------- #


def _on_init(monkeypatch, cls, hook):
    init = cls.__init__

    def hooked_init(self, *args, **kwargs):
        hook(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", hooked_init)


def _counting(monkeypatch, cls):
    built = []
    _on_init(monkeypatch, cls, built.append)
    return built


def _tallied(monkeypatch, owner, name, tally):
    fn = getattr(owner, name)

    def tallying(*args, **kwargs):
        tally[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, tallying)


def _policies(cls=Scheduler):
    """Every Scheduler subclass that defines its own ``assign``."""
    for sub in cls.__subclasses__():
        if "assign" in vars(sub):
            yield sub
        yield from _policies(sub)


@pytest.fixture
def counts(monkeypatch):
    """Count what the test runs; call the fixture's value for the totals.

    A workload runs its clusters one after another, so a new
    ``Environment`` means the earlier ones are done: their counts are
    read then and the objects let go, and no finished cluster stays
    alive to slow the next one down.
    """
    tally = Counter()
    live = []

    def settle():
        for obj in live:
            if isinstance(obj, Environment):
                tally["events"] += obj.processed_events
            else:
                decisions = obj.decision_counters()
                tally["heartbeats"] += decisions["heartbeats"]
                tally["parks"] += decisions["heartbeat_parks"]
        live.clear()

    def built_env(env):
        settle()
        live.append(env)

    _on_init(monkeypatch, Environment, built_env)
    _on_init(monkeypatch, JobTracker, live.append)
    for policy in set(_policies()):
        _tallied(monkeypatch, policy, "assign", tally)
    _tallied(monkeypatch, heapq, "heapify", tally)

    def totals():
        settle()
        return {key: tally[key]
                for key in ("events", "heartbeats", "parks", "assign", "heapify")}

    return totals


CASES = [pytest.param(row, False, id=f"opt-engine-{row}") for row in BUDGET] + [
    pytest.param(row, True, id=f"ref-engine-{row}") for row in BOTH_ENGINES]


@pytest.mark.parametrize("row,engine_reference", CASES)
def test_counts_within_budget(counts, row, engine_reference):
    ctx = replace(runctx.current(), engine_reference=engine_reference,
                  model_reference=False)
    with runctx.using(ctx):
        values = WORKLOADS[row]()
    measured = {**counts(), "values": values}
    budget = BUDGET[row]
    off = {key: (measured[key], want) for key, want in budget.items()
           if (measured[key] > want if key in CAPS else measured[key] != want)}
    assert not off, f"{row}: (measured, budget) off budget: {off}"


# --------------------------------------------------------------------------- #
# Cell hardware built per offload                                              #
# --------------------------------------------------------------------------- #


@pytest.fixture
def spe_builds(monkeypatch):
    return _counting(monkeypatch, SPE)


@pytest.fixture
def dma_builds(monkeypatch):
    return _counting(monkeypatch, DMAEngine)


def _run_cell_pi(model_reference):
    ctx = replace(runctx.current(), model_reference=model_reference)
    with runctx.using(ctx):
        return run_pi_job(2, SAMPLES, Backend.CELL_SPE_DIRECT, seed=1,
                          return_cluster=True)


def test_java_pi_job_builds_no_spe(spe_builds):
    result, sim = run_pi_job(8, SAMPLES, Backend.JAVA_PPE, seed=1,
                             return_cluster=True)
    assert result.succeeded
    assert all(node.cells for node in sim.cluster.workers)
    assert spe_builds == []
    assert all(cell.total_spe_busy_s() == 0.0
               for node in sim.cluster.workers for cell in node.cells)


def test_event_thin_cell_pi_job_builds_no_cell_hardware(spe_builds, dma_builds):
    """The analytic Pi offload reads no SPE and no DMA engine, yet the
    sockets still account the SPE busy time it spreads over them."""
    result, sim = _run_cell_pi(model_reference=False)
    assert result.succeeded
    assert spe_builds == []
    assert dma_builds == []
    cells = [cell for node in sim.cluster.workers for cell in node.cells]
    assert not any(cell.spes_built for cell in cells)
    assert all(cell.total_spe_busy_s() > 0.0 for cell in cells)


def test_reference_cell_pi_job_builds_every_spe(spe_builds, dma_builds):
    """The event-accurate offload runs one process per SPE over the
    socket's DMA engine, so it builds all of them."""
    result, _sim = _run_cell_pi(model_reference=True)
    assert result.succeeded
    assert len(spe_builds) == 2 * 2 * 8  # nodes x sockets x SPEs
    assert len(dma_builds) == 2 * 2  # nodes x sockets
